import math

import numpy as np
import pytest

from circumlab import _basis, constants
from circumlab.constants import (
    D2_REFERENCE,
    AuditEntry,
    AuditRecord,
    a2_constant,
    babuska_aziz_root,
    lemma_inequality_audit,
    rayleigh_A,
    rayleigh_B,
    rayleigh_D,
)
from circumlab.errors import (
    IllConditioned,
    NotApplicable,
    UnsupportedDegree,
)
from circumlab.geometry import Triangle, canonicalize, metrics, reference_triangle
from oracles import quotient_50_digits

REF = reference_triangle()
GENERIC = Triangle((0.1, -0.2), (1.2, 0.1), (0.3, 0.9))
EQUILATERAL = Triangle((0, 0), (1, 0), (0.5, math.sqrt(3) / 2))


def assert_history_nonincreasing(est, slack=1e-10):
    vals = [v for _, v in est.history]
    for a, b in zip(vals, vals[1:]):
        assert b <= a * (1 + slack)


class TestBabuskaAzizRoot:
    def test_value_and_residual(self):
        x = babuska_aziz_root()
        assert x == pytest.approx(0.49291, abs=5e-6)
        assert abs(1 / x + math.tan(1 / x)) <= 1e-9

    def test_reciprocal(self):
        assert a2_constant() == pytest.approx(2.02876, abs=1e-5)


class TestRayleighA:
    def test_reference_converges_to_root(self):
        est = rayleigh_A(REF, 1, 12)
        a2 = a2_constant()
        assert a2 - 1e-12 <= est.value <= 2.05
        assert est.value == pytest.approx(a2, rel=1e-9)
        assert_history_nonincreasing(est)
        hist = dict(est.history)
        assert hist[8] <= hist[4]

    def test_edge_symmetry(self):
        e1 = rayleigh_A(REF, 1, 10)
        e2 = rayleigh_A(REF, 2, 10)
        assert abs(e1.value - e2.value) <= 1e-8
        assert e1.kind == "A1" and e2.kind == "A2-edge"

    def test_stretched_right_triangle_lower_bound(self):
        alpha = 1.2
        beta = math.sqrt(2 - alpha ** 2)
        tri = Triangle((0, 0), (alpha, 0), (0, beta))
        est = rayleigh_A(tri, 1, 10)
        assert est.value >= a2_constant() / math.sqrt(2) - 1e-8

    def test_requires_axis_parallel_right_triangle(self):
        with pytest.raises(NotApplicable):
            rayleigh_A(Triangle((0, 0), (1, 0.2), (0.1, 1)), 1, 6)

    def test_translated_right_triangle_accepted(self):
        est = rayleigh_A(Triangle((2, 3), (3.5, 3), (2, 4)), 1, 8)
        assert est.value > 0

    def test_degree_range_validated(self):
        with pytest.raises(UnsupportedDegree):
            rayleigh_A(REF, 1, 3)
        with pytest.raises(UnsupportedDegree):
            rayleigh_A(REF, 1, 15)
        with pytest.raises(NotApplicable):
            rayleigh_A(REF, 3, 8)

    def test_extrapolated_consistency_at_max_degree(self):
        # top supported degree: agreement with the closed-form root to
        # far better than the 1% consistency target
        est = rayleigh_A(REF, 1, 14)
        assert abs(est.value - a2_constant()) / a2_constant() <= 0.01
        assert abs(est.uncertainty) <= 1e-9

    @pytest.mark.parametrize("tri, edge", [
        (REF, 1),
        (Triangle((0.2, -0.1), (1.5, -0.1), (0.2, 0.6)), 2),
        (Triangle((2, 3), (3.5, 3), (2, 4)), 1),
        (Triangle((2, 3), (3.5, 3), (2, 4)), 2),
    ], ids=["reference", "A2-edge", "translated-edge1", "translated-edge2"])
    def test_matches_monomial_oracle(self, tri, edge):
        got = rayleigh_A(tri, edge, 6).value
        want = quotient_50_digits(tri.vertices, 6, "A", edge)
        assert abs(got - want) <= 1e-11 * want


class TestRayleighB:
    def test_reference_lower_bound(self):
        est = rayleigh_B(REF, 10)
        assert est.value >= a2_constant() / math.sqrt(2)
        assert_history_nonincreasing(est)

    def test_thin_right_triangle_bound(self):
        tri = Triangle((0, 0), (1, 0), (0, 0.1))
        r = metrics(tri).R_K
        assert r == pytest.approx(math.sqrt(1.01) / 2, rel=1e-13)
        est = rayleigh_B(tri, 10)
        assert est.value >= a2_constant() / (2 * r)
        assert est.value >= 2.0187

    def test_constraint_dimension(self):
        rows = constants._constraint_rows(6, "vertices")
        assert np.linalg.matrix_rank(rows) == 3
        # x + y - 1 vanishes at (1,0) and (0,1) but not (0,0): infeasible
        vals = [p[0] + p[1] - 1 for p in REF.vertices]
        assert any(abs(v) > 1e-12 for v in vals)

    def test_matches_monomial_oracle(self):
        tri = GENERIC
        got = rayleigh_B(tri, 5).value
        want = quotient_50_digits(tri.vertices, 5, "B")
        assert abs(got - want) <= 1e-11 * want


class TestRayleighD:
    def test_reference_value_and_history(self):
        est = rayleigh_D(REF, 12)
        assert abs(est.value - D2_REFERENCE) <= 0.02 * D2_REFERENCE
        assert_history_nonincreasing(est)
        assert est.uncertainty >= 0.0

    def test_stretched_lower_bound_via_reference_estimate(self):
        alpha = 1.3
        beta = math.sqrt(2 - alpha ** 2)
        tri = Triangle((0, 0), (alpha, 0), (0, beta))
        d_ref = rayleigh_D(REF, 10).value
        est = rayleigh_D(tri, 10)
        assert est.value >= d_ref / 2 - 1e-8

    def test_scaling_inverse_square(self):
        lam = 3.0
        small = rayleigh_D(REF, 8).value
        big = rayleigh_D(Triangle((0, 0), (lam, 0), (0, lam)), 8).value
        assert big == pytest.approx(small / lam ** 2, rel=1e-8)

    @pytest.mark.parametrize("tri", [REF, GENERIC], ids=["reference", "generic"])
    def test_matches_monomial_oracle(self, tri):
        got = rayleigh_D(tri, 6).value
        want = quotient_50_digits(tri.vertices, 6, "D")
        assert abs(got - want) <= 1e-11 * want

    def test_rotation_translation_invariance(self):
        # at p = 2 both seminorms in the quotient are rotation-invariant,
        # so the estimate must not depend on the triangle's pose
        rng = np.random.default_rng(41)
        base = Triangle((0, 0), (1.3, 0.2), (0.4, 0.9))
        ref_b = rayleigh_B(base, 8).value
        ref_d = rayleigh_D(base, 8).value
        for _ in range(5):
            ang = rng.uniform(0, 2 * math.pi)
            dx, dy = rng.uniform(-3, 3, size=2)
            ca, sa = math.cos(ang), math.sin(ang)
            move = lambda p: (ca * p[0] - sa * p[1] + dx, sa * p[0] + ca * p[1] + dy)
            tri = Triangle(move(base.p1), move(base.p2), move(base.p3))
            assert rayleigh_B(tri, 8).value == pytest.approx(ref_b, rel=1e-9)
            assert rayleigh_D(tri, 8).value == pytest.approx(ref_d, rel=1e-9)


@pytest.mark.parametrize("tri", [REF, GENERIC], ids=["reference", "generic"])
@pytest.mark.parametrize("kind", ["B", "D"])
def test_matches_50_digit_oracle(kind, tri):
    # the exactly reduced pencil solved at 50 digits: what remains is the
    # engine's own rounding
    got = {"B": rayleigh_B, "D": rayleigh_D}[kind](tri, 6).value
    want = quotient_50_digits(tri.vertices, 6, kind)
    assert abs(got - want) <= 1e-11 * want


def _clear_reference_caches():
    for cached in (constants._rule_table, constants._constraint_rows,
                   constants._null_space):
        cached.cache_clear()


@pytest.fixture
def tabulate_calls(monkeypatch):
    """Count the calls of ``_basis.tabulate`` made through the module."""
    calls = []
    tabulate = _basis.tabulate

    def counting(*args, **kwargs):
        calls.append(args[0])
        return tabulate(*args, **kwargs)

    monkeypatch.setattr(_basis, "tabulate", counting)
    return calls


class TestReferenceCaches:
    RIGHT = Triangle((0, 0), (1.7, 0), (0, 0.4))
    OTHER = Triangle((0.5, 0.5), (1.1, 0.5), (0.5, 2.0))

    @pytest.mark.parametrize("estimate", [
        rayleigh_B,
        rayleigh_D,
        lambda tri, degree: rayleigh_A(tri, 1, degree),
        lambda tri, degree: rayleigh_A(tri, 2, degree),
    ], ids=["B", "D", "A-edge1", "A-edge2"])
    def test_second_triangle_tabulates_nothing(self, tabulate_calls, estimate):
        _clear_reference_caches()
        first = estimate(self.RIGHT, 8)
        assert tabulate_calls, "the first call must build the degree-8 tables"
        tabulate_calls.clear()
        second = estimate(self.OTHER, 8)
        assert tabulate_calls == []
        assert second.value != first.value

    def test_cached_arrays_read_only(self):
        rayleigh_A(self.RIGHT, 1, 8)
        rayleigh_B(self.RIGHT, 8)
        weights, tab = constants._rule_table(8)
        arrays = [weights, *tab.values(), constants._constraint_rows(8, "vertices"),
                  constants._constraint_rows(8, "edge1"),
                  constants._null_space(8, "vertices", 6)]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_histories_identical_after_clearing(self, tabulate_calls):
        def histories():
            return [rayleigh_A(self.RIGHT, 1, 10).history,
                    rayleigh_A(self.RIGHT, 2, 10).history,
                    rayleigh_B(self.OTHER, 10).history,
                    rayleigh_D(self.OTHER, 10).history]

        before = histories()
        _clear_reference_caches()
        tabulate_calls.clear()
        after = histories()
        assert tabulate_calls, "clearing must rebuild the tables"
        assert after == before

    def test_null_space_is_the_leading_block_constraint(self):
        # the degree-6 null space of the degree-8 vertex rows: the graded
        # ordering puts the degree <= 6 polynomials in the first 28 columns
        z = constants._null_space(8, "vertices", 6)
        rows = constants._constraint_rows(8, "vertices")
        assert z.shape == (28, 25)
        assert np.abs(rows[:, :28] @ z).max() <= 1e-13
        assert np.allclose(z.T @ z, np.eye(25), atol=1e-13)


class TestGramSharing:
    @pytest.fixture
    def gram_calls(self, monkeypatch):
        calls = []
        grams = constants._grams

        def counting(tri, degree, names):
            calls.append(degree)
            return grams(tri, degree, names)

        monkeypatch.setattr(constants, "_grams", counting)
        return calls

    @pytest.mark.parametrize("tri, builds", [
        (REF, 2),  # the right-legs frame and the canonical frame
        (EQUILATERAL, 1),
    ], ids=["right", "equilateral"])
    def test_audit_builds_once_per_frame(self, gram_calls, tri, builds):
        lemma_inequality_audit(tri, 8)
        assert gram_calls == [8] * builds

    def test_forms_only_the_grams_read(self, monkeypatch):
        # _QUOTIENTS names the Gram matrices each quotient reads; no other
        # is formed, and the mass Gram 2S * I never is
        calls = []
        grams = constants._grams

        def recording(tri, degree, names):
            calls.append(set(names))
            out = grams(tri, degree, names)
            assert out[1].keys() == set(names)
            return out

        monkeypatch.setattr(constants, "_grams", recording)
        for run, want in [(lambda: rayleigh_A(REF, 1, 6), [{"g1"}]),
                          (lambda: rayleigh_A(REF, 2, 6), [{"g1"}]),
                          (lambda: rayleigh_B(REF, 6), [{"g1", "g2"}]),
                          (lambda: rayleigh_D(REF, 6), [{"g2"}]),
                          (lambda: lemma_inequality_audit(REF, 6), [{"g1", "g2"}] * 2)]:
            calls.clear()
            run()
            assert calls == want

    @pytest.mark.parametrize("tri, solves", [(REF, 4), (EQUILATERAL, 2)],
                             ids=["right", "equilateral"])
    def test_audit_solves_once_per_quotient_and_frame(self, monkeypatch, tri, solves):
        # B and D at the audit degree only, with no history below it
        calls = []
        solve = constants._solve

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(constants, "_solve", counting)
        lemma_inequality_audit(tri, 8)
        assert len(calls) == solves

    def test_mass_denominator_skips_condition_number(self, monkeypatch):
        # the mass Gram is 2S * I, whose condition number is 1
        calls = []
        cond = np.linalg.cond

        def counting(b):
            calls.append(b)
            return cond(b)

        monkeypatch.setattr(np.linalg, "cond", counting)
        rayleigh_D(REF, 8)
        rayleigh_A(REF, 1, 8)
        rayleigh_A(REF, 2, 8)
        assert calls == []
        rayleigh_B(REF, 8)
        assert len(calls) == 8 - constants.MIN_DEGREE + 1


class TestAudit:
    def test_reference_bounds_match_known_constants(self):
        rec = lemma_inequality_audit(REF, degree=8)
        byname = {e.lemma: e for e in rec.entries}
        assert byname["B_right_legs"].bound == pytest.approx(1.43455, abs=1e-5)
        assert byname["D_right_legs"].bound == pytest.approx(2.99401, abs=1e-5)
        assert rec.all_pass

    def test_canonical_example(self):
        s, eta = 0.6, 1.0
        t = math.sqrt(1 - s * s)
        tri = Triangle((-1, 0), (1, 0), (s, eta * t))
        rec = lemma_inequality_audit(tri, degree=8)
        byname = {e.lemma: e for e in rec.entries}
        r = metrics(tri).R_K
        want = a2_constant() / (2 ** 2.5 * math.sqrt(3) * r)
        assert byname["B_longest_edge"].bound == pytest.approx(want, rel=1e-12)
        assert byname["B_longest_edge"].passed
        assert byname["D_longest_edge"].passed

    def test_right_family_skipped_when_not_right(self):
        rec = lemma_inequality_audit(EQUILATERAL, degree=6)
        assert {e.lemma for e in rec.entries} == {"B_longest_edge", "D_longest_edge"}

    def test_entry_below_its_bound_fails(self):
        # an entry carries no verdict of its own: passing is computed >= bound
        below = AuditEntry("B_right_legs", 1.0, 1.5)
        assert below.passed is False
        assert below.to_dict() == {"lemma": "B_right_legs", "computed": 1.0,
                                   "bound": 1.5, "pass": False}
        assert AuditEntry("D_right_legs", 1.5, 1.5).passed is True
        record = AuditRecord(REF, 8, [below, AuditEntry("D_right_legs", 2.0, 1.5)])
        assert record.all_pass is False and record.to_dict()["all_pass"] is False

    def test_json_round_trip_fields(self):
        rec = lemma_inequality_audit(REF, degree=6)
        d = rec.to_dict()
        assert set(d) == {"triangle", "degree", "entries", "all_pass"}
        assert set(d["entries"][0]) == {"lemma", "computed", "bound", "pass"}

    @pytest.mark.parametrize("degree", [4, 8, 12])
    @pytest.mark.parametrize("tri", [
        REF,
        EQUILATERAL,
        Triangle((0, 0), (1.62, 0), (0, 0.12)),
        Triangle((-1, 0), (1, 0), (0.6, 0.8)),  # canonical s = 0.6, eta = 1
        Triangle((-1, 0), (1, 0), (0.3, 0.05)),
    ], ids=["reference", "equilateral", "right-1.62x0.12", "canonical-0.6-1",
            "canonical-flat"])
    def test_entries_are_the_top_of_the_histories(self, tri, degree):
        # the audit's single solve per quotient is the last history entry
        # of rayleigh_B / rayleigh_D on the same frame, bit for bit
        form = canonicalize(tri)
        frames = {"longest_edge": Triangle((-1, 0), (1, 0), (form.s, form.eta * form.t))}
        try:
            frames["right_legs"] = constants._right_triangle_ordered(tri)
        except NotApplicable:
            pass
        rec = lemma_inequality_audit(tri, degree)
        assert len(rec.entries) == 2 * len(frames)
        for e in rec.entries:
            kind, family = e.lemma.split("_", 1)
            estimate = {"B": rayleigh_B, "D": rayleigh_D}[kind](frames[family], degree)
            assert e.computed == estimate.value

    # a fixed grid: a point where the audit and the histories disagree is
    # a finding to keep here, not a point to drop
    @pytest.mark.parametrize("s", [0.0, 0.3, 0.9])
    @pytest.mark.parametrize("t", [1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 1e-5, 1e-6])
    def test_refuses_where_the_histories_refuse(self, s, t):
        # the top-degree gates imply the lower-degree ones (interlacing on
        # nested subspaces), so solving at degree 8 alone refuses exactly
        # where some degree of the history does
        tri = Triangle((-1, 0), (1, 0), (s, t))

        def refuses(run):
            try:
                run()
            except IllConditioned:
                return True
            return False

        history = (refuses(lambda: rayleigh_B(tri, 8))
                   or refuses(lambda: rayleigh_D(tri, 8)))
        assert refuses(lambda: lemma_inequality_audit(tri, 8)) == history

    def test_condition_gate_refuses_at_cond_limit(self):
        # cond = 1 / 3e-14, about 3.3e13, just above COND_LIMIT = 1e13
        with pytest.raises(IllConditioned, match="denominator Gram condition"):
            constants._solve(np.eye(2), np.diag([1.0, 3e-14]))

    def test_flat_right_triangle_audit_refuses_before_canonicalizing(self):
        # canonicalize raises DegenerateTriangle here (t rounds to 0); the
        # right-legs frame is audited first and its B pencil is refused
        with pytest.raises(IllConditioned):
            lemma_inequality_audit(Triangle((0, 0), (1, 0), (0, 1e-9)), 8)

    def test_ill_conditioned_raises(self):
        sliver = Triangle((-1, 0), (1, 0), (0.0, 1e-6))
        with pytest.raises(IllConditioned):
            rayleigh_B(sliver, 8)

    def test_flat_triangle_refuses_instead_of_zero(self):
        # max angle pi - 0.003: the smallest pencil eigenvalue drops below
        # the eigensolver noise floor, which must raise, not return garbage
        flat = Triangle((0.6747, 0.19), (0.2135, 0.863), (0.3339, 0.6864))
        with pytest.raises(IllConditioned):
            lemma_inequality_audit(flat, degree=8)
        # moderately flat shapes still compute fine
        est = rayleigh_D(Triangle((-1, 0), (1, 0), (0.0, 0.05)), 8)
        assert est.value > 1.0
