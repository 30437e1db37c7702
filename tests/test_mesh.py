import dataclasses
import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circumlab.errors import DegenerateTriangle, InvalidFamily, NonConforming, ParseError
from circumlab.geometry import Triangle, metrics, needle_triangle
from circumlab.mesh import (
    Mesh,
    crisscross_rows,
    gen_crisscross_aniso,
    gen_lens,
    gen_uniform,
    read_mesh,
    stats,
    validate,
    write_mesh,
)
from oracles import read_mesh_lines, validate_loop


class TestMeshObject:
    def test_arrays_and_geometry_read_only(self):
        m = gen_uniform(2)
        for a in (m.vertices, m.boundary, m.triangles, m.coords, *m.geometry):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.vertices = m.vertices * 2

    def test_triangle_arrays_and_geometry_read_only(self):
        tri = Triangle((0.0, 0.0), (1.0, 0.0), (0.2, 0.7))
        assert tri.vertices is tri.vertices and tri.geometry is tri.geometry
        for a in (tri.vertices, tri.geometry[1]):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]

    def test_inputs_left_writable(self):
        v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        t = np.array([[0, 1, 2]])
        Mesh(v, np.ones(3, dtype=bool), t)
        assert v.flags.writeable and t.flags.writeable

    @pytest.mark.parametrize("k, bad", [(0, math.inf), (1, -math.inf), (2, math.inf), (3, -math.inf)],
                             ids=["v0-x-inf", "v1-y-minus-inf", "v2-x-inf", "unused-v3"])
    def test_infinite_vertex_rejected(self, k, bad):
        # vertex 3 is in no triangle; inf at vertex 0 used to reach the
        # geometry and warn there (TestValidate covers a NaN vertex)
        v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        v[k, k % 2] = bad
        with pytest.raises(DegenerateTriangle, match=f"vertex {k} has an infinite coordinate"):
            Mesh(v, np.ones(4, dtype=bool), np.array([[0, 1, 2], [1, 3, 2]]))

    def test_geometry_cached(self):
        m = gen_crisscross_aniso(3, 1.5)
        assert m.coords is m.coords and m.geometry is m.geometry
        assert np.array_equal(m.coords, m.vertices[m.triangles])


class TestUniform:
    def test_smallest(self):
        m = gen_uniform(1)
        s = stats(m)
        assert (s.n_vertices, s.n_triangles) == (4, 2)
        assert s.max_R_K == pytest.approx(math.sqrt(2) / 2, rel=1e-14)
        assert s.min_angle == pytest.approx(math.pi / 4, rel=1e-12)

    def test_counts(self):
        m = gen_uniform(2)
        assert (m.n_vertices, m.n_triangles) == (9, 8)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_conformity(self, n):
        validate(gen_uniform(n))

    def test_invalid_n(self):
        with pytest.raises(InvalidFamily):
            gen_uniform(0)


class TestCrisscross:
    def test_counts(self):
        m = gen_crisscross_aniso(2, 1.5)
        assert crisscross_rows(2, 1.5) == 3
        assert m.n_triangles == 24

    def test_flat_triangle_circumradius_closed_form(self):
        n, alpha = 8, 1.5
        s = stats(gen_crisscross_aniso(n, alpha))
        h = 1.0 / n
        k = 1.0 / crisscross_rows(n, alpha)
        # flat cell triangle: base h, height k/2
        assert s.max_R_K == pytest.approx(k / 4 + h * h / (4 * k), rel=1e-12)

    def test_monotone_family(self):
        ss = [stats(gen_crisscross_aniso(n, 1.5)) for n in (8, 16, 32, 64, 128)]
        for a, b in zip(ss, ss[1:]):
            assert b.max_R_K < a.max_R_K
            assert b.max_angle > a.max_angle
        assert ss[-1].max_angle > 2.9
        assert stats(gen_crisscross_aniso(16, 1.5)).max_angle > 2.2

    def test_alpha_three_halves_closed_form(self):
        # n = 4: 8 rows, cells 1/4 x 1/8; the center splits each into
        # triangles of base 1/4 and height 1/16, and of base 1/8 and height 1/8
        s = stats(gen_crisscross_aniso(4, 1.5))
        assert s.max_angle == pytest.approx(2 * math.atan(2.0), rel=1e-12)
        assert s.min_angle == pytest.approx(math.atan(0.5), rel=1e-12)

    def test_alpha_validation(self):
        with pytest.raises(InvalidFamily):
            gen_crisscross_aniso(4, 2.5)

    def test_invalid_n(self):
        with pytest.raises(InvalidFamily, match="n = 0 must be >= 1"):
            gen_crisscross_aniso(0, 1.5)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_conformity(self, n):
        validate(gen_crisscross_aniso(n, 1.5))


class TestLens:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_vertices_inside_curve(self, n):
        m = gen_lens(n)
        x, y = m.vertices.T
        assert np.all(np.abs(x - y) ** 1.5 + np.abs(x + y) ** 1.5 <= 2.0 + 1e-12)
        validate(m)

    def test_degenerating_family(self):
        s4, s16 = stats(gen_lens(4)), stats(gen_lens(16))
        assert s16.max_angle > s4.max_angle
        assert s16.max_R_K < s4.max_R_K

    def test_invalid_n(self):
        with pytest.raises(InvalidFamily):
            gen_lens(1)


def _random_triangles():
    """Non-degenerate triangles with vertices on a 1e-6 grid in [-1, 1]^2."""
    coord = st.integers(-10 ** 6, 10 ** 6).map(lambda k: k / 10 ** 6)
    point = st.tuples(coord, coord)

    def build(p1, p2, p3):
        try:
            return Triangle(p1, p2, p3)
        except DegenerateTriangle:
            return None

    return st.builds(build, point, point, point).filter(lambda t: t is not None)


class TestStats:
    def test_single_needle_matches_metrics(self):
        tri = needle_triangle(0.5, 1.5)
        s = stats(Mesh(tri.vertices, np.ones(3, bool), [[0, 1, 2]]))
        m = metrics(tri)
        assert s.max_R_K == m.R_K
        assert s.h_max == m.h_K
        assert s.max_angle == pytest.approx(m.theta_max, rel=1e-13)
        assert s.min_rho_over_h == pytest.approx(m.rho_K / m.h_K, rel=1e-13)

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.one_of(
        _random_triangles(),
        st.builds(needle_triangle, st.floats(1e-2, 1.0), st.floats(1.2, 6.0)),
        st.builds(lambda eps, s: Triangle((0, 0), (1, 0), (s, eps)),
                  st.floats(1e-12, 1e-3), st.floats(-0.5, 1.5)),
    ))
    def test_single_triangle_equals_metrics_exactly(self, tri):
        s = stats(Mesh(tri.vertices, np.ones(3, bool), [[0, 1, 2]]))
        m = metrics(tri)
        assert (s.h_max, s.max_R_K, s.min_angle, s.max_angle, s.min_rho_over_h) == (
            m.h_K, m.R_K, m.theta_min, m.theta_max, m.rho_K / m.h_K)

    def test_permutation_invariance(self):
        m = gen_crisscross_aniso(4, 1.5)
        rng = np.random.default_rng(0)
        shuffled = Mesh(
            m.vertices.copy(),
            m.boundary.copy(),
            m.triangles[rng.permutation(m.n_triangles)],
        )
        assert stats(shuffled) == stats(m)

    def test_degenerate_element_reported_with_index(self):
        mesh = Mesh(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([True, True, True]),
            np.array([[0, 2, 1]]),  # clockwise = negative area
        )
        with pytest.raises(DegenerateTriangle, match="element 0"):
            stats(mesh)

    @pytest.mark.parametrize("scale", [1e-110, 1e110])
    def test_area_outside_float_range_rejected(self, scale):
        m = gen_uniform(2)
        scaled = Mesh(m.vertices * scale, m.boundary, m.triangles)
        with pytest.raises(DegenerateTriangle, match="element 0 .* float64 range"):
            stats(scaled)

    @pytest.mark.parametrize("text", [
        "vertices 0\ntriangles 0\n",
        "vertices 0\ntriangles 0\n \t",  # np.loadtxt warns on blank input
        "vertices 3\n0 0 0\n1 0 0\n0 1 0\ntriangles 0\n",
    ])
    def test_mesh_without_triangles_nonconforming(self, text):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            m = read_mesh(text)
        assert caught == []
        with pytest.raises(NonConforming, match="mesh has no triangles"):
            stats(m)

    def test_invariant_max_r_at_least_half_h(self):
        for m in (gen_uniform(3), gen_crisscross_aniso(3, 1.5), gen_lens(4)):
            s = stats(m)
            assert s.max_R_K >= s.h_max / 2 * (1 - 1e-13)
            assert 0 < s.min_angle <= s.max_angle < math.pi


class TestTextFormat:
    def test_round_trip_byte_identity(self):
        for m in (gen_uniform(2), gen_crisscross_aniso(3, 1.5), gen_lens(4)):
            text = write_mesh(m)
            again = write_mesh(read_mesh(text))
            assert text == again

    def test_comments_and_blank_lines_ignored(self):
        text = write_mesh(gen_uniform(1))
        noisy = "# header\n\n" + text.replace("triangles", "# note\ntriangles")
        m = read_mesh(noisy)
        assert m.n_triangles == 2

    def test_repeated_triangle_nonconforming(self):
        text = (
            "vertices 3\n0 0 1\n1 0 1\n0 1 1\n"
            "triangles 2\n0 1 2\n0 1 2\n"
        )
        with pytest.raises(NonConforming):
            read_mesh(text)

    def test_clockwise_reoriented_with_warning(self):
        text = "vertices 3\n0 0 1\n1 0 1\n0 1 1\ntriangles 1\n0 2 1\n"
        m = read_mesh(text)
        assert m.warnings and "reoriented" in m.warnings[0]
        validate(m)

    def test_clockwise_warnings_name_their_lines_in_order(self):
        m = gen_uniform(2)
        lines = write_mesh(m).splitlines()
        head, tris = lines[:11], lines[11:]  # 'vertices 9' .. 'triangles 8'
        body = []
        for k, line in enumerate(tris):
            if k in (1, 5):
                body.append("# comment")
            i, j, l = line.split()
            body.append(f"{i} {l} {j}  # clockwise" if k in (1, 4, 6) else line)
        text = "\n".join(["# header", *head, "", *body]) + "\n"
        got = read_mesh(text)
        # header 1, head 2-12, blank 13, triangles from 14 with comments at 15, 20
        assert got.warnings == [
            f"line {n}: clockwise triangle reoriented" for n in (16, 19, 22)
        ]
        assert np.array_equal(got.triangles, m.triangles)

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 1"):
            read_mesh("vertexes 3\n")
        with pytest.raises(ParseError, match="line 3"):
            read_mesh("vertices 2\n0 0 1\n0 nan_x 1\ntriangles 0\n")
        with pytest.raises(ParseError, match="line 2"):
            read_mesh("vertices 1\n0 0 7\ntriangles 0\n")
        with pytest.raises(ParseError, match="line 1"):
            read_mesh("vertices -1\ntriangles 0\n")
        with pytest.raises(ParseError, match="line 6"):
            read_mesh("vertices 3\n0 0 1\n1 0 1\n0 1 1\ntriangles 1\n0 1 9\n")
        with pytest.raises(ParseError):
            read_mesh("vertices 3\n0 0 1\n1 0 1\n")  # truncated

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "1e400", "-NaN"])
    @pytest.mark.parametrize("comment", ["", "  # a comment"])
    def test_non_finite_coordinate_is_a_parse_error(self, entry, comment):
        # the comment sends the text to the line parser from the start
        text = f"vertices 3\n0 0 1\n1 0 1{comment}\n{entry} 1 1\ntriangles 1\n0 1 2\n"
        with pytest.raises(ParseError, match=f"line 4: non-finite coordinate in '{entry} 1 1'"):
            read_mesh(text)

    def test_boundary_flag_mismatch(self):
        text = "vertices 3\n0 0 1\n1 0 1\n0 1 0\ntriangles 1\n0 1 2\n"
        with pytest.raises(NonConforming, match="boundary flag"):
            read_mesh(text)

    def test_over_shared_edge(self):
        text = (
            "vertices 5\n0 0 1\n1 0 1\n0 1 1\n0.5 1 1\n0.2 2 1\n"
            "triangles 3\n0 1 2\n0 1 3\n0 1 4\n"
        )
        with pytest.raises(NonConforming, match="shared by more"):
            read_mesh(text)

    def test_overlapping_triangle_caught_by_flags(self):
        # passes the edge-count audit but leaves vertex 1 interior
        text = (
            "vertices 4\n0 0 1\n1 0 1\n0 1 1\n1 1 1\n"
            "triangles 3\n0 1 2\n1 3 2\n0 1 3\n"
        )
        with pytest.raises(NonConforming, match="boundary flag"):
            read_mesh(text)

    def test_17_digit_floats(self):
        m = gen_lens(3)
        text = write_mesh(m)
        line = text.splitlines()[1]
        x = float(line.split()[0])
        assert f"{x:.17g}" == line.split()[0]


def _outcome(check, mesh):
    try:
        check(mesh)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    return None


def _corrupt(mesh, faults):
    """Apply faults (kind, a, b) to copies of the mesh arrays: a duplicated
    triangle, a third triangle on an edge, a flipped boundary flag, a
    clockwise element or an out-of-range vertex index (past the end or
    negative); a and b pick
    the element, position or vertex.  Out-of-range indices go in last, so
    that the others can still look up coordinates."""
    v, b, t = mesh.vertices.copy(), mesh.boundary.copy(), mesh.triangles.copy()
    for kind, i, j in sorted(faults, key=lambda f: f[0] == "out_of_range"):
        k = i % len(t)
        if kind == "duplicate":
            t = np.insert(t, j % (len(t) + 1), np.roll(t[k], i % 3), axis=0)
        elif kind == "third":
            # on edge (a, c) of element k, through a point inside it, so that
            # the new triangle has the same orientation
            a, c, d = np.roll(t[k], -(j % 3))
            v = np.vstack([v, (v[d] + 0.5 * (v[a] + v[c])) / 2])
            b = np.append(b, True)
            t = np.insert(t, j % (len(t) + 1), [a, c, len(v) - 1], axis=0)
        elif kind == "flip":
            b[j % len(b)] = ~b[j % len(b)]
        elif kind == "clockwise":
            t[k] = t[k][[0, 2, 1]]
        else:
            t[k, j % 3] = (len(v), len(v) + 1, -1, -2)[j // 3 % 4]
    return Mesh(v, b, t)


_BASES = st.one_of(
    st.integers(1, 4).map(gen_uniform),
    st.integers(1, 3).map(lambda n: gen_crisscross_aniso(n, 1.5)),
    st.integers(2, 4).map(gen_lens),
)
_FAULTS = st.lists(st.tuples(
    st.sampled_from(["duplicate", "third", "flip", "clockwise", "out_of_range"]),
    st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)), max_size=3)


class TestValidate:
    @settings(max_examples=300, deadline=None, database=None)
    @given(_BASES, _FAULTS)
    def test_same_outcome_as_element_loop(self, mesh, faults):
        broken = _corrupt(mesh, faults)
        want = _outcome(validate_loop, broken)
        assert _outcome(validate, broken) == want
        if not faults:
            assert want is None

    @pytest.mark.parametrize("index", [4, 17, -1, -4])
    def test_missing_vertex_rejected(self, index):
        # -1 would wrap round to vertex 3 and give a valid mesh
        m = gen_uniform(1)
        t = m.triangles.copy()
        t[t == 3] = index
        with pytest.raises(NonConforming, match="triangle references a missing vertex"):
            validate(Mesh(m.vertices, m.boundary, t))

    def test_first_non_positive_element_reported(self):
        # element i comes first, element j is the larger one, so it turns
        # into the more negative one
        m = gen_lens(4)
        area = m.geometry[0]
        j = int(np.argmax(area))
        i = int(np.argmin(area[:j]))
        t = m.triangles.copy()
        t[[i, j]] = t[[i, j]][:, [0, 2, 1]]
        for check in (validate, stats):
            with pytest.raises(DegenerateTriangle, match=f"element {i} has non-positive"):
                check(Mesh(m.vertices, m.boundary, t))

    def test_nan_area_rejected(self):
        m = gen_uniform(1)
        v = m.vertices.copy()
        v[np.setdiff1d(m.triangles[1], m.triangles[0]), 0] = np.nan
        for check in (validate, stats):
            with pytest.raises(DegenerateTriangle, match="element 1 has non-positive area nan"):
                check(Mesh(v, m.boundary, m.triangles))

    def test_nan_vertex_in_no_triangle_rejected(self):
        # write_mesh would write vertex 3 as 'nan 5 0', which read_mesh refuses
        m = Mesh([(0, 0), (1, 0), (0, 1), (math.nan, 5)], [True, True, True, False],
                 [(0, 1, 2)])
        message = "vertex 3, in no triangle, has a NaN coordinate (nan, 5.0)"
        for check in (validate, validate_loop):
            with pytest.raises(DegenerateTriangle, match=re.escape(message)):
                check(m)

    def test_first_offending_element_reported(self):
        m = gen_uniform(2)
        t = m.triangles
        a, c, d = t[0, 1], t[0, 2], t[0, 0]  # (a, c) is an interior edge
        v = np.vstack([m.vertices, (m.vertices[d] + 0.5 * (m.vertices[a] + m.vertices[c])) / 2])
        bnd = np.append(m.boundary, True)
        third, repeat = [a, c, 9], t[1]
        # the third triangle on (a, c) at element 3 comes before the repeat
        # of element 1 at element 5
        tris = np.insert(t, [3, 4], [third, repeat], axis=0)
        with pytest.raises(NonConforming, match=rf"edge \({min(a, c)}, {max(a, c)}\) shared"):
            validate(Mesh(v, bnd, tris))
        # and the other way round
        tris = np.insert(t, [2, 4], [repeat, third], axis=0)
        with pytest.raises(NonConforming, match=r"elements 1 and 2 are the same triangle \(0, 3, 4\)"):
            validate(Mesh(v, bnd, tris))


class TestParseErrorLines:
    """A fault deep in a section, after comment lines, names its line."""

    def _text(self):
        lines = write_mesh(gen_crisscross_aniso(4, 1.5)).splitlines()
        nv = int(lines[0].split()[1])
        # comment lines at the top, inside each section and before a header
        body = (["# crisscross n = 4", ""] + lines[:5] + ["# more vertices", "   "]
                + lines[5:nv + 1] + ["# triangles follow"] + lines[nv + 1:nv + 10]
                + ["", "# end of block"] + lines[nv + 10:])
        return body, nv

    @pytest.mark.parametrize("entry, message", [
        ("0.25 1/8 0", "bad vertex entry '0.25 1/8 0'"),
        ("0.25 0.125 2", "flag must be 0 or 1, got '2'"),
    ])
    def test_vertex_section(self, entry, message):
        body, nv = self._text()
        # vertex 30 sits on line 2 + 1 + 4 + 2 + 26 = 35 (1-based)
        k = body.index(f"vertices {nv}") + 1 + 4 + 2 + 25
        body[k] = entry
        with pytest.raises(ParseError, match=message) as exc:
            read_mesh("\n".join(body) + "\n")
        assert exc.value.line == k + 1 == 35

    @pytest.mark.parametrize("entry, message", [
        ("3 4.5 6", "bad triangle entry '3 4.5 6'"),
        ("3 {nv} 6", "vertex index out of range in '3 {nv} 6'"),
    ])
    def test_triangle_section(self, entry, message):
        body, nv = self._text()
        k = len(body) - 20  # a triangle line after the comment block
        assert len(body[k].split()) == 3 and not body[k].startswith("#")
        body[k] = entry.format(nv=nv)
        with pytest.raises(ParseError, match=message.format(nv=nv)) as exc:
            read_mesh("\n".join(body) + "\n")
        assert exc.value.line == k + 1

    def test_commented_text_reads_as_plain(self):
        body, _ = self._text()
        got = read_mesh("\n".join(body) + "\n")
        assert write_mesh(got) == write_mesh(gen_crisscross_aniso(4, 1.5))


@pytest.mark.parametrize("make, digest", [
    (lambda: gen_crisscross_aniso(3, 1.5),
     "a0a59d908dae4a27c94ff959f84f86ab5b26d21f43f38cd277f81e03bddfcc40"),
    (lambda: gen_crisscross_aniso(8, 1.5),
     "b59e6403f57edb7c5a284b71fbb876129b25bffea523288d2721d90f3ddf96c4"),
    (lambda: gen_uniform(5),
     "10002f9cf5efdfc338b5ab999d5117949d8c7ea58758447b17917c6f9630c85b"),
    (lambda: gen_lens(4),
     "746915480b93aee936f717b8dc29fe4b8f1063e56324a842585252f51a51540e"),
    (lambda: gen_lens(8),
     "fbb5b66f08d9669d4814ad865dd1c329d55f2f7de8111136a1a726f351cbd182"),
])
def test_written_files_pinned(make, digest):
    """SHA-256 of write_mesh output, taken from the element-loop generators
    and writer that the index-arithmetic ones replaced."""
    assert hashlib.sha256(write_mesh(make()).encode()).hexdigest() == digest


def test_hand_built_file_pinned():
    """Signed zeros, subnormals, extreme exponents, 17-digit round trips and
    indices past 10**6 (write_mesh does not validate), pinned from the
    writer that formatted one line at a time."""
    m = Mesh(np.array([[-0.0, 5e-324], [1e-300, 0.1], [1e300, -1e300],
                       [-5e-324, 0.30000000000000004]]),
             np.array([True, False, True, False]),
             np.array([[0, 1, 2], [1000001, 2 ** 40, 3], [2 ** 63 - 1, 7, 10 ** 6 + 1]]))
    digest = "9681be1ecb6090e79b806e488f558a2896d84a81c56c6ab32eb546bb4afd0e01"
    assert hashlib.sha256(write_mesh(m).encode()).hexdigest() == digest


# every line break str.splitlines knows besides "\n"
_BREAKS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_EDITS = ["comment", "inline_comment", "blank", "break", "split", "tab", "pad", "plus",
          "underscore", "digit", "drop_token", "extra_token", "flag", "index",
          "clockwise", "trailing", "truncate"]


def _edit(text, edits):
    """``text`` with edits (kind, i, j) applied: line i (mod the line count)
    and choice j of each kind.  Token edits re-join the line with spaces."""
    lines = text.split("\n")[:-1]
    ends = ["\n"] * len(lines)
    tail, cut = "", None
    for kind, i, j in edits:
        k = i % len(lines)
        toks = lines[k].split()
        t = j % max(len(toks), 1)
        if kind == "comment":
            lines.insert(k, "# note")
            ends.insert(k, "\n")
        elif kind == "inline_comment":
            lines[k] += ("# x", " # 0 1 2", "\t#")[j % 3]
        elif kind == "blank":
            lines.insert(k, ("", "   ", "\t", "\x1f")[j % 4])
            ends.insert(k, "\n")
        elif kind == "break":
            ends[k] = _BREAKS[j % len(_BREAKS)]
        elif kind == "split":
            lines[k] = lines[k].replace(" ", _BREAKS[j % len(_BREAKS)], 1)
        elif kind == "tab":
            lines[k] = lines[k].replace(" ", ("\t", "  ", " \t ")[j % 3], 1)
        elif kind == "pad":
            lines[k] = " " * (1 + j % 3) + lines[k] + ("", " ", "\t ")[j % 3]
        elif kind == "underscore" and toks:
            toks[t] = re.sub(r"(\d)(\d)", r"\1_\2", toks[t], count=1)
        elif kind == "digit" and toks:
            zero = (0x660, 0xFF10, 0x966)[j % 3]  # Arabic-Indic, fullwidth, Devanagari
            toks[t] = re.sub(r"\d", lambda d: chr(zero + int(d.group())), toks[t], count=1)
        elif kind == "plus" and toks and toks[t][0] not in "+-":
            toks[t] = "+" + toks[t]
        elif kind == "drop_token" and toks:
            del toks[t]
        elif kind == "extra_token":
            toks.append("0")
        elif kind == "flag" and toks:
            toks[-1] = ("2", "1.0", "-1", "01", "0x1")[j % 5]
        elif kind == "index" and toks:
            toks[t] = ("-1", "1.0", "1e0", str(10 ** 6), str(2 ** 64))[j % 5]
        elif kind == "clockwise" and len(toks) == 3:
            toks[1], toks[2] = toks[2], toks[1]
        elif kind == "trailing":
            tail += ("0 1 2\n", "junk\n", "\n", "  \n", "# end\n")[j % 5]
        elif kind == "truncate":
            cut = i
        if kind in ("underscore", "digit", "plus", "drop_token", "extra_token",
                    "flag", "index", "clockwise"):
            lines[k] = " ".join(toks)
    out = "".join(line + end for line, end in zip(lines, ends)) + tail
    return out if cut is None else out[:cut % (len(out) + 1)]


def _read_outcome(read, text):
    try:
        m = read(text)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    return m.vertices.tobytes(), m.boundary.tobytes(), m.triangles.tobytes(), m.warnings


class TestReadEquivalence:
    @pytest.mark.parametrize("brk", _BREAKS)
    @pytest.mark.parametrize("line", [2, 7])  # a vertex line, a triangle line
    def test_line_break_inside_a_line(self, brk, line):
        # np.loadtxt reads most of these as spaces, str.splitlines as line ends
        lines = write_mesh(gen_uniform(1)).split("\n")
        lines[line - 1] = lines[line - 1].replace(" ", brk, 1)
        text = "\n".join(lines)
        want = _read_outcome(read_mesh_lines, text)
        assert want[0] is ParseError and want[1].startswith(f"line {line}:")
        assert _read_outcome(read_mesh, text) == want

    @settings(max_examples=600, deadline=None, database=None)
    @given(_BASES, st.lists(st.tuples(st.sampled_from(_EDITS), st.integers(0, 10 ** 6),
                                      st.integers(0, 10 ** 6)), max_size=4))
    def test_same_outcome_as_line_parser(self, mesh, edits):
        text = _edit(write_mesh(mesh), edits)
        want = _read_outcome(read_mesh_lines, text)
        assert _read_outcome(read_mesh, text) == want
        if not edits:
            assert want[-1] == []
