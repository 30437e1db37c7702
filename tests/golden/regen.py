"""Rewrite the golden CLI corpus in this directory.

Each case runs ``python -m circumlab.cli ARGV`` in a fresh interpreter on
the ``src/`` of this checkout, in an empty temporary working directory that
holds a copy of every file in ``inputs/``, with one BLAS/OpenMP thread.  It
records, under ``<case>/``:

- ``argv.json``: the arguments after ``circumlab``
- ``exit_code``, ``stdout`` and ``stderr``, as bytes
- ``out/``: every file the command wrote under ``--out out``

``tests/test_golden.py`` reruns each case and compares the bytes.  Run from
anywhere with

    python tests/golden/regen.py

A change that regenerates the corpus names every file it changed in
CHANGES.md.  ``python tests/golden/regen.py --check`` reruns every case and
writes nothing: it prints each file that would change with the largest
relative change of any number in it, and exits 1 if any file would change.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
INPUTS = HERE / "inputs"

CASES = {
    "triangle_vertices": ["triangle", "0,0", "1,0", "0.3,0.8", "--out", "out"],
    "triangle_needle_json": ["triangle", "--needle", "0.01", "1.5", "--format", "json",
                             "--out", "out"],
    "interp_triangle": ["interp", "0,0", "1,0", "0.2,0.9", "--field", "expxy", "--p", "3",
                        "--out", "out"],
    # err_1p / (R_K |v|_2) is about 1.2 here, above EMPIRICAL_CP = 1, so
    # bound_satisfied is false; no theorem gives that constant: exit 0
    "interp_needle_inf": ["interp", "--needle", "0.1", "1.2", "--p", "inf",
                          "--quad-degree", "6"],
    "interp_needle_study_csv": ["interp", "--needle-study", "1.5", "--levels", "3",
                                "--format", "csv", "--out", "out"],
    "constants_kind_b": ["constants", "--kind", "B", "--degree", "6", "0,0", "1,0", "0,1",
                         "--out", "out"],
    "constants_audit": ["constants", "--audit", "--right", "2", "--canonical", "2",
                        "--degree", "6", "--format", "both", "--out", "out"],
    # the CLI's default audit degree, 12
    "constants_audit_default_degree": ["constants", "--audit", "--right", "3",
                                       "--canonical", "3", "--format", "both",
                                       "--out", "out"],
    "constants_babuska_aziz": ["constants", "--babuska-aziz"],
    # a one-entry history: the uncertainty is NaN, serialized as "nan"
    "constants_kind_d_one_degree": ["constants", "--kind", "D", "--degree", "4",
                                    "0,0", "1,0", "0,1"],
    # the default kind, A1
    "constants_kind_a1": ["constants", "--degree", "6", "0,0", "2,0", "0,1"],
    "constants_kind_a2": ["constants", "--kind", "A2", "--degree", "6",
                          "0,0", "1,0", "0,1.5"],
    # A needs a right triangle with axis-parallel legs: exit 2
    "constants_not_right_triangle": ["constants", "0,0", "1,0", "0.3,0.8"],
    # refused by the condition gate of the B pencil: exit 4
    "constants_kind_b_condition_gate": ["constants", "--kind", "B", "--degree", "8",
                                        "0,0", "2,0", "1,0.000001"],
    # refused by the eigenvalue-spread gate: exit 4
    "constants_kind_d_spread_gate": ["constants", "--kind", "D", "--degree", "8",
                                     "0,0", "2,0", "1.3,0.003"],
    "mesh_crisscross": ["mesh", "--family", "crisscross", "--n", "4", "--out", "out"],
    "mesh_check_crlf": ["mesh", "--check", "square_crlf.txt"],
    "mesh_lens": ["mesh", "--family", "lens", "--n", "3", "--out", "out"],
    "fem_svg": ["fem", "--levels", "2", "--n0", "4", "--svg", "--out", "out"],
    "fem_uniform_json": ["fem", "--family", "uniform", "--levels", "2", "--n0", "4",
                         "--format", "json", "--out", "out"],
    "usage_levels_without_study": ["interp", "0,0", "1,0", "0,1", "--levels", "3"],
    "degenerate_collinear": ["triangle", "0,0", "1,0", "2,0"],
    # the needle's height overflows a float: degenerate, not a failed bound
    "degenerate_needle_overflow_triangle": ["triangle", "--needle", "1e300", "1.5"],
    "degenerate_needle_overflow_interp": ["interp", "--needle", "1e300", "1.5"],
    "degenerate_needle_overflow_constants": ["constants", "--needle", "1e300", "1.5"],
    "usage_needle_study_nan": ["interp", "--needle-study", "nan"],
    # the default family, uniform
    "mesh_uniform_default": ["mesh", "--n", "3", "--out", "out"],
    # the adaptive sup grid of a p = inf report on an explicit triangle
    "interp_triangle_inf": ["interp", "0,0", "1,0", "0.3,0.8", "--p", "inf"],
    # an affine field is reproduced exactly: every error and semi_2p is 0
    "interp_affine_field": ["interp", "0,0", "1,0", "0.3,0.8", "--field", "affine(1,2,3)"],
    # an unknown field name: exit 2
    "usage_unknown_field": ["interp", "0,0", "1,0", "0,1", "--field", "nosuch"],
    # t rounds to 0 in the canonical form: degenerate, exit 3
    "degenerate_canonical_zero_t": ["triangle", "0,0", "1,0", "0,1e-9"],
}


def run_case(argv: list[str], threads: int = 1) -> dict[str, bytes]:
    """The recorded files of one run of ``circumlab ARGV``, by their path
    in the case directory (``argv.json`` excluded)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    with tempfile.TemporaryDirectory() as tmp:
        for path in INPUTS.iterdir():
            shutil.copy(path, tmp)
        proc = subprocess.run([sys.executable, "-m", "circumlab.cli", *argv],
                              cwd=tmp, env=env, capture_output=True, check=False)
        out = Path(tmp, "out")
        files = {f"out/{p.relative_to(out).as_posix()}": p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
    return {"exit_code": f"{proc.returncode}\n".encode(), "stdout": proc.stdout,
            "stderr": proc.stderr, **files}


def recorded(case: Path) -> dict[str, bytes]:
    """The files of a case directory as ``run_case`` returns them."""
    return {p.relative_to(case).as_posix(): p.read_bytes()
            for p in sorted(case.rglob("*")) if p.is_file() and p.name != "argv.json"}


# a decimal or exponent-form number, or a float's non-finite spelling
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?\b(?:nan|inf)\b")


def largest_relative_change(old: bytes, new: bytes) -> float | None:
    """The largest |a - b| / max(|a|, |b|) over the numbers of ``old`` and
    ``new`` taken in order, or None when the text around them differs."""
    if NUMBER.sub(b"#", old) != NUMBER.sub(b"#", new):
        return None
    worst = 0.0
    for a, b in zip(NUMBER.findall(old), NUMBER.findall(new)):
        x, y = float(a), float(b)
        if a != b and x != y:
            finite = math.isfinite(x) and math.isfinite(y)
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)) if finite else math.inf)
    return worst


def check() -> int:
    """Rerun every case against its directory; print what would change."""
    changed = []
    listed = {HERE / name for name in CASES}
    for case in sorted(p.parent for p in HERE.glob("*/argv.json")):
        if case not in listed:
            changed.append(f"{case.name}: recorded but not in CASES")
    for name, argv in CASES.items():
        case = HERE / name
        old = recorded(case) if case.is_dir() else {}
        new = run_case(argv)
        argv_file = case / "argv.json"
        if not argv_file.is_file() or json.loads(argv_file.read_text()) != argv:
            changed.append(f"{name}/argv.json: differs from CASES")
        for rel in sorted(old.keys() | new.keys()):
            if rel not in new or rel not in old:
                changed.append(f"{name}/{rel}: {'no longer written' if rel in old else 'new'}")
            elif old[rel] != new[rel]:
                rel_change = largest_relative_change(old[rel], new[rel])
                changed.append(f"{name}/{rel}: " + (
                    "text changed" if rel_change is None
                    else f"largest relative change {rel_change:.3g}"))
    print("\n".join(changed) if changed else f"{len(CASES)} cases, no change")
    return 1 if changed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="rerun every case and report changes; write nothing")
    if parser.parse_args().check:
        return check()
    for case in HERE.iterdir():
        if (case / "argv.json").is_file():
            shutil.rmtree(case)
    for name, argv in CASES.items():
        case = HERE / name
        for rel, data in {"argv.json": (json.dumps(argv) + "\n").encode(),
                          **run_case(argv)}.items():
            (case / rel).parent.mkdir(parents=True, exist_ok=True)
            (case / rel).write_bytes(data)
        print(f"{name}: exit {(case / 'exit_code').read_text().strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
