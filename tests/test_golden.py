"""The CLI's reports, byte for byte, against the golden corpus in
``golden/``: each case reruns its command in a fresh interpreter and must
give the recorded exit code, stdout, stderr and ``--out`` files.
``golden/regen.py`` rewrites the corpus."""
import json
import math
from pathlib import Path

import pytest

from golden.regen import CASES, HERE, largest_relative_change, recorded, run_case

CASE_DIRS = sorted(p.parent for p in HERE.glob("*/argv.json"))


def _argv(case: Path) -> list[str]:
    return json.loads((case / "argv.json").read_text())


def test_corpus_holds_every_listed_case():
    assert sorted(CASES) == [case.name for case in CASE_DIRS]


@pytest.mark.parametrize("case", CASE_DIRS, ids=lambda case: case.name)
def test_report_bytes(case):
    assert run_case(_argv(case)) == recorded(case)


# the constants reports move with the BLAS thread count (ROADMAP Baseline)
@pytest.mark.parametrize("case", [c for c in CASE_DIRS if _argv(c)[0] != "constants"],
                         ids=lambda case: case.name)
def test_report_bytes_under_two_threads(case):
    assert run_case(_argv(case), threads=2) == recorded(case)


def test_largest_relative_change():
    assert largest_relative_change(b"x 1.0 nan -inf", b"x 1.0 nan -inf") == 0.0
    assert largest_relative_change(b"[1e-3, 2]", b"[1.1e-3, 2]") == pytest.approx(1 / 11)
    assert largest_relative_change(b"0", b"0.0") == 0.0
    assert largest_relative_change(b"v nan", b"v 2") == math.inf
    assert largest_relative_change(b"v -inf", b"v inf") == math.inf
    assert largest_relative_change(b"pass 1", b"fail 1") is None
