"""``run_gp_tests`` still gives the p-values and decisions recorded in
``golden/pvalues.json``: decisions exactly, p-values within 1e-12
relative, since another numpy or BLAS may differ in the last bits.
``golden/regenerate.py`` rewrites the file and prints what moved."""

import json

import pytest

from golden.regenerate import PATH, SCORE_NAMES, compute

GOLDEN = json.loads(PATH.read_text())


def test_file_holds_every_score_row():
    assert {key.split("/")[0] for key in GOLDEN} == set(SCORE_NAMES)


@pytest.mark.parametrize("score_name", SCORE_NAMES)
def test_pvalues_match_golden(score_name):
    want = {key: value for key, value in GOLDEN.items() if key.split("/")[0] == score_name}
    got = compute(score_name)
    assert got.keys() == want.keys()
    moved = [
        f"{key}: {want[key]} -> {got[key]}" for key in want
        if got[key][1] != want[key][1] or abs(got[key][0] - want[key][0]) > 1e-12 * want[key][0]
    ]
    assert moved == []
