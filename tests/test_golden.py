"""``run_gp_tests`` still gives the p-values and decisions recorded in
``golden/pvalues.json``: decisions exactly, p-values within 1e-12
relative, since another numpy or BLAS may differ in the last bits.  And
``run_grid`` still writes each golden grid's rates CSV byte for byte, at
1 and at 2 threads.  ``golden/regenerate.py`` rewrites the files and
prints what moved."""

import json

import pytest

from golden.regenerate import GRID_NAMES, PATH, SCORE_NAMES, compute, write_grid

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


@pytest.mark.parametrize("grid_name, threads", [
    *(pytest.param(name, 1, id=name) for name in GRID_NAMES),
    *(pytest.param(name, 2, id=f"{name}-threads2") for name in GRID_NAMES),
])
def test_rates_csv_matches_golden(grid_name, threads, tmp_path):
    got = tmp_path / f"{grid_name}.csv"
    write_grid(grid_name, got, threads)
    assert got.read_bytes().split(b"\n") == PATH.with_name(f"{grid_name}.csv").read_bytes().split(b"\n")
