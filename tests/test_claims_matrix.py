"""Every cell of the claims matrix (tests/claims_matrix.py) against its committed entry."""

import pytest

from claims_matrix import FOLD_REL_TOL, cells, load, run_cell

CELLS = cells()
MATRIX = load()


def test_matrix_covers_every_cell():
    assert list(MATRIX) == list(CELLS)


@pytest.mark.parametrize("name", list(CELLS))
def test_cell_matches_the_matrix(name):
    got, want = run_cell(*CELLS[name]), MATRIX[name]
    assert got["exit"] == want["exit"]
    assert got["checks"] == want["checks"]
    assert got["certificates"] == want["certificates"]
    assert got["gaps"] == want["gaps"]
    assert [kind for kind, _ in got["folds"]] == [kind for kind, _ in want["folds"]]
    for (_, lam), (_, lam_want) in zip(got["folds"], want["folds"]):
        assert lam == pytest.approx(lam_want, rel=FOLD_REL_TOL)
