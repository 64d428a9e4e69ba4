"""Process-grid factorization, image numbering, and cyclic wrapping."""

import numpy as np
import pytest

from lopec.diagnostics import RuntimeFault
from lopec.grid import ProcessGrid, create_grid


def test_column_major_image_numbering():
    g = create_grid(6, 2)              # MP=2 rows, NP=3 columns
    assert (g.mp, g.np) == (2, 3)
    # image k -> (pcol, prow): images walk down columns first
    assert [g.coords(k) for k in range(1, 7)] == [
        (1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]


def test_image_at_inverts_coords():
    g = create_grid(6, 2)
    for k in range(1, 7):
        assert g.image_at(*g.coords(k)) == k


def test_image_at_wraps_cyclically():
    g = create_grid(6, 2)
    assert g.image_at(4, 1) == g.image_at(1, 1)
    assert g.image_at(0, 1) == g.image_at(3, 1)
    assert g.image_at(1, 3) == g.image_at(1, 1)
    assert g.image_at(1, 0) == g.image_at(1, 2)
    # a single image is its own neighbour on both axes
    assert create_grid(1, 1).image_at(2, 0) == 1
    assert create_grid(1, 1).image_at(0, 2) == 1


def test_image_at_broadcasts_over_arrays():
    g = create_grid(6, 2)
    pcol = np.array([[0], [1], [4]])
    prow = np.array([0, 1, 3])
    assert g.image_at(pcol, prow).tolist() == [
        [g.image_at(int(c), int(r)) for r in prow] for c in pcol[:, 0]]


@pytest.mark.parametrize("p,mp", [(5, 2), (6, 4), (1, 2), (0, 1)])
def test_non_factorizations_fault(p, mp):
    with pytest.raises(RuntimeFault) as exc:
        create_grid(p, mp)
    assert exc.value.code == "E201"


def test_coords_rejects_out_of_range_images():
    g = create_grid(4, 2)
    with pytest.raises(ValueError):
        g.coords(0)
    with pytest.raises(ValueError):
        g.coords(5)
