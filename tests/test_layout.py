"""Column-major storage layout and the local->global index mapping.

Two hand-computed mappings are frozen here: an 8x4 interior with a halo of
one on every side stores (center (1,1), offset (+1,0)) at linear 12 and
(center (8,4), offset (+1,+1)) at linear 59.
"""

import numpy as np
import pytest

from lopec.ir import StorageLayout, map_local_to_global


def test_frozen_example_low_corner():
    lay = StorageLayout((8, 4), (1, 1), (1, 1))
    assert map_local_to_global((1, 0), (1, 1), lay) == 12


def test_frozen_example_high_corner():
    lay = StorageLayout((8, 4), (1, 1), (1, 1))
    assert map_local_to_global((1, 1), (8, 4), lay) == 59


def test_strides_are_column_major():
    lay = StorageLayout((8, 4, 3), (1, 2, 0), (1, 0, 1))
    # padded extents: 10, 6, 4
    assert lay.padded() == (10, 6, 4)
    assert lay.strides() == (1, 10, 60)
    assert lay.count() == 240


def test_linear_matches_numpy_fortran_order():
    lay = StorageLayout((5, 3), (1, 2), (2, 1))
    flat = np.arange(lay.count(), dtype=np.float64)
    grid = flat.reshape(lay.padded(), order="F")
    for c0 in range(lay.padded()[0]):
        for c1 in range(lay.padded()[1]):
            assert flat[lay.linear((c0, c1))] == grid[c0, c1]


def test_center_plus_offset_lands_on_the_expected_cell():
    lay = StorageLayout((4, 4), (1, 1), (1, 1))
    flat = np.arange(lay.count(), dtype=np.float64)
    grid = flat.reshape(lay.padded(), order="F")
    for ci in range(1, 5):
        for cj in range(1, 5):
            for o0 in (-1, 0, 1):
                for o1 in (-1, 0, 1):
                    linear = map_local_to_global((o0, o1), (ci, cj), lay)
                    assert flat[linear] == grid[ci - 1 + 1 + o0,
                                                cj - 1 + 1 + o1]


def test_mapping_is_a_bijection_onto_the_padded_box():
    rng = np.random.default_rng(5)
    for _ in range(200):
        rank = rng.integers(1, 4)
        interior = tuple(int(rng.integers(1, 6)) for _ in range(rank))
        lo = tuple(int(rng.integers(0, 3)) for _ in range(rank))
        hi = tuple(int(rng.integers(0, 3)) for _ in range(rank))
        lay = StorageLayout(interior, lo, hi)
        seen = set()
        ranges = [range(p) for p in lay.padded()]
        import itertools
        for coords in itertools.product(*ranges):
            seen.add(lay.linear(coords))
        assert seen == set(range(lay.count()))


def test_out_of_bounds_coordinates_rejected():
    lay = StorageLayout((4, 4), (1, 1), (1, 1))
    with pytest.raises(ValueError):
        lay.linear((6, 0))
    with pytest.raises(ValueError):
        lay.linear((-1, 0))


@pytest.mark.parametrize("offsets,center", [
    ((np.array([0, 2]), 0), (4, 1)),          # one past the upper halo
    ((np.array([-2, 0]), 0), (1, 1)),         # one before the lower halo
    ((0, np.array([[0], [1]])), (np.array([1, 4]), 5)),    # second dim
    ((0, -2), (np.array([1, 2]), 1)),         # an int out of the box
])
def test_out_of_box_array_coordinates_rejected(offsets, center):
    lay = StorageLayout((4, 4), (1, 1), (1, 1))
    with pytest.raises(ValueError, match=r"outside padded extents \(6, 6\)"):
        map_local_to_global(offsets, center, lay)


def test_array_coordinates_broadcast_to_flat_indices():
    lay = StorageLayout((4, 3), (1, 2), (2, 0))
    ci = np.arange(1, 5)[:, None, None]
    oj = np.arange(-2, 1)[None, None, :]
    got = map_local_to_global((0, oj), (ci, np.array([1, 3])[None, :, None]),
                              lay)
    assert got.shape == (4, 2, 3)
    for a in range(4):
        for b, cj in enumerate((1, 3)):
            for c in range(3):
                assert got[a, b, c] == map_local_to_global(
                    (0, c - 2), (a + 1, cj), lay)


def test_invalid_layout_rejected():
    with pytest.raises(ValueError):
        StorageLayout((0,), (1,), (1,))
    with pytest.raises(ValueError):
        StorageLayout((4,), (-1,), (0,))
    with pytest.raises(ValueError):
        StorageLayout((4, 4), (1,), (1, 1))
