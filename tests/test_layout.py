"""Column-major storage layout and its padded index map.

``StorageLayout.at`` is the map every runtime read, write-back, section
and halo exchange goes through.  Two hand-computed cells are frozen here:
in an 8x4 interior with a halo of one on every side, (center (1,1),
offset (+1,0)) is stored at linear 12 and (center (8,4), offset (+1,+1))
at linear 59 of the column-major block.
"""

import itertools

import numpy as np
import pytest

from conftest import compile_source
from lopec.diagnostics import RuntimeFault
from lopec.grid import create_grid
from lopec.ir import StorageLayout
from lopec.runtime import DistributedArray, Machine, RunConfig


def flat(lay, coords):
    """Flat index of padded coordinates in the column-major block."""
    return np.ravel_multi_index(coords, lay.padded(), order="F")


def test_frozen_example_low_corner():
    lay = StorageLayout((8, 4), (1, 1), (1, 1))
    assert flat(lay, lay.at((1, 1), (1, 0))) == 12


def test_frozen_example_high_corner():
    lay = StorageLayout((8, 4), (1, 1), (1, 1))
    assert flat(lay, lay.at((8, 4), (1, 1))) == 59


def test_strides_are_column_major():
    lay = StorageLayout((8, 4, 3), (1, 2, 0), (1, 0, 1))
    # padded extents: 10, 6, 4
    assert lay.padded() == (10, 6, 4)
    assert lay.count() == 240
    base = flat(lay, lay.at((1, 1, 1)))
    assert base == 1 + 2 * 10
    for d, stride in enumerate((1, 10, 60)):
        step = tuple(int(e == d) for e in range(3))
        assert flat(lay, lay.at((1, 1, 1), step)) - base == stride


def test_center_plus_offset_lands_on_the_expected_cell():
    lay = StorageLayout((4, 4), (1, 1), (1, 1))
    grid = np.arange(lay.count()).reshape(lay.padded(), order="F")
    for ci in range(1, 5):
        for cj in range(1, 5):
            for o0 in (-1, 0, 1):
                for o1 in (-1, 0, 1):
                    coords = lay.at((ci, cj), (o0, o1))
                    assert grid[coords] == grid[ci - 1 + 1 + o0,
                                                cj - 1 + 1 + o1]


def test_mapping_is_a_bijection_onto_the_padded_box():
    rng = np.random.default_rng(5)
    for _ in range(200):
        rank = rng.integers(1, 4)
        interior = tuple(int(rng.integers(1, 6)) for _ in range(rank))
        lo = tuple(int(rng.integers(0, 3)) for _ in range(rank))
        hi = tuple(int(rng.integers(0, 3)) for _ in range(rank))
        lay = StorageLayout(interior, lo, hi)
        # every 1-based position from the low halo to the high one
        box = [range(1 - a, m + b + 1) for m, a, b in zip(interior, lo, hi)]
        seen = {int(flat(lay, lay.at(c))) for c in itertools.product(*box)}
        assert seen == set(range(lay.count()))


SUBSCRIPT = """\
program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  real :: s
  allocate(U(0:M+1, 0:N+1)[MP,*])
  s = U({i}, {j})
end program main
"""


def run_subscript(i, j, field):
    machine = Machine(compile_source(SUBSCRIPT.format(i=i, j=j)),
                      RunConfig(), field)
    machine.run()
    return machine


def test_out_of_bounds_coordinates_rejected():
    """A host subscript is placed by the map and must land in the box:
    the 4x4 interior with a halo of one spans subscripts 0..5."""
    field = np.arange(16, dtype=float).reshape(4, 4)
    for i, j in ((6, 0), (-1, 0), (0, 6), (1, -1)):
        with pytest.raises(RuntimeFault) as exc:
            run_subscript(i, j, field)
        dim, v = (1, i) if not 0 <= i <= 5 else (2, j)
        assert exc.value.message == (f"subscript {v} of 'u' is outside the "
                                     f"allocated bounds in dim {dim}")
    assert run_subscript(5, 0, field).env[1]["s"] == 0.0
    assert run_subscript(4, 1, field).env[1]["s"] == field[3, 0]


@pytest.mark.parametrize("offsets,center", [
    ((np.array([0, 2]), 0), (4, 1)),          # one past the upper halo
    ((np.array([-2, 0]), 0), (1, 1)),         # one before the lower halo
    ((0, np.array([[0], [1]])), (np.array([1, 4]), 5)),    # second dim
    ((0, -2), (np.array([1, 2]), 1)),         # an int out of the box
])
def test_out_of_box_array_coordinates_rejected(offsets, center):
    """The map neither clamps nor wraps: a bounds-checked flat index of
    an out-of-box cell is refused."""
    lay = StorageLayout((4, 4), (1, 1), (1, 1))
    with pytest.raises(ValueError):
        flat(lay, lay.at(center, offsets))


def test_array_coordinates_broadcast_to_flat_indices():
    lay = StorageLayout((4, 3), (1, 2), (2, 0))
    ci = np.arange(1, 5)[:, None, None]
    oj = np.arange(-2, 1)[None, None, :]
    got = flat(lay, lay.at((ci, np.array([1, 3])[None, :, None]), (0, oj)))
    assert got.shape == (4, 2, 3)
    for a in range(4):
        for b, cj in enumerate((1, 3)):
            for c in range(3):
                assert got[a, b, c] == flat(lay, lay.at((a + 1, cj),
                                                        (0, c - 2)))


def test_slab_is_the_map_over_ranges():
    rng = np.random.default_rng(8)
    for _ in range(100):
        rank = int(rng.integers(1, 4))
        interior = tuple(int(rng.integers(1, 6)) for _ in range(rank))
        lo = tuple(int(rng.integers(0, 3)) for _ in range(rank))
        hi = tuple(int(rng.integers(0, 3)) for _ in range(rank))
        lay = StorageLayout(interior, lo, hi)
        ranges = [tuple(sorted(rng.integers(1, m + 1, 2))) for m in interior]
        offsets = tuple(int(rng.integers(-a, b + 1)) for a, b in zip(lo, hi))
        grid = np.arange(lay.count()).reshape(lay.padded(), order="F")
        points = itertools.product(*[range(a, b + 1) for a, b in ranges])
        want = [grid[lay.at(c, offsets)] for c in points]
        got = grid[lay.slab(ranges, offsets)]
        assert got.flatten(order="C").tolist() == want
        interior_cells = grid[lay.slab()]
        assert interior_cells.shape == interior
        assert interior_cells.flat[0] == grid[lay.at((1,) * rank)]


def test_halo_map_fills_every_halo_from_an_interior_cell():
    lay = StorageLayout((5, 4), (1, 2), (3, 0))     # padded 9 x 6
    grid = create_grid(4, 2)                        # 2 x 2 images
    dst, src, pull = DistributedArray(None, lay, grid).halo_map
    count = lay.count()
    interior = {int(flat(lay, lay.at((i, j))))
                for i in range(1, 6) for j in range(1, 5)}
    halo = sorted(set(range(count)) - interior)
    # each image's row lists each of its halo cells once
    assert dst.shape == src.shape == (4, 54 - 20)
    for k in range(4):
        assert sorted(dst[k].tolist()) == [k * count + c for c in halo]
    # every source is an interior cell of some image
    assert set((src % count).ravel().tolist()) <= interior
    # the low-low corner of image 1 (pcol 1, prow 1) is filled from the
    # diagonal neighbour, image 4, at interior (5, 3)
    corner = dst[0].tolist().index(flat(lay, lay.at((0, -1))))
    assert src[0, corner] == 3 * count + flat(lay, lay.at((5, 3)))
    # the cells some halo reads: within a low width of the high edge or a
    # high width of the low edge, per dimension (all but i = 4, j = 1..2)
    assert pull.tolist() == sorted(
        flat(lay, lay.at((i, j))) for i in range(1, 6) for j in range(1, 5)
        if i in (1, 2, 3, 5) or j in (3, 4))
    empty = DistributedArray(None, StorageLayout((3, 2), (0, 0), (0, 0)),
                             grid).halo_map
    assert [a.size for a in empty] == [0, 0, 0]


def test_invalid_layout_rejected():
    with pytest.raises(ValueError):
        StorageLayout((0,), (1,), (1,))
    with pytest.raises(ValueError):
        StorageLayout((4,), (-1,), (0,))
    with pytest.raises(ValueError):
        StorageLayout((4, 4), (1,), (1, 1))
