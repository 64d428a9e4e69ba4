"""Simulator semantics: snapshots, halo exchange, devices, stacked
launches, faults.

Key oracles:

* a hand-derived point-source response for the five-point kernel,
* periodic global indexing for halo exchange (every padded cell of every
  block must equal the globally wrapped value after one exchange),
* the dense `oracle_step` reference for whole runs.
"""

import hashlib
import itertools

import numpy as np
import pytest

from conftest import CORPUS, compile_file, compile_source
from lopec.diagnostics import RuntimeFault
from lopec.ir import (CHUNK_LANES, StorageLayout, Workspace, lower_kernel,
                      run_body)
from lopec import runtime
from lopec.runtime import Machine, RunConfig, oracle_step


def run_machine(result, field, **kw):
    machine = Machine(result, RunConfig(**kw), field)
    machine.run()
    return machine


# -- frozen point-source response -----------------------------------------


def test_point_source_response_is_the_stencil():
    """One step of U(0,0)=U(0,+1)+U(-1,0)-3U(0,0)+U(+1,0)+U(0,-1) on a
    point source leaves the stencil's own weights: -3 at the source and 1
    at each of the four neighbours."""
    result = compile_file(CORPUS / "laplacian.lope")
    field = np.zeros((4, 4))
    field[1, 1] = 1.0          # source at interior point (2,2), 1-based
    machine = run_machine(result, field, images=1, steps=1)
    got = machine.gather()
    want = np.zeros((4, 4))
    want[1, 1] = -3.0
    want[0, 1] = want[2, 1] = want[1, 0] = want[1, 2] = 1.0
    assert np.array_equal(got, want)


def test_point_source_wraps_cyclically_at_the_corner():
    result = compile_file(CORPUS / "laplacian.lope")
    field = np.zeros((4, 4))
    field[0, 0] = 1.0          # corner source
    got = run_machine(result, field, images=1, steps=1).gather()
    want = np.zeros((4, 4))
    want[0, 0] = -3.0
    want[3, 0] = want[1, 0] = want[0, 3] = want[0, 1] = 1.0
    assert np.array_equal(got, want)


def test_constant_field_is_a_bitwise_fixed_point():
    # 4c - 3c = c holds bitwise when 3c is exactly representable
    result = compile_file(CORPUS / "laplacian.lope")
    field = np.full((8, 8), 1.0)
    got = run_machine(result, field.copy(), images=1, steps=25).gather()
    assert np.array_equal(got, field)
    field2 = np.full((8, 8), 0.25)
    got2 = run_machine(result, field2.copy(), images=2, grid_rows=2,
                       steps=25).gather()
    assert np.array_equal(got2, field2)


# -- whole-run agreement with the dense oracle ----------------------------


@pytest.mark.parametrize("stem,kname,shape", [
    ("laplacian", "laplacian", (8, 8)),
    ("avg3", "avg3", (12, 1)),
    ("upwind", "drift2", (8, 6)),
])
def test_single_image_matches_dense_oracle(stem, kname, shape):
    result = compile_file(CORPUS / f"{stem}.lope")
    kir = lower_kernel(result.kernels[kname])
    rng = np.random.default_rng(hash(stem) & 0xFFFF)
    field = rng.uniform(-1, 1, shape)
    steps = 4
    scalars = {"c": np.float64(0.25)} if kname == "drift2" else {}
    ref = field[:, 0] if shape[1] == 1 else field.copy()
    for _ in range(steps):
        ref = oracle_step(ref, kir, scalars)
    got = run_machine(result, field.copy(), images=1, steps=steps).gather()
    got = got[:, 0] if shape[1] == 1 else got
    assert np.array_equal(ref, got)


def test_decompositions_are_bitwise_identical():
    result = compile_file(CORPUS / "laplacian.lope")
    rng = np.random.default_rng(21)
    field = rng.uniform(-1, 1, (8, 8))
    base = run_machine(result, field.copy(), images=1, steps=3).gather()
    for p, mp in [(2, 1), (2, 2), (4, 2), (4, 4), (8, 2)]:
        got = run_machine(result, field.copy(), images=p, grid_rows=mp,
                          steps=3).gather()
        assert np.array_equal(base, got), (p, mp)


# -- halo exchange against periodic indexing ------------------------------


EXCHANGE_TEMPLATE = """\
program main
  real, allocatable, dimension(:,:), codimension[:,:], &
        HALO({l0}:*:{h0}, {l1}:*:{h1}) :: U
  allocate(U(1-{l0}:M+{h0}, 1-{l1}:N+{h1})[MP,*])
  call HALO_TRANSFER(U, BC=CYCLIC)
end program main
"""


@pytest.mark.parametrize("widths", [
    (1, 1, 1, 1), (2, 2, 2, 2), (2, 0, 1, 1), (0, 2, 2, 1), (1, 2, 0, 0),
])
@pytest.mark.parametrize("pgrid", [(1, 1), (2, 1), (4, 2), (4, 1)])
def test_exchange_fills_every_halo_cell_periodically(widths, pgrid):
    l0, h0, l1, h1 = widths
    p, mp = pgrid
    text = EXCHANGE_TEMPLATE.format(l0=l0, h0=h0, l1=l1, h1=h1)
    result = compile_source(text)
    rng = np.random.default_rng(sum(widths) * 100 + p * 10 + mp)
    field = rng.uniform(-1, 1, (8, 8))
    machine = run_machine(result, field.copy(), images=p, grid_rows=mp)
    arr = machine.arrays["u"]
    mg, ng = 8, 8
    m, n = machine.m, machine.n
    for k in machine.images:
        pcol, prow = machine.grid.coords(k)
        view = arr.view(k)
        for c0 in range(view.shape[0]):
            for c1 in range(view.shape[1]):
                g0 = ((pcol - 1) * m + (c0 - l0)) % mg
                g1 = ((prow - 1) * n + (c1 - l1)) % ng
                assert view[c0, c1] == field[g0, g1], (k, c0, c1)


def test_exchange_trials_randomized():
    rng = np.random.default_rng(77)
    for trial in range(25):
        l0, h0 = rng.integers(0, 3), rng.integers(0, 3)
        l1, h1 = rng.integers(0, 3), rng.integers(0, 3)
        text = EXCHANGE_TEMPLATE.format(l0=l0, h0=h0, l1=l1, h1=h1)
        result = compile_source(text)
        field = rng.uniform(-1, 1, (8, 4))
        machine = run_machine(result, field.copy(), images=4, grid_rows=2)
        arr = machine.arrays["u"]
        m, n = machine.m, machine.n
        for k in machine.images:
            pcol, prow = machine.grid.coords(k)
            view = arr.view(k)
            for c0 in range(view.shape[0]):
                for c1 in range(view.shape[1]):
                    g0 = ((pcol - 1) * m + (c0 - l0)) % 8
                    g1 = ((prow - 1) * n + (c1 - l1)) % 4
                    assert view[c0, c1] == field[g0, g1]


EXCHANGE_TEMPLATE_1D = """\
program main
  real, allocatable, dimension(:), codimension[:], HALO({l0}:*:{h0}) :: U
  allocate(U(1-{l0}:M+{h0})[*])
  call HALO_TRANSFER(U, BC=CYCLIC)
end program main
"""


def test_exchange_with_some_mirrors_moves_exactly_the_halo_traffic():
    """Host and device stacks hold distinct random values and a random
    subset of images is mirrored.  After one exchange, by periodic global
    indexing: each halo cell holds its owner's interior value, read from
    the device if the owner is mirrored; a mirrored image's host cells that
    some halo reads equal its device cells; a mirrored image's device halos
    equal its host halos; and nothing else moved."""
    rng = np.random.default_rng(18)
    # (images, grid rows): one image, one grid row, one grid column
    grids = {1: [(1, 1), (2, 1), (4, 1)],
             2: [(1, 1), (3, 1), (2, 2), (6, 3), (3, 3)]}
    for trial in range(40):
        rank = 1 + trial % 2
        p, mp = grids[rank][trial // 2 % len(grids[rank])]
        pgrid = (p // mp, mp)[:rank]
        lo = [int(w) for w in rng.integers(0, 4, rank)]
        hi = [int(w) for w in rng.integers(0, 4, rank)]
        m = [int(rng.integers(max(1, a, b), 6)) for a, b in zip(lo, hi)]
        if rank == 1:
            text = EXCHANGE_TEMPLATE_1D.format(l0=lo[0], h0=hi[0])
        else:
            text = EXCHANGE_TEMPLATE.format(l0=lo[0], h0=hi[0],
                                            l1=lo[1], h1=hi[1])
        extents = [a * b for a, b in zip(m, pgrid)]
        machine = run_machine(compile_source(text),
                              np.zeros((extents + [1])[:2]),
                              images=p, grid_rows=mp)
        arr = machine.arrays["u"]
        mirrored = rng.random(p) < rng.random()
        arr.add_mirrors(np.flatnonzero(mirrored))
        host = rng.uniform(-1, 1, arr.host.shape)
        device = rng.uniform(-1, 1, arr.host.shape)
        arr.host[...], arr.device[...] = host, device
        machine._halo_exchange("u", None)

        want_host, want_device = host.copy(), device.copy()
        halo_cells = []
        for k in machine.images:
            place = machine.grid.coords(k)[:rank]
            for cell in itertools.product(*map(range, arr.host.shape[:-1])):
                j = [c - a + 1 for c, a in zip(cell, lo)]
                if all(1 <= x <= n for x, n in zip(j, m)):
                    continue
                g = [((q - 1) * n + x - 1) % e
                     for q, n, x, e in zip(place, m, j, extents)]
                owner_place = [x // n + 1 for x, n in zip(g, m)] + [1]
                owner = (owner_place[0] - 1) * mp + owner_place[1]
                src = tuple(x % n + a for x, n, a in zip(g, m, lo)) \
                    + (owner - 1,)
                if mirrored[owner - 1]:
                    want_host[src] = device[src]
                halo_cells.append((cell + (k - 1,), src))
        for dst, src in halo_cells:
            want_host[dst] = (device if mirrored[src[-1]] else host)[src]
        for dst, _ in halo_cells:
            if mirrored[dst[-1]]:
                want_device[dst] = want_host[dst]
        case = (rank, p, mp, lo, hi, m, mirrored.tolist())
        assert np.array_equal(arr.host, want_host), case
        assert np.array_equal(arr.device, want_device), case


# -- double buffering ------------------------------------------------------


def test_launch_reads_come_from_a_snapshot():
    text = """\
pure concurrent subroutine shift(U)
  real, dimension(:,:), HALO(1:*:1, 1:*:1) :: U
  U(0,0) = U(-1,0)
end subroutine shift

program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  integer :: device
  device = GET_SUBIMAGE(1)
  allocate(U(0:M+1, 0:N+1)[MP,*])
  call HALO_TRANSFER(U, BC=CYCLIC)
  do concurrent (i=1:M, j=1:N) [[device]]
    call shift( U(i,j)[device] )
  end do
end program main
"""
    result = compile_source(text)
    rng = np.random.default_rng(5)
    field = rng.uniform(-1, 1, (6, 6))
    got = run_machine(result, field.copy(), images=1).gather()
    # if evaluation were in place and ordered, row 0 would smear downward
    assert np.array_equal(got, np.roll(field, 1, axis=0))


def test_center_updates_are_pending_within_a_point():
    text = """\
pure concurrent subroutine twice(U)
  real, dimension(:,:), HALO(1:*:1, 1:*:1) :: U
  U(0,0) = U(0,0)*2
  U(0,0) = U(0,0) + 1
end subroutine twice

program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  integer :: device
  device = GET_SUBIMAGE(1)
  allocate(U(0:M+1, 0:N+1)[MP,*])
  do concurrent (i=1:M, j=1:N) [[device]]
    call twice( U(i,j)[device] )
  end do
end program main
"""
    result = compile_source(text)
    field = np.full((4, 4), 1.5)
    got = run_machine(result, field.copy(), images=1).gather()
    assert np.array_equal(got, field * 2 + 1)


ALIASED_ARGS = """\
pure concurrent subroutine k2(U, V)
  real, dimension(:,:), HALO(1:*:1, 1:*:1) :: U
  real, dimension(:,:), HALO(1:*:1, 1:*:1) :: V
  U(0,0) = 2*V(0,0)
  V(0,0) = V(0,1)
end subroutine k2

program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  integer :: device
  integer :: it
  device = GET_SUBIMAGE(1)
  allocate(U(0:M+1, 0:N+1)[MP,*])
  if (device /= this_image()) then
    allocate(U[device], HALO_SRC=U) [[device]]
  end if
  do it = 1, nsteps
    call HALO_TRANSFER(U, BC=CYCLIC)
    do concurrent (i=1:M, j=1:N) [[device]]
      call k2( U(i,j)[device], U(i,j)[device] )
    end do
  end do
  if (device /= this_image()) then
    U = U[device]
  end if
end program main
"""


def test_aliased_arguments_write_back_the_pre_launch_values():
    """Both parameters name the same buffer.  The pending V is a bare
    neighbour read; writing U back first must not change it, so every
    order ends with V's shifted copy of the pre-launch field."""
    result = compile_source(ALIASED_ARGS)
    rng = np.random.default_rng(17)
    field = rng.uniform(-1, 1, (32, 32))
    runs = [(None, 0), (5, 0), (3, 0), (None, 1)]
    outs = [run_machine(result, field.copy(), images=4, grid_rows=2,
                        steps=2, shuffle_seed=seed, devices=devices).gather()
            for seed, devices in runs]
    for got, run in zip(outs[1:], runs[1:]):
        assert np.array_equal(outs[0], got), run
    assert np.array_equal(outs[0], np.roll(field, -2, axis=1))


def test_aliased_arguments_keep_the_pre_launch_values_across_chunks():
    """One 512 x 256 block on one image spans several evaluation chunks,
    so the pending V, a bare read one column on, reaches into lanes of
    the next chunk while U and V are written back."""
    result = compile_source(ALIASED_ARGS)
    field = np.random.default_rng(18).uniform(-1, 1, (512, 256))
    assert 514 * 256 > 2 * CHUNK_LANES
    for devices in (0, 1):
        got = run_machine(result, field.copy(), images=1, steps=2,
                          devices=devices).gather()
        assert got.tobytes() == np.roll(field, -2, axis=1).tobytes(), devices


# -- execution order independence -----------------------------------------


def test_execution_orders_are_bitwise_identical():
    result = compile_file(CORPUS / "upwind.lope")
    rng = np.random.default_rng(9)
    field = rng.uniform(-1, 1, (8, 6))
    base = run_machine(result, field.copy(), images=1, steps=2).gather()
    for seed in (0, 7, 1, 2, 33):
        got = run_machine(result, field.copy(), images=1, steps=2,
                          shuffle_seed=seed).gather()
        assert np.array_equal(base, got), seed


def random_layout_program(rng) -> tuple[str, int]:
    """A kernel over U and, half the time, V, each with its own halo widths
    (0 to 3 per side), launched over a sub-range; image 2 keeps no mirror.
    Returns the source and its rank."""
    rank = int(rng.integers(1, 3))
    names = ["U", "V"][:int(rng.integers(1, 3))]
    widths = {a: rng.integers(0, 4, (rank, 2)).tolist() for a in names}

    def ref(a, offsets):
        return f"{a}({','.join(map(str, offsets))})"

    def read(a):
        return ref(a, [int(rng.integers(-lo, hi + 1))
                       for lo, hi in widths[a]])

    def halo(a):
        return ", ".join(f"{lo}:*:{hi}" for lo, hi in widths[a])

    dims = ", ".join([":"] * rank)
    terms = [read(a) for a in names for _ in range(2)] + ["c"]
    body = [f"  U{ref('', [0] * rank)} = " + " + 0.5*".join(terms)]
    if len(names) == 2 and rng.integers(2):
        # U is stored already, so V may read only its centre
        body.append(f"  V{ref('', [0] * rank)} = {read('V')} - "
                    f"{ref('U', [0] * rank)}")
    extents = ["M", "N"][:rank]
    bounds = {a: ", ".join(f"{1 - lo}:{m}+{hi}" for m, (lo, hi)
                           in zip(extents, widths[a])) for a in names}
    ranges = ", ".join(
        f"{v}={1 + int(rng.integers(0, 2))}:{m}-{int(rng.integers(0, 2))}"
        for v, m in zip("ij", extents))
    centre = ",".join("ij"[:rank])
    codims = "[:,:]" if rank == 2 else "[:]"
    cobounds = "[MP,*]" if rank == 2 else "[*]"
    lines = [f"pure concurrent subroutine k({', '.join(names)}, c)"]
    lines += [f"  real, dimension({dims}), HALO({halo(a)}) :: {a}"
              for a in names]
    lines += ["  real :: c", *body, "end subroutine k", "",
              "program main"]
    lines += [f"  real, allocatable, dimension({dims}), codimension{codims}, "
              f"HALO({halo(a)}) :: {a}" for a in names]
    lines += ["  integer :: device", "  integer :: it",
              "  device = GET_SUBIMAGE(1)",
              "  if (this_image() == 2) then", "    device = this_image()",
              "  end if"]
    lines += [f"  allocate({a}({bounds[a]}){cobounds})" for a in names]
    lines += ["  if (device /= this_image()) then"]
    lines += [f"    allocate({a}[device], HALO_SRC={a}) [[device]]"
              for a in names]
    lines += ["  end if", "  do it = 1, nsteps"]
    lines += [f"    call HALO_TRANSFER({a}, BC=CYCLIC)" for a in names]
    args = ", ".join(f"{a}({centre})[device]" for a in names)
    lines += [f"    do concurrent ({ranges}) [[device]]",
              f"      call k( {args}, 0.25 )", "    end do", "  end do",
              "end program main", ""]
    return "\n".join(lines), rank


def test_execution_orders_leave_byte_identical_stacks():
    """Halos, cells outside the launch range and device mirrors included,
    the vector order leaves every stack as the pointwise order does."""
    rng = np.random.default_rng(2718)
    for case in range(24):
        text, rank = random_layout_program(rng)
        result = compile_source(text)
        shape = (24, 12) if rank == 2 else (24, 1)
        field = rng.uniform(-1, 1, shape)
        images, rows = [(1, 1), (2, 1), (4, 2 if rank == 2 else 1),
                        (3, 1)][case % 4]
        runs = [run_machine(result, field.copy(), images=images,
                            grid_rows=rows, devices=1, steps=2,
                            shuffle_seed=seed) for seed in (None, case)]
        for name, arr in runs[0].arrays.items():
            other = runs[1].arrays[name]
            assert arr.host.tobytes() == other.host.tobytes(), (name, text)
            assert (arr.device is None) == (other.device is None)
            if arr.device is not None:
                assert arr.device.tobytes() == other.device.tobytes(), (
                    name, text)


# -- device transparency and instrumentation ------------------------------


def test_device_run_is_bitwise_identical_and_instrumented():
    result = compile_file(CORPUS / "laplacian.lope")
    rng = np.random.default_rng(13)
    field = rng.uniform(-1, 1, (8, 8))
    host = run_machine(result, field.copy(), images=2, steps=2)
    dev = run_machine(result, field.copy(), images=2, steps=2, devices=1)
    assert np.array_equal(host.gather(), dev.gather())

    for k in (1, 2):
        assert host.counters[k] == {"launches": 2, "device_launches": 0,
                                    "halo_transfers": 2, "d2h": 0, "h2d": 0}
        # per exchange and dimension: two pulls before the fill, two pushes
        # after; plus the initial mirror fill and the final mirror pull
        assert dev.counters[k] == {"launches": 2, "device_launches": 2,
                                   "halo_transfers": 2, "d2h": 9, "h2d": 9}
    kinds_host = {e[0] for e in host.events}
    assert "device_alloc" not in kinds_host and "d2h" not in kinds_host
    kinds_dev = [e[0] for e in dev.events]
    assert kinds_dev.count("device_alloc") == 2
    first_fill = kinds_dev.index("halo_fill")
    assert "d2h" in kinds_dev[:first_fill]


def test_device_pull_ordering_per_dimension():
    result = compile_file(CORPUS / "laplacian.lope")
    field = np.zeros((4, 4))
    machine = run_machine(result, field, images=1, steps=1, devices=1)
    names = [e[0] for e in machine.events]
    # one transfer: alloc, then per dim: 2 pulls, 2 fills, 2 pushes
    assert names == ["device_alloc", "halo_transfer",
                     "d2h", "d2h", "halo_fill", "halo_fill", "h2d", "h2d",
                     "d2h", "d2h", "halo_fill", "halo_fill", "h2d", "h2d",
                     "launch", "d2h"]


ONE_SIDED_PARTLY_MIRRORED = """\
program main
  real, allocatable, dimension(:), codimension[:], HALO(2:*:0) :: A
  integer :: device
  device = GET_SUBIMAGE(1)
  if (this_image() == 2) then
    device = this_image()
  end if
  allocate(A(-1:M)[*])
  if (device /= this_image()) then
    allocate(A[device], HALO_SRC=A) [[device]]
  end if
  call HALO_TRANSFER(A, BC=CYCLIC)
end program main
"""


def test_one_sided_exchange_with_some_mirrors_logs_each_side():
    """A rank-1 exchange with a low halo only, images 1 and 3 mirrored:
    one pull, one fill for every image and one push, in that order."""
    machine = run_machine(compile_source(ONE_SIDED_PARTLY_MIRRORED),
                          np.arange(12.0)[:, None], images=3, devices=1)
    assert machine.events == [
        ("device_alloc", 1, "a"), ("device_alloc", 3, "a"),
        ("halo_transfer", "a"),
        ("d2h", 1, "a", 0), ("d2h", 3, "a", 0),
        ("halo_fill", 1, "a", 0, "low"), ("halo_fill", 2, "a", 0, "low"),
        ("halo_fill", 3, "a", 0, "low"),
        ("h2d", 1, "a", 0), ("h2d", 3, "a", 0)]
    assert machine.counters == {
        1: {"launches": 0, "device_launches": 0, "halo_transfers": 1,
            "d2h": 1, "h2d": 2},
        2: {"launches": 0, "device_launches": 0, "halo_transfers": 1,
            "d2h": 0, "h2d": 0},
        3: {"launches": 0, "device_launches": 0, "halo_transfers": 1,
            "d2h": 1, "h2d": 2}}
    arr = machine.arrays["a"]
    assert arr.host.T.tolist() == [[10, 11, 0, 1, 2, 3], [2, 3, 4, 5, 6, 7],
                                   [6, 7, 8, 9, 10, 11]]
    assert arr.device[..., 1].tolist() == [0] * 6


def test_device_events_per_image_match_the_single_image_sequence():
    """Images interleave their events differently under stacked launches,
    but each image's own sequence is the one-image sequence."""
    result = compile_file(CORPUS / "laplacian.lope")
    field = np.random.default_rng(4).uniform(-1, 1, (8, 8))
    machine = run_machine(result, field, images=4, grid_rows=2, steps=1,
                          devices=1)
    for k in machine.images:
        names = [e[0] for e in machine.events
                 if e[0] == "halo_transfer" or e[1] == k]
        assert names == ["device_alloc", "halo_transfer",
                         "d2h", "d2h", "halo_fill", "halo_fill", "h2d", "h2d",
                         "d2h", "d2h", "halo_fill", "halo_fill", "h2d", "h2d",
                         "launch", "d2h"], k
    # all four launches run before any image copies its mirror back
    kinds = [e[0] for e in machine.events]
    assert kinds[-8:] == ["launch"] * 4 + ["d2h"] * 4


def test_images_without_a_mirror_exchange_through_the_host():
    text = (CORPUS / "laplacian.lope").read_text().replace(
        "  device = GET_SUBIMAGE(1)\n",
        "  device = GET_SUBIMAGE(1)\n"
        "  if (this_image() == 2) then\n"
        "    device = this_image()\n"
        "  end if\n")
    result = compile_source(text)
    field = np.random.default_rng(11).uniform(-1, 1, (8, 8))
    host = run_machine(result, field.copy(), images=4, grid_rows=2, steps=3)
    dev = run_machine(result, field.copy(), images=4, grid_rows=2, steps=3,
                      devices=1)
    assert np.array_equal(host.gather(), dev.gather())
    assert list(dev.arrays["u"].mirrored) == [True, False, True, True]
    assert dev.counters[2] == host.counters[2]
    assert dev.counters[1] == {"launches": 3, "device_launches": 3,
                               "halo_transfers": 3, "d2h": 13, "h2d": 13}


def test_second_subimage_distinct_handle():
    result = compile_file(CORPUS / "laplacian.lope")
    text = (CORPUS / "laplacian.lope").read_text().replace(
        "GET_SUBIMAGE(1)", "GET_SUBIMAGE(2)")
    result2 = compile_source(text)
    rng = np.random.default_rng(3)
    field = rng.uniform(-1, 1, (8, 8))
    base = run_machine(result, field.copy(), images=2, steps=2,
                       devices=2).gather()
    second = run_machine(result2, field.copy(), images=2, steps=2,
                         devices=2).gather()
    assert np.array_equal(base, second)


def assert_no_mirrors(arr):
    assert arr.device is None and not arr.mirrored.any()


def test_subimage_falls_back_to_this_image_without_devices():
    result = compile_file(CORPUS / "laplacian.lope")
    machine = run_machine(result, np.zeros((4, 4)), images=2, devices=0)
    for k in (1, 2):
        assert machine.env[k]["device"] == k
    assert_no_mirrors(machine.arrays["u"])


def test_requesting_unavailable_device_falls_back():
    text = (CORPUS / "laplacian.lope").read_text().replace(
        "GET_SUBIMAGE(1)", "GET_SUBIMAGE(3)")
    result = compile_source(text)
    machine = run_machine(result, np.zeros((4, 4)), images=1, devices=1)
    assert machine.env[1]["device"] == 1          # 3 > devices: fallback
    assert_no_mirrors(machine.arrays["u"])


# -- coindexed section copies ---------------------------------------------


def test_coindexed_copy_duplicates_neighbor_edge():
    text = """\
program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  allocate(U(0:M+1, 0:N+1)[MP,*])
  U(M+1,:) = U(1,:)[pcol+1, prow]
end program main
"""
    result = compile_source(text)
    rng = np.random.default_rng(17)
    field = rng.uniform(-1, 1, (4, 4))
    machine = run_machine(result, field.copy(), images=4, grid_rows=2)
    arr = machine.arrays["u"]
    for k in machine.images:
        pcol, prow = machine.grid.coords(k)
        east = machine.grid.image_at(pcol + 1, prow)
        view = arr.view(k)
        lay = arr.layout
        got = view[lay.lo[0] + machine.m, lay.lo[1]:lay.lo[1] + machine.n]
        want = arr.view(east)[lay.lo[0], lay.lo[1]:lay.lo[1] + machine.n]
        assert np.array_equal(got, want)


def test_scalar_element_read_and_write():
    text = """\
program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  real :: v
  allocate(U(0:M+1, 0:N+1)[MP,*])
  v = U(1,1)
  U(2,2) = v + 1
end program main
"""
    result = compile_source(text)
    field = np.zeros((4, 4))
    field[0, 0] = 2.5
    machine = run_machine(result, field.copy(), images=1)
    got = machine.gather()
    assert got[1, 1] == 3.5


# -- faults ----------------------------------------------------------------


def fault_of(text, field=None, **kw):
    result = compile_source(text)
    with pytest.raises(RuntimeFault) as exc:
        machine = Machine(result, RunConfig(**kw), field)
        machine.run()
    return exc.value


def test_rank1_requires_single_row_grid():
    result = compile_file(CORPUS / "avg3.lope")
    with pytest.raises(RuntimeFault) as exc:
        Machine(result, RunConfig(images=4, grid_rows=2),
                np.zeros((8, 1))).run()
    assert exc.value.code == "E201"


def test_grid_must_factor_images():
    result = compile_file(CORPUS / "laplacian.lope")
    with pytest.raises(RuntimeFault) as exc:
        Machine(result, RunConfig(images=6, grid_rows=4), np.zeros((8, 8)))
    assert exc.value.code == "E201"


def test_extents_must_divide_evenly():
    result = compile_file(CORPUS / "laplacian.lope")
    with pytest.raises(RuntimeFault) as exc:
        Machine(result, RunConfig(images=3, grid_rows=1), np.zeros((8, 8)))
    assert exc.value.code == "E201"


def test_use_before_allocate_faults():
    text = """\
program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  call HALO_TRANSFER(U, BC=CYCLIC)
end program main
"""
    fault = fault_of(text, images=1)
    assert fault.code == "E202"


def test_double_allocate_faults():
    text = """\
program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  allocate(U(0:M+1, 0:N+1)[MP,*])
  allocate(U(0:M+1, 0:N+1)[MP,*])
end program main
"""
    assert fault_of(text, images=1).code == "E202"


def test_allocate_bounds_must_match_halo():
    text = """\
program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  allocate(U(0:M, 0:N+1)[MP,*])
end program main
"""
    fault = fault_of(text, images=1)
    assert fault.code == "E108"
    assert "expected 0:5" in fault.message or "expected" in fault.message


def test_launch_range_outside_interior_faults():
    text = """\
pure concurrent subroutine k(U)
  real, dimension(:,:), HALO(1:*:1, 1:*:1) :: U
  U(0,0) = U(0,0)
end subroutine k

program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  integer :: device
  device = GET_SUBIMAGE(1)
  allocate(U(0:M+1, 0:N+1)[MP,*])
  do concurrent (i=1:M+1, j=1:N) [[device]]
    call k( U(i,j)[device] )
  end do
end program main
"""
    assert fault_of(text, np.zeros((4, 4)), images=1).code == "E108"


def test_empty_launch_range_is_allowed():
    text = """\
pure concurrent subroutine k(U)
  real, dimension(:,:), HALO(1:*:1, 1:*:1) :: U
  U(0,0) = U(0,0) + 1
end subroutine k

program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  integer :: device
  device = GET_SUBIMAGE(1)
  allocate(U(0:M+1, 0:N+1)[MP,*])
  do concurrent (i=1:0, j=1:N) [[device]]
    call k( U(i,j)[device] )
  end do
end program main
"""
    result = compile_source(text)
    field = np.arange(16, dtype=float).reshape(4, 4)
    machine = run_machine(result, field.copy(), images=1)
    assert np.array_equal(machine.gather(), field)
    assert machine.counters[1]["launches"] == 1


def test_nonconforming_section_copy_faults():
    text = """\
program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: V
  allocate(U(0:M+1, 0:N+1)[MP,*])
  allocate(V(0:M+1, 0:N+1)[MP,*])
  U(0,:) = V(:,1)
end program main
"""
    result = compile_source(text)
    with pytest.raises(RuntimeFault) as exc:
        Machine(result, RunConfig(images=1), np.zeros((8, 4))).run()
    assert exc.value.code == "E108"
    assert "conform" in exc.value.message


NOT_AN_INTEGER = """\
pure concurrent subroutine k(U, c)
  real, dimension(:,:), HALO(1:*:1, 1:*:1) :: U
  integer :: c
  U(0,0) = U(0,0) + c
end subroutine k

program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  real :: r
  integer :: q
  integer :: device
  device = GET_SUBIMAGE(1)
  allocate(U(0:M+1, 0:N+1)[MP,*])
  r = 1.0e300 * 1.0e300
{line}
end program main
"""


@pytest.mark.parametrize("line,value,at", [
    ("  q = r", "inf", (0, 7)),
    ("  q = r - r", "nan", (0, 7)),
    ("  q = 0.5 - r", "-inf", (0, 7)),
    ("""  do concurrent (i=1:M, j=1:N) [[device]]
    call k( U(i,j)[device], r )
  end do""", "inf", (1, 29)),
    ("""  do concurrent (i=1:M, j=1:N) [[device]]
    call k( U(i,j)[device], 1.0e300 )
  end do""", "1e+300", (1, 29)),
    ("""  q = 3037000500
  do concurrent (i=1:M, j=1:N) [[device]]
    call k( U(i,j)[device], q*q )
  end do""", "9223372037000250000", (2, 29)),
    ("  r = 1" + "0" * 400, "1" + "0" * 400, (0, 7)),
], ids=["inf", "nan", "-inf", "kernel-inf", "kernel-1e300", "kernel-int",
        "real"])
def test_a_value_out_of_its_scalar_type_faults_at_its_expression(line,
                                                                 value, at):
    """A real assigned to an integer, or a value passed to an integer
    kernel scalar, that has no 64-bit integer value; and an integer too
    large for a real."""
    fault = fault_of(NOT_AN_INTEGER.format(line=line), np.zeros((4, 4)),
                     images=2)
    assert fault.code == "E108"
    kind = "a real" if line.startswith("  r =") else "an integer"
    assert fault.message == f"the value {value} does not fit {kind}"
    first = NOT_AN_INTEGER.splitlines().index("{line}") + 1
    assert (fault.pos.line, fault.pos.col) == (first + at[0], at[1])


def test_fault_rendering_includes_position_and_code():
    text = """\
program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  allocate(U(0:M, 0:N+1)[MP,*])
end program main
"""
    fault = fault_of(text, images=1)
    rendered = fault.render()
    assert "error[E108]" in rendered
    assert rendered.startswith("test.lope:3:")


def test_halo_wider_than_a_block_faults_at_allocation():
    result = compile_file(CORPUS / "upwind.lope")
    field = np.zeros((32, 32))
    # 32 grid columns leave one interior cell per image in dim 1, under
    # the two-cell low halo
    with pytest.raises(RuntimeFault) as exc:
        run_machine(result, field, images=32, steps=1)
    assert exc.value.code == "E201"
    for word in ("'u'", "dim 1", "width 2", "extent 1"):
        assert word in exc.value.message
    # a halo exactly as wide as the block runs, and gives the one-image
    # field byte for byte
    field = np.random.default_rng(4).standard_normal((32, 32))
    wide = run_machine(result, field.copy(), images=16, steps=1)
    one = run_machine(result, field.copy(), images=1, steps=1)
    assert wide.gather().tobytes() == one.gather().tobytes()


# -- vector-launch workspace -----------------------------------------------


def workspace_buffers(machine):
    return [buf for ws in machine.workspaces.values() for buf in ws.buffers]


def test_workspace_stops_growing_after_the_first_launch():
    result = compile_file(CORPUS / "laplacian.lope")
    field = np.random.default_rng(8).uniform(-1, 1, (16, 16))
    machine = Machine(result, RunConfig(images=4, grid_rows=2, steps=6),
                      field.copy())
    seen = []
    launch = machine._launch_vector

    def spy(*args):
        launch(*args)
        seen.append([id(buf) for buf in workspace_buffers(machine)])

    machine._launch_vector = spy
    machine.run()
    # the four images launch stacked: one call per step, in one chunk
    assert len(seen) == 6
    assert all(ids == seen[0] for ids in seen)
    # the tape names the buffers: one for the sum, one for 3*U(0,0)
    assert len(seen[0]) == len(machine.kernels["laplacian"].tape.buffers) == 2
    # keyed by kernel, argument layouts, ranges and image count
    layout = StorageLayout((8, 8), (1, 1), (1, 1))
    assert list(machine.workspaces) == [
        ("laplacian", (layout,), ((1, 8), (1, 8)), 4)]
    ws = machine.workspaces["laplacian", (layout,), ((1, 8), (1, 8)), 4]
    # 10 x 10 padded blocks: the lanes run from interior point (1,1) of
    # image 1, flat offset 11, to (8,8) of image 4, 3*100 + 89 - 11 + 1
    # lanes, of which 4 * 64 are launched; the read footprint reaches one
    # cell back in each dimension, 1 + 10 lanes
    assert (ws.lanes, ws.scratch, ws.blocks) == (layout, set(), (10, 10, 4))
    assert (ws.shape, ws.rows, ws.lag) == ((378,), 378, 11)
    assert len(ws.keep) == 378 - 4 * 64
    # each read starts at the emitted C's linear offset: o_1 + 10 o_2
    assert ws.first == {("u", (0, 1)): 21, ("u", (-1, 0)): 10,
                        ("u", (0, 0)): 11, ("u", (1, 0)): 12,
                        ("u", (0, -1)): 1}
    kir = lower_kernel(result.kernels["laplacian"])
    want = field
    for _ in range(6):
        want = oracle_step(want, kir)
    assert np.array_equal(machine.gather(), want)


def left_deep_sum_kernel(terms: int) -> str:
    rng = np.random.default_rng(terms)
    parts = []
    for t in range(terms):
        o0, o1 = (int(v) for v in rng.integers(-1, 2, 2))
        ref = f"U({o0},{o1})"
        parts.append([ref, f"{t % 5 + 2}*{ref}", f"abs({ref})"][t % 3])
    rhs = parts[0]
    for t, part in enumerate(parts[1:]):
        rhs += (" - " if t % 2 else " + ") + part
        if t % 6 == 5:
            rhs += " &\n         "
    return f"""\
pure concurrent subroutine big(U)
  real, dimension(:,:), HALO(1:*:1, 1:*:1) :: U
  U(0,0) = {rhs}
end subroutine big

program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  integer :: device
  integer :: it
  device = GET_SUBIMAGE(1)
  allocate(U(0:M+1, 0:N+1)[MP,*])
  do it = 1, nsteps
    call HALO_TRANSFER(U, BC=CYCLIC)
    do concurrent (i=1:M, j=1:N) [[device]]
      call big( U(i,j)[device] )
    end do
  end do
end program main
"""


def test_long_sum_holds_a_constant_number_of_buffers():
    result = compile_source(left_deep_sum_kernel(40))
    kir = lower_kernel(result.kernels["big"])
    rng = np.random.default_rng(12)
    field = rng.uniform(-1, 1, (12, 10))
    machine = run_machine(result, field.copy(), images=2, steps=3)
    # the tape's buffers, each allocated once in the one workspace
    assert len(machine.workspaces) == 1
    assert len(workspace_buffers(machine)) == \
        len(machine.kernels["big"].tape.buffers) <= 3
    ref = field
    for _ in range(3):
        ref = oracle_step(ref, kir)
    assert np.array_equal(machine.gather(), ref)


def test_run_body_without_workspace_allocates_fresh_results():
    result = compile_file(CORPUS / "laplacian.lope")
    kir = lower_kernel(result.kernels["laplacian"])
    padded = np.random.default_rng(2).uniform(-1, 1, (10, 10))

    def read(name, offsets):
        return padded[1 + offsets[0]:9 + offsets[0],
                      1 + offsets[1]:9 + offsets[1]]

    first = run_body(kir, read)["u"]
    kept = first.copy()
    second = run_body(kir, read)["u"]
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, padded)
    assert np.array_equal(first, kept) and np.array_equal(first, second)

    # with a workspace the stores go in place, into the centre read's
    # window of the padded block; its halo stays as it was
    halo = padded.copy()
    ws = Workspace((8, 8))
    with_ws = run_body(kir, read, None, ws)["u"]
    assert with_ws.base is padded
    assert np.array_equal(padded[1:9, 1:9], first)
    padded[1:9, 1:9] = halo[1:9, 1:9]
    assert np.array_equal(padded, halo)
    assert not any(np.shares_memory(with_ws, buf) for buf in ws.buffers)


# -- stacked launches ------------------------------------------------------


IMAGE_DEPENDENT = """\
pure concurrent subroutine blend(U, c)
  real, dimension(:,:), HALO(1:*:1, 1:*:1) :: U
  real :: c
  U(0,0) = U(0,0) + c*(U(-1,0) + U(+1,0) + U(0,-1) + U(0,+1) - 4*U(0,0))
end subroutine blend

program main
  real, allocatable, dimension(:,:), codimension[:,:], &
        HALO(1:*:1, 1:*:1) :: U
  integer :: device
  integer :: it

  device = GET_SUBIMAGE(1)
  allocate(U(0:M+1, 0:N+1)[MP,*])
  if (device /= this_image()) then
    allocate(U[device], HALO_SRC=U) [[device]]
  end if

  do it = 1, nsteps
    call HALO_TRANSFER(U, BC=CYCLIC)
    do concurrent (i=1:M-pcol+1, j=prow:N) [[device]]
      call blend( U(i,j)[device], 0.5*this_image() )
    end do
    if (this_image() == 2) then
      do concurrent (i=1:M, j=1:N) [[device]]
        call blend( U(i,j)[device], 0.125 )
      end do
    end if
  end do

  if (device /= this_image()) then
    U = U[device]
  end if
  U(M,:) = U(1,:)[pcol+1, prow]
end program main
"""


def sha1_of_run(text, devices):
    result = compile_source(text)
    field = np.random.default_rng(3).standard_normal((16, 16))
    machine = run_machine(result, field, images=4, grid_rows=2, steps=3,
                          devices=devices)
    return hashlib.sha1(machine.gather().tobytes()).hexdigest(), machine


def test_coindexed_read_keeps_the_round_robin_order():
    """The final coindexed read sees how far image 3 (image 1's east
    neighbour) has run: under round-robin, not past its last collective.
    Stacking the launches would let image 3 launch first, giving another
    field, and one that differs between host and device runs.  The
    digests are those of the round-robin simulator before launches were
    stacked."""
    for devices in (0, 1):
        digest, _ = sha1_of_run(IMAGE_DEPENDENT, devices)
        assert digest == "074c491144e1da90742f3ea6b7e7d2552468f2ad", devices


def test_image_dependent_launches_run_in_separate_groups():
    """Without the coindexed read the launches stack; images with other
    ranges, scalars or an extra launch still get their own results."""
    local = IMAGE_DEPENDENT.replace("  U(M,:) = U(1,:)[pcol+1, prow]\n", "")
    for devices in (0, 1):
        digest, machine = sha1_of_run(local, devices)
        assert digest == "5d58877a2537b2ff691227375bdc08112577328c", devices
        assert [machine.counters[k]["launches"] for k in machine.images] \
            == [3, 6, 3, 3]


IMAGE_RANGES = """\
pure concurrent subroutine bump(U)
  real, dimension(:,:), HALO(1:*:1, 1:*:1) :: U
  U(0,0) = U(0,0) + 1
end subroutine bump

program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  integer :: device
  device = GET_SUBIMAGE(1)
  allocate(U(0:M+1, 0:N+1)[MP,*])
  do concurrent (i=1:M-pcol+1, j=prow:N) [[device]]
    call bump( U(i,j)[device] )
  end do
end program main
"""


def test_launches_with_other_ranges_run_apart():
    result = compile_source(IMAGE_RANGES)
    machine = run_machine(result, np.zeros((8, 6)), images=4, grid_rows=2)
    want = np.zeros((8, 6))
    m, n = machine.m, machine.n
    for k in machine.images:
        pcol, prow = machine.grid.coords(k)
        want[(pcol - 1) * m:(pcol - 1) * m + m - pcol + 1,
             (prow - 1) * n + prow - 1:prow * n] = 1.0
    assert np.array_equal(machine.gather(), want)


SIGNED_ZERO = """\
pure concurrent subroutine sign(U, c)
  real, dimension(:,:), HALO(1:*:1, 1:*:1) :: U
  real :: c
  U(0,0) = max(min(1/c, 1.0), -1.0)
end subroutine sign

program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  integer :: device
  real :: s
  device = GET_SUBIMAGE(1)
  allocate(U(0:M+1, 0:N+1)[MP,*])
  s = (1 - this_image()) * 0.0
  do concurrent (i=1:M, j=1:N) [[device]]
    call sign( U(i,j)[device], s )
  end do
end program main
"""


def test_scalars_equal_in_value_but_not_in_sign_launch_apart():
    # image 1 passes 0.0, the others -0.0, so 1/c is +inf or -inf
    result = compile_source(SIGNED_ZERO)
    got = run_machine(result, np.zeros((8, 2)), images=4).gather()
    want = np.full((8, 2), -1.0)
    want[:2] = 1.0
    assert np.array_equal(got, want)


# -- arrays with different halos -------------------------------------------


MIXED_HALOS = """\
pure concurrent subroutine seed(V, U)
  real, dimension(:,:), HALO(2:*:2, 0:*:0) :: V
  real, dimension(:,:), HALO(1:*:1, 1:*:1) :: U
  V(0,0) = 0.5*U(0,0)
end subroutine seed

pure concurrent subroutine mix(U, V)
  real, dimension(:,:), HALO(1:*:1, 1:*:1) :: U
  real, dimension(:,:), HALO(2:*:2, 0:*:0) :: V
  U(0,0) = V(-2,0) + V(2,0) + U(0,1)
end subroutine mix

program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  real, allocatable, dimension(:,:), codimension[:,:], HALO(2:*:2,0:*:0) :: V
  integer :: device
  integer :: it
  device = GET_SUBIMAGE(1)
  allocate(U(0:M+1, 0:N+1)[MP,*])
  allocate(V(-1:M+2, 1:N)[MP,*])
  if (device /= this_image()) then
    allocate(U[device], HALO_SRC=U) [[device]]
    allocate(V[device], HALO_SRC=V) [[device]]
  end if
  do concurrent (i=1:M, j=1:N) [[device]]
    call seed( V(i,j)[device], U(i,j)[device] )
  end do
  do it = 1, nsteps
    call HALO_TRANSFER(U, BC=CYCLIC)
    call HALO_TRANSFER(V, BC=CYCLIC)
    do concurrent (i=1:M, j=1:N) [[device]]
      call mix( U(i,j)[device], V(i,j)[device] )
    end do
  end do
  if (device /= this_image()) then
    U = U[device]
  end if
end program main
"""


def test_a_launch_over_arrays_with_different_halos_matches_roll():
    """``mix`` reads V two cells away in dim 1 and U one cell on in dim 2,
    from arrays whose halos differ; ``seed`` stores to the array with the
    narrower layout.  Every decomposition gives the ``np.roll`` field."""
    result = compile_source(MIXED_HALOS)
    field = np.random.default_rng(21).uniform(-1, 1, (32, 16))
    v = 0.5 * field
    want = field
    for _ in range(3):
        want = np.roll(v, 2, axis=0) + np.roll(v, -2, axis=0) \
            + np.roll(want, -1, axis=1)
    for images in (1, 4, 16):
        for rows in (r for r in range(1, images + 1) if images % r == 0):
            for devices in (0, 1):
                got = run_machine(result, field.copy(), images=images,
                                  grid_rows=rows, devices=devices, steps=3)
                assert got.gather().tobytes() == want.tobytes(), (
                    images, rows, devices)


# -- launch evaluation -----------------------------------------------------


def test_launch_ranges_are_evaluated_once_not_per_image():
    result = compile_file(CORPUS / "upwind.lope")
    field = np.random.default_rng(2).standard_normal((32, 32))
    machine = Machine(result, RunConfig(images=16, grid_rows=4, devices=1,
                                        steps=3), field)
    calls = []
    evaluate = machine._int

    def spy(e, k, what):
        if what == "launch range":
            calls.append(k)
        return evaluate(e, k, what)

    machine._int = spy
    machine.run()
    # two ranges of two bounds each, read from M and N, which hold the
    # same values on every image: evaluated on image 1 for the cohort of
    # all 16 images, once per step
    assert calls == [1] * 4 * 3
    assert sum(c["launches"] for c in machine.counters.values()) == 16 * 3


LOOP_SCALAR = """\
pure concurrent subroutine blend(U, c)
  real, dimension(:,:), HALO(1:*:1, 1:*:1) :: U
  real :: c
  U(0,0) = U(0,0) + c*(U(-1,0) + U(+1,0) + U(0,-1) + U(0,+1) - 4*U(0,0))
end subroutine blend

program main
  real, allocatable, dimension(:,:), codimension[:,:], &
        HALO(1:*:1, 1:*:1) :: U
  integer :: device
  integer :: it

  device = GET_SUBIMAGE(1)
  allocate(U(0:M+1, 0:N+1)[MP,*])
  if (device /= this_image()) then
    allocate(U[device], HALO_SRC=U) [[device]]
  end if

  do it = 1, nsteps
    call HALO_TRANSFER(U, BC=CYCLIC)
    do concurrent (i=pcol:M, j=1:N) [[device]]
      call blend( U(i,j)[device], 0.25*it )
    end do
  end do

  if (device /= this_image()) then
    U = U[device]
  end if
end program main
"""


def test_launches_reading_the_loop_variable_and_pcol_stay_fresh():
    """The scalar changes every step and the range from one grid column
    to the next, so a cached launch must not be reused across either.
    The digest is that of the simulator before launches were cached."""
    for devices in (0, 1):
        digest, machine = sha1_of_run(LOOP_SCALAR, devices)
        assert digest == "0b011cbd8b93548292f5ca5f58c1dee8dc50d364", devices
        assert [machine.counters[k]["launches"] for k in machine.images] \
            == [3, 3, 3, 3]


UNMIRRORED = """\
pure concurrent subroutine bump(U)
  real, dimension(:,:), HALO(1:*:1, 1:*:1) :: U
  U(0,0) = U(0,0) + 1
end subroutine bump

program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  integer :: device
  device = GET_SUBIMAGE(1)
  allocate(U(0:M+1, 0:N+1)[MP,*])
  if (this_image() /= 2) then
    allocate(U[device], HALO_SRC=U) [[device]]
  end if
  do concurrent (i=1:M, j=1:N) [[device]]
    call bump( U(i,j)[device] )
  end do
end program main
"""


def test_an_image_reusing_a_cached_launch_still_checks_its_mirror():
    result = compile_source(UNMIRRORED)
    machine = Machine(result, RunConfig(images=4, grid_rows=2, devices=1),
                      np.zeros((8, 8)))
    with pytest.raises(RuntimeFault) as exc:
        machine.run()
    assert exc.value.code == "E202"
    assert exc.value.message == "'u' is not allocated on the device"
    assert exc.value.pos.line == 14
    # image 1's launch is logged before image 2 faults
    assert [machine.counters[k]["launches"] for k in machine.images] \
        == [1, 0, 0, 0]


PER_IMAGE_SCALARS = """\
pure concurrent subroutine add(U, c)
  real, dimension(:,:), HALO(1:*:1, 1:*:1) :: U
  real :: c
  U(0,0) = U(0,0) + c
end subroutine add

program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  integer :: device
  device = GET_SUBIMAGE(1)
  allocate(U(0:M+1, 0:N+1)[MP,*])
  do concurrent (i=1:M, j=1:N) [[device]]
    call add( U(i,j)[device], 1.0*this_image() )
  end do
  do concurrent (i=1:M, j=1:N) [[device]]
    call add( U(i,j)[device], U(1,1) )
  end do
end program main
"""


def test_scalars_from_this_image_or_an_element_are_evaluated_per_image():
    """Both launches read no name that differs between images, but their
    scalars do: image k adds k, then its own U(1,1), which is k."""
    result = compile_source(PER_IMAGE_SCALARS)
    machine = run_machine(result, np.zeros((8, 6)), images=4, grid_rows=2)
    want = np.zeros((8, 6))
    m, n = machine.m, machine.n
    for k in machine.images:
        pcol, prow = machine.grid.coords(k)
        want[(pcol - 1) * m:pcol * m, (prow - 1) * n:prow * n] = 2.0 * k
    assert np.array_equal(machine.gather(), want)


def test_halo_many_images_work_counts():
    """The benchmark's halo-many-images run: upwind on 128 x 128 over 64
    images on 8 grid rows with one device, 50 steps.  The digests are
    those of the field and the event list before the log was built on
    read."""
    result = compile_file(CORPUS / "upwind.lope")
    field = np.random.default_rng(9).standard_normal((128, 128))
    machine = Machine(result, RunConfig(images=64, grid_rows=8, devices=1,
                                        steps=50), field)
    calls = []
    launch = machine._launch_vector

    def spy(*args):
        calls.append(args[2])
        launch(*args)

    machine._launch_vector = spy
    machine.run()
    totals = {key: sum(c[key] for c in machine.counters.values())
              for key in ("launches", "halo_transfers", "d2h", "h2d")}
    assert totals == {"launches": 3200, "halo_transfers": 3200,
                      "d2h": 9664, "h2d": 9664}
    assert calls == [slice(0, 64)] * 50
    assert hashlib.sha1(machine.gather().tobytes()).hexdigest() \
        == "dc3cd1ea0acdb734380ed18e7870a4153581aaed"
    events = machine.events
    assert len(events) == 32178
    assert hashlib.sha1(repr(events).encode()).hexdigest() \
        == "73bfbc004f3fb4d9b6f71ff3e88b7c8917218c05"
    assert machine.events == events
    events.clear()
    assert len(machine.events) == 32178


def test_benchmark_wrappers_still_see_the_runtime(monkeypatch):
    """``perfbench/run.py`` counts ``ir.run_body_calls`` by wrapping the
    module global ``lopec.runtime.run_body``, and reads the primary
    array's layout through ``lo``, ``hi``, ``interior``, ``rank``,
    ``padded()`` and ``count()``.  A launch that bypassed the global would
    silently zero the benchmark's count."""
    calls = []
    unwrapped = runtime.run_body

    def counting(*args, **kwargs):
        calls.append(args[0].name)
        return unwrapped(*args, **kwargs)

    monkeypatch.setattr(runtime, "run_body", counting)
    result = compile_file(CORPUS / "upwind.lope")
    field = np.random.default_rng(3).standard_normal((32, 32))
    machine = Machine(result, RunConfig(images=8, grid_rows=2, devices=1,
                                        steps=5), field)
    stacked = []
    launch = machine._launch_vector

    def spy(kir, ranges, images, *rest):
        stacked.append(images)
        launch(kir, ranges, images, *rest)

    machine._launch_vector = spy
    machine.run()
    assert stacked == [slice(0, 8)] * 5
    assert calls == ["drift2"] * len(stacked)
    assert sum(c["launches"] for c in machine.counters.values()) == 40
    layout = machine.arrays[machine.primary.name].layout
    assert (layout.interior, layout.lo, layout.hi, layout.rank) == (
        (8, 16), (2, 1), (0, 1), 2)
    assert layout.padded() == (10, 18) and layout.count() == 180


def test_stacked_slabs_are_capped():
    result = compile_file(CORPUS / "laplacian.lope")
    field = np.random.default_rng(6).uniform(-1, 1, (256, 512))
    # 8 images of 128 x 128 = 2**14 cells: four fit in one 2**16 slab
    machine = Machine(result, RunConfig(images=8, grid_rows=4, steps=1),
                      field.copy())
    calls = []
    launch = machine._launch_vector

    def spy(kir, ranges, images, *rest):
        calls.append(images)
        launch(kir, ranges, images, *rest)

    machine._launch_vector = spy
    machine.run()
    assert calls == [slice(0, 4), slice(4, 8)]
    # the lanes of four 130 x 130 padded blocks, from flat offset 131
    layout = StorageLayout((128, 128), (1, 1), (1, 1))
    key = ("laplacian", (layout,), ((1, 128), (1, 128)), 4)
    assert list(machine.workspaces) == [key]
    assert machine.workspaces[key].shape == (67338,)
    assert machine.workspaces[key].blocks == (130, 130, 4)
    kir = lower_kernel(result.kernels["laplacian"])
    assert np.array_equal(machine.gather(), oracle_step(field, kir))
    # a block over the cap launches alone, and a 512 x 512 one is
    # evaluated in chunks: no buffer outgrows one, and a chunk spans more
    # lanes than the reads reach back, 1 + 514
    field = np.random.default_rng(7).uniform(-1, 1, (1024, 512))
    alone = run_machine(result, field.copy(), images=2, steps=1)
    layout = StorageLayout((512, 512), (1, 1), (1, 1))
    key = ("laplacian", (layout,), ((1, 512), (1, 512)), 1)
    assert list(alone.workspaces) == [key]
    workspace = alone.workspaces[key]
    assert workspace.shape == (263166,) and workspace.lag == 515
    assert 1 <= len(workspace.buffers) <= 2
    assert all(buf.size == workspace.rows <= CHUNK_LANES
               for buf in workspace.buffers)
    assert workspace.rows > workspace.lag
    assert np.array_equal(alone.gather(), oracle_step(field, kir))


LONG_COLUMN = """\
pure concurrent subroutine sweep(U)
  real, dimension(:,:), HALO(1:*:1, 1:*:1) :: U
  U(0,0) = U(-1,-1) - 0.5*U(0,-1) + 0.25*U(1,1) - U(0,0)
end subroutine sweep

program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  integer :: device
  integer :: it
  device = GET_SUBIMAGE(1)
  allocate(U(0:M+1, 0:N+1)[MP,*])
  do it = 1, nsteps
    call HALO_TRANSFER(U, BC=CYCLIC)
    do concurrent (i=1:M, j=1:N) [[device]]
      call sweep( U(i,j)[device] )
    end do
  end do
end program main
"""


def test_a_column_longer_than_a_chunk_matches_the_oracle():
    """A 40000 x 3 block: its padded column alone is longer than a chunk,
    and the kernel reads one column back and one row up, so every chunk's
    reads reach further back than a chunk holds."""
    result = compile_source(LONG_COLUMN)
    kir = lower_kernel(result.kernels["sweep"])
    field = np.random.default_rng(19).uniform(-1, 1, (40000, 3))
    machine = run_machine(result, field.copy(), images=1, steps=2)
    assert machine.arrays["u"].layout.padded()[0] > CHUNK_LANES
    want = oracle_step(oracle_step(field, kir), kir)
    assert machine.gather().tobytes() == want.tobytes()


EVERY_STORE = """\
pure concurrent subroutine mix(U, c)
  real, dimension(:,:), HALO(1:*:1, 1:*:1) :: U
  real :: c
  real :: t
  real :: s
  s = 2*c
  t = U(-1,0) - 0.5*U(0,-1) + 0.25*U(0,1)
  U(0,0) = U(1,1)
  t = t + U(0,0)
  U(0,0) = c
  t = t*U(0,0) - s
  U(0,0) = t
  U(0,0) = U(0,0)
end subroutine mix

program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  integer :: device
  integer :: it
  device = GET_SUBIMAGE(1)
  allocate(U(0:M+1, 0:N+1)[MP,*])
  do it = 1, nsteps
    call HALO_TRANSFER(U, BC=CYCLIC)
    do concurrent (i=1:M, j=1:N) [[device]]
      call mix( U(i,j)[device], 0.375 )
    end do
  end do
end program main
"""


def test_every_kind_of_store_over_several_chunks_matches_the_oracle():
    """The stores are a bare read, a scalar, a local and a pending value,
    next to a scalar-only local, on a block of three chunks whose reads
    reach a column back."""
    result = compile_source(EVERY_STORE)
    kir = lower_kernel(result.kernels["mix"])
    field = np.random.default_rng(23).uniform(-1, 1, (256, 256))
    machine = run_machine(result, field.copy(), images=1, steps=2)
    assert machine.arrays["u"].layout.count() > 2 * CHUNK_LANES
    want = field
    for _ in range(2):
        want = oracle_step(want, kir, {"c": 0.375})
    assert machine.gather().tobytes() == want.tobytes()


DIVERGENT_HALO = """\
pure concurrent subroutine bump(U)
  real, dimension(:,:), HALO(1:*:1, 1:*:1) :: U
  U(0,0) = U(0,0) + 1
end subroutine bump

program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  integer :: device
  device = GET_SUBIMAGE(1)
  allocate(U(0:M+1, 0:N+1)[MP,*])
  do concurrent (i=1:M, j=1:N) [[device]]
    call bump( U(i,j)[device] )
  end do
  if (this_image() == 1) then
    call HALO_TRANSFER(U, BC=CYCLIC)
  end if
end program main
"""


def test_a_collective_reached_by_some_images_faults():
    fault = fault_of(DIVERGENT_HALO, np.zeros((4, 4)), images=2)
    assert fault.code == "E202"
    assert fault.message == "images diverged at a collective operation"


# -- defaults --------------------------------------------------------------


def test_default_extents_without_input():
    result = compile_file(CORPUS / "laplacian.lope")
    machine = run_machine(result, None, images=1, steps=1)
    assert machine.gather().shape == (32, 32)
    result1 = compile_file(CORPUS / "avg3.lope")
    machine1 = run_machine(result1, None, images=1, steps=1)
    assert machine1.gather().shape == (64, 1)
