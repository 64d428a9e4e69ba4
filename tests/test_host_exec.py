"""Host-program execution pinned by digest.

Each program exercises one host feature whose images may take different
paths: a variant ``if`` or loop bound, per-image scalars and mirrors,
section copies and rank 1.  The digest of a program covers, for every
configuration in ``CONFIGS``, the gathered field, ``repr(machine.events)``
and ``repr(machine.counters)``, or the rendered fault.  The digests are
those of the one-generator-per-image simulator, so any change to the
order or the outcome of host execution shows here.
"""

import hashlib

import numpy as np
import pytest

from conftest import CORPUS, compile_source
from lopec.diagnostics import RuntimeFault
from lopec.runtime import Machine, RunConfig
from test_runtime import DIVERGENT_HALO, IMAGE_DEPENDENT

# images, grid rows, devices; a 1-D coarray runs on one grid row
CONFIGS = [(1, 1, 0), (4, 2, 0), (4, 2, 1), (8, 1, 1)]

BLEND = """\
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
{decls}
  device = GET_SUBIMAGE(1)
  allocate(U(0:M+1, 0:N+1)[MP,*])
{body}
end program main
"""

MIRROR = """\
  if (device /= this_image()) then
    allocate(U[device], HALO_SRC=U) [[device]]
  end if
"""

COPY_BACK = """\
  if (device /= this_image()) then
    U = U[device]
  end if
"""


def blend(body: str, decls: str = "", mirror: str = MIRROR) -> str:
    return BLEND.format(decls=decls, body=mirror + body)


PROGRAMS = {
    # an image logs a pull and a push in one stop-free run
    "two_mirror_ops": blend("""\
  if (device /= this_image()) then
    U[device] = U
  end if
  do it = 1, nsteps
    call HALO_TRANSFER(U, BC=CYCLIC)
    do concurrent (i=1:M, j=1:N) [[device]]
      call blend( U(i,j)[device], 0.125 )
    end do
    if (device /= this_image()) then
      U = U[device]
      U[device] = U
    end if
  end do
""" + COPY_BACK),
    "variant_loop_bound": blend("""\
  do it = 1, nsteps
    call HALO_TRANSFER(U, BC=CYCLIC)
    do jt = 1, pcol
      do concurrent (i=1:M, j=1:N) [[device]]
        call blend( U(i,j)[device], 0.0625*jt )
      end do
    end do
  end do
""" + COPY_BACK, decls="  integer :: jt\n"),
    "variant_if_with_launch": blend("""\
  do it = 1, nsteps
    if (prow > 1) then
      do concurrent (i=1:M, j=1:N) [[device]]
        call blend( U(i,j)[device], 0.25 )
      end do
    end if
    call HALO_TRANSFER(U, BC=CYCLIC)
    do concurrent (i=1:M, j=1:N) [[device]]
      call blend( U(i,j)[device], 0.125 )
    end do
  end do
""" + COPY_BACK),
    "scalar_from_this_image": blend("""\
  s = 0.03125*this_image()
  t = 0.0
  if (pcol == 2) then
    t = 0.0625
  end if
  do it = 1, nsteps
    call HALO_TRANSFER(U, BC=CYCLIC)
    do concurrent (i=1:M, j=1:N) [[device]]
      call blend( U(i,j)[device], s )
    end do
    do concurrent (i=1:M, j=1:N) [[device]]
      call blend( U(i,j)[device], t )
    end do
  end do
""" + COPY_BACK, decls="  real :: s\n  real :: t\n"),
    "mirrors_on_some_images": blend("""\
  if (pcol == 1) then
    device = this_image()
  end if
""" + MIRROR + """\
  do it = 1, nsteps
    call HALO_TRANSFER(U, BC=CYCLIC)
    do concurrent (i=1:M, j=1:N) [[device]]
      call blend( U(i,j)[device], 0.25 )
    end do
  end do
""" + COPY_BACK, mirror=""),
    "local_section_copy": blend("""\
  allocate(V(0:M+1, 0:N+1)[MP,*])
  do it = 1, nsteps
    call HALO_TRANSFER(U, BC=CYCLIC)
    do concurrent (i=1:M, j=1:N) [[device]]
      call blend( U(i,j)[device], 0.125 )
    end do
    if (device /= this_image()) then
      U = U[device]
    end if
    V(1,:) = U(M,:)
    U(1,:) = V(1,:)
    if (this_image() > 1) then
      U(2,2) = V(1,1) + it
    end if
    if (device /= this_image()) then
      U[device] = U
    end if
  end do
""" + COPY_BACK, decls="  real, allocatable, dimension(:,:), "
                       "codimension[:,:], HALO(1:*:1, 1:*:1) :: V\n"),
    "rank1_avg3": """\
pure concurrent subroutine avg3(A)
  real, dimension(:), HALO(1:*:1) :: A
  A(0) = (A(-1) + A(0) + A(+1)) / 3
end subroutine avg3

program main
  real, allocatable, dimension(:), codimension[:], HALO(1:*:1) :: A
  integer :: device
  integer :: it
  real :: w
  device = GET_SUBIMAGE(1)
  allocate(A(0:M+1)[*])
  if (this_image() /= 2) then
    allocate(A[device], HALO_SRC=A) [[device]]
  end if
  if (this_image() == 2) then
    device = this_image()
  end if
  do it = 1, nsteps
    call HALO_TRANSFER(A, BC=CYCLIC)
    do concurrent (i=1:M) [[device]]
      call avg3( A(i)[device] )
    end do
    if (device /= this_image()) then
      A = A[device]
    end if
    w = A(1) * 0.5
    A(M) = w + it
    if (device /= this_image()) then
      A[device] = A
    end if
  end do
end program main
""",
    # image 3 faults at an element past its block; the others do not
    "variant_fault": blend("""\
  do it = 1, nsteps
    call HALO_TRANSFER(U, BC=CYCLIC)
    do concurrent (i=1:M, j=1:N) [[device]]
      call blend( U(i,j)[device], 0.125 )
    end do
  end do
""" + COPY_BACK + """\
  if (this_image() == 3) then
    U(M+2,1) = 1.0
  end if
"""),
}

DIGESTS = {
    "two_mirror_ops": "f35b3203aa6f835eb88dfa7b59a6238f9c9f389f",
    "variant_loop_bound": "e5dcc9d0ecd1a915d32c54789184c086970b43f5",
    "variant_if_with_launch": "8b9af8c8531f38d0f27fbcde68930644819ff545",
    "scalar_from_this_image": "f41cf8f402e2bdda4f3c1817ce1358e5ea50db84",
    "mirrors_on_some_images": "6b9a4a243fa2d15a588b7b87031451e25820a210",
    "local_section_copy": "68f30873595aca83692f332a8bdb617d46e8dd4a",
    "rank1_avg3": "c27c605938110216efd6fcd94c6f6465498cc889",
    "variant_fault": "4c94ae58fcbe605d9bb2cb02f570a0e67cd62157",
}


def machine_for(text: str, images: int, grid_rows: int,
                devices: int) -> Machine:
    """A three-step machine for ``text`` in one of ``CONFIGS``."""
    result = compile_source(text)
    (primary, *_) = [e for e in result.symtab.arrays() if e.corank > 0]
    shape = (16, 16)
    if primary.rank == 1:
        shape, grid_rows = (32, 1), 1
    field = np.random.default_rng(images * 10 + devices).standard_normal(
        shape)
    return Machine(result, RunConfig(images=images, grid_rows=grid_rows,
                                     devices=devices, steps=3), field)


def outcome(text: str, images: int, grid_rows: int, devices: int) -> bytes:
    try:
        machine = machine_for(text, images, grid_rows, devices)
        machine.run()
        return b"\0".join([machine.gather().tobytes(),
                           repr(machine.events).encode(),
                           repr(machine.counters).encode()])
    except RuntimeFault as fault:
        return fault.render().encode()


def digest_of(text: str) -> str:
    h = hashlib.sha1()
    for config in CONFIGS:
        h.update(outcome(text, *config))
        h.update(b"\1")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_host_execution_is_pinned(name):
    assert digest_of(PROGRAMS[name]) == DIGESTS[name]


def launch_requests(text, field, **config):
    """Run, and list the images of every launch request that reaches
    ``_run_launches``."""
    machine = Machine(compile_source(text), RunConfig(**config), field)
    requests = []
    run_launches = machine._run_launches

    def spy(batch):
        requests.extend(images for _, images in batch)
        run_launches(batch)

    machine._run_launches = spy
    machine.run()
    return machine, requests


def test_host_stepping_does_not_scale_with_images():
    """The halo-many-images run steps its host program once for all 64
    images: one launch request per step, not one per image and step."""
    field = np.random.default_rng(9).standard_normal((128, 128))
    machine, requests = launch_requests(
        (CORPUS / "upwind.lope").read_text(), field, images=64, grid_rows=8,
        devices=1, steps=50)
    assert requests == [machine.images] * 50
    assert sum(c["launches"] for c in machine.counters.values()) == 3200


@pytest.mark.parametrize("coindexed", [False, True])
def test_image_dependent_programs_step_each_image_alone(coindexed):
    """A variant ``if`` around a launch parts the images, and so does a
    coindexed read, from the start; each image then launches alone, and
    the fields are those pinned for the one-generator-per-image runs."""
    text = IMAGE_DEPENDENT
    want = "074c491144e1da90742f3ea6b7e7d2552468f2ad"
    if not coindexed:
        text = text.replace("  U(M,:) = U(1,:)[pcol+1, prow]\n", "")
        want = "5d58877a2537b2ff691227375bdc08112577328c"
    field = np.random.default_rng(3).standard_normal((16, 16))
    for devices in (0, 1):
        machine, requests = launch_requests(text, field.copy(), images=4,
                                            grid_rows=2, steps=3,
                                            devices=devices)
        assert requests and all(len(images) == 1 for images in requests)
        # every launch that the images reach is requested
        assert len(requests) == sum(
            c["launches"] for c in machine.counters.values())
        digest = hashlib.sha1(machine.gather().tobytes()).hexdigest()
        assert digest == want, devices


def tally(events, images):
    """Per-image counters counted from the event list."""
    counts = {k: dict.fromkeys(("launches", "device_launches",
                                "halo_transfers", "d2h", "h2d"), 0)
              for k in images}
    for event in events:
        kind = event[0]
        if kind == "halo_transfer":     # one event for every image
            for c in counts.values():
                c["halo_transfers"] += 1
        elif kind == "launch":
            counts[event[1]]["launches"] += 1
            counts[event[1]]["device_launches"] += event[3]
        elif kind in ("d2h", "h2d", "device_alloc"):
            counts[event[1]]["h2d" if kind == "device_alloc" else kind] += 1
    return counts


def test_counters_are_the_tally_of_the_events():
    ran = 0
    for name, text in PROGRAMS.items():
        for config in CONFIGS:
            machine = machine_for(text, *config)
            try:
                machine.run()
            except RuntimeFault:
                continue
            assert machine.counters == tally(machine.events, machine.images), \
                (name, config)
            ran += 1
    assert ran == len(PROGRAMS) * len(CONFIGS) - 3    # variant_fault on 3


def test_a_halo_exchange_that_never_runs_counts_no_transfer():
    """Image 1 waits at a halo_transfer that image 2 never reaches, so the
    exchange faults before it runs and no image counts it."""
    machine = Machine(compile_source(DIVERGENT_HALO),
                      RunConfig(images=2), np.zeros((4, 4)))
    with pytest.raises(RuntimeFault) as exc:
        machine.run()
    assert exc.value.code == "E202"
    assert machine.counters == tally(machine.events, machine.images)
    assert [c["halo_transfers"] for c in machine.counters.values()] == [0, 0]
    assert [c["launches"] for c in machine.counters.values()] == [1, 1]


# upwind with its launch inside a variant ``if``: every image steps alone
SPLIT_UPWIND = (CORPUS / "upwind.lope").read_text().replace(
    "    do concurrent (i=1:M, j=1:N) [[device]]\n"
    "      call drift2( U(i,j)[device], 0.25 )\n"
    "    end do\n",
    "    if (pcol > 0) then\n"
    "      do concurrent (i=1:M, j=1:N) [[device]]\n"
    "        call drift2( U(i,j)[device], 0.25 )\n"
    "      end do\n"
    "    end if\n")


def test_split_launches_still_stack():
    """The images of the split program request their launches one by one,
    yet the launches share one key, so each step is still one stacked
    ``run_body`` call over all 16 images, with the unsplit program's
    field and counters."""
    assert SPLIT_UPWIND != (CORPUS / "upwind.lope").read_text()
    field = np.random.default_rng(5).standard_normal((32, 32))
    runs = []
    for text in ((CORPUS / "upwind.lope").read_text(), SPLIT_UPWIND):
        machine = Machine(compile_source(text), RunConfig(
            images=16, grid_rows=4, devices=1, steps=3), field.copy())
        requests, calls = [], []
        run_launches, launch = machine._run_launches, machine._launch_vector

        def spy_requests(batch, run_launches=run_launches, requests=requests):
            requests.extend(images for _, images in batch)
            run_launches(batch)

        def spy_launch(*args, launch=launch, calls=calls):
            calls.append(args[2])
            launch(*args)

        machine._run_launches = spy_requests
        machine._launch_vector = spy_launch
        machine.run()
        runs.append((machine, requests, calls))
    (whole, whole_requests, _), (split, split_requests, calls) = runs
    assert whole_requests == [whole.images] * 3
    assert split_requests == [[k] for k in split.images] * 3
    assert calls == [slice(0, 16)] * 3
    assert split.gather().tobytes() == whole.gather().tobytes()
    assert split.counters == whole.counters


# Exchange state that changes between exchanges: mirrors added to some
# images, then to the rest, and an array released and allocated again.
EXCHANGE_STATE = {
    "mirrors_added_between_exchanges": blend("""\
  here = GET_SUBIMAGE(1)
  if (pcol == 1) then
    allocate(U[device], HALO_SRC=U) [[device]]
  end if
  if (pcol > 1) then
    here = this_image()
  end if
  do it = 1, nsteps
    call HALO_TRANSFER(U, BC=CYCLIC)
    do concurrent (i=1:M, j=1:N) [[here]]
      call blend( U(i,j)[here], 0.125 )
    end do
  end do
  if (pcol > 1) then
    allocate(U[device], HALO_SRC=U) [[device]]
  end if
  do it = 1, nsteps
    call HALO_TRANSFER(U, BC=CYCLIC)
    do concurrent (i=1:M, j=1:N) [[device]]
      call blend( U(i,j)[device], 0.25 )
    end do
  end do
""" + COPY_BACK, decls="  integer :: here\n", mirror=""),
    "reallocated_between_exchanges": blend("""\
  do it = 1, nsteps
    call HALO_TRANSFER(U, BC=CYCLIC)
    do concurrent (i=1:M, j=1:N) [[device]]
      call blend( U(i,j)[device], 0.125 )
    end do
  end do
""" + COPY_BACK + """\
  deallocate(U)
  allocate(U(0:M+1, 0:N+1)[MP,*])
  here = GET_SUBIMAGE(1)
  if (prow == 1) then
    allocate(U[device], HALO_SRC=U) [[device]]
  end if
  if (prow > 1) then
    here = this_image()
  end if
  do it = 1, nsteps
    call HALO_TRANSFER(U, BC=CYCLIC)
    do concurrent (i=1:M, j=1:N) [[here]]
      call blend( U(i,j)[here], 0.25 )
    end do
  end do
""", decls="  integer :: here\n"),
}

EXCHANGE_DIGESTS = {
    "mirrors_added_between_exchanges": "e2aba7696c23dff0126da27bd42c3e44afb8963f",
    "reallocated_between_exchanges": "74f9ff10c0cd9ed0d74e757d718a25dae9549e1e",
}


@pytest.mark.parametrize("name", sorted(EXCHANGE_STATE))
def test_exchanges_follow_mirrors_and_allocation(name):
    """The fields, every host and device stack, the events and the
    counters, pinned by digest over ``CONFIGS``."""
    h = hashlib.sha1()
    for config in CONFIGS:
        machine = machine_for(EXCHANGE_STATE[name], *config)
        machine.run()
        h.update(machine.gather().tobytes())
        for arr in machine.arrays.values():
            for stack in (arr.host, arr.device):
                h.update(b"-" if stack is None else stack.tobytes(order="F"))
        h.update(repr(machine.events).encode())
        h.update(repr(machine.counters).encode())
    assert h.hexdigest() == EXCHANGE_DIGESTS[name]
