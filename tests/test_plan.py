"""The host plan: the checked main program printed in the action vocabulary."""

import hashlib

from conftest import (CORPUS, CORPUS_FILES, GOLDEN, compile_file,
                      compile_source, gen)
from lopec.checks import check_program
from lopec.parser import parse_source
from lopec.plan import desugar, format_plan

# SHA-256 of the plan text of every program in PLAN_INPUTS that checks
# clean.  The value was computed with the earlier printer, which worked on
# a copy of the program in per-action classes, so it pins the text across
# that change.
PLAN_DIGEST = (
    "626b1199bf950bb058a19df52361611b07126631e7bb9d67caba845e5e6c666f")
PLAN_INPUTS = ([p.read_text() for p in CORPUS_FILES]
               + [g.text for seed in range(1, 6)
                  for g in gen.generate(seed=seed)])


def plan_of(name: str) -> str:
    return format_plan(desugar(compile_file(CORPUS / name).program))


def groups(text: str, head: str) -> list[list[str]]:
    """The action lines of each top-level group whose header starts with
    ``head``, unindented."""
    out: list[list[str]] = []
    body = None
    for line in text.splitlines():
        if line.startswith(head) and line.endswith("{"):
            body = []
        elif line == "}" and body is not None:
            out.append(body)
            body = None
        elif body is not None:
            body.append(line.strip())
    return out


def test_laplacian_plan_matches_golden():
    text = plan_of("laplacian.lope") + "\n"
    assert text == (GOLDEN / "laplacian.plan.golden").read_text()


def test_plan_opens_with_grid_setup():
    assert plan_of("avg3.lope").splitlines()[0] == "GridSetup"


def test_loop_and_guard_nesting():
    text = plan_of("laplacian.lope")
    loops = groups(text, "LoopCounted(")
    assert len(loops) == 1
    assert [a.split("(")[0] for a in loops[0]] == [
        "HaloTransfer", "LaunchConcurrent"]
    guards = groups(text, "CondGroup(")
    assert len(guards) == 2
    assert guards[0][0] == "DeviceAllocFrom(u, device)"
    assert guards[1][0] == "MirrorCopy(device_to_host, u, device)"


def test_device_alloc_names_handle_variable():
    guards = groups(plan_of("upwind.lope"), "CondGroup(")
    assert guards[0][0] == "DeviceAllocFrom(u, device)"


def test_host_statements_outside_the_digest_print_as_actions():
    # plain allocation, scalar and section assignment and deallocation,
    # which no program in PLAN_INPUTS uses
    text = """\
program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  real, allocatable, dimension(:) :: W
  real :: v
  allocate(U(0:M+1, 0:N+1)[MP,*])
  allocate(W(1:4))
  v = -U(1,1) / 2
  U(M+1,:) = U(1,:)[pcol+1, prow]
  W(2) = max(v, 0.5)
  deallocate(W)
  deallocate(U)
end program main
"""
    assert format_plan(desugar(compile_source(text).program)) == """\
GridSetup
AllocCoarray(u, [0:m + 1, 0:n + 1], [mp, *])
AllocCoarray(w, [1:4])
ScalarAssign(v, -u(1,1) / 2)
SectionCopy(u(m + 1,:), u(1,:)[pcol + 1,prow])
SectionCopy(w(2), max(v, 0.5))
Deallocate(w)
Deallocate(u)
"""


def test_format_plan_is_deterministic():
    assert plan_of("upwind.lope") == plan_of("upwind.lope")


def test_plan_text_matches_the_pinned_digest():
    digest = hashlib.sha256()
    checked = 0
    for text in PLAN_INPUTS:
        program, _ = parse_source(text, "gen.lope")
        if program is None:
            continue
        result = check_program(program)
        if result.ok:
            checked += 1
            digest.update(format_plan(desugar(result.program)).encode())
    assert checked == 803
    assert digest.hexdigest() == PLAN_DIGEST
