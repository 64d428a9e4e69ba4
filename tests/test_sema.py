"""Static checks: error codes, positions, ordering, and footprints.

Footprints are cross-checked against an independent AST walk that simply
collects min/max read offsets per dimension.
"""

import random
import sys

import pytest

from conftest import BAD, CORPUS, compile_source, diagnostics_of
from lopec import ast
from lopec.checks import check_program
from lopec.parser import parse_source


def template(kernel_body, halo="HALO(2:*:2, 2:*:2)", extra_host="",
             extra_decls="", kernel_halo=None, params="U",
             args="U(i,j)[device]"):
    kernel_halo = kernel_halo or halo
    return f"""\
pure concurrent subroutine k({params})
  real, dimension(:,:), {kernel_halo} :: U
{kernel_body}
end subroutine k

program main
  real, allocatable, dimension(:,:), codimension[:,:], {halo} :: U
  integer :: device
{extra_decls}
  device = GET_SUBIMAGE(1)
  allocate(U(-1:M+2, -1:N+2)[MP,*])
{extra_host}
  do concurrent (i=1:M, j=1:N) [[device]]
    call k( {args} )
  end do
end program main
"""


def codes(text):
    return [d.split("error[")[1][:4] for d in diagnostics_of(text)
            if "error[" in d]


# -- kernel rules ---------------------------------------------------------


def test_clean_program_has_no_diagnostics():
    assert diagnostics_of(template("  U(0,0) = U(-1,0) + U(0,+2)")) == []


def test_halo_write_rejected():
    assert codes(template("  U(0,1) = U(0,0)")) == ["E101"]


def test_center_store_then_halo_read_rejected():
    body = "  U(0,0) = U(0,0)*2\n  U(0,0) = U(-1,0)"
    assert codes(template(body)) == ["E103"]


def test_center_read_after_center_store_allowed():
    body = "  U(0,0) = U(0,0)*2\n  U(0,0) = U(0,0) + 1"
    assert diagnostics_of(template(body)) == []


def test_non_parameter_array_rejected():
    assert codes(template("  U(0,0) = V(0,0)")) == ["E104"]


def test_unlisted_function_rejected():
    assert codes(template("  U(0,0) = sin(U(0,0))")) == ["E104"]


def test_allowed_intrinsics_pass():
    body = "  U(0,0) = max(abs(U(-1,0)), min(sqrt(U(0,0)), U(+1,0)))"
    assert diagnostics_of(template(body)) == []


@pytest.mark.parametrize("call", [
    "abs()", "abs(U(0,0), U(1,0))", "sqrt(U(0,0), U(1,0))", "sqrt()",
    "min(U(0,0))", "max()",
])
def test_kernel_intrinsic_arity_is_checked(call):
    out = diagnostics_of(template(f"  U(0,0) = 1 + {call}"), name="k.lope")
    assert len(out) == 1, out
    # the diagnostic points at the call
    assert out[0].startswith("k.lope:3:16: error[E104]: "), out
    assert f"'{call.split('(')[0]}' takes" in out[0]


@pytest.mark.parametrize("rhs,col", [
    ("abs()", 7), ("sqrt(1.0, 2.0)", 7), ("min(1.0)", 7),
    ("this_image(3)", 7), ("1 + max(2)", 11),
])
def test_host_intrinsic_arity_is_checked(rhs, col):
    text = template("  U(0,0) = U(0,0)", extra_decls="  real :: s",
                    extra_host=f"  s = {rhs}")
    line = text.splitlines().index(f"  s = {rhs}") + 1
    out = diagnostics_of(text, name="h.lope")
    assert len(out) == 1, out
    assert out[0].startswith(f"h.lope:{line}:{col}: error[E108]: "), out
    assert "takes" in out[0]


def test_offset_arity_mismatch():
    assert codes(template("  U(0,0) = U(1)")) == ["E012"]


def test_param_without_halo_rejected():
    text = """\
pure concurrent subroutine k(U)
  real, dimension(:,:) :: U
  U(0,0) = U(0,0)
end subroutine k

program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  integer :: device
  device = GET_SUBIMAGE(1)
  allocate(U(0:M+1, 0:N+1)[MP,*])
  do concurrent (i=1:M, j=1:N) [[device]]
    call k( U(i,j)[device] )
  end do
end program main
"""
    assert codes(text) == ["E106"]


def kernel_only(params, decls, body):
    """One kernel the host program never launches."""
    return f"""\
pure concurrent subroutine k({params})
{decls}
{body}
end subroutine k

program main
  integer :: t
  t = 1
end program main
"""


# Kernels the translator has no form for, each with the one diagnostic it
# gets: (source, code, line)
KERNEL_SHAPES = {
    "no-array": (kernel_only("S", "  real :: S", "  S = 1.0"), "E104", 1),
    "mixed-rank": (kernel_only(
        "U, V", "  real, dimension(:), HALO(1:*:1) :: U\n"
                "  real, dimension(:,:), HALO(1:*:1, 1:*:1) :: V",
        "  U(0) = V(0,0)"), "E012", 3),
    "rank-4": (kernel_only(
        "U", "  real, dimension(:,:,:,:), "
             "HALO(1:*:1, 1:*:1, 1:*:1, 1:*:1) :: U",
        "  U(0,0,0,0) = U(1,0,0,0)"), "E012", 2),
    "integer-array": (kernel_only(
        "U", "  integer, dimension(:,:), HALO(1:*:1, 1:*:1) :: U",
        "  U(0,0) = U(1,0)"), "E104", 2),
    "local-read-before-assignment": (kernel_only(
        "U", "  real, dimension(:,:), HALO(1:*:1, 1:*:1) :: U\n  real :: t",
        "  U(0,0) = t + U(1,0)\n  t = 1.0"), "E011", 4),
}


def avg3_divided_by(divisor: str) -> str:
    return (CORPUS / "avg3.lope").read_text().replace(") / 3",
                                                      f") / {divisor}", 1)


# 1 followed by 400 zeros: a float of it overflows
HUGE_DIVISOR = avg3_divided_by("1" + "0" * 400)


def test_kernel_integer_literal_too_large_for_a_real_is_e104():
    """Kernels compute in real, so their integer literals must convert."""
    assert diagnostics_of(HUGE_DIVISOR, "avg3.lope") == [
        "avg3.lope:5:35: error[E104]: integer literal of 401 digits is too "
        "large for a real"]
    # the largest integer a real holds exactly is still a kernel literal
    assert diagnostics_of(avg3_divided_by(str(int(sys.float_info.max)))) \
        == []


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_kernel_signature_rule_reports_its_code_on_its_line(shape):
    text, code, line = KERNEL_SHAPES[shape]
    out = diagnostics_of(text, name="k.lope")
    assert len(out) == 1, out
    assert out[0].startswith(f"k.lope:{line}:"), out
    assert f"error[{code}]" in out[0]


def test_undeclared_kernel_param():
    text = template("  U(0,0) = U(0,0)", params="U, w")
    # w never declared inside the kernel
    assert codes(text.replace("call k( U(i,j)[device] )",
                              "call k( U(i,j)[device], 1.0 )")) == ["E011"]


def test_kernel_scalar_state_flows():
    body = "  t = U(-1,0)\n  U(0,0) = t + s"
    text = template(body).replace(
        "  real, dimension(:,:), HALO(2:*:2, 2:*:2) :: U",
        "  real, dimension(:,:), HALO(2:*:2, 2:*:2) :: U\n  real :: t")
    assert codes(text) == ["E011"]       # s is never defined


def test_kernel_local_read_by_its_own_first_assignment_is_e011():
    text = kernel_only(
        "U", "  real, dimension(:,:), HALO(1:*:1, 1:*:1) :: U\n  real :: t",
        "  t = t + 1.0\n  U(0,0) = t*U(1,0)")
    assert diagnostics_of(text, "k.lope") == [
        "k.lope:4:7: error[E011]: kernel local 't' is read before it is "
        "assigned"]


# -- declaration rules ----------------------------------------------------


def test_duplicate_declaration():
    text = template("  U(0,0) = U(0,0)", extra_decls="  integer :: device")
    assert codes(text) == ["E010"]


def test_builtin_scalar_cannot_be_redeclared():
    text = template("  U(0,0) = U(0,0)", extra_decls="  integer :: mp")
    assert codes(text) == ["E010"]


def test_undeclared_variable_in_host():
    text = template("  U(0,0) = U(0,0)", extra_host="  q = 3\n")
    assert codes(text) == ["E011"]


def test_halo_rank_mismatch():
    text = template("  U(0,0) = U(0,0)", halo="HALO(1:*:1)")
    assert "E012" in codes(text)


def test_halo_width_cap():
    text = template("  U(0,0) = U(0,0)", halo="HALO(9:*:1, 1:*:1)")
    assert "E012" in codes(text)


def test_corank_rules():
    text = """\
program main
  real, allocatable, dimension(:,:), codimension[:,:,:], HALO(1:*:1,1:*:1) :: U
end program main
"""
    assert codes(text) == ["E105"]


def test_missing_halo_on_transfer():
    text = """\
program main
  real, allocatable, dimension(:,:), codimension[:,:] :: V
  allocate(V(1:M, 1:N)[MP,*])
  call HALO_TRANSFER(V, BC=CYCLIC)
end program main
"""
    assert codes(text) == ["E106"]


def test_subimage_handle_must_be_integer_scalar():
    text = template("  U(0,0) = U(0,0)",
                    extra_host="  U = GET_SUBIMAGE(1)\n")
    assert "E107" in codes(text)


def test_allocate_of_non_allocatable():
    text = """\
program main
  real, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  allocate(U(0:M+1, 0:N+1)[MP,*])
end program main
"""
    assert "E108" in codes(text)


def test_allocate_bound_count_mismatch():
    text = """\
program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  allocate(U(0:M+1)[MP,*])
end program main
"""
    assert "E108" in codes(text)


def test_device_allocate_requires_matching_halo_src():
    text = """\
program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  integer :: device
  device = GET_SUBIMAGE(1)
  allocate(U(0:M+1, 0:N+1)[MP,*])
  allocate(U[device]) [[device]]
end program main
"""
    assert "E106" in codes(text) or "E108" in codes(text)


def test_launch_element_rank_mismatch():
    text = """\
pure concurrent subroutine k(U)
  real, dimension(:,:), HALO(1:*:1, 1:*:1) :: U
  U(0,0) = U(0,0)
end subroutine k

program main
  real, allocatable, dimension(:), codimension[:], HALO(1:*:1) :: A
  integer :: device
  device = GET_SUBIMAGE(1)
  allocate(A(0:M+1)[*])
  do concurrent (i=1:M) [[device]]
    call k( A(i)[device] )
  end do
end program main
"""
    assert codes(text) == ["E012"]


def test_launch_indices_must_cover_all_ranges():
    text = template("  U(0,0) = U(0,0)", args="U(i)[device]")
    assert "E108" in codes(text)


def test_launch_index_order_must_match_ranges():
    text = template("  U(0,0) = U(0,0)", args="U(j,i)[device]")
    assert "E108" in codes(text)


def test_launch_target_must_be_subimage_handle():
    text = """\
pure concurrent subroutine k(U)
  real, dimension(:,:), HALO(1:*:1,1:*:1) :: U
  U(0,0) = U(0,0)
end subroutine k

program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(1:*:1,1:*:1) :: U
  integer :: device
  allocate(U(0:M+1, 0:N+1)[MP,*])
  do concurrent (i=1:M, j=1:N) [[device]]
    call k( U(i,j)[device] )
  end do
end program main
"""
    assert "E107" in codes(text)


def test_unknown_kernel_name():
    text = template("  U(0,0) = U(0,0)").replace("call k(", "call nosuch(")
    assert "E011" in codes(text)


# -- halo extent verification at launch ----------------------------------


def test_footprint_exceeding_halo_is_rejected_at_launch():
    text = template("  U(0,0) = U(-2,0)", halo="HALO(1:*:1, 1:*:1)",
                    kernel_halo="HALO(2:*:0, 1:*:1)")
    out = diagnostics_of(text)
    assert len(out) == 1 and "E102" in out[0]
    assert "[-2,+0]" in out[0] and "(1,1)" in out[0]


def test_footprint_within_halo_is_accepted():
    text = template("  U(0,0) = U(-2,0) + U(0,+2)")
    assert diagnostics_of(text) == []


def test_deferred_halo_at_launch_is_rejected():
    text = template("  U(0,0) = U(-1,0)", halo="HALO(:,:)",
                    kernel_halo="HALO(1:*:1, 1:*:1)")
    assert "E106" in codes(text)


# -- footprint oracle ------------------------------------------------------


def footprint_oracle(kernel):
    """Independent min/max walk over read offsets, per array parameter."""
    spans = {}

    def note(name, offsets):
        lo, hi = spans.setdefault(name, ([0] * len(offsets),
                                         [0] * len(offsets)))
        for d, o in enumerate(offsets):
            lo[d] = min(lo[d], o)
            hi[d] = max(hi[d], o)

    for stmt in kernel.body:
        for node in ast.walk(stmt.rhs):
            if isinstance(node, ast.OffsetRef):
                note(node.array, node.offsets)
    out = {}
    for name, (lo, hi) in spans.items():
        out[name] = tuple((max(-l, 0), max(h, 0)) for l, h in zip(lo, hi))
    return out


KERNEL_POOL = [
    "  U(0,0) = U(-1,0) + U(+1,0)",
    "  U(0,0) = U(0,-2) + U(0,+2) - U(0,0)",
    "  U(0,0) = U(-2,-1) * U(1,2) + U(0,0)",
    "  U(0,0) = abs(U(-1,-2)) + max(U(2,0), U(0,1))",
    "  U(0,0) = U(0,0)",
]


@pytest.mark.parametrize("body", KERNEL_POOL)
def test_footprint_matches_independent_walk(body):
    result = compile_source(template(body))
    info = result.kernels["k"]
    oracle = footprint_oracle(info.kernel)
    for name, fp in info.footprints.items():
        assert fp.dims == oracle[name]


def test_footprints_of_random_kernels():
    rng = random.Random(7)
    for trial in range(60):
        reads = []
        for _ in range(rng.randrange(1, 6)):
            dx, dy = rng.randrange(-2, 3), rng.randrange(-2, 3)
            sx = "+" if dx > 0 else ""
            sy = "+" if dy > 0 else ""
            reads.append(f"U({sx}{dx},{sy}{dy})")
        body = "  U(0,0) = " + " + ".join(reads)
        result = compile_source(template(body))
        info = result.kernels["k"]
        assert info.footprints["u"].dims == \
            footprint_oracle(info.kernel)["u"]


# -- ordering and rendering ------------------------------------------------


def test_diagnostics_sorted_by_position():
    text = """\
program main
  integer :: a
  integer :: a
  b = 1
  c = 2
end program main
"""
    out = diagnostics_of(text)
    lines = [int(d.split(":")[1]) for d in out]
    assert lines == sorted(lines)
    assert [d.split("error[")[1][:4] for d in out] == ["E010", "E011", "E011"]


def test_rendered_format():
    out = diagnostics_of("program main\n  q = 1\nend program main\n",
                         name="prog.lope")
    assert out == ["prog.lope:2:3: error[E011]: "
                   + out[0].split("error[E011]: ")[1]]
    assert out[0].startswith("prog.lope:2:3: error[E011]: ")


@pytest.mark.parametrize("path", sorted(BAD.glob("*.lope")),
                         ids=lambda p: p.stem)
def test_bad_corpus_single_expected_code(path):
    expected = {
        "halo_write": "E101",
        "store_then_read": "E103",
        "impure": "E104",
        "halo_exceeded": "E102",
    }[path.stem]
    program, diags = parse_source(path.read_text(), str(path))
    assert program is not None
    result = check_program(program)
    assert [d.code for d in result.diagnostics] == [expected]


# The one launch of corpus/laplacian.lope binds its real kernel parameter to
# a coarray declared integer.
INTEGER_LAPLACIAN = (CORPUS / "laplacian.lope").read_text().replace(
    "  real, allocatable,", "  integer, allocatable,")


def test_launched_array_must_be_real():
    line = next(i for i, text in
                enumerate(INTEGER_LAPLACIAN.splitlines(), 1)
                if "call Laplacian" in text)
    out = diagnostics_of(INTEGER_LAPLACIAN, name="lap.lope")
    assert len(out) == 1, out
    assert out[0].startswith(f"lap.lope:{line}:"), out
    assert "error[E104]" in out[0]


@pytest.mark.parametrize("cobounds", ["1", "device, device", "*"])
def test_mirror_allocation_names_one_device(cobounds):
    text = template("  U(0,0) = U(0,0)", extra_host=(
        f"  allocate(U[{cobounds}], HALO_SRC=U) [[device]]\n"))
    out = diagnostics_of(text)
    assert len(out) == 1, out
    assert out[0].endswith(
        "error[E107]: device allocation selects its target as U[device]")
