"""Kernel evaluation: run_body must compute exactly what the AST says.

The oracle here is a small, direct AST-walking evaluator (independent of
run_body) applied pointwise to padded numpy fields.
"""

import gc
import random
import weakref

import numpy as np
import pytest

from conftest import compile_source
from lopec import ast
from lopec.ir import Workspace, lower_kernel, run_body

TEMPLATE = """\
pure concurrent subroutine k(U{scalars})
  real, dimension(:,:), HALO(2:*:2, 2:*:2) :: U
{decls}{body}
end subroutine k

program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(2:*:2, 2:*:2) :: U
  integer :: device
  device = GET_SUBIMAGE(1)
  allocate(U(-1:M+2, -1:N+2)[MP,*])
  do concurrent (i=1:M, j=1:N) [[device]]
    call k( U(i,j)[device]{args} )
  end do
end program main
"""


def lower(body, decls="", scalars="", args=""):
    text = TEMPLATE.format(body=body, decls=decls, scalars=scalars, args=args)
    result = compile_source(text)
    return lower_kernel(result.kernels["k"])


def ast_eval(expr, env, read, pending, stored):
    """Direct AST evaluation, the reference for run_body."""
    if isinstance(expr, ast.IntLit):
        return np.float64(expr.value)
    if isinstance(expr, ast.RealLit):
        return np.float64(expr.value)
    if isinstance(expr, ast.Ident):
        return env[expr.name]
    if isinstance(expr, ast.OffsetRef):
        if expr.array in stored and all(o == 0 for o in expr.offsets):
            return pending[expr.array]
        return read(expr.array, expr.offsets)
    if isinstance(expr, ast.Neg):
        return -ast_eval(expr.operand, env, read, pending, stored)
    if isinstance(expr, ast.Bin):
        lv = ast_eval(expr.left, env, read, pending, stored)
        rv = ast_eval(expr.right, env, read, pending, stored)
        if expr.op == "+":
            return lv + rv
        if expr.op == "-":
            return lv - rv
        if expr.op == "*":
            return lv * rv
        return lv / rv
    if isinstance(expr, ast.Call):
        args = [ast_eval(a, env, read, pending, stored) for a in expr.args]
        if expr.name == "abs":
            return np.abs(args[0])
        if expr.name == "sqrt":
            return np.sqrt(args[0])
        if expr.name == "min":
            out = args[0]
            for a in args[1:]:
                out = np.minimum(out, a)
            return out
        if expr.name == "max":
            out = args[0]
            for a in args[1:]:
                out = np.maximum(out, a)
            return out
    raise TypeError(type(expr).__name__)


def run_ast(kernel, read, scalars):
    env = dict(scalars)
    pending = {}
    stored = set()
    for stmt in kernel.body:
        value = ast_eval(stmt.rhs, env, read, pending, stored)
        if isinstance(stmt.lhs, ast.OffsetRef):
            pending[stmt.lhs.array] = value
            stored.add(stmt.lhs.array)
        else:
            env[stmt.lhs.name] = value
    return pending


def point_reader(field):
    def read(name, offsets):
        return np.float64(field[tuple(2 + o for o in offsets)])
    return read


def compare(body, decls="", scalars="", args="", scalar_values=None):
    text = TEMPLATE.format(body=body, decls=decls, scalars=scalars, args=args)
    result = compile_source(text)
    info = result.kernels["k"]
    ir = lower_kernel(info)
    rng = np.random.default_rng(hash(body) & 0xFFFF)
    field = rng.uniform(0.25, 2.0, size=(5, 5))
    sc = {k: np.float64(v) for k, v in (scalar_values or {}).items()}
    got = run_body(ir, point_reader(field), sc)
    want = run_ast(info.kernel, point_reader(field), sc)
    assert set(got) == set(want)
    for name in got:
        assert got[name] == want[name], body
    return got


def test_simple_sum():
    compare("  U(0,0) = U(-1,0) + U(+1,0)")


def test_subtraction():
    compare("  U(0,0) = U(0,0) - U(0,1)")


def test_integer_and_real_literals():
    compare("  U(0,0) = 3*U(0,0) + 0.5")


def test_local_scalar_flow():
    compare("  t = U(-1,0) - U(-2,0)\n  U(0,0) = U(0,0) + 0.25*t",
            decls="  real :: t\n")


def test_scalar_parameter():
    compare("  U(0,0) = c*U(0,0)", decls="  real :: c\n", scalars=", c",
            args=", 2.5", scalar_values={"c": 2.5})


def test_intrinsics():
    compare("  U(0,0) = max(abs(U(-1,0)), min(U(0,0), sqrt(U(1,0))))")


def test_center_read_after_store_sees_pending_value():
    got = compare("  U(0,0) = U(0,0)*2\n  U(0,0) = U(0,0) + 1")
    # manual: value = f*2 + 1
    field_center = None  # recomputed below for clarity
    rng = np.random.default_rng(hash("  U(0,0) = U(0,0)*2\n  U(0,0) = U(0,0) + 1") & 0xFFFF)
    field = rng.uniform(0.25, 2.0, size=(5, 5))
    assert got["u"] == field[2, 2] * np.float64(2.0) + np.float64(1.0)


def test_stored_set_and_footprint_exposed():
    ir = lower("  U(0,0) = U(-2,0) + U(0,+1)")
    assert ir.stored_arrays == ["u"]
    assert ir.footprints["u"].dims == ((2, 0), (0, 1))
    assert ir.rank == 2


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        kind = rng.randrange(3)
        if kind == 0:
            dx, dy = rng.randrange(-2, 3), rng.randrange(-2, 3)
            sx = "+" if dx > 0 else ""
            sy = "+" if dy > 0 else ""
            return f"U({sx}{dx},{sy}{dy})"
        if kind == 1:
            return f"{rng.randrange(1, 5)}"
        return f"{rng.uniform(0.25, 2.0):.3f}"
    op = rng.choice(["+", "-", "*", "/"])
    a = _random_expr(rng, depth - 1)
    b = _random_expr(rng, depth - 1)
    if rng.random() < 0.2:
        return f"abs({a})"
    return f"({a} {op} {b})"


def test_random_kernels_match_ast_oracle():
    rng = random.Random(20260823)
    for trial in range(120):
        body = "  U(0,0) = " + _random_expr(rng, 3)
        compare(body)


def slab_reader(field):
    def read(name, offsets):
        return field[2 + offsets[0]:10 + offsets[0],
                     2 + offsets[1]:10 + offsets[1]]
    return read


def test_workspace_evaluation_is_bit_identical():
    """Slab evaluation into a reused workspace equals fresh allocation,
    including locals, pending centre reads, scalars and intrinsics.  With
    a workspace the stores go in place, into the centre read's window of
    a copy of the field."""
    rng = random.Random(5150)
    field = np.asfortranarray(
        np.random.default_rng(3).uniform(-2.0, 2.0, size=(12, 12)))
    cases = [("  t = U(-1,0) - U(-2,0)\n  U(0,0) = U(0,0) + c*t*t",
              "  real :: c\n  real :: t\n", ", c", ", 0.5"),
             ("  U(0,0) = U(0,0)*2\n  U(0,0) = -U(0,0) + U(0,0)/3", "", "",
              ""),
             ("  U(0,0) = max(abs(U(-1,0)), U(1,1), min(U(0,0), "
              "sqrt(U(1,0))), 0.5)", "", "", "")]
    cases += [("  U(0,0) = " + _random_expr(rng, 4), "", "", "")
              for _ in range(60)]
    workspace = Workspace((8, 8))
    read = slab_reader(field)
    sc = {"c": np.float64(0.5)}
    with np.errstate(all="ignore"):
        for body, decls, scalars, args in cases:
            ir = lower(body, decls, scalars, args)
            fresh = run_body(ir, read, sc)["u"]
            for _ in range(2):
                copy = field.copy(order="F")
                reused = run_body(ir, slab_reader(copy), sc, workspace)["u"]
                assert reused.base is copy
                assert np.array_equal(np.broadcast_to(fresh, (8, 8)),
                                      copy[2:10, 2:10], equal_nan=True), body
    # the pool is bounded by the deepest expression (at most one live
    # temporary per level of a depth-4 tree), not by the case count
    assert len(workspace.buffers) <= 5


def test_run_body_releases_its_reader_without_the_cycle_collector():
    ir = lower("  t = U(-1,0) - U(-2,0)\n  U(0,0) = max(U(0,0), 0.25*t)",
               decls="  real :: t\n")
    field = np.random.default_rng(4).uniform(-1.0, 1.0, size=(12, 12))
    read = slab_reader(field)
    alive = weakref.ref(read)
    gc.collect()
    gc.disable()
    try:
        pending = run_body(ir, read, {})
        del read
        assert alive() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert pending["u"].shape == (8, 8)


def test_run_body_with_a_workspace_releases_its_reader_without_the_cycle_collector():
    ir = lower("  t = U(-1,0) - U(-2,0)\n  U(0,0) = max(U(0,0), 0.25*t)",
               decls="  real :: t\n")
    field = np.random.default_rng(4).uniform(-1.0, 1.0, size=(12, 12))
    want = run_body(ir, slab_reader(field), {})["u"]
    read = slab_reader(field)
    alive = weakref.ref(read)
    gc.collect()
    gc.disable()
    try:
        out = run_body(ir, read, {}, Workspace((8, 8)))
        del read
        assert alive() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert np.array_equal(out["u"], want)
