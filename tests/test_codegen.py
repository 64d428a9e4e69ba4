"""Emitted kernel source: goldens, determinism, and meaning.

Meaning is checked by executing the emitted text with the independent C
interpreter in c_eval.py and comparing, element for element, against the
simulator's own launch results on identical snapshots.
"""

import hashlib
import shutil
import subprocess
import random

import numpy as np
import pytest

from c_eval import CSyntaxError, parse_kernel, run_work_items
from conftest import CORPUS, GOLDEN, compile_file, compile_source, gen
from lopec.checks import check_program
from lopec.parser import parse_source
from lopec.codegen import EXTENT_SYMBOLS, EmitConfig, emit_kernel_source
from lopec.ir import StorageLayout, lower_kernel
from lopec.runtime import Machine, RunConfig

KERNELS = {
    "laplacian": ("laplacian.lope", "laplacian"),
    "avg3": ("avg3.lope", "avg3"),
    "upwind": ("upwind.lope", "drift2"),
}


def emitted(stem):
    source, kname = KERNELS[stem]
    result = compile_file(CORPUS / source)
    return emit_kernel_source(lower_kernel(result.kernels[kname]),
                              EmitConfig())


@pytest.mark.parametrize("stem", sorted(KERNELS), ids=str)
def test_matches_golden(stem):
    golden = (GOLDEN / f"{stem}.cl.golden").read_text()
    assert emitted(stem) == golden


@pytest.mark.parametrize("stem", sorted(KERNELS), ids=str)
def test_emission_is_deterministic(stem):
    assert emitted(stem) == emitted(stem)


@pytest.mark.parametrize("stem", sorted(KERNELS), ids=str)
def test_delimiters_balanced_and_parseable(stem):
    text = emitted(stem)
    for opener, closer in (("(", ")"), ("[", "]"), ("{", "}")):
        assert text.count(opener) == text.count(closer)
    fn = parse_kernel(text)       # independent parser accepts it
    assert fn["name"] == KERNELS[stem][1]


def test_signature_shape():
    text = emitted("laplacian")
    first = text.splitlines()[0]
    assert first == ("__kernel void laplacian(__global const float* u_in, "
                     "__global float* u_out, const int M, const int hlo0, "
                     "const int hhi0, const int N, const int hlo1, "
                     "const int hhi1)")


def test_index_expression_shape():
    text = emitted("laplacian")
    assert "const int idx = (j+hlo1)*(M+hlo0+hhi0) + (i+hlo0);" in text
    assert "u_in[(j+hlo1)*(M+hlo0+hhi0) + (i+hlo0) + (-1)]" in text


def test_double_precision_variant():
    result = compile_file(CORPUS / "avg3.lope")
    text = emit_kernel_source(lower_kernel(result.kernels["avg3"]),
                              EmitConfig(real_c_type="double"))
    assert "double* a_in" in text and "3.0;" in text and "f" not in \
        text.split("{", 1)[1].replace("float", "")


def test_scalar_params_are_typed():
    text = emitted("upwind")
    assert "const float c)" in text


TEMPLATE = """\
pure concurrent subroutine k(U)
  real, dimension(:,:), HALO(2:*:2, 2:*:2) :: U
{body}
end subroutine k

program main
  real, allocatable, dimension(:,:), codimension[:,:], HALO(2:*:2, 2:*:2) :: U
  integer :: device
  device = GET_SUBIMAGE(1)
  allocate(U(-1:M+2, -1:N+2)[MP,*])
  call HALO_TRANSFER(U, BC=CYCLIC)
  do concurrent (i=1:M, j=1:N) [[device]]
    call k( U(i,j)[device] )
  end do
end program main
"""


def run_both(text, field, steps=1):
    """Run program in the simulator and its emitted C side by side.

    Returns (simulator interior, C-interpreter interior) after `steps`
    exchange+launch rounds on one image.  The kernel takes no scalars and
    its launch covers the interior.
    """
    result = compile_source(text)
    kname = next(iter(result.kernels))
    ir = lower_kernel(result.kernels[kname])
    ctext = emit_kernel_source(ir, EmitConfig())

    machine = Machine(result, RunConfig(images=1, steps=steps), field.copy())
    machine.run()
    sim = machine.gather()

    # Re-create the same padded block the simulator used, step by step.
    arr = machine.arrays[ir.stored_arrays[0]]
    lay = arr.layout
    padded = np.zeros(lay.padded())
    inner = tuple(slice(lo, lo + m) for lo, m in zip(lay.lo, lay.interior))
    padded[inner] = field.reshape(lay.interior)
    scalars = {}
    for d, (m, lo, hi) in enumerate(zip(lay.interior, lay.lo, lay.hi)):
        scalars.update({EXTENT_SYMBOLS[d]: m, f"hlo{d}": lo, f"hhi{d}": hi})
    for _ in range(steps):
        _wrap_cyclic(padded, lay)
        flat_in = padded.flatten(order="F")
        flat_out = flat_in.copy()
        run_work_items(ctext, {f"{ir.stored_arrays[0]}_in": flat_in,
                               f"{ir.stored_arrays[0]}_out": flat_out},
                       scalars, lay.interior)
        padded = flat_out.reshape(lay.padded(), order="F")
    return sim, padded[inner].reshape(sim.shape)


def _wrap_cyclic(padded, lay):
    for d in range(len(lay.interior)):
        m, lo, hi = lay.interior[d], lay.lo[d], lay.hi[d]

        def sl(s):
            idx = [slice(None)] * len(lay.interior)
            idx[d] = s
            return tuple(idx)

        if lo:
            padded[sl(slice(0, lo))] = padded[sl(slice(m, m + lo))]
        if hi:
            padded[sl(slice(lo + m, lo + m + hi))] = \
                padded[sl(slice(lo, lo + hi))]


def test_emitted_c_equals_simulator_on_laplacian():
    text = (CORPUS / "laplacian.lope").read_text()
    rng = np.random.default_rng(11)
    field = rng.uniform(-1, 1, (6, 6))
    sim, cint = run_both(text, field, steps=2)
    assert np.array_equal(sim, cint)


def _random_read(rng):
    dx, dy = rng.randrange(-2, 3), rng.randrange(-2, 3)
    sx = "+" if dx > 0 else ""
    sy = "+" if dy > 0 else ""
    return f"U({sx}{dx},{sy}{dy})"


def _random_term(rng):
    """A read, scaled, negated once or twice, multiplied by a second read,
    or the min or max of two reads."""
    read = _random_read(rng)
    form = rng.randrange(7)
    if form == 0:
        return f"{rng.uniform(0.1, 1.9):.3f}*{read}"
    if form == 1:
        return f"-{read}"
    if form == 2:
        return rng.choice([f"-(-{read})", f"- -{read}"])
    if form == 3:
        return f"{read}*{_random_read(rng)}"
    if form == 4:
        return f"{rng.choice(['min', 'max'])}({read}, {_random_read(rng)})"
    return read


def _random_body(rng):
    expr = _random_term(rng)
    for _ in range(rng.randrange(0, 4)):
        expr += rng.choice([" + ", " - ", " + -"]) + _random_term(rng)
    if rng.random() < 0.4:
        expr = f"({expr}) / {rng.randrange(2, 5)}"
    if rng.random() < 0.25:
        expr = f"abs({expr})"
    return "  U(0,0) = " + expr


def test_random_kernels_emitted_c_equals_simulator():
    rng = random.Random(20260823)
    nrng = np.random.default_rng(12)
    for trial in range(100):
        text = TEMPLATE.format(body=_random_body(rng))
        field = nrng.uniform(-1, 1, (6, 6))
        sim, cint = run_both(text, field)
        assert np.array_equal(sim, cint), text


def test_min_and_max_of_many_arguments_nest_in_c():
    body = ("  U(0,0) = min(U(-1,0), U(0,0), U(+1,0))"
            " + max(U(0,-1), 0.25, U(0,+1), U(0,0))")
    text = TEMPLATE.format(body=body)
    ir = lower_kernel(compile_source(text).kernels["k"])
    ctext = emit_kernel_source(ir, EmitConfig())
    assert "fmin(fmin(u_in[" in ctext and "fmax(fmax(fmax(u_in[" in ctext
    field = np.random.default_rng(14).uniform(-1, 1, (6, 6))
    sim, cint = run_both(text, field)
    assert np.array_equal(sim, cint)


@pytest.mark.parametrize("rhs", ["-(-U(1,0))", "- -U(1,0)"], ids=str)
def test_double_negation_is_not_a_c_decrement(rhs):
    text = TEMPLATE.format(body=f"  U(0,0) = {rhs}")
    ir = lower_kernel(compile_source(text).kernels["k"])
    assert "    u_out[idx] = -(-u_in[" in emit_kernel_source(ir, EmitConfig())
    field = np.random.default_rng(15).uniform(-1, 1, (6, 6))
    sim, cint = run_both(text, field)
    assert np.array_equal(sim, cint)


@pytest.mark.parametrize("op", ["--", "++"])
def test_c_oracle_rejects_increment_and_decrement(op):
    with pytest.raises(CSyntaxError):
        parse_kernel("__kernel void k(__global float* u_out)\n"
                     f"{{\n    u_out[0] = {op}u_out[1];\n}}\n")


# SHA-256 of the float then the double emission of every kernel of
# ``gen.generate(seed=11)`` that checks clean, in generation order; any
# change in the C text of a generated kernel changes it
GENERATED_C_DIGEST = (
    "39c885eabfa8e6414e9a6b97d8936b2a4562253651d26637442c445d751700e7")


def test_generated_kernels_emit_the_pinned_c():
    digest = hashlib.sha256()
    for prog in gen.generate(seed=11):
        program, _ = parse_source(prog.text, prog.name)
        result = check_program(program)
        if not result.ok:
            continue
        ir = lower_kernel(result.kernels[prog.kernel])
        for real in ("float", "double"):
            digest.update(emit_kernel_source(ir, EmitConfig(real)).encode())
    assert digest.hexdigest() == GENERATED_C_DIGEST


ASYMMETRIC = """\
pure concurrent subroutine k(U)
  real, dimension(:,:), HALO({l0}:*:{h0}, {l1}:*:{h1}) :: U
{body}
end subroutine k

program main
  real, allocatable, dimension(:,:), codimension[:,:], &
        HALO({l0}:*:{h0}, {l1}:*:{h1}) :: U
  integer :: device
  integer :: it
  device = GET_SUBIMAGE(1)
  allocate(U(1-{l0}:M+{h0}, 1-{l1}:N+{h1})[MP,*])
  do it = 1, nsteps
    call HALO_TRANSFER(U, BC=CYCLIC)
    do concurrent (i=1:M, j=1:N) [[device]]
      call k( U(i,j)[device] )
    end do
  end do
end program main
"""

RANK1 = """\
pure concurrent subroutine k(A)
  real, dimension(:), HALO({l0}:*:{h0}) :: A
{body}
end subroutine k

program main
  real, allocatable, dimension(:), codimension[:], HALO({l0}:*:{h0}) :: A
  integer :: device
  integer :: it
  device = GET_SUBIMAGE(1)
  allocate(A(1-{l0}:M+{h0})[*])
  do it = 1, nsteps
    call HALO_TRANSFER(A, BC=CYCLIC)
    do concurrent (i=1:M) [[device]]
      call k( A(i)[device] )
    end do
  end do
end program main
"""


def _footprint_body(rng, array, widths):
    """A random sum over offsets within ``widths``, one (lo, hi) pair per
    dimension, that reaches both ends of every nonzero width."""
    offsets = [tuple(rng.randint(-lo, hi) for lo, hi in widths)
               for _ in range(rng.randrange(1, 4))]
    for d, (lo, hi) in enumerate(widths):
        for o in (-lo, hi):
            if o:
                offsets.append(tuple(o if e == d else 0
                                     for e in range(len(widths))))
    terms = [f"{rng.uniform(0.1, 1.9):.3f}*{array}("
             + ",".join(f"{o:+d}" if o else "0" for o in offs) + ")"
             for offs in offsets]
    return f"  {array}({','.join('0' * len(widths))}) = " + " + ".join(terms)


@pytest.mark.parametrize("widths", [((1, 2), (2, 0)), ((0, 3), (1, 1)),
                                    ((2, 0), (0, 2)), ((3, 1), (0, 0))],
                         ids=str)
def test_asymmetric_halo_emitted_c_equals_simulator(widths):
    (l0, h0), (l1, h1) = widths
    rng = random.Random(sum(map(sum, widths)))
    nrng = np.random.default_rng(l0 * 8 + h0 * 4 + l1 * 2 + h1)
    for _ in range(5):
        text = ASYMMETRIC.format(l0=l0, h0=h0, l1=l1, h1=h1,
                                 body=_footprint_body(rng, "U", widths))
        field = nrng.uniform(-1, 1, (5, 4))
        sim, cint = run_both(text, field, steps=2)
        assert np.array_equal(sim, cint), text


@pytest.mark.parametrize("widths", [(2, 1), (0, 3), (1, 0)], ids=str)
def test_rank1_emitted_c_equals_simulator(widths):
    lo, hi = widths
    rng = random.Random(lo * 4 + hi)
    nrng = np.random.default_rng(lo * 4 + hi)
    for _ in range(5):
        text = RANK1.format(l0=lo, h0=hi,
                            body=_footprint_body(rng, "A", [widths]))
        field = nrng.uniform(-1, 1, (7, 1))
        sim, cint = run_both(text, field, steps=2)
        assert np.array_equal(sim, cint), text


# OpenCL C's qualifiers and work-item query, as plain C
C_PRELUDE = """\
#define __kernel
#define __global
int get_global_id(int dim);
"""


def test_emitted_kernels_compile_as_one_c_unit(tmp_path):
    """The corpus kernels and every accepted kernel of
    ``gen.generate(11)``, emitted into one translation unit, pass the host
    C compiler's syntax and type checks."""
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler named cc on PATH")
    kernels = [lower_kernel(compile_file(CORPUS / source).kernels[kname])
               for source, kname in KERNELS.values()]
    for g in gen.generate(seed=11):
        program, _ = parse_source(g.text, "gen.lope")
        result = check_program(program) if program is not None else None
        if result is not None and result.ok:
            kernels += [lower_kernel(info) for info in result.kernels.values()]
    assert len(kernels) == 163
    assert len({kir.name for kir in kernels}) == len(kernels)
    unit = tmp_path / "kernels.c"
    unit.write_text(C_PRELUDE + "\n".join(
        emit_kernel_source(kir, EmitConfig()) for kir in kernels))
    run = subprocess.run([cc, "-std=c99", "-fsyntax-only", str(unit)],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
