"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``PASS``/``FAIL`` line (visible under
``pytest -s``) with its measured runtime, and fails through pytest
otherwise.  Comparisons are exact (bitwise / byte-identical) unless a
check states a fallback tolerance.
"""

import contextlib
import io
import time

import numpy as np

from c_eval import run_work_items
from conftest import BAD, CORPUS, GOLDEN, compile_file, compile_source
from lopec.arrayio import read_array_file, write_array_file
from lopec.checks import check_program
from lopec.cli import main
from lopec.codegen import EmitConfig, emit_kernel_source
from lopec.ir import StorageLayout, lower_kernel
from lopec.parser import parse_source
from lopec.runtime import Machine, RunConfig, oracle_step

PROGRAMS = {
    "laplacian": (CORPUS / "laplacian.lope", "laplacian", (32, 32), {}),
    "avg3": (CORPUS / "avg3.lope", "avg3", (64, 1), {}),
    "upwind": (CORPUS / "upwind.lope", "drift2", (32, 32),
               {"c": np.float64(0.25)}),
}


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        return False


def _report(number, label, ok, timer, budget=None, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} {label}: {status} "
          f"in {timer.seconds:.2f}s{extra}")
    assert ok, f"criterion {number} {label}{extra}"
    if budget is not None:
        assert timer.seconds < budget, \
            f"criterion {number} exceeded {budget}s ({timer.seconds:.2f}s)"


def test_criterion_1_corpus_parse_and_designated_codes():
    expected = {
        "halo_write.lope": ("E101", 6),
        "halo_exceeded.lope": ("E102", 17),
        "store_then_read.lope": ("E103", 7),
        "impure.lope": ("E104", 6),
    }
    with _Timer() as t:
        ok = True
        for stem in ("laplacian", "avg3", "upwind"):
            path = CORPUS / f"{stem}.lope"
            program, diags = parse_source(path.read_text(), str(path))
            ok = ok and program is not None and not diags \
                and check_program(program).diagnostics == []
        for name, (code, line) in expected.items():
            program, _ = parse_source((BAD / name).read_text(), name)
            result = check_program(program)
            ok = ok and [d.code for d in result.diagnostics] == [code]
            ok = ok and result.diagnostics[0].pos.line == line
    _report(1, "corpus parse/check + designated codes", ok, t, budget=1.0)


def test_criterion_2_constant_field_fixed_point(tmp_path):
    field = np.full((32, 32), 1.0)
    src, dst = tmp_path / "c.txt", tmp_path / "c_out.txt"
    write_array_file(str(src), field)
    with _Timer() as t:
        code = main(["run", str(PROGRAMS["laplacian"][0]),
                     "--images", "1", "--steps", "20",
                     "--input", str(src), "-o", str(dst)])
        out = read_array_file(str(dst))
        ok = code == 0 and np.array_equal(out, field)
    _report(2, "20-step constant-field bitwise fixed point", ok, t,
            budget=1.0)


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(20260823)
    trials = 0
    with _Timer() as t:
        ok = True
        bitwise = True
        for stem, (path, kname, shape, scalars) in PROGRAMS.items():
            result = compile_file(path)
            kir = lower_kernel(result.kernels[kname])
            for steps in (1, 5, 20):
                for _ in range(12):
                    field = rng.uniform(-1.0, 1.0, shape)
                    ref = field[:, 0] if shape[1] == 1 else field.copy()
                    for _ in range(steps):
                        ref = oracle_step(ref, kir, scalars)
                    machine = Machine(result,
                                      RunConfig(images=1, steps=steps),
                                      field.copy())
                    machine.run()
                    got = machine.gather()
                    got = got[:, 0] if shape[1] == 1 else got
                    if not np.array_equal(ref, got):
                        bitwise = False
                        ok = ok and np.max(np.abs(ref - got)) <= 1e-12
                    trials += 1
        ok = ok and trials >= 100
    _report(3, "runtime matches K oracle steps", ok, t, budget=30.0,
            detail=f"{trials} trials, "
                   + ("bitwise" if bitwise else "<=1e-12 fallback"))


def test_criterion_4_decomposition_invariance(tmp_path):
    grids = [(1, 1), (2, 1), (2, 2), (4, 2)]
    rng = np.random.default_rng(4)
    with _Timer() as t:
        ok = True
        for stem, (path, _, shape, _) in PROGRAMS.items():
            field = rng.uniform(-1.0, 1.0, shape)
            src = tmp_path / f"{stem}_in.txt"
            write_array_file(str(src), field)
            outputs = []
            for p, mp in grids:
                dst = tmp_path / f"{stem}_{p}x{mp}.txt"
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main(["run", str(path), "--images", str(p),
                                 "--grid-rows", str(mp), "--steps", "3",
                                 "--input", str(src), "-o", str(dst)])
                if shape[1] == 1 and mp != 1:
                    # a 1-D field cannot split over grid rows
                    ok = ok and code == 3
                    ok = ok and "error[E201]" in err.getvalue()
                    continue
                ok = ok and code == 0
                outputs.append(dst.read_bytes())
            ok = ok and len(set(outputs)) == 1
    _report(4, "byte-identical outputs across grids", ok, t, budget=10.0)


def test_criterion_5_device_transparency(tmp_path):
    rng = np.random.default_rng(5)
    with _Timer() as t:
        ok = True
        for stem, (path, _, shape, _) in PROGRAMS.items():
            field = rng.uniform(-1.0, 1.0, shape)
            src = tmp_path / f"{stem}_in.txt"
            write_array_file(str(src), field)
            for p, mp in [(1, 1), (2, 1), (4, 2)]:
                if shape[1] == 1 and mp != 1:
                    continue
                outs = []
                for devices in (0, 1):
                    dst = tmp_path / f"{stem}_{p}x{mp}_d{devices}.txt"
                    code = main(["run", str(path), "--images", str(p),
                                 "--grid-rows", str(mp), "--steps", "2",
                                 "--devices", str(devices),
                                 "--input", str(src), "-o", str(dst)])
                    ok = ok and code == 0
                    outs.append(dst.read_bytes())
                ok = ok and outs[0] == outs[1]
        # asking for subimage 2 with one device configured falls back to
        # the host image and must not change the numbers
        fallback = tmp_path / "fallback.lope"
        fallback.write_text(PROGRAMS["laplacian"][0].read_text().replace(
            "GET_SUBIMAGE(1)", "GET_SUBIMAGE(2)"))
        field = rng.uniform(-1.0, 1.0, (32, 32))
        src = tmp_path / "fb_in.txt"
        write_array_file(str(src), field)
        outs = []
        for name, argv in (
                ("base", ["run", str(PROGRAMS["laplacian"][0]),
                          "--devices", "0"]),
                ("fb", ["run", str(fallback), "--devices", "1"])):
            dst = tmp_path / f"fb_{name}.txt"
            code = main(argv + ["--images", "2", "--steps", "2",
                                "--input", str(src), "-o", str(dst)])
            ok = ok and code == 0
            outs.append(dst.read_bytes())
        ok = ok and outs[0] == outs[1]
    _report(5, "device mirrors byte-identical + fallback", ok, t,
            budget=10.0)


def test_criterion_6_shuffle_order_invariance(tmp_path):
    rng = np.random.default_rng(6)
    with _Timer() as t:
        ok = True
        for stem, (path, _, shape, _) in PROGRAMS.items():
            field = rng.uniform(-1.0, 1.0, shape)
            src = tmp_path / f"{stem}_in.txt"
            write_array_file(str(src), field)
            base = tmp_path / f"{stem}_base.txt"
            ok = ok and main(["run", str(path), "--steps", "2",
                              "--input", str(src), "-o", str(base)]) == 0
            base_bytes = base.read_bytes()
            for seed in range(20):
                dst = tmp_path / f"{stem}_s{seed}.txt"
                code = main(["run", str(path), "--steps", "2",
                             "--input", str(src),
                             "--shuffle-seed", str(seed), "-o", str(dst)])
                ok = ok and code == 0 and dst.read_bytes() == base_bytes
    _report(6, "20 shuffle seeds byte-identical", ok, t)


def test_criterion_7_halo_exchange_periodic_oracle():
    text = """\
program main
  real, allocatable, dimension(:,:), codimension[:,:], &
        HALO(1:*:1, 1:*:1) :: U
  allocate(U(0:M+1, 0:N+1)[MP,*])
  call HALO_TRANSFER(U, BC=CYCLIC)
end program main
"""
    result = compile_source(text)
    rng = np.random.default_rng(7)
    mg, ng = 16, 8                       # 8x4 blocks on the 2x2 grid
    with _Timer() as t:
        ok = True
        halo_cells = 0
        for _ in range(100):
            field = rng.uniform(-1.0, 1.0, (mg, ng))
            machine = Machine(result, RunConfig(images=4, grid_rows=2),
                              field.copy())
            machine.run()
            arr = machine.arrays["u"]
            m, n = machine.m, machine.n
            for k in machine.images:
                pcol, prow = machine.grid.coords(k)
                view = arr.view(k)
                for c0 in range(m + 2):
                    for c1 in range(n + 2):
                        g0 = ((pcol - 1) * m + c0 - 1) % mg
                        g1 = ((prow - 1) * n + c1 - 1) % ng
                        if view[c0, c1] != field[g0, g1]:
                            ok = False
                        if not (1 <= c0 <= m and 1 <= c1 <= n):
                            halo_cells += 1
        ok = ok and halo_cells == 100 * 4 * (2 * (8 + 4) + 4)
    _report(7, "halo cells equal periodic oracle", ok, t,
            detail="100 trials")


def test_criterion_8_codegen_goldens_and_c_equivalence():
    goldens = {
        "laplacian": ("laplacian", "laplacian.cl.golden"),
        "avg3": ("avg3", "avg3.cl.golden"),
        "upwind": ("drift2", "upwind.cl.golden"),
    }
    rng = np.random.default_rng(8)
    with _Timer() as t:
        ok = True
        for stem, (kname, golden_name) in goldens.items():
            result = compile_file(CORPUS / f"{stem}.lope")
            text = emit_kernel_source(lower_kernel(result.kernels[kname]),
                                      EmitConfig())
            ok = ok and text == (GOLDEN / golden_name).read_text()

        # the C interpreter replays the emitted body against the runtime
        result = compile_file(CORPUS / "laplacian.lope")
        kir = lower_kernel(result.kernels["laplacian"])
        ctext = emit_kernel_source(kir, EmitConfig())
        lay = StorageLayout((6, 6), (1, 1), (1, 1))
        inner = (slice(1, 7), slice(1, 7))
        for _ in range(100):
            field = rng.uniform(-1.0, 1.0, (6, 6))
            machine = Machine(result, RunConfig(images=1, steps=1),
                              field.copy())
            machine.run()
            got = machine.gather()

            padded = np.zeros(lay.padded())
            padded[inner] = field
            padded[0, 1:7] = field[5]
            padded[7, 1:7] = field[0]
            padded[:, 0] = padded[:, 6]
            padded[:, 7] = padded[:, 1]
            flat_in = padded.flatten(order="F")
            flat_out = flat_in.copy()
            run_work_items(ctext, {"u_in": flat_in, "u_out": flat_out},
                           {"M": 6, "hlo0": 1, "hhi0": 1,
                            "N": 6, "hlo1": 1, "hhi1": 1}, (6, 6))
            cres = flat_out.reshape(lay.padded(), order="F")[inner]
            ok = ok and np.array_equal(cres, got)
    _report(8, "goldens byte-exact + C interpreter agreement", ok, t,
            detail="100 trials")


def _flat(lay, coords):
    """Column-major flat index of padded coordinates, the order a block is
    stored in; ``ravel_multi_index`` raises ValueError for a coordinate
    outside the padded box."""
    return np.ravel_multi_index(coords, lay.padded(), order="F")


def test_criterion_9_index_mapping_exhaustion():
    """Exhausts ``StorageLayout.at``, the map that every runtime read,
    write-back, section and halo exchange indexes through."""
    with _Timer() as t:
        ok = True
        try:
            # rank 1: every (interior centre, in-halo offset) pair, all
            # extents <= 16 and halo widths <= 3
            for m in range(1, 17):
                centers = np.arange(1, m + 1)[:, None]
                for lo in range(4):
                    for hi in range(4):
                        lay = StorageLayout((m,), (lo,), (hi,))
                        offs = np.arange(-lo, hi + 1)[None, :]
                        lin = _flat(lay, lay.at((centers,), (offs,)))
                        ok = ok and lin.min() == 0 \
                            and lin.max() == lay.count() - 1
                        ok = ok and np.array_equal(
                            np.unique(lin), np.arange(lay.count()))
                        interior = lin[:, lo]
                        ok = ok and np.unique(interior).size == m
            # rank 2: same exhaustion, vectorized over the centre x offset
            # product per layout
            spans = {(lo, hi): np.arange(-lo, hi + 1)
                     for lo in range(4) for hi in range(4)}
            for m in range(1, 17):
                for n in range(1, 17):
                    c0 = np.arange(1, m + 1)[:, None, None, None]
                    c1 = np.arange(1, n + 1)[None, :, None, None]
                    for lo0 in range(4):
                        for hi0 in range(4):
                            o0 = spans[lo0, hi0][None, None, :, None]
                            for lo1 in range(4):
                                for hi1 in range(4):
                                    o1 = spans[lo1, hi1][None, None, None, :]
                                    lay = StorageLayout((m, n), (lo0, lo1),
                                                        (hi0, hi1))
                                    count = lay.count()
                                    lin = _flat(lay, lay.at((c0, c1),
                                                            (o0, o1)))
                                    # 0 <= lin < count in one reduction:
                                    # as unsigned, a negative index reads
                                    # as 2**63 or more
                                    if lin.view(np.uint64).max() >= count:
                                        ok = False
                                    # the interior maps to m * n distinct
                                    # cells (the same count np.unique
                                    # gives, once every index is in bounds)
                                    seen = np.zeros(count, bool)
                                    seen[lin[:, :, lo0, lo1]] = True
                                    if np.count_nonzero(seen) != m * n:
                                        ok = False
        except (ValueError, IndexError):    # a cell outside the padded box
            ok = False
        # the scalar path agrees with the frozen layout examples
        lay = StorageLayout((8, 4), (1, 1), (1, 1))
        ok = ok and _flat(lay, lay.at((1, 1), (1, 0))) == 12
        ok = ok and _flat(lay, lay.at((8, 4), (1, 1))) == 59
    _report(9, "index mapping bijective and in-bounds", ok, t, budget=5.0)
