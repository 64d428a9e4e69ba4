"""lopec benchmark: compile latency, simulated cell-update rate, field I/O.

Usage (from the repository root)::

    python3 perfbench/run.py --workload relax-large --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client, one thread):

* ``relax-large``      corpus/laplacian.lope on a 1024x1024 field, 4 images
                       on a 2x2 grid, host-resident; kernel- and I/O-bound.
* ``halo-many-images`` corpus/upwind.lope on 128x128 over 64 images (8x8
                       grid, 16x16 blocks), one device subimage per image;
                       bound by per-image overhead and halo exchange.
* ``compile-mix``      ~200 seeded generated programs plus the corpus, from
                       source to C and plan or to diagnostics.

Each round calls the package's public functions in the order the command
line uses them (``lopec run``: parse_source, check_program,
read_array_file, Machine, run, gather, write_array_file; ``lopec emit``:
lower_kernel, emit_kernel_source, desugar, format_plan) and checks the
outputs against independent references.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced rounds with rounds
that record spans around the entry points, and prints per-layer metrics
plus the tracing overhead.  The last line of standard output is one JSON
object.
See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import gen        # noqa: E402
import reference  # noqa: E402
from spans import Tracer  # noqa: E402

RUNTIME_WORKLOADS = {
    # steps: the Laplacian amplifies the checkerboard mode 7x per step;
    # 7**60 ~ 5e50 stays far from float64 overflow (7**steps < 1e300).
    "relax-large": dict(source="corpus/laplacian.lope", kernel="laplacian",
                        extent=1024, images=4, grid_rows=2, devices=0,
                        steps=60, compile_repeats=32),
    "halo-many-images": dict(source="corpus/upwind.lope", kernel="upwind",
                             extent=128, images=64, grid_rows=8, devices=1,
                             steps=50, compile_repeats=8),
}
WORKLOADS = (*RUNTIME_WORKLOADS, "compile-mix")
CORPUS = ("corpus/avg3.lope", "corpus/laplacian.lope", "corpus/upwind.lope")
# corpus file stem -> (kernel, read footprint per array parameter)
CORPUS_FOOTPRINTS = {"avg3": ("avg3", {"a": ((1, 1),)}),
                     "laplacian": ("laplacian", {"u": ((1, 1), (1, 1))}),
                     "upwind": ("drift2", {"u": ((2, 0), (1, 1))})}
IMPORT_REPEATS = 5      # cold interpreter starts for compile-mix set-up
EVAL_EXTENT = 64        # field edge for evaluating generated kernels

END_TO_END = {"setup_s": "s", "cell_updates_per_s": "cells/s",
              "output_s": "s", "compile_ms_p50": "ms",
              "compile_ms_p95": "ms", "compile_tokens_per_s": "tokens/s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "lexer.s": "s", "lexer.tokens": "count", "parser.s": "s",
    "checks.s": "s", "checks.rejected": "count", "ir.lower_s": "s",
    "codegen.s": "s", "codegen.bytes": "B", "plan.s": "s",
    "ir.run_body_s": "s", "ir.run_body_calls": "count",
    "runtime.self_s": "s", "runtime.init_s": "s", "runtime.gather_s": "s",
    "runtime.run_untraced_s": "s", "runtime.launches": "count",
    "runtime.halo_transfers": "count", "runtime.d2h": "count",
    "runtime.h2d": "count", "runtime.halo_bytes": "B",
    "runtime.snapshot_bytes": "B", "runtime.events": "count",
    "arrayio.read_s": "s", "arrayio.write_s": "s", "arrayio.bytes": "B",
    "trace.overhead_s": "s", "trace.overhead_pct": "%",
}
# span name -> per-layer self-time metric
SPAN_METRICS = {"lexer": "lexer.s", "parser": "parser.s",
                "checks": "checks.s", "ir.lower": "ir.lower_s",
                "codegen": "codegen.s", "plan": "plan.s",
                "ir.run_body": "ir.run_body_s",
                "runtime.run": "runtime.self_s",
                "runtime.init": "runtime.init_s",
                "runtime.gather": "runtime.gather_s",
                "arrayio.read": "arrayio.read_s",
                "arrayio.write": "arrayio.write_s"}


class Compiled(NamedTuple):
    """What ``lopec emit`` produces from one source text."""

    check: object               # CheckResult, or None on a syntax error
    kernels: dict               # kernel name -> KernelIR (accepted only)
    c_text: Optional[str]       # None when rejected
    plan_text: Optional[str]
    diagnostics: str            # rendered, one per line; "" when accepted
    emit_s: float               # checked program to C and plan text

    def outputs(self):
        return self.c_text, self.plan_text, self.diagnostics


class Lopec:
    """The package modules, looked up by attribute so tracing can wrap them."""

    def __init__(self):
        if not (SRC / "lopec" / "__init__.py").is_file():
            raise SystemExit(f"perfbench: no lopec package under {SRC}")
        sys.path.insert(0, str(SRC))
        import lopec
        from lopec import (arrayio, checks, cli, codegen, ir, lexer, parser,
                           plan, runtime)
        if Path(lopec.__file__).resolve().parent != SRC / "lopec":
            raise SystemExit(f"perfbench: imported lopec from "
                             f"{lopec.__file__}, not {SRC}")
        self.arrayio, self.checks, self.cli = arrayio, checks, cli
        self.codegen, self.ir, self.lexer = codegen, ir, lexer
        self.parser, self.plan, self.runtime = parser, plan, runtime

    def trace_targets(self):
        rt = self.runtime
        return [(self.lexer, "tokenize", "lexer"),
                (self.parser, "tokenize", "lexer"),
                (self.parser, "parse", "parser"),
                (self.checks, "check_program", "checks"),
                (self.ir, "lower_kernel", "ir.lower"),
                (rt, "lower_kernel", "ir.lower"),
                (self.codegen, "emit_kernel_source", "codegen"),
                (self.plan, "desugar", "plan"),
                (self.plan, "format_plan", "plan"),
                (self.ir, "run_body", "ir.run_body"),
                (rt, "run_body", "ir.run_body"),
                (rt.Machine, "__init__", "runtime.init"),
                (rt.Machine, "run", "runtime.run"),
                (rt.Machine, "gather", "runtime.gather"),
                (self.arrayio, "read_array_file", "arrayio.read"),
                (self.arrayio, "write_array_file", "arrayio.write")]

    def compile(self, text: str, filename: str) -> Compiled:
        """Source text to emitted C and plan, or to diagnostics."""
        program, diags = self.parser.parse_source(text, filename)
        if program is None:
            return Compiled(None, {}, None, None,
                            "\n".join(d.render() for d in diags), 0.0)
        check = self.checks.check_program(program)
        if not check.ok:
            return Compiled(check, {}, None, None, "\n".join(
                d.render() for d in check.diagnostics), 0.0)
        t = time.perf_counter()
        kernels = {name: self.ir.lower_kernel(info)
                   for name, info in check.kernels.items()}
        c_text = "\n".join(self.codegen.emit_kernel_source(kir)
                           for kir in kernels.values())
        plan_text = self.plan.format_plan(self.plan.desugar(check.program))
        return Compiled(check, kernels, c_text, plan_text + "\n", "",
                        time.perf_counter() - t)


def median(values):
    return statistics.median(values) if values else 0.0


def compile_metrics(rows: list[dict]) -> dict:
    compile_ms = [x * 1e3 for r in rows for x in r["compile_s"]]
    return {"compile_ms_p50": float(np.percentile(compile_ms, 50)),
            "compile_ms_p95": float(np.percentile(compile_ms, 95)),
            "compile_tokens_per_s": median([r["tokens_per_s"]
                                            for r in rows])}


def write_field(path: Path, field: np.ndarray) -> None:
    """Field file in the documented text format, written without lopec."""
    m, n = field.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m} {n}\n")
        np.savetxt(fh, field.T, fmt="%.17g", delimiter=" ")


def token_count(lo: Lopec, text: str) -> int:
    return len(lo.lexer.tokenize(text))


# ---------------------------------------------------------------------------
# Runtime workloads


class RuntimeWorkload:
    def __init__(self, lo: Lopec, name: str, seed: int, work: Path):
        self.lo, self.name, self.work = lo, name, work
        self.spec = spec = RUNTIME_WORKLOADS[name]
        self.source = str(ROOT / spec["source"])
        with open(self.source, encoding="utf-8") as fh:
            self.text = fh.read()
        e = spec["extent"]
        self.field = np.random.default_rng(seed).standard_normal((e, e))
        self.in_path = work / "input.txt"
        self.out_path = work / "output.txt"
        write_field(self.in_path, self.field)
        self.tokens = token_count(lo, self.text)
        self.cells = e * e * spec["steps"]
        self.first_out = None
        self.c_text = self.plan_text = None
        self.ok = True

    def round(self) -> dict:
        """``lopec emit`` compile_repeats times, then one ``lopec run``.

        The repeats give a runtime round enough compile samples for a p95
        whatever its length."""
        lo, spec = self.lo, self.spec
        compile_s = []
        for _ in range(spec["compile_repeats"]):
            t = time.perf_counter()
            res = lo.compile(self.text, self.source)
            compile_s.append(time.perf_counter() - t)
            if self.c_text is None:
                self.c_text, self.plan_text = res.c_text, res.plan_text
            self.ok &= (res.c_text is not None
                        and (res.c_text, res.plan_text)
                        == (self.c_text, self.plan_text))

        t0 = time.perf_counter()
        with open(self.source, encoding="utf-8") as fh:
            program, _ = lo.parser.parse_source(fh.read(), self.source)
        check = lo.checks.check_program(program)
        field = lo.arrayio.read_array_file(str(self.in_path))
        config = lo.runtime.RunConfig(
            images=spec["images"], grid_rows=spec["grid_rows"],
            devices=spec["devices"], steps=spec["steps"])
        machine = lo.runtime.Machine(check, config, field)
        t1 = time.perf_counter()
        machine.run()
        t2 = time.perf_counter()
        out = machine.gather()
        lo.arrayio.write_array_file(str(self.out_path), out)
        t3 = time.perf_counter()

        if self.first_out is None:
            self.first_out = out
        self.ok &= reference.bit_identical(out, self.first_out)
        counters = {key: sum(c[key] for c in machine.counters.values())
                    for key in ("launches", "halo_transfers", "d2h", "h2d")}
        layout = machine.arrays[machine.primary.name].layout
        padded = layout.padded()
        slab_cells = sum((layout.lo[d] + layout.hi[d])
                         * int(np.prod(padded[:d] + padded[d + 1:]))
                         for d in range(layout.rank))
        return {
            "wall_s": sum(compile_s) + t3 - t0,
            "compile_s": compile_s,
            "tokens_per_s": self.tokens * len(compile_s) / sum(compile_s),
            "setup_s": t1 - t0,
            "run_s": t2 - t1,
            "output_s": t3 - t2,
            "lexer.tokens": self.tokens * (spec["compile_repeats"] + 1),
            "checks.rejected": 0,
            "codegen.bytes": len(self.c_text) * spec["compile_repeats"],
            "runtime.launches": counters["launches"],
            "runtime.halo_transfers": counters["halo_transfers"],
            "runtime.d2h": counters["d2h"],
            "runtime.h2d": counters["h2d"],
            # every image fills its halo slabs once per exchange
            "runtime.halo_bytes": counters["halo_transfers"] * slab_cells * 8,
            "runtime.snapshot_bytes": counters["launches"] * layout.count() * 8,
            "runtime.events": len(machine.events),
            "arrayio.bytes": (os.path.getsize(self.in_path)
                              + os.path.getsize(self.out_path)),
        }

    def end_to_end(self, rows: list[dict], rss_mb: float) -> dict:
        return {
            "setup_s": median([r["setup_s"] for r in rows]),
            "cell_updates_per_s": median([self.cells / r["run_s"]
                                          for r in rows]),
            "output_s": median([r["output_s"] for r in rows]),
            **compile_metrics(rows),
            "peak_rss_mb": rss_mb,
        }

    def verify(self) -> list[str]:
        """Checks outside the timed region; returns the failures."""
        lo, spec = self.lo, self.spec
        problems = []
        if not self.ok:
            problems.append("rounds disagree: output or emitted text "
                            "differs between rounds")
        ref = reference.dense_run(spec["kernel"], self.field, spec["steps"])
        if not reference.close(self.first_out, ref):
            problems.append("output differs from the dense reference")
        parsed = reference.read_field_text(str(self.out_path))
        if not reference.bit_identical(parsed, self.first_out):
            problems.append("field text does not round-trip bit-identically")
        if self.c_text.count("__kernel") != 1:
            problems.append("emitted C does not hold exactly one __kernel")
        cli_out = self.work / "cli_output.txt"
        code = lo.cli.main([
            "run", self.source, "--images", str(spec["images"]),
            "--grid-rows", str(spec["grid_rows"]),
            "--devices", str(spec["devices"]), "--steps", str(spec["steps"]),
            "--input", str(self.in_path), "--output", str(cli_out)])
        if code != 0 or cli_out.read_bytes() != self.out_path.read_bytes():
            problems.append(f"lopec run (exit {code}) did not reproduce the "
                            f"benchmark's output file byte for byte")

        # The checks must reject a perturbed field.
        bad = self.first_out.copy()
        bad.flat[bad.size // 3] += 1e-6 * np.max(np.abs(ref))
        if reference.close(bad, ref):
            problems.append("self-check: dense check accepted a perturbed "
                            "field")
        bad = parsed.copy()
        bad.flat[bad.size // 2] = np.nextafter(bad.flat[bad.size // 2], np.inf)
        if reference.bit_identical(bad, self.first_out):
            problems.append("self-check: round-trip check accepted a field "
                            "one ulp off")
        return problems


# ---------------------------------------------------------------------------
# compile-mix


class CompileMix:
    def __init__(self, lo: Lopec, seed: int, work: Path):
        self.lo, self.work = lo, work
        (work / "src").mkdir()
        self.programs = []      # (path, text, GenProgram or None)
        for g in gen.generate(seed):
            path = work / "src" / g.name
            path.write_text(g.text, encoding="utf-8")
            self.programs.append((str(path), g.text, g))
        for rel in CORPUS:
            path = ROOT / rel
            self.programs.append((str(path), path.read_text("utf-8"), None))
        self.tokens = [token_count(lo, text) for _, text, _ in self.programs]
        self.planted = sum(1 for *_, g in self.programs
                           if g is not None and g.violation)
        field_ = np.random.default_rng(seed + 1).standard_normal(
            (EVAL_EXTENT, EVAL_EXTENT))
        self.padded = np.pad(field_, 4, mode="wrap")
        self.expected_eval = {
            g.name: gen.evaluate(g, field_) for *_, g in self.programs
            if g is not None and not g.violation}
        self.first = None       # per-program outputs of the first round
        self.problems: list[str] = []
        self.setup_samples: list[float] = []

    def cold_import(self) -> None:
        """Set-up: a fresh interpreter importing the compiler's CLI."""
        code = "import sys; sys.path.insert(0, sys.argv[1]); import lopec.cli"
        for _ in range(IMPORT_REPEATS):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", code, str(SRC)],
                           cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            self.setup_samples.append(time.perf_counter() - t)

    def _read(self, name, offsets):
        e, p = EVAL_EXTENT, 4
        return self.padded[p + offsets[0]:p + offsets[0] + e,
                           p + offsets[1]:p + offsets[1] + e]

    def round(self) -> dict:
        lo = self.lo
        results = []
        compile_s = []
        failed = 0
        for path, text, _ in self.programs:
            try:
                t = time.perf_counter()
                res = lo.compile(text, path)
                compile_s.append(time.perf_counter() - t)
            except Exception:   # counted as a failed operation
                traceback.print_exc()
                failed += 1
                res = None
            results.append(res)

        eval_s = 0.0
        n_eval = 0
        for (path, _, g), res in zip(self.programs, results):
            if g is None or g.violation or res is None or res.c_text is None:
                continue
            kir = res.kernels[g.kernel]
            scalars = {k: np.float64(v) for k, v in g.scalars.items()}
            t = time.perf_counter()
            got = lo.ir.run_body(kir, self._read, scalars)["u"]
            eval_s += time.perf_counter() - t
            n_eval += 1
            if not reference.close(np.asarray(got), self.expected_eval[g.name]):
                self.problems.append(f"{g.name}: compiled kernel disagrees "
                                     f"with the generator's formula")

        self.check_round(results)
        return {
            "wall_s": sum(compile_s) + eval_s,
            "compile_s": compile_s,
            "tokens_per_s": sum(self.tokens) / sum(compile_s),
            "eval_rate": n_eval * EVAL_EXTENT ** 2 / eval_s,
            "output_s": sum(r.emit_s for r in results if r is not None),
            "failed": failed,
            "lexer.tokens": sum(self.tokens),
            "checks.rejected": sum(1 for r in results
                                   if r is not None and r.c_text is None),
            "codegen.bytes": sum(len(r.c_text) for r in results
                                 if r is not None and r.c_text is not None),
        }

    def check_round(self, results) -> None:
        outputs = [None if r is None else r.outputs() for r in results]
        if self.first is None:
            self.first = results
            for (path, _, g), res in zip(self.programs, results):
                self.problems += verdict_problems(path, g, res)
        elif outputs != [None if r is None else r.outputs()
                         for r in self.first]:
            self.problems.append("a round's emitted text or diagnostics "
                                 "differ from the first round's")

    def end_to_end(self, rows: list[dict], rss_mb: float) -> dict:
        return {
            "setup_s": median(self.setup_samples),
            "cell_updates_per_s": median([r["eval_rate"] for r in rows]),
            "output_s": median([r["output_s"] for r in rows]),
            **compile_metrics(rows),
            "peak_rss_mb": rss_mb,
        }

    def verify(self) -> list[str]:
        lo = self.lo
        problems = list(self.problems)
        rejected = sum(1 for r in self.first
                       if r is not None and r.c_text is None)
        if rejected != self.planted:
            problems.append(f"{rejected} programs rejected, {self.planted} "
                            f"planted")
        for (path, _, _), res in zip(self.programs, self.first):
            if res is None or res.c_text is None:
                continue
            again = "\n".join(lo.codegen.emit_kernel_source(kir)
                              for kir in res.kernels.values())
            if again != res.c_text:
                problems.append(f"{path}: emitting twice gave different C")
            if res.c_text.count("__kernel") != len(res.kernels):
                problems.append(f"{path}: expected one __kernel per kernel")

        # The command line must produce the same bytes and diagnostics.
        cli_dir = self.work / "cli"
        cli_dir.mkdir()
        for (path, _, _), res in zip(self.programs, self.first):
            if res is None:
                continue
            if res.c_text is None:
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = lo.cli.main(["check", path])
                if code != 1 or err.getvalue() != res.diagnostics + "\n":
                    problems.append(f"lopec check {path}: exit {code}, "
                                    f"diagnostics differ")
                continue
            stem = cli_dir / Path(path).stem
            for target, text, suffix in (("kernel-c", res.c_text, "c"),
                                         ("plan", res.plan_text, "plan")):
                code = lo.cli.main(["emit", path, "--target", target,
                                    "-o", f"{stem}.{suffix}"])
                with open(f"{stem}.{suffix}", encoding="utf-8") as fh:
                    if code != 0 or fh.read() != text:
                        problems.append(f"lopec emit --target {target} "
                                        f"{path} differs")
        return problems + self.self_check()

    def self_check(self) -> list[str]:
        """The checks must fail on a flipped verdict, a moved diagnostic
        and a perturbed kernel value."""
        valid = next(i for i, (*_, g) in enumerate(self.programs)
                     if g is not None and not g.violation)
        planted = next(i for i, (*_, g) in enumerate(self.programs)
                       if g is not None and g.violation)
        g_ok, res_ok = self.programs[valid][2], self.first[valid]
        g_bad, res_bad = self.programs[planted][2], self.first[planted]
        code, line = g_bad.violation
        cases = [
            ("rejected valid program", g_ok,
             res_ok._replace(c_text=None, diagnostics="flipped")),
            ("accepted planted violation", g_bad,
             res_bad._replace(c_text="", plan_text="", diagnostics="")),
            ("diagnostic on another line",
             dataclasses.replace(g_bad, violation=(code, line + 1)), res_bad),
        ]
        problems = [f"self-check: verdict check passed a {what}"
                    for what, g, res in cases
                    if not verdict_problems("self-check", g, res)]
        ref = self.expected_eval[g_ok.name]
        bad = ref.copy()
        bad.flat[0] += 1e-6 * np.max(np.abs(ref))
        if reference.close(bad, ref):
            problems.append("self-check: kernel evaluation check accepted a "
                            "perturbed field")
        return problems


def verdict_problems(path: str, g, res: Optional[Compiled]) -> list[str]:
    """Compare one compile result with the generator's known answer."""
    if res is None:
        return [f"{path}: compile raised"]
    if g is None:       # corpus program: accepted, footprint known
        kernel, expected = CORPUS_FOOTPRINTS[Path(path).stem]
        if res.c_text is None:
            return [f"{path}: rejected: {res.diagnostics}"]
        got = {p: fp.dims
               for p, fp in res.check.kernels[kernel].footprints.items()}
        return [] if got == expected else [f"{path}: footprint {got}"]
    if g.violation is None:
        if res.c_text is None or res.diagnostics:
            return [f"{path}: valid program rejected: {res.diagnostics}"]
        got = res.check.kernels[g.kernel].footprints["u"].dims
        if got != g.footprint:
            return [f"{path}: footprint {got}, generated {g.footprint}"]
        return []
    if res.c_text is not None or res.check is None:
        return [f"{path}: planted {g.violation} was not reported"]
    got = [(d.code, d.pos.line) for d in res.check.diagnostics]
    if got != [g.violation]:
        return [f"{path}: diagnostics {got}, planted {g.violation}"]
    return []


# ---------------------------------------------------------------------------
# Driver


def measure(workload, seconds: float, trace: bool, tracer: Tracer, lo: Lopec):
    """Closed loop of whole rounds after one warm-up round.

    With tracing, rounds alternate untraced and traced, so drift in the
    machine's speed reaches both sides alike.  Returns the untraced and the
    traced rows; the warm-up round is checked but not measured.
    """
    warm = workload.round()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while (not untraced or (trace and not traced)
           or time.perf_counter() < deadline):
        # Every round starts from a collected heap, as a fresh ``lopec``
        # process would, so cycles a round leaves behind are not collected
        # inside the next round's timed calls.
        gc.collect()
        if trace and len(traced) < len(untraced):
            with tracer.patched(lo.trace_targets()):
                mark = len(tracer.spans)
                row = workload.round()
            self_s, calls = tracer.summary(mark)
            row.update({metric: self_s.get(span, 0.0)
                        for span, metric in SPAN_METRICS.items()})
            row["ir.run_body_calls"] = calls.get("ir.run_body", 0)
            traced.append(row)
        else:
            untraced.append(workload.round())
    return warm, untraced, traced


def layer_metrics(untraced, traced) -> dict:
    out = {}
    for name in PER_LAYER:
        values = [row[name] for row in traced if name in row]
        out[name] = median(values)
    plain = median([r["wall_s"] for r in untraced])
    with_spans = median([r["wall_s"] for r in traced])
    out["trace.overhead_s"] = with_spans - plain
    out["trace.overhead_pct"] = 100.0 * (with_spans - plain) / plain
    out["runtime.run_untraced_s"] = median(
        [r["run_s"] for r in untraced if "run_s" in r])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    lo = Lopec()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir()
    tracer = Tracer()
    try:
        if args.workload == "compile-mix":
            workload = CompileMix(lo, args.seed, work)
            if not args.trace:
                workload.cold_import()
        else:
            workload = RuntimeWorkload(lo, args.workload, args.seed, work)
        warm, untraced, traced = measure(workload, args.seconds,
                                         bool(args.trace), tracer, lo)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = workload.verify()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = [warm] + untraced + traced
    if args.workload == "compile-mix":
        attempted = len(rounds) * len(workload.programs)
        failed = sum(r["failed"] for r in rounds)
    else:
        attempted, failed = len(rounds), 0
    if args.trace:
        values, units = layer_metrics(untraced, traced), PER_LAYER
        tracer.dump(str(OUT / f"trace-{tag}.json.gz"))
    else:
        values, units = workload.end_to_end(untraced, rss_mb), END_TO_END
    for problem in problems:
        print(f"FAIL: {problem}")
    for name, unit in units.items():
        print(f"{name:26s} {values[name]:>16.6g} {unit}")
    print(f"rounds {len(rounds)} (1 warm-up), attempted {attempted}, failed {failed}")
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    line = json.dumps(result)
    (OUT / f"result-{tag}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
