"""Generated kernels across decompositions, device counts and orders.

The seeded generator in ``perfbench/gen.py`` writes rank-2 kernels with
radii 1-3, scalar parameters and kernel locals, and evaluates each one
densely with ``np.roll`` shifts, sharing no code with lopec.  Every
configuration must give the same bytes as one image in vector order, and
that field must equal two applications of the dense ``oracle_step`` bit
for bit and agree with two applications of the generator's own
evaluation.
"""

import random
import re
import sys

import numpy as np
import pytest

from conftest import TESTS, compile_source, diagnostics_of
from lopec.ir import lower_kernel
from lopec.runtime import Machine, RunConfig, oracle_step

sys.path.insert(0, str(TESTS.parent / "perfbench"))
import gen        # noqa: E402
import reference  # noqa: E402

# 24 = 8 x 3: eight images along one grid axis leave blocks 3 wide, as
# wide as the largest halo, so no configuration faults with E201
EXTENT = 24
STEPS = 2
CONFIGS_PER_PROGRAM = 3
PROGRAMS = [p for p in gen.generate(seed=11, count=25)
            if p.violation is None]
PLANTED = [p for p in gen.generate(seed=11) if p.violation is not None]
RENDERED = re.compile(r"[^:]*:(\d+):\d+: error\[(E\d+)\]")


def random_config(rng: random.Random) -> dict:
    images = rng.choice((1, 2, 4, 8))
    rows = rng.choice([r for r in (1, 2, 4, 8) if images % r == 0])
    # the pointwise order runs one point per run_body call: keep it rare
    pointwise = rng.choice((False,) * 6 + (True,) * 3)
    devices = rng.choice((0, 1))
    seed = rng.randrange(1000)
    return dict(images=images, grid_rows=rows, devices=devices,
                shuffle_seed=seed if pointwise else None)


def run(check, field, **config):
    machine = Machine(check, RunConfig(steps=STEPS, **config), field.copy())
    machine.run()
    return machine.gather()


def test_the_generated_set_spans_radii_scalars_and_locals():
    assert len(PROGRAMS) == 20
    radii = {max(max(side) for side in p.footprint) for p in PROGRAMS}
    assert radii == {1, 2, 3}
    assert any(p.scalars for p in PROGRAMS)
    assert any(target != "U" for p in PROGRAMS for target, _ in p.statements)


@pytest.mark.parametrize("index", range(len(PROGRAMS)))
def test_generated_kernel_is_invariant_and_matches_its_evaluation(index):
    prog = PROGRAMS[index]
    check = compile_source(prog.text, prog.name)
    rng = random.Random(index)
    field = np.random.default_rng(index).uniform(-1, 1, (EXTENT, EXTENT))
    base = run(check, field)
    for _ in range(CONFIGS_PER_PROGRAM):
        config = random_config(rng)
        assert run(check, field, **config).tobytes() == base.tobytes(), config
    kir = lower_kernel(check.kernels[prog.kernel])
    scalars = {name: np.float64(v) for name, v in prog.scalars.items()}
    dense = oracle_step(oracle_step(field, kir, scalars), kir, scalars)
    assert base.tobytes() == dense.tobytes()
    want = gen.evaluate(prog, gen.evaluate(prog, field))
    assert reference.close(base, want)


def test_planted_violations_report_their_code_on_their_line():
    assert {p.violation[0] for p in PLANTED} == set(gen.VIOLATIONS)
    # the kernels' long statements span continuation lines, so a planted
    # line is often counted across one
    assert any("&\n" in p.text for p in PLANTED)
    for prog in PLANTED:
        got = [(m[2], int(m[1])) for m in
               map(RENDERED.match, diagnostics_of(prog.text, prog.name))]
        assert got == [prog.violation], prog.text
