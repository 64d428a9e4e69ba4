"""Seeded generator of rank-2 kernel programs with known answers.

Each generated program is one kernel plus the host driver the corpus
programs use.  The generator keeps the kernel as a small term tree, so it
knows, without asking the compiler:

* the read footprint of every valid kernel (max offset per side per dim);
* for a planted violation, its diagnostic code and source line;
* the kernel's value on any field, through ``evaluate``, a dense numpy
  evaluation with periodic ``np.roll`` shifts that shares no code with
  ``lopec``.

Terms are tuples: ``("u", (o1, o2))`` reads the array, ``("c", v)`` is a
constant, ``("s", name)`` a scalar parameter or local, and ``("mul" |
"div" | "sub" | "min" | "max", a, b)`` / ``("abs" | "sqrt", a)`` combine
them.  A statement's right-hand side is a list of ``(sign, term)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

N_PROGRAMS = 200
VIOLATION_RATE = 0.2
VIOLATIONS = ("E101", "E102", "E103", "E104")
TERMS_PER_LINE = 6
COEFFICIENTS = ("2", "3", "0.5", "0.25", "1.5", "0.125")
SCALAR_VALUES = (0.25, 0.5, 0.75, 1.5)


@dataclass
class GenProgram:
    name: str
    text: str
    kernel: str
    scalars: dict[str, float]
    statements: list[tuple[str, list]] = field(default_factory=list)
    footprint: tuple[tuple[int, int], ...] = ()
    violation: tuple[str, int] | None = None    # (code, line)


# -- source text -------------------------------------------------------------


def term_src(t) -> str:
    tag = t[0]
    if tag == "u":
        return f"U({t[1][0]},{t[1][1]})"
    if tag == "c":
        return t[1]
    if tag == "s":
        return t[1]
    if tag == "mul":
        return f"{term_src(t[1])}*{term_src(t[2])}"
    if tag == "div":
        return f"{term_src(t[1])}/{term_src(t[2])}"
    if tag == "sub":
        return f"({term_src(t[1])} - {term_src(t[2])})"
    if tag in ("min", "max"):
        return f"{tag}({term_src(t[1])}, {term_src(t[2])})"
    if tag in ("abs", "sqrt"):
        return f"{tag}({term_src(t[1])})"
    if tag == "call":               # a function no kernel may call
        return f"{t[1]}({term_src(t[2])})"
    if tag == "v":                  # an array that is not a parameter
        return "V(0,0)"
    raise ValueError(tag)


def rhs_lines(terms: list) -> list[str]:
    """Right-hand side split over continuation lines of TERMS_PER_LINE."""
    chunks = []
    for i in range(0, len(terms), TERMS_PER_LINE):
        parts = []
        for k, (sign, t) in enumerate(terms[i:i + TERMS_PER_LINE]):
            s = term_src(t)
            if i + k == 0:
                parts.append(s if sign > 0 else f"-{s}")
            else:
                parts.append(f"{'+' if sign > 0 else '-'} {s}")
        chunks.append(" ".join(parts))
    return chunks


# -- dense evaluation ----------------------------------------------------------


def evaluate(prog: GenProgram, field_: np.ndarray) -> np.ndarray:
    """The kernel applied once to every point of a periodic field.

    Valid programs store the centre once, in their last statement, so no
    read ever sees a pending centre value."""
    env = dict(prog.scalars)

    def ev(t):
        tag = t[0]
        if tag == "u":
            return np.roll(field_, shift=(-t[1][0], -t[1][1]), axis=(0, 1))
        if tag == "c":
            return float(t[1])
        if tag == "s":
            return env[t[1]]
        if tag == "mul":
            return ev(t[1]) * ev(t[2])
        if tag == "div":
            return ev(t[1]) / ev(t[2])
        if tag == "sub":
            return ev(t[1]) - ev(t[2])
        if tag == "min":
            return np.minimum(ev(t[1]), ev(t[2]))
        if tag == "max":
            return np.maximum(ev(t[1]), ev(t[2]))
        if tag == "abs":
            return np.abs(ev(t[1]))
        if tag == "sqrt":
            return np.sqrt(ev(t[1]))
        raise ValueError(tag)

    for target, terms in prog.statements:
        total = 0.0
        for sign, t in terms:
            total = total + ev(t) if sign > 0 else total - ev(t)
        env[target] = total
    return env["U"]


# -- generation ----------------------------------------------------------------


def _reads(t):
    if t[0] == "u":
        yield t[1]
    for sub in t[1:]:
        if isinstance(sub, tuple) and sub and isinstance(sub[0], str):
            yield from _reads(sub)


def _footprint(statements) -> tuple[tuple[int, int], ...]:
    dims = [[0, 0], [0, 0]]
    for _, terms in statements:
        for _, t in terms:
            for off in _reads(t):
                for d in range(2):
                    dims[d][0] = max(dims[d][0], -off[d])
                    dims[d][1] = max(dims[d][1], off[d])
    return tuple(tuple(d) for d in dims)


def _term(rng: random.Random, offs: list, scalars: list, locals_: list):
    u = ("u", rng.choice(offs))
    kind = rng.random()
    if kind < 0.45:
        return ("mul", ("c", rng.choice(COEFFICIENTS)), u)
    if kind < 0.6 and scalars:
        return ("mul", ("s", rng.choice(scalars)), u)
    if kind < 0.65 and locals_:
        return ("mul", ("c", rng.choice(COEFFICIENTS)),
                ("s", rng.choice(locals_)))
    if kind < 0.7:
        return ("div", u, ("c", "4"))
    if kind < 0.75:
        return ("abs", ("sub", u, ("u", rng.choice(offs))))
    if kind < 0.8:
        return (rng.choice(("min", "max")), u, ("u", rng.choice(offs)))
    if kind < 0.83:
        return ("sqrt", ("abs", u))
    return u


def generate(seed: int, count: int = N_PROGRAMS) -> list[GenProgram]:
    """``count`` programs.  Sizes, radii, parameter counts and planted
    violations have the same mix on every seed, in a seeded order, so that
    seeds differ in the details of the kernels and not in the workload's
    total cost."""
    rng = random.Random(seed)
    planted = round(count * VIOLATION_RATE)
    violations = ([VIOLATIONS[k % len(VIOLATIONS)] for k in range(planted)]
                  + [None] * (count - planted))
    terms = [3 + k % 38 for k in range(count)]             # 3..40
    radii = [1 + k % 3 for k in range(count)]              # 1..3
    n_scalars = [k % 3 for k in range(count)]              # 0..2
    n_locals = [(k // 3) % 3 for k in range(count)]        # 0..2
    for mix in (violations, terms, radii, n_scalars, n_locals):
        rng.shuffle(mix)
    return [_program(rng, idx, radii[idx], terms[idx], n_scalars[idx],
                     n_locals[idx], violations[idx])
            for idx in range(count)]


def _program(rng: random.Random, idx: int, radius: int, n_terms: int,
             n_scalars: int, n_locals: int,
             violation: str | None) -> GenProgram:
    reach = [[rng.randint(0, radius), rng.randint(0, radius)]
             for _ in range(2)]
    reach[0][rng.randrange(2)] = radius
    offs = [(a, b) for a in range(-reach[0][0], reach[0][1] + 1)
            for b in range(-reach[1][0], reach[1][1] + 1)]
    extremes = [(-reach[0][0], 0), (reach[0][1], 0),
                (0, -reach[1][0]), (0, reach[1][1])]
    extra = rng.choice((0, 0, 1))
    halo = [[reach[d][0] + extra, reach[d][1] + extra] for d in range(2)]

    scalars = [f"c{i + 1}" for i in range(n_scalars)]
    locals_ = [f"t{i + 1}" for i in range(n_locals)]
    statements = []
    for t in locals_:
        statements.append((t, [(rng.choice((1, -1)),
                                _term(rng, offs, scalars, []))
                               for _ in range(rng.randint(2, 5))]))
    main = [(1, ("u", o)) for o in extremes if o != (0, 0)]
    while len(main) < n_terms:
        main.append((rng.choice((1, -1)),
                     _term(rng, offs, scalars, locals_)))
    rng.shuffle(main)
    statements.append(("U", main))
    values = {s: rng.choice(SCALAR_VALUES) for s in scalars}
    footprint = _footprint(statements)

    host_halo = [list(h) for h in halo]
    store_lhs = "U(0,0)"
    tail = []
    if violation == "E101":
        store_lhs = "U(1,0)"
    elif violation == "E102":
        sides = [(d, s) for d in range(2) for s in range(2)
                 if footprint[d][s] > 0]
        d, s = rng.choice(sides)
        host_halo[d][s] = footprint[d][s] - 1
    elif violation == "E103":
        o = rng.choice([o for o in offs if o != (0, 0)])
        tail = [(1, ("u", (0, 0))), (1, ("mul", ("c", "0.5"), ("u", o)))]
    elif violation == "E104":
        bad = rng.choice((("v",), ("call", "exp", ("u", (0, 0)))))
        main.insert(rng.randint(1, len(main)), (1, bad))

    name = f"k{idx}"
    params = ["U"] + scalars
    lines = [f"! generated kernel {idx}: radius {radius}, "
             f"{len(main)} terms",
             f"pure concurrent subroutine {name}({', '.join(params)})",
             f"  real, dimension(:,:), HALO({halo[0][0]}:*:{halo[0][1]}, "
             f"{halo[1][0]}:*:{halo[1][1]}) :: U"]
    for s in scalars + locals_:
        lines.append(f"  real :: {s}")
    for target, terms in statements:
        lhs = store_lhs if target == "U" else target
        first_line = len(lines) + 1
        chunks = rhs_lines(terms)
        for k, chunk in enumerate(chunks):
            head = f"  {lhs} = " if k == 0 else "      & "
            cont = " &" if k < len(chunks) - 1 else ""
            lines.append(head + chunk + cont)
        if violation == "E101" and target == "U":
            violation_line = first_line
        if violation == "E104" and target == "U":
            for k, (_, t) in enumerate(terms):
                if t[0] in ("v", "call"):
                    violation_line = first_line + k // TERMS_PER_LINE
    if tail:
        violation_line = len(lines) + 1
        lines.append(f"  U(0,0) = {' + '.join(term_src(t) for _, t in tail)}")
        statements.append(("U", tail))
    lines.append(f"end subroutine {name}")

    lo = [f"{1 - host_halo[d][0]}" for d in range(2)]
    hi = [("M", "N")[d] + (f"+{host_halo[d][1]}" if host_halo[d][1] else "")
          for d in range(2)]
    args = ", ".join(["U(i,j)[device]"]
                     + [repr(values[s]) for s in scalars])
    lines += [
        "",
        "program main",
        "  real, allocatable, dimension(:,:), codimension[:,:], &",
        f"        HALO({host_halo[0][0]}:*:{host_halo[0][1]}, "
        f"{host_halo[1][0]}:*:{host_halo[1][1]}) :: U",
        "  integer :: device",
        "  integer :: it",
        "",
        "  device = GET_SUBIMAGE(1)",
        f"  allocate(U({lo[0]}:{hi[0]}, {lo[1]}:{hi[1]})[MP,*])",
        "  if (device /= this_image()) then",
        "    allocate(U[device], HALO_SRC=U) [[device]]",
        "  end if",
        "",
        "  do it = 1, nsteps",
        "    call HALO_TRANSFER(U, BC=CYCLIC)",
        "    do concurrent (i=1:M, j=1:N) [[device]]",
    ]
    call_line = len(lines) + 1
    lines += [
        f"      call {name}( {args} )",
        "    end do",
        "  end do",
        "",
        "  if (device /= this_image()) then",
        "    U = U[device]",
        "  end if",
        "end program main",
    ]
    if violation == "E102":
        violation_line = call_line
    return GenProgram(
        name=f"gen{idx:03d}.lope", text="\n".join(lines) + "\n",
        kernel=name, scalars=values, statements=statements,
        footprint=footprint,
        violation=(violation, violation_line) if violation else None)
