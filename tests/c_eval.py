"""Minimal interpreter for emitted kernel source, used as a test oracle.

This is deliberately independent of the package internals: it tokenizes the
generated C text with its own scanner, parses it with its own precedence
parser, and executes one work-item at a time against numpy buffers.  If the
emitter and the simulator disagree about what a kernel means, running both
over the same snapshot exposes it.

Arithmetic is performed in float64 (the `float`/`double` spelling in the
text is notional here); integer expressions use C truncating division.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

_TOKEN_RE = re.compile(r"""
    \s*(?:
      (?P<num>(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?f?|\d+)
    | (?P<name>[A-Za-z_]\w*)
    | (?P<incdec>--|\+\+)
    | (?P<punct>[-+*/()\[\]{},;=])
    )""", re.VERBOSE)


class CSyntaxError(Exception):
    pass


def tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise CSyntaxError(f"cannot scan {text[pos:pos + 20]!r}")
        pos = m.end()
        if m.lastgroup is None:
            break
        if m.lastgroup == "incdec":
            # C scans "--" and "++" as one token, an increment or decrement,
            # never as two signs; kernels modify no operand
            raise CSyntaxError(f"{m.group('incdec')!r} modifies its operand")
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
    tokens.append(("eof", ""))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text):
        kind, got = self.next()
        if got != text:
            raise CSyntaxError(f"expected {text!r}, got {got!r}")

    def accept(self, text):
        if self.peek()[1] == text:
            self.next()
            return True
        return False

    # expressions --------------------------------------------------------

    def expr(self):
        return self.additive()

    def additive(self):
        node = self.multiplicative()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            node = ("bin", op, node, self.multiplicative())
        return node

    def multiplicative(self):
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            node = ("bin", op, node, self.unary())
        return node

    def unary(self):
        if self.accept("-"):
            return ("neg", self.unary())
        if self.accept("+"):
            return self.unary()
        return self.postfix()

    def postfix(self):
        node = self.primary()
        while True:
            if self.accept("["):
                idx = self.expr()
                self.expect("]")
                node = ("index", node, idx)
            elif self.accept("("):
                args = []
                if not self.accept(")"):
                    args.append(self.expr())
                    while self.accept(","):
                        args.append(self.expr())
                    self.expect(")")
                node = ("call", node, args)
            else:
                return node

    def primary(self):
        kind, text = self.next()
        if kind == "num":
            if text.endswith("f"):
                return ("num", np.float64(text[:-1]))
            if "." in text or "e" in text or "E" in text:
                return ("num", np.float64(text))
            return ("num", int(text))
        if kind == "name":
            return ("var", text)
        if text == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise CSyntaxError(f"unexpected {text!r}")


_QUALIFIERS = {"__global", "const", "__kernel"}
_TYPES = {"void", "int", "float", "double"}


def parse_kernel(source: str) -> dict:
    """Parse one __kernel function into {name, params, body}."""
    p = _Parser(tokenize(source))
    # signature: qualifiers void name ( params ) { body }
    while p.peek()[1] in _QUALIFIERS or p.peek()[1] in _TYPES:
        tok = p.next()[1]
        if tok == "void":
            break
    name = p.next()[1]
    p.expect("(")
    params = []
    if not p.accept(")"):
        while True:
            is_pointer = False
            while p.peek()[1] in _QUALIFIERS or p.peek()[1] in _TYPES:
                p.next()
            if p.accept("*"):
                is_pointer = True
            params.append((p.next()[1], is_pointer))
            if not p.accept(","):
                break
        p.expect(")")
    p.expect("{")
    body = []
    while not p.accept("}"):
        while p.peek()[1] in ("const",):
            p.next()
        if p.peek()[1] in ("int", "float", "double"):
            p.next()
            var = p.next()[1]
            init = None
            if p.accept("="):
                init = p.expr()
            p.expect(";")
            body.append(("decl", var, init))
        else:
            target = p.postfix()
            p.expect("=")
            value = p.expr()
            p.expect(";")
            body.append(("assign", target, value))
    return {"name": name, "params": params, "body": body}


def _truncdiv(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


class _Exec:
    def __init__(self, buffers, env, gids):
        self.buffers = buffers
        self.env = env
        self.gids = gids

    def eval(self, node):
        tag = node[0]
        if tag == "num":
            return node[1]
        if tag == "var":
            return self.env[node[1]]
        if tag == "neg":
            return -self.eval(node[1])
        if tag == "bin":
            _, op, l, r = node
            lv, rv = self.eval(l), self.eval(r)
            if op == "+":
                return lv + rv
            if op == "-":
                return lv - rv
            if op == "*":
                return lv * rv
            if isinstance(lv, int) and isinstance(rv, int):
                return _truncdiv(lv, rv)
            return lv / rv
        if tag == "index":
            base = node[1]
            assert base[0] == "var"
            return self.buffers[base[1]][self.eval(node[2])]
        if tag == "call":
            fname = node[1][1]
            args = [self.eval(a) for a in node[2]]
            if fname == "get_global_id":
                return self.gids[args[0]]
            if fname == "fabs":
                return np.abs(args[0])
            if fname == "sqrt":
                return np.sqrt(args[0])
            if fname in ("fmin", "fmax"):
                # glibc's: the other operand of a NaN, else the first
                # unless the second is less (fmin) or greater (fmax)
                a, b = args
                wins = b < a if fname == "fmin" else b > a
                return np.where(np.isnan(a) | wins, b, a)
            raise CSyntaxError(f"unknown function {fname}")
        raise CSyntaxError(f"bad node {tag}")

    def run(self, body):
        for stmt in body:
            if stmt[0] == "decl":
                _, var, init = stmt
                self.env[var] = self.eval(init) if init is not None else None
            else:
                _, target, value = stmt
                v = self.eval(value)
                if target[0] == "var":
                    self.env[target[1]] = v
                else:
                    base = target[1]
                    self.buffers[base[1]][self.eval(target[2])] = v


def run_work_items(source: str, buffers: dict, scalars: dict,
                   extents: tuple[int, ...]) -> None:
    """Execute the kernel once per work item over `extents` (0-based ids).

    `buffers` maps pointer-parameter names to flat float64 arrays, mutated
    in place; `scalars` supplies the value parameters (M, halo widths, any
    kernel scalars).
    """
    fn = parse_kernel(source)
    pointer_names = {name for name, is_ptr in fn["params"] if is_ptr}
    missing = pointer_names - set(buffers)
    if missing:
        raise CSyntaxError(f"no buffer bound for {sorted(missing)}")
    for gid in itertools.product(*[range(e) for e in extents]):
        env = dict(scalars)
        _Exec(buffers, env, gid).run(fn["body"])
