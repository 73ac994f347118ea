"""Compiled slot programs for the jets of non-polynomial surface expressions.
A surface whose expressions are all polynomial never imports this module."""

from __future__ import annotations

import math
import re

import numpy as np

from . import jets
from .jets import Jet2, JetDomainError
from .surface import Const, Num, Pow, Unary, Var, eval_expression_jet

__all__ = ["Program"]


class _Uncompiled(Exception):
    """A part of an expression that the program leaves to the ``Jet2`` walk."""


def _zero(x):
    return x is None or x == 0.0


def _text(x):
    return x if isinstance(x, str) else f"({x!r})"


class _Compiler:
    """Python statements for the jets of AST nodes at one order.  A jet is a
    list of slots in ``Jet2`` order: a float known at compile time (signed
    zeros included), None (a zero of data-dependent sign) or a register name.
    """

    def __init__(self, order):
        self.order, self.n = order, jets._term_count(order)
        self.lines, self.guards, self.memo = [], [], {}

    def emit(self, text, count=None):
        names = [f"r{len(self.lines)}_{i}" for i in range(count or 1)]
        self.lines.append(f"{', '.join(names)}{',' if count else ''} = {text}")
        return names if count else names[0]

    def add(self, x, y):
        if isinstance(x, float) and isinstance(y, float):
            return x + y
        if _zero(x) and _zero(y):  # one is None; -0.0 only if both terms are
            z = x if y is None else y
            return 0.0 if z is not None and math.copysign(1.0, z) > 0 else None
        return y if _zero(x) else x if _zero(y) else self.emit(f"{_text(x)} + {_text(y)}")

    def term(self, x, y, w):
        if isinstance(x, float) and isinstance(y, float):
            return x * y * w
        if isinstance(x, str):
            x, y = y, x  # x is now a float or None unless both are registers
        if _zero(x) or y is None:
            if any(isinstance(z, float) and not math.isfinite(z) for z in (x, y)):
                raise _Uncompiled
            return None
        t = (self.emit(f"{x} * {y}") if isinstance(x, str) else y if x == 1.0
             else self.emit(f"-{y}") if x == -1.0 else self.emit(f"{y} * {_text(x)}"))
        return t if w == 1.0 else self.emit(f"{t} * {w!r}")

    def neg(self, x):
        return self.term(-1.0, x, 1.0)

    def mul(self, a, b, composing=False):
        # a factor of zero value would hide an overflow of the other
        if not composing and (_zero(a[0]) or _zero(b[0])):
            raise _Uncompiled
        out = []
        for pairs in jets._MUL_PAIRS[self.order]:
            t = [self.term(a[i], b[j], w) for i, j, w in pairs]
            out.append(self.add(t[0], jets._pairwise(t[1:], self.add)) if t[1:] else t[0])
        return out

    def div(self, a, b):
        # jet_div by a constant c takes each slot x to (x - s) * (1 / c),
        # where s sums zero terms from +0.0 (np.sum's start), so x - s is x
        if not isinstance(b[0], float) or b[1:] != [0.0] * (self.n - 1) \
                or abs(b[0]) <= jets.DEFAULT_EPS:
            raise _Uncompiled
        return [self.term(x, 1.0 / b[0], 1.0) for x in a]

    def power(self, a, k):
        if k < 0:  # the walk divides by a jet
            raise _Uncompiled
        out = [1.0] + [0.0] * (self.n - 1)
        while k:  # Jet2.__pow__'s binary powering
            out = self.mul(out, a) if k & 1 else out
            k >>= 1
            a = self.mul(a, a) if k else a
        return out

    def unary(self, fn, a, exponent=None, positive=False):
        x = a[0]
        if x is None or positive and isinstance(x, float) and x <= jets.DEFAULT_EPS:
            raise _Uncompiled
        if isinstance(x, float):
            series = [float(s) for s in jets._taylor(fn, np.asarray(x), self.order, exponent)]
        else:
            if positive:
                self.lines.append(f"if np.any({x} <= {jets.DEFAULT_EPS!r}): raise JetDomainError")
            series = self.emit(f"_taylor({fn!r}, {x}, {self.order}, {exponent!r})",
                               self.order + 1)
            # the walk's jet is NaN where one of these is not finite
            self.guards += [x] + (series[1:] if fn == "pow" else [])
        # _compose: Horner's rule in a - a0, whose value slot is +0.0
        w = [x - x if isinstance(x, float) else 0.0] + a[1:]
        out = [series[-1]] + [0.0] * (self.n - 1)
        for s in series[-2::-1]:
            out = self.mul(out, w, composing=True)
            out[0] = self.add(out[0], s)
        return out

    def node(self, e):
        if e not in self.memo:
            self.memo[e] = self._node(e)
        return self.memo[e]

    def _node(self, e):
        if isinstance(e, Var):
            return [e.name] + [float(k == (1 if e.name == "u" else 2)) for k in range(1, self.n)]
        if isinstance(e, (Num, Const)):
            return [float(e.value) if isinstance(e, Num) else math.pi] + [0.0] * (self.n - 1)
        if isinstance(e, Pow):
            a = self.node(e.base)
            return (self.power(a, e.num) if e.den == 1
                    else self.unary("pow", a, e.num / e.den, positive=True))
        if isinstance(e, Unary):
            a = self.node(e.arg)
            if e.fn in ("neg", "tan"):
                return ([self.neg(x) for x in a] if e.fn == "neg"
                        else self.div(self.unary("sin", a), self.unary("cos", a)))
            sqrt = e.fn == "sqrt"
            return self.unary("pow" if sqrt else e.fn, a, 0.5 if sqrt else None,
                              positive=sqrt or e.fn == "log")
        a, b = self.node(e.left), self.node(e.right)
        if e.op in "*/":
            return self.mul(a, b) if e.op == "*" else self.div(a, b)
        return [self.add(x, y if e.op == "+" else self.neg(y)) for x, y in zip(a, b)]


class Program:
    """Jets of expressions of (u, v) at one order from one straight-line
    Python function, compiled once: common subexpressions shared, constants
    kept as floats, each register freed after its last use.  It does what the
    ``Jet2`` walk (``eval_expression_jet``) does, term for term, but drops the
    terms with a zero factor; a Leibniz sum keeps the tree of
    ``np.add.reduceat`` with its zero leaves removed.  So a live slot holds
    the walk's bits wherever they are finite and nonzero.

    The walk stays the reference.  It runs all the expressions when one
    divides by a non-constant, multiplies by a factor of value zero or has a
    zero slot of data-dependent sign; batch lanes where a live slot is 0.0
    (of either sign), or it or a function's argument is not finite; and the
    whole batch where a domain check fails, so that the walk raises its
    error.
    """

    def __init__(self, exprs, order):
        self.exprs, self.order, self.n = exprs, order, jets._term_count(order)
        c = _Compiler(order)
        try:
            slots = [x for e in exprs.values() for x in c.node(e)]
        except _Uncompiled:
            slots = [None]
        self.compiled = None not in slots
        if not self.compiled:
            return
        self.live = [i for i, x in enumerate(slots) if isinstance(x, str)]
        self.fixed = [i for i, x in enumerate(slots) if not isinstance(x, str)]
        self.fixed_values = np.array([slots[i] for i in self.fixed])
        lines = c.lines + [f"return [{', '.join(slots[i] for i in self.live)}], "
                           f"[{', '.join(dict.fromkeys(c.guards))}]"]
        found = [re.findall(r"\br\d+_\d+\b", line) for line in lines]
        last = {name: i for i, names in enumerate(found) for name in names}
        src = ["def program(u, v):"]
        for i, line in enumerate(lines):
            dead = sorted({name for name in found[i] if last[name] == i < len(c.lines)})
            src += ["    " + line] + ([f"    del {', '.join(dead)}"] if dead else [])
        self.source = "\n".join(src)
        namespace = {"np": np, "JetDomainError": JetDomainError, "_taylor": jets._taylor,
                     "inf": math.inf, "nan": math.nan}
        exec(self.source, namespace)
        self.program = namespace["program"]

    def walk(self, k, u, v):
        return eval_expression_jet(self.exprs[k], Jet2.variable("u", u, self.order),
                                   Jet2.variable("v", v, self.order))

    def __call__(self, u, v):
        """Jets of the expressions at (u, v), keyed as ``exprs``."""
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        try:
            if not self.compiled or u.shape != v.shape:
                raise _Uncompiled
            # a point runs on numpy scalars, which skip the array machinery
            live, guards = self.program(*((u, v) if u.ndim else (u[()], v[()])))
        except (_Uncompiled, JetDomainError):
            return {k: self.walk(k, u, v) for k in self.exprs}
        c = np.empty((self.n * len(self.exprs),) + u.shape)
        c[self.fixed] = self.fixed_values.reshape((-1,) + (1,) * u.ndim)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            redo, ratio = sum(guards) * 0.0 + np.zeros(u.shape), np.empty(u.shape)
            for i, x in zip(self.live, live):
                c[i] = x
                redo += np.divide(x, x, out=ratio)  # 1.0 unless x is 0.0 or not finite
        # a lane gets the same bits from the walk alone as inside any batch,
        # as a compiled expression divides by constants only
        lanes = np.flatnonzero(np.isnan(redo))
        out = {}
        for j, k in enumerate(self.exprs):
            out[k] = Jet2(self.order, c[j * self.n:(j + 1) * self.n])
            if len(lanes):
                jet = self.walk(k, u.reshape(-1)[lanes], v.reshape(-1)[lanes])
                out[k].coeffs.reshape(self.n, -1)[:, lanes] = jet.coeffs
        return out
