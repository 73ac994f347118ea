"""Surface definitions: every surface is one chart (u, v) -> (x, y, z) of
three parsed expressions or polynomials; a Monge graph of a height h is the
chart (u, v, h).  Also the catalog of polynomial local models (graphs) plus
the torus of revolution.

Expression grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' exponent)?
    atom   := NUMBER | 'pi' | 'u' | 'v' | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := sin | cos | tan | exp | log | sqrt

Exponents must be literal: an optionally signed integer, or a parenthesized
rational ``(p/q)``.  Binary operators are left-associative; ``^`` binds
tighter than unary minus.  Offsets in error messages are 1-based byte
positions.
"""

from __future__ import annotations

import math
import re

import numpy as np

from . import affine, jets
from .jets import Jet2

__all__ = [
    "ParseError",
    "EvalError",
    "Num", "Const", "Var", "Unary", "Bin", "Pow",
    "parse_expression",
    "eval_expression_jet",
    "as_polynomial", "PolySet", "poly_values", "poly_jets",
    "Rect", "DEFAULT_DOMAIN", "Band", "rect", "SurfaceDef",
    "catalog_surface", "monge_surface", "parametric_surface",
    "surface_from_config", "load_surface_config",
]


class ParseError(ValueError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalError(ValueError):
    pass


# -- AST ---------------------------------------------------------------------


class _Value:
    """Base of the immutable value classes (the AST nodes, ``Rect`` and
    ``Band``): their fields are ``__slots__``, set once by ``__init__`` in
    that order; objects are equal and hash by type and fields, and their
    repr reads ``Name(field=value, ...)``."""
    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((self.__class__,) + self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"


class Num(_Value):
    __slots__ = ("value",)


class Const(_Value):
    __slots__ = ("name",)    # only "pi"
    value = math.pi


class Var(_Value):
    __slots__ = ("name",)    # "u" or "v"


class Unary(_Value):
    __slots__ = ("fn", "arg")    # fn: neg or a name of jets.FUNCTIONS


class Bin(_Value):
    __slots__ = ("op", "left", "right")    # op: + - * /


class Pow(_Value):
    __slots__ = ("base", "num", "den")    # den >= 1: the parser takes literal exponents only


# numbers and exponents read ASCII digits only: str.isdigit would take
# superscripts and other scripts' digits, which int rejects and float reads
_NUMBER = re.compile(r"[0-9.]+(?:[eE][+-]?[0-9]+)?")
_EXPONENT = re.compile(r"[+-]?(0*)([0-9]*)")
_MAX_EXPONENT = 64    # bound on a literal exponent's numerator and denominator


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0  # 0-based cursor; errors report pos + 1

    def error(self, message):
        raise ParseError(message, self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self):
        node = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected {self.text[self.pos]!r}")
        return node

    def expr(self):
        node = self.term()
        while True:
            ch = self.peek()
            if ch in ("+", "-"):
                self.pos += 1
                node = Bin(ch, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            ch = self.peek()
            if ch in ("*", "/"):
                self.pos += 1
                node = Bin(ch, node, self.unary())
            else:
                return node

    def unary(self):
        if self.peek() == "-":
            self.pos += 1
            return Unary("neg", self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            num, den = self.exponent()
            return Pow(base, num, den)
        return base

    def exponent(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            num = self.int_literal()
            self.expect("/")
            den = self.int_literal()
            self.expect(")")
            if den <= 0:
                self.error("rational exponent needs a positive denominator")
            return num, den
        return self.int_literal(), 1

    def int_literal(self):
        self.skip_ws()
        m = _EXPONENT.match(self.text, self.pos)
        zeros, digits = m.groups()
        if not zeros + digits:
            self.pos = m.start(1)
            self.error("exponent must be a literal integer or (p/q) rational")
        if len(digits) > 2 or int(digits or 0) > _MAX_EXPONENT:
            self.error(f"exponent above {_MAX_EXPONENT}")
        self.pos = m.end()
        return int(m.group())

    def atom(self):
        ch = self.peek()
        if ch == "":
            self.error("unexpected end of expression")
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self.expect(")")
            return node
        if _NUMBER.match(self.text, self.pos):
            return self.number()
        if ch.isalpha() or ch == "_":
            return self.identifier()
        self.error(f"unexpected {ch!r}")

    def number(self):
        start, self.pos = self.pos, _NUMBER.match(self.text, self.pos).end()
        try:
            value = float(self.text[start:self.pos])
        except ValueError:
            self.pos = start
            self.error("malformed number")
        if not math.isfinite(value):    # an overflowing literal reads as inf
            self.pos = start
            self.error("number out of range")
        return Num(value)

    def identifier(self):
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        name = self.text[start:self.pos]
        if name in ("u", "v"):
            return Var(name)
        if name == "pi":
            return Const("pi")
        if name in jets.FUNCTIONS:
            if self.peek() != "(":
                self.error(f"function {name} needs a parenthesized argument")
            self.pos += 1
            arg = self.expr()
            self.expect(")")
            return Unary(name, arg)
        self.pos = start
        self.error(f"unknown identifier {name!r}")


def parse_expression(text):
    return _Parser(text).parse()


def eval_expression_jet(node, uj, vj):
    """Evaluate an AST to a jet, given the jets of u and v (of one point or a
    batch)."""
    if isinstance(node, (Num, Const)):
        shape = np.shape(uj.value)
        return Jet2.constant(np.broadcast_to(node.value, shape).copy() if shape else node.value,
                             uj.order)
    if isinstance(node, Var):
        return uj if node.name == "u" else vj
    if isinstance(node, Unary):
        a = eval_expression_jet(node.arg, uj, vj)
        return -a if node.fn == "neg" else jets.jet_apply_unary(node.fn, a)
    if isinstance(node, Bin):
        a = eval_expression_jet(node.left, uj, vj)
        b = eval_expression_jet(node.right, uj, vj)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return jets.jet_div(a, b)
    if isinstance(node, Pow):
        a = eval_expression_jet(node.base, uj, vj)
        if node.den == 1:
            return a ** node.num
        return jets.jet_apply_unary("pow", a, node.num / node.den)
    raise TypeError(f"not an AST node: {node!r}")


# -- polynomials -------------------------------------------------------------


def as_polynomial(node):
    """Monomial dict {(i, j): coeff} if the AST is polynomial, else None."""
    try:
        return _to_poly(node).terms
    except _NotPolynomial:
        return None


class _NotPolynomial(Exception):
    pass


def _to_poly(node):
    """Evaluate an AST in the ``Poly`` ring; raise _NotPolynomial where it
    leaves the ring."""
    if isinstance(node, (Num, Const)):
        return Poly.const(node.value)
    if isinstance(node, Var):
        return Poly({(1, 0) if node.name == "u" else (0, 1): 1.0})
    if isinstance(node, Unary) and node.fn == "neg":
        return -_to_poly(node.arg)
    if isinstance(node, Bin):
        a, b = _to_poly(node.left), _to_poly(node.right)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if set(b.terms) != {(0, 0)}:
            raise _NotPolynomial
        d = b.terms[(0, 0)]
        return Poly({k: c / d for k, c in a.terms.items()})
    if isinstance(node, Pow) and node.den == 1 and node.num >= 0:
        return math.prod([_to_poly(node.base)] * node.num, start=Poly.const(1.0))
    raise _NotPolynomial


class Poly:
    """Bivariate polynomial as a monomial dict, with ring operators.

    Lets ``affine.extended_bde_coeffs`` run unchanged over polynomials,
    producing exact coefficient tables once instead of jet chains per
    evaluation point.  Evaluation goes through derivative tables
    compiled once per jet order (``table``).
    """

    __slots__ = ("terms", "degree", "_tables", "_set")

    def __init__(self, terms=None):
        self.terms = {k: float(c) for k, c in (terms or {}).items() if c != 0}
        self.degree = (max((i for i, _ in self.terms), default=0),
                       max((j for _, j in self.terms), default=0))
        self._tables = {}
        self._set = None

    @staticmethod
    def const(c):
        return Poly({(0, 0): c})

    def du(self):
        return Poly({(i - 1, j): c * i for (i, j), c in self.terms.items() if i})

    def dv(self):
        return Poly({(i, j - 1): c * j for (i, j), c in self.terms.items() if j})

    def table(self, order):
        """Derivative table of the order-``order`` jet, compiled on first use.

        One entry list per jet slot (a, b), in the slot order of ``Jet2``:
        the monomial c u^i v^j with i >= a and j >= b contributes
        (c i!/(i-a)! j!/(j-b)!, i-a, j-b) to the raw partial d^(a+b)/du^a dv^b.
        """
        tab = self._tables.get(order)
        if tab is None:
            tab = self._tables[order] = [
                [(c * math.perm(i, a) * math.perm(j, b), i - a, j - b)
                 for (i, j), c in self.terms.items() if i >= a and j >= b]
                for (a, b) in jets._terms(order)]
        return tab

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0.0) + c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0.0) - c
        return Poly(out)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Poly({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly({k: c * other for k, c in self.terms.items()})
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0.0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __call__(self, u, v):
        if self._set is None:
            self._set = PolySet((self,))
        return poly_values(self._set, u, v)[0]


class PolySet(tuple):
    """Polynomials evaluated together, holding per jet order the plan that
    ``_slot_arrays`` sums from, so that a field built once does not rebuild
    it on every call.

    The plan of an order compiles the flat table list of all polynomials
    into padded (m, slots) arrays: the weights, and the power rows that each
    entry's u and v factors read.  Column k lists slot k's entries in table
    order, then entries of weight 0.0 on the row 1.0 up to the longest
    slot's m.  The power rows are 1.0, u, ..., u^du, v, ..., v^dv, with du
    and dv the degree maxima.
    """

    def __new__(cls, polys):
        self = super().__new__(cls, polys)
        self._plans = {}
        return self

    def plan(self, order):
        plan = self._plans.get(order)
        if plan is None:
            tabs = [entries for p in self for entries in p.table(order)]
            du, dv = max([p.degree[0] for p in self]), max([p.degree[1] for p in self])
            m = max([1] + [len(entries) for entries in tabs])
            # at least two slot columns: np.add.reduce sums one slot of one
            # lane as a 1-D array, pairwise
            pad = [entries + [(0.0, 0, 0)] * (m - len(entries))
                   for entries in tabs + [[]] * (2 - len(tabs))]
            w, i, j = np.array(pad, dtype=float).reshape(len(pad), m, 3).T
            if not np.isfinite(w).all():
                raise EvalError("a polynomial coefficient or its derivative overflows")
            plan = self._plans[order] = (
                len(tabs), w[:, :, None].copy(),
                np.array([i, np.where(j > 0, j + du, 0)], dtype=np.intp),
                du, dv, np.arange(3.0, max(du, dv) + 1)[:, None])
        return plan


def _powers(u, v, du, dv, exponents):
    """The power rows 1.0, u, ..., u^du, v, ..., v^dv of 1-D lanes (u, v):
    x, x * x, then x ** k for k >= 3 as numpy rounds it (the C library's
    ``pow`` can differ in the last bit)."""
    p = np.empty((1 + du + dv, len(u)))
    p[0] = 1.0
    for x, d, r in ((u, du, 1), (v, dv, 1 + du)):
        if d:
            p[r] = x
        if d > 1:
            np.multiply(x, x, out=p[r + 1])
        if d > 2:
            np.power(x, exponents[:d - 2], out=p[r + 2:r + d])
    return p


def _slot_arrays(polys, u, v, order):
    """Jet slots of several polynomials at (u, v), stacked in one array of
    shape (polynomials * slots,) + batch shape: the one polynomial evaluator.
    ``polys`` is a ``PolySet`` or any sequence of ``Poly``; (u, v) is a
    point, a batch of lanes, a grid or two shapes that broadcast.

    One recipe for every shape: the lanes are flattened and taken in blocks
    whose gathered terms hold at most one ``affine._LANES`` block of output.
    Each table entry's term (w u^i) v^j comes from two gathers of the power
    rows, and each slot adds its terms in table order to +0.0
    (``np.add.reduce`` over the entry axis, which runs one lane-wise add per
    entry as long as a block holds more than one slot and lane).  A product
    with the row 1.0 is exact, and a padded entry adds +0.0 to a sum that
    started at +0.0, which leaves it unchanged, so a lane gives the same
    bits alone as in any batch.
    """
    if not isinstance(polys, PolySet):
        polys = PolySet(polys)
    n, w, rows, du, dv, exponents = polys.plan(order)
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    shape = u.shape
    if v.shape != shape:
        shape = np.broadcast_shapes(shape, v.shape)
        u, v = np.broadcast_to(u, shape), np.broadcast_to(v, shape)
    u, v = u.reshape(-1), v.reshape(-1)
    out = np.empty((w.shape[1], len(u)))
    for s in affine._lane_blocks(len(u), 2 * len(w)):
        terms, vj = np.take(_powers(u[s], v[s], du, dv, exponents), rows, axis=0)
        terms *= w
        terms *= vj
        np.add.reduce(terms, axis=0, out=out[:, s], initial=0.0)
    return out[:n].reshape((n,) + shape)


def poly_values(polys, u, v):
    """Values of several polynomials at one point or a batch, in one pass; no
    command calls it or ``Poly.__call__``: they stay as the tests' reference."""
    return tuple(_slot_arrays(polys, u, v, 0))


def poly_jets(polys, u, v, order=jets.DEFAULT_ORDER):
    """Exact jets of several polynomials at one point or a batch, in one pass."""
    c = _slot_arrays(polys, u, v, order)
    n = len(c) // len(polys)
    return tuple(Jet2(order, c[k:k + n]) for k in range(0, len(c), n))


# -- domains and surface definitions -----------------------------------------


class Rect(_Value):
    __slots__ = ("u0", "u1", "v0", "v1")

    def contains(self, u, v):
        return (self.u0 <= u) & (u <= self.u1) & (self.v0 <= v) & (v <= self.v1)

    @property
    def diagonal(self):
        return math.hypot(self.u1 - self.u0, self.v1 - self.v0)


# the domain of a graph, a model field or a field given without one; its
# bounds are written into portrait.json as given
DEFAULT_DOMAIN = Rect(-1, 1, -1, 1)


class Band(_Value):
    """Excluded strip |axis_value - center| < halfwidth (axis 'u' or 'v')."""
    __slots__ = ("axis", "center", "halfwidth")

    def excludes(self, u, v):
        x = u if self.axis == "u" else v
        return np.abs(np.asarray(x) - self.center) < self.halfwidth


class SurfaceDef:
    """A surface as one chart (u, v) -> (x, y, z) of three components.

    Each component is an expression; a polynomial one also has its monomial
    dict in ``polys`` (None for the others).  A Monge graph h(u, v) is the
    chart (u, v, h): nothing downstream tells it from any other chart.
    ``excluded`` strips are consulted only by operations that need the
    inverse quarter power of |LN - M^2| (the extended equation has no such
    exclusions).
    """

    def __init__(self, exprs, domain, excluded=(), polys=None):
        if len(exprs if exprs is not None else polys) != 3:
            raise ValueError("a chart needs 3 components")
        self.exprs = tuple(exprs) if exprs is not None else None
        self.domain = domain
        self.excluded = tuple(excluded)
        if polys is None:
            polys = tuple(as_polynomial(e) for e in exprs)
        self.polys = polys
        self._compiled = tuple(None if p is None else PolySet((Poly(p),)) for p in polys)
        # the constant partials (x_u, x_v) of a component linear in (u, v)
        self._linear = tuple(None if p is None or any(i + j > 1 for i, j in p)
                             else (float(p.get((1, 0), 0.0)), float(p.get((0, 1), 0.0))) for p in polys)
        self._programs = {}
        self.period = None    # (Pu, Pv) when the parameters are angles
        self.torus = None    # (R, r) of the catalog torus, whose field has a closed form

    # -- evaluation -----------------------------------------------------

    def check_domain(self, u, v):
        inside = self.domain.contains(np.asarray(u, float), np.asarray(v, float))
        if not np.all(inside):
            raise EvalError(f"point outside surface domain {self.domain}")
        for band in self.excluded:
            if np.any(band.excludes(u, v)):
                raise EvalError(f"point inside excluded band {band}")

    def _component_jets(self, u, v, order, which):
        """Jets of the components ``which``: each polynomial from its tables,
        the others from the program compiled for this order on its first use."""
        walked = {}
        if any(self._compiled[k] is None for k in which):
            if order not in self._programs:
                from .program import Program  # loaded only for non-polynomial charts

                self._programs[order] = Program(
                    {k: e for k, (e, p) in enumerate(zip(self.exprs, self._compiled))
                     if p is None}, order)
            walked = self._programs[order](u, v)
        return {k: walked[k] if self._compiled[k] is None
                else poly_jets(self._compiled[k], u, v, order)[0] for k in which}

    def eval_jets(self, u, v, order=jets.DEFAULT_ORDER):
        """Position jets (3 components) at (u, v); batched when u, v are
        arrays.  The domain is not checked (see ``check_domain``)."""
        return tuple(self._component_jets(u, v, order, (0, 1, 2)).values())

    def tangent_jets(self, u, v, order=jets.DEFAULT_ORDER):
        """Jets of a_u and a_v from order-``order`` positions.  A component
        linear in (u, v), such as u and v on a graph, is not evaluated: its
        partials are constant and come as floats, which ``affine.cross`` and
        ``affine.dot`` apply without a product when they are 0.0 or 1.0."""
        lin = self._linear
        pos = self._component_jets(u, v, order, [k for k in range(3) if lin[k] is None])
        au = tuple(lin[k][0] if lin[k] else pos[k].du() for k in range(3))
        av = tuple(lin[k][1] if lin[k] else pos[k].dv() for k in range(3))
        return au, av


_U, _V = {(1, 0): 1.0}, {(0, 1): 1.0}


def monge_surface(height, domain=None):
    """The graph of a height over ``domain`` (by default ``DEFAULT_DOMAIN``), as the
    chart (u, v, h): ``height`` is an expression (text or AST) or a monomial dict."""
    domain = domain or DEFAULT_DOMAIN
    if isinstance(height, dict):
        return SurfaceDef(None, domain, polys=(_U, _V, height))
    if isinstance(height, str):
        height = parse_expression(height)
    return SurfaceDef((Var("u"), Var("v"), height), domain)


def parametric_surface(exprs, domain, excluded=()):
    parsed = tuple(parse_expression(e) if isinstance(e, str) else e for e in exprs)
    return SurfaceDef(parsed, domain, excluded)


def rect(bounds):
    """The rectangle [u0, u1] x [v0, v1] of four finite bounds, or ValueError."""
    u0, u1, v0, v1 = (float(x) for x in bounds)
    if not all(map(math.isfinite, (u0, u1, v0, v1))):
        raise ValueError(f"rectangle bounds must be finite; got {[u0, u1, v0, v1]}")
    if not (u0 < u1 and v0 < v1):
        raise ValueError("degenerate domain rectangle")
    return Rect(u0, u1, v0, v1)


def _finite(name, x):
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite; got {x}")
    return x


def _monomial_height(base, q, allowed, what):
    h = dict(base)
    for (i, j), val in q.items():
        if i + j not in allowed:
            raise ValueError(f"{what}: q index {(i, j)} outside orders {sorted(allowed)}")
        if val:
            h[(i, j)] = h.get((i, j), 0.0) + val
    return {k: c for k, c in h.items() if c != 0}


def _finite_q(params):
    """The q table of catalog ``params``, from its ``q`` entry and from
    keyword-style ``qij`` entries (e.g. q21=...): non-negative integer indices, finite values."""
    q = dict(params.pop("q", {}))
    for name in list(params):
        if name.startswith("q") and len(name) == 3 and name[1:].isdigit():
            q[(int(name[1]), int(name[2]))] = params.pop(name)
    for ij in q:
        if not all(isinstance(k, int) and k >= 0 for k in ij):
            raise ValueError(f"q indices must be non-negative integers; got {ij}")
    return {ij: _finite(f"q{ij[0]}{ij[1]}", x) for ij, x in q.items()}


def _epsilon(params):
    eps = float(params.pop("epsilon", 1))
    if eps not in (1.0, -1.0):    # 1.9, inf and nan are none of them
        raise ValueError(f"epsilon must be +1 or -1; got {eps!r}")
    return int(eps)


def catalog_surface(cat_id, params=None, domain=None):
    """Build a catalog surface.

    ids: ``pick`` (graph normal form at a non-parabolic point: epsilon +1
    elliptic, -1 hyperbolic, the cubic coefficient sigma and raw partials
    q_ij, 3 <= i + j <= 7), ``cusp_gauss`` (parabolic point with degenerate
    tangency), ``flat_umbilic_chart`` (cubic flat-point chart), ``torus``
    (surface of revolution).  Every parameter must be finite.
    """
    params = dict(params or {})
    if cat_id == "torus":
        if "R" not in params or "r" not in params:
            raise ValueError("torus needs R and r")
        R, r = _finite("R", params.pop("R")), _finite("r", params.pop("r"))
        if not 0 < r < R:
            raise ValueError(f"torus needs 0 < r < R, got r={r}, R={R}")
        exprs = (f"({R} + {r}*cos(u))*cos(v)", f"({R} + {r}*cos(u))*sin(v)", f"{r}*sin(u)")
        # the parabolic circles u = pi/2 and 3 pi/2, each with a 1e-3 guard band
        excl = (Band("u", math.pi / 2, 1e-3), Band("u", 3 * math.pi / 2, 1e-3))
        sd = parametric_surface(exprs, domain or Rect(0.0, 2 * math.pi, 0.0, 2 * math.pi), excl)
        sd.period, sd.torus = (2 * math.pi, 2 * math.pi), (R, r)
    elif cat_id == "pick":
        eps, sigma = _epsilon(params), _finite("sigma", params.pop("sigma", 0.0))
        q = _finite_q(params)
        base = {(2, 0): 0.5, (0, 2): 0.5 * eps, (3, 0): sigma / 6.0, (1, 2): -eps * sigma / 2.0}
        q = {(i, j): val / (math.factorial(i) * math.factorial(j)) for (i, j), val in q.items()}
        sd = monge_surface(_monomial_height(base, q, set(range(3, 8)), "pick"), domain)
    elif cat_id == "cusp_gauss":
        q = _finite_q(params)
        q21, q40 = q.get((2, 1), 0.0), q.get((4, 0), 0.0)
        if not 1e-12 < abs(q21 * q21 - 4 * q40) < math.inf:
            raise ValueError(f"cusp_gauss needs 0 < |q21^2 - 4*q40| < inf; q21={q21}, q40={q40}")
        for (i, j) in q:
            if i + j == 3 and (i, j) not in ((2, 1), (0, 3)):
                raise ValueError(f"cusp_gauss cubic terms are limited to q21, q03; got q{i}{j}")
        sd = monge_surface(_monomial_height({(0, 2): 1.0}, q, {3, 4, 5, 6}, "cusp_gauss"),
                           domain or Rect(-0.5, 0.5, -0.5, 0.5))
    elif cat_id == "flat_umbilic_chart":
        eps, q = _epsilon(params), _finite_q(params)
        sd = monge_surface(_monomial_height({(3, 0): 1.0, (1, 2): 3.0 * eps}, q, {4, 5},
                                            "flat_umbilic_chart"),
                           domain or Rect(-0.5, 0.5, -0.5, 0.5))
    else:
        raise ValueError(f"unknown catalog id {cat_id!r}")
    if params:
        raise ValueError(f"unknown {cat_id} parameters {sorted(params)}")
    return sd


# -- configuration files (JSON) ----------------------------------------------


def _expect(ok, what):
    """ValueError(``what``) unless ``ok``: a config entry of the wrong JSON type."""
    if not ok:
        raise ValueError(what)


def _is_number(x):
    """A JSON number (not a boolean), or a string for ``float`` to read."""
    return isinstance(x, (int, float, str)) and not isinstance(x, bool)


def surface_from_config(cfg):
    """Surface from a config mapping.

    Schema::

        {"kind": "monge",      "expr": "u^3 - 3*u*v^2", "domain": [u0,u1,v0,v1]}
        {"kind": "parametric", "exprs": ["...", "...", "..."], "domain": [...]}
        {"kind": "catalog",    "id": "torus", "params": {"R": 2, "r": 1}}

    ``domain`` is optional where a default exists.  Catalog ``params`` may use
    ``qij`` string keys (e.g. ``"q21": 1.0``) or a nested ``q`` table with
    ``"i,j"`` keys.  An entry of the wrong JSON type is a ValueError.
    """
    _expect(isinstance(cfg, dict), "a surface config must be a JSON object")
    kind, dom = cfg.get("kind"), cfg.get("domain")
    if dom is not None:
        _expect(isinstance(dom, list) and len(dom) == 4 and all(map(_is_number, dom)),
                "domain must be a list of 4 numbers")
        dom = rect(dom)
    if kind == "monge":
        _expect(isinstance(cfg.get("expr"), str), "monge expr must be a string")
        return monge_surface(cfg["expr"], dom)
    if kind == "parametric":
        exprs = cfg.get("exprs")
        _expect(isinstance(exprs, list) and len(exprs) == 3
                and all(isinstance(e, str) for e in exprs), "parametric exprs must be 3 strings")
        _expect(dom is not None, "parametric surfaces need an explicit domain")
        return parametric_surface(tuple(exprs), dom)
    if kind == "catalog":
        params = cfg.get("params", {})
        _expect(isinstance(params, dict), "catalog params must be a JSON object")
        params = dict(params)
        _expect(all(map(_is_number, (v for k, v in params.items() if k != "q"))),
                "catalog parameters other than q must be numbers")
        q = params.get("q", {})
        _expect(isinstance(q, dict) and all(
            re.fullmatch("[0-9]+,[0-9]+", k) and _is_number(val)    # ASCII digits only
            for k, val in q.items()), 'catalog q must map "i,j" keys to numbers')
        if "q" in params:
            params["q"] = {tuple(int(t) for t in k.split(",")): float(val) for k, val in q.items()}
        return catalog_surface(cfg["id"], params, dom)
    raise ValueError(f"config kind must be monge/parametric/catalog, got {kind!r}")


def load_surface_config(path):
    import json    # loaded only for file: surfaces

    with open(path, "r", encoding="utf-8") as fh:
        return surface_from_config(json.load(fh))
