"""Surface definitions: parsed Monge height expressions, parametric triples,
and the catalog of polynomial local models plus the torus of revolution.

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

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .jets import Jet2, JetDomainError

__all__ = [
    "ParseError",
    "EvalError",
    "Num", "Const", "Var", "Unary", "Bin", "Pow",
    "parse_expression", "pretty",
    "eval_expression_jet",
    "as_polynomial", "PolySet", "poly_values", "poly_jets", "poly_eval_jet",
    "Rect", "Band", "SurfaceDef", "PickParams",
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


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str  # only "pi"


@dataclass(frozen=True)
class Var:
    name: str  # "u" or "v"


@dataclass(frozen=True)
class Unary:
    fn: str  # neg, sin, cos, tan, exp, log, sqrt
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str  # + - * /
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    num: int
    den: int  # den >= 1; non-literal exponents are rejected at parse time


_FUNCS = ("sin", "cos", "tan", "exp", "log", "sqrt")


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
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            self.error("exponent must be a literal integer or (p/q) rational")
        return int(self.text[start:self.pos])

    def atom(self):
        ch = self.peek()
        if ch == "":
            self.error("unexpected end of expression")
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self.expect(")")
            return node
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha() or ch == "_":
            return self.identifier()
        self.error(f"unexpected {ch!r}")

    def number(self):
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isdigit() or self.text[self.pos] == "."):
            self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos].isdigit():
                while self.pos < len(self.text) and self.text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark
        try:
            return Num(float(self.text[start:self.pos]))
        except ValueError:
            self.pos = start
            self.error("malformed number")

    def identifier(self):
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        name = self.text[start:self.pos]
        if name in ("u", "v"):
            return Var(name)
        if name == "pi":
            return Const("pi")
        if name in _FUNCS:
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


def pretty(node):
    """Canonical text form; parse(pretty(parse(s))) == parse(s)."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        if node.fn == "neg":
            return f"(-{pretty(node.arg)})"
        return f"{node.fn}({pretty(node.arg)})"
    if isinstance(node, Bin):
        return f"({pretty(node.left)} {node.op} {pretty(node.right)})"
    if isinstance(node, Pow):
        if node.den == 1:
            return f"{pretty(node.base)}^{node.num}" if isinstance(node.base, (Num, Const, Var)) \
                else f"({pretty(node.base)})^{node.num}"
        b = pretty(node.base) if isinstance(node.base, (Num, Const, Var)) else f"({pretty(node.base)})"
        return f"{b}^({node.num}/{node.den})"
    raise TypeError(f"not an AST node: {node!r}")


def eval_expression_jet(node, uj, vj, eps=jets.DEFAULT_EPS):
    """Evaluate an AST to a jet, given jets (or batches) for u and v."""
    if isinstance(node, Num):
        order = uj.order if isinstance(uj, Jet2) else jets.DEFAULT_ORDER
        shape = np.shape(uj.value) if isinstance(uj, Jet2) else ()
        return Jet2.constant(np.broadcast_to(node.value, shape).copy() if shape else node.value, order)
    if isinstance(node, Const):
        order = uj.order if isinstance(uj, Jet2) else jets.DEFAULT_ORDER
        shape = np.shape(uj.value) if isinstance(uj, Jet2) else ()
        return Jet2.constant(np.broadcast_to(math.pi, shape).copy() if shape else math.pi, order)
    if isinstance(node, Var):
        return uj if node.name == "u" else vj
    if isinstance(node, Unary):
        a = eval_expression_jet(node.arg, uj, vj, eps)
        if node.fn == "neg":
            return -a
        return jets.jet_apply_unary(node.fn, a, eps=eps)
    if isinstance(node, Bin):
        a = eval_expression_jet(node.left, uj, vj, eps)
        b = eval_expression_jet(node.right, uj, vj, eps)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return jets.jet_div(a, b, eps=eps)
    if isinstance(node, Pow):
        a = eval_expression_jet(node.base, uj, vj, eps)
        if node.den == 1:
            return a ** node.num
        if np.any(a.value <= eps):
            raise JetDomainError("rational power of a non-positive base")
        return jets.abs_pow(a, node.num / node.den, eps=eps)
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
    if isinstance(node, Num):
        return Poly.const(node.value)
    if isinstance(node, Const):
        return Poly.const(math.pi)
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

    Lets the closed-form invariant expressions run unchanged over
    polynomials, producing exact coefficient tables once instead of jet
    chains per evaluation point.  Evaluation goes through derivative tables
    compiled once per jet order (``table``).
    """

    __slots__ = ("terms", "degree", "_tables")

    def __init__(self, terms=None):
        self.terms = {k: float(c) for k, c in (terms or {}).items() if c != 0}
        self.degree = (max((i for i, _ in self.terms), default=0),
                       max((j for _, j in self.terms), default=0))
        self._tables = {}

    @staticmethod
    def const(c):
        return Poly({(0, 0): c})

    def diff(self, var):
        out = {}
        for (i, j), c in self.terms.items():
            if var == "u" and i > 0:
                out[(i - 1, j)] = c * i
            elif var == "v" and j > 0:
                out[(i, j - 1)] = c * j
        return Poly(out)

    def partial(self, a, b):
        p = self
        for _ in range(a):
            p = p.diff("u")
        for _ in range(b):
            p = p.diff("v")
        return p

    def table(self, order):
        """Derivative table of the order-``order`` jet, compiled on first use.

        One entry list per jet slot (a, b), in the slot order of ``Jet2``:
        the monomial c u^i v^j with i >= a and j >= b contributes
        (c i!/(i-a)! j!/(j-b)!, i-a, j-b) to the raw partial d^(a+b)/du^a dv^b.
        """
        tab = self._tables.get(order)
        if tab is None:
            slots = [(a, g - a) for g in range(order + 1) for a in range(g, -1, -1)]
            tab = self._tables[order] = [
                [(c * math.perm(i, a) * math.perm(j, b), i - a, j - b)
                 for (i, j), c in self.terms.items() if i >= a and j >= b]
                for (a, b) in slots]
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
        return poly_values((self,), u, v)[0]

    def __repr__(self):
        return f"Poly({_poly_pretty(self.terms)})"


def _powers(x, n):
    """[x**0, ..., x**n] for a float or an array x, each rounded as numpy
    rounds ``x ** k``.  numpy's power loop and the C library's ``pow`` can
    differ in the last bit, and a point must give the same bits on its own
    as inside a batch.  x**0 and x**1 stay the scalar 1.0 and x itself, so a
    batch allocates no array for them."""
    pw = [1.0, x, x * x][: n + 1]
    if n > 2 and isinstance(x, float):
        pw += (np.asarray(x) ** np.arange(3.0, n + 1)).tolist()
    elif n > 2:
        pw += [x ** k for k in range(3, n + 1)]
    return pw


# A 1-D batch of fewer lanes than this is summed one lane at a time on Python
# floats.  A batch makes three numpy calls per table term whatever its size;
# the per-lane loop was measured cheaper below about 8 lanes on the cusp_gauss
# extended field and 13 to 23 on the pick and cusp-law fields (orders 0 and
# 1), and portrait times do not move between 8 and 12.
SCALAR_LANES = 12


def _point_slots(tabs, pu, pv):
    """Table sums at one point from its powers, on Python floats."""
    vals = []
    for entries in tabs:
        acc = 0.0
        for w, i, j in entries:
            acc = acc + w * pu[i] * pv[j]
        vals.append(acc)
    return vals


class PolySet(tuple):
    """Polynomials evaluated together, holding per jet order the flat table
    list and the degree maxima that ``_slot_arrays`` sums from, so that a
    field built once does not rebuild them on every call."""

    def __new__(cls, polys):
        self = super().__new__(cls, polys)
        self._plans = {}
        return self

    def plan(self, order):
        plan = self._plans.get(order)
        if plan is None:
            plan = self._plans[order] = (
                [entries for p in self for entries in p.table(order)],
                max([p.degree[0] for p in self]), max([p.degree[1] for p in self]))
        return plan


def _slot_arrays(polys, u, v, order):
    """Jet slots of several polynomials at (u, v), stacked in one array of
    shape (polynomials * slots,) + batch shape: the one polynomial evaluator.
    ``polys`` is a ``PolySet`` or any sequence of ``Poly``.

    Each power of u and of v is computed once per call and shared by every
    table entry of every polynomial.  A scalar point, and each lane of a 1-D
    batch of fewer than ``SCALAR_LANES`` lanes, sums on Python floats; a larger
    batch sums in place on numpy arrays.  Both add the same terms in the same
    order, so a point gives the same bits on every path.
    """
    if not isinstance(polys, PolySet):
        polys = PolySet(polys)
    tabs, du, dv = polys.plan(order)
    if isinstance(u, float) and isinstance(v, float):
        return np.array(_point_slots(tabs, _powers(float(u), du), _powers(float(v), dv)))
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if u.ndim == 1 and u.shape == v.shape and len(u) < SCALAR_LANES:
        c = np.empty((len(tabs), len(u)))
        for k, (a, b) in enumerate(zip(u.tolist(), v.tolist())):
            c[:, k] = _point_slots(tabs, _powers(a, du), _powers(b, dv))
        return c
    pu, pv = _powers(u, du), _powers(v, dv)
    shape = u.shape if u.shape == v.shape else np.broadcast_shapes(u.shape, v.shape)
    c = np.zeros((len(tabs),) + shape)
    term = np.empty(c.shape[1:])
    for k, entries in enumerate(tabs):
        acc = c[k, ...]
        for w, i, j in entries:
            # u^0 and v^0 are 1.0, and a product with 1.0 is exact: skip it
            if not (i or j):
                acc += w
                continue
            np.multiply(w, pu[i] if i else pv[j], out=term)
            if i and j:
                term *= pv[j]
            acc += term
    return c


def poly_values(polys, u, v):
    """Values of several polynomials at one point or a batch, in one pass."""
    return tuple(_slot_arrays(polys, u, v, 0))


def poly_jets(polys, u, v, order=jets.DEFAULT_ORDER):
    """Exact jets of several polynomials at one point or a batch, in one pass."""
    c = _slot_arrays(polys, u, v, order)
    n = len(c) // len(polys)
    return tuple(Jet2(order, c[k:k + n]) for k in range(0, len(c), n))


def poly_eval_jet(poly, u, v, order=jets.DEFAULT_ORDER):
    """Exact jet of one polynomial (a ``Poly`` or a monomial dict) at (u, v)."""
    return poly_jets((poly if isinstance(poly, Poly) else Poly(poly),), u, v, order)[0]


def _poly_pretty(poly):
    terms = []
    for (i, j) in sorted(poly, key=lambda k: (k[0] + k[1], -k[0])):
        coef = poly[(i, j)]
        if coef == 0:
            continue
        parts = [repr(coef)]
        if i:
            parts.append("u" if i == 1 else f"u^{i}")
        if j:
            parts.append("v" if j == 1 else f"v^{j}")
        terms.append("*".join(parts))
    return " + ".join(terms) if terms else "0"


# -- domains and surface definitions -----------------------------------------


@dataclass(frozen=True)
class Rect:
    u0: float
    u1: float
    v0: float
    v1: float

    def contains(self, u, v):
        return (self.u0 <= u) & (u <= self.u1) & (self.v0 <= v) & (v <= self.v1)

    @property
    def diagonal(self):
        return math.hypot(self.u1 - self.u0, self.v1 - self.v0)


@dataclass(frozen=True)
class Band:
    """Excluded strip |axis_value - center| < halfwidth (axis 'u' or 'v')."""
    axis: str
    center: float
    halfwidth: float

    def excludes(self, u, v):
        x = u if self.axis == "u" else v
        return np.abs(np.asarray(x) - self.center) < self.halfwidth


@dataclass(frozen=True)
class PickParams:
    """Coefficients of the graph normal form at a non-parabolic point.

    epsilon +1 for the elliptic model, -1 for the hyperbolic one; sigma is the
    cubic coefficient; q maps (i, j) with 3 <= i+j <= 7 to the raw partial
    q_ij (missing entries are zero).
    """
    epsilon: int
    sigma: float
    q: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        for (i, j) in self.q:
            if not (3 <= i + j <= 7):
                raise ValueError(f"q index {(i, j)} outside supported orders 3..7")

    def height_poly(self):
        h = {(2, 0): 0.5, (0, 2): 0.5 * self.epsilon,
             (3, 0): self.sigma / 6.0, (1, 2): -self.epsilon * self.sigma / 2.0}
        for (i, j), val in self.q.items():
            if val:
                k = (i, j)
                h[k] = h.get(k, 0.0) + val / (math.factorial(i) * math.factorial(j))
        return {k: c for k, c in h.items() if c != 0}


class SurfaceDef:
    """A surface given as a Monge graph or a parametric triple.

    Monge surfaces carry one expression/polynomial h(u, v) and evaluate to
    position jets (u, v, h); parametric surfaces carry three expressions.
    ``excluded`` strips are consulted only by operations that need the inverse
    quarter power of |LN - M^2| (the homogeneous extended equation has no such
    exclusions).
    """

    def __init__(self, kind, exprs, domain, excluded=(), catalog_id=None, params=None,
                 polys=None):
        if kind not in ("monge", "parametric"):
            raise ValueError("kind must be 'monge' or 'parametric'")
        n = 1 if kind == "monge" else 3
        if exprs is not None and len(exprs) != n:
            raise ValueError(f"{kind} surface needs {n} expression(s)")
        self.kind = kind
        self.exprs = tuple(exprs) if exprs is not None else None
        self.domain = domain
        self.excluded = tuple(excluded)
        self.catalog_id = catalog_id
        self.params = dict(params) if params else {}
        if polys is None and exprs is not None:
            polys = tuple(as_polynomial(e) for e in exprs)
        self.polys = polys
        self._compiled = tuple(None if p is None else Poly(p) for p in polys)
        self._programs = {}
        self.periodic = (False, False)
        self.period_u = None
        self.period_v = None

    # -- evaluation -----------------------------------------------------

    def check_domain(self, u, v, honor_excluded=True):
        inside = self.domain.contains(np.asarray(u, float), np.asarray(v, float))
        if not np.all(inside):
            raise EvalError(f"point outside surface domain {self.domain}")
        if honor_excluded:
            for band in self.excluded:
                if np.any(band.excludes(u, v)):
                    raise EvalError(f"point inside excluded band {band}")

    def _component_jets(self, u, v, order):
        """Jets of the expressions: each polynomial from its tables, the others
        from the program compiled for this order on its first use."""
        walked = {}
        if None in self._compiled:
            if order not in self._programs:
                from .program import Program  # loaded only for non-polynomial charts

                self._programs[order] = Program(
                    {k: e for k, (e, p) in enumerate(zip(self.exprs, self._compiled))
                     if p is None}, order)
            walked = self._programs[order](u, v)
        return [walked[k] if p is None else poly_eval_jet(p, u, v, order)
                for k, p in enumerate(self._compiled)]

    def eval_jets(self, u, v, order=jets.DEFAULT_ORDER, check=True, honor_excluded=False):
        """Position jets (3 components) at (u, v); batched when u, v are arrays."""
        if check:
            self.check_domain(u, v, honor_excluded)
        if self.kind == "monge":
            ua, va = np.asarray(u, float), np.asarray(v, float)
            shape = np.broadcast_shapes(ua.shape, va.shape)
            return (Jet2.variable("u", np.broadcast_to(ua, shape), order),
                    Jet2.variable("v", np.broadcast_to(va, shape), order),
                    self._component_jets(u, v, order)[0])
        return tuple(self._component_jets(u, v, order))

    def height_jet(self, u, v, order=jets.DEFAULT_ORDER, check=True, honor_excluded=False):
        if self.kind != "monge":
            raise EvalError("height jets are defined for Monge surfaces only")
        if check:
            self.check_domain(u, v, honor_excluded)
        return self._component_jets(u, v, order)[0]

    def describe(self):
        if self.catalog_id:
            return f"catalog:{self.catalog_id}({self.params})"
        if self.kind == "monge":
            return f"monge:{pretty(self.exprs[0])}"
        return "parametric:(" + ", ".join(pretty(e) for e in self.exprs) + ")"


def monge_surface(expr, domain=Rect(-1.0, 1.0, -1.0, 1.0)):
    if isinstance(expr, str):
        expr = parse_expression(expr)
    return SurfaceDef("monge", (expr,), domain)


def parametric_surface(exprs, domain, excluded=()):
    parsed = tuple(parse_expression(e) if isinstance(e, str) else e for e in exprs)
    return SurfaceDef("parametric", parsed, domain, excluded)


def _monomial_height(kind_terms, extra_q, allowed, what):
    h = dict(kind_terms)
    for (i, j), val in extra_q.items():
        if i + j not in allowed:
            raise ValueError(f"{what}: q index {(i, j)} outside orders {sorted(allowed)}")
        if val:
            h[(i, j)] = h.get((i, j), 0.0) + val
    return {k: c for k, c in h.items() if c != 0}


def catalog_surface(cat_id, params=None, domain=None, parabolic_guard=1e-3):
    """Build a catalog surface.

    ids: ``pick`` (graph normal form at a non-parabolic point), ``cusp_gauss``
    (parabolic point with degenerate tangency), ``flat_umbilic_chart`` (cubic
    flat-point chart), ``torus`` (surface of revolution).
    """
    params = dict(params or {})
    if cat_id == "torus":
        R = float(params.pop("R"))
        r = float(params.pop("r"))
        if params:
            raise ValueError(f"unknown torus parameters {sorted(params)}")
        if not 0 < r < R:
            raise ValueError(f"torus needs 0 < r < R, got r={r}, R={R}")
        exprs = (
            f"({R} + {r}*cos(u))*cos(v)",
            f"({R} + {r}*cos(u))*sin(v)",
            f"{r}*sin(u)",
        )
        dom = domain or Rect(0.0, 2 * math.pi, 0.0, 2 * math.pi)
        excl = (Band("u", math.pi / 2, parabolic_guard), Band("u", 3 * math.pi / 2, parabolic_guard))
        sd = parametric_surface(exprs, dom, excl)
        sd.catalog_id = "torus"
        sd.params = {"R": R, "r": r}
        sd.periodic = (True, True)
        sd.period_u = 2 * math.pi
        sd.period_v = 2 * math.pi
        return sd

    if cat_id == "pick":
        eps = int(params.pop("epsilon", 1))
        sigma = float(params.pop("sigma", 0.0))
        q = dict(params.pop("q", {}))
        if params:
            raise ValueError(f"unknown pick parameters {sorted(params)}")
        pp = PickParams(eps, sigma, q)
        poly = pp.height_poly()
        dom = domain or Rect(-1.0, 1.0, -1.0, 1.0)
        sd = SurfaceDef("monge", None, dom, polys=(poly,))
        sd.catalog_id = "pick"
        sd.params = {"epsilon": eps, "sigma": sigma, "q": dict(q)}
        return sd

    if cat_id == "cusp_gauss":
        q = dict(params.pop("q", {}))
        for name in list(params):
            # convenience: q21=..., q40=... keyword style
            if name.startswith("q") and len(name) == 3 and name[1:].isdigit():
                q[(int(name[1]), int(name[2]))] = float(params.pop(name))
        if params:
            raise ValueError(f"unknown cusp_gauss parameters {sorted(params)}")
        q21 = q.get((2, 1), 0.0)
        q40 = q.get((4, 0), 0.0)
        if abs(q21 ** 2 - 4 * q40) <= 1e-12:
            raise ValueError("cusp_gauss needs q21^2 - 4*q40 != 0")
        base = {(0, 2): 1.0}
        extra = {k: val for k, val in q.items()}
        for (i, j) in extra:
            if i + j == 3 and (i, j) not in ((2, 1), (0, 3)):
                raise ValueError(f"cusp_gauss cubic terms are limited to q21, q03; got q{i}{j}")
        poly = _monomial_height(base, extra, {3, 4, 5, 6}, "cusp_gauss")
        dom = domain or Rect(-0.5, 0.5, -0.5, 0.5)
        sd = SurfaceDef("monge", None, dom, polys=(poly,))
        sd.catalog_id = "cusp_gauss"
        sd.params = {"q": dict(q)}
        return sd

    if cat_id == "flat_umbilic_chart":
        eps = int(params.pop("epsilon", 1))
        if eps not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        q = dict(params.pop("q", {}))
        for name in list(params):
            if name.startswith("q") and len(name) == 3 and name[1:].isdigit():
                q[(int(name[1]), int(name[2]))] = float(params.pop(name))
        if params:
            raise ValueError(f"unknown flat_umbilic_chart parameters {sorted(params)}")
        base = {(3, 0): 1.0, (1, 2): 3.0 * eps}
        poly = _monomial_height(base, q, {4, 5}, "flat_umbilic_chart")
        dom = domain or Rect(-0.5, 0.5, -0.5, 0.5)
        sd = SurfaceDef("monge", None, dom, polys=(poly,))
        sd.catalog_id = "flat_umbilic_chart"
        sd.params = {"epsilon": eps, "q": dict(q)}
        return sd

    raise ValueError(f"unknown catalog id {cat_id!r}")


# -- configuration files (JSON) ----------------------------------------------


def surface_from_config(cfg):
    """Surface from a config mapping.

    Schema::

        {"kind": "monge",      "expr": "u^3 - 3*u*v^2", "domain": [u0,u1,v0,v1]}
        {"kind": "parametric", "exprs": ["...", "...", "..."], "domain": [...]}
        {"kind": "catalog",    "id": "torus", "params": {"R": 2, "r": 1}}

    ``domain`` is optional where a default exists.  Catalog ``params`` may use
    ``qij`` string keys (e.g. ``"q21": 1.0``) or a nested ``q`` table with
    ``"i,j"`` keys.
    """
    kind = cfg.get("kind")
    dom = None
    if "domain" in cfg:
        u0, u1, v0, v1 = (float(x) for x in cfg["domain"])
        if not (u0 < u1 and v0 < v1):
            raise ValueError("degenerate domain rectangle")
        dom = Rect(u0, u1, v0, v1)
    if kind == "monge":
        return monge_surface(cfg["expr"], dom or Rect(-1.0, 1.0, -1.0, 1.0))
    if kind == "parametric":
        if dom is None:
            raise ValueError("parametric surfaces need an explicit domain")
        return parametric_surface(tuple(cfg["exprs"]), dom)
    if kind == "catalog":
        params = dict(cfg.get("params", {}))
        if "q" in params and isinstance(params["q"], dict):
            params["q"] = {tuple(int(t) for t in k.split(",")): float(val)
                           for k, val in params["q"].items()}
        return catalog_surface(cfg["id"], params, dom)
    raise ValueError(f"config kind must be monge/parametric/catalog, got {kind!r}")


def load_surface_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return surface_from_config(json.load(fh))
