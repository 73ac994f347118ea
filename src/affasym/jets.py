"""Truncated bivariate Taylor-jet arithmetic.

A ``Jet2`` holds the raw partial derivatives d^(i+j)f/du^i dv^j of a scalar
function at a base point, one slot per pair (i, j) with i + j <= order, in
graded-lexicographic order.  Storage is raw partials (not divided by i!j!),
so classical invariant formulas written in terms of h_uu, h_uuv, ...
transcribe symbol for symbol.

The public substrate order is 4 (15 slots), which closes every fourth-order
formula in this package; higher orders (up to 8) are supported because
linearizing a lifted direction field needs second-order jets of quantities
that are themselves fourth-derivative expressions.

Slots hold numpy scalars or arrays: an array slot carries a whole batch of
evaluation points, and every operation broadcasts over the batch.  Jets are
immutable by convention; operations return new jets.  Differentiation drops
the order by one, and binary operations truncate to the smaller order.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Jet2",
    "JetDomainError",
    "DEFAULT_ORDER",
    "MAX_ORDER",
    "DEFAULT_EPS",
    "jet_seed",
    "jet_div",
    "jet_apply_unary",
    "sin",
    "cos",
    "tan",
    "exp",
    "log",
    "sqrt",
    "abs_pow",
    "UNARY_FUNCTIONS",
]

DEFAULT_ORDER = 4
MAX_ORDER = 8
DEFAULT_EPS = 1e-12


class JetDomainError(ArithmeticError):
    """A jet operation was evaluated outside its domain.

    Raised for division by a jet whose constant term is numerically zero and
    for unary functions at a degenerate base value, e.g. the quarter power of
    |LN - M^2| at a parabolic point.
    """


def _term_count(order):
    return (order + 1) * (order + 2) // 2


def _build_tables():
    index, terms = {}, {}
    for o in range(MAX_ORDER + 1):
        idx, term = {}, []
        k = 0
        for g in range(o + 1):
            for i in range(g, -1, -1):
                idx[(i, g - i)] = k
                term.append((i, g - i))
                k += 1
        index[o], terms[o] = idx, term
    return index, terms


_INDEX, _TERMS = _build_tables()


class _PerOrder(dict):
    """Tables keyed by jet order, each built on first use by ``build(order)``,
    so that a process builds only the orders it uses."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, order):
        table = self[order] = self.build(order)
        return table


def _leibniz_pairs(order, skip_self=False):
    """Per slot (i, j) the Leibniz pairs of a product: slot indices ka, kb and
    weights C(i,a) C(j,b) for f_(i,j) = sum g_(a,b) h_(i-a,j-b), in a fixed
    order; ``skip_self`` drops the pair (a, b) = (i, j)."""
    rows = []
    for (i, j) in _TERMS[order]:
        ka, kb, w = [], [], []
        for a in range(i + 1):
            for b in range(j + 1):
                if skip_self and a == i and b == j:
                    continue
                ka.append(_INDEX[order][(a, b)])
                kb.append(_INDEX[order][(i - a, j - b)])
                w.append(float(math.comb(i, a) * math.comb(j, b)))
        rows.append((ka, kb, w))
    return rows


def _build_mul(order):
    # the pairs of all slots in one gather: (ka, kb, weights, slot starts)
    rows = _leibniz_pairs(order)
    starts = np.cumsum([0] + [len(ka) for ka, _, _ in rows[:-1]])
    return tuple(np.array(sum(col, [])) for col in zip(*rows)) + (starts,)


_MUL = _PerOrder(_build_mul)

# The same pairs as (ka, kb, weight) lists per slot, for the wide product.
_MUL_PAIRS = _PerOrder(lambda o: [list(zip(*row)) for row in _leibniz_pairs(o)])

# A product whose larger factor has at least this many lanes sums each slot
# on lane-sized arrays (``_wide_product``); a smaller one gathers a
# (pairs x lanes) array for one ``np.add.reduceat``, which makes far fewer
# numpy calls.  The two paths were measured to cross near 512 lanes at
# orders 4 to 8, and below 400 at orders 1 to 3.
WIDE_LANES = 512

# Division tables: same pairs per slot but with the self pair (a,b)=(i,j) removed.
_DIVROWS = _PerOrder(lambda o: [tuple(np.array(col) for col in row)
                                for row in _leibniz_pairs(o, skip_self=True)])

_DU_MAP = _PerOrder(lambda o: np.array([_INDEX[o + 1][(i + 1, j)] for (i, j) in _TERMS[o]]))
_DV_MAP = _PerOrder(lambda o: np.array([_INDEX[o + 1][(i, j + 1)] for (i, j) in _TERMS[o]]))


class Jet2:
    """Raw-partial jet of a scalar function of (u, v), truncated at ``order``."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"jet order must be in [0, {MAX_ORDER}], got {order}")
        c = np.asarray(coeffs, dtype=float)
        if c.shape[0] != _term_count(order):
            raise ValueError(
                f"order-{order} jet needs {_term_count(order)} coefficients, got {c.shape[0]}")
        self.order = order
        self.coeffs = c

    # -- construction --------------------------------------------------

    @staticmethod
    def constant(value, order=DEFAULT_ORDER):
        v = np.asarray(value, dtype=float)
        c = np.zeros((_term_count(order),) + v.shape)
        c[0] = v
        return Jet2(order, c)

    @staticmethod
    def variable(which, value, order=DEFAULT_ORDER):
        """Jet of the coordinate function u or v at the given base value.

        Order 0 degenerates to plain evaluation (no derivative slots).
        """
        if which not in ("u", "v"):
            raise ValueError("variable must be 'u' or 'v'")
        v = np.asarray(value, dtype=float)
        c = np.zeros((_term_count(order),) + v.shape)
        c[0] = v
        if order > 0:
            c[_INDEX[order][(1, 0) if which == "u" else (0, 1)]] = 1.0
        return Jet2(order, c)

    # -- accessors -------------------------------------------------------

    @property
    def value(self):
        return self.coeffs[0]

    def partial(self, i, j):
        """Raw partial d^(i+j)/du^i dv^j at the base point."""
        if i < 0 or j < 0 or i + j > self.order:
            raise IndexError(f"partial ({i},{j}) outside order-{self.order} jet")
        return self.coeffs[_INDEX[self.order][(i, j)]]

    def truncate(self, order):
        if order > self.order:
            raise ValueError("cannot extend a jet to higher order")
        if order == self.order:
            return self
        return Jet2(order, self.coeffs[: _term_count(order)])

    def du(self):
        """u-derivative jet; order drops by one."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        return Jet2(self.order - 1, self.coeffs[_DU_MAP[self.order - 1]])

    def dv(self):
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        return Jet2(self.order - 1, self.coeffs[_DV_MAP[self.order - 1]])

    def __repr__(self):
        return f"Jet2(order={self.order}, value={self.value!r})"

    # -- arithmetic --------------------------------------------------------

    def _const_like(self, other):
        return Jet2.constant(other, self.order)

    def _shifted(self, delta):
        """Coefficient array with ``delta`` added to the constant slot only."""
        delta = np.asarray(delta, dtype=float)
        target = np.broadcast_shapes(self.coeffs.shape[1:], delta.shape)
        if target == self.coeffs.shape[1:]:
            c = self.coeffs.copy()
        else:
            c = np.broadcast_to(self.coeffs, (self.coeffs.shape[0],) + target).copy()
        c[0] = c[0] + delta
        return c

    def __add__(self, other):
        if not isinstance(other, Jet2):
            return Jet2(self.order, self._shifted(other))
        o = min(self.order, other.order)
        n = _term_count(o)
        ca, cb = _aligned(self.coeffs[:n], other.coeffs[:n])
        return Jet2(o, ca + cb)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Jet2):
            return Jet2(self.order, self._shifted(-np.asarray(other, dtype=float)))
        o = min(self.order, other.order)
        n = _term_count(o)
        ca, cb = _aligned(self.coeffs[:n], other.coeffs[:n])
        return Jet2(o, ca - cb)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Jet2(self.order, -self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            return Jet2(self.order, self.coeffs * np.asarray(other, dtype=float))
        o = min(self.order, other.order)
        n = _term_count(o)
        ca, cb = _aligned(self.coeffs[:n], other.coeffs[:n])
        if max(ca.size, cb.size) >= WIDE_LANES * n:
            shape = np.broadcast_shapes(ca.shape[1:], cb.shape[1:])
            return Jet2(o, _wide_product(ca, cb, _MUL_PAIRS[o], shape))
        ka, kb, w, starts = _MUL[o]
        prod = ca[ka] * cb[kb]
        if prod.ndim > 1:
            prod *= w.reshape((-1,) + (1,) * (prod.ndim - 1))
        else:
            prod *= w
        return Jet2(o, np.add.reduceat(prod, starts, axis=0))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet2):
            return Jet2(self.order, self.coeffs / np.asarray(other, dtype=float))
        return jet_div(self, other)

    def __rtruediv__(self, other):
        return jet_div(self._const_like(other), self)

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("jet ** exponent must be an integer; use abs_pow for real exponents")
        if k < 0:
            return jet_div(self._const_like(1.0), self.__pow__(-k))
        result = Jet2.constant(np.ones_like(self.coeffs[0]), self.order)
        base, n = self, k
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result


def _aligned(ca, cb):
    """Two coefficient arrays whose batch axes broadcast against each other
    after the slot axis (a single-point jet against a batch jet, say)."""
    if ca.ndim < cb.ndim:
        ca = ca.reshape(ca.shape[:1] + (1,) * (cb.ndim - ca.ndim) + ca.shape[1:])
    elif cb.ndim < ca.ndim:
        cb = cb.reshape(cb.shape[:1] + (1,) * (ca.ndim - cb.ndim) + cb.shape[1:])
    return ca, cb


def _wide_product(ca, cb, plan, shape):
    """Leibniz sums of a product over ``shape`` lanes, one lane-sized array
    per pair, with the bits of ``np.add.reduceat`` over the gathered pairs.

    reduceat sums a slot's terms as first + ``_pairwise(rest)``.
    """
    def term(pair):
        a, b, w = pair
        t = ca[a] * cb[b]
        if w != 1.0:
            t *= w
        return t

    out = np.empty((len(plan),) + shape)
    for k, pairs in enumerate(plan):
        if len(pairs) == 1:
            out[k, ...] = term(pairs[0])
            continue
        acc = _pairwise([term(pair) for pair in pairs[1:]], lambda x, y: np.add(x, y, out=x))
        np.add(term(pairs[0]), acc, out=out[k, ...])
    return out


def _pairwise(rest, add):
    """numpy's pairwise sum of ``rest`` with ``add``: from 8 terms on, 8
    running sums combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)); then the
    remaining n % 8 terms, or all of fewer than 8, in sequence."""
    if len(rest) >= 8:
        r, full = list(rest[:8]), len(rest) - len(rest) % 8
        for i in range(8, full):
            r[i % 8] = add(r[i % 8], rest[i])
        for step in (1, 2, 4):
            for j in range(0, 8, 2 * step):
                r[j] = add(r[j], r[j + step])
        rest = [r[0]] + list(rest[full:])
    acc = rest[0]
    for x in rest[1:]:
        acc = add(acc, x)
    return acc


# -- named operation aliases (functional style used throughout the package) --


def jet_seed(which, value, order=DEFAULT_ORDER):
    return Jet2.variable(which, value, order)


def jet_div(a, b, eps=DEFAULT_EPS):
    if not isinstance(b, Jet2):
        return a * (1.0 / np.asarray(b, dtype=float))
    if not isinstance(a, Jet2):
        a = Jet2.constant(np.broadcast_to(np.asarray(a, float), np.shape(b.value)), b.order)
    o = min(a.order, b.order)
    n = _term_count(o)
    ca, cb = _aligned(a.coeffs[:n], b.coeffs[:n])
    b0 = cb[0]
    if np.any(np.abs(b0) <= eps):
        raise JetDomainError(f"jet division by degenerate jet (|constant term| <= {eps})")
    inv0 = 1.0 / b0
    out = np.empty_like(np.broadcast_arrays(ca, cb)[0])
    # graded forward substitution for q in a = q * b
    for slot in range(n):
        ka, kb, w = _DIVROWS[o][slot]
        acc = ca[slot]
        if len(ka):
            s = out[ka] * cb[kb]
            if s.ndim > 1:
                s *= w.reshape((-1,) + (1,) * (s.ndim - 1))
            else:
                s *= w
            # a left fold on every shape: numpy sums one lane pairwise
            acc = acc - sum(s[1:], s[0])
        out[slot] = acc * inv0
    return Jet2(o, out)


# -- composition with univariate functions -----------------------------------


def _compose(a, series):
    """fn(a) for series[k] = fn^(k)(a0)/k!; exact through the jet order."""
    o = a.order
    w = a - a.value  # zero constant term: nilpotent in the truncation
    result = Jet2.constant(np.broadcast_to(np.asarray(series[o], float),
                                           np.shape(a.value)).copy(), o)
    for k in range(o - 1, -1, -1):
        result = result * w + series[k]
    return result


def _taylor(fn, x0, order, exponent=None):
    """Taylor coefficients fn^(k)(x0)/k!, k = 0..order, of sin, cos, exp, log
    or "pow" (|x|^exponent) at x0, for jets and compiled expressions alike."""
    if fn in ("sin", "cos"):
        s, c = np.sin(x0), np.cos(x0)
        cycle = (s, c, -s, -c) if fn == "sin" else (c, -s, -c, s)
        return [cycle[k % 4] / math.factorial(k) if k > 1 else cycle[k] for k in range(order + 1)]
    if fn == "exp":
        e0 = np.exp(x0)
        return [e0 / math.factorial(k) if k > 1 else e0 for k in range(order + 1)]
    if fn == "log":
        return [np.log(x0)] + [((-1.0) ** (k + 1)) / (k * np.power(x0, k))
                               for k in range(1, order + 1)]
    sign = np.where(x0 >= 0, 1.0, -1.0)
    ax = np.abs(x0)
    # Taylor coefficients of |x|^e at x0: binom(e, k) sign^k |x0|^(e-k).
    # np.power rounds a single point as it rounds inside a batch; the C
    # library's pow, which ``**`` uses on a numpy scalar, can differ in the
    # last bit.
    series = [np.asarray(np.power(ax, exponent), dtype=float)]
    binom = 1.0
    for k in range(1, order + 1):
        binom = binom * (exponent - (k - 1)) / k
        series.append(binom * sign ** k * np.power(ax, exponent - k))
    return series


def sin(a):
    if not isinstance(a, Jet2):
        return np.sin(a)
    return _compose(a, _taylor("sin", a.value, a.order))


def cos(a):
    if not isinstance(a, Jet2):
        return np.cos(a)
    return _compose(a, _taylor("cos", a.value, a.order))


def tan(a, eps=DEFAULT_EPS):
    if not isinstance(a, Jet2):
        return np.tan(a)
    return jet_div(sin(a), cos(a), eps=eps)


def exp(a):
    if not isinstance(a, Jet2):
        return np.exp(a)
    return _compose(a, _taylor("exp", a.value, a.order))


def log(a, eps=DEFAULT_EPS):
    if not isinstance(a, Jet2):
        return np.log(a)
    if np.any(a.value <= eps):
        raise JetDomainError("log of a jet with non-positive constant term")
    return _compose(a, _taylor("log", a.value, a.order))


def sqrt(a, eps=DEFAULT_EPS):
    if not isinstance(a, Jet2):
        return np.sqrt(a)
    if np.any(a.value <= eps):
        raise JetDomainError("sqrt of a jet with non-positive constant term")
    return abs_pow(a, 0.5, eps=eps)


def abs_pow(a, exponent, eps=DEFAULT_EPS):
    """|a|^exponent, defined wherever |a| > eps at the base point.

    The form needed by the quarter-root scalings |LN - M^2|^(+-1/4): smooth on
    each side of the degeneracy locus, for either sign of the argument.
    """
    if not isinstance(a, Jet2):
        return np.abs(a) ** exponent
    if np.any(np.abs(a.value) <= eps):
        raise JetDomainError(
            f"abs_pow at a degenerate base value (|x| <= {eps}): evaluation too near "
            "the parabolic set")
    return _compose(a, _taylor("pow", a.value, a.order, exponent))


UNARY_FUNCTIONS = {
    "sin": sin,
    "cos": cos,
    "tan": tan,
    "exp": exp,
    "log": log,
    "sqrt": sqrt,
}


def jet_apply_unary(fn, a, eps=DEFAULT_EPS):
    """Apply a unary function of ``UNARY_FUNCTIONS`` by name."""
    try:
        f = UNARY_FUNCTIONS[fn]
    except KeyError:
        raise ValueError(f"unknown unary function {fn!r}") from None
    if fn in ("tan", "log", "sqrt"):
        return f(a, eps=eps)
    return f(a)
