"""Quadratic direction equations A du^2 + 2B du dv + C dv^2 = 0 as fields.

A field carries one evaluator, the stacked jet slots of its coefficients
(A, B, C) up to a requested order: order 0 gives the values, and the jets
feed the lifted vector field and its linearization.  Directions are solved
in whichever slope chart is better conditioned: chart ``p`` uses p = dv/du
on F_P = A + 2Bp + Cp^2, chart ``q`` uses q = du/dv on F_Q = Aq^2 + 2Bq + C.

The lift of the equation is the surface {F = 0} in (u, v, slope) space; the
tangent vector field

    X = (F_p, p F_p, -(F_u + p F_v))            (chart p, mirrored in q)

projects its integral curves onto solutions of the direction equation.  X
annihilates F identically, so trajectories stay on the lift to machine
precision modulo integration error.

Also here: grid tracing of zero sets of scalar fields (marching squares with
per-vertex root polishing), used for parabolic sets and discriminants.
"""

from __future__ import annotations

import numpy as np

from . import affine
from .jets import Jet2
from .surface import DEFAULT_DOMAIN, Poly, PolySet, _slot_arrays

__all__ = [
    "BDEField",
    "LIFT_TOL",
    "field_from_polynomials",
    "torus_extended_field",
    "folded_model_field",
    "morse_model_field",
    "extended_field_for",
    "euclidean_field_for",
    "discriminant",
    "direction_roots",
    "double_root",
    "lifted_velocity",
    "lifted_derivatives",
    "trace_zero_set",
    "polyline_svg_path",
]

LIFT_TOL = 1e-8
DEGENERATE_TOL = 1e-10


class BDEField:
    """A direction equation with one evaluator: ``slots(u, v, order)`` gives
    the jet slots of (A, B, C) at (u, v) up to ``order`` as one table of
    shape (3, slots) + batch shape: the rows A, B and C, each in the jets'
    graded-lexicographic order (value, u, v, uu, uv, vv, ...)."""

    def __init__(self, slots, domain=DEFAULT_DOMAIN, period=None):
        self.slots, self.domain = slots, domain
        self.period = period     # (Pu, Pv) when the parameters are angles

    def coeff(self, u, v):
        """(A, B, C) at one point or a batch."""
        return tuple(self.slots(u, v, 0)[:, 0])

    def jet_coeff(self, u, v, order=2):
        """Jets of (A, B, C) up to ``order``, as three Jet2."""
        return tuple(Jet2(order, row) for row in self.slots(u, v, order))


# -- constructors -------------------------------------------------------------


def _stacked(abc, u, v, order):
    """The slot table of (A, B, C) up to ``order`` from three jets of that
    order or constant floats: their rows stacked."""
    batch = np.broadcast_shapes(np.shape(u), np.shape(v))
    return np.array([c.coeffs if isinstance(c, Jet2) else
                     Jet2.constant(np.broadcast_to(c, batch), order).coeffs for c in abc])


def field_from_polynomials(pa, pb, pc, domain, period=None):
    """Field with polynomial (A, B, C); each call evaluates all three at once
    by ``surface._slot_arrays``, from the plan that their ``PolySet``
    compiles once per jet order."""
    polys = PolySet(p if isinstance(p, Poly) else Poly(p) for p in (pa, pb, pc))
    return BDEField(lambda u, v, order: _slot_arrays(polys, u, v, order), domain, period)


def folded_model_field(lam, domain=DEFAULT_DOMAIN):
    """(-v + lam u^2) du^2 + dv^2 = 0: one fold point at the origin."""
    return field_from_polynomials({(2, 0): lam, (0, 1): -1.0}, {}, {(0, 0): 1.0}, domain)


def morse_model_field(eps1, domain=DEFAULT_DOMAIN):
    """(-e1 v) du^2 + 2(-e1 u) du dv + v dv^2 = 0: totally degenerate origin."""
    if eps1 not in (1, -1):
        raise ValueError("eps1 must be +1 or -1")
    return field_from_polynomials({(0, 1): -float(eps1)}, {(1, 0): -float(eps1)},
                                  {(0, 1): 1.0}, domain)


def torus_extended_field(surf):
    """The closed-form extended field of a catalog torus, with its domain and period."""
    R, r = surf.torus

    def derivative(p):
        return [k * p[k] for k in range(1, len(p))]

    tables = [(p, derivative(p), derivative(derivative(p)))
              for p in affine._torus_coefficients(R, r)]

    def slots(u, v, order):
        if order > 2:
            return _stacked(affine.torus_extended_bde(R, r, Jet2.variable("u", u, order)), u, v,
                            order)
        # analytic branch: one point or a batch, the same expressions per
        # point; B and the v-derivatives vanish
        c, s = np.cos(u), np.sin(u)
        n = (order + 1) * (order + 2) // 2
        out = np.zeros((3, n) + np.broadcast_shapes(np.shape(u), np.shape(v)))
        for row, (p, p_d, p_dd) in zip(out[::2], tables):
            row[0] = affine._horner(p, c)
            if order:
                fc = affine._horner(p_d, c)
                row[1] = -s * fc
                if order == 2:
                    row[3] = -c * fc + s * s * affine._horner(p_dd, c)
        return out

    return BDEField(slots, surf.domain, surf.period)


def _chart_field(surf, depth, coeffs):
    """The field of three coefficients ``coeffs(a_u, a_v)`` of a chart's
    tangents, one construction for every chart: built once as polynomials
    when every component is polynomial, else evaluated on the tangents of
    order-(depth + k) position jets for slots up to order k."""
    if None not in surf.polys:
        chart = [Poly(p) for p in surf.polys]
        au, av = tuple(c.du() for c in chart), tuple(c.dv() for c in chart)
        return field_from_polynomials(*coeffs(au, av), surf.domain, surf.period)

    def slots(u, v, order):
        return _stacked(coeffs(*surf.tangent_jets(u, v, depth + order)), u, v, order)

    return BDEField(slots, surf.domain, surf.period)


def extended_field_for(surf):
    """The extended asymptotic-direction field of a surface: the closed form
    on the torus, else ``affine.extended_bde_coeffs`` of the normal
    w = a_u ^ a_v."""
    if surf.torus is not None:
        return torus_extended_field(surf)
    return _chart_field(surf, 4, lambda au, av: affine.extended_bde_coeffs(affine.cross(au, av)))


def euclidean_field_for(surf):
    """The Euclidean second form (L, M, N) of a surface as a field, whose
    direction equation gives the Euclidean asymptotic lines and whose
    LN - M^2 vanishes on the parabolic set."""
    return _chart_field(surf, 2, affine.second_form)


# -- pointwise operations ------------------------------------------------------


def discriminant(field, u, v):
    A, B, C = field.coeff(u, v)
    return B * B - A * C


def coefficient_scale(c):
    """max(|A|, |B|, |C|) per point from the slots ``c`` of (A, B, C) of any
    order (``BDEField.slots``)."""
    a = np.abs(c[:, 0])
    return np.maximum(np.maximum(a[0], a[1]), a[2])


def direction_roots(c):
    """The roots of A du^2 + 2B du dv + C dv^2 = 0 per point, from the slots
    ``c`` of (A, B, C) of any order (``BDEField.slots``): per point the kind
    ("two", "double", "none" or "degenerate") and the unit (du, dv) roots,
    shape (..., 2, 2), each with du > 0 or du = 0 < dv.  A root is solved as
    a slope, dv/du where |C| >= |A| and du/dv elsewhere; a double root fills
    both rows, and a point without a root holds NaN.  Every expression is
    elementwise (``np.hypot`` normalizes the roots), so one point alone gets
    the bits it gets in a batch."""
    A, B, C = c[:, 0]
    scale = coefficient_scale(c)
    delta = B * B - A * C
    degenerate = scale < DEGENERATE_TOL
    double = ~degenerate & (np.abs(delta) < np.square(LIFT_TOL * scale))
    none = ~degenerate & ~double & (delta < 0)
    # both extreme coefficients vanish: the equation is 2B du dv = 0
    axes = ~(degenerate | double | none) & (np.maximum(np.abs(A), np.abs(C)) < 1e-13 * scale)
    double_slope, chart_q = double_root(c)
    with np.errstate(divide="ignore", invalid="ignore"):
        rt = np.sqrt(delta)
        slope = np.stack([-B + rt, -B - rt], -1) / np.where(chart_q, A, C)[..., None]
        slope[double] = double_slope[double][:, None]
        p = ~chart_q[..., None]    # the slopes are dv/du
        du, dv = np.where(p, 1.0, slope), np.where(p, slope, 1.0)
        du[axes], dv[axes] = (1.0, 0.0), (0.0, 1.0)
        h = np.hypot(du, dv)
        d = np.stack([du / h, dv / h], -1)
    # fix an orientation so output is deterministic
    flip = (d[..., 0] < 0) | ((d[..., 0] == 0) & (d[..., 1] < 0))
    d = np.where(flip[..., None], -d, d)
    d[degenerate | none] = np.nan
    kind = np.select([degenerate, double, none], ["degenerate", "double", "none"], "two")
    return kind, d


def double_root(c):
    """The slope of the double root per point, and whether its chart is q,
    from the slots ``c`` of (A, B, C) of any order (``BDEField.slots``):
    -B/C in chart p where |C| >= |A| (0.0 where C = 0 there), else -B/A in
    chart q."""
    A, B, C = c[:, 0]
    chart_q = ~(np.abs(C) >= np.abs(A))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(chart_q, -B / A, np.where(C != 0, -B / C, 0.0)), chart_q


def _chart_factors(chart_q, slope, Pq, Pp):
    """The chart's factors of F = A f f + 2B s + C g g and F_s = 2B + P s in
    either chart, s the slope: (f, g) = (s, 1) and P = ``Pq`` (2A) in chart
    q, (1, s) and ``Pp`` (2C) in chart p, a product with 1.0 being exact.
    One chart or an array of charts picks all three in one ``np.where`` on
    the stacked rows (Pp, s, 1, Pq); (f, g) comes stacked to broadcast
    against P."""
    rows = np.empty((4,) + np.shape(Pq))
    rows[0], rows[1], rows[2], rows[3] = Pp, slope, 1.0, Pq
    fgP = np.where(chart_q, rows[1:], rows[2::-1])
    return fgP[:2], fgP[2]


def _lift_F(AC, B2, slope, fg):
    """F = A f f + 2B s + C g g from A and C stacked in ``AC``, 2B, and the
    factors (f, g) stacked in ``fg`` to broadcast against ``AC``."""
    T = AC * fg
    T *= fg
    F = T[0] + B2 * slope
    F += T[1]
    return F


def lift_terms(c, slope, chart_q):
    """F, F_s and F_ss slot by slot from the slots ``c`` of (A, B, C)
    (``BDEField.slots``): with s the slope, F = A + 2Bs + Cs^2 in chart p
    and As^2 + 2Bs + C in chart q (``chart_q`` True), so from the slots
    (value, u, v, ...) of each coefficient come F, F_u, F_v, ... and F_s,
    F_su, F_sv, ..., each of shape (slots,) + batch; ``slope`` and
    ``chart_q`` are scalars or arrays over the batch.  Every lane sees the
    same floating-point expressions in either chart, so a point gives the
    same bits alone as inside a batch: the chart only picks factors."""
    c2 = 2.0 * c
    fg, Fss = _chart_factors(chart_q, slope, c2[0], c2[2])
    return _lift_F(c[::2], c2[1], slope, fg), c2[1] + Fss * slope, Fss


def lifted_velocity(c, slope, chart_q):
    """Lifted velocity X and the coefficient scale max(|A|, |B|, |C|) from
    the slots ``c`` of (A, B, C) of order 1 or more (``BDEField.slots``,
    shape (3, slots) + batch).  ``slope`` and ``chart_q`` (True where the
    slope is du/dv) are scalars or arrays over the batch; X has the batch
    shape plus a last axis of 3: (F_s, s F_s, -(F_u + s F_v)) in chart p,
    (s F_s, F_s, -(F_v + s F_u)) in chart q, that is (f F_s, g F_s,
    -(f F_u + g F_v)) in either chart, with F at the value, u and v slots
    and F_s at the value slot only."""
    c2 = 2.0 * c
    fg, Fss = _chart_factors(chart_q, slope, c2[0, 0], c2[2, 0])
    F = _lift_F(c[::2, :3], c2[1, :3], slope, fg[:, None])[1:]
    F *= fg
    Fs = Fss * slope
    Fs += c2[1, 0]
    X = np.empty(np.shape(slope) + (3,))
    Xt = X.T
    np.multiply(fg, Fs, out=Xt[:2])
    np.negative(np.add(F[0], F[1], out=Xt[2, ...]), out=Xt[2, ...])
    return X, coefficient_scale(c)


def _lanewise(fn, n):
    """``fn(lanes)`` over all n lanes at once; if that raises an
    ArithmeticError, once per lane.  Returns the results of the lanes that
    did not raise, concatenated (None when every lane raised), and per lane
    None or its exception."""
    try:
        return fn(slice(None)), [None] * n
    except ArithmeticError:
        pass
    parts, errors = [], [None] * n
    for j in range(n):
        try:
            parts.append(fn(slice(j, j + 1)))
        except ArithmeticError as exc:
            errors[j] = exc
    return tuple(np.concatenate(c) for c in zip(*parts)) if parts else None, errors


def lie_cartan_scaled(field, u, v, slope, chart_q):
    """Velocity of the lifted tangent field at one lifted point, in its
    chart, and the local coefficient scale, from one slot evaluation."""
    X, scale = lifted_velocity(field.slots(u, v, 1), slope, chart_q)
    return X, float(scale)


def lifted_derivatives(c, slope, chart_q):
    """F, its gradient (F_u, F_v, F_slope) and the 3x3 Jacobian of the lifted
    field in (u, v, slope) order at one lifted point, from the order-2 slots
    ``c`` of (A, B, C) there (``BDEField.slots``, shape (3, 6)).  The rows of
    F_s and s F_s come in the order of X's first two components; chart q is
    chart p with u and v swapped, so the third row, -grad(F_a + s F_b),
    reads a = u, b = v in chart p and a = v, b = u in chart q."""
    s, q = slope, int(chart_q)
    a, b = 1 + q, 2 - q    # the slots of the a- and b-partials
    F, Fs, Fss = lift_terms(c, s, chart_q)
    F, Fs, Fss = F.tolist(), Fs[:3].tolist(), float(Fss[0])
    Fs0, Fsu, Fsv = Fs
    rows = [Fsu, Fsv, Fss], [s * Fsu, s * Fsv, Fs0 + s * Fss]
    J = np.array([rows[q], rows[1 - q],
                  [-(F[a + 2] + s * F[b + 2]), -(F[a + 3] + s * F[b + 3]),
                   -(Fs[a] + F[b] + s * Fs[b])]])
    return F[0], (F[1], F[2], Fs0), J


# -- implicit-curve tracing ----------------------------------------------------

_SEG_TABLE = {
    # corner order: (i,j)=BL, (i+1,j)=BR, (i+1,j+1)=TR, (i,j+1)=TL
    # edges: 0 bottom, 1 right, 2 top, 3 left; a saddle cell (codes 5 and 10)
    # adds 16 to its code where the scalar is positive at its centre
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)], 5: [(3, 0), (1, 2)], 6: [(0, 2)],
    7: [(3, 2)], 8: [(2, 3)], 9: [(0, 2)], 10: [(0, 1), (2, 3)], 11: [(1, 2)],
    12: [(3, 1)], 13: [(0, 1)], 14: [(3, 0)], 21: [(0, 1), (2, 3)], 26: [(3, 0), (1, 2)],
}


def _cell_segments(pos, centre_positive):
    """Marching-squares segments, as pairs of edge ids, from the corner signs
    ``pos`` of an (nx + 1, ny + 1) grid.  The horizontal edge (i, j)-(i+1, j)
    has id i (ny + 1) + j, the vertical edge (i, j)-(i, j+1) has id
    nx (ny + 1) + i ny + j.  One array pass gives the case code of every
    cell; only the cells the zero set crosses are visited, in (i, j) order.
    The saddle cells (codes 5 and 10) pair their edges by the sign of the
    scalar at their centres: ``centre_positive(i, j)`` on the arrays of their
    cell indices, one call for all of them and none when there are none."""
    p = pos.astype(int)
    codes = p[:-1, :-1] | p[1:, :-1] << 1 | p[1:, 1:] << 2 | p[:-1, 1:] << 3
    si, sj = np.nonzero((codes == 5) | (codes == 10))
    if si.size:
        codes[si, sj] += 16 * centre_positive(si, sj)
    ci, cj = np.nonzero((codes != 0) & (codes != 15))
    nx, ny = codes.shape
    h, v = ci * (ny + 1) + cj, nx * (ny + 1) + ci * ny + cj
    edges = np.stack((h, v + ny, h + 1, v), -1).tolist()    # bottom, right, top, left
    return [(e[a], e[b]) for e, code in zip(edges, codes[ci, cj].tolist())
            for a, b in _SEG_TABLE[code]]


def trace_zero_set(scalar, region, resolution):
    """Polylines approximating {scalar = 0} on the region.

    ``scalar`` must accept numpy arrays (u, v) and return values of the same
    shape.  Cell crossings are found by sign change, located by bisection
    along cell edges, and chained into polylines.  Output order and content
    are deterministic for fixed inputs.
    """
    nx, ny = (int(x) for x in np.broadcast_to(resolution, 2))
    us = np.linspace(region.u0, region.u1, nx + 1)
    vs = np.linspace(region.v0, region.v1, ny + 1)
    U, V = np.meshgrid(us, vs, indexing="ij")
    Z = np.asarray(scalar(U, V), dtype=float)
    scale = np.max(np.abs(Z))
    if scale == 0:
        return []
    Z = np.where(Z == 0.0, 1e-13 * scale, Z)  # tie-break exact zeros
    pos = Z > 0

    # edge crossings, vectorized bisection
    def crossings(a, b, fa):
        """Bisect the edges from a to b, (u, v) rows of shape (2, edges),
        where the scalar is fa at a."""
        for _ in range(48):    # bisection steps per edge crossing
            m = 0.5 * (a + b)
            fm = np.asarray(scalar(m[0], m[1]), dtype=float)
            fm = np.where(fm == 0.0, 1e-300, fm)
            left = (fa > 0) != (fm > 0)
            a, b = np.where(left, a, m), np.where(left, m, b)
            fa = np.where(left, fa, fm)
        return 0.5 * (a + b)

    # horizontal edges, between (i, j) and (i+1, j), then vertical edges,
    # between (i, j) and (i, j+1), bisected in one batch: one row of
    # ``point`` per crossed edge, in the order of the edge ids ``crossed``
    hx, vx = pos[:-1, :] != pos[1:, :], pos[:, :-1] != pos[:, 1:]
    a = np.array([np.concatenate((x[:-1, :][hx], x[:, :-1][vx])) for x in (U, V, Z)])
    b = np.array([np.concatenate((x[1:, :][hx], x[:, 1:][vx])) for x in (U, V)])
    point = crossings(a[:2], b, a[2]).T
    crossed = np.concatenate((np.flatnonzero(hx), hx.size + np.flatnonzero(vx)))

    def centre_positive(i, j):
        cu, cv = 0.5 * (us[i] + us[i + 1]), 0.5 * (vs[j] + vs[j + 1])
        return np.asarray(scalar(cu, cv), dtype=float) > 0

    # the segments as pairs of rows of ``point``, which sort as their ids
    segments = np.searchsorted(crossed, _cell_segments(pos, centre_positive)).tolist()

    # chain segments into polylines
    adj = {}
    for a, b in segments:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    visited = set()
    polylines = []
    endpoints = sorted(k for k, nb in adj.items() if len(nb) == 1)
    starters = endpoints + sorted(adj.keys())
    for start in starters:
        if start in visited:
            continue
        chain = [start]
        visited.add(start)
        cur = start
        while True:
            nxt = None
            for cand in adj[cur]:
                if cand not in visited:
                    nxt = cand
                    break
            if nxt is None:
                # close cycles back to the start
                if len(chain) > 2 and start in adj[cur]:
                    chain.append(start)
                break
            chain.append(nxt)
            visited.add(nxt)
            cur = nxt
        if len(chain) >= 2:
            pts = point[chain]
            # discard tie-break artifacts around isolated zeros: their
            # extent is far below anything a grid cell can resolve
            extent = max(float(np.ptp(pts[:, 0])), float(np.ptp(pts[:, 1])))
            cell = max((region.u1 - region.u0) / nx, (region.v1 - region.v0) / ny)
            if extent > 1e-3 * cell:
                polylines.append(pts)
    return polylines


def polyline_svg_path(poly, mapper):
    """SVG path data of a polyline of (u, v) points; ``mapper`` maps arrays
    of u and of v to page x and y."""
    poly = np.asarray(poly, dtype=float)
    x, y = mapper(poly[:, 0], poly[:, 1])
    xy = np.column_stack((x, y)).ravel().tolist()
    return ("M %.3f %.3f " + " ".join(["L %.3f %.3f"] * (len(poly) - 1))) % tuple(xy)
