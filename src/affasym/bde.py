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

import math
from dataclasses import dataclass

import numpy as np

from . import affine, jets
from .jets import Jet2
from .surface import Poly, PolySet, Rect, _slot_arrays

__all__ = [
    "BDEField",
    "LiftedState",
    "AsymptoticDirections",
    "CapabilityError",
    "LIFT_TOL",
    "values_field",
    "field_from_polynomials",
    "monge_extended_field",
    "torus_extended_field",
    "conormal_euclidean_field",
    "folded_model_field",
    "morse_model_field",
    "extended_field_for",
    "discriminant",
    "asymptotic_directions",
    "lift_state",
    "f_residual",
    "lie_cartan",
    "lifted_velocity",
    "lifted_derivatives",
    "lie_cartan_jacobian",
    "trace_zero_set",
    "polyline_svg_path",
]

LIFT_TOL = 1e-8
DEGENERATE_TOL = 1e-10


class CapabilityError(RuntimeError):
    """The field lacks the jet evaluator an operation needs."""


@dataclass
class BDEField:
    """A direction equation with one evaluator: ``slots(u, v, order)`` gives
    the jet slots of (A, B, C) at (u, v) up to ``order`` in one array of shape
    (3 * slots,) + batch shape, the slots of A, then B, then C, each in the
    jets' graded-lexicographic order (value, u, v, uu, uv, vv, ...).  A field
    without jets raises CapabilityError for order >= 1 (``values_field``)."""
    slots: object
    domain: Rect = Rect(-1.0, 1.0, -1.0, 1.0)
    name: str = "bde"
    period: tuple = None     # (Pu, Pv) when the parameters are angles

    def coeff(self, u, v):
        """(A, B, C) at one point or a batch."""
        return tuple(self.slots(u, v, 0))

    def jet_coeff(self, u, v, order=2):
        """Jets of (A, B, C) up to ``order``, as three Jet2."""
        c = self.slots(u, v, order)
        n = len(c) // 3
        return Jet2(order, c[:n]), Jet2(order, c[n:2 * n]), Jet2(order, c[2 * n:])


@dataclass
class LiftedState:
    u: float
    v: float
    slope: float
    chart: str  # "p" (slope = dv/du) or "q" (slope = du/dv)

    def direction(self):
        """Unit (du, dv) tangent of the projected curve."""
        if self.chart == "p":
            d = np.array([1.0, self.slope])
        else:
            d = np.array([self.slope, 1.0])
        return d / math.hypot(d[0], d[1])


# -- constructors -------------------------------------------------------------


def _stacked(abc, u, v):
    """Slots of (A, B, C) from three jets, or from three values at order 0."""
    if isinstance(abc[0], Jet2):
        return np.concatenate([j.coeffs for j in abc])
    batch = np.broadcast_shapes(np.shape(u), np.shape(v))
    return np.array([np.broadcast_to(x, batch) for x in abc], dtype=float)


def values_field(values, domain=Rect(-1.0, 1.0, -1.0, 1.0), name="bde"):
    """Field from a batch-capable (u, v) -> (A, B, C) without jets: its
    evaluator gives the values at order 0 and raises CapabilityError above."""

    def slots(u, v, order):
        if order:
            raise CapabilityError(f"field {name} has no jet evaluator")
        return _stacked(values(u, v), u, v)

    return BDEField(slots, domain, name)


def field_from_polynomials(pa, pb, pc, domain, name="poly-bde"):
    """Field with polynomial (A, B, C); each call evaluates all three at once
    from their compiled derivative tables, flattened once per jet order."""
    polys = PolySet(p if isinstance(p, Poly) else Poly(p) for p in (pa, pb, pc))
    return BDEField(lambda u, v, order: _slot_arrays(polys, u, v, order), domain, name)


def folded_model_field(lam, domain=Rect(-1.0, 1.0, -1.0, 1.0)):
    """(-v + lam u^2) du^2 + dv^2 = 0: one fold point at the origin."""
    return field_from_polynomials({(2, 0): lam, (0, 1): -1.0}, {}, {(0, 0): 1.0},
                                  domain, f"folded(lambda={lam})")


def morse_model_field(eps1, domain=Rect(-1.0, 1.0, -1.0, 1.0)):
    """(-e1 v) du^2 + 2(-e1 u) du dv + v dv^2 = 0: totally degenerate origin."""
    if eps1 not in (1, -1):
        raise ValueError("eps1 must be +1 or -1")
    return field_from_polynomials({(0, 1): -float(eps1)}, {(1, 0): -float(eps1)},
                                  {(0, 1): 1.0}, domain, f"morse(eps1={eps1})")


def monge_extended_field(surf):
    """Extended coefficient field of a Monge surface (polynomial fast path
    when the height is polynomial)."""
    if surf.kind != "monge":
        raise ValueError("monge_extended_field needs a Monge surface")
    hp = surf.polys[0] if surf.polys else None
    if hp is not None:
        h = Poly(hp)
        parts = [h.partial(i, j) for (i, j) in
                 [(2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3),
                  (4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]]
        bl, bm, bn, _ = affine.lmn_numerators(*parts)
        return field_from_polynomials(-bl, -bm, -bn, surf.domain,
                                      f"extended({surf.describe()})")

    def slots(u, v, order):
        # an order-4 height jet gives values, a higher one jets
        hj = surf.height_jet(u, v, order=4 + order, check=False)
        return _stacked(affine.extended_bde_coeffs(hj), u, v)

    return BDEField(slots, surf.domain, f"extended({surf.describe()})")


def torus_extended_field(R, r, domain=None):
    domain = domain or Rect(0.0, 2 * math.pi, 0.0, 2 * math.pi)
    # closed forms as polynomials in c = cos u (v-independent):
    #   lbar = 16 r^2 c^4 + 36 rR c^3 + 15 R^2 c^2 - 8 rR c - 3 R^2
    #   nbar = 16 r^2 c^6 + 28 rR c^5 + 12 R^2 c^4 + 4 rR c^3 + 4 R^2 c^2
    lp = np.array([-3 * R * R, -8 * r * R, 15 * R * R, 36 * r * R, 16 * r * r])
    npol = np.array([0.0, 0.0, 4 * R * R, 4 * r * R, 12 * R * R, 28 * r * R, 16 * r * r])
    lp_d = np.polynomial.polynomial.polyder(lp)
    lp_dd = np.polynomial.polynomial.polyder(lp_d)
    np_d = np.polynomial.polynomial.polyder(npol)
    np_dd = np.polynomial.polynomial.polyder(np_d)
    pval = np.polynomial.polynomial.polyval

    def slots(u, v, order):
        if order > 2:
            return _stacked(affine.torus_extended_bde(R, r, Jet2.variable("u", u, order)), u, v)
        # analytic branch: one point or a batch, the same expressions per
        # point; B and the v-derivatives vanish
        c, s = np.cos(u), np.sin(u)
        n = (order + 1) * (order + 2) // 2
        out = np.zeros((3 * n,) + np.broadcast_shapes(np.shape(u), np.shape(v)))
        for k, p, p_d, p_dd in ((0, lp, lp_d, lp_dd), (2 * n, npol, np_d, np_dd)):
            out[k] = pval(c, p)
            if order:
                fc = pval(c, p_d)
                out[k + 1] = -s * fc
                if order == 2:
                    out[k + 3] = -c * fc + s * s * pval(c, p_dd)
        return out

    return BDEField(slots, domain, f"torus-extended(R={R},r={r})",
                    period=(2 * math.pi, 2 * math.pi))


def conormal_euclidean_field(surf, guard=1e-8):
    """Euclidean second-form coefficients of the conormal image, as functions
    of the source parameters (u, v): the direction equation of the Euclidean
    asymptotic lines of that surface."""

    def slots(u, v, order):
        fr = affine.frame_jets(surf, u, v, order=4 + order, guard=guard)
        nu = fr["nu"]
        nu_u, nu_v = fr["nu_u"], fr["nu_v"]
        nuu = tuple(c.du() for c in nu_u)
        nuv = tuple(c.dv() for c in nu_u)
        nvv = tuple(c.dv() for c in nu_v)
        w = affine.cross(nu_u, nu_v)
        norm = jets.sqrt(affine.dot(w, w), eps=guard ** 2)
        nvec = tuple(jets.jet_div(c, norm.truncate(c.order)) for c in w)
        e = affine.dot(nvec, nuu)
        f = affine.dot(nvec, nuv)
        g = affine.dot(nvec, nvv)
        return _stacked((e, f, g), u, v)

    return BDEField(slots, surf.domain, f"conormal-II({surf.describe()})")


def extended_field_for(surf):
    """The extended asymptotic-direction field appropriate to a surface."""
    if surf.catalog_id == "torus":
        return torus_extended_field(surf.params["R"], surf.params["r"], surf.domain)
    if surf.kind == "monge":
        return monge_extended_field(surf)
    # generic parametric: clear the same |LN - M^2| powers as the Monge case
    def slots(u, v, order):
        fr = affine.frame_jets(surf, u, v, order=4 + order)
        lmn = affine.lmn_from_frame(fr)
        d2 = (fr["D"] * fr["D"] * 16.0).truncate(order)
        return _stacked([d2 * c for c in lmn], u, v)

    return BDEField(slots, surf.domain, f"extended({surf.describe()})")


# -- pointwise operations ------------------------------------------------------


def discriminant(field, u, v):
    A, B, C = field.coeff(u, v)
    return B * B - A * C


@dataclass
class AsymptoticDirections:
    kind: str          # "two" | "double" | "none" | "degenerate"
    dirs: list         # unit (du, dv) arrays; the double root appears once

    def __iter__(self):
        return iter(self.dirs)

    def __len__(self):
        return len(self.dirs)


def _unit(du, dv):
    h = math.hypot(du, dv)
    d = np.array([du / h, dv / h])
    # fix an orientation so output is deterministic
    if d[0] < 0 or (d[0] == 0 and d[1] < 0):
        d = -d
    return d


def asymptotic_directions(field, u, v, lift_tol=LIFT_TOL, degenerate_tol=DEGENERATE_TOL):
    """Solve the direction equation at one point, chart-robustly."""
    A, B, C = (float(x) for x in field.coeff(u, v))
    scale = max(abs(A), abs(B), abs(C))
    if scale < degenerate_tol:
        return AsymptoticDirections("degenerate", [])
    delta = B * B - A * C
    double_thr = (lift_tol * scale) ** 2
    if abs(delta) < double_thr:
        # single direction of multiplicity two
        if abs(C) >= abs(A):
            return AsymptoticDirections("double", [_unit(1.0, -B / C)])
        return AsymptoticDirections("double", [_unit(-B / A, 1.0)])
    if delta < 0:
        return AsymptoticDirections("none", [])
    rt = math.sqrt(delta)
    if max(abs(A), abs(C)) < 1e-13 * scale:
        # both extreme coefficients vanish: the equation is 2B du dv = 0
        return AsymptoticDirections("two", [_unit(1.0, 0.0), _unit(0.0, 1.0)])
    if abs(C) >= abs(A):
        dirs = [_unit(1.0, (-B + rt) / C), _unit(1.0, (-B - rt) / C)]
    else:
        dirs = [_unit((-B + rt) / A, 1.0), _unit((-B - rt) / A, 1.0)]
    return AsymptoticDirections("two", dirs)


def lift_state(field, u, v, du, dv):
    """Lifted state for a projected direction, in the better slope chart."""
    if abs(dv) <= abs(du):
        return LiftedState(u, v, dv / du, "p")
    return LiftedState(u, v, du / dv, "q")


def f_residual(field, state):
    A, B, C = field.slots(state.u, state.v, 0).tolist()
    return lift_terms(A, B, C, state.slope, state.chart == "q")[0]


def _pick(chart_q, a, b):
    """``a`` where ``chart_q``, else ``b``: per lane for an array of charts."""
    if isinstance(chart_q, np.ndarray):
        return np.where(chart_q, a, b)
    return a if chart_q else b


def lift_terms(A, B, C, slope, chart_q):
    """F, F_s and F_ss slot by slot from jet slots of (A, B, C): with s the
    slope, F = A + 2Bs + Cs^2 in chart p and As^2 + 2Bs + C in chart q
    (``chart_q`` True), so from the slots (value, u, v, ...) of each
    coefficient come F, F_u, F_v, ... and F_s, F_su, F_sv, ...  A, B and C
    are arrays of one shape, or Python floats at one point with a bool
    chart; ``slope`` and ``chart_q`` are scalars or arrays over the batch.
    Every lane sees the same floating-point expressions in either chart and
    on either path, so a point gives the same bits alone as inside a batch:
    the chart only picks factors, and multiplying by 1.0 is exact."""
    s = slope
    f, g = _pick(chart_q, s, 1.0), _pick(chart_q, 1.0, s)
    B2 = 2 * B
    F = A * f * f + B2 * s + C * g * g
    Fss = 2 * _pick(chart_q, A, C)
    return F, B2 + Fss * s, Fss


def _point_terms(A, B, C, slope, chart_q):
    """``lift_terms`` at one point from 1-D slot arrays, slot by slot on
    Python floats: F, F_s and F_ss as tuples."""
    return zip(*(lift_terms(a, b, c, slope, bool(chart_q))
                 for a, b, c in zip(A.tolist(), B.tolist(), C.tolist())))


def lifted_velocity(c, slope, chart_q):
    """Lifted velocity X and the coefficient scale max(|A|, |B|, |C|) from
    the order-1 slots ``c`` of (A, B, C) (``BDEField.slots``, shape
    (9,) + batch).  ``slope`` and ``chart_q`` (True where the slope is du/dv)
    are scalars or arrays over the batch; X has the batch shape plus a last
    axis of 3: (F_s, s F_s, -(F_u + s F_v)) in chart p, (s F_s, F_s,
    -(F_v + s F_u)) in chart q."""
    terms = _point_terms if c.ndim == 1 else lift_terms
    F, Fs, _ = terms(*c.reshape((3, 3) + c.shape[1:]), slope, chart_q)
    sFs = slope * Fs[0]
    Fa, Fb = _pick(chart_q, F[2:0:-1], F[1:3])
    X = np.empty(np.shape(slope) + (3,))
    X[..., 0] = _pick(chart_q, sFs, Fs[0])
    X[..., 1] = _pick(chart_q, Fs[0], sFs)
    X[..., 2] = -(Fa + slope * Fb)
    return X, np.maximum.reduce(np.abs(c[::3]))


def lie_cartan_scaled(field, state):
    """Lifted velocity and the local coefficient scale, one jet evaluation."""
    X, scale = lifted_velocity(field.slots(state.u, state.v, 1), state.slope,
                               state.chart == "q")
    return X, float(scale)


def lie_cartan(field, state):
    """Velocity of the lifted tangent field at the state, in its chart."""
    return lie_cartan_scaled(field, state)[0]


def lifted_derivatives(Aj, Bj, Cj, state):
    """F, its gradient (F_u, F_v, F_slope) and the 3x3 Jacobian of the lifted
    field in (u, v, slope) order, at the state, from order-2 jets of (A, B, C)."""
    s = state.slope
    F, Fs, Fss = _point_terms(*(j.coeffs[:6] for j in (Aj, Bj, Cj)), s, state.chart == "q")
    (F0, Fu, Fv, Fuu, Fuv, Fvv), (Fs0, Fsu, Fsv), Fss = F, Fs[:3], Fss[0]
    if state.chart == "p":
        J = np.array([
            [Fsu, Fsv, Fss],
            [s * Fsu, s * Fsv, Fs0 + s * Fss],
            [-(Fuu + s * Fuv), -(Fuv + s * Fvv), -(Fsu + Fv + s * Fsv)],
        ])
    else:
        J = np.array([
            [s * Fsu, s * Fsv, Fs0 + s * Fss],
            [Fsu, Fsv, Fss],
            [-(Fuv + s * Fuu), -(Fvv + s * Fuv), -(Fsv + Fu + s * Fsu)],
        ])
    return F0, (Fu, Fv, Fs0), J


def lie_cartan_jacobian(field, state):
    """3x3 Jacobian of the lifted field at the state, in (u, v, slope) order."""
    return lifted_derivatives(*field.jet_coeff(state.u, state.v, 2), state)[2]


# -- implicit-curve tracing ----------------------------------------------------

_SEG_TABLE = {
    # corner order: (i,j)=BL, (i+1,j)=BR, (i+1,j+1)=TR, (i,j+1)=TL
    # edges: 0 bottom, 1 right, 2 top, 3 left
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)], 6: [(0, 2)], 7: [(3, 2)],
    8: [(2, 3)], 9: [(0, 2)], 11: [(1, 2)],
    12: [(3, 1)], 13: [(0, 1)], 14: [(3, 0)],
}


def _edge_key(cell_i, cell_j, e):
    if e == 0:
        return ("h", cell_i, cell_j)
    if e == 2:
        return ("h", cell_i, cell_j + 1)
    if e == 3:
        return ("v", cell_i, cell_j)
    return ("v", cell_i + 1, cell_j)


def _cell_segments(pos, centre_positive):
    """Marching-squares segments, as pairs of edge keys, from the corner signs
    ``pos`` of the grid.  One array pass gives the case code of every cell;
    only the cells the zero set crosses are visited, in (i, j) order.  A
    saddle cell (codes 5 and 10) pairs its edges by ``centre_positive(i, j)``,
    the sign of the scalar at its centre."""
    p = pos.astype(np.uint8)
    codes = p[:-1, :-1] | p[1:, :-1] << 1 | p[1:, 1:] << 2 | p[:-1, 1:] << 3
    ci, cj = np.nonzero((codes != 0) & (codes != 15))
    segments = []
    for i, j, code in zip(ci.tolist(), cj.tolist(), codes[ci, cj].tolist()):
        if code == 5:    # positive BL/TR corners
            segs = [(0, 1), (2, 3)] if centre_positive(i, j) else [(3, 0), (1, 2)]
        elif code == 10:  # positive BR/TL corners
            segs = [(3, 0), (1, 2)] if centre_positive(i, j) else [(0, 1), (2, 3)]
        else:
            segs = _SEG_TABLE[code]
        for (e1, e2) in segs:
            segments.append((_edge_key(i, j, e1), _edge_key(i, j, e2)))
    return segments


def trace_zero_set(scalar, region, resolution=256):
    """Polylines approximating {scalar = 0} on the region.

    ``scalar`` must accept numpy arrays (u, v) and return values of the same
    shape.  Cell crossings are found by sign change, located by bisection
    along cell edges, and chained into polylines.  Output order and content
    are deterministic for fixed inputs.
    """
    if np.isscalar(resolution):
        nx = ny = int(resolution)
    else:
        nx, ny = (int(x) for x in resolution)
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
    def crossings(p0u, p0v, p1u, p1v, f0):
        a_u, a_v = p0u.copy(), p0v.copy()
        b_u, b_v = p1u.copy(), p1v.copy()
        fa = f0
        for _ in range(48):    # bisection steps per edge crossing
            m_u, m_v = 0.5 * (a_u + b_u), 0.5 * (a_v + b_v)
            fm = np.asarray(scalar(m_u, m_v), dtype=float)
            fm = np.where(fm == 0.0, 1e-300, fm)
            left = (fa > 0) != (fm > 0)
            a_u, a_v = np.where(left, a_u, m_u), np.where(left, a_v, m_v)
            b_u, b_v = np.where(left, m_u, b_u), np.where(left, m_v, b_v)
            fa = np.where(left, fa, fm)
        return 0.5 * (a_u + b_u), 0.5 * (a_v + b_v)

    # horizontal edges: between (i, j) and (i+1, j)
    hx = pos[:-1, :] != pos[1:, :]
    hi, hj = np.nonzero(hx)
    hu, hv = crossings(U[:-1, :][hx], V[:-1, :][hx], U[1:, :][hx], V[1:, :][hx], Z[:-1, :][hx])
    # vertical edges: between (i, j) and (i, j+1)
    vx = pos[:, :-1] != pos[:, 1:]
    vi, vj = np.nonzero(vx)
    vu, vv_ = crossings(U[:, :-1][vx], V[:, :-1][vx], U[:, 1:][vx], V[:, 1:][vx], Z[:, :-1][vx])

    hpoint = {(i, j): (hu[k], hv[k]) for k, (i, j) in enumerate(zip(hi, hj))}
    vpoint = {(i, j): (vu[k], vv_[k]) for k, (i, j) in enumerate(zip(vi, vj))}

    def centre_positive(i, j):
        cu, cv = 0.5 * (us[i] + us[i + 1]), 0.5 * (vs[j] + vs[j + 1])
        return float(scalar(np.asarray(cu), np.asarray(cv))) > 0

    segments = _cell_segments(pos, centre_positive)

    # chain segments into polylines
    adj = {}
    for a, b in segments:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    def point_of(key):
        kind, i, j = key
        return hpoint[(i, j)] if kind == "h" else vpoint[(i, j)]

    visited = set()
    polylines = []
    endpoints = sorted(k for k, nb in adj.items() if len(nb) == 1)
    starters = endpoints + sorted(adj.keys())
    for start in starters:
        if start in visited or start not in adj:
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
                if len(chain) > 2 and start in adj[cur] and chain[1] != start:
                    chain.append(start)
                break
            chain.append(nxt)
            visited.add(nxt)
            cur = nxt
        if len(chain) >= 2:
            pts = np.array([point_of(k) for k in chain])
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
