"""Pointwise Euclidean and equiaffine invariants of a parametrized surface.

The chain computed here, writing D = LN - M^2 for the determinant form
coefficients L = |a_u, a_v, a_uu| etc.:

    g_ij  = (L, M, N) / |D|^(1/4)                     (affine metric)
    nu    = (a_u ^ a_v) / |D|^(1/4)                   (conormal)
    xi    = sign(D) (nu_u ^ nu_v) / |D|^(1/4)         (affine normal)
    l, m, n = <nu_u, xi_u>, <nu_u, xi_v>, <nu_v, xi_v>
    b     = -(1/det g) [[l,m],[m,n]] adj(g)           (shape operator)
    K_aff = (l n - m^2)/det g,   H_aff = (l g22 - 2 m g12 + n g11)/det g

The sign factor on xi makes <nu, xi> = 1 hold on both curvature regions (the
bare cross-product formula yields <nu, xi> = sign(D)).  All derivatives come
from jet arithmetic; nothing is differenced numerically.

For Monge graphs z = h(u, v) the third-form coefficients also have closed
rational forms whose common denominator is 16 (h_uu h_vv - h_uv^2)^2.  The
numerators, negated, extend the asymptotic direction equation across the
parabolic set; see ``extended_bde_coeffs``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import jets
from .jets import Jet2, JetDomainError, abs_pow

__all__ = [
    "DegenerateImmersionError",
    "ParabolicPointError",
    "AffinePointData",
    "K_ZERO_TOL",
    "euclidean_data",
    "second_form_jets",
    "affine_point_data",
    "frame_jets",
    "lmn_from_frame",
    "monge_lmn_closed_form",
    "extended_bde_coeffs",
    "lmn_numerators",
    "torus_extended_bde",
    "cross", "dot", "det3",
]

K_ZERO_TOL = 1e-9


class DegenerateImmersionError(ArithmeticError):
    pass


class ParabolicPointError(ArithmeticError):
    """Evaluation too near the Euclidean parabolic set LN - M^2 = 0; ``point``
    is the first offending (u, v) of the batch, when known."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


# -- small vector helpers over jets or floats --------------------------------


def cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def det3(a, b, c):
    return dot(a, cross(b, c))


def _values(vec):
    return np.stack([np.asarray(c.value, dtype=float) for c in vec])


@dataclass
class AffinePointData:
    u: float = 0.0
    v: float = 0.0
    E: float = None
    F: float = None
    G: float = None
    Ldet: float = None
    Mdet: float = None
    Ndet: float = None
    K: float = None
    euclid_class: str = None
    g11: float = None
    g12: float = None
    g22: float = None
    nu: object = None
    nu_u: object = None
    nu_v: object = None
    xi: object = None
    xi_u: object = None
    xi_v: object = None
    l: float = None
    m: float = None
    n: float = None
    b11: float = None
    b12: float = None
    b21: float = None
    b22: float = None
    K_aff: float = None
    H_aff: float = None
    aff_class: str = None
    alpha_u: object = None
    alpha_v: object = None

    def json_columns(self):
        """(name, value) of each field a JSON row carries, in name order."""
        return sorted(((f.name, getattr(self, f.name)) for f in fields(self)
                       if f.name not in ("alpha_u", "alpha_v")), key=lambda p: p[0])

    def to_json_dict(self, k=None):
        """JSON-ready fields of one point: of point ``k`` of a result batched
        over a 1-D array of points, or of a single-point result."""
        out = {}
        for name, val in self.json_columns():
            if k is not None and np.ndim(val):
                val = val[k] if np.ndim(val) == 1 else val[:, k]
            if isinstance(val, np.ndarray):
                out[name] = [float(x) for x in np.atleast_1d(val)]
            elif isinstance(val, (np.floating, float, int)):
                out[name] = float(val)
            else:
                out[name] = val
        return out


def second_form_jets(position_jets):
    """Tangent jets a_u, a_v and the determinant second-form jets
    (L, M, N) = (|a_u, a_v, a_uu|, |a_u, a_v, a_uv|, |a_u, a_v, a_vv|)."""
    au = tuple(c.du() for c in position_jets)
    av = tuple(c.dv() for c in position_jets)
    second = (tuple(c.du() for c in au), tuple(c.dv() for c in au),
              tuple(c.dv() for c in av))
    return au, av, tuple(det3(au, av, d) for d in second)


def euclidean_data(position_jets, k_zero_tol=K_ZERO_TOL):
    """First/second form scalars from order->=2 position jets (batch-capable)."""
    au, av, (L, M, N) = second_form_jets(position_jets)
    return _fill_euclidean(AffinePointData(), au, av, L, M, N, k_zero_tol)


def _fill_euclidean(data, au, av, L, M, N, k_zero_tol):
    au, av = [c.value for c in au], [c.value for c in av]
    E, F, G = dot(au, au), dot(au, av), dot(av, av)
    w = cross(au, av)
    if np.any(dot(w, w) < 1e-20):
        raise DegenerateImmersionError("surface parametrization degenerates (|a_u ^ a_v| < 1e-10)")
    L, M, N = L.value, M.value, N.value
    det_I = E * G - F * F
    data.E, data.F, data.G = E, F, G
    data.Ldet, data.Mdet, data.Ndet = L, M, N
    data.K = (L * N - M * M) / (det_I * det_I)
    data.euclid_class = _classify_array(data.K, k_zero_tol, ("elliptic", "parabolic", "hyperbolic"))
    return data


def _classify_array(x, tol, labels):
    if np.ndim(x) == 0:
        hi, mid, lo = labels
        return hi if float(x) > tol else (lo if float(x) < -tol else mid)
    out = np.full(np.shape(x), labels[1], dtype=object)
    out[np.asarray(x) > tol] = labels[0]
    out[np.asarray(x) < -tol] = labels[2]
    return out


def frame_jets(surface, u, v, order=jets.DEFAULT_ORDER, guard=jets.DEFAULT_EPS, depth=3):
    """Jets of the conormal/affine-normal frame chain from position jets.

    ``depth`` controls how far the chain runs: 0 stops at the conormal nu
    (order >= 2 suffices), 1 adds nu_u and nu_v (order >= 3), 2 adds xi, and
    3 (default) adds xi_u and xi_v (order >= 4).  Orders decay along the
    chain: from order-k positions nu has order k-2 and l, m, n come out at
    order k-4.  The domain is not checked; a batch point where
    |LN - M^2| <= ``guard`` raises ``ParabolicPointError`` naming the first
    such point in batch order.
    """
    al = surface.eval_jets(u, v, order=order, check=False)
    au, av, (L, M, N) = second_form_jets(al)
    D = L * N - M * M
    try:
        winv = abs_pow(D, -0.25, eps=guard)
    except JetDomainError as exc:
        bad = np.abs(D.value) <= guard
        k = int(np.flatnonzero(bad)[0])
        point = tuple(float(np.broadcast_to(np.asarray(x, float), bad.shape).flat[k])
                      for x in (u, v))
        raise ParabolicPointError(str(exc), point) from exc
    w = cross(au, av)
    nu = tuple(c * winv for c in w)
    out = {
        "alpha": al, "alpha_u": au, "alpha_v": av,
        "L": L, "M": M, "N": N, "D": D,
        "nu": nu,
    }
    if depth < 1:
        return out
    nu_u = tuple(c.du() for c in nu)
    nu_v = tuple(c.dv() for c in nu)
    out["nu_u"], out["nu_v"] = nu_u, nu_v
    if depth < 2:
        return out
    s = np.where(D.value >= 0, 1.0, -1.0)
    winv2 = abs_pow(D.truncate(nu_u[0].order), -0.25, eps=guard)
    xi = tuple(c * winv2 * s for c in cross(nu_u, nu_v))
    out["sign"], out["xi"] = s, xi
    if depth < 3:
        return out
    out["xi_u"] = tuple(c.du() for c in xi)
    out["xi_v"] = tuple(c.dv() for c in xi)
    return out


def lmn_from_frame(fr):
    """Third-form jets (l, m, n) = (<nu_u, xi_u>, <nu_u, xi_v>, <nu_v, xi_v>)
    of a full-depth ``frame_jets`` result."""
    return (dot(fr["nu_u"], fr["xi_u"]), dot(fr["nu_u"], fr["xi_v"]),
            dot(fr["nu_v"], fr["xi_v"]))


def affine_point_data(surface, u, v, guard=jets.DEFAULT_EPS, k_zero_tol=K_ZERO_TOL):
    """All pointwise invariants at (u, v), or at every point of a batch when
    u and v are arrays, read from one ``frame_jets`` call.  A point gives the
    same bits alone as inside a batch."""
    surface.check_domain(u, v, honor_excluded=True)
    fr = frame_jets(surface, u, v, guard=guard)
    data = AffinePointData(u=u, v=v)
    _fill_euclidean(data, fr["alpha_u"], fr["alpha_v"], fr["L"], fr["M"], fr["N"], k_zero_tol)
    for name in ("nu", "nu_u", "nu_v", "xi", "xi_u", "xi_v", "alpha_u", "alpha_v"):
        setattr(data, name, _values(fr[name]))
    adq = np.power(np.abs(fr["D"].value), 0.25)
    g11 = data.g11 = data.Ldet / adq
    g12 = data.g12 = data.Mdet / adq
    g22 = data.g22 = data.Ndet / adq
    l, m, n = data.l, data.m, data.n = tuple(c.value for c in lmn_from_frame(fr))
    det_g = g11 * g22 - g12 * g12
    data.b11 = -(l * g22 - m * g12) / det_g
    data.b21 = -(-l * g12 + m * g11) / det_g
    data.b12 = -(m * g22 - n * g12) / det_g
    data.b22 = -(-m * g12 + n * g11) / det_g
    data.K_aff = (l * n - m * m) / det_g
    data.H_aff = (l * g22 - 2 * m * g12 + n * g11) / det_g
    data.aff_class = _classify_array(
        data.K_aff, k_zero_tol, ("affine elliptic", "affine parabolic", "affine hyperbolic"))
    return data


# -- Monge-chart closed forms -------------------------------------------------


def lmn_numerators(huu, huv, hvv, huuu, huuv, huvv, hvvv,
                   huuuu, huuuv, huuvv, huvvv, hvvvv):
    """Numerator polynomials of (l, m, n) over a Monge chart.

    (l, m, n) = -(bl, bm, bn) / (16 (h_uu h_vv - h_uv^2)^2).  Polynomial in
    the twelve derivative slots, so the arguments may be floats, arrays, or
    jets.  A single polynomial is valid on both sides of the parabolic set.
    """
    hd = huu * hvv - huv * huv
    bl = (-4 * (hvv * huuuu - 2 * huv * huuuv) * hd
          - 4 * huu * hd * huuvv
          + 7 * hvv * hvv * huuu * huuu
          + 3 * huu * huu * huvv * huvv
          + (-28 * huuv * huv * hvv + 2 * (huu * hvv + 8 * huv * huv) * huvv
             - 4 * hvvv * huu * huv) * huuu
          + 12 * (huu * hvv + huv * huv) * huuv * huuv
          + 4 * (huu * huu * hvvv - 6 * huu * huv * huvv) * huuv)
    bm = (-4 * (hvv * huuuv - 2 * huv * huuvv) * hd
          + (7 * hvv * hvv * huuv - 10 * huv * hvv * huvv
             + (-huu * hvv + 4 * huv * huv) * hvvv) * huuu
          - 4 * huu * hd * huvvv
          - 18 * huuv * huuv * huv * hvv
          + 7 * huvv * hvvv * huu * huu
          + ((15 * huu * hvv + 24 * huv * huv) * huvv - 10 * huu * huv * hvvv) * huuv
          - 18 * huvv * huvv * huu * huv)
    bn = (-4 * (hvv * huuvv - 2 * huv * huvvv) * hd
          - 4 * huu * hvvvv * hd
          + 4 * (-huv * hvv * hvvv + huvv * hvv * hvv) * huuu
          + 3 * huuv * huuv * hvv * hvv
          + 2 * (-12 * huv * hvv * huvv + (huu * hvv + 8 * huv * huv) * hvvv) * huuv
          + 12 * (huu * hvv + huv * huv) * huvv * huvv
          - 28 * huvv * hvvv * huu * huv
          + 7 * hvvv * hvvv * huu * huu)
    return bl, bm, bn, hd


def _partials_from_height(height_jet, as_jets):
    pairs = [(2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3),
             (4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]
    if not as_jets:
        return [height_jet.partial(i, j) for (i, j) in pairs]
    out = []
    for (i, j) in pairs:
        d = height_jet
        for _ in range(i):
            d = d.du()
        for _ in range(j):
            d = d.dv()
        out.append(d)
    return out


def monge_lmn_closed_form(height_jet, guard=jets.DEFAULT_EPS):
    """(l, m, n) for z = h(u, v) evaluated directly from the height jet.

    Pass an order-4 jet for plain values; higher orders yield jets of
    (l, m, n) of order (height order - 4).
    """
    as_jets = height_jet.order > 4
    bl, bm, bn, hd = lmn_numerators(*_partials_from_height(height_jet, as_jets))
    hdv = hd.value if as_jets else hd
    if np.any(np.abs(hdv) <= guard):
        raise ParabolicPointError("closed-form l, m, n at a parabolic point (h_uu h_vv - h_uv^2 = 0)")
    f = -1.0 / 16.0
    inv = (1.0 / (hd * hd)) if not as_jets else jets.jet_div(Jet2.constant(
        np.ones_like(hdv), hd.order), hd * hd, eps=guard ** 2)
    return (bl * inv * f, bm * inv * f, bn * inv * f)


def extended_bde_coeffs(height_jet):
    """Coefficients (A, B, C) of the extended direction equation
    A du^2 + 2 B du dv + C dv^2 = 0 for a Monge graph.

    (A, B, C) = 16 (h_uu h_vv - h_uv^2)^2 (l, m, n): a positive multiple of
    (l, m, n) away from the parabolic set, and polynomial in the derivatives
    of h, hence defined on the parabolic set itself.  Returns values for an
    order-4 height jet, jets of order (height order - 4) for higher orders.
    """
    as_jets = height_jet.order > 4
    bl, bm, bn, _ = lmn_numerators(*_partials_from_height(height_jet, as_jets))
    return (-bl, -bm, -bn)


def torus_extended_bde(R, r, u):
    """Closed-form extended coefficients (lbar, mbar, nbar) on the torus
    ((R + r cos u) cos v, (R + r cos u) sin v, r sin u); u may be a float,
    an array, or a jet."""
    if not 0 < r < R:
        raise ValueError(f"torus needs 0 < r < R, got r={r}, R={R}")
    c = jets.cos(u)
    c2 = c * c
    lbar = (15 * c2 - 3) * R ** 2 + (4 * r * R) * c * (9 * c2 - 2) + (16 * r ** 2) * c2 * c2
    nbar = 4 * c2 * ((3 * c2 + 1) * R + 4 * r * c2 * c) * (R + r * c)
    if isinstance(u, Jet2):
        mbar = Jet2.constant(np.zeros_like(u.value), u.order)
    else:
        mbar = np.zeros_like(np.asarray(u, dtype=float))
        if mbar.ndim == 0:
            mbar = 0.0
    return lbar, mbar, nbar

