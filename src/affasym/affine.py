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

The chain divides by |D|^(1/4), so it breaks down on the parabolic set.  The
extended direction equation (A, B, C) = 16 D^2 (l, m, n) needs no division:
it reads only the normal w = a_u ^ a_v, whose determinant

    D = det(w, w_u, w_v)                              (= LN - M^2 identically)

gives, for (i, j) in {uu, uv, vv},

    E_ij = 4 D D_ij - 3 D_i D_j - 16 D det(w_u, w_v, w_ij)
           + 4 D_u det(w, w_v, w_ij) - 4 D_v det(w, w_u, w_ij)

and (A, B, C) = (E_uu, E_uv, E_vv).  With P_u = D w_u - D_u w / 4 one has
nu_u = |D|^(-1/4) P_u / D, so l = det(P_u, d_u P_u, P_v) / D^4 on both sides
of D = 0, and m, n likewise; expanding with det(w, w_u, w_v) = D cancels
D^2.  ``extended_bde_coeffs`` and ``second_form`` run unchanged over jets
and over ``Poly``, for every chart: a Monge graph is the chart (u, v, h), whose
tangents (1, 0, h_u) and (0, 1, h_v) carry their constant entries as floats,
so the formulas spend no product on them and give w = (-h_u, -h_v, 1) and
(L, M, N) = (h_uu, h_uv, h_vv) bit for bit.

The torus keeps its closed form: lbar and nbar are polynomials in c = cos u,
one coefficient table (``_torus_coefficients``), evaluated by one Horner
step (``_horner``) on floats, arrays and jets in ``torus_extended_bde``, and on
the table and its derivative lists in the closed-form field
``bde.torus_extended_field``.  The general formula on
its trigonometric position jets costs five to ten times as much per portrait.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from . import jets
from .jets import Jet2, JetDomainError, abs_pow

__all__ = [
    "DegenerateImmersionError",
    "ParabolicPointError",
    "AffinePointData",
    "K_ZERO_TOL",
    "euclidean_data",
    "second_form",
    "second_form_jets",
    "affine_point_data",
    "frame_jets",
    "lmn_from_frame",
    "extended_bde_coeffs",
    "torus_extended_bde",
    "cross", "dot", "det3",
]

K_ZERO_TOL = 1e-9
FLAT_UMBILIC_TOL = 1e-8    # (l, m, n) all below it in modulus: a flat affine umbilic

# Lanes per ``frame_jets`` call and per block of payload text: the frame chain
# keeps about a hundred jets alive, so one call over a whole grid holds memory
# in proportion to the grid (1024 lanes are slower, 8192 keep more memory).
_LANES = 4096


def _lane_blocks(n, width=1):
    """Slices covering range(n) of at most ``_LANES`` lanes, or of
    ``_LANES // width`` (at least one) where each lane holds ``width`` times
    its output; n = 0 is one block."""
    step = max(1, _LANES // width)
    return [slice(k, k + step) for k in range(0, max(n, 1), step)]


class DegenerateImmersionError(ArithmeticError):
    pass


class ParabolicPointError(ArithmeticError):
    """Evaluation too near the Euclidean parabolic set LN - M^2 = 0; ``point``
    is the first offending (u, v) of the batch, when known."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


# -- small vector helpers over jets, Poly, arrays or floats ------------------
# A Python float is a constant partial (``SurfaceDef.tangent_jets``): a factor
# 0.0 or 1.0 and a term 0.0 cost no product and no sum.


def _times(a, b):
    for x, y in ((a, b), (b, a)):
        if type(x) is float and (x == 0.0 or x == 1.0):
            return y if x else 0.0
    return a * b


def _plus(a, b):
    return b if type(a) is float and a == 0.0 else a if type(b) is float and b == 0.0 else a + b


def _minus(a, b):
    return a if type(b) is float and b == 0.0 else -b if type(a) is float and a == 0.0 else a - b


def _d(c, axis):
    """du (axis 0) or dv (axis 1) of a jet or Poly; 0.0 for a float."""
    return 0.0 if type(c) is float else c.du() if axis == 0 else c.dv()


def cross(a, b):
    return (_minus(_times(a[1], b[2]), _times(a[2], b[1])),
            _minus(_times(a[2], b[0]), _times(a[0], b[2])),
            _minus(_times(a[0], b[1]), _times(a[1], b[0])))


def dot(a, b):
    return _plus(_plus(_times(a[0], b[0]), _times(a[1], b[1])), _times(a[2], b[2]))


def det3(a, b, c):
    return dot(a, cross(b, c))


def _values(vec):
    return np.stack([np.asarray(c.value, dtype=float) for c in vec])


class AffinePointData:
    """The invariants of one point or of a batch of points, one attribute
    per name in ``FIELDS``: u and v as given, the others None until filled."""
    FIELDS = ("u", "v", "E", "F", "G", "Ldet", "Mdet", "Ndet", "K", "euclid_class",
              "g11", "g12", "g22", "nu", "nu_u", "nu_v", "xi", "xi_u", "xi_v",
              "l", "m", "n", "b11", "b12", "b21", "b22", "K_aff", "H_aff", "aff_class",
              "alpha_u", "alpha_v")

    def __init__(self, u=0.0, v=0.0):
        self.__dict__.update(dict.fromkeys(self.FIELDS), u=u, v=v)

    def json_columns(self):
        """(name, value) of each field a JSON row carries, in name order."""
        return sorted((name, getattr(self, name)) for name in self.FIELDS
                      if name not in ("alpha_u", "alpha_v"))

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


def second_form(au, av):
    """The determinant second-form coefficients (L, M, N) =
    (|a_u, a_v, a_uu|, |a_u, a_v, a_uv|, |a_u, a_v, a_vv|) from the tangents
    a_u, a_v: jets, Poly, or constant floats."""
    second = (tuple(_d(c, 0) for c in au), tuple(_d(c, 1) for c in au),
              tuple(_d(c, 1) for c in av))
    return tuple(det3(au, av, d) for d in second)


def second_form_jets(position_jets):
    """Tangent jets a_u, a_v and the second-form jets (L, M, N) of position
    jets."""
    au = tuple(c.du() for c in position_jets)
    av = tuple(c.dv() for c in position_jets)
    return au, av, second_form(au, av)


def euclidean_data(position_jets):
    """First/second form scalars from order->=2 position jets (batch-capable);
    no command calls it, it stays as the tests' independent reference."""
    au, av, LMN = second_form_jets(position_jets)
    return _fill_euclidean(AffinePointData(), _values(au), _values(av), *(c.value for c in LMN))


def _fill_euclidean(data, au, av, L, M, N):
    """Fill the form fields of ``data`` from values: a_u, a_v as (3, ...), L, M, N."""
    E, F, G = dot(au, au), dot(au, av), dot(av, av)
    w = cross(au, av)
    if np.any(dot(w, w) < 1e-20):
        raise DegenerateImmersionError("surface parametrization degenerates (|a_u ^ a_v| < 1e-10)")
    det_I = E * G - F * F
    data.E, data.F, data.G = E, F, G
    data.Ldet, data.Mdet, data.Ndet = L, M, N
    data.K = (L * N - M * M) / (det_I * det_I)
    data.euclid_class = _classify_array(data.K, K_ZERO_TOL, ("elliptic", "parabolic", "hyperbolic"))
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
    al = surface.eval_jets(u, v, order=order)
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


_VECTORS = ("nu", "nu_u", "nu_v", "xi", "xi_u", "xi_v", "alpha_u", "alpha_v")


def _frame_values(surface, u, v, guard):
    """The frame values ``affine_point_data`` reads, vectors as (3, ...) arrays."""
    fr = frame_jets(surface, u, v, guard=guard)
    out = {name: _values(fr[name]) for name in _VECTORS}
    out.update((name, fr[name].value) for name in ("L", "M", "N", "D"))
    out["l"], out["m"], out["n"] = (c.value for c in lmn_from_frame(fr))
    return out


def affine_point_data(surface, u, v, guard=1e-9):
    """All pointwise invariants at (u, v), or at every point of a batch when
    u and v are 1-D arrays, read from one ``frame_jets`` call per block of
    ``_LANES`` points.  A point gives the same bits alone as inside a batch,
    so the blocks join to the one-call result; a ``ParabolicPointError``
    names the first point of the whole batch where |LN - M^2| <= ``guard``."""
    surface.check_domain(u, v)
    parts = [_frame_values(surface, *(x[s] if np.ndim(x) else x for x in (u, v)), guard)
             for s in _lane_blocks(np.broadcast(u, v).size)]
    val = parts[0] if len(parts) == 1 else \
        {k: np.concatenate([p[k] for p in parts], axis=-1) for k in parts[0]}
    data = AffinePointData(u=u, v=v)
    _fill_euclidean(data, val["alpha_u"], val["alpha_v"], val["L"], val["M"], val["N"])
    for name in _VECTORS:
        setattr(data, name, val[name])
    adq = np.power(np.abs(val["D"]), 0.25)
    g11 = data.g11 = data.Ldet / adq
    g12 = data.g12 = data.Mdet / adq
    g22 = data.g22 = data.Ndet / adq
    l, m, n = data.l, data.m, data.n = val["l"], val["m"], val["n"]
    det_g = g11 * g22 - g12 * g12
    data.b11 = -(l * g22 - m * g12) / det_g
    data.b21 = -(-l * g12 + m * g11) / det_g
    data.b12 = -(m * g22 - n * g12) / det_g
    data.b22 = -(-m * g12 + n * g11) / det_g
    data.K_aff = (l * n - m * m) / det_g
    data.H_aff = (l * g22 - 2 * m * g12 + n * g11) / det_g
    data.aff_class = _classify_array(
        data.K_aff, K_ZERO_TOL, ("affine elliptic", "affine parabolic", "affine hyperbolic"))
    return data


# -- the extended direction equation ------------------------------------------


def extended_bde_coeffs(w):
    """Coefficients (A, B, C) = 16 D^2 (l, m, n) of the extended direction
    equation A du^2 + 2 B du dv + C dv^2 = 0, from the normal
    w = a_u ^ a_v alone (see the module docstring).

    ``w`` is three jets or three ``Poly``, where a float entry is a constant;
    nothing is divided, so the result is defined on the parabolic set D = 0
    itself.  Jets of order k + 3 (from order-(k + 4) positions) give jets of
    (A, B, C) of order k, or their values for k = 0.
    """
    wu = tuple(_d(c, 0) for c in w)
    wv = tuple(_d(c, 1) for c in w)
    D = det3(w, wu, wv)
    Du, Dv = _d(D, 0), _d(D, 1)
    vecs = [w, wu, wv, tuple(_d(c, 0) for c in wu), tuple(_d(c, 1) for c in wu),
            tuple(_d(c, 1) for c in wv), (D, Du, Dv, _d(Du, 0), _d(Du, 1), _d(Dv, 1))]
    jet = next((c for c in w if isinstance(c, Jet2)), None)
    if jet is not None:
        # from here on every factor is needed only to the order k of D_uu:
        # cut the jets there, to plain values at k = 0 (the same bits)
        k = jet.order - 3
        vecs = [tuple(c if type(c) is float else c.value if k == 0 else c.truncate(k)
                      for c in vec) for vec in vecs]
    w, wu, wv, w_uu, w_uv, w_vv, (D, Du, Dv, Duu, Duv, Dvv) = vecs
    n_uv, n_v, n_u = cross(wu, wv), cross(w, wv), cross(w, wu)
    out = []
    for Di, Dj, Dij, wij in ((Du, Du, Duu, w_uu), (Du, Dv, Duv, w_uv), (Dv, Dv, Dvv, w_vv)):
        out.append(4 * D * (Dij - 4 * dot(n_uv, wij)) - 3 * Di * Dj
                   + 4 * (Du * dot(n_v, wij) - Dv * dot(n_u, wij)))
    return tuple(out)


def _torus_coefficients(R, r):
    """lbar and nbar of the torus (mbar = 0) as polynomials in c = cos u:
    their coefficient lists, lowest degree first."""
    return ([-3 * R * R, -8 * r * R, 15 * R * R, 36 * r * R, 16 * r * r],
            [0.0, 0.0, 4 * R * R, 4 * r * R, 12 * R * R, 28 * r * R, 16 * r * r])


def _horner(p, x):
    """p[0] + p[1] x + p[2] x^2 + ... by Horner's rule, on floats, arrays, jets."""
    return reduce(lambda acc, a: acc * x + a, p[-2::-1], p[-1])


def torus_extended_bde(R, r, u):
    """Closed-form extended coefficients (lbar, mbar, nbar) on the torus
    ((R + r cos u) cos v, (R + r cos u) sin v, r sin u); u may be a float,
    an array, or a jet."""
    if not 0 < r < R:
        raise ValueError(f"torus needs 0 < r < R, got r={r}, R={R}")
    if isinstance(u, Jet2):
        c, mbar = jets.jet_apply_unary("cos", u), Jet2.constant(np.zeros_like(u.value), u.order)
    else:
        c, mbar = np.cos(u), np.zeros_like(np.asarray(u, dtype=float))
        mbar = mbar if mbar.ndim else 0.0
    lbar, nbar = (_horner(p, c) for p in _torus_coefficients(R, r))
    return lbar, mbar, nbar
