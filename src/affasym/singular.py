"""Singular points of the affine asymptotic net.

Four species are located and classified:

* fold points on the degenerate-direction curve (discriminant), split into
  saddle / node / focus by the eigenvalues of the linearized lifted field;
* totally degenerate points where all three coefficients vanish (flat affine
  umbilics), split by the Morse type of the discriminant function;
* cusp-of-Gauss style tangencies, where the unique (double) direction of the
  net is tangent to the singular curve carrying it, detected on both the
  Euclidean parabolic set and the affine parabolic set;
* flat Euclidean umbilics, where the second form (L, M, N) vanishes,
  classified by the real-root count of the cubic read from its first
  derivatives, on any chart; ``blowup_radial_coeffs`` gives a field's polar
  blow-up coefficients at such a point.

Eigenvalues of the restriction of the lifted linearization to the lifted
surface are obtained from the trace and second elementary symmetric function
of the full 3x3 Jacobian: the lifted field annihilates F identically, so at
a zero of the field the Jacobian maps everything into the tangent plane of
{F = 0} and its spectrum is {0, mu1, mu2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bde
from .jets import Jet2
from .surface import EvalError

__all__ = [
    "SingularPointReport",
    "NotSingularLiftError",
    "DegenerateHessianError",
    "NotFlatUmbilicError",
    "FOLD_KINDS",
    "restricted_eigenvalues",
    "find_folded_points",
    "classify_folded",
    "classify_flat_affine_umbilic",
    "singular_sets",
    "detect_special_points",
    "classify_flat_euclid_umbilic",
    "blowup_radial_coeffs",
]

FOLD_KINDS = ("folded_saddle", "folded_node", "folded_focus")

LAMBDA_EDGE_TOL = 1e-6
ANGLE_TOL = 1e-3
FLAT_TOL = 1e-10


class NotSingularLiftError(ArithmeticError):
    pass


class DegenerateHessianError(ArithmeticError):
    pass


class NotFlatUmbilicError(ArithmeticError):
    pass


@dataclass
class SingularPointReport:
    location: tuple
    kind: str
    lambda_invariant: float = None
    eigenvalues: list = field(default_factory=list)
    tangency_angle: float = None
    details: dict = field(default_factory=dict)

    def to_json_dict(self):
        eig = []
        for z in self.eigenvalues:
            z = complex(z)
            eig.append([z.real, z.imag])
        out = {
            "location": [float(self.location[0]), float(self.location[1])],
            "kind": self.kind,
            "eigenvalues": eig,
        }
        if self.lambda_invariant is not None:
            out["lambda_invariant"] = float(self.lambda_invariant)
        if self.tangency_angle is not None:
            out["tangency_angle"] = float(self.tangency_angle)
        if self.details:
            out["details"] = {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                              for k, v in self.details.items()}
        return out


def restricted_eigenvalues(J):
    """Eigenvalues of DX restricted to the lifted surface at a field zero.

    With {0, mu1, mu2} the full spectrum, mu1 and mu2 solve
    mu^2 - tr(J) mu + e2(J) = 0.
    """
    tr = float(np.trace(J))
    e2 = float((np.trace(J) ** 2 - np.trace(J @ J)) / 2.0)
    disc = tr * tr - 4.0 * e2
    if disc >= 0:
        rt = math.sqrt(disc)
        return ((tr + rt) / 2.0, (tr - rt) / 2.0), tr, e2
    rt = math.sqrt(-disc)
    return (complex(tr / 2.0, rt / 2.0), complex(tr / 2.0, -rt / 2.0)), tr, e2


def _double_roots(fld, u, v, order):
    """The slots of ``fld`` up to ``order`` at (u, v), one point or a batch,
    and per point the slope of the double root and whether its chart is q:
    -B/C in chart p where |C| >= |A| (0.0 where C = 0 there), else -B/A."""
    c = fld.slots(u, v, order)
    n = len(c) // 3
    A, B, C = c[0], c[n], c[2 * n]
    chart_q = ~(np.abs(C) >= np.abs(A))
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(chart_q, -B / A, np.where(C != 0, -B / C, 0.0))
    return c, slope, chart_q


def _along(poly, signal):
    """``signal(lanes)`` at the vertices ``poly[lanes]`` of a polyline, for
    all of them in one batch; a vertex whose evaluation raises an
    ArithmeticError gets NaN."""
    res, errors = bde._lanewise(lambda sl: (signal(sl),), len(poly))
    if errors is None:
        return res[0]
    out = np.full(len(poly), np.nan)
    ok = np.array([e is None for e in errors])
    if ok.any():
        out[ok] = res[0]
    return out


def _fold_signal(fld, poly):
    """Third lifted component at the double-root lift of each vertex; fold
    points are its zeros along the discriminant."""
    def signal(sl):
        c, slope, chart_q = _double_roots(fld, poly[sl, 0], poly[sl, 1], 1)
        return bde.lifted_velocity(c, slope, chart_q)[0][:, 2]
    return _along(poly, signal)


def _sign_changes(poly, signal):
    """The edges (k, k + 1) of a polyline where both signal values are
    finite and their product is not positive: the values at both ends and
    the interpolated zero of the signal."""
    a, b = signal[:-1], signal[1:]
    k = np.flatnonzero(np.isfinite(a) & np.isfinite(b) & ~(a * b > 0))
    a, b = a[k], b[k]
    with np.errstate(invalid="ignore"):
        t = np.where(a == b, 0.5, np.abs(a) / (np.abs(a) + np.abs(b)))
    return a, b, t, (1 - t)[:, None] * poly[k] + t[:, None] * poly[k + 1]


def find_folded_points(fld, discriminant_polylines):
    """Fold-point candidates: zeros of the lifted field over the discriminant.

    Evaluates the vertical component of the lifted field along the
    double-root section of each traced polyline in one batch, then polishes
    each sign change with a 3D Newton iteration on
    (F, F_slope, vertical component) = 0.
    """
    candidates = []
    for poly in discriminant_polylines:
        if len(poly) < 2:
            continue
        for seed in _sign_changes(poly, _fold_signal(fld, poly))[3]:
            pt = _newton_fold(fld, seed[0], seed[1])
            if pt is not None:
                candidates.append(pt)
    return _merged(sorted(candidates), lambda pt: pt, 1e-7)


def _merged(items, location, radius):
    """The items, in their order, without those within ``radius`` of an
    earlier kept one."""
    kept = []
    for it in items:
        p = location(it)
        if all(math.hypot(p[0] - k[0], p[1] - k[1]) > radius for k in map(location, kept)):
            kept.append(it)
    return kept


def _newton_fold(fld, u, v):
    _, slope, chart_q = _double_roots(fld, u, v, 0)
    x = np.array([u, v, float(slope)])
    for _ in range(25):
        try:
            c = fld.slots(x[0], x[1], 2)
        except (ArithmeticError, EvalError):
            return None
        s, q = x[2], int(chart_q)
        Fval, grad, Jx = bde.lifted_derivatives(c, s, chart_q)
        # (F, F_slope, G = -X_3 = F_x + s F_y), x the chart's first
        # coordinate: u in chart p, v in chart q; rows their gradients
        Fvec = np.array([Fval, grad[2], grad[q] + s * grad[1 - q]])
        scale = max(abs(float(c[0])), abs(float(c[6])), abs(float(c[12])), 1e-30)
        if np.max(np.abs(Fvec)) < 1e-9 * scale:
            return (float(x[0]), float(x[1]))
        J = np.array([grad, Jx[q], -Jx[2]])
        try:
            dx = np.linalg.solve(J, -Fvec)
        except np.linalg.LinAlgError:
            return None
        step = float(np.max(np.abs(dx)))
        if step > 0.5:
            dx = dx * (0.5 / step)
        x = x + dx
        if abs(x[2]) > 2.0:  # switch slope chart when it degrades
            chart_q = not chart_q
            x[2] = 1.0 / x[2]
    return None


def classify_folded(fld, point):
    """Linearize the lifted field at the double-root lift of a fold point."""
    u, v = point
    c, slope, chart_q = _double_roots(fld, u, v, 2)
    slope, chart_q = float(slope), bool(chart_q)
    X, scale = bde.lifted_velocity(c, slope, chart_q)
    scale = max(float(scale), 1e-30)
    if np.linalg.norm(X) > 1e-6 * scale:
        raise NotSingularLiftError(
            f"lifted field does not vanish at {point}: |X| = {np.linalg.norm(X):.3e}")
    (mu1, mu2), tr, e2 = restricted_eigenvalues(bde.lifted_derivatives(c, slope, chart_q)[2])
    if tr == 0:
        lam = math.inf if e2 > 0 else (-math.inf if e2 < 0 else float("nan"))
    else:
        lam = e2 / (4.0 * tr * tr)
    if lam < -LAMBDA_EDGE_TOL:
        kind = "folded_saddle"
    elif LAMBDA_EDGE_TOL < lam < 1.0 / 16.0 - LAMBDA_EDGE_TOL:
        kind = "folded_node"
    elif lam > 1.0 / 16.0 + LAMBDA_EDGE_TOL:
        kind = "folded_focus"
    else:
        kind = "boundary_uncertain"
    return SingularPointReport((u, v), kind, lambda_invariant=lam,
                               eigenvalues=[mu1, mu2],
                               details={"trace": tr, "e2": e2,
                                        "slope": slope, "chart": "q" if chart_q else "p"})


def classify_flat_affine_umbilic(fld, point):
    """Morse classification at a point where all three coefficients vanish."""
    u, v = point
    c = fld.slots(u, v, 2)
    Aj, Bj, Cj = (Jet2(2, x) for x in c.reshape(3, 6))
    A0, B0, C0 = (float(j.value) for j in (Aj, Bj, Cj))
    scale = max(max(abs(float(j.partial(1, 0))), abs(float(j.partial(0, 1))))
                for j in (Aj, Bj, Cj))
    scale = max(scale, 1e-30)
    if max(abs(A0), abs(B0), abs(C0)) > bde.DEGENERATE_TOL * max(1.0, scale):
        raise NotFlatUmbilicError(f"coefficients do not all vanish at {point}")
    delta = Bj * Bj - Aj * Cj
    H = np.array([[float(delta.partial(2, 0)), float(delta.partial(1, 1))],
                  [float(delta.partial(1, 1)), float(delta.partial(0, 2))]])
    detH = float(np.linalg.det(H))
    if abs(detH) <= 1e-10 * scale ** 2:
        raise DegenerateHessianError(f"discriminant Hessian is degenerate at {point}")
    if detH > 0:
        if H[0, 0] < 0:
            raise DegenerateHessianError(
                "negative-definite discriminant Hessian: inconsistent with a "
                "direction-equation discriminant")
        eps1, kind = 1, "morse_isolated"
    else:
        eps1, kind = -1, "morse_crossing"

    # lifted singularities along the fiber: zeros of the vertical component,
    # a cubic in the slope
    Au, Av = float(Aj.partial(1, 0)), float(Aj.partial(0, 1))
    Bu, Bv = float(Bj.partial(1, 0)), float(Bj.partial(0, 1))
    Cu, Cv = float(Cj.partial(1, 0)), float(Cj.partial(0, 1))
    cubic = [Cv, Cu + 2 * Bv, 2 * Bu + Av, Au]  # highest power first
    roots = np.roots(cubic) if any(abs(c) > 0 for c in cubic) else np.array([])
    lifts = [(float(z.real), False)
             for z in sorted(roots, key=lambda z: (round(z.real, 12), round(z.imag, 12)))
             if abs(z.imag) <= 1e-9 * max(1.0, abs(z))]
    if abs(Cv) <= 1e-12 * max(1.0, max(abs(c) for c in cubic)):
        lifts.append((0.0, True))   # the root at du = 0, in chart q
    lifted = []
    for slope, chart_q in lifts:
        (mu1, mu2), tr, e2 = restricted_eigenvalues(bde.lifted_derivatives(c, slope, chart_q)[2])
        lifted.append({"slope": slope, "eigenvalues": [mu1, mu2],
                       "saddle": not isinstance(mu1, complex) and e2 < 0})
    eigs = []
    for entry in lifted:
        eigs.extend(entry["eigenvalues"])
    return SingularPointReport((u, v), kind,
                               eigenvalues=eigs,
                               details={"epsilon1": eps1,
                                        "hessian": [[H[0, 0], H[0, 1]], [H[1, 0], H[1, 1]]],
                                        "lifted_singularities": len(lifted),
                                        "lifted_slopes": [e["slope"] for e in lifted],
                                        "lifted_saddles": sum(1 for e in lifted if e["saddle"])})


# -- tangency scanning along singular curves -----------------------------------


def _polyline_tangents(poly):
    t = np.empty_like(poly)
    t[1:-1] = poly[2:] - poly[:-2]
    t[0] = poly[1] - poly[0]
    t[-1] = poly[-1] - poly[-2]
    norms = np.hypot(t[:, 0], t[:, 1])
    norms[norms == 0] = 1.0
    return t / norms[:, None]


def _tangency_signal(fld, poly):
    """Signed sine of the angle between the double direction and the curve
    at each vertex."""
    tangents = _polyline_tangents(poly)

    def signal(sl):
        _, slope, chart_q = _double_roots(fld, poly[sl, 0], poly[sl, 1], 0)
        du, dv = np.where(chart_q, slope, 1.0), np.where(chart_q, 1.0, slope)
        # math.hypot per vertex: np.hypot may round differently
        h = np.array([math.hypot(a, b) for a, b in zip(du.tolist(), dv.tolist())])
        return du / h * tangents[sl, 1] - dv / h * tangents[sl, 0]
    return _along(poly, signal)


def scan_tangency(fld, polylines, kind_label, merge_radius=0.0):
    """Flag zero crossings of the tangency angle along traced curves.

    Curves where the direction is tangent identically (solution curves of the
    net, e.g. the profile circles of a surface of revolution) produce no
    flags: a crossing requires the signal to exceed the noise floor somewhere
    on the component.
    """
    reports = []
    for poly in polylines:
        if len(poly) < 3:
            continue
        s = _tangency_signal(fld, poly)
        if not np.isfinite(s).any() or np.nanmax(np.abs(s)) < 1e-6:
            continue
        a, b, t, loc = _sign_changes(poly, s)
        angle = np.abs((1 - t) * a + t * b)
        for k in np.flatnonzero(~((a == 0) & (b == 0)) & (angle < ANGLE_TOL)):
            reports.append(SingularPointReport(
                (float(loc[k, 0]), float(loc[k, 1])), kind_label,
                tangency_angle=float(angle[k])))
    reports.sort(key=lambda r: r.location)
    if merge_radius > 0:
        reports = _merged(reports, lambda r: r.location, merge_radius)
    return reports


def singular_sets(euclid, fld, region, resolution):
    """Trace the singular sets of a surface's asymptotic net once.

    ``euclid`` and ``fld`` are the surface's Euclidean second form and
    extended field (``bde.euclidean_field_for``, ``bde.extended_field_for``).
    Returns polylines keyed
    ``parabolic`` (zero Gaussian curvature, LN - M^2 = 0), ``affine_parabolic``
    (components of the extended discriminant away from the parabolic set) and
    ``discriminant`` (the remaining components, which lie inside the parabolic
    set, where the extension degenerates).
    """
    def kscalar(u, v):
        L, M, N = euclid.coeff(u, v)
        return L * N - M * M

    parabolic = bde.trace_zero_set(kscalar, region, resolution)
    ext_disc = bde.trace_zero_set(lambda u, v: bde.discriminant(fld, u, v), region, resolution)
    # |K| scale over a 33 x 33 grid of the region (not its diagonal, where
    # K may vanish identically)
    ug, vg = np.meshgrid(np.linspace(region.u0, region.u1, 33),
                         np.linspace(region.v0, region.v1, 33), indexing="ij")
    kscale = np.nanmax(np.abs(np.asarray(kscalar(ug, vg)))) or 1.0
    affine_parabolic, rest = [], []
    for poly in ext_disc:
        ks = np.sort(np.abs(np.asarray(kscalar(poly[:, 0], poly[:, 1]))), axis=None)
        # np.median (NaN sorts last) without its numpy.ma import on first call
        med = np.nan if np.isnan(ks[-1]) else ks[(len(ks) - 1) // 2:len(ks) // 2 + 1].mean()
        (affine_parabolic if med > 1e-7 * kscale else rest).append(poly)
    return {"parabolic": parabolic, "affine_parabolic": affine_parabolic,
            "discriminant": rest}


def detect_special_points(euclid, fld, sets, region, resolution):
    """Cusp-of-Gauss style tangency points on both parabolic sets.

    ``sets`` are the ``singular_sets`` of the surface, traced from its
    Euclidean and extended fields ``euclid`` and ``fld`` over ``region`` at
    ``resolution``.  Along the
    Euclidean parabolic set and the affine parabolic set, computes the
    unique double direction of the matching direction equation and flags
    sign-changing tangencies.  Where the two sets meet, the meeting is
    reported with a tangential/transversal marker.
    """
    parabolic, affine_parabolic = sets["parabolic"], sets["affine_parabolic"]
    cell = max(region.u1 - region.u0, region.v1 - region.v0) / resolution
    reports = scan_tangency(euclid, parabolic, "cusp_of_gauss", merge_radius=3 * cell)
    reports += scan_tangency(fld, affine_parabolic, "affine_cusp_of_gauss",
                             merge_radius=3 * cell)

    # meetings of the two sets: tangential per the double-direction test
    for pa in parabolic:
        for pb in affine_parabolic:
            meet = _closest_pair(pa, pb)
            if meet is None:
                continue
            (ka, kb, dist) = meet
            if dist > 2.0 * cell:
                continue
            ta = _polyline_tangents(pa)[ka]
            tb = _polyline_tangents(pb)[kb]
            sine = abs(ta[0] * tb[1] - ta[1] * tb[0])
            loc = 0.5 * (pa[ka] + pb[kb])
            reports.append(SingularPointReport(
                (float(loc[0]), float(loc[1])),
                "parabolic_meeting",
                tangency_angle=float(sine),
                details={"tangential": bool(sine < math.sqrt(max(dist, 1e-12)) + 5e-2)}))
    reports.sort(key=lambda r: (r.kind, r.location))
    return reports


def _closest_pair(pa, pb):
    best = None
    for ka in range(0, len(pa), max(1, len(pa) // 128)):
        d = np.hypot(pb[:, 0] - pa[ka, 0], pb[:, 1] - pa[ka, 1])
        kb = int(np.argmin(d))
        if best is None or d[kb] < best[2]:
            best = (ka, kb, float(d[kb]))
    return best


# -- flat Euclidean umbilics ---------------------------------------------------


def _cubic_real_root_count(a, b, c, d):
    """Real roots of a t^3 + b t^2 + c t + d (3 distinct -> +1, 1 -> -1)."""
    disc = (18 * a * b * c * d - 4 * b ** 3 * d + b * b * c * c
            - 4 * a * c ** 3 - 27 * a * a * d * d)
    return 3 if disc > 0 else 1


def blowup_radial_coeffs(fld, t):
    """Polar blow-up coefficients (Abar, Bbar, Cbar) at angle t.

    For a field with homogeneous quadratic coefficients the r-dependence
    cancels exactly, so r = 0 is evaluated at r = 1e-3.
    """
    rr = 1e-3
    u, v = rr * np.cos(t), rr * np.sin(t)
    A, B, C = fld.coeff(u, v)
    ct, st = np.cos(t), np.sin(t)
    Abar = (A * ct * ct + 2 * B * ct * st + C * st * st) / rr ** 2
    Bbar = (-A * ct * st + B * (ct * ct - st * st) + C * st * ct) / rr ** 2
    Cbar = (A * st * st - 2 * B * ct * st + C * ct * ct) / rr ** 2
    return Abar, Bbar, Cbar


def classify_flat_euclid_umbilic(surf, point=(0.0, 0.0)):
    """Classification at a flat umbilic, where the second form (L, M, N)
    vanishes: either no asymptotic net nearby, or a topological focus.

    The chart is any chart.  In its coordinates, the height over the tangent
    plane at the point has a zero 2-jet and, times |a_u ^ a_v|, the cubic
    part c30 u^3 + c21 u^2 v + c12 u v^2 + c03 v^3, whose Hessian is
    (L, M, N) to first order (the shape operator vanishes at the point):
    c30 = L_u/6, c21 = L_v/2 = M_u/2, c12 = M_v/2 = N_u/2 and c03 = N_v/6.
    ``delta_max_punctured`` is the largest extended discriminant on a
    21 x 21 grid of half-width 1e-2 around the point, the point left out."""
    u0, v0 = point
    L, M, N = bde.euclidean_field_for(surf).jet_coeff(u0, v0, 1)
    if max(abs(float(j.value)) for j in (L, M, N)) > FLAT_TOL:
        raise NotFlatUmbilicError(f"second form (L, M, N) does not vanish at {point}")
    c30 = float(L.partial(1, 0)) / 6.0
    c21 = float(L.partial(0, 1)) / 2.0
    c12 = float(M.partial(0, 1)) / 2.0
    c03 = float(N.partial(0, 1)) / 6.0
    if max(abs(c30), abs(c21), abs(c12), abs(c03)) < FLAT_TOL:
        raise NotFlatUmbilicError("cubic part vanishes; point is flatter than a cubic flat point")
    roots = _cubic_real_root_count(c30, c21, c12, c03) if abs(c30) > FLAT_TOL else \
        _cubic_real_root_count(c03, c12, c21, c30)
    eps = -1 if roots == 3 else 1

    ext = bde.extended_field_for(surf)
    xs = np.linspace(u0 - 1e-2, u0 + 1e-2, 21)
    ys = np.linspace(v0 - 1e-2, v0 + 1e-2, 21)
    U, V = np.meshgrid(xs, ys, indexing="ij")
    mask = (np.abs(U - u0) > 1e-12) | (np.abs(V - v0) > 1e-12)
    delta = bde.discriminant(ext, U, V)
    details = {"epsilon": eps, "delta_max_punctured": float(np.max(delta[mask]))}

    kind = "flat_euclid_umbilic_no_lines" if eps == 1 else "flat_euclid_umbilic_focus"
    return SingularPointReport((float(u0), float(v0)), kind, details=details)
