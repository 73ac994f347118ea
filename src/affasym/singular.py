"""Singular points of the affine asymptotic net.

Three species are located and classified:

* fold points of a direction equation on its discriminant, where the
  unique (double) direction is tangent to the curve carrying it, split into
  saddle / node / focus by the eigenvalues of the linearized lifted field:
  on the extended discriminant (the paper's affine cusp points are those on
  its affine parabolic part) and, for the Euclidean second form, on the
  parabolic set (the cusps of Gauss);
* totally degenerate points where all three coefficients vanish (flat affine
  umbilics), split by the Morse type of the discriminant function;
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

import numpy as np

from . import bde

__all__ = [
    "SingularPointReport",
    "NotSingularLiftError",
    "DegenerateHessianError",
    "NotFlatUmbilicError",
    "FOLD_KINDS",
    "restricted_eigenvalues",
    "find_folded_points",
    "classify_folded",
    "fold_reports",
    "classify_flat_affine_umbilic",
    "singular_sets",
    "detect_special_points",
    "classify_flat_euclid_umbilic",
    "blowup_radial_coeffs",
]

FOLD_KINDS = ("folded_saddle", "folded_node", "folded_focus")

LAMBDA_EDGE_TOL = 1e-6
FLAT_TOL = 1e-10


class NotSingularLiftError(ArithmeticError):
    pass


class DegenerateHessianError(ArithmeticError):
    pass


class NotFlatUmbilicError(ArithmeticError):
    pass


class SingularPointReport:
    def __init__(self, location, kind, lambda_invariant=None, eigenvalues=None, details=None):
        self.location, self.kind, self.lambda_invariant = location, kind, lambda_invariant
        self.eigenvalues = [] if eigenvalues is None else eigenvalues
        self.details = {} if details is None else details

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


def _fold_signal(fld, poly):
    """Third lifted component at the double-root lift of each vertex, and
    the coefficient scale max(|A|, |B|, |C|) there; a vertex whose
    evaluation raises an ArithmeticError gets NaN.  The component is
    multiplied by the orientation of the double direction, (1, s) in chart p
    and (s, 1) in chart q, carried from vertex to vertex as the integrator
    carries its reference direction: a chart switch at slope s scales the
    direction by 1/s and the component by 1/s^3, so a sign change that
    survives is a zero.  Fold points are its zeros along the discriminant."""
    def signal(sl):
        c = fld.slots(poly[sl, 0], poly[sl, 1], 1)
        slope, chart_q = bde.double_root(c)
        X, scale = bde.lifted_velocity(c, slope, chart_q)
        return (np.column_stack([X[:, 2], np.where(chart_q, slope, 1.0),
                                 np.where(chart_q, 1.0, slope), scale]),)

    res, errors = bde._lanewise(signal, len(poly))
    out = np.full((len(poly), 4), np.nan)
    ok = np.array([e is None for e in errors], dtype=bool)
    if res is not None:
        out[ok] = res[0]
    k = np.flatnonzero(np.isfinite(out).all(axis=1))
    d = out[k, 1:3]
    turn = np.vecdot(d[1:], d[:-1]) < 0
    out[k[1:], 0] *= np.cumprod(np.where(turn, -1.0, 1.0))
    return out[:, 0], out[:, 3]


def _sign_changes(poly, signal):
    """The interpolated zeros of the signal on the edges (k, k + 1) of a
    polyline where both values are finite and their signs' product is not
    positive (the values' own product can underflow or overflow).  The
    fraction is taken from the halved absolute values, whose sum cannot
    overflow."""
    a, b = signal[:-1], signal[1:]
    k = np.flatnonzero(np.isfinite(a) & np.isfinite(b) & ~(np.sign(a) * np.sign(b) > 0))
    a, b = 0.5 * np.abs(a[k]), 0.5 * np.abs(b[k])
    with np.errstate(invalid="ignore"):
        t = np.where(a == b, 0.5, a / (a + b))
    return (1 - t)[:, None] * poly[k] + t[:, None] * poly[k + 1]


def _reach(region, resolution):
    """Three trace cells: how far a polished point may lie from its seed, and
    how near two reports must lie to share one ring of portrait seeds."""
    return 3 * max(region.u1 - region.u0, region.v1 - region.v0) / resolution


def find_folded_points(fld, polylines, region, resolution, drop=None):
    """Fold points: zeros of the lifted field over the discriminant of ``fld``.

    ``polylines`` are traced at ``resolution`` over ``region``.  Evaluates
    the fold signal along each polyline in one batch, then polishes each
    sign change with a 3D Newton iteration on (F, F_slope, vertical
    component) = 0.  A polyline whose signal stays
    within 1e-9 of the coefficient scale is a solution curve of the field,
    where the lifted field vanishes identically, and gives no seeds.  A
    seed whose Newton polish fails, and a Newton result outside the region
    or more than 3 trace cells from its seed, are dropped and passed to
    ``drop(stage, exc, location)``.
    """
    reach = _reach(region, resolution)
    candidates = []
    for poly in polylines:
        if len(poly) < 2:
            continue
        signal, scale = _fold_signal(fld, poly)
        if not (np.abs(signal) > 1e-9 * scale).any():
            continue
        for seed in _sign_changes(poly, signal):
            start = f"Newton from ({seed[0]:.6g}, {seed[1]:.6g})"
            try:
                pt = _newton_fold(fld, seed[0], seed[1])
            except ArithmeticError as exc:
                if drop is not None:
                    drop("find_folded_points", ArithmeticError(f"{start} {exc}"), tuple(seed))
                continue
            inside, gap = region.contains(*pt), math.hypot(pt[0] - seed[0], pt[1] - seed[1])
            if inside and gap <= reach:
                candidates.append(pt)
            elif drop is not None:
                where = f"{gap:.3g} from its seed" if inside else "outside the region"
                drop("find_folded_points", ArithmeticError(f"{start} ends {where}"), pt)
    kept = []    # in order, without a point within 1e-7 of an earlier kept one
    for pt in sorted(candidates):
        if all(math.hypot(pt[0] - k[0], pt[1] - k[1]) > 1e-7 for k in kept):
            kept.append(pt)
    return kept


def _newton_fold(fld, u, v):
    """The fold polished from the seed (u, v); an ArithmeticError says why not."""
    slope, chart_q = bde.double_root(fld.slots(u, v, 0))
    x = np.array([u, v, float(slope)])
    for _ in range(25):
        try:
            c = fld.slots(x[0], x[1], 2)
        except ArithmeticError as exc:
            raise ArithmeticError(f"stops where the slots raise {exc!r}") from None
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
            raise ArithmeticError("meets a singular Jacobian") from None
        step = float(np.max(np.abs(dx)))
        if step > 0.5:
            dx = dx * (0.5 / step)
        x = x + dx
        if abs(x[2]) > 2.0:  # switch slope chart when it degrades
            chart_q = not chart_q
            x[2] = 1.0 / x[2]
    raise ArithmeticError("does not converge in 25 steps")


def classify_folded(fld, point):
    """Linearize the lifted field at the double-root lift of a fold point."""
    u, v = point
    c = fld.slots(u, v, 2)
    slope, chart_q = bde.double_root(c)
    slope, chart_q = float(slope), bool(chart_q)
    X, scale = bde.lifted_velocity(c, slope, chart_q)
    scale = max(float(scale), 1e-30)
    if np.linalg.norm(X) > 1e-6 * scale:
        raise NotSingularLiftError(
            f"lifted field does not vanish at {point}: |X| = {np.linalg.norm(X):.3e}")
    # J scaled exactly by 2^-e to max|J| < 1: lam = e2 / (4 tr^2) cannot underflow or overflow
    J = bde.lifted_derivatives(c, slope, chart_q)[2]
    e = math.frexp(float(np.max(np.abs(J))))[1]
    (mu1, mu2), tr, e2 = restricted_eigenvalues(np.ldexp(J, -e))
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
    mu1, mu2 = (complex(math.ldexp(z.real, e), math.ldexp(z.imag, e)) if isinstance(z, complex)
                else math.ldexp(z, e) for z in (mu1, mu2))
    return SingularPointReport((u, v), kind, lambda_invariant=lam,
                               eigenvalues=[mu1, mu2],
                               details={"trace": math.ldexp(tr, e), "e2": math.ldexp(e2, 2 * e),
                                        "slope": slope, "chart": "q" if chart_q else "p"})


def fold_reports(fld, polylines, region, resolution, drop):
    """``classify_folded`` at each of the ``find_folded_points``; one where it
    raises an ArithmeticError goes to ``drop("classify_folded", exc, point)``."""
    reports = []
    for pt in find_folded_points(fld, polylines, region, resolution, drop):
        try:
            reports.append(classify_folded(fld, pt))
        except ArithmeticError as exc:
            drop("classify_folded", exc, pt)
    return reports


def classify_flat_affine_umbilic(fld, point):
    """Morse classification at a point where all three coefficients vanish."""
    u, v = point
    c = fld.slots(u, v, 2)
    g = c.reshape(3, 6)[:, :3]    # rows A, B, C: value, d/du, d/dv
    (A0, Au, Av), (B0, Bu, Bv), (C0, Cu, Cv) = g.tolist()
    scale = max(float(np.max(np.abs(g[:, 1:]))), 1e-30)
    if max(abs(A0), abs(B0), abs(C0)) > bde.DEGENERATE_TOL * max(1.0, scale):
        raise NotFlatUmbilicError(f"coefficients do not all vanish at {point}")
    # the Hessian of delta = B^2 - AC where A = B = C = 0, from the gradients
    gA, gB, gC = g[:, 1:]
    H = 2.0 * np.outer(gB, gB) - (np.outer(gA, gC) + np.outer(gC, gA))
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


def singular_sets(euclid, fld, region, resolution):
    """Trace the singular sets of an asymptotic net once.

    ``euclid`` and ``fld`` are a surface's Euclidean second form and
    extended field (``bde.euclidean_field_for``, ``bde.extended_field_for``).
    Returns polylines keyed
    ``parabolic`` (zero Gaussian curvature, LN - M^2 = 0), ``affine_parabolic``
    (components of the extended discriminant away from the parabolic set) and
    ``discriminant`` (the remaining components, which lie inside the parabolic
    set, where the extension degenerates).  For a field given alone
    ``euclid`` is None, and the whole discriminant of ``fld`` is
    ``discriminant``, the one key.
    """
    ext_disc = bde.trace_zero_set(lambda u, v: bde.discriminant(fld, u, v), region, resolution)
    if euclid is None:
        return {"discriminant": ext_disc}

    def kscalar(u, v):
        L, M, N = euclid.coeff(u, v)
        return L * N - M * M

    parabolic = bde.trace_zero_set(kscalar, region, resolution)
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


def detect_special_points(euclid, sets, region, resolution, drop):
    """Cusps of Gauss, and the meetings of the two parabolic sets.

    ``sets`` are the ``singular_sets`` of the surface, traced from its
    Euclidean and extended fields over ``region`` at ``resolution``;
    ``euclid`` is the Euclidean one.  A cusp of Gauss is a fold of the
    Euclidean direction equation on the parabolic set, where its double
    direction is tangent to that set: ``fold_reports`` on ``euclid`` finds
    it, and it is reported as ``cusp_of_gauss`` with its fold kind in
    ``details``.  (The affine cusp points, the folds of the extended field
    on the affine parabolic set, are found with the rest of the extended
    discriminant's folds.)  Where the two parabolic sets meet, the meeting
    is reported with the sine of their angle and a tangential/transversal
    marker.  Searches and reports that fail go to
    ``drop(stage, exc, location)``.
    """
    parabolic, affine_parabolic = sets["parabolic"], sets["affine_parabolic"]
    reports = fold_reports(euclid, parabolic, region, resolution, drop)
    for rep in reports:
        rep.details["fold_kind"], rep.kind = rep.kind, "cusp_of_gauss"

    cell = max(region.u1 - region.u0, region.v1 - region.v0) / resolution
    for pa in parabolic:
        for pb in affine_parabolic:
            meet = _closest_pair(pa, pb)
            if meet is None:
                continue
            (ka, kb, dist) = meet
            if dist > 2.0 * cell:
                continue
            ta, tb = _tangent(pa, ka), _tangent(pb, kb)
            sine = abs(ta[0] * tb[1] - ta[1] * tb[0])
            loc = 0.5 * (pa[ka] + pb[kb])
            reports.append(SingularPointReport(
                (float(loc[0]), float(loc[1])), "parabolic_meeting",
                details={"sine": float(sine),
                         "tangential": bool(sine < math.sqrt(max(dist, 1e-12)) + 5e-2)}))
    reports.sort(key=lambda r: (r.kind, r.location))
    return reports


def _tangent(poly, k):
    """Unit tangent of a polyline at vertex k, from its neighbours."""
    t = poly[min(k + 1, len(poly) - 1)] - poly[max(k - 1, 0)]
    n = math.hypot(t[0], t[1])
    return t / n if n else t


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
    """Polar blow-up coefficients (Abar, Bbar, Cbar) at angle t of a field
    whose coefficients vanish to second order at the origin: the leading
    terms in r, read from the quadratic part of the order-2 slots there."""
    ct, st = np.cos(t), np.sin(t)
    # the quadratic part of (A, B, C) on the unit circle, from the raw
    # partials uu, uv and vv
    A, B, C = np.tensordot(fld.slots(0.0, 0.0, 2).reshape(3, 6)[:, 3:],
                           np.array([0.5 * ct * ct, ct * st, 0.5 * st * st]), 1)
    Abar = A * ct * ct + 2 * B * ct * st + C * st * st
    Bbar = -A * ct * st + B * (ct * ct - st * st) + C * st * ct
    Cbar = A * st * st - 2 * B * ct * st + C * ct * ct
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
    c = bde.euclidean_field_for(surf).slots(u0, v0, 1).reshape(3, 3).tolist()
    if max(abs(row[0]) for row in c) > FLAT_TOL:
        raise NotFlatUmbilicError(f"second form (L, M, N) does not vanish at {point}")
    (_, L_u, L_v), (_, _, M_v), (_, _, N_v) = c    # rows L, M, N: value, d/du, d/dv
    c30, c21, c12, c03 = L_u / 6.0, L_v / 2.0, M_v / 2.0, N_v / 6.0
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
