"""Singular points of the affine asymptotic net.

Four species are located and classified:

* fold points on the degenerate-direction curve (discriminant), split into
  saddle / node / focus by the eigenvalues of the linearized lifted field;
* totally degenerate points where all three coefficients vanish (flat affine
  umbilics), split by the Morse type of the discriminant function;
* cusp-of-Gauss style tangencies, where the unique (double) direction of the
  net is tangent to the singular curve carrying it, detected on both the
  Euclidean parabolic set and the affine parabolic set;
* flat Euclidean umbilics, classified by the real-root count of the cubic
  part of the height function, with a polar blow-up sign check for the
  spiral case.

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

from . import affine, bde
from .bde import BDEField, LiftedState
from .surface import Rect

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


def _double_root_state(fld, u, v):
    A, B, C = (float(x) for x in fld.coeff(u, v))
    if abs(C) >= abs(A):
        return LiftedState(u, v, -B / C, "p") if C != 0 else LiftedState(u, v, 0.0, "p")
    return LiftedState(u, v, -B / A, "q")


def _fold_function(fld, state):
    """Third lifted component at the double-root state; fold points are its
    zeros along the discriminant."""
    return float(bde.lie_cartan(fld, state)[2])


def find_folded_points(fld, discriminant_polylines, newton_iters=25,
                       merge_tol=1e-7, residual_tol=1e-9):
    """Fold-point candidates: zeros of the lifted field over the discriminant.

    Walks the traced discriminant, looks for sign changes of the vertical
    component of the lifted field along the double-root section, then polishes
    each candidate with a 3D Newton iteration on
    (F, F_slope, vertical component) = 0.
    """
    fld.require_jets()
    candidates = []
    for poly in discriminant_polylines:
        if len(poly) < 2:
            continue
        vals = []
        for (u, v) in poly:
            try:
                vals.append(_fold_function(fld, _double_root_state(fld, u, v)))
            except (ZeroDivisionError, ArithmeticError):
                vals.append(float("nan"))
        vals = np.array(vals)
        for k in range(len(poly) - 1):
            a, b = vals[k], vals[k + 1]
            if not (np.isfinite(a) and np.isfinite(b)) or a * b > 0:
                continue
            t = 0.5 if a == b else abs(a) / (abs(a) + abs(b))
            seed = (1 - t) * poly[k] + t * poly[k + 1]
            pt = _newton_fold(fld, seed[0], seed[1], newton_iters, residual_tol)
            if pt is not None:
                candidates.append(pt)
    merged = []
    for pt in sorted(candidates):
        if all(math.hypot(pt[0] - q[0], pt[1] - q[1]) > merge_tol for q in merged):
            merged.append(pt)
    return merged


def _newton_fold(fld, u, v, iters, residual_tol):
    st = _double_root_state(fld, u, v)
    x = np.array([st.u, st.v, st.slope])
    chart = st.chart
    for _ in range(iters):
        state = LiftedState(x[0], x[1], x[2], chart)
        try:
            Aj, Bj, Cj = fld.jet_coeff(state.u, state.v, 2)
        except Exception:
            return None
        s = state.slope
        Fval, (Fu, Fv, Fs), Jx = bde.lifted_derivatives(Aj, Bj, Cj, state)
        # rows: gradient of F, gradient of F_slope, gradient of G = -X_3
        if chart == "p":
            G = Fu + s * Fv
            rows = [[Fu, Fv, Fs], Jx[0], -Jx[2]]
        else:
            G = Fv + s * Fu
            rows = [[Fu, Fv, Fs], Jx[1], -Jx[2]]
        Fvec = np.array([Fval, Fs, G])
        scale = max(abs(float(Aj.value)), abs(float(Bj.value)), abs(float(Cj.value)), 1e-30)
        if np.max(np.abs(Fvec)) < residual_tol * scale:
            return (float(x[0]), float(x[1]))
        J = np.array(rows)
        try:
            dx = np.linalg.solve(J, -Fvec)
        except np.linalg.LinAlgError:
            return None
        step = float(np.max(np.abs(dx)))
        if step > 0.5:
            dx = dx * (0.5 / step)
        x = x + dx
        if abs(x[2]) > 2.0:  # switch slope chart when it degrades
            chart = "q" if chart == "p" else "p"
            x[2] = 1.0 / x[2]
    return None


def classify_folded(fld, point, edge_tol=LAMBDA_EDGE_TOL, velocity_tol=1e-6):
    """Linearize the lifted field at the double-root lift of a fold point."""
    u, v = point
    state = _double_root_state(fld, u, v)
    X = bde.lie_cartan(fld, state)
    A, B, C = (float(x) for x in fld.coeff(u, v))
    scale = max(abs(A), abs(B), abs(C), 1e-30)
    if np.linalg.norm(X) > velocity_tol * scale:
        raise NotSingularLiftError(
            f"lifted field does not vanish at {point}: |X| = {np.linalg.norm(X):.3e}")
    J = bde.lie_cartan_jacobian(fld, state)
    (mu1, mu2), tr, e2 = restricted_eigenvalues(J)
    if tr == 0:
        lam = math.inf if e2 > 0 else (-math.inf if e2 < 0 else float("nan"))
    else:
        lam = e2 / (4.0 * tr * tr)
    if lam < -edge_tol:
        kind = "folded_saddle"
    elif edge_tol < lam < 1.0 / 16.0 - edge_tol:
        kind = "folded_node"
    elif lam > 1.0 / 16.0 + edge_tol:
        kind = "folded_focus"
    else:
        kind = "boundary_uncertain"
    return SingularPointReport((u, v), kind, lambda_invariant=lam,
                               eigenvalues=[mu1, mu2],
                               details={"trace": tr, "e2": e2,
                                        "slope": state.slope, "chart": state.chart})


def classify_flat_affine_umbilic(fld, point, degenerate_tol=1e-10, hessian_tol=1e-10):
    """Morse classification at a point where all three coefficients vanish."""
    u, v = point
    fld.require_jets()
    Aj, Bj, Cj = fld.jet_coeff(u, v, 2)
    A0, B0, C0 = (float(j.value) for j in (Aj, Bj, Cj))
    scale = max(max(abs(float(j.partial(1, 0))), abs(float(j.partial(0, 1))))
                for j in (Aj, Bj, Cj))
    scale = max(scale, 1e-30)
    if max(abs(A0), abs(B0), abs(C0)) > degenerate_tol * max(1.0, scale):
        raise NotFlatUmbilicError(f"coefficients do not all vanish at {point}")
    delta = Bj * Bj - Aj * Cj
    H = np.array([[float(delta.partial(2, 0)), float(delta.partial(1, 1))],
                  [float(delta.partial(1, 1)), float(delta.partial(0, 2))]])
    detH = float(np.linalg.det(H))
    if abs(detH) <= hessian_tol * scale ** 2:
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
    lifted = []
    coef_scale = max(abs(c) for c in cubic) if len(cubic) else 1.0
    for z in sorted(roots, key=lambda z: (round(z.real, 12), round(z.imag, 12))):
        if abs(z.imag) > 1e-9 * max(1.0, abs(z)):
            continue
        p = float(z.real)
        st = LiftedState(u, v, p, "p")
        J = bde.lie_cartan_jacobian(fld, st)
        (mu1, mu2), tr, e2 = restricted_eigenvalues(J)
        lifted.append({"slope": p, "chart": "p", "eigenvalues": [mu1, mu2],
                       "saddle": not isinstance(mu1, complex) and e2 < 0})
    if abs(Cv) <= 1e-12 * max(1.0, coef_scale):
        st = LiftedState(u, v, 0.0, "q")
        J = bde.lie_cartan_jacobian(fld, st)
        (mu1, mu2), tr, e2 = restricted_eigenvalues(J)
        lifted.append({"slope": 0.0, "chart": "q", "eigenvalues": [mu1, mu2],
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
    """Signed sine of the angle between the double direction and the curve."""
    tangents = _polyline_tangents(poly)
    out = np.full(len(poly), np.nan)
    for k, (u, v) in enumerate(poly):
        try:
            st = _double_root_state(fld, u, v)
        except ZeroDivisionError:
            continue
        d = st.direction()
        out[k] = d[0] * tangents[k, 1] - d[1] * tangents[k, 0]
    return out


def scan_tangency(fld, polylines, kind_label, angle_tol=ANGLE_TOL, noise_floor=1e-6,
                  merge_radius=0.0):
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
        finite = np.isfinite(s)
        if not finite.any() or np.nanmax(np.abs(s)) < noise_floor:
            continue
        for k in range(len(poly) - 1):
            a, b = s[k], s[k + 1]
            if not (np.isfinite(a) and np.isfinite(b)) or a * b > 0 or (a == 0 and b == 0):
                continue
            t = 0.5 if a == b else abs(a) / (abs(a) + abs(b))
            loc = (1 - t) * poly[k] + t * poly[k + 1]
            angle = abs((1 - t) * a + t * b)
            if angle < angle_tol:
                reports.append(SingularPointReport(
                    (float(loc[0]), float(loc[1])), kind_label,
                    tangency_angle=float(angle)))
    reports.sort(key=lambda r: r.location)
    if merge_radius > 0:
        kept = []
        for r in reports:
            if all(math.hypot(r.location[0] - q.location[0],
                              r.location[1] - q.location[1]) > merge_radius for q in kept):
                kept.append(r)
        reports = kept
    return reports


def _euclid_second_form(surf):
    """Batch-capable evaluator (u, v) -> (L, M, N) of the Euclidean second
    form up to a positive factor: the height Hessian on a Monge chart, the
    determinants |a_u, a_v, a_uu| etc. on a parametric surface."""
    if surf.kind == "monge":
        def lmn(u, v):
            hj = surf.height_jet(u, v, order=2, check=False)
            return hj.partial(2, 0), hj.partial(1, 1), hj.partial(0, 2)
        return lmn

    def lmn(u, v):
        al = surf.eval_jets(u, v, order=2, check=False)
        au = tuple(c.du() for c in al)
        av = tuple(c.dv() for c in al)
        second = (tuple(c.du() for c in au), tuple(c.dv() for c in au),
                  tuple(c.dv() for c in av))
        return tuple(affine.det3(au, av, d).value for d in second)
    return lmn


def singular_sets(surf, fld, region, resolution):
    """Trace the singular sets of a surface's asymptotic net once.

    ``fld`` is the surface's extended field.  Returns polylines keyed
    ``parabolic`` (zero Gaussian curvature, LN - M^2 = 0), ``affine_parabolic``
    (components of the extended discriminant away from the parabolic set) and
    ``discriminant`` (the remaining components, which lie inside the parabolic
    set, where the extension degenerates).
    """
    second_form = _euclid_second_form(surf)

    def kscalar(u, v):
        L, M, N = second_form(u, v)
        return L * N - M * M

    parabolic = bde.trace_zero_set(kscalar, region, resolution)
    ext_disc = bde.trace_zero_set(lambda u, v: bde.discriminant(fld, u, v), region, resolution)
    kscale = np.nanmax(np.abs(np.asarray(kscalar(
        np.linspace(region.u0, region.u1, 33),
        np.linspace(region.v0, region.v1, 33))))) or 1.0
    affine_parabolic, rest = [], []
    for poly in ext_disc:
        ks = np.abs(np.asarray(kscalar(poly[:, 0], poly[:, 1])))
        (affine_parabolic if np.median(ks) > 1e-7 * kscale else rest).append(poly)
    return {"parabolic": parabolic, "affine_parabolic": affine_parabolic,
            "discriminant": rest}


def detect_special_points(surf, fld, sets, region, resolution, angle_tol=ANGLE_TOL,
                          parabolic_kind="cusp_of_gauss",
                          affine_kind="affine_cusp_of_gauss"):
    """Cusp-of-Gauss style tangency points on both parabolic sets.

    ``sets`` are the ``singular_sets`` of the surface, traced from its
    extended field ``fld`` over ``region`` at ``resolution``.  Along the
    Euclidean parabolic set and the affine parabolic set, computes the
    unique double direction of the matching direction equation and flags
    sign-changing tangencies.  Where the two sets meet, the meeting is
    reported with a tangential/transversal marker.
    """
    euclid_field = BDEField(_euclid_second_form(surf), None, region, "euclid-II")
    parabolic, affine_parabolic = sets["parabolic"], sets["affine_parabolic"]
    cell = max(region.u1 - region.u0, region.v1 - region.v0) / resolution
    reports = scan_tangency(euclid_field, parabolic, parabolic_kind, angle_tol,
                            merge_radius=3 * cell)
    reports += scan_tangency(fld, affine_parabolic, affine_kind, angle_tol,
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


def blowup_radial_coeffs(fld, t, r=0.0):
    """Polar blow-up coefficients (Abar, Bbar, Cbar) at angle t.

    For a field with homogeneous quadratic coefficients the r-dependence
    cancels exactly, so r = 0 is evaluated via any small r.
    """
    rr = r if r > 0 else 1e-3
    u, v = rr * np.cos(t), rr * np.sin(t)
    A, B, C = fld.coeff(u, v)
    ct, st = np.cos(t), np.sin(t)
    Abar = (A * ct * ct + 2 * B * ct * st + C * st * st) / rr ** 2
    Bbar = (-A * ct * st + B * (ct * ct - st * st) + C * st * ct) / rr ** 2
    Cbar = (A * st * st - 2 * B * ct * st + C * ct * ct) / rr ** 2
    return Abar, Bbar, Cbar


def classify_flat_euclid_umbilic(surf, point=(0.0, 0.0), grid_half=1e-2, grid_n=21,
                                 flat_tol=1e-10):
    """Classification at a flat point of a height function (zero 1-jet and
    2-jet): either no asymptotic net nearby, or a topological focus."""
    if surf.kind != "monge":
        raise NotFlatUmbilicError("flat-umbilic classification needs a Monge surface")
    u0, v0 = point
    hj = surf.height_jet(u0, v0, order=4, check=False)
    low = [hj.partial(1, 0), hj.partial(0, 1), hj.partial(2, 0), hj.partial(1, 1), hj.partial(0, 2)]
    if max(abs(float(x)) for x in low) > flat_tol:
        raise NotFlatUmbilicError(f"height jet at {point} has nonvanishing 1st/2nd order terms")
    c30 = float(hj.partial(3, 0)) / 6.0
    c21 = float(hj.partial(2, 1)) / 2.0
    c12 = float(hj.partial(1, 2)) / 2.0
    c03 = float(hj.partial(0, 3)) / 6.0
    if max(abs(c30), abs(c21), abs(c12), abs(c03)) < flat_tol:
        raise NotFlatUmbilicError("cubic part vanishes; point is flatter than a cubic flat point")
    roots = _cubic_real_root_count(c30, c21, c12, c03) if abs(c30) > flat_tol else \
        _cubic_real_root_count(c03, c12, c21, c30)
    eps = -1 if roots == 3 else 1

    ext = bde.extended_field_for(surf)
    xs = np.linspace(u0 - grid_half, u0 + grid_half, grid_n)
    ys = np.linspace(v0 - grid_half, v0 + grid_half, grid_n)
    U, V = np.meshgrid(xs, ys, indexing="ij")
    mask = (np.abs(U - u0) > 1e-12) | (np.abs(V - v0) > 1e-12)
    delta = bde.discriminant(ext, U, V)
    details = {"epsilon": eps, "delta_max_punctured": float(np.max(delta[mask]))}

    if eps == 1:
        kind = "flat_euclid_umbilic_no_lines"
    else:
        kind = "flat_euclid_umbilic_focus"
        # blow-up sign checks on the cubic classification model u^3 + eps u v^2
        from .surface import monge_surface
        model = monge_surface("u^3 - u*v^2", Rect(-1, 1, -1, 1))
        mfld = bde.extended_field_for(model)
        ts = np.linspace(0.0, 2 * math.pi, 720, endpoint=False)
        Ab, Bb, Cb = blowup_radial_coeffs(mfld, ts)
        ref = blowup_radial_coeffs(mfld, np.array(math.pi / 2))[0]
        Ahat = Ab / ref
        expected = (1 + 2 * np.cos(ts) ** 2) ** 2
        details["blowup_A_matches"] = bool(np.max(np.abs(Ahat - expected)) < 1e-6)
        details["blowup_A_nonvanishing"] = bool(np.min(np.abs(Ab)) > 0)
        db = Bb * Bb - Ab * Cb
        rtd = np.sqrt(np.maximum(db, 0.0))
        f1_1 = -Bb - rtd     # radial component of the first branch, / r
        f1_2 = -Bb + rtd     # and of the second branch
        sgn = np.sign(ref)
        details["branch1_radial_onesigned"] = bool(np.all(sgn * f1_1 < 0) or np.all(sgn * f1_1 > 0))
        details["branch2_radial_onesigned"] = bool(np.all(sgn * f1_2 < 0) or np.all(sgn * f1_2 > 0))
        details["angular_onesigned"] = bool(np.all(Ab * sgn > 0))
    return SingularPointReport((float(u0), float(v0)), kind, details=details)
