"""Integration of the asymptotic net through its lift, and phase portraits.

Curves are integrated as trajectories of the lifted tangent field on the
surface {F = 0} in (u, v, slope) space, which removes the square-root branch
ambiguity of the planar direction field and carries trajectories through
their projected cusps on the discriminant.  The field is softly normalized
to near-unit speed so the integration parameter approximates lifted arc
length; each accepted step re-projects the slope onto {F = 0} with one
Newton correction, and the slope chart switches with hysteresis when the
slope leaves [-1.5, 1.5].

The embedded Cash-Karp 4(5) pair is implemented here rather than taken from
a library because the projection and chart bookkeeping live inside the step
loop and reproducibility down to the bit is part of the output contract.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import bde, singular
from .bde import BDEField, LiftedState
from .surface import Rect

__all__ = [
    "Trajectory",
    "Portrait",
    "NoDirectionError",
    "IntegrationParams",
    "integrate_asymptotic",
    "build_portrait",
    "portrait_svg",
]


class NoDirectionError(ArithmeticError):
    pass


@dataclass
class IntegrationParams:
    rel_tol: float = 1e-8
    lift_tol: float = 1e-8
    max_len: float = 20.0
    max_steps: int = 20000
    max_step_frac: float = 1e-2    # of the region diagonal
    loop_tol: float = 1e-6
    degenerate_tol: float = 1e-10
    chart_switch: float = 1.5


@dataclass
class Trajectory:
    samples: np.ndarray          # (n, 5): u, v, slope, chart flag (0=p, 1=q), arclength
    family: str                  # "plus" | "minus"
    termination: str             # left_domain | hit_degenerate_point | max_length | closed_loop

    @property
    def points(self):
        return self.samples[:, :2]

    def to_json_dict(self):
        return {
            "family": self.family,
            "termination": self.termination,
            "samples": [[float(x) for x in row] for row in self.samples],
        }


# Cash-Karp 4(5) tableau
_CK_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_CK_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_CK_B4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)


def _project_slope(fld, u, v, slope, chart, iters=1):
    A, B, C = (float(x) for x in fld.coeff(u, v))
    scale = max(abs(A), abs(B), abs(C), 1e-30)
    for _ in range(iters):
        if chart == "p":
            Fv = A + 2 * B * slope + C * slope * slope
            Fs = 2 * B + 2 * C * slope
        else:
            Fv = A * slope * slope + 2 * B * slope + C
            Fs = 2 * A * slope + 2 * B
        if abs(Fs) <= 1e-6 * scale:
            break
        slope = slope - Fv / Fs
    return slope


def integrate_asymptotic(fld, seed, family="plus", params=None, sweep=1):
    """Trace one asymptotic curve of the chosen root branch from a seed.

    The branch label fixes the direction root at the seed; curves are
    unoriented, so ``sweep`` = +1/-1 selects which half of the curve through
    the seed is traced (relative to the lifted field's own orientation).
    Along the trajectory the lift keeps the branch choice consistent,
    including through projected cusps.
    """
    params = params or IntegrationParams()
    u0, v0 = float(seed[0]), float(seed[1])
    dirs = bde.asymptotic_directions(fld, u0, v0, lift_tol=params.lift_tol,
                                     degenerate_tol=params.degenerate_tol)
    if dirs.kind == "none":
        raise NoDirectionError(f"seed {seed} lies where the discriminant is negative")
    if dirs.kind == "degenerate":
        raise NoDirectionError(f"seed {seed} is a totally degenerate point")
    if family not in ("plus", "minus"):
        raise ValueError("family must be 'plus' or 'minus'")
    pick = 0 if family == "plus" or dirs.kind == "double" else min(1, len(dirs.dirs) - 1)
    d = dirs.dirs[pick]
    state = bde.lift_state(fld, u0, v0, d[0], d[1])

    diag = fld.domain.diagonal
    h_max = params.max_step_frac * diag
    eta = 1e-9
    orient = float(sweep)
    X0 = bde.lie_cartan(fld, state)
    n0 = float(np.linalg.norm(X0))
    A0, B0, C0 = (float(x) for x in fld.coeff(u0, v0))
    if n0 > 1e-9 * max(abs(A0), abs(B0), abs(C0), 1e-30):
        ref_dir = orient * X0 / n0
    else:
        ref_dir = orient * np.array([d[0], d[1], 0.0])

    def rhs(y, chart):
        # Degenerate-lift fallback: on curves that are simultaneously
        # criminant and solution (e.g. profile circles of a surface of
        # revolution) the lifted field vanishes identically while the planar
        # double direction stays well defined; creep along it.
        st = LiftedState(y[0], y[1], y[2], chart)
        X, scale = bde.lie_cartan_scaled(fld, st)
        n = math.sqrt(float(X @ X))
        scale = max(scale, 1e-30)
        if n > 1e-9 * scale:
            return orient * X / math.sqrt(n * n + eta * eta)
        dd = bde.asymptotic_directions(fld, y[0], y[1], params.lift_tol,
                                       params.degenerate_tol)
        if not dd.dirs:
            raise NoDirectionError("lost the direction field")
        best = max(dd.dirs, key=lambda w: abs(w[0] * ref_dir[0] + w[1] * ref_dir[1]))
        fall = np.array([best[0], best[1], 0.0])
        if fall @ ref_dir < 0:
            fall = -fall
        return fall

    y = np.array([state.u, state.v, state.slope])
    chart = state.chart
    arclen = 0.0
    rows = [(y[0], y[1], y[2], 0.0 if chart == "p" else 1.0, 0.0)]
    termination = "max_length"
    h = h_max / 8
    steps = 0
    seed_state = (y.copy(), chart)
    prev_state = None
    prev_chart = chart
    prev_coefnorm = None
    while steps < params.max_steps:
        steps += 1
        try:
            k0 = rhs(y, chart)
            # Orientation continuity: each slope chart carries its own time
            # orientation, so a chart switch (or a creep-mode exit) may hand
            # back the reversed field.  The lifted velocity is continuous
            # along the lift, cusps included, so a reversal against the last
            # step direction can only be such an artifact.
            if float(k0 @ ref_dir) < 0:
                orient = -orient
                k0 = -k0
            ks = [k0]
            for i in range(1, 6):
                yi = y + h * sum(a * k for a, k in zip(_CK_A[i], ks))
                ks.append(rhs(yi, chart))
        except (ArithmeticError, bde.CapabilityError):
            termination = "left_domain"
            break
        y5 = y + h * sum(b * k for b, k in zip(_CK_B5, ks))
        y4 = y + h * sum(b * k for b, k in zip(_CK_B4, ks))
        err = float(np.max(np.abs(y5 - y4)))
        tol = params.rel_tol * (1.0 + float(np.max(np.abs(y5))))
        if err > tol and h > 1e-12 * diag:
            h = max(h * max(0.2, 0.9 * (tol / err) ** 0.25), 1e-12 * diag)
            continue
        # accepted
        ynew = y5
        ynew[2] = _project_slope(fld, ynew[0], ynew[1], ynew[2], chart)
        du, dv = ynew[0] - y[0], ynew[1] - y[1]
        ds = math.hypot(du, dv)
        step_vec = ynew - y
        nstep = float(np.hypot(np.hypot(step_vec[0], step_vec[1]), step_vec[2]))
        if nstep > 0:
            ref_dir = step_vec / nstep
        y = ynew
        if err > 0:
            h = min(h * min(5.0, 0.9 * (tol / err) ** 0.2), h_max)
        else:
            h = min(h * 5.0, h_max)
        if abs(y[2]) > params.chart_switch:
            slope_old = y[2]
            y[2] = 1.0 / y[2]
            chart = "q" if chart == "p" else "p"
            # carry the reference direction into the new chart:
            # d(1/s)/dt = -sdot / s^2
            ref_dir = np.array([ref_dir[0], ref_dir[1],
                                -ref_dir[2] / (slope_old * slope_old)])
            n = float(np.linalg.norm(ref_dir))
            if n > 0:
                ref_dir = ref_dir / n
        if ds > 0:
            arclen += ds
            rows.append((y[0], y[1], y[2], 0.0 if chart == "p" else 1.0, arclen))
        # terminations
        if not bool(fld.domain.contains(y[0], y[1])):
            cu, cv, cs, cflag, carc = _clip_to_domain(rows[-2], rows[-1], fld.domain)
            cs = _project_slope(fld, cu, cv, cs, chart, iters=8)
            rows[-1] = (cu, cv, cs, cflag, carc)
            termination = "left_domain"
            break
        A, B, C = (float(x) for x in fld.coeff(y[0], y[1]))
        coefnorm = max(abs(A), abs(B), abs(C))
        if coefnorm < params.degenerate_tol:
            termination = "hit_degenerate_point"
            break
        # a step may jump across a totally degenerate point; when the
        # coefficient norm is small compared to its change over the step,
        # search the segment for a pass within radius 1e-6
        if prev_state is not None and ds > 0 and prev_coefnorm is not None \
                and prev_chart == chart:
            if coefnorm < 2.0 * abs(coefnorm - prev_coefnorm):
                hit = _degenerate_on_segment(fld, prev_state, y, params)
                if hit is not None:
                    yc, t_best = hit
                    cs = _project_slope(fld, yc[0], yc[1], yc[2], chart, iters=8)
                    rows[-1] = (yc[0], yc[1], cs, 0.0 if chart == "p" else 1.0,
                                rows[-2][4] + t_best * ds)
                    termination = "hit_degenerate_point"
                    break
        prev_coefnorm = coefnorm
        if arclen >= params.max_len:
            termination = "max_length"
            break
        if arclen > 10 * h_max and chart == seed_state[1]:
            dist = _state_distance(y, seed_state[0], fld.period)
            if dist < params.loop_tol:
                termination = "closed_loop"
                break
            # closest-approach event: a step can overshoot the seed state, so
            # bracket the local minimum of the distance along the last segment
            if prev_state is not None and ds > 0 and prev_chart == chart:
                d_prev = _state_distance(prev_state, seed_state[0], fld.period)
                if d_prev < dist and d_prev < 2 * ds:
                    t_best, d_best = _closest_on_segment(
                        prev_state, y, seed_state[0], fld.period)
                    if d_best < params.loop_tol:
                        yc = prev_state + t_best * (y - prev_state)
                        rows[-1] = (yc[0], yc[1], yc[2],
                                    0.0 if chart == "p" else 1.0,
                                    rows[-2][4] + t_best * ds)
                        termination = "closed_loop"
                        break
        prev_state = y.copy()
        prev_chart = chart
    return Trajectory(np.array(rows), family, termination)


def _degenerate_on_segment(fld, a, b, params, radius=1e-6):
    def cnorm(t):
        p = a + t * (b - a)
        A, B, C = (float(x) for x in fld.coeff(p[0], p[1]))
        return max(abs(A), abs(B), abs(C))

    lo, hi = 0.0, 1.0
    for _ in range(80):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if cnorm(m1) <= cnorm(m2):
            hi = m2
        else:
            lo = m1
    t_best = 0.5 * (lo + hi)
    cmin = cnorm(t_best)
    p = a + t_best * (b - a)
    try:
        Aj, Bj, Cj = fld.jet_coeff(p[0], p[1], 1)
    except Exception:
        return None
    g = 0.0
    for j in (Aj, Bj, Cj):
        g += float(j.partial(1, 0)) ** 2 + float(j.partial(0, 1)) ** 2
    g = math.sqrt(g)
    if g > 0 and cmin / g < radius:
        return p, t_best
    return None


def _state_distance(a, b, period):
    du, dv, dp = a[0] - b[0], a[1] - b[1], a[2] - b[2]
    if period is not None:
        pu, pv = period
        if pu:
            du = (du + pu / 2) % pu - pu / 2
        if pv:
            dv = (dv + pv / 2) % pv - pv / 2
    return float(np.max(np.abs([du, dv, dp])))


def _closest_on_segment(a, b, target, period, n=64):
    def dist(t):
        return _state_distance(a + t * (b - a), target, period)

    best_t, best_d = 0.0, dist(0.0)
    for k in range(1, n + 1):
        t = k / n
        d = dist(t)
        if d < best_d:
            best_t, best_d = t, d
    # ternary refinement: along a segment the distance is piecewise linear in
    # t and unimodal near an isolated closest approach
    lo, hi = max(0.0, best_t - 1.0 / n), min(1.0, best_t + 1.0 / n)
    for _ in range(100):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if dist(m1) <= dist(m2):
            hi = m2
        else:
            lo = m1
    best_t = 0.5 * (lo + hi)
    return best_t, dist(best_t)


def _clip_to_domain(prev_row, row, domain):
    p = np.array(prev_row[:2])
    q = np.array(row[:2])
    t = 1.0
    for (lo, hi, idx) in ((domain.u0, domain.u1, 0), (domain.v0, domain.v1, 1)):
        d = q[idx] - p[idx]
        if d != 0:
            if q[idx] > hi:
                t = min(t, (hi - p[idx]) / d)
            if q[idx] < lo:
                t = min(t, (lo - p[idx]) / d)
    c = p + max(t, 0.0) * (q - p)
    ds = float(np.hypot(*(c - p)))
    return (float(c[0]), float(c[1]), row[2], row[3], prev_row[4] + ds)


@dataclass
class Portrait:
    region: Rect
    trajectories: list = field(default_factory=list)
    singular_sets: dict = field(default_factory=dict)
    reports: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "region": [self.region.u0, self.region.u1, self.region.v0, self.region.v1],
            "trajectories": [t.to_json_dict() for t in self.trajectories],
            "singular_sets": {
                name: [[[float(u), float(v)] for (u, v) in poly] for poly in polys]
                for name, polys in sorted(self.singular_sets.items())
            },
            "reports": [r.to_json_dict() for r in self.reports],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=1, sort_keys=True)


def build_portrait(source, region=None, grid=(8, 8), params=None, trace_resolution=192,
                   detect=True, ring_seeds=8, ring_radius=0.05):
    """Full phase portrait of the asymptotic net of a field or a surface.

    ``source`` is a coefficient field or a surface (in which case the
    extended field is built).  Both root families are integrated from a seed
    grid (cells with negative discriminant are skipped), plus a ring of seeds
    around each located singular point.  Deterministic for fixed inputs.
    """
    surf = None
    if isinstance(source, BDEField):
        fld = source
    else:
        surf = source
        fld = bde.extended_field_for(surf)
    region = region or fld.domain
    fld = BDEField(fld.coeff, fld.jet_coeff, region, fld.name, fld.period)
    params = params or IntegrationParams()

    reports = []
    if surf is not None and detect:
        sets = singular.singular_sets(surf, fld, region, trace_resolution)
        try:
            reports.extend(singular.detect_special_points(surf, fld, sets, region,
                                                          trace_resolution))
        except Exception:
            pass
        # the whole extended discriminant; find_folded_points sorts its
        # candidates, so the order of the components does not matter
        disc_polys = sets["affine_parabolic"] + sets["discriminant"]
    else:
        disc_polys = bde.trace_zero_set(lambda u, v: bde.discriminant(fld, u, v),
                                        region, trace_resolution)
        sets = {"discriminant": disc_polys}
    # folded points on the discriminant
    try:
        for pt in singular.find_folded_points(fld, disc_polys):
            try:
                reports.append(singular.classify_folded(fld, pt))
            except singular.NotSingularLiftError:
                pass
    except bde.CapabilityError:
        pass

    nx, ny = grid if not np.isscalar(grid) else (int(grid), int(grid))
    us = np.linspace(region.u0, region.u1, nx + 2)[1:-1]
    vs = np.linspace(region.v0, region.v1, ny + 2)[1:-1]
    seeds = [(float(u), float(v)) for u in us for v in vs]
    for rep in sorted(reports, key=lambda r: (r.kind, r.location)):
        for k in range(ring_seeds):
            ang = 2 * math.pi * k / ring_seeds
            seeds.append((rep.location[0] + ring_radius * math.cos(ang),
                          rep.location[1] + ring_radius * math.sin(ang)))

    trajectories = []
    for (su, sv) in seeds:
        if not bool(region.contains(su, sv)):
            continue
        if float(bde.discriminant(fld, su, sv)) < 0:
            continue
        for fam in ("plus", "minus"):
            for sweep in (1, -1):
                try:
                    trajectories.append(
                        integrate_asymptotic(fld, (su, sv), fam, params, sweep))
                except (NoDirectionError, ArithmeticError, bde.CapabilityError):
                    pass
    reports.sort(key=lambda r: (r.kind, r.location))
    return Portrait(region, trajectories, sets, reports)


# -- SVG rendering --------------------------------------------------------------


_STYLES = {
    "plus": 'fill="none" stroke="#1f77b4" stroke-width="1.2"',
    "minus": 'fill="none" stroke="#d62728" stroke-width="1.2" stroke-dasharray="6 4"',
    "parabolic": 'fill="none" stroke="#000000" stroke-width="3"',
    "affine_parabolic": 'fill="none" stroke="#000000" stroke-width="3" stroke-dasharray="10 6"',
    "discriminant": 'fill="none" stroke="#444444" stroke-width="3" stroke-dasharray="10 6"',
}


def portrait_svg(portrait, max_px=1024):
    """Deterministic SVG: u rightward, v upward, square aspect."""
    reg = portrait.region
    w, h = reg.u1 - reg.u0, reg.v1 - reg.v0
    scale = max_px / max(w, h)
    W, H = w * scale, h * scale

    def mapper(u, v):
        return ((u - reg.u0) * scale, (reg.v1 - v) * scale)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W:.0f}" height="{H:.0f}" '
        f'viewBox="0 0 {W:.3f} {H:.3f}">',
        f'<rect x="0" y="0" width="{W:.3f}" height="{H:.3f}" fill="#ffffff"/>',
    ]
    for traj in portrait.trajectories:
        pts = traj.points
        if len(pts) < 2:
            continue
        d = bde.polyline_svg_path(pts, mapper)
        parts.append(f'<path d="{d}" {_STYLES[traj.family]}/>')
    for name, polys in sorted(portrait.singular_sets.items()):
        style = _STYLES.get(name, _STYLES["discriminant"])
        for poly in polys:
            if len(poly) >= 2:
                parts.append(f'<path d="{bde.polyline_svg_path(poly, mapper)}" {style}/>')
    for rep in portrait.reports:
        x, y = mapper(*rep.location)
        parts.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="5" fill="#ff7f0e"/>')
        parts.append(f'<text x="{x + 7:.3f}" y="{y - 7:.3f}" font-size="12" '
                     f'font-family="monospace">{rep.kind}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
