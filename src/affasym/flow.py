"""Integration of the asymptotic net through its lift, and phase portraits.

Curves are integrated as trajectories of the lifted tangent field on the
surface {F = 0} in (u, v, slope) space, which removes the square-root branch
ambiguity of the planar direction field and carries trajectories through
their projected cusps on the discriminant.  The field is softly normalized
to near-unit speed so the integration parameter approximates lifted arc
length; each accepted step re-projects the slope onto {F = 0} with one
Newton correction, and the slope chart switches with hysteresis when the
slope leaves [-1.5, 1.5].

All trajectories of a portrait are integrated in lockstep
(``integrate_many``): one Cash-Karp loop advances every job, each round
evaluates the lifted field of all running lanes with one batched jet call
per stage, and each lane keeps its own step size, chart, orientation,
reference direction and event state.  Rare events (creeping where the lift
vanishes, chart switches, domain clipping, the degenerate-point and
closed-loop searches) run per lane through scalar helpers.  A lane sees the
same floating-point expressions alone as inside a batch, so it gives the
same bits as its job integrated alone; ``integrate_asymptotic`` is the
one-job case.

The embedded Cash-Karp 4(5) pair is implemented here rather than taken from
a library because the projection and chart bookkeeping live inside the step
loop and reproducibility down to the bit is part of the output contract.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bde, singular
from .bde import BDEField
from .surface import EvalError, Rect

__all__ = [
    "Trajectory",
    "Portrait",
    "NoDirectionError",
    "IntegrationParams",
    "IntegrationStats",
    "integrate_many",
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


# exceptions that end or drop one lane; anything else propagates
_LANE_ERRORS = (ArithmeticError, bde.CapabilityError)
_ETA = 1e-9    # soft normalization of the lifted speed


@dataclass
class IntegrationStats:
    """What a lockstep integration did, kept beside the payloads and never in
    them: ``lanes`` started trajectories, ``rounds`` lockstep rounds,
    ``accepted``/``rejected`` Cash-Karp steps summed over lanes, ``rhs_evals``
    lane evaluations of the lifted field, ``creep_steps`` accepted steps with
    a stage that crept along the planar double direction, ``terminations`` a
    histogram of termination reasons, ``dropped`` the jobs that gave no
    trajectory, ``skipped_seeds`` the portrait seeds that gave no job and
    ``dropped_reports`` the portrait's singular-point searches and reports
    that failed, each with its reason."""
    lanes: int = 0
    rounds: int = 0
    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0
    chart_switches: int = 0
    creep_steps: int = 0
    terminations: dict = field(default_factory=dict)
    dropped: list = field(default_factory=list)
    skipped_seeds: list = field(default_factory=list)
    dropped_reports: list = field(default_factory=list)

    def drop(self, job, exc):
        (u, v), family, sweep = job
        self.dropped.append({"seed": [float(u), float(v)], "family": family,
                             "sweep": int(sweep), "reason": f"{type(exc).__name__}: {exc}"})

    def drop_report(self, stage, exc, location=None):
        entry = {"stage": stage, "reason": f"{type(exc).__name__}: {exc}"}
        if location is not None:
            entry["location"] = [float(location[0]), float(location[1])]
        self.dropped_reports.append(entry)

    def to_json_dict(self):
        out = asdict(self)
        out["terminations"] = dict(sorted(self.terminations.items()))
        return out


def _project_slope(fld, u, v, slope, chart, iters=1):
    """Newton-project slopes onto {F = 0} at (u, v), at one point or per lane
    (``chart`` True where the slope is du/dv).  Returns the slopes and the
    coefficient norm max(|A|, |B|, |C|) there."""
    A, B, C = (np.asarray(x, dtype=float) for x in fld.coeff(u, v))
    norm = np.maximum(np.maximum(np.abs(A), np.abs(B)), np.abs(C))
    scale = np.maximum(norm, 1e-30)
    s = np.asarray(slope, dtype=float)
    going = np.ones(s.shape, dtype=bool)
    for _ in range(iters):
        Fv = np.where(chart, A * s * s + 2 * B * s + C, A + 2 * B * s + C * s * s)
        Fs = np.where(chart, 2 * A * s + 2 * B, 2 * B + 2 * C * s)
        going &= ~(np.abs(Fs) <= 1e-6 * scale)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(going, s - Fv / Fs, s)
    return s, norm


def _creep(fld, y, ref_dir, params):
    # Degenerate-lift fallback: on curves that are simultaneously criminant
    # and solution (e.g. profile circles of a surface of revolution) the
    # lifted field vanishes identically while the planar double direction
    # stays well defined; creep along it.
    dd = bde.asymptotic_directions(fld, y[0], y[1], params.lift_tol, params.degenerate_tol)
    if not dd.dirs:
        raise NoDirectionError("lost the direction field")
    best = max(dd.dirs, key=lambda w: abs(w[0] * ref_dir[0] + w[1] * ref_dir[1]))
    fall = np.array([best[0], best[1], 0.0])
    if fall @ ref_dir < 0:
        fall = -fall
    return fall


def _rhs(fld, y, chart, orient, ref_dir, params):
    """Softly normalized lifted velocity per lane, and which lanes crept."""
    fld.require_jets()
    X, scale = bde.lifted_velocity(*fld.jet_coeff(y[:, 0], y[:, 1], 1), y[:, 2], chart)
    n = np.sqrt(np.vecdot(X, X))
    creep = ~(n > 1e-9 * np.maximum(scale, 1e-30))
    k = orient[:, None] * X / np.sqrt(n * n + _ETA * _ETA)[:, None]
    for j in np.flatnonzero(creep):
        k[j] = _creep(fld, y[j], ref_dir[j], params)
    return k, creep


def _lanewise(fn, n):
    """``fn(lanes)`` over all n lanes at once; if that raises a lane error,
    once per lane.  Returns the results of the lanes that did not raise,
    concatenated, and the exception per lane (None when no lane raised)."""
    try:
        return fn(slice(None)), None
    except _LANE_ERRORS:
        pass
    parts, errors = [], [None] * n
    for j in range(n):
        try:
            parts.append(fn(slice(j, j + 1)))
        except _LANE_ERRORS as exc:
            errors[j] = exc
    return tuple(np.concatenate(c) for c in zip(*parts)) if parts else None, errors


def _start(fld, seed, family, sweep, params):
    """Lifted seed state, orientation and reference direction of one job."""
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
    orient = float(sweep)
    X0 = bde.lie_cartan(fld, state)
    n0 = float(np.linalg.norm(X0))
    A0, B0, C0 = (float(x) for x in fld.coeff(u0, v0))
    if n0 > 1e-9 * max(abs(A0), abs(B0), abs(C0), 1e-30):
        ref_dir = orient * X0 / n0
    else:
        ref_dir = orient * np.array([d[0], d[1], 0.0])
    return (state.u, state.v, state.slope), state.chart == "q", orient, ref_dir


class _Lanes:
    """Per-lane integration state, one row per active lane."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def keep(self, mask):
        for name, arr in list(vars(self).items()):
            setattr(self, name, arr[mask])


def _integrate(fld, jobs, params, stats):
    """Integrate (seed, family, sweep) jobs in lockstep.  Returns per job its
    Trajectory or the lane error that dropped it."""
    out = [None] * len(jobs)
    starts, live = [], []
    for k, (seed, family, sweep) in enumerate(jobs):
        try:
            starts.append(_start(fld, seed, family, sweep, params))
            live.append(k)
        except _LANE_ERRORS as exc:
            out[k] = exc
    if not live:
        return out
    stats.lanes += len(live)
    domain, period = fld.domain, fld.period
    diag = domain.diagonal
    h_max = params.max_step_frac * diag
    h_min = 1e-12 * diag
    n = len(live)
    y = np.array([st[0] for st in starts], dtype=float)
    q = np.array([st[1] for st in starts])
    rows = {k: [[*yk, float(qk), 0.0]] for k, yk, qk in zip(live, y.tolist(), q.tolist())}
    L = _Lanes(job=np.array(live), y=y, q=q,
               orient=np.array([st[2] for st in starts]),
               ref=np.array([st[3] for st in starts]),
               h=np.full(n, h_max / 8), arclen=np.zeros(n), steps=np.zeros(n, dtype=int),
               prev=np.zeros((n, 3)), has_prev=np.zeros(n, dtype=bool),
               prev_q=q.copy(), prev_norm=np.zeros(n), seed=y.copy(), seed_q=q.copy())

    def finish(reasons):
        """End the lanes with a reason (a termination or a lane error)."""
        ended = np.array([r is not None for r in reasons], dtype=bool)
        for k, r in zip(L.job[ended].tolist(), [r for r in reasons if r is not None]):
            if isinstance(r, str):
                stats.terminations[r] = stats.terminations.get(r, 0) + 1
                r = Trajectory(np.array(rows[k]), jobs[k][1], r)
            out[k] = r
        L.keep(~ended)
        return ~ended

    while len(L.job):
        spent = L.steps >= params.max_steps
        if spent.any():
            finish(["max_length" if x else None for x in spent])
            continue
        stats.rounds += 1
        L.steps += 1
        ks, crept = [], np.zeros(len(L.job), dtype=bool)
        for i in range(6):
            yi = L.y if i == 0 else L.y + L.h[:, None] * sum(a * k for a, k in zip(_CK_A[i], ks))
            stats.rhs_evals += len(yi)
            res, errors = _lanewise(
                lambda sl: _rhs(fld, yi[sl], L.q[sl], L.orient[sl], L.ref[sl], params),
                len(yi))
            if errors is not None:
                kept = finish([None if e is None else "left_domain" for e in errors])
                ks, crept = [k[kept] for k in ks], crept[kept]
                if not len(L.job):
                    break
            k, creep = res
            crept |= creep
            if i == 0:
                # Orientation continuity: each slope chart carries its own
                # time orientation, so a chart switch (or a creep-mode exit)
                # may hand back the reversed field.  The lifted velocity is
                # continuous along the lift, cusps included, so a reversal
                # against the last step direction can only be such an artifact.
                flip = np.vecdot(k, L.ref) < 0
                L.orient[flip] = -L.orient[flip]
                k[flip] = -k[flip]
            ks.append(k)
        if not len(L.job):
            break
        y5 = L.y + L.h[:, None] * sum(b * k for b, k in zip(_CK_B5, ks))
        y4 = L.y + L.h[:, None] * sum(b * k for b, k in zip(_CK_B4, ks))
        err = np.max(np.abs(y5 - y4), axis=1)
        tol = params.rel_tol * (1.0 + np.max(np.abs(y5), axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = tol / err    # read only where err > 0
        rej = (err > tol) & (L.h > h_min)
        if rej.any():
            # powers on Python floats: numpy's array power rounds differently
            shrink = [max(0.2, 0.9 * r ** 0.25) for r in ratio[rej].tolist()]
            L.h[rej] = np.maximum(L.h[rej] * shrink, h_min)
            stats.rejected += int(rej.sum())
        acc = np.flatnonzero(~rej)
        if not len(acc):
            continue
        reasons = [None] * len(L.job)
        ya = y5[acc]
        qa = L.q[acc]
        res, errors = _lanewise(
            lambda sl: _project_slope(fld, ya[sl, 0], ya[sl, 1], ya[sl, 2], qa[sl]), len(acc))
        if errors is not None:
            for j, e in zip(acc.tolist(), errors):
                reasons[j] = e
            ok = np.array([e is None for e in errors], dtype=bool)
            acc, ya, qa = acc[ok], ya[ok], qa[ok]
        if len(acc):
            _accept(fld, params, stats, L, rows, acc, ya, qa, res, err[acc], ratio[acc],
                    crept[acc], reasons, h_max, period)
        if any(r is not None for r in reasons):
            finish(reasons)
    return out


def _accept(fld, params, stats, L, rows, acc, y, q, projected, err, ratio, crept,
            reasons, h_max, period):
    """Accepted steps of lanes ``acc``: bookkeeping and termination events."""
    stats.accepted += len(acc)
    stats.creep_steps += int(crept.sum())
    y[:, 2], coefnorm = projected
    y_old = L.y[acc]
    step = y - y_old
    ds = np.array([math.hypot(a, b) for a, b in step[:, :2].tolist()])
    nstep = np.hypot(np.hypot(step[:, 0], step[:, 1]), step[:, 2])
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = np.where((nstep > 0)[:, None], step / nstep[:, None], L.ref[acc])
    grow = [min(5.0, 0.9 * r ** 0.2) if e > 0 else 5.0
            for r, e in zip(ratio.tolist(), err.tolist())]
    h = np.minimum(L.h[acc] * grow, h_max)
    for j in np.flatnonzero(np.abs(y[:, 2]) > params.chart_switch):
        stats.chart_switches += 1
        slope_old = y[j, 2]
        y[j, 2] = 1.0 / y[j, 2]
        q[j] = not q[j]
        # carry the reference direction into the new chart:
        # d(1/s)/dt = -sdot / s^2
        r = np.array([ref[j, 0], ref[j, 1], -ref[j, 2] / (slope_old * slope_old)])
        nr = float(np.linalg.norm(r))
        ref[j] = r / nr if nr > 0 else r
    moved = ds > 0
    arclen = L.arclen[acc] + np.where(moved, ds, 0.0)
    lane_rows = [rows[k] for k in L.job[acc].tolist()]
    for r, row in zip([r for r, m in zip(lane_rows, moved) if m],
                      np.column_stack([y, q, arclen])[moved].tolist()):
        r.append(row)

    running = np.ones(len(acc), dtype=bool)

    def end(j, reason):
        reasons[acc[j]] = reason
        running[j] = False

    def event(j, reason, fn):
        # a rare per-lane event; a lane error in it drops the lane
        try:
            if fn():
                end(j, reason)
        except _LANE_ERRORS as exc:
            end(j, exc)

    def clip(j):
        r = lane_rows[j]
        cu, cv, cs, cflag, carc = _clip_to_domain(r[-2], r[-1], fld.domain)
        cs = float(_project_slope(fld, cu, cv, cs, q[j], iters=8)[0])
        r[-1] = [cu, cv, cs, cflag, carc]
        return True

    def degenerate(j):
        hit = _degenerate_on_segment(fld, L.prev[acc[j]], y[j], params)
        if hit is None:
            return False
        yc, t_best = hit
        cs = float(_project_slope(fld, yc[0], yc[1], yc[2], q[j], iters=8)[0])
        r = lane_rows[j]
        r[-1] = [yc[0], yc[1], cs, float(q[j]), r[-2][4] + t_best * ds[j]]
        return True

    def closest(j):
        prev, seed = L.prev[acc[j]], L.seed[acc[j]]
        t_best, d_best = _closest_on_segment(prev, y[j], seed, period)
        if d_best >= params.loop_tol:
            return False
        yc = prev + t_best * (y[j] - prev)
        r = lane_rows[j]
        r[-1] = [yc[0], yc[1], yc[2], float(q[j]), r[-2][4] + t_best * ds[j]]
        return True

    # terminations, in order; each test sees only the lanes still running
    for j in np.flatnonzero(~fld.domain.contains(y[:, 0], y[:, 1])):
        event(j, "left_domain", lambda: clip(j))
    for j in np.flatnonzero(running & (coefnorm < params.degenerate_tol)):
        end(j, "hit_degenerate_point")
    # a step may jump across a totally degenerate point; when the
    # coefficient norm is small compared to its change over the step,
    # search the segment for a pass within radius 1e-6
    same_chart = L.has_prev[acc] & moved & (L.prev_q[acc] == q)
    jump = coefnorm < 2.0 * np.abs(coefnorm - L.prev_norm[acc])
    for j in np.flatnonzero(running & same_chart & jump):
        event(j, "hit_degenerate_point", lambda: degenerate(j))
    for j in np.flatnonzero(running & (arclen >= params.max_len)):
        end(j, "max_length")
    near = np.flatnonzero(running & (arclen > 10 * h_max) & (q == L.seed_q[acc]))
    if len(near):
        dist = _state_distance(y[near], L.seed[acc[near]], period)
        for j in near[dist < params.loop_tol]:
            end(j, "closed_loop")
        # closest-approach event: a step can overshoot the seed state, so
        # bracket the local minimum of the distance along the last segment
        d_prev = _state_distance(L.prev[acc[near]], L.seed[acc[near]], period)
        for j in near[(dist >= params.loop_tol) & same_chart[near] & (d_prev < dist)
                      & (d_prev < 2 * ds[near])]:
            event(j, "closed_loop", lambda: closest(j))
    L.y[acc], L.q[acc], L.ref[acc], L.h[acc], L.arclen[acc] = y, q, ref, h, arclen
    L.prev[acc], L.prev_q[acc], L.prev_norm[acc] = y, q, coefnorm
    L.has_prev[acc] = True


def integrate_many(fld, jobs, params=None, stats=None):
    """Trace the asymptotic curves of many (seed, family, sweep) jobs at once.

    One Cash-Karp loop advances every job in lockstep: each round evaluates
    the lifted field of all running lanes in one batched jet call per stage,
    while each lane keeps its own step size, chart, orientation and
    reference direction.  A lane gives the same bits as its job alone.
    Returns one Trajectory per job, in job order, or None for a job that
    could not start (or hit a lane error in the accepted-step bookkeeping);
    ``stats`` (an IntegrationStats) collects counters and the dropped jobs.
    """
    params = params or IntegrationParams()
    stats = stats if stats is not None else IntegrationStats()
    out = _integrate(fld, jobs, params, stats)
    for k, res in enumerate(out):
        if isinstance(res, Exception):
            stats.drop(jobs[k], res)
            out[k] = None
    return out


def integrate_asymptotic(fld, seed, family="plus", params=None, sweep=1):
    """Trace one asymptotic curve of the chosen root branch from a seed.

    The branch label fixes the direction root at the seed; curves are
    unoriented, so ``sweep`` = +1/-1 selects which half of the curve through
    the seed is traced (relative to the lifted field's own orientation).
    Along the trajectory the lift keeps the branch choice consistent,
    including through projected cusps.  This is ``integrate_many`` with one
    job, except that a seed without a direction raises NoDirectionError.
    """
    res = _integrate(fld, [(seed, family, sweep)], params or IntegrationParams(),
                     IntegrationStats())[0]
    if isinstance(res, Exception):
        raise res
    return res


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
    except (ArithmeticError, bde.CapabilityError, EvalError):
        return None
    g = 0.0
    for j in (Aj, Bj, Cj):
        g += float(j.partial(1, 0)) ** 2 + float(j.partial(0, 1)) ** 2
    g = math.sqrt(g)
    if g > 0 and cmin / g < radius:
        return p, t_best
    return None


def _state_distance(a, b, period):
    """Largest coordinate gap between lifted states (..., 3), angles wrapped."""
    du, dv, dp = a[..., 0] - b[..., 0], a[..., 1] - b[..., 1], a[..., 2] - b[..., 2]
    if period is not None:
        pu, pv = period
        if pu:
            du = (du + pu / 2) % pu - pu / 2
        if pv:
            dv = (dv + pv / 2) % pv - pv / 2
    return np.max(np.abs(np.stack([du, dv, dp])), axis=0)


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
    return best_t, float(dist(best_t))


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
    integration: IntegrationStats = None   # run statistics, not part of the payload

    def to_json(self):
        """The payload, as ``json.dumps(..., indent=1, sort_keys=True)`` writes
        it, with sample and polyline arrays written row by row from one
        ``float.__repr__`` pass each."""
        region = [self.region.u0, self.region.u1, self.region.v0, self.region.v1]
        trajectories = [_json_object([("family", json.dumps(t.family)),
                                      ("samples", _json_rows(t.samples, 3)),
                                      ("termination", json.dumps(t.termination))], 2)
                        for t in self.trajectories]
        sets = [(name, _json_block([_json_rows(p, 3) for p in polys], 2))
                for name, polys in sorted(self.singular_sets.items())]
        return _json_object([
            ("region", _json_at(region, 1)),
            ("reports", _json_block([_json_at(r.to_json_dict(), 2) for r in self.reports], 1)),
            ("singular_sets", _json_object(sets, 1)),
            ("trajectories", _json_block(trajectories, 1)),
        ], 0)


# -- the payload writer: json.dumps(indent=1, sort_keys=True) text, where an
# item at nesting level L sits on its own line indented by L spaces ---------


def _json_at(obj, level):
    """``obj`` as json.dumps writes it at nesting ``level``."""
    return json.dumps(obj, indent=1, sort_keys=True).replace("\n", "\n" + " " * level)


def _json_block(items, level, brackets="[]"):
    """A list (or, with brackets "{}", a dict) at ``level`` from its items,
    each already written at level + 1."""
    if not items:
        return brackets
    pad = "\n" + " " * (level + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + " " * level + brackets[1]


def _json_object(pairs, level):
    """A dict at ``level`` from (key, value text) pairs in sorted key order."""
    return _json_block([f"{json.dumps(k)}: {text}" for k, text in pairs], level, "{}")


def _json_rows(arr, level):
    """An (n, k) float array as a list of rows at ``level``."""
    arr = np.asarray(arr, dtype=float)
    if not arr.size or not np.isfinite(arr).all():
        # json writes NaN and Infinity, which float repr does not
        return _json_at(arr.tolist(), level)
    pad = "\n" + " " * (level + 2)
    row = "[" + pad + ("," + pad).join(["%s"] * arr.shape[1]) + "\n" + " " * (level + 1) + "]"
    return _json_block([row] * len(arr), level) % tuple(map(float.__repr__, arr.ravel().tolist()))


def build_portrait(source, region=None, grid=(8, 8), params=None, trace_resolution=192,
                   detect=True, ring_seeds=8, ring_radius=0.05):
    """Full phase portrait of the asymptotic net of a field or a surface.

    ``source`` is a coefficient field or a surface (in which case the
    extended field is built).  Both root families are integrated from a seed
    grid (cells with negative discriminant are skipped), plus a ring of seeds
    around each located singular point, all in one ``integrate_many`` call
    whose statistics the portrait keeps as ``integration``.  Deterministic
    for fixed inputs.
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

    stats = IntegrationStats()
    reports = []
    if surf is not None and detect:
        sets = singular.singular_sets(surf, fld, region, trace_resolution)
        try:
            reports.extend(singular.detect_special_points(surf, fld, sets, region,
                                                          trace_resolution))
        except (ArithmeticError, bde.CapabilityError, EvalError) as exc:
            stats.drop_report("detect_special_points", exc)
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
            except singular.NotSingularLiftError as exc:
                stats.drop_report("classify_folded", exc, pt)
    except bde.CapabilityError as exc:
        stats.drop_report("find_folded_points", exc)

    nx, ny = grid if not np.isscalar(grid) else (int(grid), int(grid))
    us = np.linspace(region.u0, region.u1, nx + 2)[1:-1]
    vs = np.linspace(region.v0, region.v1, ny + 2)[1:-1]
    seeds = [(float(u), float(v)) for u in us for v in vs]
    for rep in sorted(reports, key=lambda r: (r.kind, r.location)):
        for k in range(ring_seeds):
            ang = 2 * math.pi * k / ring_seeds
            seeds.append((rep.location[0] + ring_radius * math.cos(ang),
                          rep.location[1] + ring_radius * math.sin(ang)))

    jobs = []
    for (su, sv) in seeds:
        skip = ("outside the region" if not bool(region.contains(su, sv)) else
                "negative discriminant" if float(bde.discriminant(fld, su, sv)) < 0 else None)
        if skip:
            stats.skipped_seeds.append({"seed": [float(su), float(sv)], "reason": skip})
            continue
        jobs += [((su, sv), fam, sweep) for fam in ("plus", "minus") for sweep in (1, -1)]
    trajectories = [t for t in integrate_many(fld, jobs, params, stats) if t is not None]
    reports.sort(key=lambda r: (r.kind, r.location))
    return Portrait(region, trajectories, sets, reports, stats)


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
