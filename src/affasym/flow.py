"""Integration of the asymptotic net through its lift, and phase portraits.

Curves are integrated as trajectories of the lifted tangent field on the
surface {F = 0} in (u, v, slope) space, which removes the square-root branch
ambiguity of the planar direction field and carries trajectories through
their projected cusps on the discriminant.  The field is softly normalized
to near-unit speed so the integration parameter approximates lifted arc
length; each accepted step re-projects the slope onto {F = 0} with one
Newton correction (more where one does not reach the lift tolerance), and
the slope chart switches with hysteresis when the slope leaves [-1.5, 1.5].

All trajectories of a portrait are integrated in lockstep
(``integrate_many``): one Cash-Karp loop advances every job, each round
evaluates the lifted field of all running lanes from one batched slot
evaluation per stage, and each lane keeps its own step size, chart,
orientation, reference direction and event state in one row of the lane
state array.  Rare events (creeping where the lift
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

import dataclasses
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bde, singular
from .affine import ParabolicPointError
from .bde import BDEField
from .jsontext import json_at, json_block, json_object, json_rows
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
    # left_domain | hit_degenerate_point | max_length | closed_loop, or, for a
    # lane whose stage failed inside the domain, hit_parabolic_set (a
    # ParabolicPointError) | lost_direction_field (a NoDirectionError: no
    # direction where the discriminant is negative) | evaluation_failed (any
    # other lane error)
    termination: str

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
# The weights as arrays against the stacked stage velocities K (stage, lane,
# 3): stage i's weights, and per stage the 5th and 4th order weights side by
# side, so that one sum gives both solutions.
_CK_AW = [np.array(a).reshape(-1, 1, 1) for a in _CK_A]
_CK_BW = np.array([_CK_B5, _CK_B4]).T.reshape(6, 2, 1, 1)


def _stage_sum(w, K):
    """sum(w_j * K_j) over the stages j: np.add.reduce adds the terms in
    stage order starting from 0.0, as the sum of a Python loop does, zero
    weights included."""
    return np.add.reduce(w * K, axis=0, initial=0.0)


# exceptions that end or drop one lane; anything else propagates
_LANE_ERRORS = (ArithmeticError, bde.CapabilityError)
_ETA = 1e-9    # soft normalization of the lifted speed
_RING_SEEDS, _RING_RADIUS = 8, 0.05    # extra seeds around each singular point


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
    c = fld.slots(u, v, 0)
    norm = np.maximum.reduce(np.abs(c))
    scale = np.maximum(norm, 1e-30)
    s = np.asarray(slope, dtype=float)
    going = np.ones(s.shape, dtype=bool)
    for _ in range(iters):
        F, Fs, _ = bde.lift_terms(*c, s, chart)
        going &= ~(np.abs(Fs) <= 1e-6 * scale)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(going, s - F / Fs, s)
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
    X, scale = bde.lifted_velocity(fld.slots(y[:, 0], y[:, 1], 1), y[:, 2], chart)
    n = np.sqrt(np.vecdot(X, X))
    creep = ~(n > 1e-9 * np.maximum(scale, 1e-30))
    k = orient[:, None] * X / np.sqrt(n * n + _ETA * _ETA)[:, None]
    for j in creep.nonzero()[0]:
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


# Columns of the lane state, one row per running lane.  A lane's sample row
# (u, v, slope, chart flag, arclength) comes first, so that the rows of a
# round are one slice; flags are 0.0 or 1.0.
_ROW, _Y, _Q, _ARC = slice(0, 5), slice(0, 3), 3, 4
_H, _ORIENT, _NORM, _HAS_PREV, _SEED_Q = 5, 6, 7, 8, 9
_REF, _SEED = slice(10, 13), slice(13, 16)
_WIDTH = 16


def _stage_end(domain, point, exc):
    """Termination of a lane whose Cash-Karp stage at ``point`` raised the
    lane error ``exc``."""
    if not domain.contains(point[0], point[1]):
        return "left_domain"
    if isinstance(exc, ParabolicPointError):
        return "hit_parabolic_set"
    if isinstance(exc, NoDirectionError):
        return "lost_direction_field"
    return "evaluation_failed"


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
    job = np.array(live)
    S = np.zeros((len(live), _WIDTH))
    S[:, _Y] = [st[0] for st in starts]
    S[:, _Q] = [st[1] for st in starts]
    S[:, _ORIENT] = [st[2] for st in starts]
    S[:, _REF] = [st[3] for st in starts]
    S[:, _H] = h_max / 8
    S[:, _SEED], S[:, _SEED_Q] = S[:, _Y], S[:, _Q]
    # (jobs, sample rows) per round that moved lanes, the seeds first
    blocks = [(job, S[:, _ROW].copy())]

    def finish(reasons):
        """End the lanes with a reason (a termination or a lane error)."""
        nonlocal S, job
        kept = np.array([r is None for r in reasons], dtype=bool)
        for k, r in zip(job[~kept].tolist(), [r for r in reasons if r is not None]):
            if isinstance(r, str):
                stats.terminations[r] = stats.terminations.get(r, 0) + 1
            out[k] = r
        S, job = S[kept], job[kept]
        return kept

    steps = 0
    while len(job):
        if steps >= params.max_steps:
            finish(["max_length"] * len(job))
            break
        stats.rounds += 1
        steps += 1
        K, crept = np.empty((6, len(job), 3)), np.zeros(len(job), dtype=bool)
        for i in range(6):
            y, h, chart = S[:, _Y], S[:, _H], S[:, _Q] != 0
            yi = y if i == 0 else y + h[:, None] * _stage_sum(_CK_AW[i], K[:i])
            stats.rhs_evals += len(yi)
            orient, ref = S[:, _ORIENT], S[:, _REF]
            res, errors = _lanewise(
                lambda sl: _rhs(fld, yi[sl], chart[sl], orient[sl], ref[sl], params), len(yi))
            if errors is not None:
                kept = finish([None if e is None else _stage_end(domain, yi[j], e)
                               for j, e in enumerate(errors)])
                K, crept = K[:, kept], crept[kept]
                if not len(job):
                    break
            k, creep = res
            crept |= creep
            if i == 0:
                # Orientation continuity: each slope chart carries its own
                # time orientation, so a chart switch (or a creep-mode exit)
                # may hand back the reversed field.  The lifted velocity is
                # continuous along the lift, cusps included, so a reversal
                # against the last step direction can only be such an artifact.
                flip = np.vecdot(k, S[:, _REF]) < 0
                S[flip, _ORIENT] = -S[flip, _ORIENT]
                k[flip] = -k[flip]
            K[i] = k
        if not len(job):
            break
        y, h = S[:, _Y], S[:, _H]
        y5, y4 = y + h[:, None] * _stage_sum(_CK_BW, K[:, None])
        err = np.max(np.abs(y5 - y4), axis=1)
        tol = params.rel_tol * (1.0 + np.max(np.abs(y5), axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = tol / err    # read only where err > 0
        rej = (err > tol) & (h > h_min)
        if rej.any():
            # powers on Python floats: numpy's array power rounds differently
            shrink = [max(0.2, 0.9 * r ** 0.25) for r in ratio[rej].tolist()]
            S[rej, _H] = np.maximum(h[rej] * shrink, h_min)
            stats.rejected += int(rej.sum())
        acc = (~rej).nonzero()[0]
        if not len(acc):
            continue
        reasons = [None] * len(job)
        ya = y5[acc]
        qa = S[acc, _Q] != 0
        res, errors = _lanewise(
            lambda sl: _project_slope(fld, ya[sl, 0], ya[sl, 1], ya[sl, 2], qa[sl]), len(acc))
        if errors is not None:
            for j, e in zip(acc.tolist(), errors):
                reasons[j] = e
            ok = np.array([e is None for e in errors], dtype=bool)
            acc, ya, qa = acc[ok], ya[ok], qa[ok]
        if len(acc):
            # F is quadratic in the slope: a Newton step ds leaves |F| <=
            # max(|A|, |B|, |C|) ds^2, so only larger steps can miss the bound
            s, norm = res
            far = ((s - ya[:, 2]) ** 2 > params.lift_tol).nonzero()[0]
            if len(far):
                F = bde.lift_terms(*fld.slots(ya[far, 0], ya[far, 1], 0), s[far], qa[far])[0]
                off = far[np.abs(F) > params.lift_tol * norm[far]]
                s[off] = _project_slope(fld, ya[off, 0], ya[off, 1], s[off], qa[off], iters=7)[0]
            blocks.append(_accept(fld, params, stats, S, job, acc, ya, res, err[acc],
                                  ratio[acc], crept[acc], reasons, h_max, period))
        if any(r is not None for r in reasons):
            finish(reasons)

    # each trajectory's samples: its rows of every block, in round order
    row_job = np.concatenate([b[0] for b in blocks])
    order = np.argsort(row_job, kind="stable")
    ends = np.cumsum(np.bincount(row_job, minlength=len(jobs)))
    samples = np.split(np.concatenate([b[1] for b in blocks])[order], ends[:-1])
    for k, r in enumerate(out):
        if isinstance(r, str):
            out[k] = Trajectory(samples[k], jobs[k][1], r)
    return out


def _accept(fld, params, stats, S, job, acc, y, projected, err, ratio, crept, reasons,
            h_max, period):
    """Accepted steps of lanes ``acc``: bookkeeping and termination events.
    Updates the lane state ``S`` and returns the jobs and the sample rows of
    the lanes whose step moved."""
    stats.accepted += len(acc)
    stats.creep_steps += int(crept.sum())
    y[:, 2], coefnorm = projected
    lane = S[acc]    # the state before the step, written back at the end
    y_old = lane[:, _Y]
    step = y - y_old
    ds = np.array([math.hypot(a, b) for a, b in step[:, :2].tolist()])
    nstep = np.hypot(np.hypot(step[:, 0], step[:, 1]), step[:, 2])
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = np.where((nstep > 0)[:, None], step / nstep[:, None], lane[:, _REF])
    grow = [min(5.0, 0.9 * r ** 0.2) if e > 0 else 5.0
            for r, e in zip(ratio.tolist(), err.tolist())]
    h = np.minimum(lane[:, _H] * grow, h_max)
    q = lane[:, _Q].copy()
    for j in (np.abs(y[:, 2]) > params.chart_switch).nonzero()[0]:
        stats.chart_switches += 1
        slope_old = y[j, 2]
        y[j, 2] = 1.0 / y[j, 2]
        q[j] = 1.0 - q[j]
        # carry the reference direction into the new chart:
        # d(1/s)/dt = -sdot / s^2
        r = np.array([ref[j, 0], ref[j, 1], -ref[j, 2] / (slope_old * slope_old)])
        nr = float(np.linalg.norm(r))
        ref[j] = r / nr if nr > 0 else r
    moved = ds > 0
    arclen = lane[:, _ARC] + np.where(moved, ds, 0.0)
    rows = np.column_stack([y, q, arclen])
    block = rows[moved]

    def last_row(j, row):
        block[np.count_nonzero(moved[:j])] = row

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

    # The events below rewrite the lane's last sample row.  Its previous row
    # holds the lane's state before the step: only slope steps, which do not
    # move the lane, come between them.
    def clip(j):
        cu, cv, cs, cflag, carc = _clip_to_domain(lane[j, _ROW].tolist(), rows[j].tolist(),
                                                  fld.domain)
        cs = float(_project_slope(fld, cu, cv, cs, q[j] != 0, iters=8)[0])
        if moved[j]:    # a lane that did not move has no row this round
            last_row(j, [cu, cv, cs, cflag, carc])
        return True

    def degenerate(j):
        hit = _degenerate_on_segment(fld, y_old[j], y[j])
        if hit is None:
            return False
        yc, t_best = hit
        cs = float(_project_slope(fld, yc[0], yc[1], yc[2], q[j] != 0, iters=8)[0])
        last_row(j, [yc[0], yc[1], cs, q[j], lane[j, _ARC] + t_best * ds[j]])
        return True

    def closest(j):
        prev, seed = y_old[j], lane[j, _SEED]
        t_best, d_best = _closest_on_segment(prev, y[j], seed, period)
        if d_best >= params.loop_tol:
            return False
        yc = prev + t_best * (y[j] - prev)
        last_row(j, [yc[0], yc[1], yc[2], q[j], lane[j, _ARC] + t_best * ds[j]])
        return True

    # terminations, in order; each test sees only the lanes still running
    for j in (~fld.domain.contains(y[:, 0], y[:, 1])).nonzero()[0]:
        event(j, "left_domain", lambda: clip(j))
    for j in (running & (coefnorm < params.degenerate_tol)).nonzero()[0]:
        end(j, "hit_degenerate_point")
    # a step may jump across a totally degenerate point; when the
    # coefficient norm is small compared to its change over the step,
    # search the segment for a pass within radius 1e-6
    same_chart = (lane[:, _HAS_PREV] != 0) & moved & (lane[:, _Q] == q)
    jump = coefnorm < 2.0 * np.abs(coefnorm - lane[:, _NORM])
    for j in (running & same_chart & jump).nonzero()[0]:
        event(j, "hit_degenerate_point", lambda: degenerate(j))
    for j in (running & (arclen >= params.max_len)).nonzero()[0]:
        end(j, "max_length")
    near = (running & (arclen > 10 * h_max) & (q == lane[:, _SEED_Q])).nonzero()[0]
    if len(near):
        dist = _state_distance(y[near], lane[near, _SEED], period)
        for j in near[dist < params.loop_tol]:
            end(j, "closed_loop")
        # closest-approach event: a step can overshoot the seed state, so
        # bracket the local minimum of the distance along the last segment
        d_prev = _state_distance(y_old[near], lane[near, _SEED], period)
        for j in near[(dist >= params.loop_tol) & same_chart[near] & (d_prev < dist)
                      & (d_prev < 2 * ds[near])]:
            event(j, "closed_loop", lambda: closest(j))
    lane[:, _ROW], lane[:, _H], lane[:, _REF] = rows, h, ref
    lane[:, _NORM], lane[:, _HAS_PREV] = coefnorm, 1.0
    S[acc] = lane
    return job[acc][moved], block


def integrate_many(fld, jobs, params=None, stats=None):
    """Trace the asymptotic curves of many (seed, family, sweep) jobs at once.

    One Cash-Karp loop advances every job in lockstep: each round evaluates
    the lifted field of all running lanes from one batched slot evaluation
    per stage, while each lane keeps its own step size, chart, orientation
    and reference direction.  A lane gives the same bits as its job alone.
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


def _degenerate_on_segment(fld, a, b):
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
    if g > 0 and cmin / g < 1e-6:    # the pass comes within this radius
        return p, t_best
    return None


def _state_distance(a, b, period):
    """Largest coordinate gap between lifted states (..., 3), angles wrapped."""
    d = a - b
    for axis, p in enumerate(period or ()):
        if p:
            d[..., axis] = (d[..., axis] + p / 2) % p - p / 2
    return np.max(np.abs(d), axis=-1)


def _closest_on_segment(a, b, target, period):
    n = 64    # samples along the segment before the ternary refinement

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
    stage_seconds: dict = None             # wall time per stage, likewise

    def to_json(self):
        """The payload, as ``json.dumps(..., indent=1, sort_keys=True)`` writes
        it, with sample and polyline arrays written row by row from one
        ``float_texts`` call each."""
        region = [self.region.u0, self.region.u1, self.region.v0, self.region.v1]
        trajectories = [json_object([("family", json.dumps(t.family)),
                                     ("samples", json_rows(t.samples, 3)),
                                     ("termination", json.dumps(t.termination))], 2)
                        for t in self.trajectories]
        sets = [(name, json_block([json_rows(p, 3) for p in polys], 2))
                for name, polys in sorted(self.singular_sets.items())]
        return json_object([
            ("region", json_at(region, 1)),
            ("reports", json_block([json_at(r.to_json_dict(), 2) for r in self.reports], 1)),
            ("singular_sets", json_object(sets, 1)),
            ("trajectories", json_block(trajectories, 1)),
        ], 0)


def build_portrait(source, region=None, grid=(8, 8), params=None, trace_resolution=192,
                   detect=True):
    """Full phase portrait of the asymptotic net of a field or a surface.

    ``source`` is a coefficient field or a surface (in which case the
    extended field is built).  Both root families are integrated from a seed
    grid (cells with negative discriminant are skipped), plus a ring of seeds
    around each located singular point, all in one ``integrate_many`` call
    whose statistics the portrait keeps as ``integration``, and the wall
    time of each stage (trace, detect, folds, integrate) as
    ``stage_seconds``.  The payload is deterministic for fixed inputs.
    """
    surf = None
    if isinstance(source, BDEField):
        fld = source
    else:
        surf = source
        fld = bde.extended_field_for(surf)
    region = region or fld.domain
    fld = dataclasses.replace(fld, domain=region)
    params = params or IntegrationParams()

    stats = IntegrationStats()
    reports = []
    last = time.perf_counter()
    stages = {}

    def stage(name):
        nonlocal last
        now = time.perf_counter()
        stages[name], last = now - last, now

    if surf is not None and detect:
        sets = singular.singular_sets(surf, fld, region, trace_resolution)
        stage("trace")
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
        stage("trace")
    stage("detect")
    # folded points on the discriminant
    try:
        for pt in singular.find_folded_points(fld, disc_polys):
            try:
                reports.append(singular.classify_folded(fld, pt))
            except singular.NotSingularLiftError as exc:
                stats.drop_report("classify_folded", exc, pt)
    except bde.CapabilityError as exc:
        stats.drop_report("find_folded_points", exc)
    stage("folds")

    nx, ny = grid if not np.isscalar(grid) else (int(grid), int(grid))
    us = np.linspace(region.u0, region.u1, nx + 2)[1:-1]
    vs = np.linspace(region.v0, region.v1, ny + 2)[1:-1]
    seeds = [(float(u), float(v)) for u in us for v in vs]
    for rep in sorted(reports, key=lambda r: (r.kind, r.location)):
        for k in range(_RING_SEEDS):
            ang = 2 * math.pi * k / _RING_SEEDS
            seeds.append((rep.location[0] + _RING_RADIUS * math.cos(ang),
                          rep.location[1] + _RING_RADIUS * math.sin(ang)))

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
    stage("integrate")
    return Portrait(region, trajectories, sets, reports, stats, stages)


# -- SVG rendering --------------------------------------------------------------


_STYLES = {
    "plus": 'fill="none" stroke="#1f77b4" stroke-width="1.2"',
    "minus": 'fill="none" stroke="#d62728" stroke-width="1.2" stroke-dasharray="6 4"',
    "parabolic": 'fill="none" stroke="#000000" stroke-width="3"',
    "affine_parabolic": 'fill="none" stroke="#000000" stroke-width="3" stroke-dasharray="10 6"',
    "discriminant": 'fill="none" stroke="#444444" stroke-width="3" stroke-dasharray="10 6"',
}


def portrait_svg(portrait):
    """Deterministic SVG: u rightward, v upward, square aspect."""
    reg = portrait.region
    w, h = reg.u1 - reg.u0, reg.v1 - reg.v0
    scale = 1024 / max(w, h)    # pixels along the longer side
    W, H = w * scale, h * scale

    def mapper(u, v):
        # one point or arrays of points, the same operations either way
        return ((u - reg.u0) * scale, (reg.v1 - v) * scale)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W:.0f}" height="{H:.0f}" '
        f'viewBox="0 0 {W:.3f} {H:.3f}">',
        f'<rect x="0" y="0" width="{W:.3f}" height="{H:.3f}" fill="#ffffff"/>',
    ]
    for traj in portrait.trajectories:
        if len(traj.samples) >= 2:
            parts.append(f'<path d="{bde.polyline_svg_path(traj.points, mapper)}" '
                         f'{_STYLES[traj.family]}/>')
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
