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
(``integrate_many``): all lanes start from one batched slot evaluation
over their seeds, one Cash-Karp loop advances every job, each round
evaluates the lifted field of all running lanes from one batched slot
evaluation per stage, and each lane keeps its own step size, chart,
orientation, reference direction and event state in one row of the lane
state array.  A round costs a fixed count of numpy calls whatever its
lane count: each stage writes its velocities in place, the lanes that
creep where the lift vanishes are solved as one batch from their stage's
slots, chart switches are one batch, the step sizes and arclengths are
numpy's elementwise functions, and the termination tests run only
on the lanes that one screen of the round finds they could end.  A lane
that ends at an event inside its step, where it leaves the domain, closes
its loop or passes a totally degenerate point, ends at a fraction t of
that step.  The searches of a round's steps for a closed loop or a
degenerate pass run as one batch per round (``_step_minimum``), each lane
stopping once its bracket stops moving, and ``_event_samples`` writes the
last samples of all such lanes of a round by one recipe.  A lane sees the
same floating-point expressions alone as inside a batch, so it gives the
same bits as its job integrated alone; ``integrate_many`` is the one
entry, for one job as for all of a portrait's.

The embedded Cash-Karp 4(5) pair is implemented here rather than taken from
a library because the projection and chart bookkeeping live inside the step
loop and reproducibility down to the bit is part of the output contract.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from . import bde, singular
from .bde import BDEField
from .jsontext import json_at, json_block, json_object, json_rows

__all__ = [
    "Trajectory",
    "Portrait",
    "NoDirectionError",
    "IntegrationParams",
    "IntegrationStats",
    "integrate_many",
    "build_portrait",
    "portrait_svg",
]


class NoDirectionError(ArithmeticError):
    pass


class IntegrationParams:
    rel_tol = 1e-8
    max_len = 20.0
    max_steps = 20000
    max_step_frac = 1e-2    # of the region diagonal

    def __init__(self, rel_tol=rel_tol, max_len=max_len, max_steps=max_steps,
                 max_step_frac=max_step_frac):
        self.rel_tol, self.max_len = rel_tol, max_len
        self.max_steps, self.max_step_frac = max_steps, max_step_frac


class Trajectory:
    def __init__(self, samples, family, termination):
        self.samples = samples    # (n, 5): u, v, slope, chart flag (0=p, 1=q), arclength
        self.family = family      # "plus" | "minus"
        # left_domain | hit_degenerate_point | max_length | closed_loop, or, for a
        # lane whose stage failed inside the domain, lost_direction_field (a
        # NoDirectionError: no direction where the discriminant is negative) |
        # evaluation_failed (any other ArithmeticError, its own overflow among them)
        self.termination = termination

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


_ETA = 1e-9    # soft normalization of the lifted speed
_CHART_SWITCH = 1.5    # |slope| beyond which a lane switches slope chart
_LOOP_TOL = 1e-6    # state distance to the seed that closes a loop
_RING_SEEDS, _RING_RADIUS = 8, 0.05    # extra seeds around each singular point


class IntegrationStats:
    """What a lockstep integration did, kept beside the payloads and never in
    them: ``lanes`` started trajectories, ``rounds`` lockstep rounds,
    ``accepted``/``rejected`` Cash-Karp steps summed over lanes, ``rhs_evals``
    lane evaluations of the lifted field, ``chart_switches`` accepted steps
    that switched slope chart, ``creep_steps`` accepted steps with
    a stage that crept along the planar double direction, ``terminations`` a
    histogram of termination reasons, ``dropped`` the jobs that gave no
    trajectory, ``skipped_seeds`` the portrait seeds that gave no job and
    ``dropped_reports`` the portrait's singular-point searches and reports
    that failed, each with its reason."""

    def __init__(self):
        self.lanes = self.rounds = self.accepted = self.rejected = 0
        self.rhs_evals = self.chart_switches = self.creep_steps = 0
        self.terminations = {}
        self.dropped, self.skipped_seeds, self.dropped_reports = [], [], []

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
        """The fields in ``__init__`` order, the terminations sorted by reason."""
        return dict(vars(self), terminations=dict(sorted(self.terminations.items())))


def _project_slope(fld, u, v, slope, chart, iters=None):
    """Newton-project slopes onto {F = 0} at (u, v), at one point or per lane
    (``chart`` True where the slope is du/dv), from one slot evaluation:
    ``iters`` steps, or one step and seven more for the lanes that need them.
    Returns the slopes and the coefficient norm max(|A|, |B|, |C|) there."""
    c = fld.slots(u, v, 0)
    c2 = 2.0 * c
    norm = np.maximum.reduce(np.abs(c))
    scale = 1e-6 * np.maximum(norm, 1e-30)
    s0 = s = np.asarray(slope, dtype=float)
    going = np.ones(s.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(iters or 8):
            if k == 1 and iters is None:
                # F is quadratic in the slope: a Newton step ds leaves |F| <=
                # max(|A|, |B|, |C|) ds^2, so only larger steps can miss the bound
                going &= (s - s0) ** 2 > bde.LIFT_TOL
            if not np.count_nonzero(going):
                break
            fg, Fss = bde._chart_factors(chart, s, c2[0], c2[2])
            F, Fs = bde._lift_F(c[::2], c2[1], s, fg), c2[1] + Fss * s
            if k == 1 and iters is None:
                going &= np.abs(F) > bde.LIFT_TOL * norm
            going &= ~(np.abs(Fs) <= scale)
            new = np.where(going, s - F / Fs, s)
            # a step that leaves a slope's bits unchanged repeats at every later step
            going &= new.view(np.int64) != s.view(np.int64)
            s = new
    return s, norm


def _creep(abc, ref_dir):
    """Degenerate-lift fallback: on curves that are simultaneously criminant
    and solution (e.g. profile circles of a surface of revolution) the lifted
    field vanishes identically while the planar double direction stays well
    defined.  Per lane, from the values ``abc`` (3, lanes) of (A, B, C):
    creep along the root nearest the reference direction."""
    kind, roots = bde.direction_roots(*abc)
    if np.isin(kind, ("none", "degenerate")).any():
        raise NoDirectionError("lost the direction field")
    along = np.abs(roots[..., 0] * ref_dir[:, None, 0] + roots[..., 1] * ref_dir[:, None, 1])
    best = roots[np.arange(len(roots)), (along[:, 1] > along[:, 0]).astype(int)]
    fall = np.column_stack([best, np.zeros(len(best))])
    return np.where((np.vecdot(fall, ref_dir) < 0)[:, None], -fall, fall)


def _rhs(fld, y, chart, orient, ref_dir, out):
    """Softly normalized lifted velocity per lane, written into ``out``
    (lanes, 3), and which lanes crept."""
    c = fld.slots(y[:, 0], y[:, 1], 1)
    X, scale = bde.lifted_velocity(c, y[:, 2], chart)
    n = np.sqrt(np.vecdot(X, X))
    creep = ~(n > 1e-9 * np.maximum(scale, 1e-30))
    # X / (orient |X|) has the bits of orient X / |X|: only signs differ
    k = np.divide(X, (orient * np.sqrt(n * n + _ETA * _ETA))[:, None], out=out)
    if np.count_nonzero(creep):
        k[creep] = _creep(c[::3, creep], ref_dir[creep])
    return k, creep


# Columns of the lane state, one row per running lane.  A lane's sample row
# (u, v, slope, chart flag, arclength) comes first, so that the rows of a
# round are one slice; flags are 0.0 or 1.0.  _DIST: the row's state distance to the seed.
_ROW, _Y, _Q, _ARC = slice(0, 5), slice(0, 3), 3, 4
_H, _ORIENT, _NORM, _HAS_PREV, _SEED_Q, _DIST = 5, 6, 7, 8, 9, 10
_REF, _SEED = slice(11, 14), slice(14, 17)
_WIDTH = 17


def _start(fld, jobs):
    """Lane states of (seed, family, sweep) jobs from one slot evaluation over
    their seeds: the seed lifted on the family's root in the chart where its
    slope is at most 1 in magnitude, the sweep as orientation and the unit
    lifted velocity (the root where it vanishes) as reference direction.
    Returns the jobs that start, their lane states and per job None or the
    lane error that dropped it."""
    seeds = np.array([seed for seed, _, _ in jobs], dtype=float)
    res, errors = bde._lanewise(
        lambda sl: (fld.slots(seeds[sl, 0], seeds[sl, 1], 1).T,), len(jobs))
    job = np.array([k for k, e in enumerate(errors) if e is None], dtype=int)
    c = res[0].T if len(job) else np.zeros((9, 0))
    kind, roots = bde.direction_roots(*c[::3])
    why = {"none": "lies where the discriminant is negative",
           "degenerate": "is a totally degenerate point"}
    for k, kd in zip(job.tolist(), kind.tolist()):
        if kd in why:
            errors[k] = NoDirectionError(f"seed {jobs[k][0]} {why[kd]}")
    ok = np.isin(kind, ("two", "double"))
    job, c, roots = job[ok], c[:, ok], roots[ok]
    d = roots[np.arange(len(job)), [int(jobs[k][1] == "minus") for k in job.tolist()]]
    chart_q = np.abs(d[:, 1]) > np.abs(d[:, 0])
    orient = np.array([jobs[k][2] for k in job.tolist()], dtype=float)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(chart_q, d[:, 0] / d[:, 1], d[:, 1] / d[:, 0])
        X, scale = bde.lifted_velocity(c, slope, chart_q)
        n = np.sqrt(np.vecdot(X, X))[:, None]
        ref = np.where(n > 1e-9 * np.maximum(scale, 1e-30)[:, None], orient * X / n,
                       orient * np.column_stack([d, np.zeros(len(job))]))
    S = np.zeros((len(job), _WIDTH))
    S[:, _Y], S[:, _Q], S[:, _ORIENT], S[:, _REF] = (
        np.column_stack([seeds[job], slope]), chart_q, orient[:, 0], ref)
    S[:, _SEED], S[:, _SEED_Q] = S[:, _Y], S[:, _Q]
    return job, S, errors


def _stage_end(domain, point, exc):
    """Termination of a lane whose Cash-Karp stage at ``point`` raised the
    lane error ``exc``."""
    if not domain.contains(point[0], point[1]):
        return "left_domain"
    if isinstance(exc, NoDirectionError):
        return "lost_direction_field"
    return "evaluation_failed"


def integrate_many(fld, jobs, params=None, stats=None):
    """Trace the asymptotic curves of many (seed, family, sweep) jobs at once.

    One Cash-Karp loop advances every job in lockstep: each round evaluates
    the lifted field of all running lanes from one batched slot evaluation
    per stage, while each lane keeps its own step size, chart, orientation
    and reference direction.  A lane gives the same bits as its job alone.
    The family fixes the direction root at the seed and the sweep (+1 or -1)
    which half of the unoriented curve through the seed is traced.
    Returns one Trajectory per job, in job order, or None: for a job that
    cannot start (its seed has no direction, or its slots raise) or that
    hit a lane error in the accepted-step bookkeeping, ``stats`` (an
    IntegrationStats) records a drop with its reason, beside its counters.
    A family other than "plus" or "minus", or a sweep other than +1 or -1,
    raises ValueError before any evaluation.
    """
    for _, family, sweep in jobs:
        if family not in ("plus", "minus") or sweep not in (1, -1):
            raise ValueError(f"a job's family must be 'plus' or 'minus' and its sweep +1 "
                             f"or -1, not {family!r} and {sweep!r}")
    if not jobs:
        return []
    params = params or IntegrationParams()
    stats = stats if stats is not None else IntegrationStats()
    job, S, out = _start(fld, jobs)
    stats.lanes += len(job)
    domain, period = fld.domain, fld.period
    diag = domain.diagonal
    h_max = params.max_step_frac * diag
    h_min = 1e-12 * diag
    S[:, _H] = h_max / 8
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
        # the state's columns, read again only after finish drops lanes
        y, h, chart, orient, ref = S[:, _Y], S[:, _H, None], S[:, _Q] != 0, S[:, _ORIENT], S[:, _REF]
        K, crept = np.empty((6, len(job), 3)), np.zeros(len(job), dtype=bool)
        for i in range(6):
            yi = y if i == 0 else y + h * _stage_sum(_CK_AW[i], K[:i])
            stats.rhs_evals += len(yi)
            Ki = K[i]
            res, errors = bde._lanewise(
                lambda sl: _rhs(fld, yi[sl], chart[sl], orient[sl], ref[sl], Ki[sl]), len(yi))
            if any(errors):
                kept = finish([None if e is None else _stage_end(domain, yi[j], e)
                               for j, e in enumerate(errors)])
                K, crept = K[:, kept], crept[kept]
                if not len(job):
                    break
                y, h, chart = S[:, _Y], S[:, _H, None], S[:, _Q] != 0
                orient, ref = S[:, _ORIENT], S[:, _REF]
            crept |= res[1]
            if i == 0:
                # Orientation continuity: each slope chart carries its own
                # time orientation, so a chart switch (or a creep-mode exit)
                # may hand back the reversed field.  The lifted velocity is
                # continuous along the lift, cusps included, so a reversal
                # against the last step direction can only be such an artifact.
                flip = np.vecdot(K[0], ref) < 0
                if np.count_nonzero(flip):
                    orient[flip] = -orient[flip]
                    K[0, flip] = -K[0, flip]
        if not len(job):
            break
        y5, y4 = y + h * _stage_sum(_CK_BW, K[:, None])
        err = np.maximum.reduce(np.abs(y5 - y4), axis=1)
        tol = params.rel_tol * (1.0 + np.maximum.reduce(np.abs(y5), axis=1))
        rej = (err > tol) & (h[:, 0] > h_min)
        if np.count_nonzero(rej):
            # err > tol >= 0 on these lanes, so tol / err is finite
            shrink = np.maximum(0.2, 0.9 * np.power(tol[rej] / err[rej], 0.25))
            S[rej, _H] = np.maximum(h[rej, 0] * shrink, h_min)
            stats.rejected += int(np.count_nonzero(rej))
        acc = (~rej).nonzero()[0]
        if not len(acc):
            continue
        y5 = y5[acc]
        reasons = [None] * len(job)
        qa = chart[acc]
        res, errors = bde._lanewise(
            lambda sl: _project_slope(fld, y5[sl, 0], y5[sl, 1], y5[sl, 2], qa[sl]), len(acc))
        if any(errors):
            for j, e in zip(acc.tolist(), errors):
                reasons[j] = e
            ok = np.array([e is None for e in errors], dtype=bool)
            acc, y5 = acc[ok], y5[ok]
        if len(acc):
            blocks.append(_accept(fld, params, stats, S, job, acc, y5, res, err[acc], tol[acc],
                                  crept[acc], reasons, h_max, period))
        if reasons.count(None) < len(reasons):
            finish(reasons)

    # each trajectory's samples: its rows of every block, in round order,
    # written once into one array; a block has at most one row per job
    counts = np.bincount(np.concatenate([b[0] for b in blocks]), minlength=len(jobs))
    ends = np.cumsum(counts)
    rows, at = np.empty((ends[-1], 5)), ends - counts
    for jb, block in blocks:
        rows[at[jb]] = block
        at[jb] += 1
    samples = np.split(rows, ends[:-1])
    for k, r in enumerate(out):
        if isinstance(r, str):
            out[k] = Trajectory(samples[k], jobs[k][1], r)
        else:    # the lane error that dropped the job
            stats.drop(jobs[k], r)
            out[k] = None
    return out


def _accept(fld, params, stats, S, job, acc, y, projected, err, tol, crept, reasons,
            h_max, period):
    """Accepted steps of lanes ``acc``: bookkeeping and termination events.
    Updates the lane state ``S`` and returns the jobs and the sample rows of
    the lanes whose step moved.  The termination tests run on the lanes
    that one screen finds they could end."""
    stats.accepted += len(acc)
    stats.creep_steps += int(np.count_nonzero(crept))
    y[:, 2], coefnorm = projected
    every = len(acc) == len(S)    # then S itself takes the state after the step
    lane = S.copy() if every else S[acc]    # the state before the step
    new = S if every else lane.copy()
    step = y - lane[:, _Y]
    ds = np.hypot(step[:, 0], step[:, 1])
    nstep = np.hypot(ds, step[:, 2])
    ref = new[:, _REF]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(step, nstep[:, None], out=ref, where=(nstep > 0)[:, None])
        ratio = tol / err    # read only where err > 0
    grow = np.where(err > 0, np.minimum(5.0, 0.9 * np.power(ratio, 0.2)), 5.0)
    np.minimum(lane[:, _H] * grow, h_max, out=new[:, _H])
    q = new[:, _Q]
    switch = (np.abs(y[:, 2]) > _CHART_SWITCH).nonzero()[0]
    if len(switch):
        stats.chart_switches += len(switch)
        s = y[switch, 2]
        y[switch, 2] = 1.0 / s
        q[switch] = 1.0 - q[switch]
        # carry the reference direction into the new chart:
        # d(1/s)/dt = -sdot / s^2
        r = ref[switch]
        r[:, 2] = -r[:, 2] / (s * s)
        nr = np.sqrt(np.vecdot(r, r))[:, None]
        ref[switch] = np.divide(r, nr, out=r, where=nr > 0)
    moved = ds > 0
    arclen = np.add(lane[:, _ARC], np.where(moved, ds, 0.0), out=new[:, _ARC])
    new[:, _Y], new[:, _NORM], new[:, _HAS_PREV] = y, coefnorm, 1.0
    new[:, _DIST] = _state_distance(y, lane[:, _SEED], period)
    keep = moved.nonzero()[0]
    # the screen, a superset of the triggers of the tests below (_DIST before
    # the step is the previous distance of the closest approach search)
    gone = ~fld.domain.contains(y[:, 0], y[:, 1])
    sub = (gone | (arclen >= params.max_len) | (new[:, _DIST] < _LOOP_TOL)
           | (lane[:, _DIST] < 2 * ds)
           | (coefnorm < np.fmax(2.0 * np.abs(coefnorm - lane[:, _NORM]), bde.DEGENERATE_TOL))
           ).nonzero()[0]
    if len(sub):
        # the terminations, in order, each test seeing only the lanes still running
        lane, y, q, arclen, ds, coefnorm, gone, rows, who = (
            lane[sub], y[sub], q[sub], arclen[sub], ds[sub], coefnorm[sub], gone[sub],
            new[sub, _ROW], acc[sub])
        y_old, moved, running = lane[:, _Y], ds > 0, np.ones(len(sub), dtype=bool)
        # the lanes whose last sample an event moves back to a fraction of the step
        cut, frac = np.zeros(len(sub), dtype=bool), np.zeros(len(sub))

        def end(lanes, reason, t=None):
            for k in who[lanes].tolist():
                reasons[k] = reason
            running[lanes] = False
            if t is not None:
                cut[lanes], frac[lanes] = True, t

        # a lane that did not move has no row this round
        end(gone & ~moved, "left_domain")
        out = gone & moved
        end(out, "left_domain", _edge_fraction(fld.domain, y_old[out, :2], y[out, :2]))
        end(running & (coefnorm < bde.DEGENERATE_TOL), "hit_degenerate_point")
        # a step may jump across a totally degenerate point; when the
        # coefficient norm is small compared to its change over the step,
        # search the step for a pass within radius 1e-6
        same_chart = (lane[:, _HAS_PREV] != 0) & moved & (lane[:, _Q] == q)
        jump = coefnorm < 2.0 * np.abs(coefnorm - lane[:, _NORM])
        look = (running & same_chart & jump).nonzero()[0]
        if len(look):
            a, b = y_old[look, :2], y[look, :2]
            res, errors = bde._lanewise(lambda sl: _degenerate_pass(fld, a[sl], b[sl]), len(look))
            for j, e in zip(look.tolist(), errors):
                if e is not None:
                    end([j], e)
            if res is not None:
                t, hit = res
                end(look[running[look]][hit], "hit_degenerate_point", t[hit])
        end(running & (arclen >= params.max_len), "max_length")
        near = (running & (arclen > 10 * h_max) & (q == lane[:, _SEED_Q])).nonzero()[0]
        if len(near):
            dist, d_prev = new[sub[near], _DIST], lane[near, _DIST]
            end(near[dist < _LOOP_TOL], "closed_loop")
            # closest approach: a step can overshoot the seed state, so search
            # the step for the minimum of the distance
            look = near[(dist >= _LOOP_TOL) & same_chart[near] & (d_prev < dist)
                        & (d_prev < 2 * ds[near])]
            if len(look):
                a, b, seed = y_old[look], y[look], lane[look, _SEED][:, None]
                t, d = _step_minimum(lambda lanes, t: _state_distance(
                    _chord(a[lanes], b[lanes], t), seed[lanes], period), len(look))
                end(look[d < _LOOP_TOL], "closed_loop", t[d < _LOOP_TOL])
        if cut.any():
            c = cut.nonzero()[0]
            rows[c], errors = _event_samples(fld, lane[c, _ROW], rows[c], frac[c])
            for k, e in zip(who[c].tolist(), errors):
                if e is not None:
                    reasons[k] = e
        new[sub, _ROW] = rows
    if not every:
        S[acc] = new
    return job[acc[keep]], new[keep, _ROW]


def _state_distance(a, b, period):
    """Largest coordinate gap between lifted states (..., 3), angles wrapped."""
    d = a - b
    for axis, p in enumerate(period or ()):
        if p:
            d[..., axis] = (d[..., axis] + p / 2) % p - p / 2
    d = np.abs(d, out=d)
    return np.maximum(np.maximum(d[..., 0], d[..., 1]), d[..., 2])


def _step_minimum(f, k):
    """Per lane of k, a minimum over the fractions t in [0, 1] of its step:
    the best of 65 evenly spaced fractions, refined inside its neighbours'
    bracket by ternary-search steps, 100 at most, until one leaves the
    bracket unchanged, as every later one would.  ``f(lanes, t)`` maps lane
    indices and their fractions, shape (len(lanes), m), to values; each
    call takes all lanes still searching.  Returns t and f(t) per lane."""
    n, lanes = 64, np.arange(k)
    t = np.argmin(f(lanes, np.tile(np.arange(n + 1) / n, (k, 1))), axis=1) / n
    lo, hi = np.maximum(t - 1.0 / n, 0.0), np.minimum(t + 1.0 / n, 1.0)
    for _ in range(100):
        if not len(lanes):
            break
        l, h = lo[lanes], hi[lanes]
        m1, m2 = l + (h - l) / 3, h - (h - l) / 3
        f1, f2 = f(lanes, np.column_stack([m1, m2])).T
        left = f1 <= f2
        hi[lanes[left]], lo[lanes[~left]] = m2[left], m1[~left]
        lanes = lanes[np.where(left, m2 != h, m1 != l)]
    t = 0.5 * (lo + hi)
    return t, f(np.arange(k), t[:, None])[:, 0]


def _chord(a, b, t):
    """The points at the fractions t (lanes, m) of the steps from a to b."""
    return a[:, None] + t[..., None] * (b - a)[:, None]


def _degenerate_pass(fld, a, b):
    """Per step from (u, v) ``a`` to ``b``: the fraction t where the
    coefficient norm is least, and whether the step passes a totally
    degenerate point there, where that norm is below 1e-6 times the norm of
    its gradient."""
    def norm(lanes, t):
        p = _chord(a[lanes], b[lanes], t).reshape(-1, 2)
        return np.max(np.abs(fld.slots(p[:, 0], p[:, 1], 0)), axis=0).reshape(t.shape)

    t, cmin = _step_minimum(norm, len(a))
    p = _chord(a, b, t[:, None])[:, 0]
    sq = np.square(fld.slots(p[:, 0], p[:, 1], 1)[[1, 2, 4, 5, 7, 8]])
    g = np.sqrt(sq[0] + sq[1] + (sq[2] + sq[3]) + (sq[4] + sq[5]))
    with np.errstate(divide="ignore", invalid="ignore"):
        # an exact hit is a pass too: there a quadratic field's gradient vanishes
        return t, (cmin == 0) | ((g > 0) & (cmin / g < 1e-6))


def _edge_fraction(domain, a, b):
    """Per step from (u, v) ``a`` to ``b`` outside ``domain``: the fraction
    of the chord at which it leaves the domain through an edge that ``b``
    lies beyond (0 at the least)."""
    lo, hi = np.array([domain.u0, domain.v0], float), np.array([domain.u1, domain.v1], float)
    beyond = b > hi
    cross = (beyond | (b < lo)) & (b != a)
    with np.errstate(divide="ignore", invalid="ignore"):
        at = (np.where(beyond, hi, lo) - a) / (b - a)
    # min(min(1, t_u), t_v), as the edges are taken in turn
    return np.maximum(np.minimum.reduce(np.where(cross, at, 1.0), axis=1, initial=1.0), 0.0)


def _event_samples(fld, before, after, t):
    """The last sample rows of lanes that end at the fractions ``t`` of their
    steps from the rows ``before`` to the rows ``after``: the (u, v) point
    on the chord, its slope projected onto {F = 0} from the step's end slope
    in the end chart, and the arclength of the chord piece added.  Returns
    the rows and per row None or the lane error of its projection."""
    rows = after.copy()
    a = before[:, :2]
    p = a + t[:, None] * (after[:, :2] - a)
    rows[:, :2], rows[:, 4] = p, before[:, 4] + np.hypot(*(p - a).T)
    res, errors = bde._lanewise(lambda sl: _project_slope(
        fld, p[sl, 0], p[sl, 1], after[sl, 2], after[sl, 3] != 0, iters=8), len(t))
    if res is not None:
        rows[[e is None for e in errors], 2] = res[0]
    return rows, errors


class Portrait:
    def __init__(self, region, trajectories=None, singular_sets=None, reports=None,
                 integration=None, stage_seconds=None):
        self.region = region
        self.trajectories = [] if trajectories is None else trajectories
        self.singular_sets = {} if singular_sets is None else singular_sets
        self.reports = [] if reports is None else reports
        self.integration = integration        # run statistics, not part of the payload
        self.stage_seconds = stage_seconds    # wall time per stage, likewise

    def to_json(self):
        """The payload in chunks: the text of ``json.dumps(..., indent=1,
        sort_keys=True)`` and a newline, with sample and polyline arrays
        written row by row from one ``float_texts`` call each.  The head
        holds everything before the trajectories, then one chunk per
        trajectory, then the tail."""
        region = [self.region.u0, self.region.u1, self.region.v0, self.region.v1]
        sets = [(name, json_block([json_rows(p, 3) for p in polys], 2))
                for name, polys in sorted(self.singular_sets.items())]
        head = json_object([
            ("region", json_at(region, 1)),
            ("reports", json_block([json_at(r.to_json_dict(), 2) for r in self.reports], 1)),
            ("singular_sets", json_object(sets, 1)),
            ("trajectories", "[]"),
        ], 0)
        if not self.trajectories:
            yield head + "\n"
            return
        yield head[:-len("]\n}")]
        for k, t in enumerate(self.trajectories):
            yield ("," if k else "") + "\n  " + json_object(
                [("family", json.dumps(t.family)), ("samples", json_rows(t.samples, 3)),
                 ("termination", json.dumps(t.termination))], 2)
        yield "\n ]\n}\n"


def build_portrait(source, region=None, grid=(12, 12), params=None, trace_resolution=192):
    """Full phase portrait of the asymptotic net of a field or a surface.

    ``source`` is a coefficient field or a surface (in which case the
    extended field is built).  Both root families are integrated from a seed
    grid (cells with negative discriminant are skipped), plus a ring of seeds
    around each located singular point (a report within three trace cells of
    an earlier one that has a ring joins that ring: its seeds are skipped),
    all in one ``integrate_many`` call whose statistics the portrait keeps as
    ``integration``, and the wall time of each stage (trace, detect, folds,
    integrate) as ``stage_seconds``.  The payload is deterministic for fixed
    inputs.
    """
    if isinstance(source, BDEField):
        fld, euclid = source, None
    else:
        fld, euclid = bde.extended_field_for(source), bde.euclidean_field_for(source)
    region = region or fld.domain
    fld = BDEField(fld.slots, region, fld.period)
    params = params or IntegrationParams()

    stats = IntegrationStats()
    reports = []
    last = time.perf_counter()
    stages = {}

    def stage(name):
        nonlocal last
        now = time.perf_counter()
        stages[name], last = now - last, now

    sets = singular.singular_sets(euclid, fld, region, trace_resolution)
    stage("trace")
    if euclid is not None:
        try:
            reports.extend(singular.detect_special_points(euclid, sets, region,
                                                          trace_resolution, stats.drop_report))
        except ArithmeticError as exc:
            stats.drop_report("detect_special_points", exc)
    stage("detect")
    # folded points on the whole extended discriminant; find_folded_points
    # sorts its candidates, so the order of the components does not matter
    reports += singular.fold_reports(fld, sets.get("affine_parabolic", []) + sets["discriminant"],
                                     region, trace_resolution, stats.drop_report)
    stage("folds")
    reports.sort(key=lambda r: (r.kind, r.location))

    nx, ny = grid if not np.isscalar(grid) else (int(grid), int(grid))
    us = np.linspace(region.u0, region.u1, nx + 2)[1:-1]
    vs = np.linspace(region.v0, region.v1, ny + 2)[1:-1]
    seeds = [(float(u), float(v)) for u in us for v in vs]
    # a report within reach of an earlier one that has a ring joins that ring
    reach, rings, joins = singular._reach(region, trace_resolution), [], [None] * len(seeds)
    for rep in reports:
        near = next((r for r in rings if math.dist(r.location, rep.location) <= reach), None)
        if near is None:
            rings.append(rep)
        join = near and "joins the ring of the {} at ({:.6g}, {:.6g})".format(near.kind,
                                                                             *near.location)
        for k in range(_RING_SEEDS):
            ang = 2 * math.pi * k / _RING_SEEDS
            seeds.append((rep.location[0] + _RING_RADIUS * math.cos(ang),
                          rep.location[1] + _RING_RADIUS * math.sin(ang)))
            joins.append(join)
    # one discriminant evaluation for all the other seeds inside the region
    pts = np.array(seeds)
    inside = region.contains(*pts.T)
    negative = np.zeros(len(seeds), dtype=bool)
    ask = inside & np.array([join is None for join in joins])
    negative[ask] = bde.discriminant(fld, *pts[ask].T) < 0
    jobs = []
    for seed, join, ins, neg in zip(seeds, joins, inside.tolist(), negative.tolist()):
        skip = join or ("outside the region" if not ins else "negative discriminant" if neg
                        else None)
        if skip:
            stats.skipped_seeds.append({"seed": list(seed), "reason": skip})
            continue
        jobs += [(seed, fam, sweep) for fam in ("plus", "minus") for sweep in (1, -1)]
    trajectories = [t for t in integrate_many(fld, jobs, params, stats) if t is not None]
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
    """Deterministic SVG in chunks (an element, or a report's marker and
    label): u rightward, v upward, square aspect."""
    reg = portrait.region
    w, h = reg.u1 - reg.u0, reg.v1 - reg.v0
    scale = 1024 / max(w, h)    # pixels along the longer side
    W, H = w * scale, h * scale

    def mapper(u, v):
        # one point or arrays of points, the same operations either way
        return ((u - reg.u0) * scale, (reg.v1 - v) * scale)

    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{W:.0f}" height="{H:.0f}" '
           f'viewBox="0 0 {W:.3f} {H:.3f}">\n')
    yield f'<rect x="0" y="0" width="{W:.3f}" height="{H:.3f}" fill="#ffffff"/>\n'
    for traj in portrait.trajectories:
        if len(traj.samples) >= 2:
            yield (f'<path d="{bde.polyline_svg_path(traj.points, mapper)}" '
                   f'{_STYLES[traj.family]}/>\n')
    for name, polys in sorted(portrait.singular_sets.items()):
        style = _STYLES.get(name, _STYLES["discriminant"])
        for poly in polys:
            if len(poly) >= 2:
                yield f'<path d="{bde.polyline_svg_path(poly, mapper)}" {style}/>\n'
    for rep in portrait.reports:
        x, y = mapper(*rep.location)
        yield (f'<circle cx="{x:.3f}" cy="{y:.3f}" r="5" fill="#ff7f0e"/>\n'
               f'<text x="{x + 7:.3f}" y="{y - 7:.3f}" font-size="12" '
               f'font-family="monospace">{rep.kind}</text>\n')
    yield "</svg>\n"
