"""Seeded workloads of the affasym benchmark and the checks on their outputs.

Each workload is a list of `python -m affasym ...` commands whose surface
parameters are drawn from the run's seed; affasym itself only ever sees the
resulting argv.  Why each workload exists, and which ROADMAP item it is meant
to expose, is written next to its definition below and in README.md.

Parameter draws.  Wall time depends on the surface parameters (a cusp
portrait at `--res 4` integrates from about 7k to 19k samples across the
parameter range, and takes from 5 s to 16 s), so runs that draw their points
freely from the range measure the draw as much as the program.  Each
workload therefore fixes, per iteration, the stratum its point comes from,
and the seed decides the point within it:

* portrait-cusp: iteration k uses design point k of `CUSP_DESIGN`, which
  spreads five strata over the (|q21|, q40) range.  The seed moves |q21|
  and q40 each by up to `CUSP_JITTER` and picks the sign of q21.  The
  surface for -q21 is the mirror image of the one for q21, so the sign
  changes every input number but not the amount of work.
* grid-torus: iteration k uses point k of a Halton sequence (base 2)
  shifted modulo 1 by a seed-drawn offset (Cranley-Patterson rotation), so
  a run covers the R range evenly.  The cost hardly depends on R: the grids
  are fixed by `--res`.

Seed 0 puts iteration 0 exactly on the ROADMAP Baseline commands.

Number of iterations.  A run makes `Workload.iterations(seconds)` iterations,
a count fixed by the run length and the workload's per-iteration budget
`budget_s`, never by how fast the iterations go.  A faster or slower program
is therefore always measured on the same parameter points.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0

# Direction equation residual |F| / max(|A|, |B|, |C|) allowed at any portrait
# sample: the bound the repository's own tests hold trajectories to
# (tests/test_flow.py).  Accepted steps re-project the slope with one Newton
# step.  Near the parabolic curve, where the two roots of F nearly coincide,
# that step leaves |F| at up to about 3e-8 of |A| + 2|B s| + |C| s^2 (all three
# terms are small there), but at most about 1e-11 of max(|A|, |B|, |C|).
SLOPE_RESIDUAL_BOUND = 1e-8
CONORMAL_RESIDUAL_BOUND = 1e-7  # acceptance criterion 08
K_REL_TOL = 1e-9


def _radical_inverse(i, base):
    out, f = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        out += digit * f
        f /= base
    return out


def _halton(seed, baseline_shift, index):
    """Point `index` of the seed's rotated base-2 Halton sequence in [0, 1)."""
    shift = baseline_shift if seed == 0 else np.random.default_rng(seed).random()
    return (shift + _radical_inverse(index, 2)) % 1.0


def _num(x):
    """Exact argv text of a parameter (parameters are rounded to 6 decimals)."""
    return repr(float(x))


@dataclass
class Workload:
    name: str
    budget_s: float         # seconds set aside for one iteration of a run

    def iterations(self, seconds):
        return max(1, int(seconds // self.budget_s))

    def params(self, seed, iteration):
        raise NotImplementedError

    def commands(self, params, outdir):
        """[(command name, argv after `python -m affasym`)] for one iteration."""
        raise NotImplementedError

    def field_params(self, params):
        """(catalog id, catalog_surface params) of the workload's surface."""
        raise NotImplementedError


# (|q21|, q40) strata of portrait-cusp.  Point 0 is the Baseline command.
# The samples each integrates at `--res 4` are 10.8k, 8.8k, 15.4k, 14.2k and
# 15.0k, so together they cover the cheap and the expensive ends of the range.
CUSP_DESIGN = ((1.0, 0.1), (1.5, 0.4), (1.3, -0.3), (0.9, 0.35), (0.85, -0.2))
# Largest move of |q21| and of q40 away from a design point.  It changes the
# samples of a point by a few percent; every moved point keeps
# |q21^2 - 4 q40| > 0.48, inside the admissible range of criterion 06.
CUSP_JITTER = 0.02


class PortraitCusp(Workload):
    def params(self, seed, iteration):
        a, q40 = CUSP_DESIGN[iteration % len(CUSP_DESIGN)]
        sign = 1.0
        if seed != 0:
            rng = np.random.default_rng([seed, iteration])
            da, dq, flip = rng.random(3)
            a += CUSP_JITTER * (2.0 * da - 1.0)
            q40 += CUSP_JITTER * (2.0 * dq - 1.0)
            sign = -1.0 if flip < 0.5 else 1.0
        q21, q40 = float(round(sign * a, 6)), float(round(q40, 6))
        assert 0.8 <= abs(q21) <= 1.6 and -0.5 <= q40 <= 0.5
        assert abs(q21 * q21 - 4.0 * q40) > 0.3
        return {"q21": q21, "q40": q40}

    def commands(self, p, outdir):
        return [("portrait", ["portrait", "--surface", "catalog:cusp_gauss",
                              "--q", f"21={_num(p['q21'])}", "--q", f"40={_num(p['q40'])}",
                              "--res", "4", "--out", os.path.join(outdir, "portrait")])]

    def field_params(self, p):
        return "cusp_gauss", {"q": {(2, 1): p["q21"], (4, 0): p["q40"]}}


class GridTorus(Workload):
    SHIFT = 1.0 / 3.0   # Halton shift that puts seed 0 on the Baseline R = 3

    def params(self, seed, iteration):
        x = _halton(seed, self.SHIFT, iteration)
        return {"R": float(round(2.5 + 1.5 * x, 6)), "r": 1.0}

    def commands(self, p, outdir):
        surf = ["--surface", "catalog:torus", "--R", _num(p["R"]), "--r", _num(p["r"])]
        return [(cmd, [cmd] + surf + ["--res", res, "--out", os.path.join(outdir, cmd)])
                for cmd, res in (("analyze", "32"), ("conormal", "192"))]

    def field_params(self, p):
        return "torus", {"R": p["R"], "r": p["r"]}


WORKLOADS = {w.name: w for w in (
    # Polynomial Monge chart: surface.poly_eval_jet is about half the time.
    # singular classifies the cusp of Gauss, affine cusps, a folded saddle and
    # a parabolic meeting near the origin, which add ring seeds.  The
    # workload for item 2 and for the integrator under an expensive field.
    # Seed grid --res 4 rather than 8: a portrait at --res 8 costs from 5 s
    # to 23 s across the parameter ranges, and the lighter grid (the 40 ring
    # seeds around the singular points stay) fits all five strata of
    # CUSP_DESIGN in a run.  The 12 s budget per iteration leaves room for
    # slow phases of the machine, so a 60 s run makes 5 iterations.
    # Seed 0, iteration 0: portrait --surface catalog:cusp_gauss --q 21=1.0
    # --q 40=0.1 --res 4.
    PortraitCusp("portrait-cusp", 12.0),
    # No integration.  analyze takes the scalar per-point path (1024
    # affine_point_data calls, about 151k Jet2.__mul__ calls); conormal on the
    # same surface takes the batched path over the same affine/jets layers
    # (row-batched frame_jets, component labelling, OBJ export).  The
    # workload for batching analyze (item 3), which must not cost conormal.
    # Baseline: analyze --surface catalog:torus --R 3 --r 1 --res 32, then
    # conormal on the same surface at --res 192.  One iteration takes about
    # 6.2 s with its set-up samples and checks on the baseline machine; a 60 s
    # run makes 8 iterations.
    GridTorus("grid-torus", 7.5),
)}


# -- output checks ---------------------------------------------------------------
#
# Each check returns a list of failure messages; an empty list is a pass.  They
# hold for every parameter point in the workload ranges.


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def slope_residuals(field, samples):
    """Direction-equation residual of portrait samples (u, v, s, chart),
    relative to the largest coefficient."""
    u, v, s, chart = samples[:, 0], samples[:, 1], samples[:, 2], samples[:, 3]
    A, B, C = (np.asarray(c, dtype=float) + 0.0 * u for c in field.coeff(u, v))
    q = chart > 0.5
    lead, trail = np.where(q, C, A), np.where(q, A, C)
    F = lead + 2.0 * B * s + trail * s * s
    scale = np.maximum(np.maximum(np.abs(A), np.abs(B)), np.abs(C))
    return np.abs(F) / np.where(scale > 0, scale, 1.0)


def check_portrait(workload, params, outdir, field):
    doc = _load_json(os.path.join(outdir, "portrait", "portrait.json"))
    fails = []
    trajs = doc["trajectories"]
    if not trajs:
        fails.append("portrait has no trajectories")
    else:
        samples = np.concatenate([np.asarray(t["samples"], dtype=float) for t in trajs])
        worst = float(np.max(slope_residuals(field, samples)))
        if not worst <= SLOPE_RESIDUAL_BOUND:
            fails.append(f"direction equation residual {worst:.3e} > {SLOPE_RESIDUAL_BOUND}")
    u0, u1, v0, v1 = doc["region"]
    cell = max(u1 - u0, v1 - v0) / 192
    for kind in ("cusp_of_gauss", "folded_saddle"):
        near = [r for r in doc["reports"] if r["kind"] == kind
                and math.hypot(*r["location"]) <= cell]
        if not near:
            fails.append(f"no {kind} report within one trace cell of the origin")
    return fails


def check_analyze(workload, params, outdir, field):
    rows = _load_json(os.path.join(outdir, "analyze", "analyze.json"))
    fails = []
    if len(rows) != 32 * 32:
        fails.append(f"analyze wrote {len(rows)} rows, expected {32 * 32}")
    if rows:
        R, r = params["R"], params["r"]
        u = np.array([row["u"] for row in rows])
        K = np.array([row["K"] for row in rows], dtype=float)
        exact = np.cos(u) / (r * (R + r * np.cos(u)))
        err = float(np.max(np.abs(K - exact) / np.maximum(1.0, np.abs(exact))))
        if not err <= K_REL_TOL:
            fails.append(f"Gaussian curvature off the closed form by {err:.3e}")
    return fails


def check_conormal(workload, params, outdir, field):
    base = os.path.join(outdir, "conormal")
    fails = []
    with open(os.path.join(base, "conormal.obj"), encoding="utf-8") as fh:
        n_comp = sum(1 for line in fh if line.startswith("o component_"))
    if n_comp != 2:
        fails.append(f"conormal mesh has {n_comp} components, expected 2")
    report = _load_json(os.path.join(base, "correspondence.json"))
    resid = [row["residual"] for row in report if not row["degenerate"]]
    if not resid:
        fails.append("correspondence report has no non-degenerate rows")
    elif not max(resid) < CONORMAL_RESIDUAL_BOUND:
        fails.append(f"worst correspondence residual {max(resid):.3e} >= "
                     f"{CONORMAL_RESIDUAL_BOUND}")
    return fails


CHECKS = {"portrait": check_portrait, "analyze": check_analyze, "conormal": check_conormal}
