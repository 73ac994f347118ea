import json
import math
import tracemalloc

import numpy as np
import pytest

from affasym import bde, flow, jets, singular as sg, surface as sf
from affasym.surface import Rect
from test_bde import lift_residual, reference_velocity


def integrate_one(fld, seed, family="plus", params=None, sweep=1, stats=None,
                  integrate_many=flow.integrate_many):
    """One job's Trajectory, or None, from ``flow.integrate_many`` as bound at import."""
    return integrate_many(fld, [(seed, family, sweep)], params, stats)[0]


def torus_field(R=2.0, r=1.0, domain=None):
    return bde.torus_extended_field(sf.catalog_surface("torus", {"R": R, "r": r}, domain))


def ring_bounds(R=2.0, r=1.0):
    coefs = [-3 * R ** 2, -8 * r * R, 15 * R ** 2, 36 * r * R, 16 * r ** 2]
    roots = sorted(c.real for c in np.polynomial.polynomial.polyroots(coefs)
                   if abs(c.imag) < 1e-12 and -1 < c.real < 1)
    return math.acos(roots[1]), math.acos(roots[0])


def test_residual_control_along_trajectory():
    fld = torus_field()
    traj = integrate_one(fld, (1.4, 0.5), "plus",
                                     flow.IntegrationParams(max_len=6.0))
    assert len(traj.samples) > 50
    for row in traj.samples:
        A, B, C = (float(x) for x in fld.coeff(row[0], row[1]))
        scale = max(abs(A), abs(B), abs(C))
        assert abs(lift_residual(fld, row[0], row[1], row[2], row[3] != 0)) <= 1e-8 * scale
    assert np.all(np.diff(traj.samples[:, 4]) > 0)


def test_accepted_steps_meet_the_lift_bound_near_a_cusp():
    # one Newton step per accepted step left one sample of two trajectories
    # of this portrait at |F| / max(|A|, |B|, |C|) = 2.4e-8
    surf = sf.catalog_surface("cusp_gauss", {"q21": -0.895189, "q40": 0.360151})
    p = flow.build_portrait(surf, grid=(4, 4))
    S = np.concatenate([t.samples for t in p.trajectories])
    c = bde.extended_field_for(surf).slots(S[:, 0], S[:, 1], 0)
    F = bde.lift_terms(*c, S[:, 2], S[:, 3] != 0)[0]
    assert np.all(np.abs(F) <= 1e-8 * np.max(np.abs(c), axis=0))


def boundary_sweep_trajectory(fld, params=None):
    """The sweep from (1.4, 0.5) that runs into the lower ring boundary."""
    params = params or flow.IntegrationParams(max_len=6.0)
    trajs = [integrate_one(fld, (1.4, 0.5), "plus", params, sweep)
             for sweep in (1, -1)]
    return min(trajs, key=lambda t: t.points[:, 0].min())


def test_trajectory_reaches_ring_boundary_and_cusps():
    u1, u2 = ring_bounds()
    fld = torus_field()
    traj = boundary_sweep_trajectory(fld)
    umin = traj.points[:, 0].min()
    assert umin == pytest.approx(u1, abs=5e-3)
    assert umin > u1 - 1e-9  # never crosses into delta < 0
    # projected tangent reverses in u at the cusp: du changes sign
    du = np.diff(traj.points[:, 0])
    assert np.min(du) < 0 < np.max(du)


def cusp_law_field():
    # the extended field of a generic graph
    eps, sigma, q13, q40 = 1, 0.9, 0.3, 0.5
    surf = sf.catalog_surface("pick", {
        "epsilon": eps, "sigma": sigma,
        "q": {(1, 3): q13, (3, 1): -eps * q13,
              (2, 2): -eps * (-2 * sigma ** 2 + q40), (4, 0): q40,
              (0, 4): q40 + 1.0}}, domain=Rect(-0.35, 0.35, -0.35, 0.35))
    return bde.extended_field_for(surf)


def test_cusp_law_at_criminant_crossing():
    # cross the degenerate curve of a generic graph field with fine steps;
    # at the crossing the lifted planar velocity vanishes and the slope
    # passes through the chart-appropriate double root
    fld = cusp_law_field()
    params = flow.IntegrationParams(max_len=0.6, max_step_frac=5e-4, max_steps=6000)
    crossing = None
    for sweep in (1, -1):
        traj = integrate_one(fld, (-0.12, 0.0), "plus", params, sweep)
        s = traj.samples
        fp = []
        for row in s:
            A, B, C = (float(x) for x in fld.coeff(row[0], row[1]))
            if row[3] == 0:
                fp.append(2 * B + 2 * C * row[2])
            else:
                fp.append(2 * A * row[2] + 2 * B)
        fp = np.array(fp)
        for k in range(len(s) - 1):
            if fp[k] == 0 or fp[k] * fp[k + 1] > 0 or s[k, 3] != s[k + 1, 3]:
                continue
            t = abs(fp[k]) / (abs(fp[k]) + abs(fp[k + 1]))
            crossing = ((1 - t) * s[k] + t * s[k + 1], s[k, 3] != 0)
            break
        if crossing:
            break
    assert crossing is not None, "no criminant crossing found"
    row, chart_q = crossing
    A, B, C = (float(x) for x in fld.coeff(row[0], row[1]))
    scale = max(abs(A), abs(B), abs(C))
    X = bde.lie_cartan_scaled(fld, row[0], row[1], row[2], chart_q)[0]
    # projected tangent vanishes at the crossing
    assert math.hypot(X[0], X[1]) < 1e-3 * float(np.linalg.norm(X))
    # slope equals the double root of the quadratic there
    if not chart_q:
        assert abs(row[2] - (-B / C)) < 1e-4
    else:
        assert abs(row[2] - (-B / A)) < 1e-4


def test_bde_residual_of_projected_curve():
    # tangents estimated from the projected samples alone (nonuniform
    # 3-point differentiation), independent of the lifted slopes
    fld = torus_field()
    traj = integrate_one(
        fld, (1.4, 0.5), "plus",
        flow.IntegrationParams(max_len=1.0, max_step_frac=1e-4, max_steps=30000))
    pts = traj.samples
    checked = 0
    for k in range(1, len(pts) - 2):
        u, v = pts[k, 0], pts[k, 1]
        hm = pts[k, 4] - pts[k - 1, 4]
        hp = pts[k + 1, 4] - pts[k, 4]
        if hm <= 0 or hp <= 0:
            continue
        du = (hm * hm * pts[k + 1, 0] + (hp * hp - hm * hm) * pts[k, 0]
              - hp * hp * pts[k - 1, 0]) / (hm * hp * (hm + hp))
        dv = (hm * hm * pts[k + 1, 1] + (hp * hp - hm * hm) * pts[k, 1]
              - hp * hp * pts[k - 1, 1]) / (hm * hp * (hm + hp))
        A, B, C = (float(x) for x in fld.coeff(u, v))
        scale = max(abs(A), abs(B), abs(C))
        delta = B * B - A * C
        if delta < 1e-2 * scale ** 2:  # away from criminant crossings
            continue
        norm = math.sqrt(A * A + B * B + C * C) * (du * du + dv * dv)
        if norm == 0:
            continue
        checked += 1
        resid = abs(A * du * du + 2 * B * du * dv + C * dv * dv) / norm
        assert resid < 1e-6, (k, resid)
    assert checked > 30


def test_parabolic_circle_is_solution():
    fld = torus_field()
    traj = integrate_one(fld, (math.pi / 2, 0.3), "plus",
                                     flow.IntegrationParams(max_len=5.0))
    assert np.max(np.abs(traj.points[:, 0] - math.pi / 2)) < 1e-8
    assert traj.points[-1, 1] > 3.0  # actually travels along the circle


def test_seed_without_direction():
    # a job that cannot start is None and a drop with its reason
    for fld, seed, why in ((torus_field(), (0.2, 0.0), "lies where the discriminant is negative"),
                           (bde.morse_model_field(1), (0.0, 0.0), "is a totally degenerate point")):
        stats = flow.IntegrationStats()
        assert integrate_one(fld, seed, "plus", stats=stats) is None
        assert [d["reason"] for d in stats.dropped] == [f"NoDirectionError: seed {seed} {why}"]


@pytest.mark.xfail(strict=True, reason="bde.DEGENERATE_TOL is absolute, and max|A, B, C| "
                   "scales as c^4 with the height (ROADMAP items 2, 3 and 4)")
def test_lanes_do_not_depend_on_the_chart_scale():
    # z -> c z is an affine map, so the net of the height c h is the net of h:
    # the lanes are the same for c = 1 and c = 0.01, but at c = 0.001 the
    # coefficients fall below bde.DEGENERATE_TOL and both jobs drop as
    # "is a totally degenerate point"
    pick = sf.catalog_surface("pick", {"epsilon": 1, "sigma": 0.9,
                                       "q": {(4, 0): 0.5, (0, 4): 1.5, (2, 2): 1.12}})
    params = flow.IntegrationParams(max_len=0.5)
    for c in (1.0, 0.01, 0.001):
        fld = bde.extended_field_for(sf.monge_surface({k: c * w for k, w in pick.polys[2].items()}))
        out = flow.integrate_many(fld, [((0.3, 0.2), family, 1) for family in ("plus", "minus")],
                                  params)
        assert [None if t is None else len(t.samples) for t in out] == [67, 51], c


def test_families_pick_the_two_roots():
    fld = torus_field()
    a = integrate_one(fld, (1.4, 0.5), "plus",
                                  flow.IntegrationParams(max_len=0.5))
    b = integrate_one(fld, (1.4, 0.5), "minus",
                                  flow.IntegrationParams(max_len=0.5))
    assert a.family == "plus" and b.family == "minus"
    assert abs(a.samples[0][2] + b.samples[0][2]) < 1e-12  # opposite slopes
    assert a.samples[0][2] != b.samples[0][2]


def test_folded_saddle_separatrix_shooting():
    # among the four separatrix rays of the folded saddle, exactly the two
    # on the stable eigendirection approach the fold point in the lifted
    # field's own time orientation
    lam = -1.0
    fld = bde.folded_model_field(lam)
    J = bde.lifted_derivatives(fld.slots(0.0, 0.0, 2), 0.0, False)[2]
    vals, vecs = np.linalg.eig(J)
    order = np.argsort(vals.real)
    stable = vecs[:, order[0]].real / np.linalg.norm(vecs[:, order[0]].real)
    unstable = vecs[:, order[-1]].real / np.linalg.norm(vecs[:, order[-1]].real)
    params = flow.IntegrationParams(max_len=0.02, max_steps=4000)

    def min_dist(vec):
        y0 = 1e-4 * vec
        u0, p0 = y0[0], y0[2]
        v0 = lam * u0 * u0 + p0 * p0  # project the seed onto the lift
        dirs = bde.direction_roots(*fld.coeff(u0, v0))[1]
        fam = "plus" if abs(dirs[0][1] / dirs[0][0] - p0) <= \
            abs(dirs[-1][1] / dirs[-1][0] - p0) else "minus"
        traj = integrate_one(fld, (u0, v0), fam, params)
        d = np.hypot(traj.points[:, 0], traj.points[:, 1])
        return float(d.min())

    dists = {"stable+": min_dist(stable), "stable-": min_dist(-stable),
             "unstable+": min_dist(unstable), "unstable-": min_dist(-unstable)}
    approached = {k for k, v in dists.items() if v < 2e-5}
    assert approached == {"stable+", "stable-"}, dists
    assert min(dists["unstable+"], dists["unstable-"]) > 5e-5


def test_determinism():
    fld = torus_field()
    p = flow.IntegrationParams(max_len=4.0)
    t1 = integrate_one(fld, (1.4, 0.5), "plus", p)
    t2 = integrate_one(fld, (1.4, 0.5), "plus", p)
    assert t1.samples.shape == t2.samples.shape
    assert np.array_equal(t1.samples, t2.samples)


def test_closed_loop_detection():
    # the profile circle is a closed solution: the angular parameter advances
    # by a full period and the lifted state returns to the seed
    fld = torus_field(2.0, 1.0, Rect(0.0, 2 * math.pi, -0.5, 7.0))
    terms = {}
    for sweep in (1, -1):
        traj = integrate_one(fld, (math.pi / 2, 0.0), "plus",
                                         flow.IntegrationParams(max_len=9.0), sweep)
        terms[sweep] = (traj.termination, traj.samples[-1, 4])
    closed = [v for v in terms.values() if v[0] == "closed_loop"]
    assert closed, terms
    assert closed[0][1] == pytest.approx(2 * math.pi, abs=1e-3)


def test_morse_crossing_net_confined_to_two_sectors():
    fld = bde.morse_model_field(-1)
    # delta = u^2 - v^2 > 0 in the |u| > |v| sectors only
    traj = integrate_one(fld, (0.5, 0.0), "plus",
                                     flow.IntegrationParams(max_len=3.0))
    for (u, v) in traj.points:
        assert abs(u) >= abs(v) - 1e-9


def test_portrait_build_and_svg():
    fld = bde.folded_model_field(-1.0)
    p = flow.build_portrait(fld, grid=(5, 5),
                            params=flow.IntegrationParams(max_len=3.0),
                            trace_resolution=96)
    assert p.trajectories
    assert p.reports and p.reports[0].kind == "folded_saddle"
    assert p.singular_sets["discriminant"]
    svg = "".join(flow.portrait_svg(p))
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "folded_saddle" in svg
    js = "".join(p.to_json())
    assert '"folded_saddle"' in js


def spiral_winding(traj):
    ang = np.unwrap(np.arctan2(traj.points[:, 1], traj.points[:, 0]))
    return abs(ang[-1] - ang[0]) / (2 * math.pi)


def test_portrait_spirals_at_flat_umbilic():
    surf = sf.catalog_surface("flat_umbilic_chart", {"epsilon": -1},
                              domain=Rect(-0.5, 0.5, -0.5, 0.5))
    fld = bde.extended_field_for(surf)
    best = 0.0
    for sweep in (1, -1):
        traj = integrate_one(
            fld, (0.3, 0.0), "plus",
            flow.IntegrationParams(max_len=12.0, max_steps=60000), sweep)
        best = max(best, spiral_winding(traj))
    assert best > 2.0


def test_portrait_pick_generic_nonempty():
    surf = sf.catalog_surface("pick", {"epsilon": -1, "sigma": 0.5,
                                       "q": {(4, 0): 0.7, (1, 3): 0.2}},
                              domain=Rect(-0.4, 0.4, -0.4, 0.4))
    p = flow.build_portrait(bde.extended_field_for(surf), grid=(4, 4),
                            params=flow.IntegrationParams(max_len=1.0),
                            trace_resolution=64)
    assert p.trajectories


def test_hit_degenerate_point_termination():
    # the u-axis is a solution line of the crossing model and runs into the
    # totally degenerate origin
    fld = bde.morse_model_field(-1)
    terms = set()
    for sweep in (1, -1):
        traj = integrate_one(fld, (0.5, 0.0), "plus",
                                         flow.IntegrationParams(max_len=3.0), sweep)
        terms.add(traj.termination)
        if traj.termination == "hit_degenerate_point":
            assert np.hypot(*traj.points[-1]) < 1e-4
            assert np.max(np.abs(traj.points[:, 1])) < 1e-9  # stays on the axis
    assert "hit_degenerate_point" in terms


def test_surface_portrait_traces_each_set_once(monkeypatch):
    surf = sf.catalog_surface("cusp_gauss", {"q21": 1.0, "q40": 0.1})
    calls = []
    trace = bde.trace_zero_set

    def counting_trace(*args, **kwargs):
        calls.append(args)
        return trace(*args, **kwargs)

    monkeypatch.setattr(bde, "trace_zero_set", counting_trace)
    p = flow.build_portrait(surf, grid=(2, 2), params=flow.IntegrationParams(max_len=0.5),
                            trace_resolution=64)
    assert len(calls) == 2
    fld = bde.extended_field_for(surf)
    expect = sg.singular_sets(bde.euclidean_field_for(surf), fld, surf.domain, 64)
    assert sorted(p.singular_sets) == sorted(expect) == [
        "affine_parabolic", "discriminant", "parabolic"]
    assert p.singular_sets["parabolic"] and p.singular_sets["affine_parabolic"]
    for name, polys in expect.items():
        assert len(p.singular_sets[name]) == len(polys)
        for a, b in zip(p.singular_sets[name], polys):
            assert np.array_equal(a, b)


def test_torus_portrait_singular_sets():
    surf = sf.catalog_surface("torus", {"R": 2, "r": 1})
    p = flow.build_portrait(surf, grid=(2, 2),
                            params=flow.IntegrationParams(max_len=2.0),
                            trace_resolution=96)
    assert len(p.singular_sets["parabolic"]) == 2
    assert len(p.singular_sets["affine_parabolic"]) == 4
    svg = "".join(flow.portrait_svg(p))
    assert svg.count('stroke-width="3"') >= 6


LOCKSTEP_CASES = {
    "cusp_gauss": lambda: (sf.catalog_surface("cusp_gauss", {"q21": 1.0, "q40": 0.1}),
                           dict(grid=(2, 2), trace_resolution=64), {}),
    "torus": lambda: (sf.catalog_surface("torus", {"R": 2, "r": 1}),
                      dict(grid=(4, 4), trace_resolution=96), {}),
    # seeds on the parabolic circles u = pi/2, 3pi/2: the lifted field
    # vanishes there, so these lanes creep, and the v range holds a period
    "torus_loops": lambda: (torus_field(2.0, 1.0, Rect(0.0, 2 * math.pi, -0.5, 7.0)),
                            dict(grid=(3, 7), trace_resolution=96),
                            {"closed_loop", "creep"}),
    "morse": lambda: (bde.morse_model_field(-1), dict(grid=(4, 4), trace_resolution=96),
                      {"hit_degenerate_point"}),
    "folded": lambda: (bde.folded_model_field(-1.0), dict(grid=(4, 4), trace_resolution=96),
                       {}),
}


@pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
def test_lockstep_lanes_equal_solo_runs(case, monkeypatch):
    source, kwargs, events = LOCKSTEP_CASES[case]()
    calls = []
    many = flow.integrate_many

    def spy(fld, jobs, params=None, stats=None):
        out = many(fld, jobs, params, stats)
        calls.append((fld, jobs, params, out))
        return out

    monkeypatch.setattr(flow, "integrate_many", spy)
    p = flow.build_portrait(source, params=flow.IntegrationParams(max_len=9.0), **kwargs)
    assert len(calls) == 1
    fld, jobs, params, out = calls[0]
    assert len(jobs) == len(out) > 4
    kept = [t for t in out if t is not None]
    assert len(kept) == len(p.trajectories)
    assert all(a is b for a, b in zip(kept, p.trajectories))
    for job, traj in zip(jobs, out):
        if traj is None:
            stats = flow.IntegrationStats()
            assert integrate_one(fld, job[0], job[1], params, job[2], stats) is None
            assert stats.dropped[0]["reason"].startswith("NoDirectionError: ")
            continue
        solo = integrate_one(fld, job[0], job[1], params, job[2])
        assert (solo.family, solo.termination) == (traj.family, traj.termination)
        assert np.array_equal(solo.samples, traj.samples)
    st = p.integration
    assert st.lanes == sum(t is not None for t in out) == sum(st.terminations.values())
    assert st.rhs_evals >= 6 * (st.accepted + st.rejected)
    assert st.accepted + st.rejected >= st.rounds
    for event in events:
        assert (st.creep_steps > 0) if event == "creep" else st.terminations.get(event)


def test_lane_error_ends_only_its_lane():
    base = bde.folded_model_field(-1.0)

    def guarded(u, v, order):
        if order and np.any(np.asarray(u) > 0.3):
            raise jets.JetDomainError("outside the jet domain")
        return base.slots(u, v, order)

    fld = bde.BDEField(guarded, base.domain)
    params = flow.IntegrationParams(max_len=0.5)
    jobs = [((0.1, 0.3), "plus", 1), ((-0.6, 0.5), "plus", 1)]
    # unguarded, the first lane runs to u = 0.52 and the second stays below 0
    assert integrate_one(base, *jobs[0][:2], params).points[:, 0].max() > 0.5
    out = flow.integrate_many(fld, jobs, params)
    crossing, inner = out
    assert crossing.termination == "evaluation_failed"
    assert crossing.points[:, 0].max() <= 0.3
    assert inner.termination == "max_length"
    for job, traj in zip(jobs, out):
        solo = integrate_one(fld, job[0], job[1], params, job[2])
        assert solo.termination == traj.termination
        assert np.array_equal(solo.samples, traj.samples)

    def broken(u, v, order):
        if order:
            raise RuntimeError("not a lane error")
        return base.slots(u, v, order)

    with pytest.raises(RuntimeError):
        flow.integrate_many(bde.BDEField(broken, base.domain), jobs, params)


def test_lane_that_loses_its_direction_field_says_so():
    # On the epsilon = +1 flat umbilic chart the discriminant B^2 - AC is
    # negative off the diagonal u = -v and 0 on it, up to rounding.  A lane
    # can start on the diagonal along the double direction, but the set
    # delta >= 0 has no interior, so its first step leaves it and the creep
    # finds no direction: a geometric event, not a failed evaluation.
    fld = bde.extended_field_for(sf.catalog_surface("flat_umbilic_chart", {"epsilon": 1}))
    seed = (-0.4230769230769231, 0.42307692307692313)
    assert bde.direction_roots(*fld.coeff(*seed))[0] == "double"
    assert bde.discriminant(fld, *seed) == 0.0
    for off in (1e-3, -1e-3):
        assert bde.discriminant(fld, seed[0] + off, seed[1] + off) < 0
    for family in ("plus", "minus"):
        traj = integrate_one(fld, seed, family)
        assert traj.termination == "lost_direction_field"
        assert np.array_equal(traj.points, [seed])


def test_a_bad_job_raises_before_any_evaluation():
    # a family other than plus/minus or a sweep other than +-1 is a caller's
    # error wherever the seed lies: (0.1, -0.5) has no direction, and a zero
    # sweep would never move
    base, calls = bde.folded_model_field(-1.0), []
    fld = bde.BDEField(lambda u, v, order: calls.append(order) or base.slots(u, v, order),
                       base.domain)
    good = ((0.1, 0.5), "plus", 1)
    for seed, family, sweep in (((0.1, -0.5), "both", 1), ((0.1, 0.5), "both", 1),
                                ((0.1, 0.5), "plus", 0), ((0.1, -0.5), "minus", 2)):
        with pytest.raises(ValueError):
            flow.integrate_many(fld, [good, (seed, family, sweep)])
        with pytest.raises(ValueError):
            integrate_one(fld, seed, family, sweep=sweep)
    assert calls == []


def test_integrate_many_reports_dropped_jobs():
    fld = torus_field()
    stats = flow.IntegrationStats()
    out = flow.integrate_many(fld, [((0.2, 0.0), "plus", 1), ((1.4, 0.5), "plus", 1)],
                              flow.IntegrationParams(max_len=0.5), stats)
    assert out[0] is None and out[1] is not None
    assert stats.lanes == 1 and len(stats.dropped) == 1
    assert stats.dropped[0]["seed"] == [0.2, 0.0]
    assert stats.dropped[0]["reason"].startswith("NoDirectionError")


def payload_dict(p):
    """The payload as plain dicts and lists, for json.dumps to write."""
    return {
        "region": [p.region.u0, p.region.u1, p.region.v0, p.region.v1],
        "trajectories": [{"family": t.family, "termination": t.termination,
                          "samples": [[float(x) for x in row] for row in t.samples]}
                         for t in p.trajectories],
        "singular_sets": {name: [[[float(u), float(v)] for (u, v) in poly] for poly in polys]
                          for name, polys in sorted(p.singular_sets.items())},
        "reports": [r.to_json_dict() for r in p.reports],
    }


def test_to_json_writes_json_dumps_text():
    p = flow.build_portrait(bde.folded_model_field(-1.0), Rect(-1, 1, -1, 1), grid=(3, 3),
                            params=flow.IntegrationParams(max_len=0.3), trace_resolution=48)
    assert p.trajectories and p.reports and p.singular_sets["discriminant"]
    p.trajectories.append(flow.Trajectory(np.array([[0.1, -0.2, 1e-300, 1.0, 0.0]]),
                                          "minus", "max_length"))
    p.trajectories.append(flow.Trajectory(np.array([[0.5, np.nan, -0.0, 0.0, 1e16]]),
                                          "plus", "left_domain"))
    p.singular_sets["parabolic"] = []
    p.reports.append(sg.SingularPointReport(
        (0.25, -0.5), "boundary_uncertain", lambda_invariant=math.inf,
        eigenvalues=[complex(math.nan, 0.0), complex(math.inf, -math.inf)],
        details={"trace": 0.0, "e2": -math.inf, "chart": "p", "tangential": True}))
    text = "".join(p.to_json())
    assert text == json.dumps(payload_dict(p), indent=1, sort_keys=True) + "\n"
    assert '"region": [\n  -1,' in text and "NaN" in text and "-Infinity" in text
    empty = flow.Portrait(Rect(0.0, 1.0, 0.0, 1.0))
    assert "".join(empty.to_json()) == json.dumps(payload_dict(empty), indent=1,
                                                  sort_keys=True) + "\n"


def test_portrait_writers_hold_one_trajectory_at_a_time():
    # the writers yield the payload chunk by chunk, so the most memory they
    # hold is one trajectory's (or one polyline's) text and its pieces
    p = flow.build_portrait(bde.folded_model_field(-1.0))
    for write in (p.to_json, lambda: flow.portrait_svg(p)):
        length = sum(len(chunk) for chunk in write())    # imports orjson once
        tracemalloc.start()
        try:
            assert sum(len(chunk) for chunk in write()) == length
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < length / 2


def test_portrait_counts_dropped_reports(monkeypatch):
    params = flow.IntegrationParams(max_len=0.3)
    fld = bde.folded_model_field(-1.0)
    ref = flow.build_portrait(fld, grid=(2, 2), params=params, trace_resolution=48)
    assert ref.integration.dropped_reports == []
    folds = [r.location for r in ref.reports]
    assert folds

    def not_singular(fld, pt):
        raise sg.NotSingularLiftError(f"lifted field does not vanish at {pt}")

    monkeypatch.setattr(sg, "classify_folded", not_singular)
    p = flow.build_portrait(fld, grid=(2, 2), params=params, trace_resolution=48)
    assert p.reports == []
    assert p.integration.dropped_reports == [
        {"stage": "classify_folded", "reason": f"NotSingularLiftError: lifted field does not "
                                               f"vanish at {pt}", "location": list(pt)}
        for pt in folds]

    def failing_scan(*args, **kwargs):
        raise ArithmeticError("scan failed")

    monkeypatch.setattr(sg, "detect_special_points", failing_scan)
    surf = sf.catalog_surface("cusp_gauss", {"q21": 1.0, "q40": 0.1})
    p = flow.build_portrait(surf, grid=(2, 2), params=params, trace_resolution=48)
    assert p.integration.dropped_reports[0] == {"stage": "detect_special_points",
                                                "reason": "ArithmeticError: scan failed"}
    assert p.integration.to_json_dict()["dropped_reports"] == p.integration.dropped_reports


def test_seed_filter_makes_one_field_call(monkeypatch):
    # with tracing, folds and integration stubbed out, the only field call
    # left in a portrait is the seed filter's: one batch over the in-region
    # seeds, skipping the same seeds for the same reasons as seed by seed
    base = bde.folded_model_field(-1.0)
    calls = []

    def slots(u, v, order):
        calls.append(int(np.size(u)))
        return base.slots(u, v, order)

    fld = bde.BDEField(slots, base.domain)
    edge = sg.SingularPointReport((0.98, 0.0), "folded_saddle")
    monkeypatch.setattr(bde, "trace_zero_set", lambda *args: [])
    monkeypatch.setattr(sg, "find_folded_points", lambda fld, polys, *args: [edge.location])
    monkeypatch.setattr(sg, "classify_folded", lambda fld, pt: edge)
    monkeypatch.setattr(flow, "integrate_many", lambda fld, jobs, params, stats: [])
    p = flow.build_portrait(fld, grid=(3, 4))
    seeds = [(float(u), float(v)) for u in np.linspace(-1, 1, 5)[1:-1]
             for v in np.linspace(-1, 1, 6)[1:-1]]
    seeds += [(0.98 + 0.05 * math.cos(2 * math.pi * k / 8), 0.05 * math.sin(2 * math.pi * k / 8))
              for k in range(8)]
    ref = [{"seed": [u, v], "reason": "outside the region" if u > 1 else "negative discriminant"}
           for u, v in seeds if u > 1 or float(bde.discriminant(base, u, v)) < 0]
    assert calls == [sum(u <= 1 for u, _ in seeds)]
    assert p.integration.skipped_seeds == ref
    assert any(r["reason"] == "outside the region" for r in ref)
    assert any(r["reason"] == "negative discriminant" for r in ref)


def test_a_report_within_reach_of_another_shares_its_ring(monkeypatch):
    # a report 0.005 from another, inside three trace cells (3 * 2 / 192),
    # gets no ring of its own: its seeds are skipped, naming the ring it joins
    fld = bde.folded_model_field(-1.0)
    reports = {loc: sg.SingularPointReport(loc, kind) for loc, kind in (
        ((0.0, 0.0), "folded_saddle"), ((0.005, 0.0), "parabolic_meeting"),
        ((0.5, 0.0), "parabolic_meeting"))}
    seeds = []
    monkeypatch.setattr(bde, "trace_zero_set", lambda *args: [])
    monkeypatch.setattr(sg, "find_folded_points", lambda fld, polys, *args: list(reports))
    monkeypatch.setattr(sg, "classify_folded", lambda fld, pt: reports[pt])
    monkeypatch.setattr(flow, "integrate_many", lambda fld, jobs, params, stats:
                        seeds.extend(seed for seed, _, _ in jobs) or [])
    p = flow.build_portrait(fld, grid=(1, 1))

    def ring(u, v):
        return [(u + 0.05 * math.cos(a), v + 0.05 * math.sin(a))
                for a in 2 * math.pi * np.arange(8) / 8]

    joined = [s for s in p.integration.skipped_seeds if s["reason"].startswith("joins")]
    reason = "joins the ring of the folded_saddle at (0, 0)"
    assert joined == [{"seed": list(seed), "reason": reason} for seed in ring(0.005, 0.0)]
    kept = [(0.0, 0.0), *ring(0.0, 0.0), *ring(0.5, 0.0)]
    assert seeds == [s for s in kept if not bde.discriminant(fld, *s) < 0 for _ in range(4)]


# -- one lockstep round against the former per-lane formulas ------------------


def reference_rhs_lane(fld, y, chart_q, orient, ref_dir):
    """The former ``_rhs`` of one lane: the per-branch velocity on Python
    floats from the field's scalar jets, then the soft normalization."""
    jets1 = fld.jet_coeff(float(y[0]), float(y[1]), 1)
    slots = [float(x) for j in jets1 for x in j.coeffs]
    X, scale = reference_velocity(slots, float(y[2]), chart_q)
    x = np.array(X)
    n = float(np.sqrt(np.vecdot(x, x)))
    if not n > 1e-9 * max(scale, 1e-30):
        return flow._creep(np.array(slots[::3])[:, None], ref_dir[None])[0], True
    return np.array([orient * xi / math.sqrt(n * n + flow._ETA * flow._ETA) for xi in X]), False


def reference_projection(fld, u, v, s, chart_q, iters):
    """The former ``_project_slope`` of one lane on Python floats."""
    A, B, C = (float(x) for x in fld.coeff(u, v))
    norm = float(np.maximum(np.maximum(abs(A), abs(B)), abs(C)))
    scale = max(norm, 1e-30)
    for _ in range(iters):
        F = A * s * s + 2 * B * s + C if chart_q else A + 2 * B * s + C * s * s
        Fs = 2 * A * s + 2 * B if chart_q else 2 * B + 2 * C * s
        if abs(Fs) <= 1e-6 * scale:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            s = s - float(np.divide(F, Fs))    # inf or nan where Fs is 0
    return s, norm


RHS_FIELDS = {
    "cusp_gauss": lambda: bde.extended_field_for(sf.catalog_surface(
        "cusp_gauss", {"q21": 1.3, "q40": -0.3})),
    "folded": lambda: bde.folded_model_field(-1.0),
    # not polynomial: the analytic torus evaluator
    "torus": lambda: torus_field(),
}


@pytest.mark.parametrize("name", sorted(RHS_FIELDS))
@pytest.mark.parametrize("n", [1, 11, 12, 300])
def test_rhs_and_projection_match_reference_bits(name, n):
    fld = RHS_FIELDS[name]()
    rng = np.random.default_rng([n, len(name)])
    d = fld.domain
    y = np.column_stack([rng.uniform(d.u0, d.u1, n), rng.uniform(d.v0, d.v1, n),
                         rng.uniform(-1.5, 1.5, n)])
    chart = rng.random(n) < 0.5
    # signed-zero slopes in chart p (in chart q they put the folded and the
    # torus lanes on the double direction, where most points have none)
    y[~chart & (rng.random(n) < 0.2), 2] = -0.0
    if name == "folded":
        # the fold point: the lifted field vanishes there, so the lane creeps
        y[0], chart[0] = (0.0, 0.0, 0.0), False
    orient = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    ref_dir = rng.normal(size=(n, 3))
    k, creep = flow._rhs(fld, y, chart, orient, ref_dir, np.empty((n, 3)))
    for j in range(n):
        kj, cj = reference_rhs_lane(fld, y[j], bool(chart[j]), orient[j], ref_dir[j])
        assert bool(creep[j]) == cj
        assert np.array_equal(k[j], kj) and np.array_equal(np.signbit(k[j]), np.signbit(kj))
    assert creep[0] == (name == "folded")
    for iters in (1, 8):
        s, norm = flow._project_slope(fld, y[:, 0], y[:, 1], y[:, 2], chart, iters)
        for j in range(n):
            ref = reference_projection(fld, float(y[j, 0]), float(y[j, 1]), float(y[j, 2]),
                                       bool(chart[j]), iters)
            assert (s[j], norm[j]) == ref
            alone = flow._project_slope(fld, float(y[j, 0]), float(y[j, 1]), float(y[j, 2]),
                                        bool(chart[j]), iters)
            assert (float(alone[0]), float(alone[1])) == ref


def test_projection_with_non_finite_coefficients():
    # row k of the table holds (A, B, C) at u = k; a NaN or infinite
    # coefficient must give the reference's inf or nan, one point alone
    # included, where F_s is 0 but fails the |F_s| <= 1e-6 scale test
    special = [0.0, -0.0, 1.0, -2.5, math.inf, -math.inf, math.nan]
    rng = np.random.default_rng(5)
    abc = rng.choice(special, size=(300, 3))
    abc[0] = (math.nan, 0.0, 1.0)       # chart p at slope 0: F = nan, F_s = 0
    table = abc.T.copy()
    fld = bde.BDEField(lambda u, v, order: table[:, np.asarray(u, dtype=int)])
    u = np.arange(300.0)
    slope = rng.choice([0.0, -0.0, 0.5, -1.0, 3.0], size=300)
    slope[0] = 0.0
    chart = rng.random(300) < 0.5
    chart[0] = False
    for iters in (1, 8):
        with np.errstate(all="ignore"):
            s, norm = flow._project_slope(fld, u, u, slope, chart, iters)
            for j in range(300):
                ref = reference_projection(fld, u[j], u[j], slope[j], bool(chart[j]), iters)
                alone = flow._project_slope(fld, u[j], u[j], slope[j], bool(chart[j]), iters)
                for got in ((s[j], norm[j]), alone):
                    assert np.array_equal(got, ref, equal_nan=True)
    assert np.isnan(s[0])


def slot_table_field(c):
    """A field whose order-1 slots at u = k are column k of ``c`` (9, n)."""
    return bde.BDEField(lambda u, v, order: c[:, np.asarray(u, dtype=int)])


@pytest.mark.parametrize("n", [1, 11, 12, 300])
@pytest.mark.parametrize("charts", ["p", "q", "mixed"])
def test_rhs_writes_the_reference_velocity_bits(n, charts):
    # per lane, reference_velocity on Python floats, normalized and oriented
    # as the former _rhs did; creeping lanes take the double direction
    rng = np.random.default_rng([n, len(charts), 5])
    chart = {"p": np.zeros(n, bool), "q": np.ones(n, bool), "mixed": rng.random(n) < 0.5}[charts]
    c = rng.normal(size=(9, n)) * 10.0 ** rng.integers(-6, 6, size=(9, n))
    hit = rng.random((9, n)) < 0.08
    c[hit] = rng.choice([0.0, -0.0, 5e-324], size=int(hit.sum()))
    s = rng.uniform(-1.5, 1.5, n)
    s[rng.random(n) < 0.1] = -0.0
    creeping = (np.arange(n) % 5 == 2) if n > 1 else np.zeros(1, bool)
    # X vanishes where only A (chart p) or only C (chart q) is nonzero
    c[:, creeping] = 0.0
    c[np.where(chart[creeping], 6, 0), creeping.nonzero()[0]] = 0.5
    y = np.column_stack([np.arange(n, dtype=float), np.zeros(n), s])
    orient = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    ref_dir = rng.normal(size=(n, 3))
    out = np.empty((n, 3))
    k, creep = flow._rhs(slot_table_field(c), y, chart, orient, ref_dir, out)
    assert k is out and creep[creeping].all()
    for j in range(n):
        slots = c[:, j].tolist()
        X, scale = reference_velocity(slots, float(s[j]), bool(chart[j]))
        norm = float(np.sqrt(np.vecdot(np.array(X), np.array(X))))
        assert creep[j] == (not norm > 1e-9 * max(scale, 1e-30))
        if creep[j]:
            want = flow._creep(np.array(slots[::3])[:, None], ref_dir[j][None])[0]
        else:
            want = np.array([orient[j] * x / math.sqrt(norm * norm + flow._ETA * flow._ETA)
                             for x in X])
        assert np.array_equal(k[j], want) and np.array_equal(np.signbit(k[j]), np.signbit(want))


def test_a_round_without_events_makes_seven_slot_calls():
    # six stage evaluations and one projection, for all lanes at once
    base, orders = bde.folded_model_field(-1.0), []
    fld = bde.BDEField(lambda u, v, order: orders.append(order) or base.slots(u, v, order),
                       base.domain)
    jobs = [((0.1, 0.5), "plus", 1), ((0.1, 0.5), "minus", -1), ((-0.2, 0.4), "plus", 1)]
    stats = flow.IntegrationStats()
    out = flow.integrate_many(fld, jobs, flow.IntegrationParams(max_steps=5), stats)
    assert [t.termination for t in out] == ["max_length"] * 3
    assert (stats.rounds, stats.accepted, stats.rejected) == (5, 15, 0)
    assert orders == [1] + ([1] * 6 + [0]) * 5


def test_stage_sums_add_in_stage_order():
    # np.add.reduce(w * K, axis=0, initial=0.0) must give the bits of
    # sum(w_j * K_j) over the stages, zero weights and signed zeros included
    rng = np.random.default_rng(11)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308])
    with np.errstate(all="ignore"):
        for n in (1, 7, 12, 300):
            K = rng.normal(size=(6, n, 3)) * 10.0 ** rng.integers(-12, 12, size=(6, n, 3))
            hit = rng.random(K.shape) < 0.1
            K[hit] = rng.choice(special, size=int(hit.sum()))
            for i, a in enumerate(flow._CK_A[1:], 1):
                got = flow._stage_sum(flow._CK_AW[i], K[:i])
                want = sum(w * k for w, k in zip(a, K))
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(want))
            both = flow._stage_sum(flow._CK_BW, K[:, None])
            for got, b in zip(both, (flow._CK_B5, flow._CK_B4)):
                want = sum(w * k for w, k in zip(b, K))
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(want))


def layout_checks(fld, job, traj):
    """The sample layout: the seed state first, then one row per accepted
    step that moved, each adding np.hypot of its (u, v) step to the
    arclength, the last row too; only a terminating event rewrites the last
    row, by the same rule."""
    start = flow._start(fld, [job])[1][0]
    S = traj.samples
    assert S[0].tolist() == [*start[flow._Y], start[flow._Q], 0.0]
    steps = np.hypot(*np.diff(S[:, :2], axis=0).T)
    assert np.all(steps > 0)
    assert np.array_equal(S[1:, 4], S[:-1, 4] + steps)
    assert np.all((S[:, 3] == 0) | (S[:, 3] == 1))
    assert np.all(np.abs(S[:, 2]) <= flow._CHART_SWITCH)
    return S


def test_lockstep_sample_layout_through_events(monkeypatch):
    params = flow.IntegrationParams(max_len=9.0)
    cusp = RHS_FIELDS["cusp_gauss"]()
    loops = torus_field(2.0, 1.0, Rect(0.0, 2 * math.pi, -0.5, 7.0))
    morse = bde.morse_model_field(-1)
    cusp_jobs = [((0.3, 0.2), "minus", -1), ((0.3, 0.2), "plus", 1), ((-0.1, 0.0), "minus", 1)]
    loop_jobs = [((math.pi / 2, 6.0625), "plus", -1), ((math.pi / 2, 0.4375), "plus", 1)]
    # seeds on the u-axis, a solution line that passes the degenerate origin
    pass_jobs = [((0.05, 0.0), "plus", -1), ((-0.05, 0.0), "plus", -1)]
    cases = ((cusp, cusp_jobs), (loops, loop_jobs), (morse, pass_jobs))
    for fld, jobs in cases:
        out = flow.integrate_many(fld, jobs, params)
        for job, traj in zip(jobs, out):
            solo = integrate_one(fld, *job[:2], params, job[2])
            assert traj.termination == solo.termination
            assert np.array_equal(traj.samples, solo.samples)

    events, event_samples = [], flow._event_samples

    def spy_samples(fld, before, after, t):
        rows, errors = event_samples(fld, before, after, t)
        events.extend(zip(before.copy(), after.copy(), t.tolist(), rows.copy()))
        return rows, errors

    monkeypatch.setattr(flow, "_event_samples", spy_samples)
    (switched, clipped, _), loop_out, pass_out = (flow.integrate_many(fld, jobs, params)
                                                  for fld, jobs in cases)

    # a chart switch: the flag flips where the slope is inverted
    S = layout_checks(cusp, cusp_jobs[0], switched)
    flips = np.flatnonzero(np.diff(S[:, 3]))
    assert len(flips) == 1
    k = flips[0] + 1
    assert abs(S[k, 2]) <= 1 / flow._CHART_SWITCH
    assert abs(lift_residual(cusp, *S[k, :3], S[k, 3] != 0)) <= \
        1e-8 * max(map(abs, cusp.coeff(S[k, 0], S[k, 1])))

    def event_row(fld, job, traj):
        """The one event recipe: the last row is the point at the event's
        fraction t of the step from the row before, its slope projected from
        the step's end slope in the end chart, and the arclength of the
        piece added.  Returns the rows before and at the end of the step,
        and t."""
        S = layout_checks(fld, job, traj)
        (before, after, t, row), = [e for e in events if np.array_equal(e[3], S[-1])]
        assert before[[0, 1, 4]].tolist() == S[-2, [0, 1, 4]].tolist()
        assert 0.0 <= t <= 1.0
        p = before[:2] + t * (after[:2] - before[:2])
        assert S[-1, :2].tolist() == p.tolist()
        assert S[-1, 2] == flow._project_slope(fld, *p, after[2], after[3] != 0, iters=8)[0]
        assert S[-1, 3] == after[3]
        assert S[-1, 4] == before[4] + np.hypot(*(p - before[:2]))
        return before, after, t

    # the domain edge: the fraction where the chord leaves the domain
    for traj, job in ((switched, cusp_jobs[0]), (clipped, cusp_jobs[1])):
        assert traj.termination == "left_domain"
        _, after, t = event_row(cusp, job, traj)
        d, (u, v) = cusp.domain, traj.samples[-1, :2]
        assert not d.contains(*after[:2])
        assert min(abs(u - d.u0), abs(u - d.u1), abs(v - d.v0), abs(v - d.v1)) < 1e-15
        assert [t] == flow._edge_fraction(d, traj.samples[-2:-1, :2],
                                          after[None, :2]).tolist()
    # closed loops and degenerate passes: the step's minimum of the state
    # distance to the seed or of the coefficient norm
    for fld, jobs, out, reason in ((loops, loop_jobs, loop_out, "closed_loop"),
                                   (morse, pass_jobs, pass_out, "hit_degenerate_point")):
        for traj, job in zip(out, jobs):
            assert traj.termination == reason
            before, after, t = event_row(fld, job, traj)
            a, b = before[:3], after[:3]
            if reason == "closed_loop":
                (t_min,), (value,) = flow._step_minimum(lambda _, t: flow._state_distance(
                    a + t[0, :, None] * (b - a), traj.samples[0, :3], fld.period)[None], 1)
                assert value < flow._LOOP_TOL
            else:
                (t_min,), (value,) = flow._step_minimum(lambda _, t: np.max(np.abs(fld.slots(
                    *(a[:2] + t[0, :, None] * (b[:2] - a[:2])).T, 0)), axis=0)[None], 1)
                assert math.hypot(*traj.samples[-1, :2]) < 1e-5
            assert t_min == t


def reference_step_minimum(f):
    """The former search of one step: the best of 65 fractions, then always
    100 ternary-search steps."""
    n = 64
    t = int(np.argmin(f(np.arange(n + 1) / n))) / n
    lo, hi = max(0.0, t - 1.0 / n), min(1.0, t + 1.0 / n)
    for _ in range(100):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        f1, f2 = f(np.array([m1, m2]))
        if f1 <= f2:
            hi = m2
        else:
            lo = m1
    t = 0.5 * (lo + hi)
    return t, float(f(np.array([t]))[0])


def test_batched_step_minimum_matches_the_scalar_search():
    funcs = [
        lambda t: (t - 0.3) ** 2,                      # inside the step
        lambda t: np.abs(t - 0.5),                     # on a grid fraction
        lambda t: np.cos(40 * t) + t,                  # several local minima
        lambda t: t + 1.0,                             # at t = 0
        lambda t: -t,                                  # at t = 1
        lambda t: np.zeros_like(t),                    # constant: ties go left
        lambda t: np.full_like(t, np.nan),             # no value at all
        lambda t: np.where(t > 0.7, np.nan, (t - 0.6) ** 2),
    ]
    calls = []

    def f(lanes, t):
        calls.append(len(lanes))
        return np.array([funcs[k](row) for k, row in zip(lanes.tolist(), t)])

    t, value = flow._step_minimum(f, len(funcs))
    for k, g in enumerate(funcs):
        assert np.array_equal((t[k], value[k]), reference_step_minimum(g), equal_nan=True)
    # a lane leaves the batch once its bracket stops moving
    assert calls[1] == len(funcs) and calls[-2] < len(funcs) and len(calls) <= 102
    assert calls[1:-1] == sorted(calls[1:-1], reverse=True)


def test_lanes_that_search_in_one_round_search_in_one_batch(monkeypatch):
    # the mirrored seeds of test_lockstep_sample_layout_through_events both
    # search their steps for a pass of the degenerate origin in the same
    # rounds: the pair evaluates the field as often as one of them alone
    morse, searching, calls = bde.morse_model_field(-1), [False], []

    def slots(u, v, order):
        if searching[0]:
            calls.append(order)
        return morse.slots(u, v, order)

    def spy(*args):
        searching[0] = True
        try:
            return step_minimum(*args)
        finally:
            searching[0] = False

    step_minimum = flow._step_minimum
    monkeypatch.setattr(flow, "_step_minimum", spy)
    fld = bde.BDEField(slots, morse.domain, morse.period)
    pass_jobs = [((0.05, 0.0), "plus", -1), ((-0.05, 0.0), "plus", -1)]
    counts = []
    for jobs in (pass_jobs, pass_jobs[:1], pass_jobs[1:]):
        calls.clear()
        out = flow.integrate_many(fld, jobs, flow.IntegrationParams(max_len=9.0))
        assert [t.termination for t in out] == ["hit_degenerate_point"] * len(jobs)
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2] > 0


def test_a_lane_whose_search_raises_ends_alone(monkeypatch):
    # both mirrored lanes search their steps in the same rounds; the search
    # of the lane that comes from u < 0 raises, in a batch and alone
    morse, params = bde.morse_model_field(-1), flow.IntegrationParams(max_len=9.0)
    jobs = [((0.05, 0.0), "plus", -1), ((-0.05, 0.0), "plus", -1)]
    solo = integrate_one(morse, *jobs[0][:2], params, jobs[0][2])
    degenerate_pass = flow._degenerate_pass

    def spy(fld, a, b):
        if (a[:, 0] < 0).any():
            raise ArithmeticError("a search left of the axis")
        return degenerate_pass(fld, a, b)

    monkeypatch.setattr(flow, "_degenerate_pass", spy)
    stats = flow.IntegrationStats()
    right, left = flow.integrate_many(morse, jobs, params, stats)
    assert left is None
    assert [d["reason"] for d in stats.dropped] == ["ArithmeticError: a search left of the axis"]
    assert right.termination == solo.termination == "hit_degenerate_point"
    assert np.array_equal(right.samples, solo.samples)


def test_every_event_sample_meets_the_lift_bound():
    # two families of circles through a totally degenerate origin: lanes
    # close loops, leave the square and run into the origin
    fld = bde.field_from_polynomials({(1, 1): 1.0}, {(0, 2): 0.5, (2, 0): -0.5},
                                     {(1, 1): -1.0}, Rect(-1, 1, -1, 1))
    p = flow.build_portrait(fld, grid=(4, 4), params=flow.IntegrationParams(max_len=6.0))
    assert len(p.trajectories) == 64
    assert p.integration.terminations["closed_loop"] == 4
    for traj in p.trajectories:
        u, v, s, q, _ = traj.samples[-1]
        scale = max(map(abs, fld.coeff(u, v)))
        if scale >= bde.DEGENERATE_TOL:
            assert abs(lift_residual(fld, u, v, s, q != 0)) <= 1e-8 * scale, traj.termination


def test_a_cusp_portrait_integrates_each_seed_once(monkeypatch):
    # the cusp of Gauss, the affine fold and the meeting of the two
    # parabolic sets all lie at the origin: their three rings are one
    params = flow.IntegrationParams(max_len=0.3)
    integrate_many, seen = flow.integrate_many, []

    def spy(fld, jobs, params, stats):
        seen.append((fld, jobs))
        return integrate_many(fld, jobs, params, stats)

    monkeypatch.setattr(flow, "integrate_many", spy)
    surf = sf.catalog_surface("cusp_gauss", {"q21": 1.0, "q40": 0.1})
    p = flow.build_portrait(surf, grid=(2, 2), params=params, trace_resolution=96)
    at_origin = [r.kind for r in p.reports if math.hypot(*r.location) < 1e-9]
    assert sorted(at_origin) == ["cusp_of_gauss", "folded_saddle", "parabolic_meeting"]
    ((fld, jobs),) = seen
    seeds = np.array(list(dict.fromkeys(seed for seed, _, _ in jobs)))
    gaps = np.max(np.abs(seeds[:, None] - seeds[None]), axis=2)
    assert np.all(gaps[~np.eye(len(seeds), dtype=bool)] >= flow._LOOP_TOL)
    merged, others = [], [seeds]
    for s in p.integration.skipped_seeds:
        (merged if s["reason"].startswith("joins the ring of the cusp_of_gauss at")
         else others).append([s["seed"]])
    assert len(merged) == 2 * flow._RING_SEEDS
    others = np.vstack(others)
    assert all(np.min(np.max(np.abs(others - s), axis=1)) < flow._LOOP_TOL for s in merged)
    assert len(p.trajectories) == len(jobs)
    for job, traj in zip(jobs, p.trajectories):
        solo = integrate_one(fld, *job[:2], params, job[2])
        assert traj.termination == solo.termination
        assert np.array_equal(traj.samples, solo.samples)


def test_lanes_that_clip_in_one_round_project_in_one_batch(monkeypatch):
    # the field depends on u alone, so lanes seeded on a vertical segment move
    # alike and leave the domain through u = 1 in the same round
    fld = bde.field_from_polynomials({(0, 0): 1.0}, {}, {(0, 0): -1.0, (2, 0): -1.0},
                                     Rect(-1, 1, -1, 1))
    jobs = [((0.9, float(v)), "plus", sweep)
            for v in np.linspace(-0.3, 0.3, 16) for sweep in (1, -1)]
    params = flow.IntegrationParams(max_len=0.5)
    project, clips = flow._project_slope, []

    def spy(fld, u, v, slope, chart, iters=None):
        if iters == 8:
            clips.append(np.size(u))
        return project(fld, u, v, slope, chart, iters)

    monkeypatch.setattr(flow, "_project_slope", spy)
    out = flow.integrate_many(fld, jobs, params)
    assert max(clips) >= 12
    assert sum(t.termination == "left_domain" for t in out) == max(clips)
    for job, traj in zip(jobs, out):
        solo = integrate_one(fld, *job[:2], params, job[2])
        assert traj.termination == solo.termination
        assert np.array_equal(traj.samples, solo.samples)
