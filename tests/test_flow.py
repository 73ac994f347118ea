import math

import numpy as np
import pytest

from affasym import affine as af, bde, flow, singular as sg, surface as sf
from affasym.bde import LiftedState
from affasym.surface import Rect


def torus_field(R=2.0, r=1.0):
    return bde.torus_extended_field(R, r)


def ring_bounds(R=2.0, r=1.0):
    coefs = [-3 * R ** 2, -8 * r * R, 15 * R ** 2, 36 * r * R, 16 * r ** 2]
    roots = sorted(c.real for c in np.polynomial.polynomial.polyroots(coefs)
                   if abs(c.imag) < 1e-12 and -1 < c.real < 1)
    return math.acos(roots[1]), math.acos(roots[0])


def test_residual_control_along_trajectory():
    fld = torus_field()
    traj = flow.integrate_asymptotic(fld, (1.4, 0.5), "plus",
                                     flow.IntegrationParams(max_len=6.0))
    assert len(traj.samples) > 50
    for row in traj.samples:
        st = LiftedState(row[0], row[1], row[2], "p" if row[3] == 0 else "q")
        A, B, C = (float(x) for x in fld.coeff(st.u, st.v))
        scale = max(abs(A), abs(B), abs(C))
        assert abs(bde.f_residual(fld, st)) <= 1e-8 * scale
    assert np.all(np.diff(traj.samples[:, 4]) > 0)


def boundary_sweep_trajectory(fld, params=None):
    """The sweep from (1.4, 0.5) that runs into the lower ring boundary."""
    params = params or flow.IntegrationParams(max_len=6.0)
    trajs = [flow.integrate_asymptotic(fld, (1.4, 0.5), "plus", params, sweep)
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


def test_cusp_law_at_criminant_crossing():
    # cross the degenerate curve of a generic graph field with fine steps;
    # at the crossing the lifted planar velocity vanishes and the slope
    # passes through the chart-appropriate double root
    eps, sigma, q13, q40 = 1, 0.9, 0.3, 0.5
    surf = sf.catalog_surface("pick", {
        "epsilon": eps, "sigma": sigma,
        "q": {(1, 3): q13, (3, 1): -eps * q13,
              (2, 2): -eps * (-2 * sigma ** 2 + q40), (4, 0): q40,
              (0, 4): q40 + 1.0}}, domain=Rect(-0.35, 0.35, -0.35, 0.35))
    fld = bde.monge_extended_field(surf)
    params = flow.IntegrationParams(max_len=0.6, max_step_frac=5e-4, max_steps=6000)
    crossing = None
    for sweep in (1, -1):
        traj = flow.integrate_asymptotic(fld, (-0.12, 0.0), "plus", params, sweep)
        s = traj.samples
        fp = []
        for row in s:
            st = LiftedState(row[0], row[1], row[2], "p" if row[3] == 0 else "q")
            A, B, C = (float(x) for x in fld.coeff(st.u, st.v))
            if st.chart == "p":
                fp.append(2 * B + 2 * C * st.slope)
            else:
                fp.append(2 * A * st.slope + 2 * B)
        fp = np.array(fp)
        for k in range(len(s) - 1):
            if fp[k] == 0 or fp[k] * fp[k + 1] > 0 or s[k, 3] != s[k + 1, 3]:
                continue
            t = abs(fp[k]) / (abs(fp[k]) + abs(fp[k + 1]))
            crossing = ((1 - t) * s[k] + t * s[k + 1], "p" if s[k, 3] == 0 else "q")
            break
        if crossing:
            break
    assert crossing is not None, "no criminant crossing found"
    row, chart = crossing
    st = LiftedState(row[0], row[1], row[2], chart)
    A, B, C = (float(x) for x in fld.coeff(st.u, st.v))
    scale = max(abs(A), abs(B), abs(C))
    X = bde.lie_cartan(fld, st)
    # projected tangent vanishes at the crossing
    assert math.hypot(X[0], X[1]) < 1e-3 * float(np.linalg.norm(X))
    # slope equals the double root of the quadratic there
    if chart == "p":
        assert abs(st.slope - (-B / C)) < 1e-4
    else:
        assert abs(st.slope - (-B / A)) < 1e-4


def test_bde_residual_of_projected_curve():
    # tangents estimated from the projected samples alone (nonuniform
    # 3-point differentiation), independent of the lifted slopes
    fld = torus_field()
    traj = flow.integrate_asymptotic(
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
    traj = flow.integrate_asymptotic(fld, (math.pi / 2, 0.3), "plus",
                                     flow.IntegrationParams(max_len=5.0))
    assert np.max(np.abs(traj.points[:, 0] - math.pi / 2)) < 1e-8
    assert traj.points[-1, 1] > 3.0  # actually travels along the circle


def test_seed_without_direction():
    fld = torus_field()
    with pytest.raises(flow.NoDirectionError):
        flow.integrate_asymptotic(fld, (0.2, 0.0), "plus")
    with pytest.raises(flow.NoDirectionError):
        flow.integrate_asymptotic(bde.morse_model_field(1), (0.0, 0.0), "plus")


def test_families_pick_the_two_roots():
    fld = torus_field()
    a = flow.integrate_asymptotic(fld, (1.4, 0.5), "plus",
                                  flow.IntegrationParams(max_len=0.5))
    b = flow.integrate_asymptotic(fld, (1.4, 0.5), "minus",
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
    J = bde.lie_cartan_jacobian(fld, LiftedState(0.0, 0.0, 0.0, "p"))
    vals, vecs = np.linalg.eig(J)
    order = np.argsort(vals.real)
    stable = vecs[:, order[0]].real / np.linalg.norm(vecs[:, order[0]].real)
    unstable = vecs[:, order[-1]].real / np.linalg.norm(vecs[:, order[-1]].real)
    params = flow.IntegrationParams(max_len=0.02, max_steps=4000)

    def min_dist(vec):
        y0 = 1e-4 * vec
        u0, p0 = y0[0], y0[2]
        v0 = lam * u0 * u0 + p0 * p0  # project the seed onto the lift
        dirs = bde.asymptotic_directions(fld, u0, v0)
        fam = "plus" if abs(dirs.dirs[0][1] / dirs.dirs[0][0] - p0) <= \
            abs(dirs.dirs[-1][1] / dirs.dirs[-1][0] - p0) else "minus"
        traj = flow.integrate_asymptotic(fld, (u0, v0), fam, params)
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
    t1 = flow.integrate_asymptotic(fld, (1.4, 0.5), "plus", p)
    t2 = flow.integrate_asymptotic(fld, (1.4, 0.5), "plus", p)
    assert t1.samples.shape == t2.samples.shape
    assert np.array_equal(t1.samples, t2.samples)


def test_closed_loop_detection():
    # the profile circle is a closed solution: the angular parameter advances
    # by a full period and the lifted state returns to the seed
    fld = bde.torus_extended_field(2.0, 1.0, Rect(0.0, 2 * math.pi, -0.5, 7.0))
    terms = {}
    for sweep in (1, -1):
        traj = flow.integrate_asymptotic(fld, (math.pi / 2, 0.0), "plus",
                                         flow.IntegrationParams(max_len=9.0), sweep)
        terms[sweep] = (traj.termination, traj.samples[-1, 4])
    closed = [v for v in terms.values() if v[0] == "closed_loop"]
    assert closed, terms
    assert closed[0][1] == pytest.approx(2 * math.pi, abs=1e-3)


def test_morse_crossing_net_confined_to_two_sectors():
    fld = bde.morse_model_field(-1)
    # delta = u^2 - v^2 > 0 in the |u| > |v| sectors only
    traj = flow.integrate_asymptotic(fld, (0.5, 0.0), "plus",
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
    svg = flow.portrait_svg(p)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "folded_saddle" in svg
    js = p.to_json()
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
        traj = flow.integrate_asymptotic(
            fld, (0.3, 0.0), "plus",
            flow.IntegrationParams(max_len=12.0, max_steps=60000), sweep)
        best = max(best, spiral_winding(traj))
    assert best > 2.0


def test_portrait_pick_generic_nonempty():
    surf = sf.catalog_surface("pick", {"epsilon": -1, "sigma": 0.5,
                                       "q": {(4, 0): 0.7, (1, 3): 0.2}},
                              domain=Rect(-0.4, 0.4, -0.4, 0.4))
    p = flow.build_portrait(surf, grid=(4, 4),
                            params=flow.IntegrationParams(max_len=1.0),
                            trace_resolution=64, detect=False)
    assert p.trajectories


def test_hit_degenerate_point_termination():
    # the u-axis is a solution line of the crossing model and runs into the
    # totally degenerate origin
    fld = bde.morse_model_field(-1)
    terms = set()
    for sweep in (1, -1):
        traj = flow.integrate_asymptotic(fld, (0.5, 0.0), "plus",
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
    expect = sg.singular_sets(surf, fld, surf.domain, 64)
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
    svg = flow.portrait_svg(p)
    assert svg.count('stroke-width="3"') >= 6
