import math

import numpy as np
import pytest

from affasym import affine as af, bde, singular as sg, surface as sf
from affasym.surface import Poly, Rect


def special_points(surf, resolution):
    fld = bde.extended_field_for(surf)
    sets = sg.singular_sets(surf, fld, surf.domain, resolution)
    return sg.detect_special_points(surf, fld, sets, surf.domain, resolution)


def folded_points(lam, res=96):
    fld = bde.folded_model_field(lam)
    polys = bde.trace_zero_set(lambda u, v: bde.discriminant(fld, u, v),
                               fld.domain, res)
    return fld, sg.find_folded_points(fld, polys)


@pytest.mark.parametrize("lam,kind", [
    (-2.0, "folded_saddle"), (-0.5, "folded_saddle"),
    (0.01, "folded_node"), (0.05, "folded_node"), (1 / 32, "folded_node"),
    (0.2, "folded_focus"), (1.0, "folded_focus"),
])
def test_folded_family_classification(lam, kind):
    fld, pts = folded_points(lam)
    assert len(pts) == 1
    assert pts[0] == pytest.approx((0.0, 0.0), abs=1e-9)
    rep = sg.classify_folded(fld, pts[0])
    assert rep.kind == kind
    assert abs(rep.lambda_invariant - lam) < 1e-4
    disc = 1 - 16 * lam
    mu = sorted(rep.eigenvalues, key=lambda z: (complex(z).real, complex(z).imag))
    if disc >= 0:
        expect = sorted([(1 - math.sqrt(disc)) / 2, (1 + math.sqrt(disc)) / 2])
        assert [float(z) for z in mu] == pytest.approx(expect, abs=1e-6)
    else:
        expect = complex(0.5, -math.sqrt(-disc) / 2)
        assert complex(mu[0]) == pytest.approx(expect, abs=1e-6)


def test_folded_saddle_eigenvalues_minus_one():
    fld, pts = folded_points(-1.0)
    rep = sg.classify_folded(fld, pts[0])
    expect = sorted([(1 - math.sqrt(17)) / 2, (1 + math.sqrt(17)) / 2])
    assert sorted(float(z) for z in rep.eigenvalues) == pytest.approx(expect, abs=1e-9)


def test_kind_invariant_under_positive_factor():
    lam = 0.05
    fac = Poly({(0, 0): 1.0, (2, 0): 1.0, (0, 2): 1.0})
    pa = Poly({(2, 0): lam, (0, 1): -1.0}) * fac
    pb = Poly({}) * fac
    pc = Poly({(0, 0): 1.0}) * fac
    fld = bde.field_from_polynomials(pa, pb, pc, Rect(-1, 1, -1, 1))
    polys = bde.trace_zero_set(lambda u, v: bde.discriminant(fld, u, v), fld.domain, 96)
    pts = sg.find_folded_points(fld, polys)
    rep = sg.classify_folded(fld, pts[0])
    assert rep.kind == "folded_node"
    assert abs(rep.lambda_invariant - lam) < 1e-4


def test_not_singular_lift_error():
    fld = bde.folded_model_field(-1.0)
    with pytest.raises(sg.NotSingularLiftError):
        sg.classify_folded(fld, (0.3, 0.09))  # on the discriminant, not folded


def test_boundary_uncertain_near_thresholds():
    fld, pts = folded_points(1.0 / 16.0)
    rep = sg.classify_folded(fld, pts[0])
    assert rep.kind == "boundary_uncertain"


def test_morse_crossing_eigenvalues():
    rep = sg.classify_flat_affine_umbilic(bde.morse_model_field(-1), (0.0, 0.0))
    assert rep.kind == "morse_crossing"
    assert rep.details["epsilon1"] == -1
    assert rep.details["lifted_singularities"] == 1
    eig = sorted(complex(z).real for z in rep.eigenvalues)
    assert eig == pytest.approx([-3.0, 2.0], abs=1e-6)
    assert rep.details["lifted_saddles"] == 1


def test_morse_isolated_triple():
    rep = sg.classify_flat_affine_umbilic(bde.morse_model_field(1), (0.0, 0.0))
    assert rep.kind == "morse_isolated"
    assert rep.details["epsilon1"] == 1
    slopes = sorted(rep.details["lifted_slopes"])
    assert slopes == pytest.approx([-math.sqrt(3), 0.0, math.sqrt(3)], abs=1e-6)
    assert rep.details["lifted_saddles"] == 3


def test_pick_flat_affine_umbilic_detected():
    eps, sigma, q13, q40 = -1, 0.8, 0.6, 0.4
    surf = sf.catalog_surface("pick", {
        "epsilon": eps, "sigma": sigma,
        "q": {(1, 3): q13, (3, 1): -eps * q13, (4, 0): q40, (0, 4): q40,
              (2, 2): -eps * (-2 * sigma ** 2 + q40)}})
    fld = bde.monge_extended_field(surf)
    rep = sg.classify_flat_affine_umbilic(fld, (0.0, 0.0))
    assert rep.kind in ("morse_isolated", "morse_crossing")
    assert rep.details["lifted_singularities"] >= 1
    # a non-degenerate point raises
    with pytest.raises(sg.NotFlatUmbilicError):
        sg.classify_flat_affine_umbilic(fld, (0.1, 0.1))


def test_degenerate_hessian_error():
    # coefficients (v, 0, v): discriminant -v^2 has zero Hessian determinant
    fld = bde.field_from_polynomials({(0, 1): 1.0}, {}, {(0, 1): 1.0},
                                     Rect(-1, 1, -1, 1))
    with pytest.raises(sg.DegenerateHessianError):
        sg.classify_flat_affine_umbilic(fld, (0.0, 0.0))


def test_cusp_chart_flags_both_kinds():
    cg = sf.catalog_surface("cusp_gauss", {"q21": 1.0, "q40": 0.0},
                            domain=Rect(-0.4, 0.4, -0.2, 0.2))
    reps = special_points(cg, 256)
    kinds = {}
    for r in reps:
        kinds.setdefault(r.kind, []).append(r)
    assert len(kinds.get("cusp_of_gauss", [])) == 1
    assert len(kinds.get("affine_cusp_of_gauss", [])) == 1
    assert kinds["cusp_of_gauss"][0].location == pytest.approx((0.0, 0.0), abs=1e-3)
    assert kinds["affine_cusp_of_gauss"][0].location == pytest.approx((0.0, 0.0), abs=1e-3)
    meet = kinds.get("parabolic_meeting", [])
    assert meet and meet[0].details["tangential"]


def fit_quadratic(poly, window=0.05):
    pts = poly[np.abs(poly[:, 0]) <= window]
    A = np.stack([np.ones(len(pts)), pts[:, 0], pts[:, 0] ** 2], axis=1)
    sol, *_ = np.linalg.lstsq(A, pts[:, 1], rcond=None)
    return sol[2]


def test_cusp_chart_contact_coefficients():
    q21, q40 = 1.0, 0.3
    cg = sf.catalog_surface("cusp_gauss", {"q21": q21, "q40": q40},
                            domain=Rect(-0.1, 0.1, -0.05, 0.05))

    def kfun(u, v):
        hj = cg.height_jet(u, v, order=2, check=False)
        return hj.partial(2, 0) * hj.partial(0, 2) - hj.partial(1, 1) ** 2

    fld = bde.monge_extended_field(cg)
    par = bde.trace_zero_set(kfun, cg.domain, 256)
    aff = bde.trace_zero_set(lambda u, v: bde.discriminant(fld, u, v), cg.domain, 256)
    a_par = fit_quadratic(np.vstack(par))
    a_aff = fit_quadratic(np.vstack(aff))
    assert a_par == pytest.approx((q21 ** 2 - 6 * q40) / q21, rel=1e-3)
    assert a_aff == pytest.approx(2 * (4 * q21 ** 2 - 17 * q40) / q21, rel=1e-3)


def test_torus_no_cusps_no_folds():
    tor = sf.catalog_surface("torus", {"R": 2, "r": 1})
    reps = special_points(tor, 128)
    assert not [r for r in reps if r.kind in ("cusp_of_gauss", "affine_cusp_of_gauss")]
    fld = bde.torus_extended_field(2.0, 1.0)
    circles = bde.trace_zero_set(lambda u, v: fld.coeff(u, v)[0], fld.domain, 96)
    assert sg.find_folded_points(fld, circles) == []


def test_transversality_along_affine_parabolic_set():
    # ordinary degenerate points: the double direction stays transversal
    eps, sigma, q13, q40 = 1, 0.9, 0.3, 0.5
    surf = sf.catalog_surface("pick", {
        "epsilon": eps, "sigma": sigma,
        "q": {(1, 3): q13, (3, 1): -eps * q13,
              (2, 2): -eps * (-2 * sigma ** 2 + q40), (4, 0): q40,
              (0, 4): q40 + 1.0}})
    fld = bde.monge_extended_field(surf)
    region = Rect(-0.25, 0.25, -0.25, 0.25)
    polys = bde.trace_zero_set(lambda u, v: bde.discriminant(fld, u, v), region, 128)
    assert polys
    reps = sg.scan_tangency(fld, polys, "affine_cusp_of_gauss")
    flagged = [r.location for r in reps]
    for poly in polys:
        s = sg._tangency_signal(fld, poly)
        for k, val in enumerate(s[1:-1], start=1):
            if not np.isfinite(val):
                continue
            near_flag = any(math.hypot(poly[k][0] - fu, poly[k][1] - fv) < 0.02
                            for (fu, fv) in flagged)
            if not near_flag:
                assert abs(val) > 1e-2


def test_flat_euclid_umbilic_no_lines():
    fu = sf.catalog_surface("flat_umbilic_chart", {"epsilon": 1})
    rep = sg.classify_flat_euclid_umbilic(fu)
    assert rep.kind == "flat_euclid_umbilic_no_lines"
    assert rep.details["delta_max_punctured"] <= 1e-12


def test_flat_euclid_umbilic_focus_blowup():
    fu = sf.catalog_surface("flat_umbilic_chart", {"epsilon": -1})
    rep = sg.classify_flat_euclid_umbilic(fu)
    assert rep.kind == "flat_euclid_umbilic_focus"
    assert rep.details["blowup_A_matches"]
    assert rep.details["blowup_A_nonvanishing"]
    assert rep.details["branch1_radial_onesigned"]
    assert rep.details["branch2_radial_onesigned"]
    assert rep.details["angular_onesigned"]


def test_blowup_reference_value():
    # normalized radial coefficient at t = pi/2 equals (1 + 2 cos^2)^2 = 1
    model = sf.monge_surface("u^3 - u*v^2")
    fld = bde.extended_field_for(model)
    ts = np.array([math.pi / 2, 0.0, 1.0])
    Ab, _, _ = sg.blowup_radial_coeffs(fld, ts)
    ref = Ab[0]
    norm = Ab / ref
    assert norm[0] == pytest.approx(1.0, abs=1e-12)
    assert norm[1] == pytest.approx(9.0, abs=1e-9)  # (1 + 2)^2 at t = 0
    assert norm[2] == pytest.approx((1 + 2 * math.cos(1.0) ** 2) ** 2, abs=1e-9)


def test_not_flat_umbilic_error():
    pick = sf.catalog_surface("pick", {"epsilon": 1, "sigma": 0.5})
    with pytest.raises(sg.NotFlatUmbilicError):
        sg.classify_flat_euclid_umbilic(pick)


def test_report_serialization():
    fld, pts = folded_points(0.2)
    rep = sg.classify_folded(fld, pts[0])
    d = rep.to_json_dict()
    assert d["kind"] == "folded_focus"
    assert len(d["eigenvalues"]) == 2
    assert d["eigenvalues"][0][1] != 0.0  # complex pair recorded as [re, im]


def test_fold_point_on_a_generic_surface():
    # a graph chart tuned so the unique degenerate direction is tangent to
    # the degenerate curve at the origin: the lifted field then has a zero
    # there, found by the fold search and classified definitely
    eps, sigma, q13, q32, q50 = 1, 1.0, 0.4, 0.6, 0.2
    q40 = (6 * sigma ** 3 + q50 + eps * q32) / (6 * sigma)
    surf = sf.catalog_surface("pick", {
        "epsilon": eps, "sigma": sigma,
        "q": {(1, 3): q13, (3, 1): -eps * q13,
              (2, 2): -eps * (-2 * sigma ** 2 + q40), (4, 0): q40,
              (3, 2): q32, (5, 0): q50, (0, 4): q40 + 0.7}},
        domain=Rect(-0.3, 0.3, -0.3, 0.3))
    fld = bde.monge_extended_field(surf)
    polys = bde.trace_zero_set(lambda u, v: bde.discriminant(fld, u, v),
                               fld.domain, 192)
    pts = sg.find_folded_points(fld, polys)
    assert pts, "no fold point located"
    origin_pts = [p for p in pts if math.hypot(*p) < 1e-6]
    assert origin_pts, pts
    rep = sg.classify_folded(fld, origin_pts[0])
    assert rep.kind in sg.FOLD_KINDS
    # fold points and degenerate-direction tangency flags coincide: a zero
    # of the lifted field on the criminant is exactly a point where the
    # double direction is tangent to the discriminant
    reps = special_points(surf, 192)
    flags = [r.location for r in reps if r.kind == "affine_cusp_of_gauss"]
    assert any(math.hypot(*f) < 5e-3 for f in flags)
    for p in pts:
        assert min(math.hypot(p[0] - f[0], p[1] - f[1]) for f in flags) < 1e-2, p
