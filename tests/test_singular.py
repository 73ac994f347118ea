import itertools
import math

import numpy as np
import pytest

from affasym import affine as af, bde, flow, singular as sg, surface as sf
from affasym.surface import Poly, Rect


def special_points(surf, resolution):
    fld, euclid = bde.extended_field_for(surf), bde.euclidean_field_for(surf)
    sets = sg.singular_sets(euclid, fld, surf.domain, resolution)
    dropped = []
    return sg.detect_special_points(euclid, sets, surf.domain, resolution,
                                    lambda *args: dropped.append(args))


def folded_points(lam, res=96):
    fld = bde.folded_model_field(lam)
    polys = bde.trace_zero_set(lambda u, v: bde.discriminant(fld, u, v),
                               fld.domain, res)
    return fld, sg.find_folded_points(fld, polys, fld.domain, res)


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
    pts = sg.find_folded_points(fld, polys, fld.domain, 96)
    rep = sg.classify_folded(fld, pts[0])
    assert rep.kind == "folded_node"
    assert abs(rep.lambda_invariant - lam) < 1e-4


def test_fold_classification_does_not_depend_on_the_field_scale():
    # (A, B, C) of the folded saddle times k: tr^2 and e2 of the raw Jacobian
    # underflow or overflow far from k = 1, lambda does not
    for k in (1e-170, 1e-150, 1.0, 1e150):
        fld = bde.field_from_polynomials({(2, 0): -k, (0, 1): -k}, {}, {(0, 0): k},
                                         Rect(-1, 1, -1, 1))
        with np.errstate(over="raise", invalid="raise"):
            rep = sg.classify_folded(fld, (0.0, 0.0))
        assert (rep.kind, rep.lambda_invariant) == ("folded_saddle", -1.0), k


def test_sign_changes_compare_signs():
    poly = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    # a product of two values 1e-200 underflows to 0, which read as a crossing
    assert sg._sign_changes(poly, np.full(3, 1e-200)).shape == (0, 2)
    # a product of two values 1e200 overflows
    with np.errstate(over="raise", invalid="raise"):
        loc = sg._sign_changes(poly, np.array([1e200, -1e200, 1e200]))
    assert loc.tolist() == [[0.5, 0.0], [1.5, 0.0]]


def test_sign_changes_cannot_overflow():
    # |a| + |b| of a crossed edge overflows, though each value is finite
    poly = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with np.errstate(over="raise", invalid="raise"):
        loc = sg._sign_changes(poly, np.array([1.5e308, -1e308, 1.5e308]))
    assert loc[:, 0] == pytest.approx([0.6, 1.4], rel=1e-15)
    assert loc[:, 1].tolist() == [0.0, 0.0]


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
    fld = bde.extended_field_for(surf)
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
    # the cusp of Gauss is the Euclidean fold on the parabolic set, the
    # affine cusp point the extended field's fold on the affine parabolic set
    cg = sf.catalog_surface("cusp_gauss", {"q21": 1.0, "q40": 0.0},
                            domain=Rect(-0.4, 0.4, -0.2, 0.2))
    reps = special_points(cg, 256)
    kinds = {}
    for r in reps:
        kinds.setdefault(r.kind, []).append(r)
    assert set(kinds) == {"cusp_of_gauss", "parabolic_meeting"}
    (cusp,) = kinds["cusp_of_gauss"]
    assert cusp.location == pytest.approx((0.0, 0.0), abs=1e-9)
    assert cusp.details["fold_kind"] in sg.FOLD_KINDS
    fld, euclid = bde.extended_field_for(cg), bde.euclidean_field_for(cg)
    sets = sg.singular_sets(euclid, fld, cg.domain, 256)
    folds = sg.find_folded_points(fld, sets["affine_parabolic"], cg.domain, 256)
    assert folds == [pytest.approx((0.0, 0.0), abs=1e-9)]
    assert sg.classify_folded(fld, folds[0]).kind in sg.FOLD_KINDS
    meet = kinds["parabolic_meeting"]
    assert meet[0].details["tangential"]


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
        hj = cg.eval_jets(u, v, order=2)[2]
        return hj.partial(2, 0) * hj.partial(0, 2) - hj.partial(1, 1) ** 2

    fld = bde.extended_field_for(cg)
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
    fld = bde.torus_extended_field(tor)
    circles = bde.trace_zero_set(lambda u, v: fld.coeff(u, v)[0], fld.domain, 96)
    assert sg.find_folded_points(fld, circles, fld.domain, 96) == []


def test_transversality_along_affine_parabolic_set():
    # ordinary degenerate points: the double direction stays transversal,
    # so the fold signal keeps away from 0 but near the one fold, at the
    # region's edge, and no fold lies near the origin
    eps, sigma, q13, q40 = 1, 0.9, 0.3, 0.5
    surf = sf.catalog_surface("pick", {
        "epsilon": eps, "sigma": sigma,
        "q": {(1, 3): q13, (3, 1): -eps * q13,
              (2, 2): -eps * (-2 * sigma ** 2 + q40), (4, 0): q40,
              (0, 4): q40 + 1.0}})
    fld = bde.extended_field_for(surf)
    region = Rect(-0.25, 0.25, -0.25, 0.25)
    polys = bde.trace_zero_set(lambda u, v: bde.discriminant(fld, u, v), region, 128)
    assert polys
    folds = sg.find_folded_points(fld, polys, region, 128)
    assert all(math.hypot(*f) > 0.2 for f in folds)
    for poly in polys:
        s, scale = sg._fold_signal(fld, poly)
        for k, val in enumerate(s[1:-1], start=1):
            if not np.isfinite(val):
                continue
            near_fold = any(math.hypot(poly[k][0] - fu, poly[k][1] - fv) < 0.02
                            for (fu, fv) in folds)
            if not near_fold:
                assert abs(val) > 0.1 * scale[k]


def test_flat_euclid_umbilic_no_lines():
    fu = sf.catalog_surface("flat_umbilic_chart", {"epsilon": 1})
    rep = sg.classify_flat_euclid_umbilic(fu)
    assert rep.kind == "flat_euclid_umbilic_no_lines"
    assert rep.details["delta_max_punctured"] <= 1e-12


def model_focus_blowup():
    """Blow-up sign checks on the cubic classification model u^3 - u v^2 of
    a focus: the normalized radial coefficient against (1 + 2 cos^2 t)^2, and
    whether it and the radial components of both branches keep one sign."""
    mfld = bde.extended_field_for(sf.monge_surface("u^3 - u*v^2", Rect(-1, 1, -1, 1)))
    ts = np.linspace(0.0, 2 * math.pi, 720, endpoint=False)
    Ab, Bb, Cb = sg.blowup_radial_coeffs(mfld, ts)
    ref = sg.blowup_radial_coeffs(mfld, np.array(math.pi / 2))[0]
    expected = (1 + 2 * np.cos(ts) ** 2) ** 2
    rtd = np.sqrt(np.maximum(Bb * Bb - Ab * Cb, 0.0))
    sgn = np.sign(ref)
    out = {"blowup_A_matches": bool(np.max(np.abs(Ab / ref - expected)) < 1e-6),
           "blowup_A_nonvanishing": bool(np.min(np.abs(Ab)) > 0),
           "angular_onesigned": bool(np.all(Ab * sgn > 0))}
    # radial components of the two branches, / r
    for name, f1 in (("branch1_radial_onesigned", -Bb - rtd),
                     ("branch2_radial_onesigned", -Bb + rtd)):
        out[name] = bool(np.all(sgn * f1 < 0) or np.all(sgn * f1 > 0))
    return out


def test_flat_euclid_umbilic_focus_blowup():
    fu = sf.catalog_surface("flat_umbilic_chart", {"epsilon": -1})
    rep = sg.classify_flat_euclid_umbilic(fu)
    assert rep.kind == "flat_euclid_umbilic_focus"
    blowup = model_focus_blowup()
    assert blowup["blowup_A_matches"]
    assert blowup["blowup_A_nonvanishing"]
    assert blowup["branch1_radial_onesigned"]
    assert blowup["branch2_radial_onesigned"]
    assert blowup["angular_onesigned"]


def test_flat_euclid_umbilic_focus_details_come_from_the_surface():
    # two focus charts: every detail is read from the surface classified
    reps = [sg.classify_flat_euclid_umbilic(surf) for surf in (
        sf.catalog_surface("flat_umbilic_chart", {"epsilon": -1}),
        sf.monge_surface("u^3 - 3*u*v^2 + 2*u^2*v"))]
    for rep in reps:
        assert rep.kind == "flat_euclid_umbilic_focus"
        assert set(rep.details) == {"epsilon", "delta_max_punctured"}
    deltas = [rep.details["delta_max_punctured"] for rep in reps]
    assert deltas == pytest.approx([12.8994509, 41.6179814], rel=1e-8)


def _flat_umbilic_kind(eps):
    fu = sf.catalog_surface("flat_umbilic_chart", {"epsilon": eps}, Rect(-1, 1, -1, 1))
    return fu, sg.classify_flat_euclid_umbilic(fu).kind


@pytest.mark.parametrize("eps", [1, -1])
def test_flat_euclid_umbilic_of_a_tilted_graph(eps):
    # a tilt adds a linear part to the height but leaves (L, M, N) as they are
    fu, kind = _flat_umbilic_kind(eps)
    tilted = sf.monge_surface({**fu.polys[2], (1, 0): 0.3, (0, 1): 0.2}, fu.domain)
    rep = sg.classify_flat_euclid_umbilic(tilted)
    assert rep.kind == kind
    assert rep.details["epsilon"] == eps


@pytest.mark.parametrize("eps", [1, -1])
def test_flat_euclid_umbilic_on_a_chart_that_is_not_a_graph(eps):
    # the same surface over (x, y) = (u + 0.3 v, v)
    _, kind = _flat_umbilic_kind(eps)
    x = "(u + 0.3*v)"
    chart = sf.surface_from_config({"kind": "parametric",
                                    "exprs": [x, "v", f"{x}^3 + {3 * eps}*{x}*v^2"],
                                    "domain": [-1, 1, -1, 1]})
    rep = sg.classify_flat_euclid_umbilic(chart)
    assert rep.kind == kind
    assert rep.details["epsilon"] == eps


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


def test_blowup_reads_the_exact_quadratic_part():
    # quadratic plus cubic coefficients: the blow-up is the quadratic part's
    quad = ({(2, 0): 1.0, (1, 1): 0.5, (0, 2): -1.0}, {(2, 0): 0.3, (1, 1): -1.0, (0, 2): 2.0},
            {(2, 0): -0.7, (0, 2): 0.4})
    cubic = ({(3, 0): 0.7, (1, 2): -2.0}, {(2, 1): 1.5}, {(0, 3): -0.9, (3, 0): 0.2})
    fld = bde.field_from_polynomials(*({**q, **c} for q, c in zip(quad, cubic)), Rect(-1, 1, -1, 1))
    ts = np.linspace(0.0, 2 * math.pi, 37)
    ct, st = np.cos(ts), np.sin(ts)
    A, B, C = (q[(2, 0)] * ct * ct + q.get((1, 1), 0.0) * ct * st + q[(0, 2)] * st * st
               for q in quad)
    want = (A * ct * ct + 2 * B * ct * st + C * st * st,
            -A * ct * st + B * (ct * ct - st * st) + C * st * ct,
            A * st * st - 2 * B * ct * st + C * ct * ct)
    for got, w in zip(sg.blowup_radial_coeffs(fld, ts), want):
        assert np.max(np.abs(got - w)) <= 1e-13 * np.max(np.abs(w))


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
    fld = bde.extended_field_for(surf)
    polys = bde.trace_zero_set(lambda u, v: bde.discriminant(fld, u, v),
                               fld.domain, 192)
    pts = sg.find_folded_points(fld, polys, fld.domain, 192)
    assert pts, "no fold point located"
    origin_pts = [p for p in pts if math.hypot(*p) < 1e-6]
    assert origin_pts, pts
    rep = sg.classify_folded(fld, origin_pts[0])
    assert rep.kind in sg.FOLD_KINDS
    # a zero of the lifted field on the criminant is exactly a point where
    # the double direction is tangent to the discriminant
    for p in pts:
        poly = min(polys, key=lambda q: np.min(np.hypot(*(q - p).T)))
        k = int(np.argmin(np.hypot(*(poly - p).T)))
        t = poly[min(k + 1, len(poly) - 1)] - poly[max(k - 1, 0)]
        slope, chart_q = bde.double_root(fld.slots(p[0], p[1], 0))
        d = (float(slope), 1.0) if chart_q else (1.0, float(slope))
        assert abs(d[0] * t[1] - d[1] * t[0]) / math.hypot(*d) / math.hypot(*t) < 1e-2, p


# -- batched scans against the former per-vertex formulas ---------------------


def vertex_double_root(fld, u, v):
    """The former double-root rule of one vertex, on Python floats."""
    A, B, C = (float(x) for x in fld.coeff(u, v))
    if abs(C) >= abs(A):
        return (-B / C if C != 0 else 0.0), "p"
    return -B / A, "q"


def vertex_fold_signal(fld, poly):
    """The fold scan vertex by vertex: the third lifted component, its sign
    flipped wherever the double direction turns by more than a right angle
    from the last vertex with a finite value."""
    out, last, sign = [], None, 1.0
    for u, v in poly:
        slope, chart = vertex_double_root(fld, u, v)
        x3 = float(bde.lie_cartan_scaled(fld, u, v, slope, chart == "q")[0][2])
        d = (1.0, slope) if chart == "p" else (slope, 1.0)
        if math.isfinite(x3) and all(map(math.isfinite, d)):
            if last is not None and d[0] * last[0] + d[1] * last[1] < 0:
                sign = -sign
            last = d
        out.append(sign * x3)
    return np.array(out)


def edge_crossings(poly, vals):
    """The former edge loop: per crossed edge, the interpolated point."""
    out = []
    for k in range(len(poly) - 1):
        a, b = vals[k], vals[k + 1]
        if not (np.isfinite(a) and np.isfinite(b)) or a * b > 0:
            continue
        t = 0.5 if a == b else abs(a) / (abs(a) + abs(b))
        out.append((1 - t) * poly[k] + t * poly[k + 1])
    return out


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


FILE_CHART = sf.parametric_surface(
    ["u", "v", "0.5*u^2-0.5*v^2+0.3*u^3+0.2*u*v^2+0.1*u^4"], Rect(-0.5, 0.5, -0.5, 0.5))


def scan_cases():
    """(label, field, polylines) triples: the cusp field's discriminant, the
    torus parabolic circles on the Euclidean field and the generic parametric
    chart's discriminant, with the other nonempty sets of those surfaces."""
    cusp = sf.catalog_surface("cusp_gauss", {"q21": 1.0, "q40": 0.1})
    tor = sf.catalog_surface("torus", {"R": 2, "r": 1})
    cases = []
    for surf, res, label in ((cusp, 96, "extended"), (tor, 64, "torus-extended"),
                             (FILE_CHART, 48, "extended")):
        fld, euclid = bde.extended_field_for(surf), bde.euclidean_field_for(surf)
        sets = sg.singular_sets(euclid, fld, surf.domain, res)
        cases.append((label, fld, sets["affine_parabolic"] + sets["discriminant"]))
        cases.append(("euclid-II", euclid, sets["parabolic"]))
    return [case for case in cases if case[2]]


def test_batched_signals_equal_the_vertex_formulas():
    cases = scan_cases()
    assert [(label, len(polys)) for label, _, polys in cases] == [
        ("extended", 1), ("euclid-II", 1), ("torus-extended", 4), ("euclid-II", 2),
        ("extended", 2)]
    for label, fld, polys in cases:
        for poly in polys:
            s, ref = sg._fold_signal(fld, poly)[0], vertex_fold_signal(fld, poly)
            assert same_bits(s, ref), label
            loc = sg._sign_changes(poly, s)
            crossings = edge_crossings(poly, ref)
            assert len(loc) == len(crossings)
            for k, point in enumerate(crossings):
                assert same_bits(loc[k], point)


def test_the_catalog_torus_gets_the_closed_form_field():
    tor = sf.catalog_surface("torus", {"R": 2, "r": 1})
    rng = np.random.default_rng(5)
    d = tor.domain
    U, V = rng.uniform(d.u0, d.u1, 8), rng.uniform(d.v0, d.v1, 8)
    fld, closed = bde.extended_field_for(tor), bde.torus_extended_field(tor)
    chart = bde.extended_field_for(sf.parametric_surface(
        ["(2+cos(u))*cos(v)", "(2+cos(u))*sin(v)", "sin(u)"], d))
    for k in range(3):
        got = np.asarray(fld.slots(U, V, k))
        assert same_bits(got, closed.slots(U, V, k))
        assert not same_bits(got, chart.slots(U, V, k))


def test_euclid_field_values_equal_the_second_form():
    rng = np.random.default_rng(3)
    monge = sf.monge_surface("sin(u)*cos(v)+0.1*exp(u)+u^3", Rect(-0.5, 0.5, -0.5, 0.5))
    torus = sf.catalog_surface("torus", {"R": 2, "r": 1})
    for surf in (monge, torus, FILE_CHART):
        fld = bde.euclidean_field_for(surf)
        d = surf.domain
        U, V = rng.uniform(d.u0, d.u1, 40), rng.uniform(d.v0, d.v1, 40)
        for u, v in ((float(U[0]), float(V[0])), (U, V)):
            _, _, lmn = af.second_form_jets(surf.eval_jets(u, v, order=2))
            ref = tuple(c.value for c in lmn)
            assert all(same_bits(got, want) for got, want in zip(fld.slots(u, v, 0), ref))
            if surf is monge:
                # on a graph (u, v, h), L, M, N are the height Hessian
                hj = surf.eval_jets(u, v, order=2)[2]
                hess = (hj.partial(2, 0), hj.partial(1, 1), hj.partial(0, 2))
                assert all(same_bits(got, want) for got, want in zip(fld.slots(u, v, 0), hess))
        # jets of every order: the value slots stay, the u-slope matches a
        # central difference
        c0, c1 = fld.slots(U, V, 0), fld.slots(U, V, 1)
        assert same_bits(c1[::3], c0)
        h = 1e-6
        fd = (fld.slots(U + h, V, 0) - fld.slots(U - h, V, 0)) / (2 * h)
        assert np.allclose(c1[1::3], fd, rtol=1e-6, atol=1e-6)


def fold_test_field():
    # five fold candidates on one discriminant component
    eps, sigma, q13, q32, q50 = 1, 1.0, 0.4, 0.6, 0.2
    q40 = (6 * sigma ** 3 + q50 + eps * q32) / (6 * sigma)
    surf = sf.catalog_surface("pick", {
        "epsilon": eps, "sigma": sigma,
        "q": {(1, 3): q13, (3, 1): -eps * q13,
              (2, 2): -eps * (-2 * sigma ** 2 + q40), (4, 0): q40,
              (3, 2): q32, (5, 0): q50, (0, 4): q40 + 0.7}},
        domain=Rect(-0.3, 0.3, -0.3, 0.3))
    fld = bde.extended_field_for(surf)
    return fld, bde.trace_zero_set(lambda u, v: bde.discriminant(fld, u, v), fld.domain, 64)


def test_a_vertex_that_raises_gives_nan_and_keeps_the_other_folds():
    base, polys = fold_test_field()
    (poly,) = polys
    healthy = sg._fold_signal(base, poly)[0]
    want = sg.find_folded_points(base, polys, base.domain, 64)
    assert len(want) >= 3
    # the vertex with the largest signal whose two edges cross no zero
    crossed = np.zeros(len(poly), dtype=bool)
    edges = ~(healthy[:-1] * healthy[1:] > 0)
    crossed[:-1] |= edges
    crossed[1:] |= edges
    k = int(np.argmax(np.where(crossed, 0.0, np.abs(healthy))))
    bad = poly[k]

    def slots(u, v, order):
        if np.any((np.asarray(u) == bad[0]) & (np.asarray(v) == bad[1])):
            raise ArithmeticError("no value at this vertex")
        return base.slots(u, v, order)

    broken = bde.BDEField(slots, base.domain)
    s = sg._fold_signal(broken, poly)[0]
    assert np.isnan(s[k])
    others = np.arange(len(poly)) != k
    assert same_bits(s[others], healthy[others])
    assert sg.find_folded_points(broken, polys, base.domain, 64) == want


def counted(fld):
    """The field with its ``slots`` calls recorded (their point counts)."""
    calls = []

    def slots(u, v, order):
        calls.append(int(np.size(u)))
        return fld.slots(u, v, order)

    return bde.BDEField(slots, fld.domain, fld.period), calls


def test_one_slots_call_per_polyline(monkeypatch):
    base, polys = fold_test_field()
    cusp = bde.extended_field_for(sf.catalog_surface("cusp_gauss", {"q21": 1.0, "q40": 0.1}))
    polys = polys + bde.trace_zero_set(lambda u, v: bde.discriminant(cusp, u, v),
                                       base.domain, 48)
    fld, calls = counted(base)

    def no_fold(fld, u, v):
        raise ArithmeticError("does not converge in 25 steps")

    monkeypatch.setattr(sg, "_newton_fold", no_fold)
    assert sg.find_folded_points(fld, polys, base.domain, 64) == []
    assert calls == [len(p) for p in polys if len(p) >= 2]


def test_one_slots_call_per_classification_and_per_start():
    fld, calls = counted(bde.folded_model_field(-1.0))
    assert sg.classify_folded(fld, (0.0, 0.0)).kind == "folded_saddle"
    assert calls == [1]
    for eps1, lifted in ((1, 3), (-1, 1)):
        fld, calls = counted(bde.morse_model_field(eps1))
        rep = sg.classify_flat_affine_umbilic(fld, (0.0, 0.0))
        assert rep.details["lifted_singularities"] == lifted
        assert calls == [1]
    # the starts of all jobs of one integrate_many call
    fld, calls = counted(bde.folded_model_field(-1.0))
    jobs = [(seed, family, sweep) for seed in ((0.3, 0.5), (0.1, -0.5), (0.0, 0.0))
            for family in ("plus", "minus") for sweep in (1, -1)]
    job, _, errors = flow._start(fld, jobs)
    assert calls == [len(jobs)]
    assert len(job) == 8 and sum(e is not None for e in errors) == 4


# -- one fold search for both nets ---------------------------------------------


def portrait_reports(monkeypatch, surf, resolution):
    """A surface portrait's reports and dropped reports, without integration."""
    monkeypatch.setattr(flow, "integrate_many", lambda *args: [])
    p = flow.build_portrait(surf, grid=(1, 1), trace_resolution=resolution)
    return p.reports, p.integration.dropped_reports


PICK = {"epsilon": 1, "sigma": 0.9, "q": {(4, 0): 0.5, (0, 4): 1.5, (2, 2): 1.12}}

# charts symmetric under v -> -v, with a trace resolution
SYMMETRIC = {
    "pick": (lambda: sf.catalog_surface("pick", PICK), 192),
    "monge-poly": (lambda: sf.monge_surface("u^3 - u*v^2 + 0.2*v^4",
                                            Rect(-0.5, 0.5, -0.5, 0.5)), 192),
    "transcendental": (lambda: sf.monge_surface("sin(u)*cos(v)+0.1*exp(u)"), 48),
}


@pytest.mark.parametrize("name", SYMMETRIC)
def test_fold_reports_are_mirrored_and_do_not_depend_on_the_trace(name, monkeypatch):
    # every fold-derived report lies in the region and has a mirror partner;
    # a parabolic_meeting is sampled at trace vertices and is not held to these
    make, res = SYMMETRIC[name]
    surf = make()
    runs = []
    for r in (res, 2 * res):
        reps, _ = portrait_reports(monkeypatch, surf, r)
        folds = [rep for rep in reps if rep.kind != "parabolic_meeting"]
        assert folds
        for rep in folds:
            u, v = rep.location
            assert surf.domain.contains(u, v)
            assert any(m.kind == rep.kind and math.hypot(m.location[0] - u, m.location[1] + v)
                       < 1e-6 for m in folds), rep
        # no two reports of one field (Euclidean or extended) coincide
        for euclidean in (True, False):
            same_field = [rep for rep in folds if (rep.kind == "cusp_of_gauss") == euclidean]
            for a, b in itertools.combinations(same_field, 2):
                assert math.dist(a.location, b.location) > 1e-6
        runs.append(folds)
    coarse, fine = runs
    assert sorted(r.kind for r in coarse) == sorted(r.kind for r in fine)
    for rep in coarse:
        assert any(m.kind == rep.kind and math.dist(m.location, rep.location) < 1e-8
                   for m in fine), rep


@pytest.mark.parametrize("cat_id,params,point", [
    ("pick", PICK, (-0.3601, -0.1065)),
    ("cusp_gauss", {"q21": 1.0, "q40": 0.1}, (-0.313, 0.451)),
    ("cusp_gauss", {"q21": 1.3, "q40": -0.3}, (-0.071, 0.091)),
    ("cusp_gauss", {"q21": 0.9, "q40": 0.35}, (0.182, -0.199)),
    ("cusp_gauss", {"q21": 0.85, "q40": -0.2}, (-0.085, 0.107)),
])
def test_no_report_at_a_slope_chart_switch(cat_id, params, point, monkeypatch):
    # the double direction's slope passes +-1 at these points, where the
    # slope chart switches; the fold signal keeps its sign there, so no
    # Newton search starts at them
    reps, dropped = portrait_reports(monkeypatch, sf.catalog_surface(cat_id, params), 192)
    assert all(math.dist(r.location, point) > 1e-2 for r in reps)
    assert dropped == []
    if cat_id == "cusp_gauss":
        kinds = {r.kind for r in reps if math.hypot(*r.location) < 1e-9}
        assert {"cusp_of_gauss", "folded_saddle"} <= kinds
    else:
        # nor does one end at pick's fold outside the region
        assert all(math.dist(r.location, (-1.0242, -0.2400)) > 1e-2 for r in reps)


def test_a_far_newton_result_is_dropped_and_counted(monkeypatch):
    fld = bde.folded_model_field(-1.0)
    polys = bde.trace_zero_set(lambda u, v: bde.discriminant(fld, u, v), fld.domain, 96)
    seeds = np.vstack([sg._sign_changes(p, sg._fold_signal(fld, p)[0]) for p in polys])
    assert len(seeds)
    cell = 2 / 96
    for shift, where in ((2.9 * cell, None), (3.1 * cell, "from its seed"),
                         (1.5, "outside the region")):
        monkeypatch.setattr(sg, "_newton_fold", lambda fld, u, v: (u + shift, v))
        dropped = []
        pts = sg.find_folded_points(fld, polys, fld.domain, 96,
                                    drop=lambda *args: dropped.append(args))
        if where is None:
            assert pts and not dropped
            continue
        assert pts == []
        assert [(stage, loc) for stage, _, loc in dropped] == [
            ("find_folded_points", (u + shift, v)) for u, v in seeds]
        assert all(str(exc).endswith(where) for _, exc, _ in dropped)
    monkeypatch.setattr(flow, "integrate_many", lambda *args: [])
    p = flow.build_portrait(fld, grid=(1, 1), trace_resolution=96)
    assert p.reports == []
    assert [r["location"] for r in p.integration.dropped_reports] == [[u + 1.5, v]
                                                                      for u, v in seeds]
    assert all(r["stage"] == "find_folded_points" and r["reason"].startswith("ArithmeticError")
               for r in p.integration.dropped_reports)


def test_a_newton_polish_that_fails_is_dropped_and_counted():
    # the extended discriminant of the flat umbilic chart (epsilon = 1) has
    # a sign change of the fold signal at the umbilic itself, where the
    # Newton polish does not converge: one drop, at the seed
    surf = sf.catalog_surface("flat_umbilic_chart", {"epsilon": 1})
    fld, euclid = bde.extended_field_for(surf), bde.euclidean_field_for(surf)
    sets = sg.singular_sets(euclid, fld, surf.domain, 192)
    dropped = []
    sg.find_folded_points(fld, sets["affine_parabolic"] + sets["discriminant"], surf.domain, 192,
                          drop=lambda *args: dropped.append(args))
    assert len(dropped) == 1
    stage, exc, loc = dropped[0]
    assert stage == "find_folded_points" and type(exc) is ArithmeticError
    assert str(exc).startswith("Newton from (")
    assert math.hypot(*loc) < 1e-12


@pytest.mark.parametrize("model", [lambda: bde.folded_model_field(-1.0),
                                   lambda: bde.folded_model_field(1.0),
                                   lambda: bde.morse_model_field(-1)],
                         ids=["folded-saddle", "folded-focus", "morse-crossing"])
def test_singular_sets_of_a_field_alone_is_its_discriminant(model):
    fld = model()
    sets = sg.singular_sets(None, fld, fld.domain, 64)
    ref = bde.trace_zero_set(lambda u, v: bde.discriminant(fld, u, v), fld.domain, 64)
    assert list(sets) == ["discriminant"] and sets["discriminant"]
    assert len(sets["discriminant"]) == len(ref)
    assert all(np.array_equal(a, b) for a, b in zip(sets["discriminant"], ref))


def test_fold_reports_drops_a_fold_that_does_not_classify(monkeypatch):
    # on the cusp chart's extended discriminant and its parabolic set (the
    # Euclidean field), a fold whose classification fails becomes one
    # classify_folded drop; the other folds are reported as before
    surf = sf.catalog_surface("cusp_gauss", {"q21": 1.0, "q40": 0.1})
    fld, euclid = bde.extended_field_for(surf), bde.euclidean_field_for(surf)
    sets = sg.singular_sets(euclid, fld, surf.domain, 96)
    classify = sg.classify_folded
    for field_, polys in ((fld, sets["affine_parabolic"] + sets["discriminant"]),
                          (euclid, sets["parabolic"])):
        pts = sg.find_folded_points(field_, polys, surf.domain, 96)
        assert pts
        fail = pts[0]
        # any ArithmeticError of the classification is a drop: a fold whose
        # lifted field does not vanish, or one whose e2 overflows
        for error in (sg.NotSingularLiftError, FloatingPointError):

            def failing(f, pt):
                if pt == fail:
                    raise error(f"cannot classify {pt}")
                return classify(f, pt)

            monkeypatch.setattr(sg, "classify_folded", failing)
            dropped = []
            reps = sg.fold_reports(field_, polys, surf.domain, 96,
                                   lambda *args: dropped.append(args))
            monkeypatch.setattr(sg, "classify_folded", classify)
            assert [r.location for r in reps] == pts[1:]
            assert [(stage, loc) for stage, _, loc in dropped] == [("classify_folded", fail)]
            assert isinstance(dropped[0][1], error)
