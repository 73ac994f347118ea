import math

import numpy as np
import pytest

from affasym import affine as af, bde, surface as sf
from affasym.affine import ParabolicPointError
from affasym.jets import Jet2
from affasym.surface import Rect


def torus(R=3.0, r=1.0):
    return sf.catalog_surface("torus", {"R": R, "r": r})


def pick(eps=1, sigma=0.0, **q):
    qd = {(int(k[1]), int(k[2])): float(v) for k, v in q.items()}
    return sf.catalog_surface("pick", {"epsilon": eps, "sigma": sigma, "q": qd})


def monge_extended(surf, u, v):
    """(A, B, C) at a point of a Monge chart from ``extended_bde_coeffs`` of
    its normal (-h_u, -h_v, 1), and D = h_uu h_vv - h_uv^2 there."""
    hj = surf.eval_jets(u, v)[2]
    w = (-hj.du(), -hj.dv(), Jet2.constant(1.0, 3))
    hd = float(hj.partial(2, 0)) * float(hj.partial(0, 2)) - float(hj.partial(1, 1)) ** 2
    return tuple(float(c) for c in af.extended_bde_coeffs(w)), hd


def closed_lmn(surf, u, v):
    """(l, m, n) = (A, B, C) / (16 D^2) on a Monge chart."""
    (A, B, C), hd = monge_extended(surf, u, v)
    f = 16.0 * hd * hd
    return A / f, B / f, C / f


def test_torus_curvature_oracle():
    # classical closed form K = cos u / (r (R + r cos u))
    R, r = 3.0, 1.0
    surf = torus(R, r)
    rng = np.random.default_rng(0)
    for _ in range(20):
        u, v = rng.uniform(0, 2 * math.pi, 2)
        d = af.euclidean_data(surf.eval_jets(u, v, order=2))
        expected = math.cos(u) / (r * (R + r * math.cos(u)))
        assert float(d.K) == pytest.approx(expected, abs=1e-10)
    d = af.euclidean_data(surf.eval_jets(0.0, 0.0))
    assert float(d.K) == pytest.approx(0.25, abs=1e-12)
    assert d.euclid_class == "elliptic"


def test_torus_parabolic_classification():
    d = af.euclidean_data(torus().eval_jets(math.pi / 2, 0.3, order=2))
    assert abs(float(d.K)) < 1e-12
    assert d.euclid_class == "parabolic"


def test_pick_quadric_determinant_forms():
    surf = pick(eps=1, sigma=0.0)
    d = af.euclidean_data(surf.eval_jets(0.0, 0.0))
    assert float(d.Ldet) == 1.0 and float(d.Ndet) == 1.0 and float(d.Mdet) == 0.0
    assert float(d.K) == 1.0
    assert d.euclid_class == "elliptic"


def test_quadric_frame():
    surf = sf.monge_surface("(u^2 + v^2)/2")
    d = af.affine_point_data(surf, 0.0, 0.0)
    assert d.nu.ravel() == pytest.approx([0.0, 0.0, 1.0], abs=1e-14)
    assert d.xi.ravel() == pytest.approx([0.0, 0.0, 1.0], abs=1e-14)


def test_frame_defining_relations_torus():
    surf = torus()
    rng = np.random.default_rng(1)
    count = 0
    while count < 100:
        u, v = rng.uniform(0, 2 * math.pi, 2)
        if min(abs(u - math.pi / 2), abs(u - 3 * math.pi / 2)) < 0.05:
            continue
        count += 1
        d = af.affine_point_data(surf, u, v)
        assert float(np.sum(d.nu * d.xi)) == pytest.approx(1.0, abs=1e-8)
        assert float(np.sum(d.xi * d.nu_u)) == pytest.approx(0.0, abs=1e-8)
        assert float(np.sum(d.xi * d.nu_v)) == pytest.approx(0.0, abs=1e-8)


def test_torus_conormal_value():
    R, r = 3.0, 1.0
    d = af.affine_point_data(torus(R, r), 0.0, 0.0)
    nu = d.nu.ravel()
    assert nu[1] == pytest.approx(0.0, abs=1e-14)
    assert nu[2] == pytest.approx(0.0, abs=1e-14)
    assert nu[0] < 0
    assert np.linalg.norm(nu) == pytest.approx((r * (R + r)) ** 0.25, rel=1e-12)


@pytest.mark.parametrize("surf,pts", [
    (torus(), [(0.3, 0.2), (2.2, 1.0), (4.0, 5.0)]),
    (pick(eps=1, sigma=0.7, q40=1.0, q31=-0.5, q22=0.3), [(0.1, 0.05), (-0.2, 0.15)]),
    (pick(eps=-1, sigma=0.4, q13=1.0, q04=-0.8), [(0.1, -0.1), (0.05, 0.2)]),
])
def test_shape_operator_relations(surf, pts):
    for (u, v) in pts:
        d = af.affine_point_data(surf, u, v)
        scale = max(abs(d.l), abs(d.m), abs(d.n), 1.0)
        assert float(-d.l - (d.b11 * d.g11 + d.b21 * d.g12)) == pytest.approx(0, abs=1e-8 * scale)
        assert float(-d.m - (d.b11 * d.g12 + d.b21 * d.g22)) == pytest.approx(0, abs=1e-8 * scale)
        assert float(-d.n - (d.b12 * d.g12 + d.b22 * d.g22)) == pytest.approx(0, abs=1e-8 * scale)
        det_g = d.g11 * d.g22 - d.g12 ** 2
        assert float(d.K_aff) == pytest.approx(float((d.l * d.n - d.m ** 2) / det_g), rel=1e-8)
        assert float(d.H_aff) == pytest.approx(
            float((d.l * d.g22 - 2 * d.m * d.g12 + d.n * d.g11) / det_g), rel=1e-8)
        assert float(d.K_aff) == pytest.approx(float(d.b11 * d.b22 - d.b12 * d.b21), rel=1e-8)
        # xi derivatives are tangent with shape-operator coordinates
        for (xid, brow) in ((d.xi_u, (d.b11, d.b21)), (d.xi_v, (d.b12, d.b22))):
            res = xid - (brow[0] * d.alpha_u + brow[1] * d.alpha_v)
            assert float(np.max(np.abs(res))) < 1e-7 * max(1.0, float(np.max(np.abs(xid))))


def test_pick_third_form_constants():
    # l(0,0) = -sigma^2/2 + q40/4 + q22/4 with eps = +1
    surf = pick(eps=1, sigma=1.0, q40=2.0, q22=2.0)
    d = af.affine_point_data(surf, 0.0, 0.0)
    assert float(d.l) == pytest.approx(0.5, abs=1e-12)
    # m(0,0) = (q31 + eps q13)/4
    surf = pick(eps=1, sigma=0.0, q31=4.0)
    d = af.affine_point_data(surf, 0.0, 0.0)
    assert float(d.m) == pytest.approx(1.0, abs=1e-12)


def test_flat_affine_umbilic_conditions():
    # q31 = -eps q13, q40 = q04, q22 = -eps(-2 sigma^2 + q40) kill l, m, n
    rng = np.random.default_rng(4)
    for eps in (1, -1):
        for _ in range(5):
            sigma = float(rng.uniform(-1.5, 1.5))
            q13 = float(rng.uniform(-2, 2))
            q40 = float(rng.uniform(-2, 2))
            surf = pick(eps=eps, sigma=sigma)
            surf = sf.catalog_surface("pick", {
                "epsilon": eps, "sigma": sigma,
                "q": {(1, 3): q13, (3, 1): -eps * q13, (4, 0): q40, (0, 4): q40,
                      (2, 2): -eps * (-2 * sigma ** 2 + q40)}})
            d = af.affine_point_data(surf, 0.0, 0.0)
            assert max(abs(float(d.l)), abs(float(d.m)), abs(float(d.n))) < 1e-10


def test_closed_form_matches_frame_pipeline():
    surf = pick(eps=1, sigma=1.0, q40=1.0)
    d = af.affine_point_data(surf, 0.1, 0.2)
    lc, mc, nc = closed_lmn(surf, 0.1, 0.2)
    assert float(d.l) == pytest.approx(float(lc), rel=1e-8)
    assert float(d.m) == pytest.approx(float(mc), rel=1e-8, abs=1e-12)
    assert float(d.n) == pytest.approx(float(nc), rel=1e-8)


def test_closed_form_matches_pipeline_hyperbolic_region():
    # same agreement on the other side of the parabolic set, all slots
    surf = sf.monge_surface("(u^2 - v^2)/2 + u^3/6 + u*v^2/2 "
                            "+ 0.1*u^4 + 0.2*u^3*v + 0.15*u*v^3 + 0.05*v^4")
    for (u, v) in [(0.05, 0.03), (-0.1, 0.07)]:
        d = af.affine_point_data(surf, u, v)
        lc, mc, nc = closed_lmn(surf, u, v)
        assert float(d.l) == pytest.approx(float(lc), rel=1e-8, abs=1e-12)
        assert float(d.m) == pytest.approx(float(mc), rel=1e-8, abs=1e-12)
        assert float(d.n) == pytest.approx(float(nc), rel=1e-8, abs=1e-12)


def test_saddle_quadric_flat():
    surf = sf.monge_surface("(u^2 - v^2)/2")
    rng = np.random.default_rng(2)
    for _ in range(6):
        u, v = rng.uniform(-0.8, 0.8, 2)
        l, m, n = closed_lmn(surf, u, v)
        assert max(abs(float(l)), abs(float(m)), abs(float(n))) < 1e-14


def test_torus_chart_independence():
    # outer torus patch as a height graph over (y, z) after the cyclic axis
    # permutation (x,y,z) -> (y,z,x), an equiaffine map; the third form pulled
    # back through the chart change must match the parametric pipeline
    R, r = 3.0, 1.0
    par = torus(R, r)
    graph = sf.monge_surface(f"sqrt(({R} + sqrt({r}^2 - v^2))^2 - u^2)",
                             Rect(-2.0, 2.0, -0.9, 0.9))
    u_t, v_t = 0.4, 0.3
    d_par = af.affine_point_data(par, u_t, v_t)
    y = (R + r * math.cos(u_t)) * math.sin(v_t)
    z = r * math.sin(u_t)
    d_mon = af.affine_point_data(graph, y, z)
    J = np.array([
        [-r * math.sin(u_t) * math.sin(v_t), (R + r * math.cos(u_t)) * math.cos(v_t)],
        [r * math.cos(u_t), 0.0],
    ])
    M_mon = np.array([[float(d_mon.l), float(d_mon.m)], [float(d_mon.m), float(d_mon.n)]])
    M_pull = J.T @ M_mon @ J
    M_par = np.array([[float(d_par.l), float(d_par.m)], [float(d_par.m), float(d_par.n)]])
    assert np.max(np.abs(M_pull - M_par)) < 1e-7 * max(1.0, np.max(np.abs(M_par)))


def test_extended_coeffs_cusp_origin():
    surf = sf.catalog_surface("cusp_gauss", {"q21": 1.5, "q40": 0.3, "q03": 0.2})
    A, B, C = bde.extended_field_for(surf).coeff(0.0, 0.0)
    assert float(A) == 0.0 and float(B) == 0.0
    assert float(C) == pytest.approx(-48 * 1.5 ** 2, rel=1e-15)


def test_extended_coeffs_positive_multiple():
    surf = pick(eps=1, sigma=0.8, q40=1.0, q13=0.5)
    for (u, v) in [(0.12, -0.08), (0.3, 0.2)]:
        (A, B, C), hd = monge_extended(surf, u, v)
        d = af.affine_point_data(surf, u, v)
        l, m, n = float(d.l), float(d.m), float(d.n)
        factor = 16.0 * hd * hd
        assert factor > 0
        assert A == pytest.approx(factor * l, rel=1e-6, abs=1e-12)
        assert B == pytest.approx(factor * m, rel=1e-6, abs=1e-12)
        assert C == pytest.approx(factor * n, rel=1e-6, abs=1e-12)
    # hyperbolic side too
    surf = pick(eps=-1, sigma=0.8, q40=1.0, q13=0.5)
    (A, B, C), hd = monge_extended(surf, 0.1, 0.05)
    d = af.affine_point_data(surf, 0.1, 0.05)
    l, m, n = float(d.l), float(d.m), float(d.n)
    assert A == pytest.approx(16 * hd * hd * l, rel=1e-6, abs=1e-12)
    assert B == pytest.approx(16 * hd * hd * m, rel=1e-6, abs=1e-12)


def test_extended_coeffs_closed_on_parabolic_set():
    # defined (finite) on the parabolic set, where l, m, n themselves blow up
    surf = sf.catalog_surface("cusp_gauss", {"q21": 1.0, "q40": 0.0})
    A, B, C = monge_extended(surf, 0.05, 0.0)[0]  # near/on the parabolic curve
    assert all(np.isfinite(float(x)) for x in (A, B, C))
    assert all(np.isfinite(monge_extended(surf, 0.0, 0.0)[0]))
    with pytest.raises(ParabolicPointError):
        af.affine_point_data(surf, 0.0, 0.0)


def test_flat_umbilic_discriminant_quartics():
    # catalog chart u^3 + 3 eps u v^2: delta = -322486272 eps (u^2 - eps v^2)^2
    rng = np.random.default_rng(3)
    for eps in (1, -1):
        surf = sf.catalog_surface("flat_umbilic_chart", {"epsilon": eps})
        pts = rng.uniform(-0.2, 0.2, size=(40, 2))
        deltas = []
        shapes = []
        for (u, v) in pts:
            A, B, C = monge_extended(surf, u, v)[0]
            deltas.append(B * B - A * C)
            shapes.append(eps * (u * u - eps * v * v) ** 2)
        deltas, shapes = np.array(deltas), np.array(shapes)
        coef = float(deltas @ shapes / (shapes @ shapes))
        assert coef == pytest.approx(-322486272.0, rel=1e-9)
        assert np.linalg.norm(deltas - coef * shapes) < 1e-9 * np.linalg.norm(deltas)


def test_torus_extended_closed_forms():
    lb, mb, nb = af.torus_extended_bde(3.0, 1.0, math.pi / 2)
    assert float(lb) == pytest.approx(-27.0, abs=1e-12)  # -3 R^2
    assert float(mb) == 0.0
    assert float(nb) == pytest.approx(0.0, abs=1e-12)
    lb, mb, nb = af.torus_extended_bde(2.0, 1.0, 0.0)
    assert float(lb) == pytest.approx(120.0, abs=1e-12)
    assert float(nb) == pytest.approx(144.0, abs=1e-12)


def test_torus_extended_proportional_to_pipeline():
    R, r = 3.0, 1.0
    surf = torus(R, r)
    for u in (0.3, 2.0, 4.5):
        d = af.affine_point_data(surf, u, 0.7)
        trip = np.array([float(d.l), float(d.m), float(d.n)])
        closed = np.array([float(x) for x in af.torus_extended_bde(R, r, u)])
        t = float(trip @ closed / (closed @ closed))
        assert t > 0
        assert np.linalg.norm(trip - t * closed) < 1e-9 * np.linalg.norm(trip)


def test_lmn_from_frame_matches_point_data():
    for surf, (u, v) in ((torus(), (0.3, 0.7)), (pick(1, 0.5, q40=0.7), (0.1, -0.2))):
        fr = af.frame_jets(surf, u, v, order=5)
        lmn = af.lmn_from_frame(fr)
        assert all(c.order == 1 for c in lmn)
        d = af.affine_point_data(surf, u, v)
        got = [float(c.value) for c in lmn]
        assert got == pytest.approx([float(d.l), float(d.m), float(d.n)], rel=1e-12, abs=1e-14)


def _batch_cases():
    rng = np.random.default_rng(21)
    tor = torus()
    tu, tv = rng.uniform(0, 2 * math.pi, (2, 200))
    keep = ~np.any([b.excludes(tu, tv) for b in tor.excluded], axis=0)
    small = rng.uniform(-0.3, 0.3, (2, 40))
    return [
        (tor, tu[keep][:40], tv[keep][:40]),
        (pick(eps=1, sigma=0.7, q40=1.0, q31=-0.5, q22=0.3), *small),
        (sf.monge_surface("(u^2 + 2*v^2)/(2 + u*v) + u^3/3"), *small),
        (sf.monge_surface("0.5*u^2 + v^2 + 0.3*sin(u) + exp(0.2*v)"), *small),
        (sf.parametric_surface(["u + 0.2*v^2", "v + 0.1*sin(u)", "exp(u) + log(2 + v)"],
                               Rect(-0.5, 0.5, -0.5, 0.5)), *small),
    ]


@pytest.mark.parametrize("surf,us,vs", _batch_cases())
def test_point_data_batch_matches_single_points(surf, us, vs):
    # a point gives the same bits alone as inside one batched call
    batch = af.affine_point_data(surf, us, vs)
    for k, (u, v) in enumerate(zip(us, vs)):
        one = af.affine_point_data(surf, float(u), float(v))
        for name in af.AffinePointData.FIELDS:
            a, b = getattr(one, name), getattr(batch, name)
            b = b[k] if np.ndim(b) == 1 else b[:, k]
            assert np.array_equal(a, b), (name, u, v)


def test_point_data_evaluates_position_jets_once(monkeypatch):
    calls = []
    eval_jets = sf.SurfaceDef.eval_jets

    def counting(self, *args, **kwargs):
        calls.append(args)
        return eval_jets(self, *args, **kwargs)

    monkeypatch.setattr(sf.SurfaceDef, "eval_jets", counting)
    af.affine_point_data(torus(), 0.3, 0.7)
    assert len(calls) == 1
    af.affine_point_data(pick(1, 0.5, q40=0.7), np.array([0.1, -0.2]), np.array([0.0, 0.1]))
    assert len(calls) == 2


def test_parabolic_error_names_first_batch_point():
    # h = (u^3 + v^3)/6 has LN - M^2 = uv: parabolic along both axes
    surf = sf.monge_surface("(u^3 + v^3)/6")
    us = np.array([0.2, -0.1, 0.0, 0.3])
    vs = np.array([0.1, 0.0, -0.2, 0.0])
    with pytest.raises(ParabolicPointError) as err:
        af.affine_point_data(surf, us, vs)
    assert err.value.point == (-0.1, 0.0)
    with pytest.raises(ParabolicPointError) as err:
        af.affine_point_data(surf, 0.3, 0.0)
    assert err.value.point == (0.3, 0.0)


def test_third_form_derivative_identity():
    # III(w) = -I_aff(w, D_w xi) with the shape-operator coordinates of D_w xi
    rng = np.random.default_rng(9)
    surf = torus()
    checked = 0
    while checked < 25:
        u, v = rng.uniform(0, 2 * math.pi, 2)
        if min(abs(u - math.pi / 2), abs(u - 3 * math.pi / 2)) < 0.1:
            continue
        checked += 1
        d = af.affine_point_data(surf, u, v)
        a, b = rng.uniform(-1, 1, 2)
        III = float(d.l * a * a + 2 * d.m * a * b + d.n * b * b)
        ap = a * float(d.b11) + b * float(d.b12)
        bp = a * float(d.b21) + b * float(d.b22)
        I_mixed = float(d.g11 * a * ap + d.g12 * (a * bp + ap * b) + d.g22 * b * bp)
        assert III == pytest.approx(-I_mixed, rel=1e-7, abs=1e-9)
    surf2 = pick(eps=-1, sigma=0.6, q40=0.5, q13=0.4)
    for _ in range(25):
        u, v = rng.uniform(-0.2, 0.2, 2)
        d = af.affine_point_data(surf2, u, v)
        a, b = rng.uniform(-1, 1, 2)
        III = float(d.l * a * a + 2 * d.m * a * b + d.n * b * b)
        ap = a * float(d.b11) + b * float(d.b12)
        bp = a * float(d.b21) + b * float(d.b22)
        I_mixed = float(d.g11 * a * ap + d.g12 * (a * bp + ap * b) + d.g22 * b * bp)
        assert III == pytest.approx(-I_mixed, rel=1e-7, abs=1e-9)


def test_region_containment_where_net_exists():
    # where two asymptotic directions exist: Euclidean-elliptic points are
    # affine hyperbolic/parabolic, Euclidean-hyperbolic are affine elliptic/
    # parabolic; the discriminant identity ties the two stratifications
    rng = np.random.default_rng(12)
    surf = torus()
    for _ in range(200):
        u, v = rng.uniform(0, 2 * math.pi, 2)
        if min(abs(u - math.pi / 2), abs(u - 3 * math.pi / 2)) < 0.05:
            continue
        d = af.affine_point_data(surf, u, v)
        disc = float(d.m ** 2 - d.l * d.n)
        det_g = float(d.g11 * d.g22 - d.g12 ** 2)
        # sign identity: m^2 - ln = -K_aff det g
        assert disc == pytest.approx(float(-d.K_aff * det_g), rel=1e-7, abs=1e-10)
        if disc > 1e-9:
            if d.euclid_class == "elliptic":
                assert float(d.K_aff) < 1e-9
            if d.euclid_class == "hyperbolic":
                assert float(d.K_aff) > -1e-9


def test_asymptotic_root_count():
    # two roots when m^2 - ln > 0, one double root at zero, none when negative
    from affasym import bde
    surf = torus(2.0, 1.0)
    fld = bde.torus_extended_field(torus(2.0, 1.0))
    kind, dirs = bde.direction_roots(fld.slots(1.4, 0.0, 0))   # inside a ring
    assert kind == "two" and not np.array_equal(dirs[0], dirs[1])
    kind, dirs = bde.direction_roots(fld.slots(0.2, 0.0, 0))   # outside
    assert kind == "none" and np.isnan(dirs).all()
    # the profile circle u = pi/2 carries the exactly-double direction (0, 1)
    kind, dirs = bde.direction_roots(fld.slots(math.pi / 2, 0.0, 0))
    assert kind == "double" and np.array_equal(dirs[0], dirs[1])
    assert dirs[0] == pytest.approx([0.0, 1.0], abs=1e-12)


def test_randomized_consistency_sweep():
    # random polynomial graphs, random points on both curvature sides:
    # closed forms, frame pipeline, shape relations, and curvature identities
    # all agree
    rng = np.random.default_rng(77)
    surfaces = 0
    points = 0
    while surfaces < 8:
        poly = {}
        poly[(2, 0)] = float(rng.choice([1.0, -1.0]) * rng.uniform(0.5, 1.5))
        poly[(0, 2)] = float(rng.choice([1.0, -1.0]) * rng.uniform(0.5, 1.5))
        poly[(1, 1)] = float(rng.uniform(-0.4, 0.4))
        for (i, j) in [(3, 0), (2, 1), (1, 2), (0, 3), (4, 0), (3, 1), (2, 2),
                       (1, 3), (0, 4)]:
            poly[(i, j)] = float(rng.uniform(-1, 1))
        surf = sf.monge_surface(poly, Rect(-1, 1, -1, 1))
        surfaces += 1
        tried = 0
        while tried < 6:
            u, v = (float(x) for x in rng.uniform(-0.4, 0.4, 2))
            hj = surf.eval_jets(u, v)[2]
            hd = float(hj.partial(2, 0)) * float(hj.partial(0, 2)) \
                - float(hj.partial(1, 1)) ** 2
            if abs(hd) < 0.05:
                continue
            tried += 1
            points += 1
            d = af.affine_point_data(surf, u, v)
            lc, mc, nc = closed_lmn(surf, u, v)
            scale = max(abs(lc), abs(mc), abs(nc), 1.0)
            assert abs(float(d.l) - lc) < 1e-8 * scale
            assert abs(float(d.m) - mc) < 1e-8 * scale
            assert abs(float(d.n) - nc) < 1e-8 * scale
            assert float(np.sum(d.nu * d.xi)) == pytest.approx(1.0, abs=1e-8)
            assert abs(float(-d.l - (d.b11 * d.g11 + d.b21 * d.g12))) < 1e-8 * scale
            assert abs(float(-d.n - (d.b12 * d.g12 + d.b22 * d.g22))) < 1e-8 * scale
            A, B, C = monge_extended(surf, u, v)[0]
            factor = 16.0 * hd * hd
            assert abs(A - factor * lc) < 1e-6 * max(1.0, abs(A))
            assert abs(B - factor * mc) < 1e-6 * max(1.0, abs(B), abs(A))
            assert abs(C - factor * nc) < 1e-6 * max(1.0, abs(C))
    assert points >= 48


# the non-polynomial parametric chart of tools/payload_hashes.py (file-nonpoly)
NONPOLY = sf.parametric_surface(["u + 0.1*sin(v)", "v", "0.5*u^2+v^2+0.2*u^3"],
                                Rect(-0.5, 0.5, -0.5, 0.5))


def counted_frame_jets(monkeypatch):
    """Lanes of each ``af.frame_jets`` call from here on."""
    calls = []
    frame_jets = af.frame_jets

    def counting(surf, u, v, **kwargs):
        calls.append(np.size(u))
        return frame_jets(surf, u, v, **kwargs)

    monkeypatch.setattr(af, "frame_jets", counting)
    return calls


@pytest.mark.parametrize("surf, lo, hi", [(torus(), (0.1, 0.0), (1.4, 6.2)),
                                          (NONPOLY, (-0.45, -0.45), (0.45, 0.45))],
                         ids=["torus", "file-nonpoly"])
def test_point_data_is_the_same_in_blocks_of_seven_lanes(monkeypatch, surf, lo, hi):
    us, vs = np.random.default_rng(18).uniform(lo, hi, (40, 2)).T
    calls = counted_frame_jets(monkeypatch)
    whole = af.affine_point_data(surf, us, vs)
    monkeypatch.setattr(af, "_LANES", 7)
    blocked = af.affine_point_data(surf, us, vs)
    # one call for the batch, then six blocks, the last one ragged
    assert calls == [40, 7, 7, 7, 7, 7, 5]
    for name in af.AffinePointData.FIELDS:
        a, b = getattr(whole, name), getattr(blocked, name)
        assert np.shape(a) == np.shape(b) and np.array_equal(a, b), name


def test_parabolic_error_names_first_batch_point_in_a_later_block(monkeypatch):
    # LN - M^2 = uv on h = (u^3 + v^3)/6; in blocks of 7 lanes the first
    # parabolic point is lane 16 (block 2) and the next is lane 22 (block 3)
    surf = sf.monge_surface("(u^3 + v^3)/6")
    us, vs = np.linspace(0.1, 0.4, 24), np.linspace(0.1, 0.3, 24)
    us[16] = vs[22] = 0.0
    monkeypatch.setattr(af, "_LANES", 7)
    with pytest.raises(ParabolicPointError) as err:
        af.affine_point_data(surf, us, vs)
    assert err.value.point == (0.0, float(vs[16]))
