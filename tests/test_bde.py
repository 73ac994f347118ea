import itertools
import math

import numpy as np
import pytest

from affasym import affine as af, bde, checks, surface as sf
from affasym.jets import Jet2
from affasym.surface import Rect

from test_conormal import conormal_image_field


def lift_residual(fld, u, v, slope, chart_q):
    """F at a lifted point, from ``lift_terms`` on the field's values."""
    return bde.lift_terms(fld.slots(u, v, 0), slope, chart_q)[0][0]


def test_discriminant_synthetic_parabola():
    lam = 0.7
    fld = bde.folded_model_field(lam)
    rng = np.random.default_rng(0)
    for _ in range(10):
        u, v = rng.uniform(-1, 1, 2)
        assert bde.discriminant(fld, u, v) == pytest.approx(v - lam * u * u, abs=1e-14)


def test_discriminant_morse_models():
    for eps1 in (1, -1):
        fld = bde.morse_model_field(eps1)
        rng = np.random.default_rng(1)
        for _ in range(10):
            u, v = rng.uniform(-1, 1, 2)
            assert bde.discriminant(fld, u, v) == pytest.approx(
                u * u + eps1 * v * v, abs=1e-14)


def test_discriminant_torus_rings():
    R, r = 2.0, 1.0
    fld = bde.torus_extended_field(sf.catalog_surface("torus", {"R": R, "r": r}))
    # delta = -lbar nbar; ring bounds are the two quartic roots in cos u
    coefs = [-3 * R ** 2, -2 * r * R * 4, 15 * R ** 2, 9 * 4 * r * R / 4 * 4, 16 * r ** 2]
    coefs = [-3 * R ** 2, -8 * r * R, 15 * R ** 2, 36 * r * R, 16 * r ** 2]
    roots = sorted(c.real for c in np.polynomial.polynomial.polyroots(coefs)
                   if abs(c.imag) < 1e-12 and -1 < c.real < 1)
    assert len(roots) == 2
    u1, u2 = math.acos(roots[1]), math.acos(roots[0])
    for u in np.linspace(u1 + 0.01, u2 - 0.01, 12):
        lb, mb, nb = (float(x) for x in af.torus_extended_bde(R, r, float(u)))
        d = float(bde.discriminant(fld, float(u), 0.0))
        assert d == pytest.approx(-lb * nb, rel=1e-12)
        assert d > 0
    for u in (u1 - 0.05, u2 + 0.05, 0.1, math.pi):
        assert float(bde.discriminant(fld, float(u), 0.0)) < 0


def test_directions_two_roots_oracle():
    # explicit quadratic roots with m = 0: directions (du, dv) = (+-sqrt(-n/l), 1)
    R, r = 2.0, 1.0
    fld = bde.torus_extended_field(sf.catalog_surface("torus", {"R": R, "r": r}))
    u = 1.4
    lb, _, nb = (float(x) for x in af.torus_extended_bde(R, r, u))
    kind, dirs = bde.direction_roots(fld.slots(u, 0.0, 0))
    assert kind == "two"
    expect = math.sqrt(-nb / lb)
    slopes = sorted(d[0] / d[1] for d in dirs)
    assert slopes == pytest.approx([-expect, expect], rel=1e-12)
    for d in dirs:
        quad = lb * d[0] ** 2 + nb * d[1] ** 2
        assert abs(quad) / max(abs(lb), abs(nb)) < 1e-9


def test_directions_double_and_degenerate():
    cg = sf.catalog_surface("cusp_gauss", {"q21": 1.0, "q40": 1.0})
    fld = bde.extended_field_for(cg)
    kind, dirs = bde.direction_roots(fld.slots(0.0, 0.0, 0))
    assert kind == "double"
    assert dirs[0] == pytest.approx([1.0, 0.0], abs=1e-14)
    assert bde.direction_roots(bde.morse_model_field(1).slots(0.0, 0.0, 0))[0] == "degenerate"


def former_directions(A, B, C):
    """The former scalar solver of the direction equation at one point, on
    Python floats: its kind and its unit roots, the double root once.  The
    roots are normalized by ``np.hypot`` and the double-root bound squared
    by ``np.square``, the rounding of ``direction_roots``."""
    def unit(du, dv):
        h = float(np.hypot(du, dv))
        d = np.array([du / h, dv / h])
        return -d if d[0] < 0 or (d[0] == 0 and d[1] < 0) else d

    scale = max(abs(A), abs(B), abs(C))
    if scale < bde.DEGENERATE_TOL:
        return "degenerate", []
    delta = B * B - A * C
    if abs(delta) < np.square(bde.LIFT_TOL * scale):
        if abs(C) >= abs(A):
            return "double", [unit(1.0, -B / C)]
        return "double", [unit(-B / A, 1.0)]
    if delta < 0:
        return "none", []
    rt = math.sqrt(delta)
    if max(abs(A), abs(C)) < 1e-13 * scale:
        return "two", [unit(1.0, 0.0), unit(0.0, 1.0)]
    if abs(C) >= abs(A):
        return "two", [unit(1.0, (-B + rt) / C), unit(1.0, (-B - rt) / C)]
    return "two", [unit((-B + rt) / A, 1.0), unit((-B - rt) / A, 1.0)]


def test_direction_roots_match_the_former_scalar_solver():
    rng = np.random.default_rng(3)
    cases = [
        (1.0, 0.5, -2.0), (-3.0, 1.0, 0.5),              # two roots, |slope| > 1 in chart q
        (1.0, 1.0, 1.0), (4.0, -2.0, 1.0), (1.0, 0.0, 0.0), (0.0, 0.0, -2.0),   # double
        (0.0, -0.0, 1.0), (-0.0, 0.0, -1.0), (1.0, -0.0, 1e-30),   # signed zeros
        (1.0, 0.1, 1.0), (2.0, 0.0, 3.0),                 # none
        (0.0, 0.0, 0.0), (1e-11, -1e-11, 0.0),            # degenerate
        (0.0, 1.0, 0.0), (1e-14, -1.0, -1e-14), (-0.0, 2.0, 0.0),   # 2B du dv = 0
        (1.0, 1.0 + 1e-9, 1.0), (1.0, 3.0, -0.0), (-0.0, 3.0, 1.0),
    ]
    abc = rng.normal(size=(400, 3)) * 10.0 ** rng.integers(-12, 3, size=(400, 3))
    abc[::4, 2] = abc[::4, 1] ** 2 / abc[::4, 0]     # near-double roots
    abc[1::7] *= 1e-11
    abc = np.vstack([cases, abc])
    kind, roots = bde.direction_roots(abc.T[:, None])
    assert roots.shape == (len(abc), 2, 2)
    assert set(kind.tolist()) == {"two", "double", "none", "degenerate"}
    for (A, B, C), k, r in zip(abc.tolist(), kind.tolist(), roots):
        want_kind, dirs = former_directions(A, B, C)
        assert k == want_kind
        if not dirs:
            assert np.isnan(r).all()
            continue
        want = np.array(dirs * (3 - len(dirs)))   # a double root in both rows
        assert np.array_equal(r, want) and np.array_equal(np.signbit(r), np.signbit(want))
        # one point alone gives the same bits
        alone = bde.direction_roots(np.array([[A], [B], [C]]))
        assert alone[0] == k and np.array_equal(alone[1], r)


def former_double_roots(fld, u, v, order):
    """The former ``singular._double_roots``, the reference: the slots of
    ``fld`` up to ``order`` at (u, v) and per point the slope of the double
    root and whether its chart is q: -B/C in chart p where |C| >= |A| (0.0
    where C = 0 there), else -B/A."""
    c = fld.slots(u, v, order)
    A, B, C = c[:, 0]
    chart_q = ~(np.abs(C) >= np.abs(A))
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(chart_q, -B / A, np.where(C != 0, -B / C, 0.0))
    return c, slope, chart_q


@pytest.mark.parametrize("order", [0, 1, 2])
def test_double_root_matches_the_former_rule_bit_for_bit(order):
    # values across |A| = |C|, C = 0 and signed zeros, with random higher slots
    rng = np.random.default_rng(order)
    vals = [0.0, -0.0, 1.0, -1.0, 2.0, -0.5, 1e-300, np.nan]
    abc = np.array(list(itertools.product(vals, repeat=3))).T
    n = (order + 1) * (order + 2) // 2
    slots = rng.normal(size=(3, n, abc.shape[1]))
    slots[:, 0] = abc
    fld = bde.BDEField(lambda u, v, k: slots[:, :(k + 1) * (k + 2) // 2])
    u = np.zeros(abc.shape[1])
    c, want, want_q = former_double_roots(fld, u, u, order)
    got, got_q = bde.double_root(c)
    assert _same_bits(got, want) and _same_bits(got_q, want_q)
    # one point alone gives the same bits
    for k in (0, 7, 100, 511):
        alone = bde.double_root(c[..., k])
        assert _same_bits(alone[0], want[k]) and alone[1] == want_q[k]


def test_direction_roots_double_rows_take_the_one_double_root():
    # B^2 = AC: the unit direction of the slope of double_root, in both rows
    a, b = np.meshgrid([1.0, -2.0, 0.5, 0.0, -0.0, 3.0], [1.0, -3.0, 0.0, -0.0, 0.25])
    c = np.array([a * a, a * b, b * b])[:, None]    # the rows A, B, C of order 0
    kind, roots = bde.direction_roots(c)
    slope, chart_q = bde.double_root(c)
    double = kind == "double"
    assert double.sum() == 26 and chart_q[double].any() and (~chart_q[double]).any()
    for s, q, r in zip(slope[double].tolist(), chart_q[double].tolist(), roots[double]):
        du, dv = (s, 1.0) if q else (1.0, s)
        h = np.hypot(du, dv)
        d = np.array([du / h, dv / h])
        d = -d if d[0] < 0 or (d[0] == 0 and d[1] < 0) else d
        assert _same_bits(r, np.array([d, d]))


def test_lifted_derivatives_match_residual_and_jacobian():
    cg = sf.catalog_surface("cusp_gauss", {"q21": 1.0, "q40": 0.1})
    fld = bde.extended_field_for(cg)
    h = 1e-6
    for u, v, slope, chart_q in ((0.1, -0.05, 0.4, False), (-0.2, 0.1, -0.3, True)):
        F, grad, J = bde.lifted_derivatives(fld.slots(u, v, 2), slope, chart_q)
        assert F == pytest.approx(lift_residual(fld, u, v, slope, chart_q), rel=1e-13, abs=1e-15)
        shifts = ((h, 0, 0), (0, h, 0), (0, 0, h))
        for k, (du, dv, ds) in enumerate(shifts):
            fp = lift_residual(fld, u + du, v + dv, slope + ds, chart_q)
            fm = lift_residual(fld, u - du, v - dv, slope - ds, chart_q)
            assert grad[k] == pytest.approx((fp - fm) / (2 * h), rel=1e-6, abs=1e-9)
        # the lifted field X = (F_p, p F_p, -(F_u + p F_v)) in chart p, mirrored in q
        X = bde.lie_cartan_scaled(fld, u, v, slope, chart_q)[0]
        if not chart_q:
            assert X[2] == pytest.approx(-(grad[0] + slope * grad[1]), abs=1e-14)
        else:
            assert X[2] == pytest.approx(-(grad[1] + slope * grad[0]), abs=1e-14)


def test_lifted_field_zero_and_eigenvalues():
    for lam in (-1.0, 0.03, 0.5):
        fld = bde.folded_model_field(lam)
        assert np.linalg.norm(bde.lie_cartan_scaled(fld, 0.0, 0.0, 0.0, False)[0]) == 0.0
        J = bde.lifted_derivatives(fld.slots(0.0, 0.0, 2), 0.0, False)[2]
        tr = float(np.trace(J))
        e2 = float((tr * tr - np.trace(J @ J)) / 2)
        # model eigenvalues (1 +- sqrt(1 - 16 lam))/2
        disc = 1 - 16 * lam
        assert tr == pytest.approx(1.0, abs=1e-12)
        assert e2 == pytest.approx(4 * lam, abs=1e-12)
        if disc >= 0:
            mus = sorted(np.roots([1, -tr, e2]).real)
            expect = sorted([(1 - math.sqrt(disc)) / 2, (1 + math.sqrt(disc)) / 2])
            assert mus == pytest.approx(expect, abs=1e-10)


def test_lifted_field_morse_fiber():
    for eps1 in (1, -1):
        fld = bde.morse_model_field(eps1)
        for p in (0.0, 0.8, math.sqrt(3), -math.sqrt(3), 2.4):
            X = bde.lie_cartan_scaled(fld, 0.0, 0.0, p, False)[0]
            assert X[0] == pytest.approx(0.0, abs=1e-14)
            assert X[1] == pytest.approx(0.0, abs=1e-14)
            assert X[2] == pytest.approx(-p * (p * p - 3 * eps1), abs=1e-12)


_HALF = Rect(-0.5, 0.5, -0.5, 0.5)
_TORUS = sf.catalog_surface("torus", {"R": 3, "r": 1})
# one field per constructor path; orders 0-3 cover both torus branches
_EVALUATOR_FIELDS = {
    "folded": lambda: bde.folded_model_field(-1.0),
    "morse": lambda: bde.morse_model_field(-1),
    "monge_polynomial": lambda: bde.extended_field_for(
        sf.monge_surface("u^3 - u*v^2 + 0.2*v^4", _HALF)),
    "monge_transcendental": lambda: bde.extended_field_for(
        sf.monge_surface("sin(u)*cos(v)+0.1*exp(u)", _HALF)),
    "torus": lambda: bde.extended_field_for(_TORUS),
    "parametric": lambda: bde.extended_field_for(sf.parametric_surface(
        ["u + 0.2*v^2", "v + 0.1*sin(u)", "exp(u) + log(2 + v)"], _HALF)),
    "conormal": lambda: conormal_image_field(_TORUS),
}


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(_EVALUATOR_FIELDS))
def test_coeff_and_jets_read_the_one_evaluator(name):
    fld = _EVALUATOR_FIELDS[name]()
    d = fld.domain
    rng = np.random.default_rng(23)
    U, V = rng.uniform(d.u0, d.u1, 40), rng.uniform(d.v0, d.v1, 40)
    for u, v in ((float(U[0]), float(V[0])), (U[:5], V[:5]), (U, V)):
        for order in range(4):
            c = fld.slots(u, v, order)
            n = (order + 1) * (order + 2) // 2
            assert c.shape == (3, n) + np.shape(u)
            jets3 = fld.jet_coeff(u, v, order)
            assert len(jets3) == 3
            for k, jet in enumerate(jets3):
                assert jet.order == order and _same_bits(jet.coeffs, c[k])
        values = fld.coeff(u, v)
        assert len(values) == 3
        for value, want in zip(values, fld.slots(u, v, 0)[:, 0]):
            assert _same_bits(value, want)


_TABLE_FIELDS = {
    "polyset": lambda: bde.extended_field_for(
        sf.catalog_surface("cusp_gauss", {"q21": 1.0, "q40": 0.1})),
    "torus-closed-form": lambda: bde.torus_extended_field(_TORUS),
    "file-nonpoly-extended": lambda: bde.extended_field_for(sf.surface_from_config(_FILE_NONPOLY)),
    "file-nonpoly-euclidean": lambda: bde.euclidean_field_for(
        sf.surface_from_config(_FILE_NONPOLY)),
    "folded": lambda: bde.folded_model_field(-1.0),
    "morse": lambda: bde.morse_model_field(-1),
}


@pytest.mark.parametrize("name", sorted(_TABLE_FIELDS))
def test_slots_are_one_table_of_rows_a_b_and_c(name):
    # shape (3, terms) + batch for a point, 1 lane, 7 lanes, an 8 x 8 grid
    # and no lane; jet_coeff and coeff read its rows bit for bit, and every
    # lane holds the bits it has alone
    fld = _TABLE_FIELDS[name]()
    d = fld.domain
    rng = np.random.default_rng(29)
    grid = np.meshgrid(np.linspace(d.u0, d.u1, 10)[1:-1], np.linspace(d.v0, d.v1, 10)[1:-1])
    batches = [(0.3 * d.u0 + 0.7 * d.u1, 0.6 * d.v0 + 0.4 * d.v1), grid, (np.empty(0),) * 2]
    batches[1:1] = [(rng.uniform(d.u0, d.u1, n), rng.uniform(d.v0, d.v1, n)) for n in (1, 7)]
    for u, v in batches:
        values = fld.slots(u, v, 0)[:, 0]
        assert all(_same_bits(got, want) for got, want in zip(fld.coeff(u, v), values, strict=True))
        for order in (0, 1, 2):
            c = fld.slots(u, v, order)
            assert c.shape == (3, (order + 1) * (order + 2) // 2) + np.shape(u)
            for jet, row in zip(fld.jet_coeff(u, v, order), c, strict=True):
                assert jet.order == order and _same_bits(jet.coeffs, row)
            for idx in np.ndindex(np.shape(u)):
                alone = fld.slots(*(float(np.asarray(x)[idx]) for x in (u, v)), order)
                assert _same_bits(alone, c[(Ellipsis,) + idx])


def test_tangency_identity():
    # X annihilates F: F_u udot + F_v vdot + F_p pdot = 0
    checks.lifted_tangency(30, 5)


def test_chart_consistency():
    # same geometric state in both charts: planar velocities are parallel
    fld = bde.extended_field_for(
        sf.catalog_surface("pick", {"epsilon": -1, "sigma": 0.7,
                                    "q": {(4, 0): 0.6, (1, 3): 0.4}}))
    rng = np.random.default_rng(8)
    for _ in range(15):
        u, v = rng.uniform(-0.3, 0.3, 2)
        slope = rng.uniform(0.5, 2.0)
        Xp = bde.lie_cartan_scaled(fld, u, v, slope, False)[0]
        Xq = bde.lie_cartan_scaled(fld, u, v, 1.0 / slope, True)[0]
        a = Xp[:2] / max(np.linalg.norm(Xp[:2]), 1e-30)
        b = Xq[:2] / max(np.linalg.norm(Xq[:2]), 1e-30)
        assert abs(a[0] * b[1] - a[1] * b[0]) < 1e-7


def test_trace_parabolic_circles():
    tor = sf.catalog_surface("torus", {"R": 2, "r": 1})

    def kfun(u, v):
        al = tor.eval_jets(u, v, order=2)
        return af.euclidean_data(al).K

    polys = bde.trace_zero_set(kfun, Rect(0, 2 * math.pi, 0, 2 * math.pi), 96)
    assert len(polys) == 2
    centers = sorted(float(np.mean(p[:, 0])) for p in polys)
    assert centers[0] == pytest.approx(math.pi / 2, abs=1e-6)
    assert centers[1] == pytest.approx(3 * math.pi / 2, abs=1e-6)
    for p in polys:
        target = math.pi / 2 if abs(p[0, 0] - math.pi / 2) < 1 else 3 * math.pi / 2
        assert np.max(np.abs(p[:, 0] - target)) < 1e-6


def test_trace_affine_parabolic_circles():
    fld = bde.torus_extended_field(sf.catalog_surface("torus", {"R": 2.0, "r": 1.0}))
    polys = bde.trace_zero_set(lambda u, v: fld.coeff(u, v)[0],
                               Rect(0, 2 * math.pi, 0, 2 * math.pi), 96)
    assert len(polys) == 4
    coefs = [-12.0, -16.0, 60.0, 72.0, 16.0]
    roots = sorted(c.real for c in np.polynomial.polynomial.polyroots(coefs)
                   if abs(c.imag) < 1e-12 and -1 < c.real < 1)
    assert len(roots) == 2
    expected = sorted([math.acos(roots[0]), math.acos(roots[1]),
                       2 * math.pi - math.acos(roots[0]), 2 * math.pi - math.acos(roots[1])])
    centers = sorted(float(np.mean(p[:, 0])) for p in polys)
    assert centers == pytest.approx(expected, abs=1e-6)


def test_trace_isolated_zero_is_empty():
    fld = bde.morse_model_field(1)
    polys = bde.trace_zero_set(lambda u, v: bde.discriminant(fld, u, v),
                               Rect(-1, 1, -1, 1), 96)
    assert polys == []


def reference_cell_segments(pos, centre_positive, seen=None):
    """The marching-squares cell pass as a plain per-cell loop over the whole
    grid; ``seen`` collects (code, centre sign) of every saddle cell."""
    nx, ny = pos.shape[0] - 1, pos.shape[1] - 1
    h = lambda i, j: i * (ny + 1) + j              # edge (i, j)-(i+1, j)
    v = lambda i, j: nx * (ny + 1) + i * ny + j    # edge (i, j)-(i, j+1)
    edge = {0: h, 1: lambda i, j: v(i + 1, j), 2: lambda i, j: h(i, j + 1), 3: v}
    table = {1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)], 6: [(0, 2)], 7: [(3, 2)],
             8: [(2, 3)], 9: [(0, 2)], 11: [(1, 2)], 12: [(3, 1)], 13: [(0, 1)], 14: [(3, 0)]}
    segments = []
    for i in range(nx):
        for j in range(ny):
            code = (int(pos[i, j]) | int(pos[i + 1, j]) << 1
                    | int(pos[i + 1, j + 1]) << 2 | int(pos[i, j + 1]) << 3)
            if code in (0, 15):
                continue
            if code in (5, 10):
                centre = bool(centre_positive(np.array([i]), np.array([j]))[0])
                if seen is not None:
                    seen.add((code, centre))
                pairs = [(0, 1), (2, 3)] if centre == (code == 5) else [(3, 0), (1, 2)]
            else:
                pairs = table[code]
            segments += [(edge[a](i, j), edge[b](i, j)) for a, b in pairs]
    return segments


SQUARE = Rect(-1.0, 1.0, -1.0, 1.0)
TRACE_CASES = {
    # (0, 0) is the centre of the middle cell of a 9 x 9 grid: +u v gives a
    # code-5 saddle cell, -u v a code-10 one, and the offset picks the centre sign
    "saddle5_centre_pos": (lambda u, v: u * v + 0.01, SQUARE, 9, {(5, True)}),
    "saddle5_centre_neg": (lambda u, v: u * v - 0.01, SQUARE, 9, {(5, False)}),
    "saddle10_centre_pos": (lambda u, v: -u * v + 0.01, SQUARE, 9, {(10, True)}),
    "saddle10_centre_neg": (lambda u, v: -u * v - 0.01, SQUARE, 9, {(10, False)}),
    # the zeros of sin(1.5 pi u) sin(1.5 pi v) cross at nine cell centres of a
    # 9 x 9 grid; the offset is negative at the three with u = -2/3
    "nine_saddles": (lambda u, v: np.sin(1.5 * np.pi * u) * np.sin(1.5 * np.pi * v)
                     + 0.01 * (u + 0.1), SQUARE, 9,
                     {(5, False), (5, True), (10, False), (10, True)}),
    "closed_loop": (lambda u, v: u * u + 0.5 * v * v - 0.3, SQUARE, 24, set()),
    # zeros on whole grid lines and at grid vertices, broken by the tie-break
    "exact_zeros": (lambda u, v: u * (v - 0.5), SQUARE, 8, set()),
    "non_square": (lambda u, v: np.sin(3 * u) + np.cos(2 * v) - 0.2,
                   Rect(-1.0, 2.0, -0.5, 1.5), (17, 6), set()),
}


@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_trace_cell_pass_matches_per_cell_loop(case, monkeypatch):
    scalar, region, res, saddles = TRACE_CASES[case]
    fast = bde.trace_zero_set(scalar, region, res)
    seen = set()
    cells = []
    vectorised = bde._cell_segments

    def reference(pos, centre_positive):
        segs = reference_cell_segments(pos, centre_positive, seen)
        assert vectorised(pos, centre_positive) == segs
        cells.append(len(segs))
        return segs

    monkeypatch.setattr(bde, "_cell_segments", reference)
    slow = bde.trace_zero_set(scalar, region, res)
    assert cells and cells[0] > 0
    assert seen == saddles
    assert len(fast) == len(slow) > 0
    assert all(np.array_equal(a, b) for a, b in zip(fast, slow))
    if case == "closed_loop":
        assert len(fast) == 1 and np.array_equal(fast[0][0], fast[0][-1])
    if case.startswith("saddle"):
        # the two branches of the hyperbola stay apart through the saddle cell
        assert len(fast) == 2


def test_trace_bisects_every_crossed_edge_in_one_batch():
    # one evaluation of the grid, then one of all crossed edges, horizontal
    # and vertical together, per bisection step, then one of all saddle cell
    # centres, none where there is no saddle cell
    for case, saddles, lines in (("closed_loop", 0, 1), ("saddle5_centre_pos", 1, 2),
                                 ("nine_saddles", 9, 7)):
        scalar, region, res, _ = TRACE_CASES[case]
        sizes = []

        def counted(u, v):
            sizes.append(np.size(u))
            return scalar(u, v)

        assert len(bde.trace_zero_set(counted, region, res)) == lines
        assert len(sizes) == 1 + 48 + (saddles > 0) and sizes[0] == (res + 1) ** 2
        assert len(set(sizes[1:49])) == 1 and sizes[1] > 0
        assert sizes[49:] == ([saddles] if saddles else [])


def test_criminant_characterization():
    # at traced discriminant vertices the double direction satisfies F = F_p = 0
    lam = -0.8
    fld = bde.folded_model_field(lam)
    polys = bde.trace_zero_set(lambda u, v: bde.discriminant(fld, u, v),
                               fld.domain, 128)
    assert polys
    for poly in polys:
        for (u, v) in poly[::7]:
            A, B, C = (float(x) for x in fld.coeff(u, v))
            p = -B / C
            F = A + 2 * B * p + C * p * p
            Fp = 2 * B + 2 * C * p
            scale = max(abs(A), abs(B), abs(C), 1e-30)
            assert abs(F) < 1e-9 * scale
            assert abs(Fp) < 1e-9 * scale


def test_csv_and_svg_exports():
    polys = [np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([[4.0, 5.0], [6.0, 7.0]])]
    path = bde.polyline_svg_path(polys[0], lambda u, v: (u, v))
    assert path.startswith("M 0.000 1.000 L 2.000 3.000")


def test_extended_field_for_parametric_clears_poles():
    surf = sf.catalog_surface("torus", {"R": 2, "r": 1})
    generic = bde.extended_field_for(
        sf.parametric_surface(("(2 + cos(u))*cos(v)", "(2 + cos(u))*sin(v)", "sin(u)"),
                              Rect(0, 2 * math.pi, 0, 2 * math.pi)))
    closed = bde.torus_extended_field(surf)
    for u in (0.4, 2.3):
        a = np.array(generic.coeff(u, 0.3))
        b = np.array([float(x) for x in closed.coeff(u, 0.3)])
        t = float(a @ b / (b @ b))
        assert t > 0
        assert np.linalg.norm(a - t * b) < 1e-7 * np.linalg.norm(a)


# charts of the normal-only extended field: the torus (whose field keeps its
# closed form, so the function is called directly), the hashed generic
# parametric chart, a non-polynomial parametric chart and a transcendental
# Monge chart
_FILE_PARAMETRIC = {"kind": "parametric",
                    "exprs": ["u", "v", "0.5*u^2-0.5*v^2+0.3*u^3+0.2*u*v^2+0.1*u^4"],
                    "domain": [-0.5, 0.5, -0.5, 0.5]}
_FILE_NONPOLY = {"kind": "parametric",
                 "exprs": ["u + 0.2*sin(v)", "v + 0.3*u^2", "exp(0.4*u)*cos(v) + 0.5*u*v"],
                 "domain": [-0.5, 0.5, -0.5, 0.5]}
_NORMAL_CHARTS = {
    "torus": lambda: sf.catalog_surface("torus", {"R": 2, "r": 1}),
    "file-parametric": lambda: sf.surface_from_config(_FILE_PARAMETRIC),
    "file-nonpoly": lambda: sf.surface_from_config(_FILE_NONPOLY),
    "monge-transcendental": lambda: sf.monge_surface("sin(u)*cos(v)+0.1*exp(u)"),
}


def _normal_jets(surf, u, v, order):
    """w = a_u ^ a_v from order-(order + 4) position jets."""
    pos = surf.eval_jets(u, v, order=order + 4)
    return af.cross(tuple(c.du() for c in pos), tuple(c.dv() for c in pos))


def _conditioned_points(surf, n, rng):
    """n points, one float pair for n = 0, where |LN - M^2| is at least half
    its largest value over 400 draws: the frame pipeline divides by
    |LN - M^2|^(1/4) and loses digits near the parabolic set."""
    d = surf.domain
    u, v = rng.uniform(d.u0, d.u1, 400), rng.uniform(d.v0, d.v1, 400)
    _, _, (L, M, N) = af.second_form_jets(surf.eval_jets(u, v, order=2))
    D = np.abs((L * N - M * M).value)
    keep = np.flatnonzero(D >= 0.5 * D.max())[:max(n, 1)]
    assert len(keep) == max(n, 1)
    return (float(u[keep[0]]), float(v[keep[0]])) if n == 0 else (u[keep], v[keep])


def _slot_rows(abc):
    """The slots of (A, B, C) stacked: jets, or values at order 0."""
    return np.concatenate([c.coeffs if isinstance(c, Jet2) else np.asarray(c)[None]
                           for c in abc])


def _rel_err(got, ref):
    """Largest slot error per lane over the largest reference slot there."""
    return np.max(np.abs(got - ref), axis=0) / np.max(np.abs(ref), axis=0)


@pytest.mark.parametrize("lanes", [0, 5, 40])
@pytest.mark.parametrize("chart", sorted(_NORMAL_CHARTS))
def test_extended_coeffs_from_the_normal_match_the_frame_pipeline(chart, lanes):
    # (A, B, C) = 16 D^2 (l, m, n) with (l, m, n) from the frame chain, which
    # divides by |D|^(1/4): to 1e-13 at orders 0 to 2
    surf = _NORMAL_CHARTS[chart]()
    u, v = _conditioned_points(surf, lanes, np.random.default_rng(31))
    fld = None if chart == "torus" else bde.extended_field_for(surf)
    for order in (0, 1, 2):
        fr = af.frame_jets(surf, u, v, order=order + 4)
        D = fr["D"]
        ref = np.concatenate([(16.0 * D * D * c).truncate(order).coeffs
                              for c in af.lmn_from_frame(fr)])
        got = _slot_rows(af.extended_bde_coeffs(_normal_jets(surf, u, v, order)))
        assert got.shape == ref.shape
        assert np.all(_rel_err(got, ref) < 1e-13)
        if fld is not None:
            assert np.all(_rel_err(fld.slots(u, v, order).reshape(ref.shape), ref) < 1e-13)


def test_extended_coeffs_from_the_normal_on_the_torus():
    # finite across the parabolic circles u = pi/2, 3 pi/2 (D = 0), and a
    # positive multiple of the closed form everywhere
    R, r = 2.0, 1.0
    surf = sf.catalog_surface("torus", {"R": R, "r": r})
    u = np.concatenate([np.linspace(0.0, 2 * math.pi, 37), [math.pi / 2, 3 * math.pi / 2]])
    for order in (0, 1, 2):
        got = af.extended_bde_coeffs(_normal_jets(surf, u, np.full_like(u, 0.7), order))
        assert np.all(np.isfinite(_slot_rows(got)))
    a = np.array([c.value for c in got]).T
    b = np.array([np.broadcast_to(c, u.shape) for c in af.torus_extended_bde(R, r, u)]).T
    t = np.einsum("ij,ij->i", a, b) / np.einsum("ij,ij->i", b, b)
    assert np.all(t > 0)
    assert np.all(np.linalg.norm(a - t[:, None] * b, axis=1) < 1e-12 * np.linalg.norm(a, axis=1))


@pytest.mark.parametrize("chart", sorted(_NORMAL_CHARTS))
def test_normal_determinant_is_the_second_form_determinant(chart):
    # det(w, w_u, w_v) = LN - M^2 identically, for w = a_u ^ a_v
    surf = _NORMAL_CHARTS[chart]()
    d = surf.domain
    rng = np.random.default_rng(37)
    u, v = rng.uniform(d.u0, d.u1, 40), rng.uniform(d.v0, d.v1, 40)
    pos = surf.eval_jets(u, v, order=4)
    w = _normal_jets(surf, u, v, 0)
    got = af.det3(w, tuple(c.du() for c in w), tuple(c.dv() for c in w))
    _, _, (L, M, N) = af.second_form_jets(pos)
    ref = L * N - M * M
    assert got.order == ref.order == 2
    scale = np.max(np.abs(ref.coeffs))
    assert np.max(np.abs(got.coeffs - ref.coeffs)) < 1e-13 * scale


@pytest.mark.parametrize("height", ["u^3 - u*v^2 + 0.2*v^4", "sin(u)*cos(v)+0.1*exp(u)"])
def test_graph_and_its_file_chart_give_the_same_fields(height):
    # monge:EXPR and the file: chart ["u", "v", EXPR] are one chart (u, v, h):
    # both surface fields agree bit for bit, polynomial and transcendental
    dom = [-0.5, 0.5, -0.5, 0.5]
    graph = sf.surface_from_config({"kind": "monge", "expr": height, "domain": dom})
    chart = sf.surface_from_config({"kind": "parametric", "exprs": ["u", "v", height],
                                    "domain": dom})
    rng = np.random.default_rng(41)
    points = [(0.3, -0.2)] + [tuple(rng.uniform(-0.5, 0.5, (2, n))) for n in (7, 600)]
    for make in (bde.extended_field_for, bde.euclidean_field_for):
        a, b = make(graph), make(chart)
        for u, v in points:
            for order in (0, 1, 2):
                x, y = a.slots(u, v, order), b.slots(u, v, order)
                assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_fields_of_a_plane_chart_are_zero_with_the_slots_of_any_field():
    # on (sin u, v, 0) every tangent entry but x_u is a constant float, and
    # so are D, L, M and N: the fields still give one slot array per order
    plane = sf.parametric_surface(["sin(u)", "v", "0"], Rect(-0.5, 0.5, -0.5, 0.5))
    for make in (bde.extended_field_for, bde.euclidean_field_for):
        fld = make(plane)
        for u, v in ((0.3, -0.2), (np.array([0.1, 0.2]), np.array([0.0, 0.3]))):
            for order in (0, 1, 2):
                c = fld.slots(u, v, order)
                assert c.shape == (3, (order + 1) * (order + 2) // 2) + np.shape(u)
                assert not c.any()


_CLOSED_FORM_CHARTS = {
    **{f"cusp-q21={a}-q40={b}": (lambda a=a, b=b: sf.catalog_surface(
        "cusp_gauss", {"q21": a, "q40": b}))
       for a, b in ((1.0, 0.1), (1.5, 0.4), (1.3, -0.3), (0.9, 0.35), (0.85, -0.2))},
    "pick": lambda: sf.catalog_surface(
        "pick", {"epsilon": 1, "sigma": 0.9, "q": {(4, 0): 0.5, (0, 4): 1.5, (2, 2): 1.12}}),
    "flat-umbilic+1": lambda: sf.catalog_surface("flat_umbilic_chart", {"epsilon": 1}),
    "flat-umbilic-1": lambda: sf.catalog_surface("flat_umbilic_chart", {"epsilon": -1}),
    "monge-poly": lambda: sf.monge_surface("u^3 - u*v^2 + 0.2*v^4"),
}


@pytest.mark.parametrize("chart", sorted(_CLOSED_FORM_CHARTS))
def test_polynomial_extended_field_keeps_the_closed_form_monomials(chart):
    # over Poly the normal-only formula gives the former Monge closed form:
    # the same monomials, each coefficient within 1e-14 of the largest
    surf = _CLOSED_FORM_CHARTS[chart]()
    for new, old in zip(af.extended_bde_coeffs(monge_normal_polys(surf)),
                        closed_form_polys(surf)):
        assert set(new.terms) == set(old.terms)
        scale = max(abs(c) for c in old.terms.values())
        assert max(abs(new.terms[k] - c) for k, c in old.terms.items()) <= 1e-14 * scale


def test_torus_field_analytic_jets_match_generic_chain():
    from affasym.jets import Jet2
    fld = bde.torus_extended_field(sf.catalog_surface("torus", {"R": 3.0, "r": 1.5}))
    rng = np.random.default_rng(17)
    for _ in range(12):
        u, v = float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0, 2 * math.pi))
        for order in (1, 2):
            fast = fld.jet_coeff(u, v, order)
            uj = Jet2.variable("u", u, order)
            slow = af.torus_extended_bde(3.0, 1.5, uj)
            for a, b in zip(fast, slow):
                bc = b.coeffs if hasattr(b, "coeffs") else np.zeros_like(a.coeffs)
                assert np.max(np.abs(a.coeffs - bc)) < 1e-9 * max(
                    1.0, float(np.max(np.abs(a.coeffs))))


_HEIGHT_PARTIALS = [(2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3),
                    (4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]


def lmn_numerators(huu, huv, hvv, huuu, huuv, huvv, hvvv,
                   huuuu, huuuv, huuvv, huvvv, hvvvv):
    """Reference: the closed-form numerators of (l, m, n) on a Monge chart,
    (l, m, n) = -(bl, bm, bn) / (16 (h_uu h_vv - h_uv^2)^2), polynomial in the
    twelve height partials (floats, jets or ``Poly``)."""
    hd = huu * hvv - huv * huv
    bl = (-4 * (hvv * huuuu - 2 * huv * huuuv) * hd
          - 4 * huu * hd * huuvv
          + 7 * hvv * hvv * huuu * huuu
          + 3 * huu * huu * huvv * huvv
          + (-28 * huuv * huv * hvv + 2 * (huu * hvv + 8 * huv * huv) * huvv
             - 4 * hvvv * huu * huv) * huuu
          + 12 * (huu * hvv + huv * huv) * huuv * huuv
          + 4 * (huu * huu * hvvv - 6 * huu * huv * huvv) * huuv)
    bm = (-4 * (hvv * huuuv - 2 * huv * huuvv) * hd
          + (7 * hvv * hvv * huuv - 10 * huv * hvv * huvv
             + (-huu * hvv + 4 * huv * huv) * hvvv) * huuu
          - 4 * huu * hd * huvvv
          - 18 * huuv * huuv * huv * hvv
          + 7 * huvv * hvvv * huu * huu
          + ((15 * huu * hvv + 24 * huv * huv) * huvv - 10 * huu * huv * hvvv) * huuv
          - 18 * huvv * huvv * huu * huv)
    bn = (-4 * (hvv * huuvv - 2 * huv * huvvv) * hd
          - 4 * huu * hvvvv * hd
          + 4 * (-huv * hvv * hvvv + huvv * hvv * hvv) * huuu
          + 3 * huuv * huuv * hvv * hvv
          + 2 * (-12 * huv * hvv * huvv + (huu * hvv + 8 * huv * huv) * hvvv) * huuv
          + 12 * (huu * hvv + huv * huv) * huvv * huvv
          - 28 * huvv * hvvv * huu * huv
          + 7 * hvvv * hvvv * huu * huu)
    return bl, bm, bn


def _poly_partial(h, i, j):
    for _ in range(i):
        h = h.du()
    for _ in range(j):
        h = h.dv()
    return h


def closed_form_polys(surf):
    """(A, B, C) = -(bl, bm, bn) of a polynomial graph (u, v, h), as ``Poly``."""
    h = sf.Poly(surf.polys[2])
    return tuple(-p for p in lmn_numerators(*(_poly_partial(h, i, j)
                                              for (i, j) in _HEIGHT_PARTIALS)))


def monge_normal_polys(surf):
    """The normal (-h_u, -h_v, 1) of a polynomial graph (u, v, h), as ``Poly``."""
    h = sf.Poly(surf.polys[2])
    return (-h.du(), -h.dv(), sf.Poly.const(1.0))


def _extended_case(cat_id, params):
    # the field against its own polynomials, summed here monomial by monomial
    surf = sf.catalog_surface(cat_id, params)
    return (bde.extended_field_for(surf),
            [p.terms for p in af.extended_bde_coeffs(monge_normal_polys(surf))])


_POLY_FIELDS = {
    "pick": lambda: _extended_case(
        "pick", {"epsilon": 1, "sigma": 0.9, "q": {(4, 0): 0.5, (0, 4): 1.5, (2, 2): 1.12}}),
    "cusp_gauss": lambda: _extended_case(
        "cusp_gauss", {"q": {(2, 1): 1.0, (4, 0): 0.1, (0, 3): 0.3, (3, 2): -0.4}}),
    "flat_umbilic_chart": lambda: _extended_case(
        "flat_umbilic_chart", {"epsilon": -1, "q": {(4, 0): 0.2, (2, 3): -0.5}}),
    "folded": lambda: (bde.folded_model_field(0.7),
                       [{(2, 0): 0.7, (0, 1): -1.0}, {}, {(0, 0): 1.0}]),
    "morse": lambda: (bde.morse_model_field(-1), [{(0, 1): 1.0}, {(1, 0): 1.0}, {(0, 1): 1.0}]),
}


def _direct_partial(terms, a, b, u, v):
    return sum(c * math.perm(i, a) * math.perm(j, b) * u ** (i - a) * v ** (j - b)
               for (i, j), c in terms.items() if i >= a and j >= b)


@pytest.mark.parametrize("name", sorted(_POLY_FIELDS))
def test_compiled_polynomial_field_matches_direct_formula(name):
    fld, polys = _POLY_FIELDS[name]()
    d = fld.domain
    rng = np.random.default_rng(23)
    for shape in [(), (6,), (3, 4)]:
        u, v = rng.uniform(d.u0, d.u1, shape), rng.uniform(d.v0, d.v1, shape)
        if shape == ():
            u, v = float(u), float(v)
        for order in range(5):
            for jet, terms in zip(fld.jet_coeff(u, v, order), polys):
                assert jet.order == order and np.shape(jet.value) == shape
                for g in range(order + 1):
                    for a in range(g, -1, -1):
                        ref = _direct_partial(terms, a, g - a, u, v)
                        assert np.all(np.abs(jet.partial(a, g - a) - ref) < 1e-12)
        for value, terms in zip(fld.coeff(u, v), polys):
            ref = _direct_partial(terms, 0, 0, u, v)
            assert np.shape(value) == shape
            assert np.all(np.abs(value - ref) < 1e-12)

    # one point gives the same bits alone as inside a batch
    U, V = rng.uniform(d.u0, d.u1, (3, 4)), rng.uniform(d.v0, d.v1, (3, 4))
    batch_jets, batch_values = fld.jet_coeff(U, V, 4), fld.coeff(U, V)
    for idx in np.ndindex(U.shape):
        u, v = float(U[idx]), float(V[idx])
        for bj, sj in zip(batch_jets, fld.jet_coeff(u, v, 4)):
            assert np.array_equal(bj.coeffs[(slice(None),) + idx], sj.coeffs)
        for bv, sv in zip(batch_values, fld.coeff(u, v)):
            assert bv[idx] == sv


def test_polynomial_field_flattens_its_tables_once_per_order(monkeypatch):
    polys = (sf.Poly({(2, 0): 1.5, (0, 1): -1.0, (3, 2): 0.25}), sf.Poly({(1, 1): 2.0}),
             sf.Poly({(0, 0): 1.0, (0, 4): -3.0, (5, 0): 0.5}))
    fld = bde.field_from_polynomials(*polys, Rect(-1, 1, -1, 1))
    rng = np.random.default_rng(4)
    points = [(0.1, -0.2), (rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)),
              (rng.uniform(-1, 1, 40), rng.uniform(-1, 1, 40))]
    # a plain tuple of the same polynomials gives the reference bits
    expect = [sf.poly_jets(polys, u, v, 1) for u, v in points] + \
        [sf.poly_values(polys, u, v) for u, v in points]
    calls = []
    table = sf.Poly.table

    def counted(self, order):
        calls.append(order)
        return table(self, order)

    monkeypatch.setattr(sf.Poly, "table", counted)
    for _ in range(2):
        got = [fld.jet_coeff(u, v, 1) for u, v in points] + \
            [fld.coeff(u, v) for u, v in points]
        # three tables per order on the first call of that order, then none
        assert sorted(calls) == [0, 0, 0, 1, 1, 1]
        for x, y in zip(got, expect):
            for a, b in zip(x, y):
                a, b = (c.coeffs if isinstance(c, Jet2) else c for c in (a, b))
                assert np.array_equal(a, b)


# -- the lifted-field kernel against the former per-branch formulas ------------


def reference_velocity(slots, s, chart_q):
    """The former ``lifted_velocity`` of one lane on Python floats: both
    chart branches written out, and the scale as np.maximum chains it."""
    A0, Au, Av, B0, Bu, Bv, C0, Cu, Cv = slots
    if chart_q:
        Fu = Au * s * s + 2 * Bu * s + Cu
        Fv = Av * s * s + 2 * Bv * s + Cv
        Fq = 2 * A0 * s + 2 * B0
        X = (s * Fq, Fq, -(Fv + s * Fu))
    else:
        Fu = Au + 2 * Bu * s + Cu * s * s
        Fv = Av + 2 * Bv * s + Cv * s * s
        Fp = 2 * B0 + 2 * C0 * s
        X = (Fp, s * Fp, -(Fu + s * Fv))
    scale = np.maximum(np.maximum(abs(A0), abs(B0)), abs(C0))
    return X, float(scale)


def kernel_cases(n, rng):
    """(9, n) slot rows with mixed magnitudes, signed zeros, non-finite
    entries and a lane where the lifted field vanishes, with slopes."""
    c = rng.normal(size=(9, n)) * 10.0 ** rng.integers(-6, 6, size=(9, n))
    s = rng.uniform(-1.5, 1.5, n)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300])
    hit = rng.random((9, n)) < 0.08
    c[hit] = rng.choice(special, size=int(hit.sum()))
    s[rng.random(n) < 0.1] = -0.0
    s[rng.random(n) < 0.1] = 0.0
    if n > 3:
        # creeping lane: B = C = 0 and A_u = A_v = 0 make X = 0 in chart p
        c[:, 2] = [0.5, 0.0, -0.0, 0.0, 0.0, 0.0, -0.0, 0.0, 0.0]
    return c, s


@pytest.mark.parametrize("n", [1, 11, 12, 300])
@pytest.mark.parametrize("charts", ["p", "q", "mixed"])
def test_lifted_velocity_matches_reference_bits(n, charts):
    rng = np.random.default_rng([n, len(charts)])
    c, s = kernel_cases(n, rng)
    chart_q = {"p": np.zeros(n, bool), "q": np.ones(n, bool),
               "mixed": rng.random(n) < 0.5}[charts]
    with np.errstate(all="ignore"):
        X, scale = bde.lifted_velocity(c.reshape(3, 3, n), s, chart_q)
        ref = [reference_velocity(c[:, j].tolist(), float(s[j]), bool(chart_q[j]))
               for j in range(n)]
        assert X.shape == (n, 3) and scale.shape == (n,)
        assert np.array_equal(X, np.array([r[0] for r in ref]), equal_nan=True)
        assert np.array_equal(np.signbit(X), np.signbit([r[0] for r in ref]))
        assert np.array_equal(scale, [r[1] for r in ref], equal_nan=True)
        # one lane alone, on the scalar path, gives the bits it has in the batch
        for j in range(0, n, max(1, n // 7)):
            Xj, sj = bde.lifted_velocity(c[:, j].reshape(3, 3), float(s[j]), bool(chart_q[j]))
            assert np.array_equal(Xj, X[j], equal_nan=True)
            assert np.array_equal(np.signbit(Xj), np.signbit(X[j]))
            assert np.array_equal(sj, scale[j], equal_nan=True)
    if n > 3 and charts == "p":
        assert not X[2].any()


@pytest.mark.parametrize("chart", ["p", "q"])
def test_lift_terms_match_the_former_residual_formulas(chart):
    rng = np.random.default_rng(7)
    c, s = kernel_cases(64, rng)
    A, B, C = c[0::3], c[1::3], c[2::3]
    q = chart == "q"
    with np.errstate(all="ignore"):
        F, Fs, Fss = bde.lift_terms(np.array((A, B, C)), s, np.full(64, q))
        if q:
            refF, refFs, refFss = A * s * s + 2 * B * s + C, 2 * A * s + 2 * B, 2 * A
        else:
            refF, refFs, refFss = A + 2 * B * s + C * s * s, 2 * B + 2 * C * s, 2 * C
        for got, want in ((F, refF), (Fs, refFs), (Fss, refFss)):
            assert np.array_equal(got, want, equal_nan=True)
        # one point alone gives the same bits
        for j in range(0, 64, 9):
            for k in range(3):
                point = bde.lift_terms(np.array((A, B, C))[:, k, j], s[j].item(), q)
                assert np.array_equal(point, [F[k, j], Fs[k, j], Fss[k, j]], equal_nan=True)


def test_lifted_derivatives_match_the_former_formulas():
    fld = bde.extended_field_for(sf.catalog_surface("cusp_gauss", {"q21": 1.3, "q40": -0.3}))
    rng = np.random.default_rng(3)
    for chart in ("p", "q"):
        for _ in range(5):
            (u, v), s = rng.uniform(-0.4, 0.4, 2), float(rng.uniform(-1.5, 1.5))
            c = fld.slots(u, v, 2)
            F, grad, J = bde.lifted_derivatives(c, s, chart == "q")
            (A0, Au, Av, Auu, Auv, Avv), (B0, Bu, Bv, Buu, Buv, Bvv), (C0, Cu, Cv, Cuu, Cuv, Cvv) = (
                c.tolist())
            if chart == "p":
                ref = A0 + 2 * B0 * s + C0 * s * s
                Fu, Fv = Au + 2 * Bu * s + Cu * s * s, Av + 2 * Bv * s + Cv * s * s
                Fp = 2 * B0 + 2 * C0 * s
                Fuu, Fuv = Auu + 2 * Buu * s + Cuu * s * s, Auv + 2 * Buv * s + Cuv * s * s
                Fvv = Avv + 2 * Bvv * s + Cvv * s * s
                Fpu, Fpv, Fpp = 2 * Bu + 2 * Cu * s, 2 * Bv + 2 * Cv * s, 2 * C0
                refJ = [[Fpu, Fpv, Fpp], [s * Fpu, s * Fpv, Fp + s * Fpp],
                        [-(Fuu + s * Fuv), -(Fuv + s * Fvv), -(Fpu + Fv + s * Fpv)]]
            else:
                ref = A0 * s * s + 2 * B0 * s + C0
                Fu, Fv = Au * s * s + 2 * Bu * s + Cu, Av * s * s + 2 * Bv * s + Cv
                Fp = 2 * A0 * s + 2 * B0
                Fuu, Fuv = Auu * s * s + 2 * Buu * s + Cuu, Auv * s * s + 2 * Buv * s + Cuv
                Fvv = Avv * s * s + 2 * Bvv * s + Cvv
                Fqu, Fqv, Fqq = 2 * Au * s + 2 * Bu, 2 * Av * s + 2 * Bv, 2 * A0
                refJ = [[s * Fqu, s * Fqv, Fp + s * Fqq], [Fqu, Fqv, Fqq],
                        [-(Fuv + s * Fuu), -(Fvv + s * Fuv), -(Fqv + Fu + s * Fqu)]]
            assert (F, tuple(grad)) == (ref, (Fu, Fv, Fp))
            assert np.array_equal(J, refJ)
            assert lift_residual(fld, u, v, s, chart == "q") == ref
