import math

import numpy as np
import pytest

from affasym import affine as af, bde, surface as sf
from affasym.bde import LiftedState
from affasym.jets import Jet2
from affasym.surface import Rect


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
    fld = bde.torus_extended_field(R, r)
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
    fld = bde.torus_extended_field(R, r)
    u = 1.4
    lb, _, nb = (float(x) for x in af.torus_extended_bde(R, r, u))
    res = bde.asymptotic_directions(fld, u, 0.0)
    assert res.kind == "two"
    expect = math.sqrt(-nb / lb)
    slopes = sorted(d[0] / d[1] for d in res.dirs)
    assert slopes == pytest.approx([-expect, expect], rel=1e-12)
    for d in res.dirs:
        quad = lb * d[0] ** 2 + nb * d[1] ** 2
        assert abs(quad) / max(abs(lb), abs(nb)) < 1e-9


def test_directions_double_and_degenerate():
    cg = sf.catalog_surface("cusp_gauss", {"q21": 1.0, "q40": 1.0})
    fld = bde.monge_extended_field(cg)
    res = bde.asymptotic_directions(fld, 0.0, 0.0)
    assert res.kind == "double"
    assert res.dirs[0] == pytest.approx([1.0, 0.0], abs=1e-14)
    assert bde.asymptotic_directions(bde.morse_model_field(1), 0.0, 0.0).kind == "degenerate"


def test_lifted_derivatives_match_residual_and_jacobian():
    cg = sf.catalog_surface("cusp_gauss", {"q21": 1.0, "q40": 0.1})
    fld = bde.monge_extended_field(cg)
    h = 1e-6
    for st in (LiftedState(0.1, -0.05, 0.4, "p"), LiftedState(-0.2, 0.1, -0.3, "q")):
        F, grad, J = bde.lifted_derivatives(*fld.jet_coeff(st.u, st.v, 2), st)
        assert F == pytest.approx(bde.f_residual(fld, st), rel=1e-13, abs=1e-15)
        shifts = ((h, 0, 0), (0, h, 0), (0, 0, h))
        for k, (du, dv, ds) in enumerate(shifts):
            fp = bde.f_residual(fld, LiftedState(st.u + du, st.v + dv, st.slope + ds, st.chart))
            fm = bde.f_residual(fld, LiftedState(st.u - du, st.v - dv, st.slope - ds, st.chart))
            assert grad[k] == pytest.approx((fp - fm) / (2 * h), rel=1e-6, abs=1e-9)
        assert np.array_equal(J, bde.lie_cartan_jacobian(fld, st))
        # the lifted field X = (F_p, p F_p, -(F_u + p F_v)) in chart p, mirrored in q
        X = bde.lie_cartan(fld, st)
        if st.chart == "p":
            assert X[2] == pytest.approx(-(grad[0] + st.slope * grad[1]), abs=1e-14)
        else:
            assert X[2] == pytest.approx(-(grad[1] + st.slope * grad[0]), abs=1e-14)


def test_lifted_field_zero_and_eigenvalues():
    for lam in (-1.0, 0.03, 0.5):
        fld = bde.folded_model_field(lam)
        st = LiftedState(0.0, 0.0, 0.0, "p")
        assert np.linalg.norm(bde.lie_cartan(fld, st)) == 0.0
        J = bde.lie_cartan_jacobian(fld, st)
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
            X = bde.lie_cartan(fld, LiftedState(0.0, 0.0, p, "p"))
            assert X[0] == pytest.approx(0.0, abs=1e-14)
            assert X[1] == pytest.approx(0.0, abs=1e-14)
            assert X[2] == pytest.approx(-p * (p * p - 3 * eps1), abs=1e-12)


def test_lie_cartan_requires_jets():
    fld = bde.values_field(lambda u, v: (1.0, 0.0, 1.0))
    with pytest.raises(bde.CapabilityError):
        bde.lie_cartan(fld, LiftedState(0.0, 0.0, 0.0, "p"))


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
    "conormal": lambda: bde.conormal_euclidean_field(_TORUS),
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
            assert c.shape == (3 * n,) + np.shape(u)
            jets3 = fld.jet_coeff(u, v, order)
            assert len(jets3) == 3
            for k, jet in enumerate(jets3):
                assert jet.order == order and _same_bits(jet.coeffs, c[k * n:(k + 1) * n])
        values = fld.coeff(u, v)
        assert len(values) == 3
        for value, want in zip(values, fld.slots(u, v, 0)):
            assert _same_bits(value, want)


def test_values_field_gives_values_and_no_jets():
    fld = bde.values_field(lambda u, v: (u * v, 0.5, v - u), name="values-only")
    for u, v in ((0.3, -0.2), (np.linspace(-1, 1, 5), np.linspace(0, 1, 5))):
        want = np.array([u * v, np.full(np.shape(u), 0.5), v - u])
        assert _same_bits(fld.slots(u, v, 0), want)
        for value, w in zip(fld.coeff(u, v), want):
            assert _same_bits(value, w)
        for order in (1, 2):
            with pytest.raises(bde.CapabilityError, match="values-only"):
                fld.slots(u, v, order)
            with pytest.raises(bde.CapabilityError):
                fld.jet_coeff(u, v, order)


def test_tangency_identity():
    # X annihilates F: F_u udot + F_v vdot + F_p pdot = 0
    fld = bde.torus_extended_field(3.0, 1.0)
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 30:
        u, v = rng.uniform(0, 2 * math.pi, 2)
        res = bde.asymptotic_directions(fld, u, v)
        if not res.dirs:
            continue
        checked += 1
        d = res.dirs[0]
        st = bde.lift_state(fld, u, v, d[0], d[1])
        X = bde.lie_cartan(fld, st)
        Aj, Bj, Cj = fld.jet_coeff(u, v, 1)
        s = st.slope
        if st.chart == "p":
            grad = np.array([
                float(Aj.partial(1, 0)) + 2 * s * float(Bj.partial(1, 0))
                + s * s * float(Cj.partial(1, 0)),
                float(Aj.partial(0, 1)) + 2 * s * float(Bj.partial(0, 1))
                + s * s * float(Cj.partial(0, 1)),
                2 * float(Bj.value) + 2 * s * float(Cj.value)])
        else:
            grad = np.array([
                s * s * float(Aj.partial(1, 0)) + 2 * s * float(Bj.partial(1, 0))
                + float(Cj.partial(1, 0)),
                s * s * float(Aj.partial(0, 1)) + 2 * s * float(Bj.partial(0, 1))
                + float(Cj.partial(0, 1)),
                2 * s * float(Aj.value) + 2 * float(Bj.value)])
        scale = max(float(np.linalg.norm(grad)) * float(np.linalg.norm(X)), 1e-30)
        assert abs(float(grad @ X)) / scale < 1e-9


def test_chart_consistency():
    # same geometric state in both charts: planar velocities are parallel
    fld = bde.monge_extended_field(
        sf.catalog_surface("pick", {"epsilon": -1, "sigma": 0.7,
                                    "q": {(4, 0): 0.6, (1, 3): 0.4}}))
    rng = np.random.default_rng(8)
    for _ in range(15):
        u, v = rng.uniform(-0.3, 0.3, 2)
        slope = rng.uniform(0.5, 2.0)
        Xp = bde.lie_cartan(fld, LiftedState(u, v, slope, "p"))
        Xq = bde.lie_cartan(fld, LiftedState(u, v, 1.0 / slope, "q"))
        a = Xp[:2] / max(np.linalg.norm(Xp[:2]), 1e-30)
        b = Xq[:2] / max(np.linalg.norm(Xq[:2]), 1e-30)
        assert abs(a[0] * b[1] - a[1] * b[0]) < 1e-7


def test_trace_parabolic_circles():
    tor = sf.catalog_surface("torus", {"R": 2, "r": 1})

    def kfun(u, v):
        al = tor.eval_jets(u, v, order=2, check=False)
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
    fld = bde.torus_extended_field(2.0, 1.0)
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
    edge = {0: lambda i, j: ("h", i, j), 1: lambda i, j: ("v", i + 1, j),
            2: lambda i, j: ("h", i, j + 1), 3: lambda i, j: ("v", i, j)}
    table = {1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)], 6: [(0, 2)], 7: [(3, 2)],
             8: [(2, 3)], 9: [(0, 2)], 11: [(1, 2)], 12: [(3, 1)], 13: [(0, 1)], 14: [(3, 0)]}
    segments = []
    nx, ny = pos.shape[0] - 1, pos.shape[1] - 1
    for i in range(nx):
        for j in range(ny):
            code = (int(pos[i, j]) | int(pos[i + 1, j]) << 1
                    | int(pos[i + 1, j + 1]) << 2 | int(pos[i, j + 1]) << 3)
            if code in (0, 15):
                continue
            if code in (5, 10):
                centre = centre_positive(i, j)
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
    closed = bde.torus_extended_field(2.0, 1.0)
    for u in (0.4, 2.3):
        a = np.array(generic.coeff(u, 0.3))
        b = np.array([float(x) for x in closed.coeff(u, 0.3)])
        t = float(a @ b / (b @ b))
        assert t > 0
        assert np.linalg.norm(a - t * b) < 1e-7 * np.linalg.norm(a)


def test_torus_field_analytic_jets_match_generic_chain():
    from affasym.jets import Jet2
    fld = bde.torus_extended_field(3.0, 1.5)
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


def _extended_case(cat_id, params):
    # (A, B, C) = -(bl, bm, bn), built here from the height polynomial
    surf = sf.catalog_surface(cat_id, params)
    h = sf.Poly(surf.polys[0])
    bl, bm, bn, _ = af.lmn_numerators(*(h.partial(i, j) for (i, j) in _HEIGHT_PARTIALS))
    return bde.extended_field_for(surf), [(-p).terms for p in (bl, bm, bn)]


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
        X, scale = bde.lifted_velocity(c, s, chart_q)
        ref = [reference_velocity(c[:, j].tolist(), float(s[j]), bool(chart_q[j]))
               for j in range(n)]
        assert X.shape == (n, 3) and scale.shape == (n,)
        assert np.array_equal(X, np.array([r[0] for r in ref]), equal_nan=True)
        assert np.array_equal(np.signbit(X), np.signbit([r[0] for r in ref]))
        assert np.array_equal(scale, [r[1] for r in ref], equal_nan=True)
        # one lane alone, on the scalar path, gives the bits it has in the batch
        for j in range(0, n, max(1, n // 7)):
            Xj, sj = bde.lifted_velocity(c[:, j], float(s[j]), bool(chart_q[j]))
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
        F, Fs, Fss = bde.lift_terms(A, B, C, s, np.full(64, q))
        if q:
            refF, refFs, refFss = A * s * s + 2 * B * s + C, 2 * A * s + 2 * B, 2 * A
        else:
            refF, refFs, refFss = A + 2 * B * s + C * s * s, 2 * B + 2 * C * s, 2 * C
        for got, want in ((F, refF), (Fs, refFs), (Fss, refFss)):
            assert np.array_equal(got, want, equal_nan=True)
        # Python floats at one point give the same bits
        for j in range(0, 64, 9):
            for k in range(3):
                point = bde.lift_terms(A[k, j].item(), B[k, j].item(), C[k, j].item(),
                                       s[j].item(), q)
                assert np.array_equal(point, [F[k, j], Fs[k, j], Fss[k, j]], equal_nan=True)


def test_lifted_derivatives_match_the_former_formulas():
    fld = bde.monge_extended_field(sf.catalog_surface("cusp_gauss", {"q21": 1.3, "q40": -0.3}))
    rng = np.random.default_rng(3)
    for chart in ("p", "q"):
        for _ in range(5):
            st = LiftedState(*rng.uniform(-0.4, 0.4, 2), float(rng.uniform(-1.5, 1.5)), chart)
            jets = fld.jet_coeff(st.u, st.v, 2)
            F, grad, J = bde.lifted_derivatives(*jets, st)
            (A0, Au, Av, Auu, Auv, Avv), (B0, Bu, Bv, Buu, Buv, Bvv), (C0, Cu, Cv, Cuu, Cuv, Cvv) = (
                j.coeffs.tolist() for j in jets)
            s = st.slope
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
            assert bde.f_residual(fld, st) == ref
