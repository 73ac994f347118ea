import json
import math

import numpy as np
import pytest

from affasym import surface as sf
from affasym.jets import Jet2
from affasym.surface import ParseError, Rect


def test_parse_flat_umbilic_cubic():
    ast = sf.parse_expression("u^3 + 3*u*v^2")
    assert sf.as_polynomial(ast) == {(3, 0): 1.0, (1, 2): 3.0}


def test_parse_error_offset():
    with pytest.raises(ParseError) as err:
        sf.parse_expression("sin(u")
    assert err.value.offset == 6


def test_named_constant():
    ast = sf.parse_expression("2*pi")
    val = sf.eval_expression_jet(ast, Jet2.variable("u", 0.0), Jet2.variable("v", 0.0))
    assert float(val.value) == pytest.approx(6.283185307, abs=1e-9)


def test_unknown_identifier():
    with pytest.raises(ParseError):
        sf.parse_expression("u + w")


def test_nonliteral_exponent_rejected():
    with pytest.raises(ParseError):
        sf.parse_expression("u^v")


ROUND_TRIP_CORPUS = [
    "u", "v", "pi", "1.5", "u + v", "u - v", "u*v", "u/v", "-u",
    "u^2", "u^3 + 3*u*v^2", "u^(1/2)", "(u + v)^3", "u^(-1/4)",
    "sin(u)", "cos(v)", "tan(u*v)", "exp(u - v)", "log(2 + u)", "sqrt(1 + u^2)",
    "sin(u)*cos(v) + exp(u*v)", "1/(1 + u^2 + v^2)", "2*pi*u - v/3",
    "u^2*v^2 - 3*u*v + 7", "-(u + v)", "-u^2", "(u/2 + v/3)/(1 + u^2)",
    "sqrt(4 + u^2 + v^2) - 2", "sin(cos(u))", "exp(-u^2 - v^2)",
    "u^4 + 4*u^3*v + 6*u^2*v^2 + 4*u*v^3 + v^4", "0.5*(u^2 + v^2)",
]


def test_parser_round_trip():
    assert len(ROUND_TRIP_CORPUS) >= 30
    for text in ROUND_TRIP_CORPUS:
        ast = sf.parse_expression(text)
        again = sf.parse_expression(sf.pretty(ast))
        assert again == ast, text


def test_torus_position():
    tor = sf.catalog_surface("torus", {"R": 3, "r": 1})
    x, y, z = tor.eval_jets(0.0, 0.0)
    assert (float(x.value), float(y.value), float(z.value)) == (4.0, 0.0, 0.0)


def test_torus_parametrization_formula():
    tor = sf.catalog_surface("torus", {"R": 2, "r": 1})
    rng = np.random.default_rng(0)
    for _ in range(10):
        u, v = rng.uniform(0, 2 * math.pi, 2)
        x, y, z = (float(c.value) for c in tor.eval_jets(u, v, check=False))
        assert x == pytest.approx((2 + math.cos(u)) * math.cos(v), abs=1e-14)
        assert y == pytest.approx((2 + math.cos(u)) * math.sin(v), abs=1e-14)
        assert z == pytest.approx(math.sin(u), abs=1e-14)


def test_torus_constraint():
    with pytest.raises(ValueError):
        sf.catalog_surface("torus", {"R": 1, "r": 1})
    with pytest.raises(ValueError):
        sf.catalog_surface("torus", {"R": 1, "r": 2})


def test_monge_uv_jet():
    surf = sf.monge_surface("u*v", Rect(-3, 3, -3, 3))
    h = surf.height_jet(1.0, 2.0)
    assert float(h.partial(1, 1)) == 1.0
    assert float(h.partial(2, 0)) == 0.0
    assert float(h.value) == 2.0


def test_pick_origin_jets():
    pick = sf.catalog_surface("pick", {"epsilon": 1, "sigma": 1.0})
    h = pick.height_jet(0.0, 0.0)
    assert float(h.partial(2, 0)) == 1.0
    assert float(h.partial(0, 2)) == 1.0
    assert float(h.partial(3, 0)) == 1.0
    assert float(h.partial(1, 2)) == -1.0
    # defining jet values of the chart
    assert float(h.value) == 0.0
    assert float(h.partial(1, 0)) == 0.0
    assert float(h.partial(0, 1)) == 0.0
    assert float(h.partial(1, 1)) == 0.0


def test_pick_hyperbolic_origin():
    pick = sf.catalog_surface("pick", {"epsilon": -1, "sigma": 0.5})
    h = pick.height_jet(0.0, 0.0)
    assert float(h.partial(0, 2)) == -1.0
    assert float(h.partial(1, 2)) == 0.5  # -eps*sigma


def test_pick_q_orders():
    with pytest.raises(ValueError):
        sf.catalog_surface("pick", {"epsilon": 1, "sigma": 0.0, "q": {(8, 0): 1.0}})
    pick = sf.catalog_surface("pick", {"epsilon": 1, "sigma": 0.0, "q": {(4, 0): 2.0}})
    assert float(pick.height_jet(0.0, 0.0).partial(4, 0)) == pytest.approx(2.0)


def test_cusp_gauss_constraint():
    sf.catalog_surface("cusp_gauss", {"q21": 1.0, "q40": 1.0})  # 1 - 4 != 0: fine
    with pytest.raises(ValueError):
        sf.catalog_surface("cusp_gauss", {"q21": 2.0, "q40": 1.0})  # 4 - 4 = 0


def test_flat_umbilic_chart_poly():
    fu = sf.catalog_surface("flat_umbilic_chart", {"epsilon": -1})
    assert fu.polys[0] == {(3, 0): 1.0, (1, 2): -3.0}
    fu2 = sf.catalog_surface("flat_umbilic_chart", {"epsilon": 1})
    assert fu2.polys[0] == {(3, 0): 1.0, (1, 2): 3.0}


def test_polynomial_eval_exact():
    # independent direct-differentiation oracle for polynomial charts
    rng = np.random.default_rng(1)
    poly = {(i, j): float(rng.uniform(-1, 1)) for i in range(4) for j in range(4)
            if 0 < i + j <= 4}
    surf = sf.SurfaceDef("monge", None, Rect(-1, 1, -1, 1), polys=(poly,))

    def direct(a, b, u, v):
        return sum(c * math.perm(i, a) * math.perm(j, b) * u ** (i - a) * v ** (j - b)
                   for (i, j), c in poly.items() if i >= a and j >= b)

    for _ in range(10):
        u, v = rng.uniform(-1, 1, 2)
        h = surf.height_jet(u, v)
        for g in range(5):
            for a in range(g, -1, -1):
                assert abs(float(h.partial(a, g - a)) - direct(a, g - a, u, v)) < 1e-12


def test_expression_matches_poly_path():
    text = "u^3 + 3*u*v^2 + 0.5*u^2 - v^4"
    surf_a = sf.monge_surface(text)
    poly = sf.as_polynomial(sf.parse_expression(text))
    surf_b = sf.SurfaceDef("monge", None, Rect(-1, 1, -1, 1), polys=(poly,))
    ja = surf_a.height_jet(0.3, -0.2)
    jb = surf_b.height_jet(0.3, -0.2)
    assert np.max(np.abs(ja.coeffs - jb.coeffs)) < 1e-12


def test_domain_and_bands():
    tor = sf.catalog_surface("torus", {"R": 3, "r": 1})
    with pytest.raises(sf.EvalError):
        tor.eval_jets(7.0, 0.0)
    with pytest.raises(sf.EvalError):
        tor.eval_jets(math.pi / 2, 0.0, honor_excluded=True)
    tor.eval_jets(math.pi / 2, 0.0, honor_excluded=False)  # extended ops allowed


def test_config_round_trip(tmp_path):
    cfg = {"kind": "catalog", "id": "torus", "params": {"R": 2, "r": 1}}
    path = tmp_path / "surf.json"
    path.write_text(json.dumps(cfg))
    surf = sf.load_surface_config(str(path))
    assert surf.catalog_id == "torus"
    cfg2 = {"kind": "monge", "expr": "u^2 - v^2", "domain": [-2, 2, -1, 1]}
    surf2 = sf.surface_from_config(cfg2)
    assert surf2.domain == Rect(-2, 2, -1, 1)
    cfg3 = {"kind": "catalog", "id": "pick",
            "params": {"epsilon": -1, "sigma": 1.0, "q": {"4,0": 2.0}}}
    surf3 = sf.surface_from_config(cfg3)
    assert float(surf3.height_jet(0.0, 0.0).partial(4, 0)) == pytest.approx(2.0)

    with pytest.raises(ValueError):
        sf.surface_from_config({"kind": "monge", "expr": "u", "domain": [1, 0, 0, 1]})


def test_rational_exponent_eval():
    surf = sf.monge_surface("(1 + u^2 + v^2)^(1/4)")
    h = surf.height_jet(0.2, 0.1)
    w = (1 + 0.2 ** 2 + 0.1 ** 2)
    assert float(h.value) == pytest.approx(w ** 0.25, rel=1e-14)
    # d/du (w^(1/4)) = (1/4) w^(-3/4) * 2u
    assert float(h.partial(1, 0)) == pytest.approx(0.25 * w ** -0.75 * 0.4, rel=1e-12)


@pytest.mark.parametrize("text, expected", [
    ("-(u - 2*v)^2/4", {(2, 0): -0.25, (1, 1): 1.0, (0, 2): -1.0}),
    ("pi*v^0 + u*1e-3", {(0, 0): math.pi, (1, 0): 1e-3}),
    ("sin(u)", None),
    ("u/v", None),
    ("u/0", None),
    ("u^(1/2)", None),
    ("u^-1", None),
])
def test_as_polynomial_ring(text, expected):
    assert sf.as_polynomial(sf.parse_expression(text)) == expected
