import json
import math
import re

import numpy as np
import pytest

from affasym import surface as sf
from affasym.jets import Jet2, JetDomainError
from affasym.program import Program
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


# -- compiled expression programs against the Jet2 walk ------------------------

# values every grid contains: signed zeros, zeros of sin and cos, and an
# argument at which exp overflows (exp(710) = inf; exp(-u) at u = -710)
SPECIAL = np.array([0.0, -0.0, math.pi / 2, math.pi, 710.0, -710.0, 0.7, -1.3])


def walked(exprs, u, v, order):
    """Jets of the expressions on the Jet2 walk, the reference."""
    uj, vj = Jet2.variable("u", u, order), Jet2.variable("v", v, order)
    return [sf.eval_expression_jet(e, uj, vj) for e in exprs]


def run_program(exprs, u, v, order, prog=None):
    out = (prog or Program(dict(enumerate(exprs)), order))(u, v)
    return [out[k] for k in range(len(exprs))]


def lanes(n, seed):
    rng = np.random.default_rng(seed)
    pool = np.concatenate([SPECIAL, rng.uniform(-4.0, 4.0, 24)])
    return rng.choice(pool, n), rng.choice(pool, n)


def assert_same_bits(got, ref):
    for a, b in zip(got, ref, strict=True):
        assert a.order == b.order and a.coeffs.shape == b.coeffs.shape
        assert np.array_equal(a.coeffs, b.coeffs, equal_nan=True)
        assert np.array_equal(np.signbit(a.coeffs), np.signbit(b.coeffs))


def file_chart_exprs(tmp_path):
    cfg = tmp_path / "chart.json"
    cfg.write_text(json.dumps({
        "kind": "parametric", "domain": [-4, 4, -4, 4],
        "exprs": ["(2 + cos(u))*cos(v)/1.5 + 0.2*u*sin(u)", "u*sin(v) - v^3/7",
                  "sqrt(3 + sin(u*v)) + exp(-u^2) + log(2 + cos(v))"]}))
    surf = sf.load_surface_config(str(cfg))
    assert surf._compiled == (None, None, None)
    return surf.exprs


def parsed(*texts):
    return lambda tmp: tuple(map(sf.parse_expression, texts))


# name: (expressions, whether the program compiles them)
PROGRAM_EXPRESSIONS = {
    "torus": (lambda tmp: sf.catalog_surface("torus", {"R": 3, "r": 1}).exprs, True),
    "transcendental": (parsed("sin(u)*cos(v)+0.1*exp(u)"), True),
    "file": (file_chart_exprs, True),
    "signs": (parsed("-sin(u)", "-sin(u)/4 + cos(v)/(-3)"), True),
    # the v slot of u*u is u*0 + 0*u, and that of sin(u)*(-1) is
    # sin(u)*(-0.0) + 0.0*(-1): zeros of the sign of the data
    "data-signs": (parsed("-(u*u)"), False),
    "negative-constant": (parsed("sin(u)*(-1)"), False),
    # a factor of value 0 would hide the other's overflow (710e400 = inf)
    "zero-factor": (parsed("exp(-u)*(-v) + 0*u", "u + 0*(u*1e200*1e200)"), False),
    "constant-division": (parsed("v/3 - sin(u)/(-4)", "sin(u*v)/7"), True),
    "division": (parsed("u/(1 + v*v)", "tan(u/3) + (2 + u*u)^-2"), False),
    # exp(800) overflows where the walk's jet is NaN; the outer exp of -inf
    # is 0.0 with zero derivatives, so only the argument shows it
    "non-finite-argument": (parsed("u + exp(-exp(800 + u - u))"), True),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # exp(710) overflows on purpose
@pytest.mark.parametrize("name", sorted(PROGRAM_EXPRESSIONS))
def test_program_gives_the_bits_of_the_walk(name, tmp_path):
    build, compiles = PROGRAM_EXPRESSIONS[name]
    exprs = build(tmp_path)
    points = [(float(a), float(b)) for a in SPECIAL for b in SPECIAL]
    for order in range(6):
        prog = Program(dict(enumerate(exprs)), order)
        assert prog.compiled == compiles or not order  # order 0 has no zero slots
        for u, v in points:
            assert_same_bits(run_program(exprs, u, v, order, prog), walked(exprs, u, v, order))
        for n in (5, 40, 300, 35_712):
            u, v = lanes(n, n + order)
            assert_same_bits(run_program(exprs, u, v, order, prog), walked(exprs, u, v, order))
        grid = np.meshgrid(SPECIAL, SPECIAL[::-1])
        assert_same_bits(run_program(exprs, *grid, order, prog), walked(exprs, *grid, order))


def test_surface_jets_read_the_program_compiled_on_first_use():
    tor = sf.catalog_surface("torus", {"R": 3, "r": 1})
    assert tor._programs == {}
    u, v = lanes(40, 1)
    assert_same_bits(tor.eval_jets(u, v, order=3, check=False), walked(tor.exprs, u, v, 3))
    assert list(tor._programs) == [3]
    surf = sf.monge_surface("sin(u)*cos(v)+0.1*exp(u)")
    assert_same_bits([surf.height_jet(u, v, order=5, check=False)], walked(surf.exprs, u, v, 5))
    assert surf._programs[5].compiled


def test_program_shares_subexpressions_and_prunes_zero_terms():
    tor = sf.catalog_surface("torus", {"R": 3, "r": 1})
    tor.eval_jets(0.3, 0.2, order=3, check=False)
    src = tor._programs[3].source
    # (3 + cos(u)) is built once for x and y
    assert src.count("_taylor('cos', u,") == src.count("_taylor('sin', u,") == 1
    # a product of a u-only jet and a v-only jet keeps one of the Leibniz
    # terms of each slot: 10 register products each for x and y, and the
    # one addition is 3 + cos(u)
    assert len(re.findall(r"= r\d+_\d+ \* r\d+_\d+$", src, re.M)) == 20
    assert src.count(" + ") == 1


@pytest.mark.parametrize("text, bad", [
    ("log(u)", 0.0), ("sqrt(u + v)", -0.5), ("(u - v)^(3/2)", -1.0),
    ("u^(-1/3) + v", 0.0), ("v/(u - 0.5)", 0.5), ("tan(u)", math.pi / 2), ("u^-2", 0.0),
])
def test_program_raises_where_the_walk_raises(text, bad):
    exprs = (sf.parse_expression(text),)
    for order in (0, 1, 3, 5):
        for u, v in ((bad, 0.0), (np.array([1.0, bad, 2.0]), np.array([0.5, 0.0, 0.25])),
                     (np.full(40, bad), np.zeros(40))):
            with pytest.raises(JetDomainError) as ref:
                walked(exprs, u, v, order)
            with pytest.raises(JetDomainError) as got:
                run_program(exprs, u, v, order)
            assert str(got.value) == str(ref.value)
        u, v = np.array([1.0, 2.0, 3.0]), np.array([0.25, 0.5, 0.75])
        assert_same_bits(run_program(exprs, u, v, order), walked(exprs, u, v, order))
