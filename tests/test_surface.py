import json
import math
import re

import numpy as np
import pytest

from affasym import affine, surface as sf
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


def test_overflowing_literal_is_a_parse_error():
    # 1e309 rounds to inf; the largest finite literals still parse
    with pytest.raises(ParseError, match="number out of range") as err:
        sf.parse_expression("u + 1e309*v")
    assert err.value.offset == 5
    assert sf.as_polynomial(sf.parse_expression("1e308*u^2")) == {(2, 0): 1e308}


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


_DEEP = {    # an expression k levels deep, and where one of k = 129 passes the bound
    "parentheses": (lambda k: "(" * (k - 1) + "u" + ")" * (k - 1), 129),
    "functions": (lambda k: "sin(" * (k - 1) + "u" + ")" * (k - 1), 513),
    "minus signs": (lambda k: "-" * (k - 1) + "u", 129),
    "sum": (lambda k: "+".join(["u"] * k), 258),
}


@pytest.mark.parametrize("shape", sorted(_DEEP))
def test_an_expression_deeper_than_the_bound_is_refused_while_parsing(shape):
    # the whole expression is one level, and each pair of parentheses,
    # function, minus sign and operator one more: at the bound every
    # recursive walk runs (the parser, the polynomial ring, the Jet2 walk and
    # the compiled program); one level more is a ParseError at the offset
    # where the parser passes the bound, before it recurses any deeper
    make, offset = _DEEP[shape]
    assert sf._MAX_DEPTH == 128
    ast = sf.parse_expression(make(128))
    assert (sf.as_polynomial(ast) is None) == (shape == "functions")
    u, v = np.array([0.3, -0.2]), np.array([0.1, 0.4])
    assert_same_bits(run_program([ast], u, v, 2), walked([ast], u, v, 2))
    with pytest.raises(ParseError, match="deeper than 128 levels") as err:
        sf.parse_expression(make(129))
    assert err.value.offset == offset


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
    # each text means what Python means by it, with ^ as ** and math's functions
    assert len(ROUND_TRIP_CORPUS) >= 30
    names = {k: getattr(math, k) for k in ("pi", "sin", "cos", "tan", "exp", "log", "sqrt")}
    for text in ROUND_TRIP_CORPUS:
        ast = sf.parse_expression(text)
        for u, v in ((0.7, 0.3), (1.3, -0.45)):
            got = float(sf.eval_expression_jet(ast, Jet2.variable("u", u),
                                               Jet2.variable("v", v)).value)
            want = eval(text.replace("^", "**"), {"__builtins__": {}}, {**names, "u": u, "v": v})
            assert math.isclose(got, want, rel_tol=1e-12), (text, u, v, got, want)


def test_values_compare_by_type_and_fields_and_cannot_change():
    # program._Compiler's memo is keyed by AST nodes, and error messages embed
    # the repr of a Rect or a Band
    asts = [sf.parse_expression(text) for text in ROUND_TRIP_CORPUS]
    for text, ast in zip(ROUND_TRIP_CORPUS, asts):
        again = sf.parse_expression(text)
        assert again is not ast and again == ast and hash(again) == hash(ast), text
    assert all(a != b for k, a in enumerate(asts) for b in asts[k + 1:])
    assert len(set(asts)) == len(asts)
    assert sf.Var("u") != sf.Const("u") and sf.Num(1.0) != 1.0
    assert repr(Rect(-1, 1, -1, 1)) == "Rect(u0=-1, u1=1, v0=-1, v1=1)"
    assert repr(sf.Band("u", 1.5, 0.001)) == "Band(axis='u', center=1.5, halfwidth=0.001)"
    assert repr(sf.parse_expression("sin(u)^2+pi*v")) == (
        "Bin(op='+', left=Pow(base=Unary(fn='sin', arg=Var(name='u')), num=2, den=1), "
        "right=Bin(op='*', left=Const(name='pi'), right=Var(name='v')))")
    for value, name in ((Rect(-1, 1, -1, 1), "u0"), (sf.Band("u", 1.5, 0.001), "center"),
                        (asts[0], "name"), (sf.parse_expression("u^2"), "num")):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_torus_position():
    tor = sf.catalog_surface("torus", {"R": 3, "r": 1})
    x, y, z = tor.eval_jets(0.0, 0.0)
    assert (float(x.value), float(y.value), float(z.value)) == (4.0, 0.0, 0.0)


def test_torus_parametrization_formula():
    tor = sf.catalog_surface("torus", {"R": 2, "r": 1})
    rng = np.random.default_rng(0)
    for _ in range(10):
        u, v = rng.uniform(0, 2 * math.pi, 2)
        x, y, z = (float(c.value) for c in tor.eval_jets(u, v))
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
    h = surf.eval_jets(1.0, 2.0)[2]
    assert float(h.partial(1, 1)) == 1.0
    assert float(h.partial(2, 0)) == 0.0
    assert float(h.value) == 2.0


def test_pick_origin_jets():
    pick = sf.catalog_surface("pick", {"epsilon": 1, "sigma": 1.0})
    h = pick.eval_jets(0.0, 0.0)[2]
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
    h = pick.eval_jets(0.0, 0.0)[2]
    assert float(h.partial(0, 2)) == -1.0
    assert float(h.partial(1, 2)) == 0.5  # -eps*sigma


def test_pick_q_orders():
    with pytest.raises(ValueError):
        sf.catalog_surface("pick", {"epsilon": 1, "sigma": 0.0, "q": {(8, 0): 1.0}})
    pick = sf.catalog_surface("pick", {"epsilon": 1, "sigma": 0.0, "q": {(4, 0): 2.0}})
    assert float(pick.eval_jets(0.0, 0.0)[2].partial(4, 0)) == pytest.approx(2.0)


def test_cusp_gauss_constraint():
    sf.catalog_surface("cusp_gauss", {"q21": 1.0, "q40": 1.0})  # 1 - 4 != 0: fine
    with pytest.raises(ValueError):
        sf.catalog_surface("cusp_gauss", {"q21": 2.0, "q40": 1.0})  # 4 - 4 = 0


def test_flat_umbilic_chart_poly():
    fu = sf.catalog_surface("flat_umbilic_chart", {"epsilon": -1})
    assert fu.polys == ({(1, 0): 1.0}, {(0, 1): 1.0}, {(3, 0): 1.0, (1, 2): -3.0})
    fu2 = sf.catalog_surface("flat_umbilic_chart", {"epsilon": 1})
    assert fu2.polys[2] == {(3, 0): 1.0, (1, 2): 3.0}


def test_polynomial_eval_exact():
    # independent direct-differentiation oracle for polynomial charts
    rng = np.random.default_rng(1)
    poly = {(i, j): float(rng.uniform(-1, 1)) for i in range(4) for j in range(4)
            if 0 < i + j <= 4}
    surf = sf.monge_surface(poly, Rect(-1, 1, -1, 1))

    def direct(a, b, u, v):
        return sum(c * math.perm(i, a) * math.perm(j, b) * u ** (i - a) * v ** (j - b)
                   for (i, j), c in poly.items() if i >= a and j >= b)

    for _ in range(10):
        u, v = rng.uniform(-1, 1, 2)
        h = surf.eval_jets(u, v)[2]
        for g in range(5):
            for a in range(g, -1, -1):
                assert abs(float(h.partial(a, g - a)) - direct(a, g - a, u, v)) < 1e-12


def test_expression_matches_poly_path():
    text = "u^3 + 3*u*v^2 + 0.5*u^2 - v^4"
    surf_a = sf.monge_surface(text)
    poly = sf.as_polynomial(sf.parse_expression(text))
    surf_b = sf.monge_surface(poly, Rect(-1, 1, -1, 1))
    ja = surf_a.eval_jets(0.3, -0.2)[2]
    jb = surf_b.eval_jets(0.3, -0.2)[2]
    assert np.max(np.abs(ja.coeffs - jb.coeffs)) < 1e-12


def reference_slots(polys, u, v, order):
    """The former evaluator's per-entry recipe: per slot, the terms
    (w u^i) v^j of its table entries added in table order to +0.0, with the
    powers 1.0, x, x * x and numpy's x ** k for k >= 3; a row of slots per
    polynomial."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    tabs = [entries for p in polys for entries in p.table(order)]
    c = np.zeros((len(tabs),) + np.broadcast_shapes(u.shape, v.shape))

    def power(x, k):
        return 1.0 if k == 0 else x if k == 1 else x * x if k == 2 else x ** k

    for k, entries in enumerate(tabs):
        for w, i, j in entries:
            c[k] += w * power(u, i) * power(v, j)
    return c.reshape((len(polys), len(tabs) // len(polys)) + c.shape[1:])


def extended_polys(surf):
    """(A, B, C) of a polynomial chart's extended field, as ``Poly``."""
    chart = [sf.Poly(p) for p in surf.polys]
    au, av = tuple(c.du() for c in chart), tuple(c.dv() for c in chart)
    return affine.extended_bde_coeffs(affine.cross(au, av))


def same_slot_bits(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return got.shape == ref.shape and np.array_equal(got.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("name, entries",
                         [("cusp_gauss", [4, 7, 8]), ("cusp_law", [83, 209, 344])])
def test_slot_arrays_keep_the_bits_of_the_per_entry_sums(name, entries):
    # every shape takes the one stacked recipe; each lane keeps the bits and
    # sign bits of the per-entry sums, alone, in a batch and across blocks
    if name == "cusp_gauss":
        surf = sf.catalog_surface("cusp_gauss", {"q21": 1.0, "q40": 0.1})
    else:    # the cusp-law field of tests/test_flow.py
        eps, sigma, q13, q40 = 1, 0.9, 0.3, 0.5
        surf = sf.catalog_surface("pick", {
            "epsilon": eps, "sigma": sigma,
            "q": {(1, 3): q13, (3, 1): -eps * q13,
                  (2, 2): -eps * (-2 * sigma ** 2 + q40), (4, 0): q40,
                  (0, 4): q40 + 1.0}}, domain=Rect(-0.35, 0.35, -0.35, 0.35))
    polys = sf.PolySet(extended_polys(surf))
    rng = np.random.default_rng(5)
    grid = np.linspace(-0.35, 0.35, 193)
    signed_zeros = [0.0, -0.0, 0.0, -0.0]
    points = [(0.12, -0.07), (0.0, -0.0), (np.asarray(-0.2), np.asarray(0.31)),
              (0.05, rng.uniform(-0.35, 0.35, 9)), (np.empty(0), np.empty(0)),
              (np.array(signed_zeros + [0.1] * 7), np.array([-0.0, 0.2] * 5 + [0.0])),
              (*np.meshgrid(grid, grid, indexing="ij"),)]
    points += [tuple(rng.uniform(-0.35, 0.35, (2, n))) for n in (1, 2, 11, 12, 300, 4097)]
    for order in (0, 1, 2):
        assert sum(len(e) for p in polys for e in p.table(order)) == entries[order]
        for u, v in points:
            assert same_slot_bits(sf._slot_arrays(polys, u, v, order),
                                  reference_slots(polys, u, v, order))


def test_one_polynomial_at_one_point_sums_in_order():
    # one slot of one lane: a sum that numpy took as one 1-D reduction would
    # run pairwise and differ in the last bits for many of these polynomials,
    # and one that started from its first term would keep a -0.0
    rng = np.random.default_rng(11)
    for _ in range(40):
        keys = rng.permutation([(i, j) for i in range(6) for j in range(6)])[:15]
        coeffs = rng.normal(size=15) * 10.0 ** rng.integers(-3, 4, 15)
        poly = sf.Poly({(int(i), int(j)): float(c) for (i, j), c in zip(keys, coeffs)})
        u, v = rng.uniform(-2, 2, 2)
        assert same_slot_bits(poly(float(u), float(v)),
                              reference_slots((poly,), float(u), float(v), 0)[0, 0])
        assert same_slot_bits(sf._slot_arrays((poly,), np.array([u]), np.array([v]), 0),
                              reference_slots((poly,), np.array([u]), np.array([v]), 0))
    # every term is -0.0 at (-0.0, 0.0), and the sum from +0.0 is +0.0
    poly = sf.Poly({(1, 0): 2.0, (0, 1): -3.0})
    for u, v in ((-0.0, 0.0), (np.array([-0.0, 1.0]), np.array([0.0, -0.0]))):
        assert same_slot_bits(poly(u, v), reference_slots((poly,), u, v, 0)[0, 0])
    assert not np.signbit(poly(-0.0, 0.0))


def test_domain_and_bands():
    tor = sf.catalog_surface("torus", {"R": 3, "r": 1})
    with pytest.raises(sf.EvalError) as err:
        tor.check_domain(7.0, 0.0)
    assert str(err.value) == ("point outside surface domain Rect(u0=0.0, "
                              "u1=6.283185307179586, v0=0.0, v1=6.283185307179586)")
    with pytest.raises(sf.EvalError) as err:
        tor.check_domain(math.pi / 2, 0.0)
    assert str(err.value) == ("point inside excluded band Band(axis='u', "
                              "center=1.5707963267948966, halfwidth=0.001)")
    tor.eval_jets(math.pi / 2, 0.0)  # extended ops allowed: eval_jets checks nothing


def test_tangents_of_linear_components_are_constant_floats():
    surf = sf.parametric_surface(["u + 0.3*v", "v", "sin(u)*v"], Rect(-1, 1, -1, 1))
    au, av = surf.tangent_jets(0.2, 0.1, order=3)
    assert au[:2] == (1.0, 0.0) and av[:2] == (0.3, 1.0)
    assert all(type(x) is float for x in au[:2] + av[:2])
    z = surf.eval_jets(0.2, 0.1, order=3)[2]
    assert_same_bits([au[2], av[2]], [z.du(), z.dv()])


def test_config_round_trip(tmp_path):
    cfg = {"kind": "catalog", "id": "torus", "params": {"R": 2, "r": 1}}
    path = tmp_path / "surf.json"
    path.write_text(json.dumps(cfg))
    surf = sf.load_surface_config(str(path))
    assert surf.torus == (2.0, 1.0)
    cfg2 = {"kind": "monge", "expr": "u^2 - v^2", "domain": [-2, 2, -1, 1]}
    surf2 = sf.surface_from_config(cfg2)
    assert surf2.domain == Rect(-2, 2, -1, 1)
    cfg3 = {"kind": "catalog", "id": "pick",
            "params": {"epsilon": -1, "sigma": 1.0, "q": {"4,0": 2.0}}}
    surf3 = sf.surface_from_config(cfg3)
    assert float(surf3.eval_jets(0.0, 0.0)[2].partial(4, 0)) == pytest.approx(2.0)

    with pytest.raises(ValueError):
        sf.surface_from_config({"kind": "monge", "expr": "u", "domain": [1, 0, 0, 1]})


def test_rational_exponent_eval():
    surf = sf.monge_surface("(1 + u^2 + v^2)^(1/4)")
    h = surf.eval_jets(0.2, 0.1)[2]
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


def assert_same_result(exprs, u, v, order, prog):
    """The program gives the walk's bits, or raises the walk's domain error;
    returns whether it raised."""
    try:
        ref = walked(exprs, u, v, order)
    except JetDomainError as exc:
        with pytest.raises(JetDomainError) as got:
            run_program(exprs, u, v, order, prog)
        assert str(got.value) == str(exc)
        return True
    assert_same_bits(run_program(exprs, u, v, order, prog), ref)
    return False


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
    # every function of jets.FUNCTIONS, tan and a rational power, each outside
    # its domain at some points: log(u) at u <= 0, sqrt(v) at v <= 0, the
    # power at u <= v, tan(u) at u = pi/2
    "functions": (parsed("sin(u)*cos(v) + exp(u)", "log(u)", "sqrt(v)", "(u - v)^(3/2)"), True),
    "tan": (parsed("tan(u)", "tan(v/2)"), False),
}
# the expressions above that leave their domain: no other one raises
LEAVE_DOMAIN = {"functions", "tan"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # exp(710) overflows on purpose
@pytest.mark.parametrize("name", sorted(PROGRAM_EXPRESSIONS))
def test_program_gives_the_bits_of_the_walk(name, tmp_path):
    build, compiles = PROGRAM_EXPRESSIONS[name]
    exprs = build(tmp_path)
    points = [(float(a), float(b)) for a in SPECIAL for b in SPECIAL]
    for order in range(6):
        prog = Program(dict(enumerate(exprs)), order)
        assert prog.compiled == compiles or not order  # order 0 has no zero slots
        raised = {assert_same_result(exprs, u, v, order, prog) for u, v in points}
        for n in (5, 40, 300, 35_712):
            raised.add(assert_same_result(exprs, *lanes(n, n + order), order, prog))
        raised.add(assert_same_result(exprs, *np.meshgrid(SPECIAL, SPECIAL[::-1]), order, prog))
        assert raised == ({False, True} if name in LEAVE_DOMAIN else {False})


def test_surface_jets_read_the_program_compiled_on_first_use():
    tor = sf.catalog_surface("torus", {"R": 3, "r": 1})
    assert tor._programs == {}
    u, v = lanes(40, 1)
    assert_same_bits(tor.eval_jets(u, v, order=3), walked(tor.exprs, u, v, 3))
    assert list(tor._programs) == [3]
    surf = sf.monge_surface("sin(u)*cos(v)+0.1*exp(u)")
    assert_same_bits(surf.eval_jets(u, v, order=5)[2:], walked(surf.exprs[2:], u, v, 5))
    assert surf._programs[5].compiled


def test_program_shares_subexpressions_and_prunes_zero_terms():
    tor = sf.catalog_surface("torus", {"R": 3, "r": 1})
    tor.eval_jets(0.3, 0.2, order=3)
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
