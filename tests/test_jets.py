import math

import numpy as np
import pytest

from affasym import jets
from affasym.jets import Jet2, JetDomainError, abs_pow, jet_div, jet_seed


def entries(j):
    out = {}
    for g in range(j.order + 1):
        for i in range(g, -1, -1):
            out[(i, g - i)] = float(j.partial(i, g - i))
    return out


def test_seed_u():
    j = jet_seed("u", 3.0)
    assert len(j.coeffs) == 15
    e = entries(j)
    assert e[(0, 0)] == 3.0 and e[(1, 0)] == 1.0
    assert all(val == 0.0 for key, val in e.items() if key not in ((0, 0), (1, 0)))


def test_seed_v_and_mixed():
    j = jet_seed("v", 0.0)
    e = entries(j)
    assert e[(0, 1)] == 1.0
    assert all(val == 0.0 for key, val in e.items() if key != (0, 1))
    assert float(jet_seed("u", -1.0).partial(1, 1)) == 0.0


def test_mul_uv():
    p = jet_seed("u", 0.0) * jet_seed("v", 0.0)
    e = entries(p)
    assert e[(1, 1)] == 1.0
    assert all(val == 0.0 for key, val in e.items() if key != (1, 1))


def test_mul_square_at_2():
    u = jet_seed("u", 2.0)
    s = u * u
    e = entries(s)
    assert e[(0, 0)] == 4.0 and e[(1, 0)] == 4.0 and e[(2, 0)] == 2.0
    assert all(val == 0.0 for key, val in e.items()
               if key not in ((0, 0), (1, 0), (2, 0)))


def test_div_series_oracle():
    # independent oracle: Taylor coefficients of 1/(1+u) are (-1)^k, so the
    # raw partials are (-1)^k k!
    expected = [(-1.0) ** k * math.factorial(k) for k in range(5)]
    q = jet_div(Jet2.constant(1.0), 1.0 + jet_seed("u", 0.0))
    got = [float(q.partial(k, 0)) for k in range(5)]
    assert got == pytest.approx(expected, abs=1e-14)


def test_sin_series():
    s = jets.sin(jet_seed("u", 0.0))
    assert float(s.partial(1, 0)) == pytest.approx(1.0, abs=1e-15)
    assert float(s.partial(3, 0)) == pytest.approx(-1.0, abs=1e-13)
    assert float(s.partial(0, 0)) == 0.0
    assert float(s.partial(2, 0)) == pytest.approx(0.0, abs=1e-14)
    assert float(s.partial(4, 0)) == pytest.approx(0.0, abs=1e-13)


def test_sqrt_constant():
    r = jets.sqrt(Jet2.constant(4.0))
    e = entries(r)
    assert e[(0, 0)] == 2.0
    assert all(val == 0.0 for key, val in e.items() if key != (0, 0))


def test_abs_pow_series_oracle():
    # univariate series oracle for (1+u)^(-1/4): first derivative is -1/4
    a = abs_pow(1.0 + jet_seed("u", 0.0), -0.25)
    assert float(a.partial(1, 0)) == pytest.approx(-0.25, abs=1e-14)
    # second derivative: (-1/4)(-5/4) = 5/16
    assert float(a.partial(2, 0)) == pytest.approx(5.0 / 16.0, abs=1e-13)


def test_abs_pow_negative_argument():
    # |x|^e branch for x < 0: d/du |c - u^...|: use f = -2 + u at u=0
    a = abs_pow(jet_seed("u", 0.0) - 2.0, -0.25)
    # |u-2|^(-1/4) = (2-u)^(-1/4); derivative at 0: (1/4) 2^(-5/4)
    assert float(a.partial(1, 0)) == pytest.approx(0.25 * 2 ** -1.25, rel=1e-13)


def test_division_degenerate_error():
    with pytest.raises(JetDomainError):
        jet_div(Jet2.constant(1.0), jet_seed("u", 0.0))


def test_unary_domain_errors():
    with pytest.raises(JetDomainError):
        jets.log(jet_seed("u", 0.0))
    with pytest.raises(JetDomainError):
        jets.sqrt(jet_seed("u", -1.0))
    with pytest.raises(JetDomainError):
        abs_pow(jet_seed("u", 0.0), -0.25)


def _random_poly_jet(rng, order=4):
    n = (order + 1) * (order + 2) // 2
    return Jet2(order, rng.uniform(-2, 2, n))


def test_ring_axioms():
    rng = np.random.default_rng(42)
    for _ in range(25):
        a, b, c = (_random_poly_jet(rng) for _ in range(3))
        lhs = (a + b) + c
        rhs = a + (b + c)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12 * max(
            1.0, np.max(np.abs(lhs.coeffs)))
        lhs = a * (b + c)
        rhs = a * b + a * c
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12 * max(
            1.0, np.max(np.abs(lhs.coeffs)))


def test_mul_div_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = _random_poly_jet(rng)
        b = _random_poly_jet(rng)
        b.coeffs[0] = 1.0 + abs(b.coeffs[0])  # admissible divisor
        back = jet_div(a * b, b)
        assert np.max(np.abs(back.coeffs - a.coeffs)) < 1e-10


def test_derivative_is_slot_shift():
    rng = np.random.default_rng(3)
    f = _random_poly_jet(rng, order=4)
    fu = f.du()
    fv = f.dv()
    for g in range(4):
        for i in range(g, -1, -1):
            j = g - i
            assert float(fu.partial(i, j)) == float(f.partial(i + 1, j))
            assert float(fv.partial(i, j)) == float(f.partial(i, j + 1))


FD_CASES = [
    lambda u, v: jets.sin(u * v) + jets.exp(u),
    lambda u, v: jets.cos(u) * jets.cos(v) + u * v * v,
    lambda u, v: jet_div(1.0 + u * u, 2.0 + v) if isinstance(u, Jet2)
    else (1.0 + u * u) / (2.0 + v),
    lambda u, v: jets.sqrt(4.0 + u * u + v * v),
    lambda u, v: jets.tan(0.3 * u + 0.1 * v * v),
    lambda u, v: jets.log(3.0 + u + v * v),
]


def _fd_stencils(h, h3):
    # step h for orders 1-2; third-order stencils need a larger step because
    # their float64 cancellation noise at h = 1e-4 is ~1e-4, above the
    # tolerance floor the entries are held to
    stencils = {
        (1, 0): [(1, 0, 0.5 / h), (-1, 0, -0.5 / h)],
        (0, 1): [(0, 1, 0.5 / h), (0, -1, -0.5 / h)],
        (2, 0): [(1, 0, 1 / h ** 2), (0, 0, -2 / h ** 2), (-1, 0, 1 / h ** 2)],
        (0, 2): [(0, 1, 1 / h ** 2), (0, 0, -2 / h ** 2), (0, -1, 1 / h ** 2)],
        (1, 1): [(1, 1, 0.25 / h ** 2), (1, -1, -0.25 / h ** 2),
                 (-1, 1, -0.25 / h ** 2), (-1, -1, 0.25 / h ** 2)],
        (3, 0): [(2, 0, 0.5 / h3 ** 3), (1, 0, -1 / h3 ** 3),
                 (-1, 0, 1 / h3 ** 3), (-2, 0, -0.5 / h3 ** 3)],
        (0, 3): [(0, 2, 0.5 / h3 ** 3), (0, 1, -1 / h3 ** 3),
                 (0, -1, 1 / h3 ** 3), (0, -2, -0.5 / h3 ** 3)],
        (2, 1): [(1, 1, 0.5 / h3 ** 3), (0, 1, -1 / h3 ** 3), (-1, 1, 0.5 / h3 ** 3),
                 (1, -1, -0.5 / h3 ** 3), (0, -1, 1 / h3 ** 3), (-1, -1, -0.5 / h3 ** 3)],
        (1, 2): [(1, 1, 0.5 / h3 ** 3), (1, 0, -1 / h3 ** 3), (1, -1, 0.5 / h3 ** 3),
                 (-1, 1, -0.5 / h3 ** 3), (-1, 0, 1 / h3 ** 3), (-1, -1, -0.5 / h3 ** 3)],
    }
    steps = {key: (h3 if key[0] + key[1] == 3 else h) for key in stencils}
    return stencils, steps


def fd_check_jet(jet, plain, u0, v0, h=1e-4, h3=3e-3):
    stencils, steps = _fd_stencils(h, h3)
    for (i, j), stencil in stencils.items():
        step = steps[(i, j)]
        fd = sum(w * plain(u0 + a * step, v0 + b * step) for (a, b, w) in stencil)
        got = float(jet.partial(i, j))
        assert abs(got - fd) < max(1e-5, 1e-3 * abs(got)), (i, j, got, fd)


def test_finite_difference_oracle():
    rng = np.random.default_rng(11)
    for fn in FD_CASES:
        for _ in range(4):
            u0, v0 = rng.uniform(-0.7, 0.7, 2)
            jet = fn(jet_seed("u", u0), jet_seed("v", v0))

            def plain(uu, vv):
                return float(fn(jet_seed("u", uu, 2), jet_seed("v", vv, 2)).value)

            fd_check_jet(jet, plain, u0, v0)


def test_order4_entries_exact_on_polynomials():
    # direct polynomial-derivative oracle (independent of jet arithmetic)
    rng = np.random.default_rng(5)
    poly = {(i, j): float(rng.uniform(-1, 1)) for i in range(5) for j in range(5)
            if i + j <= 4}

    def partial_direct(a, b, u, v):
        acc = 0.0
        for (i, j), c in poly.items():
            if i >= a and j >= b:
                acc += (c * math.perm(i, a) * math.perm(j, b)
                        * u ** (i - a) * v ** (j - b))
        return acc

    for _ in range(5):
        u0, v0 = rng.uniform(-1, 1, 2)
        uj, vj = jet_seed("u", u0), jet_seed("v", v0)
        jet = Jet2.constant(0.0)
        for (i, j), c in poly.items():
            jet = jet + c * uj ** i * vj ** j
        for (i, j) in [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]:
            assert abs(float(jet.partial(i, j)) - partial_direct(i, j, u0, v0)) < 1e-3
            assert abs(float(jet.partial(i, j)) - partial_direct(i, j, u0, v0)) < 1e-10


def test_batch_matches_scalar():
    rng = np.random.default_rng(19)
    us = rng.uniform(-0.5, 0.5, 17)
    vs = rng.uniform(-0.5, 0.5, 17)
    fn = FD_CASES[0]
    batch = fn(jet_seed("u", us), jet_seed("v", vs))
    for k in (0, 5, 16):
        single = fn(jet_seed("u", us[k]), jet_seed("v", vs[k]))
        assert np.max(np.abs(batch.coeffs[:, k] - single.coeffs)) < 1e-14


def test_higher_order_support():
    j = jets.sin(jet_seed("u", 0.0, order=6))
    assert float(j.partial(5, 0)) == pytest.approx(1.0, abs=1e-12)
    assert j.order == 6


def awkward_values(rng, shape):
    """Mixed magnitudes with NaN, +-inf, -0.0 and subnormals sprinkled in."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 31, shape)
    pick = rng.random(shape)
    x[pick < 0.03] = np.nan
    x[(pick >= 0.03) & (pick < 0.05)] = np.inf
    x[(pick >= 0.05) & (pick < 0.07)] = -np.inf
    x[(pick >= 0.07) & (pick < 0.10)] = -0.0
    x[(pick >= 0.10) & (pick < 0.12)] = 5e-310
    return x


def same_bits(x, y):
    """Equal bit for bit, NaN positions included.  Only the sign and payload
    of a NaN may differ: the C compiler may swap the operands of an addition,
    which picks which NaN propagates."""
    nan = np.isnan(x)
    return (x.shape == y.shape and np.array_equal(nan, np.isnan(y))
            and np.array_equal(x[~nan].view(np.int64), y[~nan].view(np.int64)))


def both_products(monkeypatch, a, b):
    """a * b through the gather path and through the wide path."""
    monkeypatch.setattr(jets, "WIDE_LANES", 10 ** 12)
    gathered = a * b
    monkeypatch.setattr(jets, "WIDE_LANES", 1)
    wide = a * b
    monkeypatch.undo()
    return gathered.coeffs, wide.coeffs


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("order", range(jets.MAX_ORDER + 1))
@pytest.mark.parametrize("shape", [(1,), (jets.WIDE_LANES - 1,), (jets.WIDE_LANES,),
                                   (35712,), (7, 90)])
def test_wide_product_equals_gather(monkeypatch, order, shape):
    rng = np.random.default_rng([order, *shape])
    n = (order + 1) * (order + 2) // 2
    if order > 4 and shape == (35712,):
        shape = (4000,)  # above order 4 the gathered (pairs x lanes) arrays take 100-420 MB
    a, b = (Jet2(order, awkward_values(rng, (n,) + shape)) for _ in range(2))
    gathered, wide = both_products(monkeypatch, a, b)
    assert np.array_equal(gathered, wide, equal_nan=True)
    assert same_bits(gathered, wide)
    # the real crossover picks the path by lane count alone
    assert same_bits((a * b).coeffs, gathered)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_wide_product_mixed_orders_and_shapes(monkeypatch):
    rng = np.random.default_rng(5)
    a = Jet2(4, awkward_values(rng, (15, 3, 200)))
    b = Jet2(3, awkward_values(rng, (10, 200)))
    point = Jet2(2, awkward_values(rng, (6,)))
    for x, y in ((a, b), (b, a), (a, point), (point, b)):
        gathered, wide = both_products(monkeypatch, x, y)
        assert same_bits(gathered, wide)


@pytest.mark.parametrize("order, lanes", [(1, 5), (3, 35), (3, 7), (2, jets.WIDE_LANES)])
def test_point_jet_times_batch_jet(order, lanes):
    # a single-point jet broadcasts over the lanes of a batch jet, whatever
    # the lane count (5 and 35 are the pair counts at orders 1 and 3)
    vs = np.linspace(0.1, 1.0, lanes)
    a = Jet2.variable("u", 0.5, order) + Jet2.variable("v", 0.25, order) ** 2
    b = jets.exp(Jet2.variable("v", vs, order))
    for got in (a * b, b * a, a + b, b - a, b / a, a / b):
        assert got.coeffs.shape == (a.coeffs.shape[0], lanes)
    for k in (0, lanes // 2, lanes - 1):
        bk = jets.exp(Jet2.variable("v", vs[k], order))
        for got, want in (((a * b), a * bk), ((b * a), bk * a), ((a + b), a + bk),
                          ((b - a), bk - a), ((b / a), bk / a), ((a / b), a / bk)):
            assert np.array_equal(got.coeffs[:, k], want.coeffs)


@pytest.mark.parametrize("order", [4, 5, 6])
@pytest.mark.parametrize("lanes", [1, 2, 6, 40])
def test_division_gives_each_lane_its_bits_alone(order, lanes):
    # a lane divided alone, as a batch of one and inside the batch: numpy's
    # own sum adds one lane's terms pairwise but a batch's in sequence
    rng = np.random.default_rng([order, lanes])
    n = (order + 1) * (order + 2) // 2
    a = rng.standard_normal((n, lanes))
    b = rng.standard_normal((n, lanes))
    b[0] += np.where(b[0] < 0, -2.0, 2.0)
    batch = jet_div(Jet2(order, a), Jet2(order, b)).coeffs
    for k in range(lanes):
        alone = jet_div(Jet2(order, a[:, k]), Jet2(order, b[:, k])).coeffs
        one = jet_div(Jet2(order, a[:, k:k + 1]), Jet2(order, b[:, k:k + 1])).coeffs[:, 0]
        for got in (alone, one):
            assert np.array_equal(got, batch[:, k])
            assert np.array_equal(np.signbit(got), np.signbit(batch[:, k]))


def test_point_jet_times_2d_batch_jet():
    us = np.linspace(0.1, 1.0, 6).reshape(2, 3)
    a = Jet2.variable("v", 0.3, 2)
    b = Jet2.variable("u", us, 2)
    prod = a * b
    assert prod.coeffs.shape == (6, 2, 3)
    want = a * Jet2.variable("u", us[1, 2], 2)
    assert np.array_equal(prod.coeffs[:, 1, 2], want.coeffs)
