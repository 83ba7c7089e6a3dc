"""Symbol algebra: the term arithmetic of all three term-sum classes against
its plain-dict rules bit for bit, derivative rules against finite
differences, asymptotic layers against direct evaluation, JSON round
trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from focktrace.core import SpherePolynomial
from focktrace.sphere_calculus import tangential_dbar
from focktrace.symbols import HomogeneousSymbol, RadialSymbol
from focktrace.weyl_calculus import heat_inverse
from oracles import sphere_equal

# exact parts, their negatives and both zeros: coefficient sums cancel to
# exactly zero and products meet signed zeros
_PARTS = [1.0, -1.0, 0.5, -0.5, 2.0, -0.25, 0.0, -0.0]
_COEFFS = st.builds(complex, st.sampled_from(_PARTS), st.sampled_from(_PARTS))
_SCALARS = [2.0, -1.0, 0.5j, complex(-0.0, 1.0), 0.0, -3, np.float64(1.5)]


@st.composite
def term_lists(draw, kind, n, deg):
    """(key, c) items of one kind; a layer's exponents s = deg - |p| - |q|."""
    items = []
    for _ in range(draw(st.integers(0, 6))):
        p = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        q = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        if kind == "sphere":
            key = (p, q)
        elif kind == "radial":
            key = (p, q, draw(st.sampled_from([0.0, -1.0, -2.0, 1.0, -0.5])))
        else:
            key = (p, q, deg - sum(p) - sum(q))
        items.append((key, draw(_COEFFS)))
    return items


@st.composite
def term_sums(draw):
    kind = draw(st.sampled_from(["sphere", "radial", "layer"]))
    n = draw(st.integers(1, 2))
    deg = draw(st.sampled_from([0.0, -1.0, -1.5]))
    return (kind, n, deg, draw(term_lists(kind, n, deg)),
            draw(term_lists(kind, n, deg)), draw(st.sampled_from(_SCALARS)))


def _bits(terms):
    return np.array(list(terms.values()), dtype=complex).view(np.uint64)


def _same(got, ref: dict):
    assert list(got.terms) == list(ref)
    assert all(type(c) is complex for c in got.terms.values())
    np.testing.assert_array_equal(_bits(got.terms), _bits(ref))


@settings(max_examples=300, deadline=None)
@given(term_sums())
def test_term_arithmetic_matches_the_plain_dict_rules_bitwise(case):
    kind, n, deg, items_a, items_b, s = case
    make = {"sphere": lambda items: SpherePolynomial(n, items),
            "radial": lambda items: RadialSymbol(n, items),
            "layer": lambda items: HomogeneousSymbol(n, deg, items)}[kind]
    a, b = make(items_a), make(items_b)
    ta, tb = oracles.stored(items_a), oracles.stored(items_b)
    _same(a, ta)
    _same(b, tb)
    _same(a + b, oracles.term_sum(ta, tb))
    _same(a - b, oracles.term_sum(ta, oracles.term_neg(tb)))
    _same(-a, oracles.term_neg(ta))
    _same(a * s, oracles.term_scale(ta, s))
    _same(s * a, oracles.term_scale(ta, s))
    _same(a * b, oracles.term_product(ta, tb))
    _same(a.conj(), oracles.term_conj(ta))
    zero = (0,) * n
    one = oracles.stored([((zero, zero) if kind == "sphere" else (zero, zero, 0.0), 1.0)])
    _same(a ** 2, oracles.term_product(oracles.term_product(one, ta), ta))
    if kind == "sphere":
        for j in range(1, n + 1):
            _same(tangential_dbar(j, a), oracles.tangential_dbar(n, ta, j))
        return
    layer = kind == "layer"
    for j in range(1, n + 1):
        for way in ("holo", "anti"):
            _same(a.wirtinger(j, way), oracles.term_wirtinger(n, ta, j, way, layer))
    _same(a.laplacian(), oracles.term_laplacian(n, ta, layer))
    if layer:
        H = HomogeneousSymbol(n, deg)
        for (p, q, t), c in items_a:
            H.add_term(p, q, t, c)
        _same(H, ta)
        assert a.laplacian().degree == (deg - 1) - 1
        assert (a * b).degree == deg + deg


@settings(max_examples=100, deadline=None)
@given(term_lists("radial", 2, 0.0), st.floats(0.05, 50.0))
def test_heat_inverse_matches_its_alternating_series_bitwise(items, gamma):
    a = RadialSymbol(2, [((p, q, 0.0), c) for (p, q, _t), c in items])
    _same(heat_inverse(a, gamma), oracles.heat_inverse(2, a.terms, gamma))


# point coordinates: signed zeros, exact values and arbitrary finite ones
_FINITE = st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                             allow_infinity=False)
_COORDS = st.one_of(_COEFFS, _FINITE)


@st.composite
def evaluations(draw):
    """A term sum of any kind at n in {1, 2, 3}, with exponents up to 5 (so
    that powers past the cube are taken) and radial factors t <= 0, and a
    point."""
    kind = draw(st.sampled_from(["sphere", "radial", "layer"]))
    n = draw(st.integers(1, 3))
    items = []
    for _ in range(draw(st.integers(0, 5))):
        p, q = (tuple(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
                for _ in "pq")
        t = {"sphere": (), "layer": (-1.0 - sum(p) - sum(q),),
             "radial": (draw(st.sampled_from([0.0, -0.5, -1.0, -2.0, -3.0])),)}
        items.append(((p, q, *t[kind]), draw(st.one_of(_COEFFS, _FINITE))))
    P = {"sphere": lambda: SpherePolynomial(n, items),
         "radial": lambda: RadialSymbol(n, items),
         "layer": lambda: HomogeneousSymbol(n, -1.0, items)}[kind]()
    return P, draw(st.lists(_COORDS, min_size=n, max_size=n))


def _hex(c):
    return c.real.hex(), c.imag.hex()


@settings(max_examples=150, deadline=None)
@given(evaluations())
def test_evaluate_equals_the_numpy_form_bitwise(case):
    P, z = case
    try:
        ref = oracles.evaluate(P, z)
    except ValueError:
        # a layer at the origin
        with pytest.raises(ValueError, match="singular"):
            P.evaluate(z)
        return
    except OverflowError:
        # a radial factor past the float range, near the origin: outside
        # the domain, and refused alike
        with pytest.raises(OverflowError):
            P.evaluate(z)
        return
    got = P.evaluate(z)
    assert type(got) is complex
    assert _hex(got) == _hex(ref)


def test_evaluate_refuses_points_of_another_shape():
    # the first n coordinates were read and |z|^2 summed over all of them:
    # z1 (1+|z|^2)^(-1/2) on C^1 gave 0.424 at [0.6, 0.8], 0.707 at [1.0]
    f = RadialSymbol.coordinate(1, 1) * RadialSymbol.radial_power(1, -1.0)
    assert abs(f.evaluate([1.0]) - 2 ** -0.5) < 1e-15
    for P in (f, oracles.sphere_monomial(1, (1,), (0,))):
        for z in ([0.6, 0.8], 1.0, [[1.0]], []):
            with pytest.raises(ValueError, match="point of C\\^1"):
                P.evaluate(z)


def test_powers_refuse_negative_exponents():
    for S in (RadialSymbol.coordinate(2, 1),
              oracles.sphere_monomial(2, (1, 0), (0, 0))):
        assert list((S ** 0).terms.values()) == [1]
        for k in (-1, -2):
            with pytest.raises(ValueError, match="nonnegative"):
                S ** k


def test_wirtinger_checks_coordinate_and_kind_up_front():
    for S in (RadialSymbol.coordinate(2, 1), RadialSymbol(2),
              HomogeneousSymbol(2, -1.0, {((1, 0), (0, 0), -2.0): 1.0}),
              HomogeneousSymbol(2, -1.0)):
        for j in (0, 3):
            with pytest.raises(ValueError, match="coordinate index"):
                S.wirtinger(j, "holo")
        with pytest.raises(ValueError, match="kind"):
            S.wirtinger(1, "bogus")


def fd_wirtinger(S, j, kind, z, h=1e-5):
    # d/dz = (d/dx - i d/dy)/2, d/dzbar = (d/dx + i d/dy)/2
    z = np.asarray(z, dtype=complex)

    def shift(dx, dy):
        w = z.copy()
        w[j - 1] += dx + 1j * dy
        return S.evaluate(w)

    ddx = (shift(h, 0) - shift(-h, 0)) / (2 * h)
    ddy = (shift(0, h) - shift(0, -h)) / (2 * h)
    if kind == "holo":
        return (ddx - 1j * ddy) / 2
    return (ddx + 1j * ddy) / 2


def test_wirtinger_radial_weight():
    for t in (-1.0, -2.0, 0.5):
        S = RadialSymbol.radial_power(1, t)
        d = S.wirtinger(1, "anti")
        assert d.terms == {((1,), (0,), round(t - 2, 9)): t / 2}


def test_wirtinger_antiholomorphic_kernel():
    S = RadialSymbol.coordinate(2, 1, conjugated=True)
    assert S.wirtinger(1, "holo").is_zero()
    assert S.wirtinger(2, "holo").is_zero()


def test_laplacian_of_quadratic():
    S = RadialSymbol.coordinate(1, 1) * RadialSymbol.coordinate(1, 1, conjugated=True)
    lap = S.laplacian()
    assert lap.terms == {((0,), (0,), 0.0): 4.0}
    # second finite differences cross-check at a point
    z = np.array([0.37 - 0.21j])
    h = 1e-4
    num = 0.0
    for dx, dy in [(h, 0), (-h, 0), (0, h), (0, -h)]:
        w = z.copy()
        w[0] += dx + 1j * dy
        num += S.evaluate(w)
    num = (num - 4 * S.evaluate(z)) / h**2
    assert num == pytest.approx(4.0, abs=1e-5)


def test_wirtinger_finite_differences():
    rng = np.random.default_rng(5)
    for n in (1, 2):
        for _ in range(4):
            terms = {}
            for _ in range(3):
                p = tuple(rng.integers(0, 3) for _ in range(n))
                q = tuple(rng.integers(0, 3) for _ in range(n))
                t = float(rng.choice([-3.0, -2.0, -1.0, 0.0, 1.0]))
                terms[(p, q, t)] = complex(rng.normal(), rng.normal())
            S = RadialSymbol(n, terms)
            r = rng.uniform(1.0, 10.0)
            z = rng.normal(size=n) + 1j * rng.normal(size=n)
            z *= r / np.linalg.norm(z)
            for j in range(1, n + 1):
                for kind in ("holo", "anti"):
                    exact = S.wirtinger(j, kind).evaluate(z)
                    approx = fd_wirtinger(S, j, kind, z)
                    assert abs(exact - approx) <= 1e-6 * (1 + abs(exact))


def test_order():
    assert RadialSymbol.monomial(1, (1,), (1,), -2.0).order() == 0
    for n in (1, 2):
        assert RadialSymbol.radial_power(n, -2.0 * n).order() == -2 * n
    S = RadialSymbol.coordinate(1, 1) * RadialSymbol.radial_power(1, -1.0)
    assert S.order() == 0
    assert RadialSymbol(1).order() == -math.inf


def test_order_of_derivative_drops():
    S = RadialSymbol.coordinate(2, 1) * RadialSymbol.radial_power(2, -3.0)
    assert S.wirtinger(1, "anti").order() == S.order() - 1


def test_order_of_product_adds():
    a = RadialSymbol.coordinate(1, 1) * RadialSymbol.radial_power(1, -1.0)
    b = RadialSymbol.radial_power(1, -2.0)
    assert (a * b).order() == a.order() + b.order()


def test_homogeneous_expansion_inverse_quadratic():
    S = RadialSymbol.radial_power(1, -2.0)
    layers, rem_order = S.homogeneous_expansion(3)
    assert rem_order == -5
    assert layers[0].terms == {((0,), (0,), -2.0): 1.0}
    assert layers[1].is_zero()
    assert layers[2].terms == {((0,), (0,), -4.0): -1.0}


def test_homogeneous_expansion_leading_monomial():
    S = RadialSymbol.coordinate(2, 1) * RadialSymbol.radial_power(2, -1.0)
    layers, _ = S.homogeneous_expansion(1)
    assert layers[0].terms == {((1, 0), (0, 0), -1.0): 1.0}
    assert layers[0].degree == 0


def test_homogeneous_expansion_polynomial_is_single_layer():
    S = RadialSymbol.monomial(2, (2, 0), (0, 1))
    layers, _ = S.homogeneous_expansion(4)
    assert layers[0].terms == {((2, 0), (0, 1), 0.0): 1.0}
    assert all(l.is_zero() for l in layers[1:])


def test_homogeneous_expansion_remainder_decay():
    rng = np.random.default_rng(7)
    for S in [
        RadialSymbol.radial_power(1, -2.0),
        RadialSymbol.coordinate(2, 1) * RadialSymbol.radial_power(2, -1.0),
        RadialSymbol.radial_power(1, -1.0) + RadialSymbol.radial_power(1, -3.0),
    ]:
        n = S.n
        m = S.order()
        for N in (1, 2, 3):
            layers, _ = S.homogeneous_expansion(N)
            zeta = rng.normal(size=n) + 1j * rng.normal(size=n)
            zeta /= np.linalg.norm(zeta)
            scaled = []
            for r in (10.0, 100.0, 1000.0):
                diff = S.evaluate(r * zeta) - sum(
                    l.evaluate(r * zeta) for l in layers if not l.is_zero())
                scaled.append(abs(diff) * r ** (N - m))
            assert max(scaled) < 10 * (abs(scaled[0]) + 1e-30) + 1e-12


def test_leading_sphere_part():
    n = 2
    m, f0 = RadialSymbol.radial_power(n, -2.0 * n).leading_sphere_part()
    assert m == -2 * n
    assert sphere_equal(f0, SpherePolynomial.constant(n))
    S = (RadialSymbol.coordinate(n, 1)
         * RadialSymbol.coordinate(n, 1, conjugated=True)
         * RadialSymbol.radial_power(n, -2.0 * (n + 1)))
    m, f0 = S.leading_sphere_part()
    assert m == -2 * n
    assert sphere_equal(f0, oracles.sphere_monomial(n, (1, 0), (1, 0)))
    S2 = RadialSymbol.coordinate(1, 1) * RadialSymbol.radial_power(1, -1.0)
    m, f0 = S2.leading_sphere_part()
    assert m == 0
    assert sphere_equal(f0, oracles.sphere_monomial(1, (1,), (0,)))


def test_leading_part_conjugation():
    S = (RadialSymbol.monomial(2, (1, 0), (0, 1), -1.5, c=1 + 2j)
         + RadialSymbol.monomial(2, (0, 0), (1, 1), -2.5))
    m1, f0 = S.leading_sphere_part()
    m2, g0 = S.conj().leading_sphere_part()
    assert m1 == m2
    assert sphere_equal(f0.conj(), g0)


def test_json_round_trip():
    S = (RadialSymbol.monomial(2, (1, 0), (0, 2), -3.0, c=0.5 - 1.5j)
         + RadialSymbol.radial_power(2, -1.0))
    data = S.to_json_dict()
    back = RadialSymbol.from_json_dict(data)
    assert back.terms == S.terms
    assert data["n"] == 2
    for item in data["terms"]:
        assert set(item) == {"c", "p", "q", "t"}


def test_radial_symbol_refuses_malformed_multi_indices():
    with pytest.raises(ValueError, match="multi-indices"):
        RadialSymbol(2, {((1,), (0,), 0.0): 1.0})
    with pytest.raises(ValueError, match="multi-indices"):
        RadialSymbol(1, {((-1,), (0,), 0.0): 1.0})
    with pytest.raises(ValueError, match="multi-indices"):
        RadialSymbol(2, [(((0, 0), (2, -1), -1.0), 1j)])
    with pytest.raises(ValueError, match="multi-indices"):
        RadialSymbol(1, {((0,), (0, 0), 0.0): 0.0})


def test_json_rejects_bad_input():
    with pytest.raises(ValueError):
        RadialSymbol.from_json_dict(
            {"n": 2, "terms": [{"c": [1, 0], "p": [1], "q": [0, 0], "t": 0}]})
    with pytest.raises(ValueError):
        RadialSymbol.from_json_dict(
            {"n": 1, "terms": [{"c": [1, 0], "p": [-1], "q": [0], "t": 0}]})


def test_homogeneous_symbol_degree_validation():
    H = HomogeneousSymbol(2, -1.0)
    H.add_term((1, 0), (0, 0), -2.0, 1.0)
    with pytest.raises(ValueError):
        H.add_term((1, 0), (0, 0), 0.0, 1.0)
    d = H.wirtinger(1, "holo")
    assert d.degree == -2.0
