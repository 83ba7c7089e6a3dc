"""Composition calculus: star product against a term-by-term oracle, heat
transform round trips, layer expansions against Gauss-Hermite quadrature."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from focktrace.cli import loglog_slope
from focktrace.core import enumerate_basis, mi_factorial
from focktrace.sphere_calculus import boundary_pairing
from focktrace import weyl_calculus
from focktrace.symbols import RadialSymbol
from focktrace.weyl_calculus import (hankel_leading_symbol, heat_inverse,
                                     heat_layers, heat_quadrature,
                                     heat_transform, star)
from oracles import sphere_equal


def rand_poly(rng, n, deg, density=0.4):
    terms = {}
    for p in enumerate_basis(n, deg):
        for q in enumerate_basis(n, deg - sum(p)):
            if rng.random() < density:
                terms[(p, q, 0.0)] = complex(rng.normal(), rng.normal())
    S = RadialSymbol(n, terms)
    return S if not S.is_zero() else RadialSymbol.constant(n)


def sym_close(a, b, tol=1e-12):
    keys = set(a.terms) | set(b.terms)
    scale = max(max((abs(c) for c in a.terms.values()), default=0.0),
                max((abs(c) for c in b.terms.values()), default=0.0), 1e-300)
    return all(abs(a.terms.get(k, 0.0) - b.terms.get(k, 0.0)) <= tol * scale
               for k in keys)


def test_star_unit():
    rng = np.random.default_rng(0)
    for n in (1, 2):
        a = rand_poly(rng, n, 3)
        one = RadialSymbol.constant(n)
        assert sym_close(star(a, one, 1.3), a, 1e-14)
        assert sym_close(star(one, a, 1.3), a, 1e-14)


def test_star_first_order_example():
    gamma = 1.7
    z = RadialSymbol.coordinate(1, 1)
    zb = z.conj()
    out = star(z, zb, gamma)
    expect = z * zb + RadialSymbol.constant(1, -1.0 / (2 * gamma))
    assert sym_close(out, expect, 1e-14)


def test_star_commutators():
    for gamma in (1.0, 2.5):
        for j in (1, 2):
            for k in (1, 2):
                zj = RadialSymbol.coordinate(2, j)
                zkb = RadialSymbol.coordinate(2, k, conjugated=True)
                comm = star(zj, zkb, gamma) - star(zkb, zj, gamma)
                expect = RadialSymbol.constant(2, -1.0 / gamma if j == k else 0.0)
                assert sym_close(comm, expect, 1e-14)


def test_star_termwise_oracle_at_point():
    # evaluate every (alpha, beta) term of the double sum independently at a
    # point and compare with the assembled symbol
    gamma = 1.0
    n = 2
    a = (RadialSymbol.coordinate(n, 1)
         * RadialSymbol.coordinate(n, 1, conjugated=True))
    b = a
    rng = np.random.default_rng(42)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    total = 0.0 + 0.0j
    nterms = 0
    for alpha in enumerate_basis(n, 2):
        for beta in enumerate_basis(n, 2):
            da = RadialSymbol(n, oracles.poly_deriv(a.terms, alpha, beta))
            db = RadialSymbol(n, oracles.poly_deriv(b.terms, beta, alpha))
            coeff = ((-1.0) ** sum(beta)
                     / (mi_factorial(alpha) * mi_factorial(beta)
                        * (-2.0 * gamma) ** (sum(alpha) + sum(beta))))
            total += coeff * da.evaluate(z) * db.evaluate(z)
            nterms += 1
    assert nterms >= 16
    assert star(a, b, gamma).evaluate(z) == pytest.approx(total, rel=1e-12)


def test_star_associativity_and_conjugation():
    rng = np.random.default_rng(1)
    gamma = 1.0
    for n in (1, 2):
        for _ in range(3):
            a, b, c = (rand_poly(rng, n, 3) for _ in range(3))
            lhs = star(star(a, b, gamma), c, gamma)
            rhs = star(a, star(b, c, gamma), gamma)
            assert sym_close(lhs, rhs, 1e-12)
            assert sym_close(star(a, b, gamma).conj(),
                             star(b.conj(), a.conj(), gamma), 1e-12)


def test_star_degree_filtration():
    # each (alpha, beta) contribution drops total degree by 2(|alpha|+|beta|)
    gamma = 1.0
    a = RadialSymbol.monomial(1, (2,), (1,))
    b = RadialSymbol.monomial(1, (1,), (2,))
    out = star(a, b, gamma)
    degs = {sum(p) + sum(q) for (p, q, _t) in out.terms}
    top = 6
    assert degs <= {top, top - 2, top - 4, top - 6}


def test_heat_examples():
    gamma = 1.3
    zp = RadialSymbol.monomial(1, (3,), (0,))
    assert sym_close(heat_transform(zp, gamma), zp, 1e-15)
    zzb = RadialSymbol.monomial(1, (1,), (1,))
    out = heat_transform(zzb, gamma)
    expect = zzb + RadialSymbol.constant(1, 1.0 / (2 * gamma))
    assert sym_close(out, expect, 1e-15)
    out = heat_inverse(zzb, gamma)
    expect = zzb + RadialSymbol.constant(1, -1.0 / (2 * gamma))
    assert sym_close(out, expect, 1e-15)


def test_heat_roundtrip_degree_eight():
    rng = np.random.default_rng(2)
    gamma = 0.8
    a = rand_poly(rng, 1, 8)
    assert sym_close(heat_inverse(heat_transform(a, gamma), gamma), a, 1e-12)
    b = rand_poly(rng, 2, 5)
    assert sym_close(heat_transform(heat_inverse(b, gamma), gamma), b, 1e-12)


def test_heat_rejects_non_polynomial():
    with pytest.raises(ValueError):
        heat_transform(RadialSymbol.radial_power(1, -2.0), 1.0)


def test_heat_layers_constant_passthrough():
    layers = heat_layers(RadialSymbol.constant(2, 3.5), 3, 1.0)
    assert layers[0].terms == {((0, 0), (0, 0), 0.0): 3.5}
    assert all(l.is_zero() for l in layers[1:])


def test_heat_layers_rejects_positive_order():
    with pytest.raises(ValueError):
        heat_layers(RadialSymbol.coordinate(1, 1), 2, 1.0)


def test_heat_layers_inverse_quadratic_correction():
    gamma = 1.0
    S = RadialSymbol.radial_power(1, -2.0)
    layers = heat_layers(S, 3, gamma)
    r = 7.0
    assert layers[0].evaluate([r]) == pytest.approx(r**-2)
    assert layers[1].is_zero()
    # third layer: -|z|^-4 plus the Laplacian correction of the leading layer
    expect = (-1.0 + 1.0 / (2 * gamma)) * r**-4
    assert layers[2].evaluate([r]) == pytest.approx(expect, rel=1e-12)


def test_heat_quadrature_matches_exact_on_polynomials():
    gamma = 1.1
    a = (RadialSymbol.monomial(1, (1,), (1,))
         + RadialSymbol.monomial(1, (2,), (0,), c=0.3 - 0.2j))
    exact = heat_transform(a, gamma)
    for w in (0.3 + 0.1j, -1.2 + 0.8j):
        assert heat_quadrature(a, w, gamma, nodes=60) == pytest.approx(
            exact.evaluate([w]), rel=1e-11)


def test_heat_quadrature_computes_each_rule_once(monkeypatch):
    # one Gauss-Hermite rule per node count, shared read-only by every call,
    # with the bits of a rule computed afresh for each call
    S = RadialSymbol.radial_power(1, -1.0) + RadialSymbol.monomial(1, (1,), (1,), c=0.3)
    radii = [10.0, 30.0, 100.0]
    fresh = []
    for r in radii:
        weyl_calculus._hermite_rule.cache_clear()
        fresh.append(heat_quadrature(S, r, 1.0, nodes=120))
    weyl_calculus._hermite_rule.cache_clear()
    calls = []
    hermgauss = np.polynomial.hermite.hermgauss
    monkeypatch.setattr(np.polynomial.hermite, "hermgauss",
                        lambda n: calls.append(n) or hermgauss(n))
    got = [heat_quadrature(S, r, 1.0, nodes=120) for r in radii]
    got.append(heat_quadrature(S, 3.0, 1.0, nodes=60))
    assert calls == [120, 60]
    assert got[:3] == fresh
    for a in weyl_calculus._hermite_rule(120):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_heat_layers_generic_decay_slopes():
    # a symbol with every layer populated decays at the generic rate m - N
    gamma = 1.0
    S = RadialSymbol.radial_power(1, -1.0) + RadialSymbol.radial_power(1, -2.0)
    m = S.order()
    radii = [10.0, 30.0, 100.0]
    for N in (1, 2, 3):
        layers = heat_layers(S, N, gamma)
        rem = [abs(heat_quadrature(S, r, gamma, nodes=120)
                   - sum(l.evaluate([r]) for l in layers if not l.is_zero()))
               for r in radii]
        slope = loglog_slope(radii, rem)
        assert abs(slope - (m - N)) < 0.3


def test_heat_layers_vanishing_odd_layers_accelerate_decay():
    # for the pure inverse-quadratic symbol the odd layers vanish, so the
    # remainder after N layers decays like the first nonvanishing layer:
    # slopes -4, -4, -6 for N = 1, 2, 3, always at least as fast as the
    # guaranteed m - N
    gamma = 1.0
    S = RadialSymbol.radial_power(1, -2.0)
    m = S.order()
    radii = [10.0, 30.0, 100.0]
    predicted = {1: -4.0, 2: -4.0, 3: -6.0}
    for N in (1, 2, 3):
        layers = heat_layers(S, N, gamma)
        rem = [abs(heat_quadrature(S, r, gamma, nodes=140)
                   - sum(l.evaluate([r]) for l in layers if not l.is_zero()))
               for r in radii]
        slope = loglog_slope(radii, rem)
        assert slope <= (m - N) + 0.3
        assert abs(slope - predicted[N]) < 0.3


def test_hankel_leading_symbol_examples():
    # a holomorphic first slot kills the pairing; within the order <= 0
    # domain the holomorphic symbols are the constants
    gamma = 1.0
    const = RadialSymbol.constant(2, 2.0 + 1j)
    g = RadialSymbol.monomial(2, (0, 0), (1, 0), -1.0)
    assert hankel_leading_symbol(const, g, gamma).is_zero()
    assert hankel_leading_symbol(g, const, gamma).is_zero()
    f = RadialSymbol.coordinate(1, 1) * RadialSymbol.radial_power(1, -1.0)
    lead_sym = hankel_leading_symbol(f, f, gamma)
    m, lead = lead_sym.leading_sphere_part()
    assert m == -2
    from focktrace.core import SpherePolynomial
    assert sphere_equal(lead, SpherePolynomial.constant(1, 0.25))


def test_hankel_leading_symbol_cross_check():
    # gamma * leading sphere part equals the symbolic boundary pairing
    gamma = 2.0
    cases = [(2, (1, 0), (0, 0), 0, (1, 0), (0, 0), 0),
             (2, (1, 0), (0, 0), 1, (1, 0), (0, 0), 1),
             (2, (0, 1), (1, 0), 1, (1, 0), (0, 1), 2)]
    for n, p, q, mf, pg, qg, mg in cases:
        f = RadialSymbol.monomial(n, p, q, -mf - sum(p) - sum(q))
        g = RadialSymbol.monomial(n, pg, qg, -mg - sum(pg) - sum(qg))
        lead_sym = hankel_leading_symbol(f, g, gamma)
        assert lead_sym.order() <= f.order() + g.order() - 2 + 1e-12
        _, lead = lead_sym.leading_sphere_part()
        _, f0 = f.leading_sphere_part()
        _, g0 = g.leading_sphere_part()
        assert sphere_equal(gamma * lead, boundary_pairing(f0, mf, g0, mg), 1e-10)


def test_hankel_leading_symbol_rejects_positive_order():
    with pytest.raises(ValueError):
        hankel_leading_symbol(RadialSymbol.coordinate(1, 1),
                              RadialSymbol.constant(1), 1.0)


# exact small values and their negatives make coefficient sums cancel to 0
_COEFFS = [1.0, -1.0, 0.5, -2.0, 1j, -1j, 1 + 1j, -0.5 + 2j]


@st.composite
def polynomial_symbols(draw, n):
    terms = draw(st.lists(st.tuples(
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
        st.one_of(st.sampled_from(_COEFFS),
                  st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                     allow_infinity=False))), max_size=5))
    return RadialSymbol(n, [((p, q, 0.0), c) for p, q, c in terms])


@st.composite
def multi_indices(draw, n, deg):
    """A multi-index of length n and total degree at most deg, so one entry
    can reach deg."""
    entries = []
    for _ in range(n):
        entries.append(draw(st.integers(0, deg - sum(entries))))
    return tuple(draw(st.permutations(entries)))


@st.composite
def graded_symbols(draw, n, deg):
    """1 to 5 terms with |p| + |q| <= deg; the zero symbol when deg < 0."""
    if deg < 0:
        return RadialSymbol(n)
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        p = draw(multi_indices(n, deg))
        terms.append(((p, draw(multi_indices(n, deg - sum(p))), 0.0),
                      draw(st.sampled_from(_COEFFS))))
    return RadialSymbol(n, terms)


@st.composite
def star_inputs(draw):
    n = draw(st.integers(1, 3))
    gamma = draw(st.sampled_from([1.0, 0.7, 0.5]))
    shape = draw(st.sampled_from(["small", "lopsided", "wide"]))
    if shape == "small":
        # exponents 0-2 in every slot and arbitrary coefficients
        return draw(polynomial_symbols(n)), draw(polynomial_symbols(n)), gamma
    # exponents up to 6 against the zero symbol, a constant, a symbol of
    # degree at most 1 or another of degree at most 6, on either side
    big = draw(graded_symbols(n, 6))
    other = draw(graded_symbols(n, draw(st.sampled_from([-1, 0, 1]))
                                if shape == "lopsided" else 6))
    return (big, other, gamma) if draw(st.booleans()) else (other, big, gamma)


def _bits(terms):
    return np.array(list(terms.values()), dtype=complex).view(np.uint64)


# a key whose sum cancels to exactly 0 and is then summed again: dropping it
# moves it to the end of the key order
_CANCELLING = (
    RadialSymbol(2, {((0, 0), (0, 0), 0.0): 3.0, ((2, 0), (1, 0), 0.0): 1.0,
                     ((2, 2), (0, 1), 0.0): 1.0}),
    RadialSymbol(2, {((0, 0), (0, 0), 0.0): 3.0, ((2, 1), (2, 0), 0.0): 1.0,
                     ((2, 2), (1, 0), 0.0): 1.0}),
    1.0)


@settings(max_examples=200, deadline=None)
@given(star_inputs())
@example(_CANCELLING)
def test_star_equals_symbol_arithmetic_bitwise(inputs):
    a, b, gamma = inputs
    got, ref = star(a, b, gamma), oracles.star(a, b, gamma)
    assert list(got.terms) == list(ref)
    np.testing.assert_array_equal(_bits(got.terms), _bits(ref))


@pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
def test_gamma_must_be_finite_and_positive(gamma):
    z = RadialSymbol.coordinate(1, 1)
    f = z * RadialSymbol.radial_power(1, -1.0)
    with pytest.raises(ValueError, match="gamma"):
        star(z, z.conj(), gamma)
    with pytest.raises(ValueError, match="gamma"):
        star(z, z, gamma)
    with pytest.raises(ValueError, match="gamma"):
        heat_layers(RadialSymbol.radial_power(1, -2.0), 2, gamma)
    with pytest.raises(ValueError, match="gamma"):
        hankel_leading_symbol(f, f, gamma)
    with pytest.raises(ValueError, match="heat_transform needs gamma"):
        heat_transform(z * z.conj(), gamma)
    with pytest.raises(ValueError, match="heat_inverse needs gamma"):
        heat_inverse(z * z.conj(), gamma)
