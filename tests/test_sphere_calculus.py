"""Tangential calculus: monomial rules against finite differences of the
degree-0 extension, bracket identities, and the radial-limit pairing."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from focktrace.core import SpherePolynomial, enumerate_basis, sphere_integral
from focktrace.sphere_calculus import (ConvergenceError, boundary_pairing,
                                       boundary_pairing_limit, reeb,
                                       sphere_laplacian, tangential_bracket,
                                       tangential_d, tangential_dbar)
from focktrace.symbols import HomogeneousSymbol, RadialSymbol
from oracles import sphere_equal, sphere_monomial as mono


def rand_sphere_poly(rng, n, deg=3, density=0.4):
    terms = {}
    for p in enumerate_basis(n, deg):
        for q in enumerate_basis(n, deg - sum(p)):
            if rng.random() < density:
                terms[(p, q)] = complex(rng.normal(), rng.normal())
    P = SpherePolynomial(n, terms)
    return P if P.terms else SpherePolynomial.constant(n)


def rand_sphere_point(rng, n):
    v = rng.normal(size=2 * n)
    v /= np.linalg.norm(v)
    return v[:n] + 1j * v[n:]


# --- basic monomial rules ----------------------------------------------------

def test_radial_fields_on_monomials():
    # on degree-0 extensions the anti-holomorphic radial derivative is reeb
    # and the holomorphic one is -reeb
    n = 2
    assert reeb(SpherePolynomial.constant(n)).is_zero()
    assert (-reeb(mono(n, (1, 0), (0, 0)))).terms == {((1, 0), (0, 0)): 0.5}
    assert reeb(mono(n, (0, 1), (1, 0))).is_zero()


def test_reeb_on_monomials():
    n = 2
    assert reeb(SpherePolynomial.constant(n)).is_zero()
    assert reeb(mono(n, (1, 0), (0, 0))).terms == {((1, 0), (0, 0)): -0.5}
    assert reeb(mono(n, (0, 0), (1, 0))).terms == {((0, 0), (1, 0)): 0.5}


def test_tangential_d_examples():
    n = 2
    assert tangential_d(1, mono(n, (0, 0), (1, 0))).is_zero()
    d = tangential_d(1, mono(n, (1, 0), (0, 0)))
    assert d.terms == {((0, 0), (0, 0)): 1.0, ((1, 0), (1, 0)): -1.0}
    # in one variable the tangential holomorphic field vanishes identically
    d1 = tangential_d(1, mono(1, (1,), (0,)))
    assert sphere_equal(d1, SpherePolynomial(1))
    db = tangential_dbar(2, mono(n, (0, 0), (0, 1)))
    assert db.terms == {((0, 0), (0, 0)): 1.0, ((0, 1), (0, 1)): -1.0}


def test_bracket_examples():
    n = 2
    psi = mono(n, (2, 0), (0, 1))
    assert tangential_bracket(SpherePolynomial.constant(n), psi).is_zero()
    br = tangential_bracket(mono(n, (0, 0), (1, 0)), mono(n, (1, 0), (0, 0)))
    assert sphere_equal(br, mono(n, (1, 0), (1, 0), 0.25))
    br2 = tangential_bracket(mono(n, (1, 0), (0, 0)), mono(n, (0, 0), (1, 0)))
    expect = SpherePolynomial.constant(n) - mono(n, (1, 0), (1, 0), 0.75)
    assert sphere_equal(br2, expect)


def test_leibniz_rule():
    rng = np.random.default_rng(1)
    n = 2
    for _ in range(5):
        P = rand_sphere_poly(rng, n, 2)
        Q = rand_sphere_poly(rng, n, 2)
        for op in [lambda R: tangential_d(1, R), lambda R: tangential_dbar(2, R),
                   reeb]:
            lhs = op(P * Q)
            rhs = op(P) * Q + P * op(Q)
            assert sphere_equal(lhs, rhs, 1e-9)


def test_linear_dependency():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        for _ in range(3):
            P = rand_sphere_poly(rng, n, 3)
            lhs = SpherePolynomial(n)
            for j in range(1, n + 1):
                lhs = lhs + mono(n, tuple(int(i == j - 1) for i in range(n)),
                                 (0,) * n) * tangential_d(j, P)
            assert sphere_equal(lhs, SpherePolynomial(n), 1e-9)
            lhs = SpherePolynomial(n)
            for j in range(1, n + 1):
                lhs = lhs + mono(n, (0,) * n,
                                 tuple(int(i == j - 1) for i in range(n))) \
                    * tangential_dbar(j, P)
            assert sphere_equal(lhs, SpherePolynomial(n), 1e-9)


def test_conjugation_identities():
    rng = np.random.default_rng(3)
    n = 2
    for _ in range(5):
        P = rand_sphere_poly(rng, n, 3)
        for j in (1, 2):
            assert sphere_equal(tangential_d(j, P).conj(),
                                tangential_dbar(j, P.conj()), 1e-10)
        assert sphere_equal(reeb(P).conj(), (-1.0) * reeb(P.conj()), 1e-10)


# --- sphere Laplacian --------------------------------------------------------

def _ambient_quarter_laplacian(P):
    out = SpherePolynomial(P.n)
    for (p, q), c in P.terms.items():
        ext = HomogeneousSymbol(P.n, 0.0)
        ext.add_term(p, q, -(sum(p) + sum(q)), c)
        out = out + 0.25 * ext.laplacian().restrict_sphere()
    return out


def test_sphere_laplacian_matches_ambient():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        for _ in range(4):
            P = rand_sphere_poly(rng, n, 3)
            assert sphere_equal(sphere_laplacian(P),
                                _ambient_quarter_laplacian(P), 1e-9)


def test_sphere_laplacian_eigenvalue():
    # degree-l holomorphic harmonics on the (2n-1)-sphere: -l(l+2n-2)/4
    for n, l in [(2, 1), (2, 2), (3, 1)]:
        p = (l,) + (0,) * (n - 1)
        P = mono(n, p, (0,) * n)
        assert sphere_equal(sphere_laplacian(P),
                            (-l * (l + 2 * n - 2) / 4.0) * P)


def test_one_sided_composition_differs_by_reeb_term():
    # the unsymmetrized assembly misses a first-order term: it equals the
    # Laplacian minus (n-1) reeb; pin this so the correction stays documented
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        P = rand_sphere_poly(rng, n, 3)
        one_sided = SpherePolynomial(n)
        for j in range(1, n + 1):
            one_sided = one_sided + tangential_d(j, tangential_dbar(j, P))
        one_sided = one_sided - reeb(reeb(P))
        expected = sphere_laplacian(P) - (n - 1) * reeb(P)
        assert sphere_equal(one_sided, expected, 1e-9)


def test_tangential_fields_against_finite_differences():
    rng = np.random.default_rng(6)
    h = 1e-5
    for n in (1, 2):
        P = rand_sphere_poly(rng, n, 3)

        def ext(z):
            z = np.asarray(z, dtype=complex)
            r = np.sqrt(np.sum(np.abs(z) ** 2))
            return P.evaluate(z / r)

        def wirt(jj, kind, z):
            def shift(dx, dy):
                w = np.asarray(z, dtype=complex).copy()
                w[jj - 1] += dx + 1j * dy
                return ext(w)
            ddx = (shift(h, 0) - shift(-h, 0)) / (2 * h)
            ddy = (shift(0, h) - shift(0, -h)) / (2 * h)
            return (ddx - 1j * ddy) / 2 if kind == "holo" else (ddx + 1j * ddy) / 2

        for _ in range(3):
            zeta = rand_sphere_point(rng, n)
            R = sum(zeta[i] * wirt(i + 1, "holo", zeta) for i in range(n))
            Rbar = sum(np.conj(zeta[i]) * wirt(i + 1, "anti", zeta)
                       for i in range(n))
            for j in range(1, n + 1):
                fd = wirt(j, "holo", zeta) - np.conj(zeta[j - 1]) * R
                assert abs(tangential_d(j, P).evaluate(zeta) - fd) < 1e-6
                fd = wirt(j, "anti", zeta) - zeta[j - 1] * Rbar
                assert abs(tangential_dbar(j, P).evaluate(zeta) - fd) < 1e-6
            fd_reeb = (Rbar - R) / 2.0
            assert abs(reeb(P).evaluate(zeta) - fd_reeb) < 1e-6


# --- boundary pairing --------------------------------------------------------

def test_boundary_pairing_order_zero_reduces_to_bracket():
    rng = np.random.default_rng(7)
    n = 2
    for _ in range(4):
        f0 = rand_sphere_poly(rng, n, 2)
        g0 = rand_sphere_poly(rng, n, 2)
        assert sphere_equal(boundary_pairing(f0, 0, g0, 0),
                            oracles.tangential_bracket(f0.conj(), g0), 1e-9)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_bracket_through_the_pairing_drifts_at_rounding_level(n, deg, seed):
    # the bracket is boundary_pairing at orders 0, which sums the same
    # products in another order: the sphere integrals the trace targets read
    # move by rounding only, against the size |P|_1 |Q|_1 of the products
    rng = np.random.default_rng(seed)
    P, Q = rand_sphere_poly(rng, n, deg), rand_sphere_poly(rng, n, deg)
    new = sphere_integral(tangential_bracket(P, Q))
    old = sphere_integral(oracles.tangential_bracket(P, Q))
    size = sum(map(abs, P.terms.values())) * sum(map(abs, Q.terms.values()))
    assert abs(new - old) <= 1e-14 * size


def test_boundary_pairing_examples():
    n = 2
    z1 = mono(n, (1, 0), (0, 0))
    out = boundary_pairing(z1, 0, z1, 0)
    assert sphere_equal(out, mono(n, (1, 0), (1, 0), 0.25))
    for g0 in [z1, mono(n, (0, 1), (1, 0))]:
        assert sphere_equal(
            boundary_pairing(SpherePolynomial.constant(n), 0, g0, 0),
            SpherePolynomial(n))
    out = boundary_pairing(z1, 1, z1, 1)
    assert sphere_equal(out, mono(n, (1, 0), (1, 0)))


def test_pairing_numeric_holomorphic_degenerate():
    f = RadialSymbol.coordinate(1, 1)
    assert boundary_pairing_limit(f, f, [[1.0]], exponent=2) == [0]


def test_pairing_numeric_canonical_limit():
    f = RadialSymbol.coordinate(1, 1) * RadialSymbol.radial_power(1, -1.0)
    lim, = boundary_pairing_limit(f, f, [[1.0 + 0j]], exponent=2)
    assert abs(lim - 0.25) < 1e-8


def test_pairing_numeric_two_variables():
    f = RadialSymbol.coordinate(2, 1) * RadialSymbol.radial_power(2, -1.0)
    lim1, lim2 = boundary_pairing_limit(f, f, [[1.0, 0.0], [0.0, 1.0]],
                                        exponent=2)
    assert abs(lim1 - 0.25) < 1e-8
    assert abs(lim2) < 1e-10


def test_pairing_numeric_detects_wrong_exponent():
    f = RadialSymbol.coordinate(1, 1) * RadialSymbol.radial_power(1, -1.0)
    with pytest.raises(ConvergenceError):
        boundary_pairing_limit(f, f, [[1.0]], exponent=3)


def test_pairing_numeric_input_validation():
    f = RadialSymbol.coordinate(1, 1)
    with pytest.raises(ValueError):
        boundary_pairing_limit(f, f, [[1.1]], 2)


def test_pairing_numeric_refuses_points_of_another_shape():
    # a point of C^2 on C^1 was evaluated at its first coordinate with |z|^2
    # over both: 0.0324 for [[0.6, 0.8]], where [[1.0]] gives 0.25
    f = RadialSymbol.coordinate(1, 1) * RadialSymbol.radial_power(1, -1.0)
    for pts in ([[0.6, 0.8]], [1.0], [[[1.0]]], np.ones((0, 2))):
        with pytest.raises(ValueError, match="array of points"):
            boundary_pairing_limit(f, f, pts, 2)


def test_pairing_numeric_refuses_a_batch_with_one_point_off_the_sphere():
    f = RadialSymbol.coordinate(2, 1) * RadialSymbol.radial_power(2, -1.0)
    pts = np.array([[1.0, 0.0], [0.6, 0.8j], [0.6, 0.8 + 1e-9]])
    with pytest.raises(ValueError, match="unit sphere"):
        boundary_pairing_limit(f, f, pts, 2)


@st.composite
def pairing_inputs(draw):
    """z^p conj(z)^q (1+|z|^2)^(t/2) of orders -mf and -mg (t <= 0) at n in
    {1, 2, 3}, the exponent mf + mg + 2 of their pairing, and 1 to 4 points
    on the sphere."""
    n = draw(st.integers(1, 3))
    syms = []
    for _ in "fg":
        p, q = (tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
                for _ in "pq")
        m = draw(st.integers(0, 2))
        syms.append((RadialSymbol.monomial(n, p, q, -m - sum(p) - sum(q)), m))
    (f, mf), (g, mg) = syms
    pts = []
    for _ in range(draw(st.integers(1, 4))):
        v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n,
                                   max_size=2 * n)))
        assume(np.linalg.norm(v) > 0.1)
        v /= np.linalg.norm(v)
        pts.append(v[:n] + 1j * v[n:])
    return f, g, mf + mg + 2, np.array(pts)


def _hex(c):
    return c.real.hex(), c.imag.hex()


@settings(max_examples=100, deadline=None)
@given(pairing_inputs())
def test_pairing_numeric_of_a_batch_equals_the_per_point_form_bitwise(inputs):
    f, g, exponent, pts = inputs
    try:
        ref = [oracles.boundary_pairing_limit(f, g, zeta, exponent)
               for zeta in pts]
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            boundary_pairing_limit(f, g, pts, exponent)
        return
    got = boundary_pairing_limit(f, g, pts, exponent)
    assert [_hex(c) for c in got] == [_hex(c) for c in ref]
    single = boundary_pairing_limit(f, g, pts[:1], exponent)
    assert all(type(c) is complex for c in got + single)
    assert [_hex(c) for c in single] == [_hex(ref[0])]


def test_pairing_numeric_matches_symbolic_pointwise():
    rng = np.random.default_rng(8)
    n = 2
    cases = [((1, 0), (0, 0), 0, (1, 0), (0, 0), 0),
             ((1, 0), (0, 0), 1, (1, 0), (0, 0), 2),
             ((0, 1), (1, 0), 2, (1, 0), (0, 1), 1)]
    for p, q, mf, pg, qg, mg in cases:
        f = RadialSymbol.monomial(n, p, q, -mf - sum(p) - sum(q))
        g = RadialSymbol.monomial(n, pg, qg, -mg - sum(pg) - sum(qg))
        _, f0 = f.leading_sphere_part()
        _, g0 = g.leading_sphere_part()
        sym = boundary_pairing(f0, mf, g0, mg)
        pts = [rand_sphere_point(rng, n) for _ in range(5)]
        nums = boundary_pairing_limit(f, g, pts, exponent=mf + mg + 2)
        for zeta, num in zip(pts, nums):
            assert abs(num - sym.evaluate(zeta)) < 1e-7


def test_gamma_free_symbolic_target_value():
    # the closed-form target used by the one-variable Hankel experiments
    n = 1
    f0 = mono(n, (1,), (0,))
    br = tangential_bracket(f0.conj(), f0)
    assert sphere_integral(br).real == pytest.approx(0.25)
