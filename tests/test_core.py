"""Basis enumeration and exact sphere integration, checked against
brute-force quadrature (the formula is verified before anything else uses it)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focktrace.core import (SpherePolynomial, degree_multiplicity,
                            enumerate_basis, graded_rank, sphere_integral,
                            sphere_norm_sq)
from oracles import sphere_equal, sphere_monomial, sphere_surface_area
from oracles import sphere_norm_sq as sphere_norm_sq_oracle


def test_enumerate_basis_one_variable():
    assert enumerate_basis(1, 2) == [(0,), (1,), (2,)]


def test_enumerate_basis_graded_lex():
    assert enumerate_basis(2, 1) == [(0, 0), (1, 0), (0, 1)]
    basis = enumerate_basis(2, 3)
    degrees = [sum(a) for a in basis]
    assert degrees == sorted(degrees)
    # within a degree: descending lexicographic
    assert basis[1:3] == [(1, 0), (0, 1)]
    assert basis[3:6] == [(2, 0), (1, 1), (0, 2)]


def test_enumerate_basis_count():
    assert len(enumerate_basis(2, 60)) == 1891
    assert len(enumerate_basis(2, 60)) == math.comb(62, 2)
    for n, D in [(1, 9), (2, 7), (3, 5)]:
        assert len(enumerate_basis(n, D)) == \
            degree_multiplicity(n, np.arange(D + 1)).sum()


def test_degree_multiplicity():
    assert degree_multiplicity(1, np.array([7])).tolist() == [1]
    assert degree_multiplicity(2, np.array([3])).tolist() == [4]
    # enumeration oracle
    assert degree_multiplicity(3, np.array([2])).tolist() == [sum(
        1 for a in enumerate_basis(3, 2) if sum(a) == 2)]
    assert degree_multiplicity(3, np.array([2])).tolist() == [6]
    # exact at large degree, where log-Gamma rounding was off by -569 and -2
    assert degree_multiplicity(3, np.array([10**6])).tolist() == [500001500001]
    assert degree_multiplicity(4, np.array([10001])).tolist() == [math.comb(10004, 3)]
    # C(k+4, 4) passes int64 between k = 2^16 and k = 2^17
    with pytest.raises(ValueError):
        degree_multiplicity(5, np.arange(1 << 17))
    with pytest.raises(ValueError):
        degree_multiplicity(2, np.array([3, -1]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.lists(st.integers(0, 10**6), min_size=1,
                                   max_size=20))
def test_degree_multiplicity_exact_against_comb(n, ks):
    # exact at every size that fits int64, refused above it
    ref = [math.comb(k + n - 1, n - 1) for k in ks]
    if max(ref) > np.iinfo(np.int64).max:
        with pytest.raises(ValueError):
            degree_multiplicity(n, np.array(ks))
    else:
        arr = degree_multiplicity(n, np.array(ks, dtype=np.int64))
        assert arr.dtype == np.int64
        assert arr.tolist() == ref


def _circle_integral_oracle(p, q, m=256):
    # n=1: (1/2pi) integral e^{i(p-q)theta} dtheta, trapezoid is exact
    theta = np.linspace(0.0, 2 * np.pi, m, endpoint=False)
    z = np.exp(1j * theta)
    return np.mean(z ** p[0] * np.conj(z) ** q[0])


def _s3_integral_oracle(p, q, n_phi=48, n_theta=32):
    # zeta = (cos(phi) e^{i t1}, sin(phi) e^{i t2}), dsigma normalized;
    # Gauss-Legendre in phi, trapezoid in the angles (exact for trig polys)
    x, w = np.polynomial.legendre.leggauss(n_phi)
    phi = (x + 1.0) * (np.pi / 4.0)
    wphi = w * (np.pi / 4.0)
    t1 = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    t2 = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    c, s = np.cos(phi), np.sin(phi)
    rad = (c ** (p[0] + q[0])) * (s ** (p[1] + q[1])) * c * s * wphi
    a1 = np.mean(np.exp(1j * (p[0] - q[0]) * t1))
    a2 = np.mean(np.exp(1j * (p[1] - q[1]) * t2))
    total = rad.sum() * a1 * a2 * (2 * np.pi) ** 2
    return total / (2 * np.pi**2)


def test_sphere_integral_against_circle_quadrature():
    for p in range(5):
        for q in range(5):
            P = sphere_monomial(1, (p,), (q,))
            got = sphere_integral(P)
            ref = _circle_integral_oracle((p,), (q,))
            assert abs(got - ref) < 1e-13


def test_sphere_integral_against_s3_quadrature():
    for p in enumerate_basis(2, 3):
        for q in enumerate_basis(2, 3):
            P = sphere_monomial(2, p, q)
            got = sphere_integral(P)
            ref = _s3_integral_oracle(p, q)
            assert abs(got - ref) < 1e-12, (p, q, got, ref)


def test_sphere_integral_examples():
    assert sphere_integral(SpherePolynomial.constant(3)) == 1.0
    assert sphere_integral(sphere_monomial(2, (1, 0), (1, 0))) == pytest.approx(0.5)
    assert sphere_integral(sphere_monomial(2, (2, 0), (2, 0))) == pytest.approx(1 / 3)
    assert sphere_integral(sphere_monomial(2, (1, 0), (0, 1))) == 0.0


def test_sphere_equal_examples():
    n = 2
    rel = (sphere_monomial(n, (1, 0), (1, 0))
           + sphere_monomial(n, (0, 1), (0, 1)))
    assert sphere_equal(rel, SpherePolynomial.constant(n))
    assert not sphere_equal(sphere_monomial(n, (1, 0), (0, 0)),
                            sphere_monomial(n, (0, 1), (0, 0)))
    lhs = sphere_monomial(n, (1, 0), (1, 0)) * rel
    assert sphere_equal(lhs, sphere_monomial(n, (1, 0), (1, 0)))


def test_surface_area_constant():
    assert sphere_surface_area(1) == pytest.approx(2 * math.pi)
    assert sphere_surface_area(2) == pytest.approx(2 * math.pi**2)
    assert sphere_surface_area(3) == pytest.approx(math.pi**3)


def test_norm_identity_polar_factorization():
    # sphere_integral(|z^p|^2) * area * Gamma(|p|+n)/(2 gamma^(|p|+n))
    # equals the Gaussian monomial norm pi^n p!/gamma^(n+|p|)
    from focktrace.fock_matrices import FockContext
    from oracles import monomial_norm_sq
    for n, p, gamma in [(1, (3,), 1.0), (2, (2, 1), 1.0), (2, (1, 0), 2.0),
                        (3, (1, 1, 0), 0.7)]:
        P = sphere_monomial(n, p, p)
        lhs = (sphere_integral(P).real * sphere_surface_area(n)
               * 0.5 * math.gamma(sum(p) + n) / gamma ** (sum(p) + n))
        rhs = monomial_norm_sq(FockContext(n, gamma), p) * (gamma / math.pi) ** n \
            * math.pi ** n / gamma ** n * gamma ** n
        # rhs simplifies to pi^n p!/gamma^(n+|p|)
        rhs = math.pi**n * math.prod(math.factorial(a) for a in p) / gamma ** (n + sum(p))
        assert lhs == pytest.approx(rhs, rel=1e-12)


@st.composite
def sphere_polys(draw, n):
    terms = {}
    count = draw(st.integers(1, 4))
    for _ in range(count):
        p = tuple(draw(st.integers(0, 2)) for _ in range(n))
        q = tuple(draw(st.integers(0, 2)) for _ in range(n))
        c = complex(draw(st.floats(-2, 2)), draw(st.floats(-2, 2)))
        terms[(p, q)] = terms.get((p, q), 0) + c
    return SpherePolynomial(n, terms)


@settings(max_examples=40, deadline=None)
@given(sphere_polys(2))
def test_integral_conjugation(P):
    assert sphere_integral(P.conj()) == pytest.approx(
        sphere_integral(P).conjugate(), abs=1e-12)


def _permute(P, perm):
    """P with its coordinates permuted: zeta_i -> zeta_perm[i]."""
    out = {}
    for (p, q), c in P.terms.items():
        key = (tuple(p[i] for i in perm), tuple(q[i] for i in perm))
        out[key] = out.get(key, 0.0) + c
    return SpherePolynomial(P.n, out)


@settings(max_examples=40, deadline=None)
@given(sphere_polys(3))
def test_integral_permutation_invariance(P):
    base = sphere_integral(P)
    for perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
        assert sphere_integral(_permute(P, perm)) == pytest.approx(base, abs=1e-12)


def test_algebra_basics():
    n = 2
    a = sphere_monomial(n, (1, 0), (0, 0), 2.0)
    b = sphere_monomial(n, (0, 0), (1, 0), 1j)
    prod = a * b
    assert prod.terms == {((1, 0), (1, 0)): 2j}
    assert (a - a).is_zero()
    zeta = np.array([0.6 + 0.3j, 0.2 - 0.1j])
    val = (a + b).evaluate(zeta)
    assert val == pytest.approx(2 * zeta[0] + 1j * np.conj(zeta[0]))
    assert sphere_norm_sq(SpherePolynomial.constant(n, 3.0)) == pytest.approx(9.0)


# exact small values and their negatives make coefficient sums cancel to 0
_COEFFS = [1.0, -1.0, 0.5, -2.0, 1j, -1j, 1 + 1j, -0.5 + 2j]


@st.composite
def sphere_polys_any(draw):
    n = draw(st.integers(1, 3))
    terms = draw(st.lists(st.tuples(
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.one_of(st.sampled_from(_COEFFS),
                  st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                     allow_infinity=False))), max_size=10))
    return SpherePolynomial(n, [((p, q), c) for p, q, c in terms])


@settings(max_examples=200, deadline=None)
@given(sphere_polys_any())
def test_sphere_norm_sq_equals_full_product_bitwise(P):
    got, ref = sphere_norm_sq(P), sphere_norm_sq_oracle(P)
    assert np.float64(got).view(np.uint64) == np.float64(ref).view(np.uint64)


def test_graded_rank_inverts_enumerate_basis():
    for n in (1, 2, 3, 5):
        for D in (0, 1, 4, 7):
            basis = np.array(enumerate_basis(n, D)).reshape(-1, n)
            np.testing.assert_array_equal(graded_rank(basis),
                                          np.arange(basis.shape[0]))
    assert graded_rank(np.zeros((0, 2), dtype=np.int64)).shape == (0,)


def test_sphere_polynomial_refuses_malformed_multi_indices():
    with pytest.raises(ValueError, match="multi-indices"):
        SpherePolynomial(2, {((1,), (0, 0)): 1.0})
    with pytest.raises(ValueError, match="multi-indices"):
        SpherePolynomial(1, {((-1,), (0,)): 1.0})
    # refused whatever the coefficient, so a zero term cannot hide one
    with pytest.raises(ValueError, match="multi-indices"):
        SpherePolynomial(2, {((0, 0), (1,)): 0.0})
