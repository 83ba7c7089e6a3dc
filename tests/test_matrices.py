"""Matrix assembly against direct Gaussian-quadrature inner products and a
per-basis-element loop, products and quantization against the star product,
coherent-state symbols against the heat flow, moment evaluation against
special-function oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import oracles
from focktrace import fock_matrices
from focktrace.cli import _random_sum
from focktrace.fock_matrices import (FockContext, berezin, buffered_product,
                                     scaled_moment_row, toeplitz_matrix,
                                     weyl_matrix)
from focktrace.symbols import RadialSymbol
from focktrace.weyl_calculus import heat_inverse, heat_transform, star
from oracles import (base_moment_45, base_moment_expint, base_moment_quad,
                     compute_row, hankel_product, monomial_norm_sq,
                     normalized_moment_hp, radial_moment, radial_moment_hp,
                     toeplitz_entries)


def gauss_hermite_norm_sq(n, gamma, alpha, nodes=120):
    # 2n-dimensional Gaussian quadrature of |z^alpha|^2 e^(-gamma|z|^2)
    s, w = np.polynomial.hermite.hermgauss(nodes)
    x = s / math.sqrt(gamma)
    wx = w / math.sqrt(gamma)
    out = 1.0
    for a in alpha:
        grid = (x[:, None] ** 2 + x[None, :] ** 2) ** a
        out *= float(np.einsum("i,j,ij->", wx, wx, grid))
    return out


def test_monomial_norm_examples():
    assert monomial_norm_sq(FockContext(1, 1.0), (0,)) == pytest.approx(math.pi)
    assert monomial_norm_sq(FockContext(1, 1.0), (2,)) == pytest.approx(2 * math.pi)
    got = monomial_norm_sq(FockContext(2, 2.0), (1, 0))
    assert got == pytest.approx(math.pi**2 / 8)
    assert got == pytest.approx(gauss_hermite_norm_sq(2, 2.0, (1, 0)), rel=1e-10)


def test_radial_moment_gamma_integral():
    for d, gamma in [(0, 1.0), (3, 1.0), (7, 2.5), (100, 1.0)]:
        assert radial_moment(d, 0.0, gamma) == pytest.approx(
            math.factorial(d) / gamma ** (d + 1), rel=1e-12)


def test_radial_moment_exponential_integral():
    got = radial_moment(0, -2.0, 1.0)
    ref = math.e * special.exp1(1.0)
    assert got == pytest.approx(ref, rel=1e-12)
    assert got == pytest.approx(0.596347, abs=5e-7)


def test_radial_moment_monotonicity():
    assert radial_moment(3, -2.0, 1.0) > radial_moment(3, -2.0, 2.0)
    assert radial_moment(4, -2.0, 1.0) > radial_moment(3, -2.0, 1.0)


def test_radial_moment_against_hyperu():
    # independent special-function oracle:
    # integral = Gamma(d+1) U(d+1, d+2+t/2, gamma)
    for d, t, gamma in [(0, -1.0, 1.0), (3, -1.0, 2.0), (5, -3.0, 1.0),
                        (2, 1.0, 1.5), (4, -1.5, 0.7)]:
        ref = math.gamma(d + 1) * special.hyperu(d + 1, d + 2 + t / 2.0, gamma)
        assert radial_moment(d, t, gamma) == pytest.approx(ref, rel=1e-10)


def test_radial_moment_against_high_precision():
    for d, t, gamma in [(0, -2.0, 1.0), (10, -4.0, 1.0), (17, -1.0, 3.0),
                        (60, 2.0, 1.0)]:
        ref = float(radial_moment_hp(d, t, gamma))
        assert radial_moment(d, t, gamma) == pytest.approx(ref, rel=1e-12)


_BASE_T = (-40.0, -21.0, -12.0, -3.0, -1.0, 0.0, 1.0, 1.9)
_BASE_GAMMA = (0.01, 0.3, 1.0, 2.0, 50.0, 200.0)


def test_base_moment_closed_form_equals_quadrature(monkeypatch):
    # the closed form e^gamma E_(-t/2)(gamma) rounds to the same float as the
    # 30-digit quadrature it replaced, over exponents from -40 to 1.9 and
    # weights from 0.01 to 200: each t with two weights, plus the corners
    pairs = [(t, _BASE_GAMMA[(i + k) % len(_BASE_GAMMA)])
             for i, t in enumerate(_BASE_T) for k in (0, 3)]
    pairs += [(-40.0, 0.01), (-40.0, 200.0), (1.9, 0.01), (1.9, 200.0)]
    monkeypatch.setattr(fock_matrices, "_BASE_CACHE", {})
    for t, gamma in pairs:
        assert fock_matrices._base_moment(t, gamma) == base_moment_quad(t, gamma), (t, gamma)


@pytest.mark.parametrize("gamma", [1e-6, 1e-3, 0.99, 1.0, 2.0, 1e4])
def test_base_moment_equals_expint_oracle(monkeypatch, gamma):
    # the power series below gamma = 1 and the continued fraction from there
    # on; t = -2 and t = -40 take the series' log term (s + k + 1 = 0)
    monkeypatch.setattr(fock_matrices, "_BASE_CACHE", {})
    for t in (-40.0, -1.0000001, -2.0, -1.0, 0.37, 1.999):
        assert fock_matrices._base_moment(t, gamma) == base_moment_expint(t, gamma), t


def test_base_moment_equals_expint_oracle_on_the_quadrature_grid(monkeypatch):
    monkeypatch.setattr(fock_matrices, "_BASE_CACHE", {})
    for t in _BASE_T:
        for gamma in _BASE_GAMMA:
            assert (fock_matrices._base_moment(t, gamma)
                    == base_moment_expint(t, gamma)), (t, gamma)


def test_base_moment_equals_the_45_digit_evaluation(monkeypatch):
    # 32 digits to 1e-27 round to the same float as 45 digits to 1e-40, on
    # exponents -40, -39.5, ..., 2 and 31 weights spaced geometrically from
    # 0.01 to 200: both branches, and t/2 whole and half-whole
    monkeypatch.setattr(fock_matrices, "_BASE_CACHE", {})
    for gamma in np.geomspace(0.01, 200.0, 31).tolist():
        for t in np.arange(-40.0, 2.25, 0.5).tolist():
            assert fock_matrices._base_moment(t, gamma) == base_moment_45(t, gamma), (t, gamma)


def test_scaled_rows_match_radial_moment():
    # recurrence route vs quadrature, for even and odd exponents alike
    for t in (0.0, 2.0, -2.0, -1.0, -3.0, -1.5, 3.0, -6.0):
        for gamma in (1.0, 2.0):
            row = scaled_moment_row(t, gamma, 120)
            for d in (0, 1, 17, 59, 120):
                ref = radial_moment(d, t, gamma) * math.exp(
                    (d + 1) * math.log(gamma) - math.lgamma(d + 1))
                assert row[d] == pytest.approx(ref, rel=5e-11), (t, gamma, d)


def test_one_anchor_rows_equal_the_three_route_rows():
    # byte for byte, except at t = 4, 6, 8, where raising m_0 rounds in
    # the last bits apart from the oracle's sum of rising products, and at
    # t = 0.5, 1, 2.5, 3, raised from the pair's row B where the oracle
    # raises its row A
    for gamma in (0.5, 1.0, 2.0, 7.0):
        for dmax in (255, 4095, 1 << 17):
            for t in (0.0, -0.5, 2.0, -1.0, -2.0, -3.0, -4.0, -5.5, -6.0,
                      -8.0):
                got = scaled_moment_row(t, gamma, dmax)
                assert got.tobytes() == compute_row(t, gamma, dmax).tobytes(), (
                    t, gamma, dmax)
            for t in (0.5, 1.0, 2.5, 3.0, 4.0, 6.0, 8.0):
                got = scaled_moment_row(t, gamma, dmax)
                ref = compute_row(t, gamma, dmax)
                assert np.max(np.abs(got - ref) / ref) <= 1e-15, (t, gamma, dmax)


def test_a_row_has_the_entries_asked_for():
    # built for the call: no minimum length, and nothing kept from a longer
    # row built before
    assert scaled_moment_row(-1.0, 1.0, 10).shape == (11,)
    long = scaled_moment_row(-1.0, 1.0, 1 << 16)
    short = scaled_moment_row(-1.0, 1.0, 10)
    assert short.shape == (11,)
    assert short.tobytes() == long[:11].tobytes()


def test_scaled_rows_large_degree_against_high_precision():
    import mpmath as mp
    gamma = 1.0
    for t in (-2.0, -1.0):
        row = scaled_moment_row(t, gamma, 200_000)
        for d in (1000, 200_000):
            with mp.workdps(40):
                ref = float(radial_moment_hp(d, t, gamma, dps=40)
                            * mp.mpf(gamma) ** (d + 1) / mp.factorial(d))
            assert row[d] == pytest.approx(ref, rel=1e-10)


def test_rows_at_small_gamma_are_accurate_to_1e_12():
    # the region that is accurate: each serial step below d = gamma
    # multiplies the error by gamma/d, so it grows with gamma and |t| (1e-7
    # at gamma = 8, t = -20; such rows leave [0, 1] from about gamma = 50,
    # and `moment_chunks` refuses them); the degrees below 12 and every 36th
    # to 400, against U, which agrees with the quadrature oracle
    import mpmath as mp
    for d, t, gamma in [(0, -9.0, 4.0), (300, -12.0, 4.0)]:
        with mp.workdps(30):
            ref = float(radial_moment_hp(d, t, gamma)
                        * mp.mpf(gamma) ** (d + 1) / mp.factorial(d))
        assert normalized_moment_hp(d, t, gamma) == pytest.approx(ref, rel=1e-15)
    degrees = sorted(set(range(12)) | set(range(12, 401, 36)) | {400})
    for gamma in (2.0, 4.0):
        for t in (-1.0, -2.0, -4.0, -6.0, -9.0, -12.0):
            row = scaled_moment_row(t, gamma, 400)
            for d in degrees:
                ref = normalized_moment_hp(d, t, gamma)
                assert row[d] == pytest.approx(ref, rel=1e-12), (gamma, t, d)


def test_rows_out_of_the_unit_interval_are_refused():
    # m_t[d] for t <= 0 is a mean of (1+X)^(t/2) <= 1: at gamma = 50 the
    # recurrences leave [0, 1] and the row is refused, naming t and gamma;
    # a t > 0 row is not bounded by 1
    with pytest.raises(ValueError, match="t = -2 at gamma = 50 leaves"):
        scaled_moment_row(-2.0, 50.0, 400)
    assert scaled_moment_row(0.0, 50.0, 400).tobytes() == np.ones(401).tobytes()
    assert scaled_moment_row(2.0, 4.0, 400).max() > 1
    for t in (-1.0, -2.0, -6.0, -12.0, -20.0):
        row = scaled_moment_row(t, 16.0, 400)
        assert 0 <= row.min() and row.max() <= 1


def test_toeplitz_identity_symbol():
    ctx = FockContext(2, 1.5)
    M = toeplitz_matrix(ctx, RadialSymbol.constant(2), 4)
    np.testing.assert_allclose(M.entries, np.eye(M.size), atol=1e-14)


def test_toeplitz_model_diagonal():
    ctx = FockContext(1, 1.0)
    M = toeplitz_matrix(ctx, RadialSymbol.radial_power(1, -2.0), 30)
    off = M.entries - np.diag(np.diag(M.entries))
    assert np.max(np.abs(off)) == 0.0
    assert M.entries[0, 0] == pytest.approx(math.e * special.exp1(1.0), rel=1e-12)


def test_toeplitz_shift_matrix():
    gamma = 2.0
    ctx = FockContext(1, gamma)
    M = toeplitz_matrix(ctx, RadialSymbol.coordinate(1, 1), 12)
    for k in range(12):
        assert M.entries[k + 1, k] == pytest.approx(math.sqrt((k + 1) / gamma))


def test_entries_against_direct_gaussian_quadrature():
    # pre-build oracle at n=1: raw inner products by 2-D Gauss-Hermite
    gamma = 1.0
    ctx = FockContext(1, gamma)
    S = (RadialSymbol.monomial(1, (1,), (0,), -1.0, c=0.7)
         + RadialSymbol.monomial(1, (1,), (1,), -2.0, c=0.4j)
         + RadialSymbol.radial_power(1, -2.0))
    D = 5
    M = toeplitz_matrix(ctx, S, D)
    s, w = np.polynomial.hermite.hermgauss(140)
    x = s / math.sqrt(gamma)
    wx = w / math.sqrt(gamma)
    Z = x[:, None] + 1j * x[None, :]
    W2 = wx[:, None] * wx[None, :]
    Svals = np.zeros_like(Z)
    r2 = np.abs(Z) ** 2
    for (p, q, t), c in S.terms.items():
        Svals = Svals + c * Z ** p[0] * np.conj(Z) ** q[0] * (1 + r2) ** (t / 2)
    for a in range(D + 1):
        for b in range(D + 1):
            inner = np.einsum("ij,ij->", W2, Svals * Z**a * np.conj(Z) ** b)
            ref = inner / math.sqrt(monomial_norm_sq(ctx, (a,))
                                    * monomial_norm_sq(ctx, (b,)))
            assert M.entries[b, a] == pytest.approx(ref, abs=1e-10)


def test_buffered_product_examples():
    ctx = FockContext(1, 1.3)
    z = RadialSymbol.coordinate(1, 1)
    zb = z.conj()
    prod = buffered_product(ctx, [zb, z], 10)
    diag = np.diag(prod.entries)
    expect = (np.arange(11) + 1) / 1.3
    np.testing.assert_allclose(diag, expect, rtol=1e-13)
    off = prod.entries - np.diag(diag)
    assert np.max(np.abs(off)) < 1e-14

    # the constant symbol quantizes to the identity: the product is the
    # explicit one at the buffered degree 6 + 1, cut to degree 6
    one = toeplitz_matrix(ctx, RadialSymbol.constant(1), 7).entries
    M = toeplitz_matrix(ctx, z * zb, 7).entries
    same = buffered_product(ctx, [RadialSymbol.constant(1), z * zb], 6)
    np.testing.assert_array_equal(same.entries, (one @ M)[:7, :7])
    np.testing.assert_array_equal(same.entries, M[:7, :7])


def test_buffered_product_grouping_independent():
    ctx = FockContext(2, 1.0)
    a = RadialSymbol.coordinate(2, 1) * RadialSymbol.radial_power(2, -1.0)
    b = a.conj()
    c = RadialSymbol.radial_power(2, -2.0)
    p1 = buffered_product(ctx, [a, b, c], 5)
    # c keeps the degree, so the exact degree-5 block of a b times that of
    # c is the same product
    left = buffered_product(ctx, [a, b], 5).entries
    p2 = left @ toeplitz_matrix(ctx, c, 5).entries
    np.testing.assert_allclose(p1.entries, p2, atol=1e-14)


def test_hankel_examples():
    ctx = FockContext(1, 1.7)
    z = RadialSymbol.coordinate(1, 1)
    H = hankel_product(ctx, z, z, 8)
    assert np.max(np.abs(H)) < 1e-13
    Hb = hankel_product(ctx, z.conj(), z.conj(), 8)
    np.testing.assert_allclose(Hb, np.eye(Hb.shape[0]) / 1.7, atol=1e-13)


def test_hankel_positive_semidefinite():
    ctx = FockContext(1, 1.0)
    f = RadialSymbol.coordinate(1, 1) * RadialSymbol.radial_power(1, -1.0)
    H = hankel_product(ctx, f, f, 25)
    w = np.linalg.eigvalsh((H + H.conj().T) / 2)
    assert w.min() > -1e-13


def test_weyl_matrix_examples():
    gamma = 1.4
    ctx = FockContext(1, gamma)
    z = RadialSymbol.coordinate(1, 1)
    np.testing.assert_allclose(weyl_matrix(ctx, z, 9).entries,
                               toeplitz_matrix(ctx, z, 9).entries, atol=0)
    zzb = z * z.conj()
    W = weyl_matrix(ctx, zzb, 9)
    T = toeplitz_matrix(ctx, zzb, 9)
    np.testing.assert_allclose(
        W.entries, T.entries - np.eye(T.size) / (2 * gamma), atol=1e-13)


def test_weyl_composition_matches_star_symbol():
    rng = np.random.default_rng(9)
    gamma = 1.0
    ctx = FockContext(1, gamma)
    for _ in range(3):
        terms_a = {}
        terms_b = {}
        for p in range(3):
            for q in range(3):
                if rng.random() < 0.5:
                    terms_a[((p,), (q,), 0.0)] = complex(rng.normal(), rng.normal())
                if rng.random() < 0.5:
                    terms_b[((p,), (q,), 0.0)] = complex(rng.normal(), rng.normal())
        a = RadialSymbol(1, terms_a) + RadialSymbol.constant(1)
        b = RadialSymbol(1, terms_b) + RadialSymbol.constant(1)
        WaWb = buffered_product(ctx, [heat_inverse(a, gamma),
                                      heat_inverse(b, gamma)], 12)
        Wab = weyl_matrix(ctx, star(a, b, gamma), 12)
        scale = np.max(np.abs(Wab.entries))
        assert np.max(np.abs(WaWb.entries - Wab.entries)) <= 1e-10 * scale


def test_berezin_identity_symbol():
    ctx = FockContext(1, 1.0)
    I = toeplitz_matrix(ctx, RadialSymbol.constant(1), 40)
    for w in (0.0, 0.3 + 0.4j, -0.9j):
        assert berezin(ctx, [I], [w]) == [pytest.approx(1.0, rel=1e-12)]


def test_berezin_heat_identities():
    gamma = 1.0
    ctx = FockContext(1, gamma)
    zzb = RadialSymbol.monomial(1, (1,), (1,))
    T = toeplitz_matrix(ctx, zzb, 40)
    W = weyl_matrix(ctx, zzb, 40)
    for w in (0.5, 0.2 - 0.7j):
        bt, bw = berezin(ctx, [T, W], [w])
        assert bt == pytest.approx(abs(w) ** 2 + 1.0 / gamma, rel=1e-10)
        assert bw == pytest.approx(abs(w) ** 2 + 1.0 / (2 * gamma), rel=1e-10)
        # general identity: the coherent-state symbol is the heat flow of the
        # quantizing symbol
        E1 = heat_transform(zzb, gamma)
        assert bw == pytest.approx(E1.evaluate([w]), rel=1e-10)


def test_berezin_at_large_degree_and_point():
    # D = 250 is past the float range of 171!, and exp(gamma |w|^2) at
    # |w| = 10 is ~e^100: neither may enter the computation
    rng = np.random.default_rng(9)
    a = RadialSymbol(1, {((p,), (q,), 0.0): complex(rng.normal(), rng.normal())
                         for p in range(5) for q in range(5 - p)})
    for gamma in (1.0, 0.7):
        ctx = FockContext(1, gamma)
        T = toeplitz_matrix(ctx, a, 250)
        E2 = heat_transform(heat_transform(a, gamma), gamma)
        for w in (10.0, 10.0 * np.exp(2.1j)):
            assert berezin(ctx, [T], [w]) == [pytest.approx(E2.evaluate([w]),
                                                            rel=1e-12)]


def test_berezin_truncation_warning():
    ctx = FockContext(1, 1.0)
    I = toeplitz_matrix(ctx, RadialSymbol.constant(1), 10)
    with pytest.warns(RuntimeWarning):
        berezin(ctx, [I], [3.0])


def test_berezin_refuses_matrices_of_different_degrees():
    ctx = FockContext(1, 1.0)
    I = RadialSymbol.constant(1)
    mats = [toeplitz_matrix(ctx, I, 30), toeplitz_matrix(ctx, I, 31)]
    with pytest.raises(ValueError, match="truncation degrees"):
        berezin(ctx, mats, [0.1])


def test_berezin_refuses_no_matrices_and_points_of_another_shape():
    ctx = FockContext(1, 1.0)
    I = toeplitz_matrix(ctx, RadialSymbol.constant(1), 30)
    with pytest.raises(ValueError, match="at least one matrix"):
        berezin(ctx, [], [0.1])
    for w in (0.1, [0.1, 0.2], [[0.1]]):
        with pytest.raises(ValueError, match="point dimension"):
            berezin(ctx, [I], w)


_FINITE = st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                             allow_infinity=False)


@st.composite
def berezin_inputs(draw):
    """Two Toeplitz matrices of one degree D at n in {1, 2, 3}, of symbols
    with radial factors t <= 0, and a point with signed zeros among its
    coordinates; D may be too small for the point."""
    n = draw(st.integers(1, 3))
    ctx = FockContext(n, draw(st.sampled_from([1.0, 0.7, 2.5])))
    D = draw(st.integers(0, {1: 16, 2: 6, 3: 4}[n]))
    mats = []
    for _ in range(2):
        terms = draw(st.lists(st.tuples(
            st.lists(st.integers(0, 2), min_size=n, max_size=n),
            st.lists(st.integers(0, 2), min_size=n, max_size=n),
            st.sampled_from([0.0, -1.0, -2.0, -2.5]), _FINITE),
            min_size=1, max_size=4))
        S = RadialSymbol(n, [((p, q, t), c) for p, q, t, c in terms])
        mats.append(toeplitz_matrix(ctx, S, D))
    w = draw(st.lists(st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -0.5j, complex(-0.0, 0.5)]),
        st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                           allow_infinity=False)), min_size=n, max_size=n))
    return ctx, mats, w


def _hex(c):
    return c.real.hex(), c.imag.hex()


@settings(max_examples=60, deadline=None)
@given(berezin_inputs())
def test_berezin_equals_the_per_matrix_numpy_form_bitwise(inputs):
    ctx, mats, w = inputs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = berezin(ctx, mats, w)
        single = berezin(ctx, mats[:1], w)
    ref = [oracles.berezin(ctx, M, w) for M in mats]
    assert [_hex(c) for c in got] == [_hex(c) for c in ref]
    assert all(type(c) is complex for c in got + single)
    assert [_hex(c) for c in single] == [_hex(ref[0])]
    D = mats[0].D
    for wj in w:
        got = fock_matrices._coherent_factors(complex(wj), ctx.gamma, D)
        ref = oracles.coherent_factors(np.complex128(wj), ctx.gamma, D)
        np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_real_symbol_gives_hermitian_entries():
    ctx = FockContext(2, 1.0)
    real_sym = (RadialSymbol.coordinate(2, 1)
                * RadialSymbol.coordinate(2, 1, conjugated=True)
                * RadialSymbol.radial_power(2, -6.0))
    M = toeplitz_matrix(ctx, real_sym, 8).entries
    np.testing.assert_array_equal(M, M.conj().T)
    notreal = toeplitz_matrix(ctx, RadialSymbol.coordinate(2, 1), 8).entries
    assert not np.array_equal(notreal, notreal.conj().T)


def test_compression_monotonicity():
    # eigenvalues of a positive compression grow with the truncation degree
    ctx = FockContext(1, 1.0)
    f = RadialSymbol.coordinate(1, 1) * RadialSymbol.radial_power(1, -1.0)
    H1 = hankel_product(ctx, f, f, 12)
    H2 = hankel_product(ctx, f, f, 24)
    w1 = np.sort(np.linalg.eigvalsh((H1 + H1.conj().T) / 2))[::-1]
    w2 = np.sort(np.linalg.eigvalsh((H2 + H2.conj().T) / 2))[::-1]
    assert np.all(w1 <= w2[: w1.size] + 1e-12)


def test_truncation_norms_bounded_for_order_zero_symbol():
    # boundedness spot check: operator norms of the compressions of an
    # order-0 symbol increase with the degree but stay below the sup norm
    # of the symbol
    ctx = FockContext(2, 1.0)
    a = (RadialSymbol.coordinate(2, 1)
         * RadialSymbol.coordinate(2, 1, conjugated=True)
         * RadialSymbol.radial_power(2, -2.0))
    norms = []
    for D in (4, 8, 12):
        M = toeplitz_matrix(ctx, a, D)
        norms.append(np.linalg.norm(M.entries, 2))
    assert norms[0] <= norms[1] <= norms[2] + 1e-13
    # sup |a| = sup r^2/(1+r^2) < 1 over the z1-axis
    assert norms[2] <= 1.0


@st.composite
def toeplitz_inputs(draw):
    # exponents up to 3 against small D, so shifts leave the cone and pass
    # degree D; t covers polynomial, fractional and negative radial weights
    n = draw(st.integers(1, 3))
    terms = draw(st.lists(st.tuples(
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.sampled_from([0.0, 2.0, -2.0, -2.5, 1.5, -0.7]),
        st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                           allow_infinity=False)), min_size=1, max_size=5))
    S = RadialSymbol(n, [((p, q, t), c) for p, q, t, c in terms])
    ctx = FockContext(n, draw(st.sampled_from([1.0, 0.7])))
    return ctx, S, draw(st.integers(0, {1: 12, 2: 6, 3: 4}[n]))


@settings(max_examples=150, deadline=None)
@given(toeplitz_inputs())
def test_toeplitz_matrix_equals_basis_loop_bitwise(inputs):
    ctx, S, D = inputs
    M = toeplitz_matrix(ctx, S, D)
    np.testing.assert_array_equal(M.entries.view(np.uint64),
                                  toeplitz_entries(ctx, S, D).view(np.uint64))


def _star_of_random_sums():
    # composition-vs-star's shape: the star product of two n = 2, degree-4
    # draws, 409 terms on 105 shifts p - q, so many terms share an entry
    rng = np.random.default_rng(0)
    a, b = (_random_sum(RadialSymbol, rng, 2, 4) for _ in range(2))
    return star(a, b, 1.0)


@pytest.mark.parametrize("ctx, S, D", [
    (FockContext(1, 1.0), RadialSymbol(1, []), 5),
    (FockContext(2, 0.7), RadialSymbol(2, []), 3),
    (FockContext(2, 0.7), RadialSymbol(2, [(((1, 0), (1, 0), -2.0), 0.5j),
                                           (((0, 0), (0, 0), 1.5), 2.0)]), 0),
    # every shift passes degree D or leaves the cone
    (FockContext(1, 1.0), RadialSymbol(1, [(((3,), (0,), 0.0), 1.0),
                                           (((0,), (3,), -1.0), 1j)]), 2),
    (FockContext(2, 1.0), _star_of_random_sums(), 8),
], ids=["empty-n1", "empty-n2", "D0", "no-pair", "star-product-n2-D8"])
def test_toeplitz_matrix_edge_cases_equal_basis_loop_bitwise(ctx, S, D):
    M = toeplitz_matrix(ctx, S, D)
    np.testing.assert_array_equal(M.entries.view(np.uint64),
                                  toeplitz_entries(ctx, S, D).view(np.uint64))


def test_toeplitz_matrix_builds_one_row_per_radial_exponent(monkeypatch):
    asked = []

    def counted(t, gamma, dmax):
        asked.append(t)
        return scaled_moment_row(t, gamma, dmax)

    monkeypatch.setattr(fock_matrices, "scaled_moment_row", counted)
    S = RadialSymbol(1, [(((1,), (0,), -1.0), 1.0), (((0,), (1,), -1.0), 2.0),
                         (((1,), (1,), -2.0), 0.5)])
    toeplitz_matrix(FockContext(1, 1.0), S, 6)
    assert sorted(asked) == [-2.0, -1.0]
