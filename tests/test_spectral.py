"""Spectra: the dense oracles against independent ones, the diagonal fast
path against the dense route, sequence bookkeeping."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from focktrace import _kernels, spectral
from focktrace.core import degree_multiplicity
from focktrace.fock_matrices import (FockContext, buffered_product,
                                     toeplitz_matrix)
from focktrace.dixmier import extrapolate
from focktrace.spectral import (DiagonalChain, DiagonalConfig,
                                DiagonalityError, SNumberSequence,
                                commutator_config, diagonal_spectrum,
                                hankel_config, toeplitz_config)
from focktrace.symbols import RadialSymbol
from oracles import (csv_by_rows, finish_with_copies, from_values, hankel_product,
                     hermitian_spectrum, per_degree_spectrum, radial_moment, singular_values,
                     snumber_validation, unblocked_values)


def random_matrix(rng, n, hermitian=False):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if hermitian:
        A = (A + A.conj().T) / 2
    return A


CTX1 = FockContext(1, 1.0)


def test_hermitian_spectrum_identity():
    assert list(hermitian_spectrum(np.eye(5))) == [1.0] * 5


def test_hermitian_spectrum_model_diagonal_readoff():
    ctx = FockContext(1, 1.0)
    M = toeplitz_matrix(ctx, RadialSymbol.radial_power(1, -2.0), 50)
    w = hermitian_spectrum(M.entries)
    assert w[0] == pytest.approx(radial_moment(0, -2.0, 1.0), rel=1e-12)


def test_hermitian_spectrum_against_charpoly_roots():
    rng = np.random.default_rng(12)
    H = random_matrix(rng, 6, hermitian=True)
    w = hermitian_spectrum(H, signed=True)
    roots = np.roots(np.poly(H))
    assert np.max(np.abs(roots.imag)) < 1e-8
    got = np.sort(w)
    ref = np.sort(roots.real)
    np.testing.assert_allclose(got, ref, atol=1e-8)


def test_hermitian_gate_rejects():
    rng = np.random.default_rng(13)
    A = random_matrix(rng, 4)
    with pytest.raises(ValueError):
        hermitian_spectrum(A)


def test_singular_values_examples():
    rng = np.random.default_rng(14)
    H = random_matrix(rng, 5, hermitian=True)
    P = H @ H.conj().T  # positive
    np.testing.assert_allclose(singular_values(P), hermitian_spectrum(P),
                               atol=1e-10)

    J = np.zeros((2, 2))
    J[0, 1] = 1.0
    np.testing.assert_allclose(singular_values(J), [1.0, 0.0], atol=1e-14)

    A = random_matrix(rng, 5)
    np.testing.assert_allclose(singular_values(A) ** 2,
                               hermitian_spectrum(A.conj().T @ A), atol=1e-10)


# --- diagonal fast path -------------------------------------------------------

def test_diagonal_model_matches_radial_moment():
    gamma = 1.0
    seq = diagonal_spectrum(CTX1, toeplitz_config(
        RadialSymbol.radial_power(1, -2.0)), 200)
    # eigenvalue at degree k (values are sorted, here decreasing in k)
    for k in (0, 1, 5, 50):
        ref = (radial_moment(k, -2.0, gamma)
               * math.exp((k + 1) * math.log(gamma) - math.lgamma(k + 1)))
        assert seq.values[k] == pytest.approx(ref, rel=1e-12)


def test_diagonal_pointwise_law():
    seq = diagonal_spectrum(CTX1, toeplitz_config(
        RadialSymbol.radial_power(1, -2.0)), 200_000)
    j = 150_000
    assert (j + 1) * seq.values[j] == pytest.approx(1.0, rel=1e-4)


def test_diagonal_two_variable_multiplicities():
    ctx = FockContext(2, 1.0)
    seq = diagonal_spectrum(ctx, toeplitz_config(
        RadialSymbol.radial_power(2, -4.0)), 100)
    assert seq.total == sum(degree_multiplicity(2, k) for k in range(101))
    # radial symbol: one value per degree, multiplicity k+1, decreasing
    np.testing.assert_array_equal(np.sort(seq.mults), np.arange(1, 102))


def test_diagonal_hankel_matches_dense_matrix():
    gamma = 1.0
    ctx = FockContext(1, gamma)
    f = RadialSymbol.coordinate(1, 1) * RadialSymbol.radial_power(1, -1.0)
    H = hankel_product(ctx, f, f, 200)
    dense_diag = np.real(np.diag(H))
    seq = diagonal_spectrum(ctx, hankel_config(f, f), 200)
    # same multiset: diagonal matrix entries are the eigenvalues
    np.testing.assert_allclose(np.sort(seq.values)[::-1],
                               np.sort(dense_diag)[::-1], rtol=1e-12)
    off = H - np.diag(np.diag(H))
    assert np.max(np.abs(off)) < 1e-13


def test_diagonal_rejects_nonzero_total_shift():
    with pytest.raises(DiagonalityError):
        diagonal_spectrum(CTX1, toeplitz_config(RadialSymbol.coordinate(1, 1)), 10)


def test_diagonal_rejects_mixed_shift_factor():
    S = RadialSymbol.coordinate(1, 1) + RadialSymbol.constant(1)
    with pytest.raises(DiagonalityError):
        diagonal_spectrum(CTX1, toeplitz_config(S), 10)


def test_diagonal_rejects_a_chain_of_no_factors():
    # c * I is not compact, so it has no Dixmier trace to estimate
    u = RadialSymbol.radial_power(1, -2.0)
    config = DiagonalConfig(1, [DiagonalChain(1.0, [u]), DiagonalChain(2.0, [])])
    with pytest.raises(DiagonalityError, match="no factors .* identity"):
        diagonal_spectrum(CTX1, config, 10)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_negative_cutoff_is_refused_first(monkeypatch, n):
    f = RadialSymbol.coordinate(n, 1) * RadialSymbol.radial_power(n, -1.0)
    monkeypatch.setattr(spectral, "_plan", None)
    with pytest.raises(ValueError, match=r"need K_degree >= 0, got -1"):
        diagonal_spectrum(FockContext(n, 1.0), hankel_config(f, f), -1)


def test_diagonal_annihilated_walks_are_zero():
    # T_g T_{conj g} hits the vacuum: the first eigenvalue is 0
    g = RadialSymbol.coordinate(1, 1) * RadialSymbol.radial_power(1, -1.0)
    cfg = toeplitz_config(g) * toeplitz_config(g.conj())
    seq = diagonal_spectrum(CTX1, cfg, 50)
    assert seq.values[-1] == 0.0  # the alpha = 0 walk dies
    other = diagonal_spectrum(CTX1, toeplitz_config(g.conj()) * toeplitz_config(g), 50)
    assert np.all(other.values > 0)


def test_truncation_interlacing_toward_diagonal():
    ctx = FockContext(1, 1.0)
    f = RadialSymbol.coordinate(1, 1) * RadialSymbol.radial_power(1, -1.0)
    exact = diagonal_spectrum(ctx, hankel_config(f, f), 400)
    w_small = hermitian_spectrum(hankel_product(ctx, f, f, 30))
    w_big = hermitian_spectrum(hankel_product(ctx, f, f, 60))
    k = w_small.size
    assert np.all(w_small <= w_big[:k] + 1e-12)
    assert np.all(w_big[:k] <= exact.values[:k] + 1e-12)


def test_snumber_sum_inequality():
    # additive law in its two-index form: s_{i+j}(A+B) <= s_i(A) + s_j(B);
    # the same-index variant is false (A=diag(1,0), B=diag(0,1) refutes it)
    rng = np.random.default_rng(15)
    for _ in range(20):
        A = random_matrix(rng, 8)
        B = random_matrix(rng, 8)
        sA = singular_values(A)
        sB = singular_values(B)
        sAB = singular_values(A + B)
        for i in range(8):
            for j in range(8 - i):
                assert sAB[i + j] <= sA[i] + sB[j] + 1e-12


def test_schatten_tail_weak_bound():
    # radial weight at the borderline decay: (j+1)^(1/2) c_j stays bounded
    # and drifts < 2% over the last decade of ranks
    gamma = 1.0
    seq = diagonal_spectrum(CTX1, toeplitz_config(
        RadialSymbol.radial_power(1, -1.0)), 10_000)
    vals = seq.pointwise_values(1000, 10_000 - 1)
    # pointwise_values gives (j+1) s_j; adjust to (j+1)^(1/2) s_j
    j = np.arange(1000, 10_000)
    weak = vals / np.sqrt(j + 1.0)
    drift = (weak.max() - weak.min()) / np.median(weak)
    assert drift < 0.02


def test_schatten_sum_cauchy():
    seq = diagonal_spectrum(CTX1, toeplitz_config(
        RadialSymbol.radial_power(1, -1.5)), 10_000)
    c2 = np.repeat(seq.values, seq.mults) ** 2
    S = np.cumsum(np.sort(c2)[::-1])
    K = S.size - 1
    tail = S[K] - S[int(0.9 * K)]
    assert tail / S[K] < 1e-3


# --- sequence container -------------------------------------------------------

def test_sequence_partial_sums_and_pointwise():
    values = np.array([4.0, 2.0, 1.0])
    mults = np.array([1, 2, 3])
    seq = SNumberSequence(values, mults)
    assert seq.total == 6
    assert seq.partial_sums([0, 2, 5]).tolist() == [4.0, 8.0, 11.0]
    np.testing.assert_allclose(seq.pointwise_values(1, 3),
                               [2 * 2.0, 3 * 2.0, 4 * 1.0])
    with pytest.raises(ValueError):
        seq.partial_sums([6])
    # ranks in nondecreasing order only
    assert seq.partial_sums([2, 2]).tolist() == [8.0, 8.0]
    with pytest.raises(ValueError, match="nondecreasing"):
        seq.partial_sums([2, 0])
    # unit multiplicities: rank j is run j
    unit = from_values([1.0, 4.0, 2.0])
    assert unit.total == 3 and unit.partial_sums([2]).tolist() == [7.0]
    np.testing.assert_array_equal(unit.pointwise_values(1, 2), [2 * 2.0, 3 * 1.0])


def test_partial_sums_of_values_near_the_float_limit():
    # both paths; the split of a value above ~1.3e300 used to overflow into NaN
    values = np.array([1e301, 1e300])
    for seq in (SNumberSequence(values, np.array([1, 1])),
                SNumberSequence(values, np.array([2, 1])),
                from_values(values)):
        want = [1e301, (seq.mults[0] * Fraction(1e301)) + Fraction(1e300)]
        assert seq.partial_sums([0, seq.total - 1]).tolist() == \
            [float(w) for w in want]


def test_sequence_validation():
    with pytest.raises(ValueError):
        SNumberSequence(np.array([1.0, 2.0]), np.array([1, 1]))
    with pytest.raises(ValueError):
        SNumberSequence(np.array([1.0, -0.5]), np.array([1, 1]))
    # signed sequences may carry negative values, ordered by modulus
    seq = SNumberSequence(np.array([-1.0, 0.5]), np.array([1, 1]), signed=True)
    assert seq.signed
    for bad in ([2.0, np.nan, 1.0], [np.inf, 1.0], [-np.inf]):
        with pytest.raises(ValueError, match="finite"):
            SNumberSequence(np.array(bad), np.ones(len(bad), dtype=np.int64),
                            signed=True)
    with pytest.raises(ValueError, match="finite"):
        from_values([2.0, np.nan, 1.0])
    # moduli near the largest float: the sortedness bound overflows to inf
    with np.errstate(over="raise"):
        SNumberSequence(np.array([np.finfo(float).max, 1.0]), np.array([1, 1]))


@pytest.mark.parametrize("block", [1, 2, 5])
def test_sortedness_is_checked_across_block_edges(monkeypatch, block):
    # the blocks overlap by one value, so a rise on any edge is refused
    monkeypatch.setattr(spectral, "_BLOCK", block)
    v = np.arange(12.0, 0.0, -1.0)
    for signed in (False, True):
        w = v * np.where(np.arange(12) % 3, 1.0, -1.0) if signed else v
        SNumberSequence(w, np.ones(12, dtype=np.int64), signed=signed)
        for i in range(11):
            bad = w.copy()
            bad[i], bad[i + 1] = bad[i + 1], bad[i]
            with pytest.raises(ValueError, match="sorted"):
                SNumberSequence(bad, np.ones(12, dtype=np.int64), signed=signed)


_EDGE_MODULI = [0.0, 5e-324, 1e-300, 2e-300, 1.0, float(np.finfo(float).max)]


@st.composite
def nearly_sorted_sequences(draw):
    # moduli in nonincreasing order, then values tied to the one before,
    # nudged up by 1 to 12 ulps (inside and beyond the 1e-15 relative
    # tolerance, and the 1e-300 absolute one near 0), swapped with the next,
    # negated, or made non-finite; multiplicities a stride-0 view of ones or
    # an array that may hold 0 or -1; blocks that put edges anywhere
    moduli = draw(st.lists(st.floats(0, float(np.finfo(float).max))
                           | st.sampled_from(_EDGE_MODULI), max_size=24))
    v = np.sort(np.array(moduli, dtype=float))[::-1].copy()
    for i in range(v.size):
        op = draw(st.sampled_from(["keep", "tie", "nudge", "swap", "negate",
                                   "non-finite"]))
        if op == "tie" and i:
            v[i] = v[i - 1]
        if op in ("tie", "nudge"):
            for _ in range(draw(st.integers(1, 12))):
                with np.errstate(over="ignore"):  # the largest float goes to inf
                    v[i] = np.nextafter(v[i], np.inf)
        elif op == "swap" and i + 1 < v.size:
            v[i], v[i + 1] = v[i + 1], v[i]
        elif op == "negate":
            v[i] = -v[i]
        elif op == "non-finite" and draw(st.integers(0, 9)) == 0:
            v[i] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    if draw(st.booleans()):
        mults = np.broadcast_to(np.int64(1), v.shape)
    else:
        mults = np.array(draw(st.lists(st.integers(-1, 3), min_size=v.size,
                                       max_size=v.size)), dtype=np.int64)
    return v, mults, draw(st.booleans()), draw(st.sampled_from([1, 2, 5, 1 << 14]))


@settings(max_examples=200, deadline=None)
@given(nearly_sorted_sequences())
def test_validation_matches_the_bound_over_every_value(case):
    # exact order first and the tolerant bound only where it fails, in
    # blocks, refuses what the bound built over every value refuses, with
    # the same error, and nothing else
    v, mults, signed, block = case
    with mock.patch.object(spectral, "_BLOCK", block):
        try:
            SNumberSequence(v, mults, signed=signed)
            got = None
        except ValueError as exc:
            got = str(exc)
    assert got == snumber_validation(v, mults, signed)


def test_sequence_merge_is_directsum_spectrum():
    a = SNumberSequence(np.array([3.0, 1.0]), np.array([1, 2]))
    b = SNumberSequence(np.array([2.0, 1.5]), np.array([2, 1]))
    m = a.merge(b)
    expanded = np.repeat(m.values, m.mults)
    np.testing.assert_allclose(expanded, [3.0, 2.0, 2.0, 1.5, 1.0, 1.0])


def test_sequence_csv(tmp_path):
    # one row per run, for unit multiplicities too
    seq = SNumberSequence(np.array([2.0, 1.0]), np.array([1, 2]))
    p = tmp_path / "spectrum.csv"
    seq.to_csv(p)
    assert p.read_text().splitlines() == [
        "first_rank,multiplicity,value", "0,1,2", "1,2,1"]
    from_values([1.0, 3.0]).to_csv(p)
    assert p.read_text().splitlines() == [
        "first_rank,multiplicity,value", "0,1,3", "1,1,1"]


@pytest.mark.parametrize("unit", [True, False])
def test_sequence_csv_matches_the_row_writer(tmp_path, monkeypatch, unit):
    # blocks of runs across block edges, signed values, -0.0 and the
    # smallest subnormal: the same bytes as one f-string per run
    monkeypatch.setattr(spectral, "_BLOCK", 7)
    rng = np.random.default_rng(4)
    values = np.concatenate([[-3e300, 2.5, -1.0 / 3], rng.normal(size=40),
                             [5e-324, -0.0]])
    values = values[np.argsort(-np.abs(values), kind="stable")]
    mults = (np.broadcast_to(np.int64(1), values.shape) if unit
             else rng.integers(1, 10 ** 12, values.size))
    seq = SNumberSequence(values, mults, signed=True)
    seq.to_csv(tmp_path / "blocks.csv")
    csv_by_rows(seq, tmp_path / "rows.csv")
    got = (tmp_path / "blocks.csv").read_bytes()
    assert got == (tmp_path / "rows.csv").read_bytes()
    tail = [row.split(b",")[2] for row in got.splitlines()[-2:]]
    assert tail == [b"4.9406564584124654e-324", b"-0"]


def test_diagonal_two_variable_matches_dense_matrix():
    # the two-variable Hankel product is diagonal in the graded basis; its
    # dense compression must agree with the per-multi-index fast path
    ctx = FockContext(2, 1.0)
    f = RadialSymbol.coordinate(2, 1) * RadialSymbol.radial_power(2, -1.0)
    D = 14
    H = hankel_product(ctx, f, f, D)
    off = H - np.diag(np.diag(H))
    assert np.max(np.abs(off)) < 1e-13
    seq = diagonal_spectrum(ctx, hankel_config(f, f), D)
    dense = np.sort(np.real(np.diag(H)))[::-1]
    fast = np.sort(np.repeat(seq.values, seq.mults))[::-1]
    np.testing.assert_allclose(fast, dense, rtol=1e-12, atol=1e-15)


def test_diagonal_three_variables():
    ctx = FockContext(3, 1.0)
    # radial path: multiplicities are the degree counts
    seq = diagonal_spectrum(ctx, toeplitz_config(
        RadialSymbol.radial_power(3, -6.0)), 30)
    assert seq.total == sum(degree_multiplicity(3, k) for k in range(31))
    # per-multi-index path via enumeration
    f = RadialSymbol.coordinate(3, 1) * RadialSymbol.radial_power(3, -1.0)
    seq2 = diagonal_spectrum(ctx, hankel_config(f, f), 12)
    assert seq2.total == sum(degree_multiplicity(3, k) for k in range(13))
    H = hankel_product(ctx, f, f, 12)
    dense = np.sort(np.real(np.diag(H)))[::-1]
    fast = np.sort(np.repeat(seq2.values, seq2.mults))[::-1]
    np.testing.assert_allclose(fast, dense, rtol=1e-12, atol=1e-15)


def test_dense_pipeline_agrees_with_diagonal_engine():
    # full dual route at desk scale: assemble the operator matrix, eigensolve,
    # and compare the leading s-numbers and log-means with the per-degree
    # engine; the product matrix is exactly diagonal so agreement is sharp
    from focktrace.dixmier import log_mean
    ctx = FockContext(1, 1.0)
    f = RadialSymbol.coordinate(1, 1) * RadialSymbol.radial_power(1, -1.0)
    dense = hermitian_spectrum(hankel_product(ctx, f, f, 600))
    diag = diagonal_spectrum(ctx, hankel_config(f, f), 1200)
    np.testing.assert_allclose(dense[:400], diag.values[:400], rtol=1e-12)
    dense_seq = from_values(dense)
    assert log_mean(dense_seq, [400]) == pytest.approx(log_mean(diag, [400]),
                                                       rel=1e-12)


# largest truncation degree per dimension: dense sizes 31, 55 and 56
_PROPERTY_MAX_DEGREE = {1: 30, 2: 9, 3: 5}


@st.composite
def shift_cancelling_cases(draw):
    n = draw(st.integers(1, 3))
    p = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    t = -draw(st.integers(0, 8)) / 2.0
    D = draw(st.integers(1, _PROPERTY_MAX_DEGREE[n]))
    kind = draw(st.sampled_from(["radial-toeplitz", "hankel", "commutator"]))
    return n, p, t, D, kind


@settings(max_examples=40, deadline=None)
@given(shift_cancelling_cases())
def test_diagonal_spectrum_matches_dense_eigenvalues(case):
    # f = z^p (1+|z|^2)^(t/2); every configuration below cancels its shifts,
    # so its degree-<=D truncation is exactly diagonal and the per-degree
    # path must reproduce the dense eigenvalues with their multiplicities
    n, p, t, D, kind = case
    ctx = FockContext(n, 1.0)
    f = RadialSymbol.monomial(n, p, (0,) * n, t)
    if kind == "radial-toeplitz":
        S = RadialSymbol.radial_power(n, t)
        config, entries = toeplitz_config(S), toeplitz_matrix(ctx, S, D).entries
    elif kind == "hankel":
        config = hankel_config(f, f)
        entries = hankel_product(ctx, f, f, D)
    else:
        g = f.conj() * RadialSymbol.radial_power(n, t)
        config = commutator_config(f, g)
        entries = (buffered_product(ctx, [f, g], D).entries
                   - buffered_product(ctx, [g, f], D).entries)
    dense = np.sort(hermitian_spectrum(entries, signed=True))
    seq = diagonal_spectrum(ctx, config, D)
    fast = np.sort(np.repeat(seq.values, seq.mults))
    assert fast.shape == dense.shape
    scale = max(float(np.max(np.abs(dense))), float(np.max(np.abs(fast))))
    np.testing.assert_allclose(fast, dense, rtol=0, atol=1e-10 * scale)


# --- blocked per-multi-index assembly -----------------------------------------

def _per_multi_index_configs(n):
    w = RadialSymbol.radial_power(n, -1.0)
    f = RadialSymbol.coordinate(n, 1) * w
    z1, z1b = RadialSymbol.coordinate(n, 1), RadialSymbol.coordinate(n, 1, conjugated=True)
    z2, z2b = RadialSymbol.coordinate(n, 2), RadialSymbol.coordinate(n, 2, conjugated=True)
    w2 = RadialSymbol.radial_power(n, -2.0)
    z1z2 = z1 * z2 * RadialSymbol.radial_power(n, -3.0)
    return {
        "hankel": hankel_config(f, f),
        "commutator": commutator_config(f, f.conj() * w),
        # the CLI's default mixed-trace case
        "mixed": hankel_config(z1 * w2, z1 * w2) * toeplitz_config(z1 * z1b * w2),
        "hankel-power-2": hankel_config(f, f) ** 2,
        # a float pow would round once where the complex power multiplies
        "hankel-power-3": hankel_config(f, f) ** 3,
        # value(a_1, a_2, ...) = -value(a_2, a_1, ...): ties of +x and -x
        "signed-ties": toeplitz_config((z1 * z1b - z2 * z2b) * w2),
        # rising products over two coordinates: the chain T_{conj(f) f} has
        # the term z1 z2 conj(z1 z2) (1+|z|^2)^(-3), the chain T_{conj(f)} T_f
        # sqrt((a_1+1)(a_2+1)) in each factor
        "two-coordinate": hankel_config(z1z2, z1z2),
    }


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("n, K", [(2, 24), (3, 9)])
@pytest.mark.parametrize("kind", ["hankel", "commutator", "mixed",
                                  "hankel-power-2", "hankel-power-3",
                                  "signed-ties", "two-coordinate"])
def test_blocked_spectrum_matches_per_degree_oracle(monkeypatch, block, n, K, kind):
    # blocks are runs of whole degrees holding at most 1, 7 or 64 values (a
    # degree of more values is a block of its own), so a block holds one
    # degree or a few; the float64 blocks must reproduce the complex
    # per-degree loop bit for bit, tie order included.  At gamma = 1 every
    # power of gamma is exactly 1, so gamma = 0.7 is what checks the norm
    # exponents
    monkeypatch.setattr(spectral, "_BLOCK", block)
    config = _per_multi_index_configs(n)[kind]
    for gamma in (1.0, 0.7):
        ctx = FockContext(n, gamma)
        got = diagonal_spectrum(ctx, config, K)
        ref = per_degree_spectrum(ctx, config, K)
        np.testing.assert_array_equal(got.values, ref.values)
        np.testing.assert_array_equal(got.mults, ref.mults)
        assert (got.certified_rank, got.signed) == (ref.certified_rank, ref.signed)
        if kind == "signed-ties":
            v = got.values
            assert np.any((v[1:] == -v[:-1]) & (v[1:] != 0))


# One of the two parts of every product of these phases is an exact zero.
# With both parts nonzero, numpy's complex multiply rounds differently in
# its vector loop and in its remainder loop, so the bits would depend on
# where a value falls in an array, at every block size alike.
_PHASES = (1.0, -1.0, 1j, -1j)


@st.composite
def per_multi_index_cases(draw):
    # non-radial chains of one to three factors, each a sum of terms
    # c * r * z^(e + v+) conj(z)^(e + v-) (1+|z|^2)^(t/2) of one shift v; the
    # shifts cancel along the chain, the first ones applied may leave the
    # cone, and e over several coordinates spreads a rising product over
    # them.  Each factor has one phase c; the chain coefficient undoes the
    # product of the phases, so that every value is real.  n = 4 enumerates
    # its multi-indices from those of length 3
    n = draw(st.sampled_from([2, 3, 4]))
    gamma = draw(st.sampled_from([0.7, 1.0, 2.5]))
    complex_coeffs = draw(st.booleans())
    unit = st.lists(st.integers(-1, 1), min_size=n, max_size=n)
    chains = []
    for _ in range(draw(st.integers(1, 2))):
        shifts = [draw(unit) for _ in range(draw(st.integers(0, 2)))]
        shifts.append([-sum(v[i] for v in shifts) for i in range(n)])
        factors, phase = [], 1.0
        for v in shifts:
            c = draw(st.sampled_from(_PHASES)) if complex_coeffs else 1.0
            phase *= c
            terms = draw(st.lists(
                st.tuples(st.tuples(*[st.integers(0, 1)] * n),
                          st.integers(-6, 0), st.sampled_from([1.0, -0.5, 2.0])),
                min_size=1, max_size=2, unique_by=lambda term: term[1]))
            S = None
            for e, t, r in terms:
                p = tuple(max(vi, 0) + ei for vi, ei in zip(v, e))
                q = tuple(max(-vi, 0) + ei for vi, ei in zip(v, e))
                term = RadialSymbol.monomial(n, p, q, float(t), c * r)
                S = term if S is None else S + term
            factors.append(S)
        scale = draw(st.sampled_from([1.0, -1.0, 0.5]))
        chains.append(spectral.DiagonalChain(
            scale * complex(phase).conjugate(), factors))
    config = spectral.DiagonalConfig(n, chains, draw(st.sampled_from([1, 2, 3])))
    _chains, _reach, _exponents, read, _real = spectral._plan(config, gamma)
    assume(read)  # the oracle is per multi-index: some term reads a coordinate
    K = draw({2: st.integers(0, 24), 3: st.integers(6, 12),
              4: st.integers(2, 8)}[n])
    block = draw(st.sampled_from([1, 7, 64]))
    return n, gamma, config, K, block


@settings(max_examples=90, deadline=None)
@given(per_multi_index_cases())
def test_random_per_multi_index_spectra_match_per_degree_oracle(case):
    # degree-run blocks of 1, 7 and 64 values, so that degrees of more than
    # 64 values (n = 3, K >= 10) form blocks of their own; float64 and
    # complex tables against the complex per-degree loop, bit for bit
    n, gamma, config, K, block = case
    ctx = FockContext(n, gamma)
    ref = per_degree_spectrum(ctx, config, K)
    with mock.patch.object(spectral, "_BLOCK", block):
        got = diagonal_spectrum(ctx, config, K)
    assert got.values.tobytes() == ref.values.tobytes()
    np.testing.assert_array_equal(got.mults, ref.mults)
    assert (got.certified_rank, got.signed) == (ref.certified_rank, ref.signed)


def _radial_configs():
    z = RadialSymbol.coordinate(1, 1)
    u = RadialSymbol.radial_power(1, -1.0)
    return {
        "hankel": (1, hankel_config(z * u, z * u)),
        "commutator": (1, commutator_config(z * u, z.conj() * u)),
        "toeplitz-chain": (1, toeplitz_config(u) * toeplitz_config(u)),
        "hankel-power-3": (1, hankel_config(z * u, z * u) ** 3),
        "complex": (1, hankel_config(1j * z * u, 1j * z * u)),
        "radial-n2": (2, toeplitz_config(RadialSymbol.radial_power(2, -4.0))),
    }


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("kind", list(_radial_configs()))
def test_radial_blocks_match_one_unblocked_evaluation(monkeypatch, block, kind):
    # one value per degree, assembled in blocks of degrees, is the values of
    # one unblocked evaluation over every degree, bit for bit
    n, config = _radial_configs()[kind]
    K = 200
    ctx = FockContext(n, 0.7)
    vals, starts, mults = spectral._diagonal_values(ctx, config, K)
    monkeypatch.setattr(spectral, "_BLOCK", block)
    got, got_starts, got_mults = spectral._diagonal_values(ctx, config, K)
    comps = np.zeros((n, K + 1), dtype=np.int64)
    comps[0] = np.arange(K + 1)
    rows = {t: spectral.scaled_moment_row(t, ctx.gamma, K + 8)
            for ch in config.chains for S in ch.factors for (_p, _q, t) in S.terms}
    dtype = complex if np.iscomplexobj(vals) else float
    ref = unblocked_values(config, comps, ctx.gamma, rows, dtype)
    assert got.tobytes() == ref.tobytes() == vals.tobytes()
    assert list(got_starts) == list(range(K + 2))
    if n == 1:
        assert got_mults is None
    else:
        np.testing.assert_array_equal(got_mults, degree_multiplicity(n, np.arange(K + 1)))


def test_per_multi_index_value_cap(monkeypatch):
    ctx = FockContext(2, 1.0)
    config = _per_multi_index_configs(2)["hankel"]
    monkeypatch.setattr(spectral, "_MAX_VALUES", 10)
    assert diagonal_spectrum(ctx, config, 3).total == 10  # C(5, 2)
    with pytest.raises(DiagonalityError, match="materialize 15 values"):
        diagonal_spectrum(ctx, config, 4)


@pytest.mark.parametrize("n", [1, 2])
def test_radial_value_cap(monkeypatch, n):
    # one value per degree; refused before any moment row is built
    ctx = FockContext(n, 1.0)
    config = toeplitz_config(RadialSymbol.radial_power(n, -2.0 * n))
    monkeypatch.setattr(spectral, "_MAX_VALUES", 10)
    assert diagonal_spectrum(ctx, config, 9).values.shape == (10,)
    monkeypatch.setattr(spectral, "moment_chunks", None)
    with pytest.raises(DiagonalityError, match="radial path would materialize 11 values"):
        diagonal_spectrum(ctx, config, 10)


def test_complex_coefficients_take_the_complex_path():
    ctx = FockContext(2, 1.0)
    S = (RadialSymbol.coordinate(2, 1) * RadialSymbol.coordinate(2, 1, conjugated=True)
         * RadialSymbol.radial_power(2, -6.0))
    with pytest.raises(DiagonalityError, match="non-real"):
        diagonal_spectrum(ctx, DiagonalConfig(2, [DiagonalChain(1j, [S])]), 20)
    # i*f has non-real chain coefficients but the same Hankel product
    f = RadialSymbol.coordinate(2, 1) * RadialSymbol.radial_power(2, -1.0)
    assert not spectral._plan(hankel_config(1j * f, 1j * f), 1.0)[4]  # not real
    got = diagonal_spectrum(ctx, hankel_config(1j * f, 1j * f), 40)
    ref = diagonal_spectrum(ctx, hankel_config(f, f), 40)
    np.testing.assert_array_equal(got.mults, ref.mults)
    np.testing.assert_allclose(got.values, ref.values, rtol=1e-15, atol=0)
    assert got.certified_rank == ref.certified_rank


# --- finishing: the values held once ------------------------------------------

def _finishing_cases():
    z = RadialSymbol.coordinate(1, 1)
    u = RadialSymbol.radial_power(1, -1.0)
    f2 = RadialSymbol.coordinate(2, 1) * RadialSymbol.radial_power(2, -1.0)
    toeplitz2 = (RadialSymbol.coordinate(2, 1)
                 * RadialSymbol.coordinate(2, 1, conjugated=True)
                 * RadialSymbol.radial_power(2, -6.0))
    return {
        "n1-unsigned": (1, toeplitz_config(RadialSymbol.radial_power(1, -2.0)), 3000),
        "n1-signed": (1, commutator_config(z * u, z.conj() * u), 3000),
        "n2-toeplitz": (2, toeplitz_config(toeplitz2), 60),
        "n2-mixed": (2, _per_multi_index_configs(2)["mixed"], 60),
        "n2-power": (2, _per_multi_index_configs(2)["hankel-power-2"], 40),
        "n2-radial": (2, toeplitz_config(RadialSymbol.radial_power(2, -4.0)), 300),
        "n2-complex": (2, hankel_config(1j * f2, 1j * f2), 60),
    }


@pytest.mark.parametrize("kind", list(_finishing_cases()))
def test_finishing_matches_the_copying_oracle(kind):
    # the in-place sort, stride-0 unit multiplicities and the certificate by
    # bisection give the same values, bits, multiplicities and certificate
    # as sorted copies, np.ones and a mask over every modulus
    n, config, K = _finishing_cases()[kind]
    ctx = FockContext(n, 0.7)
    got = diagonal_spectrum(ctx, config, K)
    ref = finish_with_copies(*spectral._diagonal_values(ctx, config, K), K)
    assert got.values.tobytes() == ref.values.tobytes()
    np.testing.assert_array_equal(got.mults, ref.mults)
    assert (got.certified_rank, got.signed) == (ref.certified_rank, ref.signed)
    assert got.certificate == ref.certificate == "monotone-tail"
    assert 0 < got.certified_rank < got.total
    assert got.signed == (kind == "n1-signed")
    if kind != "n2-radial":
        assert got.mults.strides == (0,) and not got.mults.flags.writeable


def test_a_rising_tail_certifies_nothing():
    # f = (1+|z|^2)^-1 - 50 (1+|z|^2)^-2 at n = 1: the eigenvalues cross 0
    # near degree 50 and peak at degree 100, so at K_degree 60 the moduli
    # rise over the last 5% of degrees, and 244 values at degrees 61-400
    # exceed the largest modulus there (2.74e-3), up to 4.95e-3.  Bounding
    # the truncated degrees by that modulus certified 45 ranks, none of
    # them the true leading values
    f = RadialSymbol.radial_power(1, -2.0) - 50 * RadialSymbol.radial_power(1, -4.0)
    ctx = FockContext(1, 1.0)
    seq = diagonal_spectrum(ctx, toeplitz_config(f), 60)
    assert (seq.certified_rank, seq.certificate) == (0, "unverified")
    longer = diagonal_spectrum(ctx, toeplitz_config(f), 400)
    assert longer.certificate == "monotone-tail"
    window = spectral._diagonal_values(ctx, toeplitz_config(f), 60)[0][57:]
    beyond = spectral._diagonal_values(ctx, toeplitz_config(f), 400)[0][61:]
    assert np.sum(np.abs(beyond) > np.abs(window).max()) == 244
    # no default grid over a spectrum that certifies nothing
    with pytest.raises(ValueError, match="rises"):
        extrapolate(seq)
    # scaling keeps the certificate, and a merge with an unverified part
    # certifies nothing
    assert seq.scaled(2.0).certificate == "unverified"
    merged = longer.merge(seq)
    assert (merged.certified_rank, merged.certificate) == (0, "unverified")
    assert longer.merge(longer).certificate == "monotone-tail"


def test_finishing_holds_the_values_about_once(monkeypatch):
    # diagonal_spectrum then extrapolate at n = 2 (45,451 values) peak at
    # about 1.3 times the value bytes: the values, plus the assembly's,
    # validation's and partial sums' scratch, which small blocks and chunks
    # keep below the additive constant; one value-length float64 or int64
    # temporary would break the bound
    monkeypatch.setattr(spectral, "_BLOCK", 1024)
    monkeypatch.setattr(_kernels, "_CHUNK", 1024)
    ctx = FockContext(2, 1.0)
    config = toeplitz_config(RadialSymbol.coordinate(2, 1)
                             * RadialSymbol.coordinate(2, 1, conjugated=True)
                             * RadialSymbol.radial_power(2, -6.0))
    diagonal_spectrum(ctx, config, 20)  # the moment rows' first call
    tracemalloc.start()
    try:
        seq = diagonal_spectrum(ctx, config, 300)
        extrapolate(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seq.values.size == math.comb(302, 2)
    assert peak <= 1.2 * seq.values.nbytes + 65536, peak / seq.values.nbytes


def test_n1_spectrum_holds_values_and_rows(monkeypatch):
    # the default hankel-trace configuration at K = 2^16 with small blocks
    # and chunks: diagonal_spectrum then extrapolate peak at about the value
    # bytes plus 350 KiB, mostly the serial loop's chunk of Python floats
    # (64 bytes a degree of _SERIAL_CHUNK); the rows are read through
    # windows a block wide.  A whole moment row (the value bytes again), or
    # a value-length list of Python floats (32 bytes a value), would break
    # the bound
    monkeypatch.setattr(spectral, "_BLOCK", 1024)
    monkeypatch.setattr(_kernels, "_CHUNK", 1024)
    f = RadialSymbol.coordinate(1, 1) * RadialSymbol.radial_power(1, -1.0)
    ctx = FockContext(1, 1.0)
    diagonal_spectrum(ctx, hankel_config(f, f), 20)  # the base moments
    tracemalloc.start()
    try:
        seq = diagonal_spectrum(ctx, hankel_config(f, f), 1 << 16)
        extrapolate(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seq.values.size == (1 << 16) + 1
    assert peak <= seq.values.nbytes + (512 << 10), \
        (peak - seq.values.nbytes) / 1024


def test_n1_spectrum_keeps_no_moment_row():
    # once diagonal_spectrum returns, the values are all it leaves behind:
    # the rows were built for the call and are gone with it.  gamma = 0.9,
    # which no other test builds rows at, so that rows kept by an earlier
    # call could not hide rows kept by this one
    f = RadialSymbol.coordinate(1, 1) * RadialSymbol.radial_power(1, -1.0)
    ctx = FockContext(1, 0.9)
    diagonal_spectrum(ctx, hankel_config(f, f), 20)  # the base moments
    tracemalloc.start()
    try:
        seq = diagonal_spectrum(ctx, hankel_config(f, f), 1 << 16)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current <= seq.values.nbytes + 65536, current / seq.values.nbytes


def test_n1_spectrum_at_default_sizes_holds_values_and_one_row():
    # the default hankel-trace configuration at K = 2^16 with the module's
    # own block and chunk sizes: diagonal_spectrum then extrapolate peak at
    # the values plus block and chunk scratch, about 750 KiB whatever K is:
    # some ten arrays a block long (tables, rising products, columns, a
    # window per row) and the serial loop's chunk.  No moment row is held
    # whole: one (the value bytes again) would break the bound, as would
    # blocks of 2^16 degrees or lists of Python floats as long as _CHUNK
    f = RadialSymbol.coordinate(1, 1) * RadialSymbol.radial_power(1, -1.0)
    ctx = FockContext(1, 1.0)
    diagonal_spectrum(ctx, hankel_config(f, f), 20)  # the base moments
    tracemalloc.start()
    try:
        seq = diagonal_spectrum(ctx, hankel_config(f, f), 1 << 16)
        extrapolate(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scratch = 14 * spectral._DEGREES * seq.values.itemsize
    assert peak <= seq.values.nbytes + scratch, (peak - seq.values.nbytes) / scratch


def test_n1_spectrum_finishing_scratch_does_not_grow_with_K(monkeypatch):
    # from the assembled values on (sort, tail bound, the sortedness check
    # of SNumberSequence), diagonal_spectrum holds one block of scratch
    # beside the values at any K: the check builds each block's bound in
    # one buffer, the tail bound of real values takes no modulus array and
    # the sort reads the sign bits a block at a time.  Tracing starts once
    # the values are assembled, so the peak is that scratch; the allowance
    # is Python bookkeeping, far below a block
    assemble = spectral._diagonal_values

    def assembled(*args):
        out = assemble(*args)
        tracemalloc.start()
        return out

    monkeypatch.setattr(spectral, "_diagonal_values", assembled)
    f = RadialSymbol.coordinate(1, 1) * RadialSymbol.radial_power(1, -1.0)
    ctx = FockContext(1, 1.0)
    peaks = []
    for K in (1 << 16, 1 << 18):
        try:
            diagonal_spectrum(ctx, hankel_config(f, f), K)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 4096, peaks


def test_radial_streams_are_started_once_per_exponent(monkeypatch):
    # the walk is block-major: each exponent's stream of moment chunks is
    # started once, however many chains read it, and no whole row is built
    start = spectral.moment_chunks
    started = []

    def recording(t, gamma, dmax):
        started.append(t)
        return start(t, gamma, dmax)

    z = RadialSymbol.coordinate(1, 1)
    u = RadialSymbol.radial_power(1, -1.0)
    ctx = FockContext(1, 0.7)
    ref = diagonal_spectrum(ctx, hankel_config(z * u, z * u), 300)
    monkeypatch.setattr(spectral, "moment_chunks", recording)
    monkeypatch.setattr(spectral, "scaled_moment_row", None)
    got = diagonal_spectrum(ctx, hankel_config(z * u, z * u), 300)
    assert started == [-2.0, -1.0]
    assert got.values.tobytes() == ref.values.tobytes()
    # t = -2 in the first and third chain
    config = spectral.DiagonalConfig(1, [
        spectral.DiagonalChain(1.0, [z.conj() * z * u * u]),
        spectral.DiagonalChain(-1.0, [z.conj() * u, z * u]),
        spectral.DiagonalChain(0.5, [u * u])])
    started = []
    diagonal_spectrum(ctx, config, 300)
    assert started == [-2.0, -1.0]


@pytest.mark.parametrize("degrees", [1, 7, 1000])
def test_row_windows_are_the_row_across_block_edges(degrees):
    # each window the walk reads is the slice of the whole row over its
    # span, for blocks that end on, before and past the stream's chunk
    # edges
    K, reach = 3 * _kernels._SERIAL_CHUNK + 5, 3
    for t, gamma in ((-2.0, 1.0), (-1.0, 0.7), (3.0, 2.5), (-5.3, 0.3)):
        row = spectral.scaled_moment_row(t, gamma, K + reach)
        spans = [(max(k - reach, 0), min(k + degrees, K + 1) + reach)
                 for k in range(0, K + 1, degrees)]
        windows = spectral._windows(spectral.moment_chunks(t, gamma, K + reach),
                                    spans)
        for (lo, hi), window in zip(spans, windows):
            assert window.tobytes() == row[lo:hi].tobytes(), (t, lo, hi)


@pytest.mark.parametrize("n", [2, 3])
def test_per_multi_index_blocks_are_visited_once(monkeypatch, n):
    # the walk is block-major: each block's multi-indices are enumerated
    # once for all chains, and each exponent's stream of moment chunks is
    # started once
    config = _per_multi_index_configs(n)["mixed"]
    assert len(config.chains) > 1
    K, block = (40, 64) if n == 2 else (12, 50)
    rows, runs = [], []
    start, enumerate_runs = spectral.moment_chunks, spectral._degree_runs

    def recording_row(t, gamma, dmax):
        rows.append(t)
        return start(t, gamma, dmax)

    def recording_runs(k0, sizes, *rest):
        runs.append((k0, len(sizes)))
        return enumerate_runs(k0, sizes, *rest)

    monkeypatch.setattr(spectral, "moment_chunks", recording_row)
    monkeypatch.setattr(spectral, "_degree_runs", recording_runs)
    monkeypatch.setattr(spectral, "_BLOCK", block)
    spectral._diagonal_values(FockContext(n, 0.7), config, K)
    exponents = {t for ch in config.chains for S in ch.factors
                 for (_p, _q, t) in S.terms}
    assert sorted(rows) == sorted(exponents)
    # the longest runs of whole degrees of at most `block` values, or one
    # degree alone, after the n - 2 enumerations of shorter multi-indices
    blocks, k = [], 0
    while k <= K:
        end, held = k + 1, math.comb(k + n - 1, n - 1)
        while end <= K and held + math.comb(end + n - 1, n - 1) <= block:
            held += math.comb(end + n - 1, n - 1)
            end += 1
        blocks.append((k, end - k))
        k = end
    assert len(blocks) > 2
    assert runs == [(0, K + 1)] * (n - 2) + blocks


@pytest.mark.parametrize("n", [2, 3])
def test_a_shared_first_factor_is_evaluated_once_per_block(monkeypatch, n):
    # the Toeplitz factor opens both chains of the mixed case: two factor
    # sums a chain, not five for both, and the bits of each chain
    # evaluating its own
    config = _per_multi_index_configs(n)["mixed"]
    assert [chain[1] for chain in spectral._plan(config, 0.7)[0]] == [0, 0]
    K = 40 if n == 2 else 12
    monkeypatch.setattr(spectral, "_BLOCK", 64)
    plan, chain_values, factor_values = (
        spectral._plan, spectral._chain_values, spectral._factor_values)
    calls = {"chain": 0, "factor": 0}

    def counted(key, f):
        def call(*args):
            calls[key] += 1
            return f(*args)
        return call

    monkeypatch.setattr(spectral, "_chain_values", counted("chain", chain_values))
    monkeypatch.setattr(spectral, "_factor_values", counted("factor", factor_values))
    got = spectral._diagonal_values(FockContext(n, 0.7), config, K)[0]
    assert calls["chain"] > 2 and calls["factor"] == 2 * calls["chain"]

    def unshared(config, gamma):
        chains, *rest = plan(config, gamma)
        return ([(c0, None, factors, bounds) for c0, _, factors, bounds in chains],
                *rest)

    monkeypatch.setattr(spectral, "_plan", unshared)
    calls = {"chain": 0, "factor": 0}
    ref = spectral._diagonal_values(FockContext(n, 0.7), config, K)[0]
    assert 2 * calls["factor"] == 5 * calls["chain"]
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_rising_tables_are_built_once_per_spectrum(monkeypatch, n):
    # each term's rising table over the coordinate values is built once per
    # distinct (sigma_i, p_i, q_i, v_i) in a spectrum, however many blocks
    # and chains read it: the same tables for one block as for many
    config = _per_multi_index_configs(n)["mixed"]
    K = 40 if n == 2 else 12
    rising, built = spectral._rising, []

    def recording(a, p, q, v):
        built.append((int(a[-1]) - K, p, q, v))  # a[-1] is K + sigma_i
        return rising(a, p, q, v)

    monkeypatch.setattr(spectral, "_rising", recording)
    per_block = {}
    for block in (1 << 14, 16):
        built = []
        monkeypatch.setattr(spectral, "_BLOCK", block)
        per_block[block] = spectral._diagonal_values(FockContext(n, 0.7), config, K)
        assert built and len(built) == len(set(built)), built
        if block == 16:
            assert sorted(built) == sorted(first)
        first = built
    assert per_block[16][0].tobytes() == per_block[1 << 14][0].tobytes()


def test_n2_spectrum_at_default_sizes_holds_values_and_block_buffers():
    # toeplitz-trace's default symbol at n = 2 and K_degree = 2000 (2,003,001
    # values) with the module's own block size: the walk writes every block
    # into buffers of _BLOCK values made once per spectrum, so
    # diagonal_spectrum peaks at the value bytes plus about 0.8 MB.  Block
    # temporaries made per block (3.3 MB beside the values at 2^16-value
    # blocks) would break the bound
    z1 = RadialSymbol.coordinate(2, 1)
    f = z1 * z1.conj() * RadialSymbol.radial_power(2, -6.0)
    ctx = FockContext(2, 1.0)
    diagonal_spectrum(ctx, toeplitz_config(f), 20)  # the base moments
    tracemalloc.start()
    try:
        seq = diagonal_spectrum(ctx, toeplitz_config(f), 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seq.values.size == math.comb(2002, 2)
    assert peak <= seq.values.nbytes + (3 << 19), (peak - seq.values.nbytes) / 2**20


def _complex_radial_configs():
    z = RadialSymbol.coordinate(1, 1)
    u = RadialSymbol.radial_power(1, -1.0)
    return {
        "hankel": hankel_config(1j * z * u, 1j * z * u),
        "commutator": commutator_config(1j * z * u, 1j * z.conj() * u),
        "hankel-power-3": hankel_config(1j * z * u, 1j * z * u) ** 3,
    }


@pytest.mark.parametrize("degrees", [spectral._DEGREES, 1000])
@pytest.mark.parametrize("kind", list(_complex_radial_configs()))
def test_complex_radial_values_at_any_block_size(monkeypatch, degrees, kind):
    # complex products round by where a value falls in its array (numpy's
    # vector loop against its remainder loop), so the radial blocks' size is
    # part of the arithmetic: blocks of _DEGREES and of 1000 degrees give the
    # bytes of the 2^16-degree blocks the radial path used before
    config = _complex_radial_configs()[kind]
    assert not spectral._plan(config, 0.7)[4]  # not real
    ctx = FockContext(1, 0.7)
    K = 3 * (1 << 13) + 5
    monkeypatch.setattr(spectral, "_DEGREES", 1 << 16)
    ref = spectral._diagonal_values(ctx, config, K)[0]
    monkeypatch.setattr(spectral, "_DEGREES", degrees)
    got = spectral._diagonal_values(ctx, config, K)[0]
    assert got.dtype == complex and got.tobytes() == ref.tobytes()


def test_from_values_leaves_its_input_alone():
    a = np.array([1.0, 3.0, 2.0])
    seq = from_values(a)
    np.testing.assert_array_equal(a, [1.0, 3.0, 2.0])
    np.testing.assert_array_equal(seq.values, [3.0, 2.0, 1.0])
    assert seq.total == 3 and seq.mults.strides == (0,)


def test_merge_certifies_only_what_both_certificates_cover():
    # a's uncertified 1 precedes b's 0.8, and a's dropped eigenvalues may
    # reach about 1: only the ranks at or above 9, a's last certified
    # modulus, stay certified
    a = SNumberSequence(np.array([10.0, 9.0, 1.0, 0.5]), np.ones(4, dtype=np.int64),
                        certified_rank=2)
    b = SNumberSequence(np.array([0.8, 0.7, 0.6]), np.ones(3, dtype=np.int64),
                        certified_rank=3)
    assert a.merge(b).certified_rank == 2
    assert b.merge(a).certified_rank == 2
    # multiplicities count, and a certificate may end inside a run
    c = SNumberSequence(np.array([5.0, 2.0, 1.0]), np.array([2, 3, 1]),
                        certified_rank=3)
    d = SNumberSequence(np.array([3.0, 0.1]), np.array([4, 1]),
                        certified_rank=5)
    assert c.merge(d).certified_rank == 2 + 4 + 3
    # stride-0 multiplicities: unit ones, and one multiplicity 2 for all runs
    e = from_values([0.8, 0.7, 0.6], certified_rank=3)
    assert a.merge(e).certified_rank == 2
    f = SNumberSequence(np.array([4.0, 3.0, 0.2]),
                        np.broadcast_to(np.int64(2), (3,)), certified_rank=3)
    assert c.merge(f).certified_rank == 2 + 2 + 2
    assert a.merge(SNumberSequence(a.values, a.mults, certified_rank=0)) \
        .certified_rank == 0
    assert a.merge(SNumberSequence(a.values, a.mults)).certified_rank is None


_TIE_POOL = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-300, -1e-300, 7.0]
_LONG_TIED_RUNS = np.random.default_rng(5).choice(np.array(_TIE_POOL), size=200_000)


@st.composite
def tie_heavy_values(draw):
    # runs of equal values and of +-x pairs from a small pool, mixed with
    # arbitrary finite floats
    runs = draw(st.lists(st.tuples(
        st.one_of(st.sampled_from(_TIE_POOL),
                  st.floats(allow_nan=False, allow_infinity=False)),
        st.integers(1, 300)), max_size=30))
    return np.array([v for v, r in runs for _ in range(r)], dtype=float)


@settings(max_examples=200, deadline=None)
@given(tie_heavy_values(), tie_heavy_values())
def test_from_values_and_merge_keep_the_stable_order(a, b):
    stable = np.argsort(-np.abs(a), kind="stable")
    seq = from_values(a, signed=True)
    assert seq.values.tobytes() == a[stable].tobytes()
    sa = SNumberSequence(a[stable], np.arange(1, a.size + 1), signed=True)
    sb = from_values(b, signed=True)
    m = sa.merge(sb)
    v = np.concatenate([sa.values, sb.values])
    old = np.argsort(-np.abs(v), kind="stable")
    assert m.values.tobytes() == v[old].tobytes()
    np.testing.assert_array_equal(m.mults, np.concatenate([sa.mults, sb.mults])[old])


@settings(max_examples=200, deadline=None)
@given(tie_heavy_values(), tie_heavy_values(), st.data())
def test_merge_of_unit_sequences_keeps_stride_0_multiplicities(a, b, data):
    # empty operands included: the same values, bits, multiplicities and
    # certificate as the merge of np.ones multiplicities, whether the merged
    # values are gathered (a sign bit set) or sorted in place (none)
    if data.draw(st.booleans()):
        a, b = np.abs(a), np.abs(b)
    cert = [data.draw(st.none() | st.integers(0, v.size)) for v in (a, b)]
    sa, sb = (from_values(v, signed=True, certified_rank=c)
              for v, c in zip((a, b), cert))
    ones = [SNumberSequence(s.values, np.ones(s.values.size, dtype=np.int64),
                            signed=True, certified_rank=c)
            for s, c in zip((sa, sb), cert)]
    got = sa.merge(sb)
    ref = ones[0].merge(ones[1])
    assert got.mults.strides == (0,) and got.total == ref.total
    assert got.values.tobytes() == ref.values.tobytes()
    np.testing.assert_array_equal(got.mults, ref.mults)
    assert got.certified_rank == ref.certified_rank


@settings(max_examples=100, deadline=None)
@given(tie_heavy_values())
def test_sorted_by_modulus_sorts_unsigned_values_directly(a):
    # with unit multiplicities the sorted values are the stable modulus order
    # gathered, bit for bit; values whose sign bits differ (-0.0 counts as
    # signed) take an argsort for their signs, values of one sign never do
    for v in (a, np.abs(a), -np.abs(a)):
        stable = v[np.argsort(-np.abs(v), kind="stable")]
        mixed = len(set(np.signbit(v).tolist())) == 2
        with mock.patch.object(spectral.np, "argsort", wraps=np.argsort) as order:
            got = spectral._sorted_by_modulus(v)
        assert order.called == mixed
        np.testing.assert_array_equal(got.view(np.uint64), stable.view(np.uint64))


@pytest.mark.parametrize("block", [1, 2, 3, 1 << 16])
def test_sorted_by_modulus_reads_sign_bits_by_block(monkeypatch, block):
    # the sign bits are read a block at a time: one value whose sign bit
    # differs from the rest, in any block, takes the argsort; one sign
    # throughout takes none
    monkeypatch.setattr(spectral, "_BLOCK", block)
    base = np.array([3.0, 1.0, 0.0, 2.0, 5.0, 4.0, 0.5])
    cases = [(base, False), (-base, False)]
    for i in range(base.size):
        for v in (base.copy(), -base):
            v[i] = -v[i]
            cases.append((v, True))
    for v, mixed in cases:
        stable = v[np.argsort(-np.abs(v), kind="stable")]
        with mock.patch.object(spectral.np, "argsort", wraps=np.argsort) as order:
            got = spectral._sorted_by_modulus(v.copy())
        assert order.called == mixed
        assert got.tobytes() == stable.tobytes()


def test_sorted_by_modulus_sends_signed_zeros_and_negatives_to_modulus_order():
    for v in (np.array([1.0, -0.0, 0.0, 2.0]), np.array([1.0, -2.0, 2.0, -1.0])):
        stable = v[np.argsort(-np.abs(v), kind="stable")]
        with mock.patch.object(spectral.np, "argsort", wraps=np.argsort) as order:
            got = spectral._sorted_by_modulus(v)
        order.assert_called_once()
        assert got.tobytes() == stable.tobytes()
    # the order of +0.0 and -0.0 is the index order, which a sort of the
    # values themselves would not keep
    assert spectral._sorted_by_modulus(np.array([-0.0, 0.0]))[0].tobytes() == \
        np.array(-0.0).tobytes()


def test_modulus_order_on_long_tied_runs():
    # the order in which _sorted_runs gathers values with multiplicities,
    # read off multiplicities that number the values, checked against the
    # definition, not against another argsort: a permutation, moduli
    # non-increasing, equal moduli in index order
    v = _LONG_TIED_RUNS
    order = spectral._sorted_runs(v.copy(), np.arange(v.size))[1]
    np.testing.assert_array_equal(np.sort(order), np.arange(v.size))
    mod = np.abs(v)[order]
    assert (mod[:-1] >= mod[1:]).all()
    tied = mod[:-1] == mod[1:]
    assert (order[:-1][tied] < order[1:][tied]).all()
    # both paths of _sorted_by_modulus gather that order, bit for bit; the
    # unsigned path sorts its argument in place, so it is given a copy
    for w in (v, np.abs(v)):
        expected = w[spectral._sorted_runs(w.copy(), np.arange(w.size))[1]]
        got = spectral._sorted_by_modulus(w.copy())
        np.testing.assert_array_equal(got.view(np.uint64),
                                      expected.view(np.uint64))
