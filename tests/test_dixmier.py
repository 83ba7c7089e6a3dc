"""Trace estimators on sequences with known limits."""

import math
from fractions import Fraction

import numpy as np
import pytest

from focktrace.cli import loglog_slope
from focktrace.dixmier import (DEFAULT_RANK_GRID_1D, _line_fit, extrapolate,
                               log_mean, pointwise)
from focktrace.spectral import SNumberSequence
from oracles import from_values, line_by_lstsq


def harmonic_sequence(K):
    vals = 1.0 / (np.arange(K + 1) + 1.0)
    return SNumberSequence(vals, np.ones(K + 1, dtype=np.int64))


def test_log_mean_harmonic():
    K = 10**6
    seq = harmonic_sequence(K)
    got, = log_mean(seq, [K])
    ref = math.fsum(1.0 / (j + 1.0) for j in range(K + 1)) / math.log(K + 2)
    assert got == pytest.approx(ref, rel=1e-13)
    assert got == pytest.approx(1.042, abs=1e-3)


def test_log_mean_trace_class_vanishes():
    vals = 0.5 ** np.arange(4000)
    seq = SNumberSequence(vals, np.ones(4000, dtype=np.int64))
    lm10, lm100, lm3999 = log_mean(seq, [10, 100, 3999])
    assert lm3999 < lm100 < lm10
    assert lm3999 < 0.25


def test_log_mean_bounds():
    seq = harmonic_sequence(100)
    for bad in ([], [1], [101], [1, 50], [50, 101], [50, 10]):
        with pytest.raises(ValueError):
            log_mean(seq, bad)


def test_pointwise_examples():
    seq = harmonic_sequence(10_000)
    med, spread = pointwise(seq, (100, 10_000))
    assert med == pytest.approx(1.0, abs=1e-15)
    assert spread <= 1e-15  # exact up to one ulp of (j+1)*(1/(j+1))
    vals = 1.0 / (np.arange(10_001) + 1.0) ** 2
    seq2 = SNumberSequence(vals, np.ones(10_001, dtype=np.int64))
    med2, _ = pointwise(seq2, (5000, 10_000))
    assert med2 < 2e-4


def test_pointwise_median_equals_np_median_bitwise():
    # odd and even windows, ties, signed zeros and non-unit multiplicities
    rng = np.random.default_rng(7)
    pool = np.array([-0.0, 0.0, 0.25, -0.25, 1.0, -1.0, 3e-300, -7.5])
    for draw in range(300):
        size = int(rng.integers(1, 80))
        vals = (rng.choice(pool, size) if draw % 2
                else rng.normal(size=size) * 10.0 ** rng.integers(-5, 6, size))
        seq = from_values(vals, signed=True)
        if draw % 3 == 0:
            seq = SNumberSequence(seq.values, rng.integers(1, 4, size),
                                  signed=True)
        lo = int(rng.integers(0, seq.total))
        hi = int(rng.integers(lo, seq.total))
        med, _ = pointwise(seq, (lo, hi))
        ref = float(np.median(seq.pointwise_values(lo, hi)))
        assert med.hex() == ref.hex(), (draw, lo, hi)


def test_extrapolate_harmonic():
    seq = harmonic_sequence(10**6)
    est = extrapolate(seq, [10**3, 10**4, 10**5, 10**6 - 1])
    assert est.diagnostics["grid"] == [10**3, 10**4, 10**5, 10**6 - 1]
    assert est.value == pytest.approx(1.0, rel=5e-3)
    assert not est.diagnostics["ill_conditioned"]
    assert est.diagnostics["log_mean_tail_spread"] < 0.2


def test_extrapolate_trace_class():
    vals = 0.5 ** np.arange(60_000)
    seq = SNumberSequence(vals, np.ones(60_000, dtype=np.int64))
    est = extrapolate(seq, [2**12, 2**13, 2**14, 2**15])
    assert abs(est.value) <= 1e-3


def test_extrapolate_default_grid_respects_certificate():
    vals = 1.0 / (np.arange(1 << 16) + 1.0)
    seq = SNumberSequence(vals, np.ones(1 << 16, dtype=np.int64),
                          certified_rank=1 << 12)
    est = extrapolate(seq)
    assert max(est.diagnostics["grid"]) <= (1 << 12) - 1


def test_extrapolate_one_walk_matches_per_rank_log_means():
    from focktrace.fock_matrices import FockContext
    from focktrace.spectral import diagonal_spectrum, toeplitz_config
    from focktrace.symbols import RadialSymbol

    seq = diagonal_spectrum(FockContext(1, 1.0),
                            toeplitz_config(RadialSymbol.radial_power(1, -2.0)),
                            1 << 14)
    grid = [2**e for e in range(6, 14)]
    est = extrapolate(seq, grid)
    # the per-rank path extrapolate replaced: one log_mean walk per rank,
    # fitted against 1/log(K+2)
    lms = [log_mean(seq, [K])[0] for K in grid]
    x = 1.0 / np.log(np.asarray(grid, dtype=float) + 2.0)
    c, b = _line_fit(x, lms)
    rms = float(np.sqrt(np.mean((np.array(lms) - (c + b * x)) ** 2)))
    assert est.value == c
    assert est.diagnostics["fit_b"] == b
    assert est.diagnostics["fit_residual_rms"] == rms
    assert est.diagnostics["log_mean_tail"] == lms[-3:]
    assert est.diagnostics["log_mean_tail_spread"] == (
        (max(lms[-3:]) - min(lms[-3:])) / abs(c))
    for bad in ([1, 100, 1000], [100, 1000, seq.total]):
        with pytest.raises(ValueError):
            extrapolate(seq, bad)


def _line_cases():
    rng = np.random.default_rng(5)
    for trial in range(120):
        n = int(rng.integers(2, 12))
        if trial % 3 == 0:
            x, y = rng.uniform(-3, 3, n), rng.normal(size=n)
        elif trial % 3 == 1:  # narrowly spread about a far centre
            x = 1.0 + rng.uniform(0, 1e-6, n)
            y = 0.25 + 3.0 * x + rng.normal(scale=1e-9, size=n)
        else:  # extrapolate's own abscissae, 1/log(K+2) on a dyadic grid
            x = 1.0 / np.log(2.0 ** np.arange(int(rng.integers(4, 12)), 21) + 2.0)
            y = 0.25 + 0.3 * x + rng.normal(scale=1e-6, size=x.size)
        yield x, y


def test_line_fit_is_the_exact_least_squares_line_to_a_few_ulps():
    # against the normal equations of the same floats in exact rationals;
    # the slope's error is measured on the scale sum|dx||y| / sum dx^2 of
    # the rounding in y - mean(y), the intercept's on |a| + |b * mean(x)|
    eps = 2.0 ** -52
    for x, y in _line_cases():
        n = x.size
        X, Y = [Fraction(v) for v in x], [Fraction(v) for v in y]
        mx, my = sum(X) / n, sum(Y) / n
        sxx = sum((u - mx) ** 2 for u in X)
        b = sum((u - mx) * (v - my) for u, v in zip(X, Y)) / sxx
        a = my - b * mx
        got_a, got_b = _line_fit(x, y)
        scale_b = sum(abs(u - mx) * abs(v) for u, v in zip(X, Y)) / sxx
        assert abs(Fraction(got_b) - b) <= 4 * n * eps * scale_b
        assert abs(Fraction(got_a) - a) <= 4 * n * eps * (abs(a) + abs(b * mx))


def test_line_fit_agrees_with_lstsq():
    # the two lines agree where the data fix them: the slope on the scale of
    # the test above, the fitted values at the data to rounding
    for x, y in _line_cases():
        a, b = _line_fit(x, y)
        ref_a, ref_b = line_by_lstsq(x, y)
        dx = x - x.mean()
        assert abs(b - ref_b) <= 1e-12 * (np.abs(dx) @ np.abs(y)) / (dx @ dx)
        np.testing.assert_allclose(a + b * x, ref_a + ref_b * x,
                                   rtol=1e-13, atol=1e-13 * np.abs(y).max())


def test_line_fit_refuses_x_without_spread():
    for x in ([0.1, 0.1, 0.1], [2.0], []):
        with pytest.raises(ValueError):
            _line_fit(x, np.arange(len(x), dtype=float))
    with pytest.raises(ValueError):
        extrapolate(harmonic_sequence(2000), [1000, 1000, 1000])


def test_fits_run_without_lapack(monkeypatch):
    seq = harmonic_sequence(100_000)
    ref = extrapolate(seq, [2**10, 2**12, 2**14, 2**16])
    xs, ys = [1.0, 2.0, 4.0, 8.0], [3.0, 0.75, 0.1875, 0.046875]

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    est = extrapolate(seq, [2**10, 2**12, 2**14, 2**16])
    assert est.value == ref.value and est.diagnostics == ref.diagnostics
    assert loglog_slope(xs, ys) == pytest.approx(-2.0, rel=1e-15)


def test_extrapolate_needs_three_points():
    seq = harmonic_sequence(10_000)
    with pytest.raises(ValueError):
        extrapolate(seq, [100, 200])


def test_scale_equivariance():
    seq = harmonic_sequence(100_000)
    est = extrapolate(seq, [2**10, 2**12, 2**14, 2**16])
    # powers of two rescale exactly (every float product is exact)
    for lam in (2.0, 0.25):
        scaled = seq.scaled(lam)
        est2 = extrapolate(scaled, [2**10, 2**12, 2**14, 2**16])
        assert est2.value == lam * est.value
        assert log_mean(scaled, [5000]) == [lam * log_mean(seq, [5000])[0]]
    lam = math.pi
    est3 = extrapolate(seq.scaled(lam), [2**10, 2**12, 2**14, 2**16])
    assert est3.value == pytest.approx(lam * est.value, rel=1e-13)


def test_directsum_additivity():
    from focktrace.fock_matrices import FockContext
    from focktrace.spectral import diagonal_spectrum, toeplitz_config
    from focktrace.symbols import RadialSymbol
    K = 1 << 18
    grid = [2**e for e in range(10, 19, 2)]
    seq_a = diagonal_spectrum(FockContext(1, 1.0),
                              toeplitz_config(RadialSymbol.radial_power(1, -2.0)), K)
    seq_b = diagonal_spectrum(FockContext(1, 2.0),
                              toeplitz_config(RadialSymbol.radial_power(1, -2.0)), K)
    a = extrapolate(seq_a, grid).value
    b = extrapolate(seq_b, grid).value
    rng = np.random.default_rng(21)
    for _ in range(10):
        lam, mu = rng.uniform(0.2, 3.0, size=2)
        merged = seq_a.scaled(lam).merge(seq_b.scaled(mu))
        tot = extrapolate(merged, grid).value
        assert tot == pytest.approx(lam * a + mu * b, rel=0.02)


def test_pointwise_extrapolated_consistency():
    from focktrace.fock_matrices import FockContext
    from focktrace.spectral import diagonal_spectrum, toeplitz_config
    from focktrace.symbols import RadialSymbol
    seq = diagonal_spectrum(FockContext(1, 1.0),
                            toeplitz_config(RadialSymbol.radial_power(1, -2.0)),
                            1 << 20)
    med, spread = pointwise(seq, (500_000, 1_000_000))
    est = extrapolate(seq, DEFAULT_RANK_GRID_1D)
    assert spread < 0.01
    assert abs(med - est.value) < 0.02 * abs(est.value)
