"""Correctness of the recurrence/summation kernels, against high-precision
values and against the serial loops they replace (kept here as oracles)."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focktrace import _kernels
from oracles import radial_moment_hp


# -- serial oracles ---------------------------------------------------------

def serial_ladder_row(prev, out0, gamma):
    out = np.empty_like(prev)
    out[0] = out0
    for d in range(1, prev.shape[0]):
        out[d] = (gamma / d) * (prev[d - 1] - out[d - 1])
    return out


def serial_pair_rows(s_plus_one, a0, b0, gamma, dmax):
    A = np.empty(dmax + 1)
    B = np.empty(dmax + 1)
    A[0] = a0
    B[0] = b0
    for d in range(1, dmax + 1):
        B[d] = (gamma / d) * (A[d - 1] - B[d - 1])
        A[d] = A[d - 1] + (s_plus_one / gamma) * B[d]
    return A, B


def serial_raise_row(row, gamma):
    out = np.empty(row.shape[0] - 1)
    for d in range(out.shape[0]):
        out[d] = row[d] + ((d + 1) / gamma) * row[d + 1]
    return out


def normalized_oracle(d, t, gamma):
    val = radial_moment_hp(d, t, gamma)
    import mpmath as mp
    with mp.workdps(30):
        scaled = val * mp.mpf(gamma) ** (d + 1) / mp.factorial(d)
        return float(scaled)


def test_ladder_row_matches_high_precision_oracle():
    gamma = 1.0
    ones = np.ones(2001)
    base1 = float(normalized_oracle(0, -2.0, gamma))
    row1 = _kernels.ladder_row(ones, base1, gamma)
    # row1[d] approximates gamma^(d+1)/d! * integral u^d (1+u)^-1 e^-u
    for d in [0, 1, 7, 60, 500, 2000]:
        ref = normalized_oracle(d, -2.0, gamma)
        assert abs(row1[d] - ref) <= 5e-12 * abs(ref)


def test_pair_rows_matches_high_precision_oracle():
    gamma = 1.7
    a0 = normalized_oracle(0, 1.0, gamma)
    b0 = normalized_oracle(0, -1.0, gamma)
    A, B = _kernels.pair_rows(0.5, a0, b0, gamma, 1500)
    for d in [0, 3, 33, 400, 1500]:
        assert abs(B[d] - normalized_oracle(d, -1.0, gamma)) <= 5e-12 * abs(
            normalized_oracle(d, -1.0, gamma))
        assert abs(A[d] - normalized_oracle(d, 1.0, gamma)) <= 5e-12 * abs(
            normalized_oracle(d, 1.0, gamma))


def test_raise_row_consistency():
    # m_{s+1}[d] = m_s[d] + (d+1)/gamma * m_s[d+1], checked against the
    # independent pair construction at s+1
    gamma = 1.0
    a0 = normalized_oracle(0, 1.0, gamma)
    b0 = normalized_oracle(0, -1.0, gamma)
    A, B = _kernels.pair_rows(0.5, a0, b0, gamma, 300)
    raised = _kernels.raise_row(A, gamma)  # should be m_{3/2}
    for d in [0, 5, 100, 299]:
        ref = normalized_oracle(d, 3.0, gamma)
        assert abs(raised[d] - ref) <= 1e-11 * abs(ref)


def test_partial_sums_at_matches_fsum():
    rng = np.random.default_rng(3)
    values = rng.normal(size=400)
    mults = rng.integers(1, 9, size=400).astype(np.int64)
    expanded = np.repeat(values, mults)
    ranks = np.array([0, 1, 17, 100, expanded.size - 1], dtype=np.int64)
    out = _kernels.partial_sums_at(values, mults, ranks)
    for r, got in zip(ranks, out):
        ref = math.fsum(expanded[: r + 1])
        assert abs(got - ref) <= 1e-14 * (1 + abs(ref))


def test_active_backend_is_numpy():
    assert _kernels.ACTIVE_BACKEND == "numpy"


def test_raise_row_bit_identical_to_serial():
    rng = np.random.default_rng(11)
    for gamma in (0.3, 1.0, 2.0):
        row = rng.random(3000) + 0.1
        assert np.array_equal(_kernels.raise_row(row, gamma),
                              serial_raise_row(row, gamma))


@pytest.mark.parametrize("gamma", [0.3, 1.0, 3.0])
def test_ladder_row_matches_serial(gamma):
    rng = np.random.default_rng(12)
    # the last row is shorter than the serial prefix
    rows = [rng.random(5000) + 0.5, np.ones(5000),
            1.0 / np.sqrt(np.arange(5000) + 1.0), np.linspace(1.0, 2.0, 20)]
    for prev in rows:
        got = _kernels.ladder_row(prev, 0.3, gamma)
        ref = serial_ladder_row(prev, 0.3, gamma)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-15


def test_pair_rows_bit_identical_to_serial(monkeypatch):
    # the rows are filled chunk by chunk: dmax below, on and across the
    # chunk edges gives the serial loop's bits
    for chunk in (1, 7, 1000, _kernels._CHUNK):
        monkeypatch.setattr(_kernels, "_CHUNK", chunk)
        for dmax in (0, 1, 6, 7, 8, 999, 1000, 1001, 4000):
            got = _kernels.pair_rows(0.5, 1.2, 0.7, 1.1, dmax)
            ref = serial_pair_rows(0.5, 1.2, 0.7, 1.1, dmax)
            assert got[0].tobytes() == ref[0].tobytes()
            assert got[1].tobytes() == ref[1].tobytes()


def restarted_ladder_row(prev, out0, gamma):
    """`_kernels.ladder_row` as one unchunked expression over every degree
    past the serial prefix."""
    L = prev.shape[0]
    head = min(L, int(_kernels._LADDER_SERIAL_PER_GAMMA * gamma)
               + _kernels._LADDER_SERIAL_MIN)
    out = serial_ladder_row(prev[:head], out0, gamma) if head else np.empty(0)
    d = np.arange(head, L)
    h = np.zeros(L - head)
    for k in range(_kernels._LADDER_TERMS - 1, -1, -1):
        h = (gamma / (d - k)) * (prev[head - 1 - k:L - 1 - k] - h)
    return np.concatenate([out, h])


@pytest.mark.parametrize("chunk", [1, 7, 1000, _kernels._CHUNK])
def test_ladder_row_chunks_are_bit_identical(monkeypatch, chunk):
    monkeypatch.setattr(_kernels, "_CHUNK", chunk)
    rng = np.random.default_rng(13)
    for gamma in (0.3, 1.0, 2.5):
        for L in (20, 200, 1105, 5000):
            prev = rng.random(L) + 0.5
            got = _kernels.ladder_row(prev, 0.3, gamma)
            assert got.tobytes() == restarted_ladder_row(prev, 0.3, gamma).tobytes()


@st.composite
def run_length_data(draw):
    runs = draw(st.integers(1, 60))
    values = draw(st.lists(
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
        min_size=runs, max_size=runs))
    mults = draw(st.lists(st.integers(1, 50), min_size=runs, max_size=runs))
    ends = np.cumsum(mults)
    total = int(ends[-1])
    # ranks anywhere, at run boundaries (either side), and the last rank
    pool = st.one_of(st.integers(0, total - 1),
                     st.sampled_from([int(e) - 1 for e in ends]),
                     st.sampled_from([int(e) for e in ends[:-1]] or [0]),
                     st.just(total - 1))
    ranks = draw(st.lists(pool, min_size=1, max_size=12))
    return (np.array(values), np.array(mults, dtype=np.int64),
            np.array(sorted(ranks), dtype=np.int64))


@settings(max_examples=300, deadline=None)
@given(run_length_data())
def test_partial_sums_at_is_correctly_rounded(data):
    values, mults, ranks = data
    expanded = np.repeat(values, mults)
    out = _kernels.partial_sums_at(values, mults, ranks)
    for r, got in zip(ranks, out):
        ref = math.fsum(expanded[: r + 1])
        assert abs(got - ref) <= 1e-15 * (1 + abs(ref))


def test_partial_sums_at_spans_chunks():
    # more runs than one fsum chunk, large multiplicities (inexact products)
    rng = np.random.default_rng(5)
    n = 3 * _kernels._CHUNK + 17
    values = rng.normal(size=n)
    mults = rng.integers(1, 10**6, size=n).astype(np.int64)
    ends = np.cumsum(mults)
    ranks = np.array([0, ends[_kernels._CHUNK] - 1, ends[_kernels._CHUNK],
                      ends[-1] - 5, ends[-1] - 1], dtype=np.int64)
    out = _kernels.partial_sums_at(values, mults, ranks)
    runs = np.searchsorted(ends, ranks, side="right")
    # the exact values: Fraction sums of every product and the partial run
    walked, prefix = 0, Fraction(0)
    for r, run, got in zip(ranks, runs, out):
        for j in range(walked, run):
            prefix += int(mults[j]) * Fraction(float(values[j]))
        walked = run
        start = int(ends[run] - mults[run])
        exact = prefix + (int(r) - start + 1) * Fraction(float(values[run]))
        assert got == float(exact)


@st.composite
def unit_runs(draw):
    values = np.array(draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64,
                  min_value=-1e300, max_value=1e300), max_size=80)))
    # ranks anywhere, on chunk edges and past the end
    ranks = draw(st.lists(st.integers(0, values.size + 5), min_size=1,
                          max_size=12))
    return values, np.array(sorted(ranks), dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(unit_runs(), st.sampled_from([1, 3, 16, _kernels._CHUNK]))
def test_unit_multiplicities_sum_like_an_array_of_ones(data, chunk):
    # a stride-0 view of ones takes the unit path (no cumulative sum, no
    # products): the same walk and chunks as np.ones, so the same bits
    values, ranks = data
    unit = np.broadcast_to(np.int64(1), values.shape)
    ones = np.ones(values.size, dtype=np.int64)
    assert _kernels.is_unit(unit) and (values.size <= 1 or not _kernels.is_unit(ones))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_CHUNK", chunk)
        try:
            got = _kernels.partial_sums_at(values, unit, ranks)
        except OverflowError:  # an intermediate fsum overflow, on both paths
            with pytest.raises(OverflowError):
                _kernels.partial_sums_at(values, ones, ranks)
            return
        ref = _kernels.partial_sums_at(values, ones, ranks)
    assert got.tobytes() == ref.tobytes()


def test_partial_sums_at_of_values_near_the_float_limit():
    # the Veltkamp split of a value above ~1.3e300 overflowed, and the sums
    # came out NaN; both paths give the exact sums
    values = np.array([1.7e308, 1e301, 1e300, -3e299, 5.0, 1e-300])
    exact = np.cumsum([Fraction(v) for v in values.tolist()])
    ranks = np.arange(values.size + 1, dtype=np.int64)
    want = [float(x) for x in exact] + [float(exact[-1])]
    unit = np.broadcast_to(np.int64(1), values.shape)
    for mults in (unit, np.ones(values.size, dtype=np.int64)):
        got = _kernels.partial_sums_at(values, mults, ranks)
        assert got.tolist() == want
    # with multiplicities: mults[j] * values[j] is split after a scaling
    mults = np.array([1, 3, 1000, 7, 2, 5], dtype=np.int64)
    values[0] = 1e307
    exact = np.cumsum([int(m) * Fraction(v) for m, v in zip(mults, values.tolist())])
    ends = np.cumsum(mults) - 1
    got = _kernels.partial_sums_at(values, mults, ends)
    assert got.tolist() == [float(x) for x in exact]
    # a rank inside the run of 1e300
    got = _kernels.partial_sums_at(values, mults, np.array([ends[1] + 400]))
    assert got[0] == float(exact[1] + 400 * Fraction(1e300))
