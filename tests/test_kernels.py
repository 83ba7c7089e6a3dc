"""Correctness of the recurrence/summation kernels, against high-precision
values and against the serial loops they replace (kept here as oracles)."""

import math
import tracemalloc
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focktrace import _kernels
from focktrace.fock_matrices import (_base_moment, moment_chunks,
                                     scaled_moment_row)
from oracles import radial_moment_hp, serial_pair_rows


# -- serial oracles ---------------------------------------------------------

def serial_ladder_row(prev, out0, gamma):
    out = np.empty_like(prev)
    out[0] = out0
    for d in range(1, prev.shape[0]):
        out[d] = (gamma / d) * (prev[d - 1] - out[d - 1])
    return out


def serial_raise_row(row, gamma):
    out = np.empty(row.shape[0] - 1)
    for d in range(out.shape[0]):
        out[d] = row[d] + ((d + 1) / gamma) * row[d + 1]
    return out


def fsum_partial_sums_at(values, mults, ranks):
    """The `math.fsum` walk that `_kernels.partial_sums_at` replaced: the
    runs between consecutive ranks summed in chunks of _CHUNK runs, each
    product fed exactly as two floats, and the running total carried as a
    float pair (fsum of the carry and the chunk, then fsum of the same
    terms minus that sum).  Correctly rounded up to 2^-104 of the totals
    carried; for values below 2^900."""
    out = np.empty(ranks.shape[0])
    unit = _kernels.is_unit(mults)
    if unit:
        runs = np.minimum(ranks, values.shape[0])
        inside = runs < values.shape[0]
        part = ((v,) for v in values[runs[inside]].tolist())
    else:
        ends = np.cumsum(mults)
        runs = np.searchsorted(ends, ranks, side="right")
        inside = runs < values.shape[0]
        part_runs = runs[inside]
        counts = ranks[inside] - (ends[part_runs] - mults[part_runs]) + 1
        part_hi, part_lo = _kernels._two_product(counts.astype(float),
                                                 values[part_runs])
        part = zip(part_hi.tolist(), part_lo.tolist())
    carry = [0.0, 0.0]
    walked = 0
    for i, (run, has_part) in enumerate(zip(runs.tolist(), inside.tolist())):
        while walked < run:
            stop = min(run, walked + _kernels._CHUNK)
            if unit:
                terms = (memoryview(values[walked:stop]),)
            else:
                hi, lo = _kernels._two_product(
                    mults[walked:stop].astype(float), values[walked:stop])
                terms = (memoryview(hi), memoryview(lo[lo != 0]))
            total = math.fsum(chain(carry, *terms))
            rest = math.fsum(chain(carry, *terms, (-total,)))
            carry = [total, rest]
            walked = stop
        out[i] = math.fsum(chain(carry, next(part))) if has_part else carry[0]
    return out


# 2^1074: an integer count of 2^-1074 divided by this rounds to its float
_ONE = 1 << 1074


def exact_partial_sums(values, mults, ranks):
    """The partial sums at ranks as exact integer counts of 2^-1074, the
    spacing of the subnormals, of which every finite float is a whole
    multiple: from exact run products.  A count divided by _ONE, one
    correctly rounded integer true division, is the nearest float, and
    raises OverflowError beyond the float range."""
    mults = np.broadcast_to(mults, values.shape).tolist()
    units = []
    for v in values.tolist():
        num, den = v.as_integer_ratio()  # den is a power of 2, at most _ONE
        units.append(num * (_ONE // den))
    ends = np.cumsum(mults)
    runs = np.searchsorted(ends, ranks, side="right")
    prefix = [0]
    for m, u in zip(mults, units):
        prefix.append(prefix[-1] + m * u)
    out = []
    for r, run in zip(ranks.tolist(), runs.tolist()):
        if run == len(mults):
            out.append(prefix[-1])
        else:
            start = int(ends[run]) - mults[run]
            out.append(prefix[run] + (r - start + 1) * units[run])
    return out


def assert_rounds_exact_sums(values, mults, ranks):
    """partial_sums_at gives float(exact sum) at every rank, and raises
    OverflowError at the first rank whose sum rounds beyond the floats."""
    want = []
    for x in exact_partial_sums(values, mults, ranks):
        try:
            want.append(x / _ONE)
        except OverflowError:
            with pytest.raises(OverflowError):
                _kernels.partial_sums_at(values, mults, ranks[:len(want) + 1])
            break
    got = _kernels.partial_sums_at(values, mults, ranks[:len(want)])
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]


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
    # the pair's row B, and the row m_{1/2} raised from it
    gamma = 1.7
    a0 = normalized_oracle(0, 1.0, gamma)
    b0 = normalized_oracle(0, -1.0, gamma)
    B = _kernels.pair_rows(0.5, a0, b0, gamma, 1500)
    A = scaled_moment_row(1.0, gamma, 1500)
    for d in [0, 3, 33, 400, 1500]:
        assert abs(B[d] - normalized_oracle(d, -1.0, gamma)) <= 5e-12 * abs(
            normalized_oracle(d, -1.0, gamma))
        assert abs(A[d] - normalized_oracle(d, 1.0, gamma)) <= 5e-12 * abs(
            normalized_oracle(d, 1.0, gamma))


def test_raise_row_consistency():
    # m_{s+1}[d] = m_s[d] + (d+1)/gamma * m_s[d+1], checked against the
    # independent quadrature at s+1
    gamma = 1.0
    row = scaled_moment_row(1.0, gamma, 300)
    raised = _kernels.raise_row(row, gamma)  # should be m_{3/2}
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
    # the row B is filled chunk by chunk: dmax below, on and across the
    # chunk edges gives the serial loop's bits
    for chunk in (1, 7, 1000, _kernels._SERIAL_CHUNK, _kernels._CHUNK):
        monkeypatch.setattr(_kernels, "_SERIAL_CHUNK", chunk)
        for dmax in (0, 1, 6, 7, 8, 999, 1000, 1001, 4000, 4096, 4097, 9000):
            _, ref = serial_pair_rows(0.5, 1.2, 0.7, 1.1, dmax)
            got = _kernels.pair_rows(0.5, 1.2, 0.7, 1.1, dmax)
            assert got.tobytes() == ref.tobytes()


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
    # the row is read in chunks of _SERIAL_CHUNK, each restarted at once
    monkeypatch.setattr(_kernels, "_SERIAL_CHUNK", chunk)
    rng = np.random.default_rng(13)
    for gamma in (0.3, 1.0, 2.5):
        for L in (20, 200, 1105, 5000):
            prev = rng.random(L) + 0.5
            got = _kernels.ladder_row(prev, 0.3, gamma)
            assert got.tobytes() == restarted_ladder_row(prev, 0.3, gamma).tobytes()


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
                  min_value=-1e300, max_value=1e300), min_size=1, max_size=80)))
    # ranks anywhere below the length, on chunk edges and at the last value
    ranks = draw(st.lists(st.integers(0, values.size - 1), min_size=1,
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
        got = _kernels.partial_sums_at(values, unit, ranks)
        ref = _kernels.partial_sums_at(values, ones, ranks)
    assert got.tobytes() == ref.tobytes()


def test_partial_sums_at_of_values_near_the_float_limit():
    # the Veltkamp split of a value above ~1.3e300 overflowed, and the sums
    # came out NaN; both paths give the exact sums
    values = np.array([1.7e308, 1e301, 1e300, -3e299, 5.0, 1e-300])
    exact = np.cumsum([Fraction(v) for v in values.tolist()])
    ranks = np.arange(values.size, dtype=np.int64)
    want = [float(x) for x in exact]
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


# values that cancel, underflow and approach the float limit
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1e-300, 1.0, -1.0, 2.0 ** 900, -(2.0 ** 900), 1e301,
                1.7e308, -1.7e308, 1.7976931348623157e308]


@st.composite
def exact_sum_data(draw):
    """Signed values over the whole float range, up to 60 of them, with
    some values negated elsewhere in the sequence, unit, small (up to 50)
    or large multiplicities, and ranks anywhere below the total and at the
    run boundaries."""
    value = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from(_EDGE_VALUES))
    values = draw(st.lists(value, min_size=1, max_size=60))
    values += [-x for x in draw(st.lists(st.sampled_from(values), max_size=10))]
    values = draw(st.permutations(values))
    if draw(st.booleans()):
        mults = np.broadcast_to(np.int64(1), (len(values),))
    else:
        mults = np.array(draw(st.lists(
            st.one_of(st.integers(1, 50), st.integers(1, 2 ** 52)),
            min_size=len(values), max_size=len(values))), dtype=np.int64)
    total = int(mults.sum())
    ends = np.cumsum(mults).tolist()
    pool = st.one_of(st.integers(0, total - 1),
                     st.sampled_from([e - 1 for e in ends] + ends[:-1]))
    ranks = sorted(draw(st.lists(pool, min_size=1, max_size=12)))
    return np.array(values), mults, np.array(ranks, dtype=np.int64)


@settings(max_examples=400, deadline=None)
@given(exact_sum_data(), st.sampled_from([1, 3, 16, 1 << 15]))
def test_partial_sums_at_rounds_the_exact_sum(data, chunk):
    values, mults, ranks = data
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_CHUNK", chunk)
        assert_rounds_exact_sums(values, mults, ranks)


@pytest.mark.parametrize("unit", [True, False])
def test_partial_sums_at_of_one_chunk_spanning_every_exponent(unit):
    # one unsorted chunk holding every binary exponent, subnormal to the
    # float limit, both signs: the extraction skips the empty exponent
    # ranges, finishes, and is exact
    rng = np.random.default_rng(11)
    exps = np.arange(-1074, 1024)
    values = np.ldexp(rng.uniform(1, 2, exps.size), exps)
    values = rng.permutation(values * rng.choice([-1.0, 1.0], exps.size))
    mults = (np.broadcast_to(np.int64(1), values.shape) if unit
             else rng.integers(1, 2 ** 40, values.size))
    total = int(mults.sum())
    ranks = np.sort(rng.integers(0, total, 40))
    ranks = np.concatenate([ranks, [total - 1]])
    assert values.size < _kernels._CHUNK
    assert_rounds_exact_sums(values, mults, ranks)


@pytest.mark.parametrize("n", [1, 2, 3, 16, 1000])
def test_extract_is_exact_at_every_span(n):
    # the unrounded integer, so a single lost bit shows: a chunk of one sign
    # ends at the least bit of its least modulus without a scan, at every
    # spread of exponents over several passes; the least value has its last
    # mantissa bit set
    rng = np.random.default_rng(n)
    p, q = np.empty(n), np.empty(n)
    for spread in range(160):
        x = np.ldexp(rng.uniform(1, 2, n), -rng.integers(0, spread + 1, n))
        x[0] = 1.75
        x[-1] = np.ldexp(1 + 2.0 ** -52, -spread)
        for signed in (x, -x, x * rng.choice([-1.0, 1.0], n)):
            want = sum(_kernels._units(v) for v in signed.tolist())
            got = _kernels._extract(signed, _kernels._span(signed), p, q)
            assert got == want, spread


@pytest.mark.parametrize("unit", [True, False])
def test_partial_sums_at_matches_the_fsum_walk(monkeypatch, unit):
    # sorted spectra, as the estimators read them, across chunk edges: the
    # replaced walk and the extraction give the same bits
    monkeypatch.setattr(_kernels, "_CHUNK", 1024)
    rng = np.random.default_rng(12)
    n = 5 * 1024 + 37
    values = np.sort(rng.random(n) / np.arange(1, n + 1))[::-1].copy()
    mults = (np.broadcast_to(np.int64(1), values.shape) if unit
             else np.arange(1, n + 1, dtype=np.int64))
    total = int(mults.sum())
    ranks = np.unique(np.concatenate([[0, total - 1],
                                      rng.integers(0, total, 30)]))
    got = _kernels.partial_sums_at(values, mults, ranks)
    assert got.tobytes() == fsum_partial_sums_at(values, mults, ranks).tobytes()


def test_partial_sums_at_scratch_is_a_few_chunks():
    # a 2^20-value unit spectrum (8 MB) is summed through O(_CHUNK) scratch:
    # one value-length temporary would break the bound
    rng = np.random.default_rng(13)
    values = np.sort(rng.random(1 << 20))[::-1].copy()
    unit = np.broadcast_to(np.int64(1), values.shape)
    ranks = np.array([2 ** e - 1 for e in range(10, 21)], dtype=np.int64)
    tracemalloc.start()
    try:
        _kernels.partial_sums_at(values, unit, ranks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * _kernels._CHUNK * values.itemsize, peak


def test_ladder_row_scratch_is_one_table_a_chunk():
    # at 2^18 degrees ladder_row allocates its output and, a chunk of
    # _SERIAL_CHUNK degrees at a time, the chunk read with the 12 entries
    # before it, a table of gamma/d and the chunk's result (about 140 KiB
    # in all), inside two tables of _CHUNK + 11 floats: a second row would
    # break the bound
    prev = np.ones((1 << 18) + 5)
    tracemalloc.start()
    try:
        out = _kernels.ladder_row(prev, 0.59634736, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = (_kernels._CHUNK + _kernels._LADDER_TERMS) * out.itemsize
    assert peak <= out.nbytes + 2 * table + 65536, (peak - out.nbytes) / table


def test_pair_rows_scratch_is_one_chunk():
    # at 2^18 degrees pair_rows allocates the row B and, a chunk of
    # _SERIAL_CHUNK degrees at a time, the loop's gamma/d array and two lists
    # of Python floats (8 + 2 * 32 bytes a degree) and the chunk it yields:
    # about 80 bytes a degree of the chunk.  A second row, or lists as long
    # as _CHUNK, would break the bound
    tracemalloc.start()
    try:
        row = _kernels.pair_rows(0.5, 1.2, 0.82, 1.0, 1 << 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.shape == ((1 << 18) + 1,)
    assert peak <= row.nbytes + 80 * _kernels._SERIAL_CHUNK + 65536, \
        (peak - row.nbytes) / _kernels._SERIAL_CHUNK


def whole_row(t, gamma, dmax):
    """m_t[0..dmax] by whole-row recurrences: the serial pair loop, the
    serial raise loop and the unchunked restarted ladder, from the anchor
    and by the steps of `fock_matrices.moment_chunks`: k = s - sigma steps
    from m_0 = 1 for an integer s = t/2, else from the pair's row B at
    sigma = s - floor(s) - 1."""
    s = t / 2.0
    sigma = 0.0 if abs(s - round(s)) < 1e-12 else (s - math.floor(s)) - 1.0
    k = int(round(s - sigma))
    length = dmax + 1 + max(k, 0)
    if sigma == 0.0:
        row = np.ones(length)
    else:
        a0 = gamma * _base_moment(2.0 * (sigma + 1.0), gamma)
        b0 = gamma * _base_moment(2.0 * sigma, gamma)
        _, row = serial_pair_rows(sigma + 1.0, a0, b0, gamma, length - 1)
    for _ in range(k):
        row = serial_raise_row(row, gamma)
    for i in range(-k):
        base = gamma * _base_moment(2.0 * (sigma - i - 1), gamma)
        row = restarted_ladder_row(row, base, gamma)
    return row


@pytest.mark.parametrize("chunk", [7, 100, _kernels._SERIAL_CHUNK])
def test_streamed_rows_are_the_whole_row_recurrences(monkeypatch, chunk):
    # the chunks of every kind of row (m_0 = 1 and the pair's row B, each
    # raised and laddered) are the whole-row recurrences' entries bit for
    # bit, ending before, on and after the ladder's serial head and the
    # chunk edges; no chunk is longer than the source's chunks or the head,
    # and a row asked for up to dmax gives the longer row's first entries
    monkeypatch.setattr(_kernels, "_SERIAL_CHUNK", chunk)
    top = 2 * _kernels._SERIAL_CHUNK + 200
    for gamma in (0.3, 2.5):
        head = int(_kernels._LADDER_SERIAL_PER_GAMMA * gamma) + _kernels._LADDER_SERIAL_MIN
        for t in (0.0, 4.0, -2.0, -4.0, 1.0, 5.0, -1.0, -5.0, -5.3, 0.7):
            ref = whole_row(t, gamma, top)
            for dmax in sorted({0, 11, 12, head - 1, head, head + 12, chunk - 1,
                                chunk, chunk + 1, 2 * chunk + 1, top}):
                chunks = list(moment_chunks(t, gamma, dmax))
                assert max(x.shape[0] for x in chunks) <= max(chunk, head)
                got = np.concatenate(chunks)
                assert got.tobytes() == ref[:dmax + 1].tobytes(), (t, gamma, dmax)
