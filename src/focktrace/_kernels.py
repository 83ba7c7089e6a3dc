"""Hot numeric kernels: scaled-moment recurrences and exact partial sums,
written with numpy.

The recurrences advance the normalized radial moments

    m_s[d] = gamma^(d+1) / d! * integral_0^inf u^d (1+u)^s e^(-gamma u) du

degree by degree.  They are the per-degree workhorse of the diagonal
spectral path and run for up to ~10^6 steps.  Each is a stream: a
generator over the consecutive chunks of the row it steps from (or, for
the anchor, of nothing) that yields the consecutive chunks of its own row and
carries between chunks only the state its recurrence needs, so a row is
never held whole unless its reader joins the chunks (`joined`).  Every
entry gets the same operations in the same order whatever the chunks, so
the bits do not depend on them.  `ladder_row` and `pair_rows` are the
streams joined into one array.  Streams step s down only: the decaying
symbols of the experiments never ask for a row with s > 0.

- `ladder_chunks` is damped (each step multiplies the carried value by
  -gamma/d), so after a short serial head every entry is the same
  recurrence restarted a few steps back, run for a chunk of degrees at once
  through one table of gamma/d; it carries its head and the 12 entries
  before each chunk.
- `pair_chunks` yields the row B of a serial loop over (A, B): A is a
  running integral of B, so that recurrence is not damped and cannot be
  restarted.  It yields B _SERIAL_CHUNK degrees at a time, and carries the
  floats (a, b).
- `raise_row` steps s up, one slice expression over a whole row; it serves
  the rows with s > 0 that only a direct library call asks for.
- `partial_sums_at` sums a run-length sequence exactly, by the error-free
  extraction of Rump, Ogita & Oishi ("Accurate floating-point summation,
  part I", SIAM J. Sci. Comput. 31(1), 2008) over chunks of runs, with no
  Python float per value; each result is the exact partial sum, rounded
  once to the nearest float.  Every rank lies below the sequence's length.
  Unit multiplicities (a stride-0 view of ones) take a path where rank r
  is run r and the values are the products, with the same bits.

Beside its result, each kernel holds only chunk-sized scratch.  The serial
loops these kernels replace are kept in ``tests/`` as oracles.
"""

from __future__ import annotations

import math
from itertools import chain, repeat

import numpy as np

ACTIVE_BACKEND = "numpy"

# ladder_chunks: serial steps before the restarted form takes over are
# _LADDER_SERIAL_PER_GAMMA * gamma + _LADDER_SERIAL_MIN; from there each
# step damps by gamma/d < 1/40, and _LADDER_TERMS steps damp the dropped
# start below 40^-12 of the result
_LADDER_SERIAL_PER_GAMMA = 40
_LADDER_SERIAL_MIN = 64
_LADDER_TERMS = 12

# partial_sums_at: runs per extraction, through two scratch buffers of
# _CHUNK floats (each bounds the scratch memory; a pass over 2^15 terms
# takes 53 - 16 bits off the top of each, and a chunk of one sign whose
# moduli span less than 2^19 is used up in two)
_CHUNK = 1 << 15
# degrees per chunk of the sources of streamed rows, which the steps down
# from a source keep: of pair_chunks' serial loop, whose two lists of Python
# floats take 64 bytes a degree, and of `pieces`
_SERIAL_CHUNK = 1 << 12
# partial_sums_at: sums are carried exactly as integer counts of 2^-_UNIT;
# values at or above _BIG in modulus are summed scaled by 2^-_SHIFT
_UNIT = 1074
_ONE = 1 << _UNIT
_BIG = 2.0 ** 900
_SHIFT = 256


def joined(chunks, length):
    """The row of `length` entries that chunks gives in order, in one array."""
    row = np.empty(length)
    lo = 0
    for x in chunks:
        row[lo:lo + x.shape[0]] = x
        lo += x.shape[0]
    return row


def pieces(row):
    """row as consecutive views of at most _SERIAL_CHUNK entries."""
    return (row[lo:lo + _SERIAL_CHUNK]
            for lo in range(0, row.shape[0], _SERIAL_CHUNK))


def _restarted(prev, lo, gamma):
    """m_{s-1}[lo:lo + m] from prev = m_s[lo - 12:lo + m], each degree d run
    from zero at d - 12: one table of gamma/j over the degrees and the 11
    below them serves all 12 passes, which run in place.  The first pass,
    from zero, is a product: prev - 0.0 is prev, bit for bit."""
    back = _LADDER_TERMS - 1
    m = prev.shape[0] - _LADDER_TERMS
    g = np.arange(lo - back, lo + m, dtype=float)
    np.divide(gamma, g, out=g)
    h = prev[:m] * g[:m]
    for k in range(back - 1, -1, -1):
        # h = (gamma / (d - k)) * (prev[d - 1 - k] - h)
        np.subtract(prev[back - k:back - k + m], h, out=h)
        h *= g[back - k:back - k + m]
    return h


def ladder_chunks(chunks, out0, gamma):
    """m_{s-1}[d] = (gamma/d) * (m_s[d-1] - m_{s-1}[d-1]); damped, stable.
    The row of m_{s-1}, as long as that of m_s, from the chunks of m_s.

    The first 40 gamma + 64 degrees (its serial head) run the recurrence
    serially.  Every later degree d runs it from zero at d - 12, a chunk
    of degrees at once for each chunk of m_s, read with the 12 entries
    before it: the dropped start is damped by prod gamma/(d-i) < 40^-12,
    so the result matches the serial loop to rounding.  Each degree is
    restarted on its own, so the bits do not depend on the chunks; beside
    the head, only those 12 entries are carried.
    """
    chunks = iter(chunks)
    want = int(_LADDER_SERIAL_PER_GAMMA * gamma) + _LADDER_SERIAL_MIN
    head, rest = [], None
    for x in chunks:
        take = want - len(head)
        head.extend(x[:take].tolist())
        if x.shape[0] > take:
            rest = x[take:]
            break
    acc = float(out0)
    serial = [acc]
    for d in range(1, len(head)):
        acc = (gamma / d) * (head[d - 1] - acc)
        serial.append(acc)
    part = np.empty(len(head))
    part[:] = serial
    yield part
    if rest is None:
        return
    tail, lo = np.array(head[-_LADDER_TERMS:]), len(head)
    for x in chain((rest,), chunks):
        yield _restarted(np.concatenate((tail, x)), lo, gamma)
        tail = np.concatenate((tail, x[-_LADDER_TERMS:]))[-_LADDER_TERMS:]
        lo += x.shape[0]


def ladder_row(prev, out0, gamma):
    """`ladder_chunks` of the row prev, in one array."""
    return joined(ladder_chunks(pieces(prev), out0, gamma), prev.shape[0])


def pair_chunks(s_plus_one, a0, b0, gamma, dmax):
    """The row B = m_s, degrees 0..dmax, of the coupled advance of
    (A, B) = (m_{s+1}, m_s) for non-integer s in (-1, 0):

        B[d] = (gamma/d) * (A[d-1] - B[d-1])        (algebraic identity)
        A[d] = A[d-1] + ((s+1)/gamma) * B[d]        (integration by parts)

    A is a running integral of B, so errors in A are carried undamped and
    the recurrence cannot be restarted part way like `ladder_chunks`: it
    stays a serial loop (on Python floats, the same IEEE arithmetic), which
    carries A as one float.  The row comes as its degree 0, then the loop's
    B in chunks of _SERIAL_CHUNK degrees; between chunks only (a, b) are
    carried.
    """
    c = s_plus_one / gamma
    a, b = float(a0), float(b0)
    yield np.array([b])
    for lo in range(1, dmax + 1, _SERIAL_CHUNK):
        hi = min(lo + _SERIAL_CHUNK, dmax + 1)
        Bs = []
        append = Bs.append
        for gd in (gamma / np.arange(lo, hi, dtype=float)).tolist():
            b = gd * (a - b)
            a = a + c * b
            append(b)
        # filled in place: np.array(Bs) first scans the list for a dtype
        part = np.empty(hi - lo)
        part[:] = Bs
        # the loop's floats are let go before the chunk is read, and the
        # chunk before the next is built
        del Bs, append
        yield part
        del part


def pair_rows(s_plus_one, a0, b0, gamma, dmax):
    """`pair_chunks`, degrees 0..dmax, in one array."""
    return joined(pair_chunks(s_plus_one, a0, b0, gamma, dmax), dmax + 1)


def raise_row(row, gamma):
    """m_{s+1}[d] = m_s[d] + ((d+1)/gamma) * m_s[d+1] from the whole row
    m_s: a row one shorter, in one slice expression."""
    out = np.arange(1, row.shape[0], dtype=float)
    out /= gamma
    out *= row[1:]
    out += row[:-1]
    return out


def _split(x):
    # Veltkamp split: x == hi + lo exactly, each half of at most 26 bits
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def _two_product(a, b):
    """p, e with p = fl(a*b) and p + e == a*b exactly (Dekker), for
    |a*b| and 134217729 * |a|, |b| below the float limit.  With a whole, as
    multiplicities are, a*b is a whole multiple of 2^-1074, and e is exact
    where it is subnormal too."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def _units(x):
    """The float x as an exact integer count of 2^-1074, the spacing of the
    subnormals, of which every finite float is a whole multiple."""
    n, d = x.as_integer_ratio()
    return n << (_UNIT + 1 - d.bit_length())


def _span(x):
    """(min, max) of x, without an |x| temporary."""
    return x.min(), x.max()


def _extract(x, span, p, q):
    """The exact sum of x, with span = _span(x), max |x| < 2^(1021-M) and
    2^M >= len(x) + 2, as a count of 2^-1074; p and q are scratch of at
    least len(x).

    Error-free extraction (Rump, Ogita & Oishi 2008, ExtractVector): with
    |x| < 2^(e-M) and sigma = 2^e, q = (sigma + x) - sigma is x rounded to
    a multiple of 2^(e-53) (of 2^(e-52) where x > 0), exactly, and x - q is
    exact.  No partial sum of those multiples reaches sigma, so `q.sum()`
    is exact in any order.  Each pass leaves |x - q| <= 2^(e-53), and x is
    used up once it is a multiple of 2^(e-52): at the subnormal spacing,
    or, for x of one sign, at the spacing below its smallest modulus.
    """
    n = x.shape[0]
    p, q = p[:n], q[:n]
    M = (n + 1).bit_length()
    lo, hi = span
    # x is a whole multiple of 2^low: of the subnormal spacing or, when x
    # has one sign, of the spacing below its least modulus
    least = lo if lo > 0 else -hi if hi < 0 else 0.0
    low = max(math.frexp(least)[1] - 53, -1074) if least else -1074
    top = max(hi, -lo)
    total = 0
    while top:
        e = math.frexp(top)[1] + M
        sigma = math.ldexp(1.0, e)
        np.add(x, sigma, out=q)
        q -= sigma
        total += _units(q.sum())
        if e - 52 <= low:
            break
        # the residual overwrites q, and the next pass extracts into p
        np.subtract(x, q, out=q)
        x, p, q = q, q, p
        # |x| <= 2^(e-53) now; with a least bit known, the loop ends at it
        # without looking for the new top
        top = math.ldexp(1.0, e - 53) if low > -1074 else max(x.max(), -x.min())
    return total


def _run_units(values, mults, p, q):
    """The exact sum of mults[j] * values[j] (mults None: of the values) as
    a count of 2^-1074, with p and q as scratch of at least len(values).

    Values at or above _BIG in modulus are summed apart, times 2^-_SHIFT,
    which is exact at that size and keeps every product and sigma finite;
    their count is scaled back as an integer."""
    if not values.size:
        return 0
    span = _span(values)
    if max(span[1], -span[0]) >= _BIG:
        big = np.abs(values) >= _BIG
        rest = ~big
        m_big, m_rest = (None, None) if mults is None else (mults[big], mults[rest])
        return ((_run_units(values[big] * 2.0 ** -_SHIFT, m_big, p, q) << _SHIFT)
                + _run_units(values[rest], m_rest, p, q))
    if mults is None:
        return _extract(values, span, p, q)
    hi, lo = _two_product(mults.astype(float), values)
    return _extract(hi, _span(hi), p, q) + _extract(lo, _span(lo), p, q)


def is_unit(mults) -> bool:
    """True when mults is a stride-0 view of ones: every run is one rank."""
    return mults.strides == (0,) and (mults.size == 0 or mults[0] == 1)


def partial_sums_at(values, mults, ranks):
    """Correctly rounded partial sums of a run-length sequence at sorted
    ranks.

    ranks are 0-based inclusive, nondecreasing and below the sequence's
    length: result[i] = sum of the first ranks[i]+1 sequence elements, where
    run j contributes mults[j] copies of values[j] (values finite,
    mults < 2^53).  Each result is the exact partial sum rounded once to the
    nearest float (ties to even); one that rounds beyond the float range
    raises OverflowError.

    One walk over the runs up to the last rank, _CHUNK runs at a time: each
    chunk's products mults[j]*values[j], fed exactly as Dekker's two halves,
    are summed exactly by vectorized extraction (`_extract`), and the
    running total is carried as an integer count of 2^-1074.  At each rank
    the exact product of the partial run is added to that integer, and one
    correctly rounded integer division gives the float.

    Unit multiplicities (`is_unit`) take the same walk with the values as
    the products: rank r is run r, with no cumulative sum or splitting.
    """
    out = np.empty(ranks.shape[0])
    unit = is_unit(mults)
    if unit:
        runs = ranks
        counts = repeat(1)
    else:
        ends = np.cumsum(mults)
        runs = np.searchsorted(ends, ranks, side="right")
        counts = (ranks - (ends[runs] - mults[runs]) + 1).tolist()
    parts = [c * _units(v) for c, v in zip(counts, values[runs].tolist())]

    p = np.empty(min(values.shape[0], _CHUNK))
    q = np.empty_like(p)
    total = 0
    walked = 0
    for i, (run, part) in enumerate(zip(runs.tolist(), parts)):
        while walked < run:
            stop = min(run, walked + _CHUNK)
            total += _run_units(values[walked:stop],
                                None if unit else mults[walked:stop], p, q)
            walked = stop
        out[i] = (total + part) / _ONE
    return out
