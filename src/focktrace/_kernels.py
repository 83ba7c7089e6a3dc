"""Hot numeric kernels: scaled-moment recurrences and correctly rounded
partial sums, written with numpy and `math.fsum`.

The recurrences advance the normalized radial moments

    m_s[d] = gamma^(d+1) / d! * integral_0^inf u^d (1+u)^s e^(-gamma u) du

degree by degree.  They are the per-degree workhorse of the diagonal
spectral path and run for up to ~10^6 steps.

- `raise_row` is not a recurrence: one slice expression, bit-identical to
  the serial loop.
- `ladder_row` is damped (each step multiplies the carried value by
  -gamma/d), so after a short serial prefix every entry is the same
  recurrence restarted a few steps back, run for a chunk of degrees at once.
- `pair_rows` keeps B in a serial loop: A is a running integral of B, so
  that recurrence is not damped and cannot be restarted.  It fills
  preallocated rows one chunk of degrees at a time, and each chunk of A is
  a sequential `np.cumsum` of the loop's B, with the loop's bits.
- `partial_sums_at` sums a run-length sequence with `math.fsum`; each
  result is the correctly rounded sum of the exact run products, up to an
  error below 2^-104 of the sums walked.  Unit multiplicities (a stride-0
  view of ones) take a path where rank r is run r and the values are the
  products, with the same bits.

The serial loops these kernels replace are kept in ``tests/`` as oracles.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

ACTIVE_BACKEND = "numpy"

# ladder_row: serial steps before the restarted form takes over are
# _LADDER_SERIAL_PER_GAMMA * gamma + _LADDER_SERIAL_MIN; from there each
# step damps by gamma/d < 1/40, and _LADDER_TERMS steps damp the dropped
# start below 40^-12 of the result
_LADDER_SERIAL_PER_GAMMA = 40
_LADDER_SERIAL_MIN = 64
_LADDER_TERMS = 12

# ladder_row, pair_rows: degrees per chunk; partial_sums_at: runs summed per
# fsum call (each bounds the scratch memory)
_CHUNK = 1 << 15
# _two_product: above this modulus 134217729 * x can overflow
_SPLIT_MAX = 2.0 ** 995


def ladder_row(prev, out0, gamma):
    """m_{s-1}[d] = (gamma/d) * (m_s[d-1] - m_{s-1}[d-1]); damped, stable.

    Degrees d >= 40 gamma + 64 run the recurrence from zero at d - 12, for
    _CHUNK degrees at once; the dropped start is damped by
    prod gamma/(d-i) < 40^-12, so the result matches the serial loop to
    rounding.
    """
    L = prev.shape[0]
    out = np.empty(L)
    head = min(L, int(_LADDER_SERIAL_PER_GAMMA * gamma) + _LADDER_SERIAL_MIN)
    p = prev[:head].tolist()
    acc = float(out0)
    serial = [acc]
    for d in range(1, head):
        acc = (gamma / d) * (p[d - 1] - acc)
        serial.append(acc)
    out[:head] = serial
    # each degree is restarted on its own, so _CHUNK degrees at a time
    for lo in range(head, L, _CHUNK):
        hi = min(lo + _CHUNK, L)
        d = np.arange(lo, hi)
        h = np.zeros(hi - lo)
        for k in range(_LADDER_TERMS - 1, -1, -1):
            h = (gamma / (d - k)) * (prev[lo - 1 - k:hi - 1 - k] - h)
        out[lo:hi] = h
    return out


def pair_rows(s_plus_one, a0, b0, gamma, dmax):
    """Coupled advance of (A, B) = (m_{s+1}, m_s) for non-integer s in (-1, 0):

        B[d] = (gamma/d) * (A[d-1] - B[d-1])        (algebraic identity)
        A[d] = A[d-1] + ((s+1)/gamma) * B[d]        (integration by parts)

    A is a running integral of B, so errors in A are carried undamped and
    the recurrence cannot be restarted part way like `ladder_row`: B stays a
    serial loop (on Python floats, the same IEEE arithmetic), which carries
    A as one float.  The preallocated rows are filled _CHUNK degrees at a
    time: B from the loop, then A as the sequential cumulative sum of
    A[lo-1] and the products ((s+1)/gamma) * B[lo:hi], the same products and
    the same left-to-right additions as the serial loop, so the same bits.
    """
    c = s_plus_one / gamma
    a, b = float(a0), float(b0)
    A = np.empty(dmax + 1)
    B = np.empty(dmax + 1)
    A[0], B[0] = a, b
    for lo in range(1, dmax + 1, _CHUNK):
        hi = min(lo + _CHUNK, dmax + 1)
        Bs = []
        append = Bs.append
        for gd in (gamma / np.arange(lo, hi, dtype=float)).tolist():
            b = gd * (a - b)
            a = a + c * b
            append(b)
        B[lo:hi] = Bs
        steps = c * B[lo:hi]
        steps[0] += A[lo - 1]
        np.cumsum(steps, out=A[lo:hi])
    return A, B


def raise_row(row, gamma):
    """m_{s+1}[d] = m_s[d] + ((d+1)/gamma) * m_s[d+1]; output one shorter."""
    return row[:-1] + (np.arange(1, row.shape[0]) / gamma) * row[1:]


def _split(x):
    # Veltkamp split: x == hi + lo exactly, each half of at most 26 bits
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def _two_product(a, b):
    """p, e with p = fl(a*b) and p + e == a*b exactly (Dekker; barring
    overflow of p, and underflow of e).

    Factors b above _SPLIT_MAX in modulus, whose split would overflow, are
    scaled by 2^-64 first and both results scaled back; at that size the
    power-of-two scalings are exact, and the other entries are untouched."""
    big = np.abs(b) > _SPLIT_MAX
    if big.any():
        scale = np.where(big, 2.0 ** 64, 1.0)
        p, e = _two_product(a, b / scale)
        return p * scale, e * scale
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def is_unit(mults) -> bool:
    """True when mults is a stride-0 view of ones: every run is one rank."""
    return mults.strides == (0,) and (mults.size == 0 or mults[0] == 1)


def partial_sums_at(values, mults, ranks):
    """Partial sums of a run-length sequence at sorted ranks.

    ranks are 0-based inclusive and nondecreasing: result[i] = sum of the
    first ranks[i]+1 sequence elements, where run j contributes mults[j]
    copies of values[j] (mults < 2^53); ranks past the end give the total.

    One walk over the runs up to the last rank: the runs between
    consecutive ranks are summed by `math.fsum` in chunks of 2^15, each
    product mults[j]*values[j] fed exactly as two floats, and the running
    total is carried as a float pair (fsum of the carry and the chunk, then
    fsum of the same terms minus that sum).  At each rank the carry and the
    exact product of the partial run are summed once more.  Each result is
    therefore the correctly rounded exact partial sum, up to an error at
    most 2^-104 times the sum of the running totals carried, one per chunk.

    Unit multiplicities (`is_unit`) take the same walk with the values as
    the products: rank r is run r, with no cumulative sum or splitting.
    """
    out = np.empty(ranks.shape[0])
    unit = is_unit(mults)
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
        part_hi, part_lo = _two_product(counts.astype(float), values[part_runs])
        part = zip(part_hi.tolist(), part_lo.tolist())

    carry = [0.0, 0.0]
    walked = 0
    for i, (run, has_part) in enumerate(zip(runs.tolist(), inside.tolist())):
        while walked < run:
            stop = min(run, walked + _CHUNK)
            if unit:
                terms = (memoryview(values[walked:stop]),)
            else:
                hi, lo = _two_product(mults[walked:stop].astype(float),
                                      values[walked:stop])
                terms = (memoryview(hi), memoryview(lo[lo != 0]))
            total = math.fsum(chain(carry, *terms))
            rest = math.fsum(chain(carry, *terms, (-total,)))
            carry = [total, rest]
            walked = stop
        out[i] = math.fsum(chain(carry, next(part))) if has_part else carry[0]
    return out
