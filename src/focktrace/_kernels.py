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
  recurrence restarted a few steps back, run for all degrees at once.
- `pair_rows` stays a serial loop: A is a running integral of B, so that
  recurrence is not damped and cannot be restarted.
- `partial_sums_at` sums a run-length sequence with `math.fsum`; each
  result is the correctly rounded sum of the exact run products, up to an
  error below 2^-104 of the sums walked.

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

# partial_sums_at: runs summed per fsum call (bounds the scratch memory)
_CHUNK = 1 << 15


def ladder_row(prev, out0, gamma):
    """m_{s-1}[d] = (gamma/d) * (m_s[d-1] - m_{s-1}[d-1]); damped, stable.

    Degrees d >= 40 gamma + 64 run the recurrence from zero at d - 12 for
    every d at once; the dropped start is damped by prod gamma/(d-i) < 40^-12,
    so the result matches the serial loop to rounding.
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
    if head < L:
        d = np.arange(head, L)
        h = np.zeros(L - head)
        for k in range(_LADDER_TERMS - 1, -1, -1):
            h = (gamma / (d - k)) * (prev[head - 1 - k:L - 1 - k] - h)
        out[head:] = h
    return out


def pair_rows(s_plus_one, a0, b0, gamma, dmax):
    """Coupled advance of (A, B) = (m_{s+1}, m_s) for non-integer s in (-1, 0):

        B[d] = (gamma/d) * (A[d-1] - B[d-1])        (algebraic identity)
        A[d] = A[d-1] + ((s+1)/gamma) * B[d]        (integration by parts)

    A is a running integral of B, so errors in A are carried undamped and
    the recurrence cannot be restarted part way like `ladder_row`: this
    one stays serial (on Python floats, the same IEEE arithmetic).
    """
    c = s_plus_one / gamma
    a, b = float(a0), float(b0)
    A = [a]
    B = [b]
    for d in range(1, dmax + 1):
        b = (gamma / d) * (a - b)
        a = a + c * b
        A.append(a)
        B.append(b)
    return np.array(A), np.array(B)


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
    overflow, and underflow of e)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


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
    """
    out = np.empty(ranks.shape[0])
    ends = np.cumsum(mults)
    runs = np.searchsorted(ends, ranks, side="right")
    inside = runs < values.shape[0]
    part_runs = runs[inside]
    counts = ranks[inside] - (ends[part_runs] - mults[part_runs]) + 1
    part_hi, part_lo = _two_product(counts.astype(float), values[part_runs])
    part = iter(zip(part_hi.tolist(), part_lo.tolist()))

    carry = [0.0, 0.0]
    walked = 0
    for i, (run, has_part) in enumerate(zip(runs.tolist(), inside.tolist())):
        while walked < run:
            stop = min(run, walked + _CHUNK)
            hi, lo = _two_product(mults[walked:stop].astype(float),
                                  values[walked:stop])
            lo = lo[lo != 0]
            total = math.fsum(chain(carry, memoryview(hi), memoryview(lo)))
            rest = math.fsum(chain(carry, memoryview(hi), memoryview(lo),
                                   (-total,)))
            carry = [total, rest]
            walked = stop
        out[i] = math.fsum(chain(carry, next(part))) if has_part else carry[0]
    return out
