"""Dixmier-trace estimation from s-number sequences.

For the operators this package targets, the logarithmic Cesaro means
converge, so the trace is the limit of

    (sum of the first K+1 s-numbers) / log(K + 2)

as K grows.  `log_mean` evaluates that quotient over a list of ranks,
`pointwise` inspects the (j+1) s_j law directly, and `extrapolate` removes
the O(1/log K) bias by a least-squares fit of  c + b / log(K+2)  over a
dyadic rank grid of log-means, returning c.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import SNumberSequence

# spec'd default grid for one-dimensional diagonal runs
DEFAULT_RANK_GRID_1D = tuple(2**e for e in range(10, 21, 2))


class DixmierEstimate:
    def __init__(self, value: float, diagnostics: dict):
        self.value = value
        self.diagnostics = diagnostics


def log_mean(seq: SNumberSequence, ranks) -> list:
    """For each rank K of ranks, a non-empty nondecreasing sequence of whole
    numbers in [2, seq.total), the partial sum of the first K+1 values
    divided by log(K+2), as a list of floats; the sums in one walk."""
    ranks = [int(K) for K in ranks]
    if not ranks or ranks[0] < 2:
        raise ValueError("need a non-empty list of ranks K >= 2")
    if ranks[-1] >= seq.total:
        raise ValueError(f"rank {ranks[-1]} beyond sequence length {seq.total}")
    sums = seq.partial_sums(ranks).tolist()
    return [s / math.log(K + 2) for s, K in zip(sums, ranks)]


def pointwise(seq: SNumberSequence, window) -> tuple[float, float]:
    """Median and relative spread of (j+1) s_j over a rank window [lo, hi].

    The median is the mean of the one or two middle values of a partition,
    as `np.median` takes it on finite values, without `np.median`'s NaN
    check, which imports `numpy.ma`.  The window's values are partitioned
    in place: they are this call's own.
    """
    lo, hi = int(window[0]), int(window[1])
    vals = seq.pointwise_values(lo, hi)
    k = vals.shape[0] // 2
    kth = [k - 1, k] if vals.shape[0] % 2 == 0 else [k]
    vals.partition(kth)
    med = float(vals[kth[0]:k + 1].mean())
    spread = float((vals.max() - vals.min()) / max(abs(med), 1e-300))
    return med, spread


def default_rank_grid(seq: SNumberSequence):
    """Dyadic ranks up to the largest certified (or available) rank.

    Ranks touched by the degree truncation are excluded: beyond the certified
    rank the sorted prefix may be missing interleaving eigenvalues from
    higher degrees, which would bias the fit.  A spectrum whose tail rises
    (certificate "unverified") certifies no rank, and is refused.
    """
    if seq.certificate == "unverified":
        raise ValueError("no rank is certified: the spectrum's largest "
                         "modulus rises over its last 5% of degrees, so the "
                         "truncated degrees may hold larger values")
    top = seq.total - 1
    if seq.certified_rank is not None:
        top = min(top, seq.certified_rank - 1)
    if top < 8:
        raise ValueError("sequence too short to extrapolate")
    hi = int(math.floor(math.log2(top)))
    lo = max(4, hi - 7)
    return [2**e for e in range(lo, hi + 1)]


def _line_fit(x, y):
    """(intercept, slope) of the least-squares line y = intercept + slope * x,
    in closed form about the means; an x with no spread is a ValueError."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.min() == x.max():
        raise ValueError("x has no spread: it determines no line")
    mx, my = x.mean(), y.mean()
    dx = x - mx
    slope = float(dx @ (y - my) / (dx @ dx))
    return float(my - slope * mx), slope


def extrapolate(seq: SNumberSequence, K_grid=None) -> DixmierEstimate:
    """Fit log_mean(K) = c + b / log(K+2) over a dyadic grid; the constant c
    estimates the trace.  Diagnostics carry the fit residual and the spread of
    the raw log-means over the tail of the grid."""
    if K_grid is None:
        K_grid = default_rank_grid(seq)
    K_grid = sorted(int(k) for k in K_grid)
    if len(K_grid) < 3:
        raise ValueError("need at least 3 grid points")
    lms = log_mean(seq, K_grid)
    xs = 1.0 / np.log(np.asarray(K_grid, dtype=float) + 2.0)
    ys = np.array(lms)
    c, b = _line_fit(xs, ys)
    rms = float(np.sqrt(np.mean((ys - (c + b * xs)) ** 2)))
    ill = bool(xs.max() - xs.min() < 1e-3)
    tail = lms[-3:]
    spread_tail = (max(tail) - min(tail)) / max(abs(c), 1e-300)
    diags = {
        "fit_b": b,
        "fit_residual_rms": rms,
        "log_mean_tail": tail,
        "log_mean_tail_spread": spread_tail,
        "grid": list(K_grid),
        "ill_conditioned": ill,
    }
    if ill:
        diags["warning"] = "grid spans too little of 1/log(K+2); fit ill-conditioned"
    return DixmierEstimate(c, diags)
