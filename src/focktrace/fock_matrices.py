"""Exact truncated operator matrices on the Gaussian-weighted entire-function
space over C^n: Toeplitz compressions of the symbol algebra, buffered
products, heat-inverse (Weyl-type) quantization, and coherent-state
(Berezin) symbols.  The dense matrices serve the Weyl-calculus check; the
trace experiments read only the moment rows, as streams of chunks.

Matrix elements come from the angular x radial factorization: the angular
sphere integral is exact in closed form, and the radial piece is carried by
the normalized moments

    m_t[d] = gamma^(d+1)/d! * integral u^d (1+u)^(t/2) e^(-gamma u) du,

which stay O(1) at every degree, so assembly never overflows.  Every row
comes one way (`moment_chunks`): from one anchor row, by integer steps in
t/2.  An integer t/2 anchors at m_0 = 1, any other at m_sigma, sigma in
(-1, 0), the lower row of the pair recurrence (`pair_chunks`).  A row with
t <= 0 steps down from its anchor (`ladder_chunks`), each step a stream of
chunks over the one it steps from; only a direct library call asks for a
row with t > 0 (the experiments' symbols decay), and that row is raised
whole (`raise_row`).  The d = 0 moments that seed the pair and the
downward steps are gamma e^gamma E_(-t/2)(gamma), in terms of the
generalized exponential integral (DLMF 8.19), evaluated in `decimal`
arithmetic, rounded to a float once and kept (`_base_moment`); each
stream is started for the call that asks for it, and only the spectral
path reads it chunk by chunk: `scaled_moment_row` joins it into one array
for the dense matrices.
Entries are evaluated in a fixed term order.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import _kernels
from .core import _tkey, degree, enumerate_basis, graded_rank
from .symbols import RadialSymbol
from .weyl_calculus import _require_gamma, heat_inverse


class FockContext:
    """Ambient dimension n and Gaussian weight exp(-gamma |z|^2)."""

    def __init__(self, n: int, gamma: float):
        if n < 1:
            raise ValueError("need n >= 1")
        _require_gamma(gamma, "FockContext")
        self.n = n
        self.gamma = gamma


# ---------------------------------------------------------------------------
# radial moments

_BASE_CACHE: dict = {}


def _base_moment(t: float, gamma: float) -> float:
    """integral_0^inf (1+u)^s e^(-gamma u) du, s = t/2, to double precision.

    Substituting v = 1 + u gives e^gamma * E_p(gamma) with p = -s, where
    E_p(z) = integral_1^inf v^(-p) e^(-z v) dv is the generalized exponential
    integral (DLMF 8.19).  The value is computed in 32-digit `decimal`
    arithmetic, each sum run until its relative step is below 1e-27, rounded
    to a float once; it is the float of the 45-digit evaluation to 1e-40
    (`base_moment_45` in tests/oracles.py) on every exponent from -40 to 2
    and weight from 0.01 to 200 tested, at less than half its cost:

    - e^z E_p(z) is the continued fraction
      1/(z+p - 1p/(z+p+2 - 2(p+1)/(z+p+4 - ...))), summed by the modified
      Lentz method at z = max(gamma, 1); for gamma >= 1 that is the value.
    - For gamma < 1, v = gamma (1+u) gives gamma^(-s-1) e^gamma times
      integral_gamma^1 v^s e^(-v) dv + e^(-1) I(s, 1).  The finite integral
      is the termwise integral of the power series of e^(-v), whose term with
      s + k + 1 = 0 is -ln gamma; I(s, 1) is the fraction at z = 1.
    """
    key = (_tkey(t), float(gamma))
    if key not in _BASE_CACHE:
        import decimal  # here, so that runs without moment rows never load it
        with decimal.localcontext() as context:
            context.prec = 32
            Dec = decimal.Decimal
            eps, tiny = Dec("1e-27"), Dec("1e-300")
            s, g = Dec(t / 2.0), Dec(gamma)
            z, p = max(g, Dec(1)), -s
            # modified Lentz: f = b_0 + a_1/(b_1 + a_2/(b_2 + ...)), with the
            # running ratios C and D of its convergents
            f = z + p or tiny
            C, D, k = f, Dec(0), 0
            while True:
                k += 1
                a, b = -k * (p + k - 1), z + p + 2 * k
                D = 1 / (b + a * D or tiny)
                C = b + a / C or tiny
                step = C * D
                f *= step
                if abs(step - 1) < eps:
                    break
            val = 1 / f
            if gamma < 1.0:
                # sum_k (-1)^k/k! integral_gamma^1 v^(s+k) dv, with
                # power = gamma^(s+k+1)
                lift = g ** (s + 1)
                total, coef, power, k = Dec(0), Dec(1), lift, 0
                while True:
                    e = s + k + 1
                    term = coef * (-g.ln() if e == 0 else (1 - power) / e)
                    total += term
                    if k > -s and abs(term) <= eps * abs(total):
                        break
                    k += 1
                    coef, power = -coef / k, power * g
                val = g.exp() / lift * (total + val / Dec(1).exp())
            _BASE_CACHE[key] = float(val)
    return _BASE_CACHE[key]


def moment_chunks(t: float, gamma: float, dmax: int):
    """m_t[0..dmax], with m_t[d] = gamma^(d+1)/d! * integral u^d (1+u)^(t/2)
    e^(-gamma u) du, as consecutive chunks, built by k = s - sigma integer
    steps from one anchor m_sigma: m_0 = 1 for an integer s = t/2, else the
    `pair_chunks` row with sigma = s - floor(s) - 1 in (-1, 0).

    A row with t <= 0 steps down only (k <= 0), each step a stream of
    chunks over the one it steps from, so only chunk-sized scratch and the
    state each recurrence carries are held while the chunks are read; each
    of its chunks is checked to lie in [0, 1] (`_in_unit_range`).  The
    experiments' symbols decay, so only a direct library call asks for a
    row with t > 0: its anchor is joined and raised whole, k times.  The
    base moments are evaluated at this call, the chunks as they are read.
    """
    s, gamma = _tkey(t) / 2.0, float(gamma)
    sigma = 0.0 if abs(s - round(s)) < 1e-12 else (s - math.floor(s)) - 1.0
    k = int(round(s - sigma))
    length = dmax + 1 + max(k, 0)
    if sigma == 0.0:
        chunks = _kernels.pieces(np.broadcast_to(1.0, (length,)))
    else:
        a0 = gamma * _base_moment(2.0 * (sigma + 1.0), gamma)
        b0 = gamma * _base_moment(2.0 * sigma, gamma)
        chunks = _kernels.pair_chunks(sigma + 1.0, a0, b0, gamma, length - 1)
    if k > 0:
        row = _kernels.joined(chunks, length)
        for _ in range(k):
            row = _kernels.raise_row(row, gamma)
        return _kernels.pieces(row)
    for i in range(-k):
        base = gamma * _base_moment(2.0 * (sigma - i - 1), gamma)
        chunks = _kernels.ladder_chunks(chunks, base, gamma)
    return _in_unit_range(chunks, t, gamma)


def _in_unit_range(chunks, t, gamma):
    """chunks, each refused (ValueError) by its min and max if it leaves
    [0, 1 + 1e-12], where m_t lies for t <= 0: the mean of (1+X)^(t/2),
    X ~ Gamma(d+1, gamma).  Rows leave it at large gamma: the serial heads
    run through d < gamma, and each step there scales the error by gamma/d."""
    for x in chunks:
        if not (x.min() >= 0 and x.max() <= 1 + 1e-12):
            raise ValueError(f"moment row t = {t:g} at gamma = {gamma:g} leaves "
                             f"[0, 1]: the recurrences lose it at this gamma")
        yield x


def scaled_moment_row(t: float, gamma: float, dmax: int) -> np.ndarray:
    """m_t[0..dmax]: the chunks of `moment_chunks` in one array."""
    return _kernels.joined(moment_chunks(t, gamma, dmax), dmax + 1)


# ---------------------------------------------------------------------------
# operator matrices

class OperatorMatrix:
    """Dense matrix of an operator compressed to span{z^alpha : |alpha| <= D},
    rows/columns in the global graded basis order.  entries[i_beta, i_alpha]
    is the coefficient of e_beta in (T e_alpha)."""

    def __init__(self, D: int, entries: np.ndarray):
        self.D = D
        self.entries = entries

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def toeplitz_matrix(ctx: FockContext, S: RadialSymbol, D: int) -> OperatorMatrix:
    """Compression of multiplication by S to the degree-<=D subspace.

    The (beta, alpha) entry in the normalized monomial basis is the sum over
    terms (c, p, q, t) with alpha + p = beta + q of

        c * m_t[|a|+n-1] * sqrt((a!/alpha!) (a!/beta!)) * gamma^(-(|p|+|q|)/2),

    with a = alpha + p.  All terms are evaluated in one array pass:

    - one moment row per distinct t, at the length the longest term needs
      (no entry depends on a row's length);
    - the (term, column alpha) pairs whose beta stays in the cone and below
      degree D, from one term-by-column mask, in term-major order;
    - per pair, the rising products r_alpha = a!/alpha! and r_beta = a!/beta!
      multiplied up factor by factor, with an exact 1 past the pair's own
      exponent, and the value ((c * m_t) * gamma^(...)) * sqrt(r_alpha * r_beta);
    - one unbuffered `np.add.at`, which adds the pairs in order, so each
      entry sums its terms in their stored order.

    Every multiply has a real operand (a moment, a power of gamma, a square
    root), so no value depends on where it falls in an array, as a product
    of two complex numbers may; the entries are those of evaluating each
    term on its own.
    """
    if S.n != ctx.n:
        raise ValueError("symbol dimension does not match context")
    n, gamma = ctx.n, ctx.gamma
    basis = np.array(enumerate_basis(n, D), dtype=np.int64).reshape(-1, n)
    deg = basis.sum(axis=1)
    M = np.zeros((basis.shape[0], basis.shape[0]), dtype=complex)
    P = np.array([p for p, _q, _t in S.terms], dtype=np.int64).reshape(-1, n)
    Q = np.array([q for _p, q, _t in S.terms], dtype=np.int64).reshape(-1, n)
    coef = np.array(list(S.terms.values()), dtype=complex)
    dp, dq = P.sum(axis=1), Q.sum(axis=1)
    gfac = np.array([gamma ** (-(a + b) / 2.0)
                     for a, b in zip(dp.tolist(), dq.tolist())])
    ts = {}
    tidx = np.array([ts.setdefault(t, len(ts)) for _p, _q, t in S.terms],
                    dtype=np.intp)
    dmax = D + int(dp.max(initial=0)) + n
    rows = np.array([scaled_moment_row(t, gamma, dmax) for t in ts]
                    ).reshape(len(ts), dmax + 1)
    shift = P - Q
    fits = deg + (dp - dq)[:, None] <= D
    for i in range(n):
        fits &= basis[:, i] + shift[:, i, None] >= 0
    k, cols = np.nonzero(fits)
    alpha = basis[cols]
    beta = alpha + shift[k]
    Pk, Qk = P[k], Q[k]
    r_alpha = np.ones(k.shape[0])
    r_beta = np.ones(k.shape[0])
    for i in range(n):
        for l in range(1, int(P[:, i].max(initial=0)) + 1):
            r_alpha *= np.where(Pk[:, i] >= l, alpha[:, i] + l, 1)
        for l in range(1, int(Q[:, i].max(initial=0)) + 1):
            r_beta *= np.where(Qk[:, i] >= l, beta[:, i] + l, 1)
    val = coef[k] * rows[tidx[k], deg[cols] + (dp[k] + (n - 1))]
    val *= gfac[k]
    val *= np.sqrt(r_alpha * r_beta)
    np.add.at(M, (graded_rank(beta), cols), val)
    return OperatorMatrix(D, M)


def _symbol_buffer(S: RadialSymbol) -> int:
    return max((max(degree(p), degree(q)) for (p, q, _t) in S.terms), default=0)


def buffered_product(ctx: FockContext, factors, D: int) -> OperatorMatrix:
    """Operator product of Toeplitz factors, assembled at internal degree
    D + B and compressed to degree D.

    B sums each factor's maximal monomial shift, which makes the degree-<=D
    block of the product exact: no factor can move total degree past the
    buffer.
    """
    if not factors:
        raise ValueError("need at least one factor")
    Dbuf = D + sum(_symbol_buffer(f) for f in factors)
    prod = toeplitz_matrix(ctx, factors[0], Dbuf).entries
    for f in factors[1:]:
        prod = prod @ toeplitz_matrix(ctx, f, Dbuf).entries
    size = math.comb(D + ctx.n, ctx.n)
    return OperatorMatrix(D, np.array(prod[:size, :size]))


def weyl_matrix(ctx: FockContext, a: RadialSymbol, D: int) -> OperatorMatrix:
    """Quantization with heat-inverse symbol: toeplitz(heat_inverse(a), D).
    Defined for polynomial symbols."""
    return toeplitz_matrix(ctx, heat_inverse(a, ctx.gamma), D)


def berezin(ctx: FockContext, mats, w) -> list:
    """Coherent-state expectations at w of a non-empty sequence of
    OperatorMatrix of one truncation degree, from the truncated kernel, as
    a list of complex in that order: the coherent vector is built once for
    all of them.  w is a point of C^n, of shape (n,).  ValueError for no
    matrices, matrices of different degrees or a point of another shape.

    The truncation carries >= 1 - 1e-10 of the kernel mass when
    D >= gamma |w|^2 + 10 sqrt(gamma |w|^2) + 20 (Poisson tail profile of the
    kernel coefficients in total degree); a warning is issued otherwise.
    """
    n, gamma = ctx.n, ctx.gamma
    if not mats:
        raise ValueError("need at least one matrix")
    D = mats[0].D
    if any(m.D != D for m in mats):
        raise ValueError("matrices of different truncation degrees")
    w = np.asarray(w, dtype=complex)
    if w.shape != (n,):
        raise ValueError("point dimension does not match context")
    lam = gamma * float(np.sum(np.abs(w) ** 2))
    if D < lam + 10.0 * math.sqrt(lam) + 20.0:
        warnings.warn(
            f"truncation degree D={D} may not capture the kernel mass at "
            f"|w|^2={lam / gamma:g} (needs ~{lam + 10 * math.sqrt(lam) + 20:.0f})",
            RuntimeWarning, stacklevel=2)
    # the normalized coherent vector w^alpha sqrt(gamma^|alpha| / alpha!)
    # e^(-lam/2) is a product of one-variable factors
    factors = [_coherent_factors(wj, gamma, D).tolist() for wj in w.tolist()]
    e = np.array([math.prod(f[a] for f, a in zip(factors, alpha))
                  for alpha in enumerate_basis(n, D)])
    return [complex(e @ m.entries @ e.conj()) for m in mats]


def _coherent_factors(wj: complex, gamma: float, D: int) -> np.ndarray:
    """wj^a sqrt(gamma^a / a!) e^(-gamma |wj|^2 / 2) for a = 0..D, by a ratio
    recurrence in a (no factorial), in Python complex arithmetic.  The
    Gaussian is spread over the first m = ceil(gamma |wj|^2) steps, so no
    partial product under- or overflows below gamma |wj|^2 ~ 3800; the part
    still owed below step m comes last."""
    lam = gamma * abs(wj) ** 2
    m = max(math.ceil(lam), 1)
    damp = math.exp(-lam / (2 * m))
    out = [1.0 + 0.0j]
    for a in range(1, D + 1):
        out.append(out[-1] * wj * (math.sqrt(gamma / a) * (damp if a <= m else 1.0)))
    return np.array(out) * damp ** np.maximum(m - np.arange(D + 1), 0)
