"""Spectral extraction: dense Hermitian eigensolve and SVD for truncated
matrices, and an exact per-degree fast path for operator products that the
monomial basis diagonalizes.

A product chain is diagonal when every Toeplitz factor shifts all monomials
by one fixed multi-index and the shifts cancel along the chain.  Its
eigenvalue at alpha is then a finite product of normalized-moment factors,
evaluated for every degree up to a cap, with multiplicities attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import compositions, degree, degree_multiplicity, mi_add, mi_sub
from .fock_matrices import FockContext, OperatorMatrix, scaled_moment_row
from .symbols import RadialSymbol


class DiagonalityError(ValueError):
    """Raised when an operator configuration is not monomial-diagonal."""


@dataclass
class SNumberSequence:
    """Run-length-compressed spectrum sorted by decreasing |value|.

    For s-number data (signed=False) all values are >= 0.  provenance records
    whether the values are exact eigenvalues of the full operator cut at a
    degree ('exact-diagonal(...)') or eigenvalues of a truncation
    ('truncated(...)').  Ranks below certified_rank are guaranteed to be the
    true leading s-numbers of the untruncated operator: every dropped
    eigenvalue is smaller in modulus.
    """

    values: np.ndarray
    mults: np.ndarray
    provenance: str
    signed: bool = False
    certified_rank: int | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.mults = np.asarray(self.mults, dtype=np.int64)
        if self.values.shape != self.mults.shape or self.values.ndim != 1:
            raise ValueError("values and mults must be equal-length 1-D")
        a = np.abs(self.values)
        if np.any(a[1:] > a[:-1] * (1 + 1e-15) + 1e-300):
            raise ValueError("values must be sorted by nonincreasing modulus")
        if not self.signed and np.any(self.values < 0):
            raise ValueError("s-numbers must be nonnegative")
        if np.any(self.mults <= 0):
            raise ValueError("multiplicities must be positive")

    @classmethod
    def from_values(cls, values, provenance, signed=False, certified_rank=None):
        values = np.asarray(values, dtype=float)
        order = np.argsort(-np.abs(values), kind="stable")
        v = values[order]
        return cls(v, np.ones(v.shape[0], dtype=np.int64), provenance,
                   signed=signed, certified_rank=certified_rank)

    @property
    def total(self) -> int:
        return int(self.mults.sum())

    def rank_boundaries(self) -> np.ndarray:
        return np.cumsum(self.mults)

    def value_at(self, j: int) -> float:
        if not 0 <= j < self.total:
            raise IndexError("rank out of range")
        run = int(np.searchsorted(self.rank_boundaries(), j, side="right"))
        return float(self.values[run])

    def partial_sums(self, ranks) -> np.ndarray:
        """Correctly rounded sums of the first K+1 values, for each K in
        ranks (one walk; see `_kernels.partial_sums_at`)."""
        ranks = np.asarray(ranks, dtype=np.int64)
        if np.any(ranks < 0) or np.any(ranks >= self.total):
            raise ValueError("rank out of range")
        order = np.argsort(ranks)
        out = _kernels.partial_sums_at(self.values, self.mults, ranks[order])
        inv = np.empty_like(order)
        inv[order] = np.arange(order.size)
        return out[inv]

    def partial_sum(self, K: int) -> float:
        return float(self.partial_sums(np.array([K]))[0])

    def pointwise_values(self, lo: int, hi: int) -> np.ndarray:
        """(j+1) * s_j for j in [lo, hi], materialized."""
        if not 0 <= lo <= hi < self.total:
            raise ValueError("window out of range")
        if hi - lo > 20_000_000:
            raise ValueError("window too large to materialize")
        bounds = self.rank_boundaries()
        j = np.arange(lo, hi + 1, dtype=np.int64)
        runs = np.searchsorted(bounds, j, side="right")
        return (j + 1.0) * self.values[runs]

    def merge(self, other: "SNumberSequence") -> "SNumberSequence":
        """Spectrum of the direct sum: sorted union with multiplicities."""
        v = np.concatenate([self.values, other.values])
        m = np.concatenate([self.mults, other.mults])
        order = np.argsort(-np.abs(v), kind="stable")
        cert = None
        if self.certified_rank is not None and other.certified_rank is not None:
            cert = self.certified_rank + other.certified_rank
        return SNumberSequence(v[order], m[order],
                               f"merge({self.provenance},{other.provenance})",
                               signed=self.signed or other.signed,
                               certified_rank=cert)

    def scaled(self, factor: float) -> "SNumberSequence":
        if factor < 0 and not self.signed:
            raise ValueError("negative scaling of s-numbers")
        return SNumberSequence(self.values * factor, self.mults.copy(),
                               self.provenance, signed=self.signed,
                               certified_rank=self.certified_rank)

    def to_csv(self, path, rle: bool = False):
        """CSV export: '(rank, value)' rows, or run-length encoded
        '(first_rank, multiplicity, value)' rows with rle=True."""
        with open(path, "w") as fh:
            if rle:
                fh.write("first_rank,multiplicity,value\n")
                start = 0
                for v, m in zip(self.values, self.mults):
                    fh.write(f"{start},{m},{v:.17g}\n")
                    start += m
            else:
                if self.total > 20_000_000:
                    raise ValueError("sequence too large; use rle=True")
                fh.write("rank,value\n")
                r = 0
                for v, m in zip(self.values, self.mults):
                    for _ in range(m):
                        fh.write(f"{r},{v:.17g}\n")
                        r += 1


# ---------------------------------------------------------------------------
# dense paths

def hermitian_spectrum(M: OperatorMatrix, signed: bool = False,
                       residual_tol: float = 1e-10) -> SNumberSequence:
    """Eigenvalues of a Hermitian truncated matrix.

    With signed=True the eigenvalues keep their sign, ordered by decreasing
    modulus; otherwise moduli are returned as s-numbers.  Each eigenpair is
    checked against the residual contract |Mv - lambda v| <= tol * |M|.
    """
    if not M.hermitian or not M.check_hermitian():
        raise ValueError("matrix failed the hermiticity gate")
    H = (M.entries + M.entries.conj().T) / 2.0
    w, V = np.linalg.eigh(H)
    opnorm = float(np.max(np.abs(w))) if w.size else 0.0
    resid = np.linalg.norm(M.entries @ V - V * w, axis=0)
    if opnorm > 0 and np.max(resid) > residual_tol * opnorm:
        raise RuntimeError("eigenpair residual exceeds contract")
    vals = w if signed else np.abs(w)
    return SNumberSequence.from_values(vals, f"truncated(D={M.D})", signed=signed)


def singular_values(M: OperatorMatrix) -> SNumberSequence:
    """s-numbers of the truncation, with the adjoint symmetry verified."""
    s = np.linalg.svd(M.entries, compute_uv=False)
    s_adj = np.linalg.svd(M.entries.conj().T, compute_uv=False)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    if np.max(np.abs(s - s_adj)) > 1e-10 * scale:
        raise RuntimeError("adjoint symmetry of s-numbers violated")
    return SNumberSequence(s, np.ones(s.shape[0], dtype=np.int64),
                           f"truncated(D={M.D})")


# ---------------------------------------------------------------------------
# diagonal fast path

@dataclass
class DiagonalChain:
    """coeff * T_{S_1} ... T_{S_m}, rightmost factor applied first."""
    coeff: complex
    factors: list

    def shifts(self):
        out = []
        for S in self.factors:
            shifts = {mi_sub(p, q) for (p, q, _t) in S.terms}
            if len(shifts) != 1:
                raise DiagonalityError(
                    "factor mixes monomial shifts; not diagonal")
            out.append(next(iter(shifts)))
        return out


@dataclass
class DiagonalConfig:
    """Linear combination of diagonal chains, raised to an integer power.

    All chains must share the ambient dimension and have zero total shift;
    the configuration is then diagonal in the monomial basis and its
    eigenvalue at alpha is (sum_c coeff_c * prod of factor elements)^power.
    """
    n: int
    chains: list
    power: int = 1

    def __mul__(self, other: "DiagonalConfig") -> "DiagonalConfig":
        if self.power != 1 or other.power != 1:
            raise ValueError("compose before raising to a power")
        chains = [DiagonalChain(c1.coeff * c2.coeff, c1.factors + c2.factors)
                  for c1 in self.chains for c2 in other.chains]
        return DiagonalConfig(self.n, chains)

    def __add__(self, other: "DiagonalConfig") -> "DiagonalConfig":
        if self.power != 1 or other.power != 1:
            raise ValueError("combine before raising to a power")
        return DiagonalConfig(self.n, self.chains + other.chains)

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def scaled(self, c) -> "DiagonalConfig":
        return DiagonalConfig(
            self.n, [DiagonalChain(ch.coeff * c, ch.factors) for ch in self.chains],
            self.power)

    def __pow__(self, k: int) -> "DiagonalConfig":
        if self.power != 1:
            raise ValueError("already raised to a power")
        return DiagonalConfig(self.n, self.chains, k)


def toeplitz_config(S: RadialSymbol) -> DiagonalConfig:
    return DiagonalConfig(S.n, [DiagonalChain(1.0, [S])])


def product_config(*symbols) -> DiagonalConfig:
    return DiagonalConfig(symbols[0].n,
                          [DiagonalChain(1.0, list(symbols))])


def hankel_config(f: RadialSymbol, g: RadialSymbol) -> DiagonalConfig:
    """Hankel product as Toeplitz data: T_{conj(f) g} - T_{conj(f)} T_g."""
    return DiagonalConfig(f.n, [
        DiagonalChain(1.0, [f.conj() * g]),
        DiagonalChain(-1.0, [f.conj(), g]),
    ])


def commutator_config(f: RadialSymbol, g: RadialSymbol) -> DiagonalConfig:
    """T_f T_g - T_g T_f."""
    return DiagonalConfig(f.n, [
        DiagonalChain(1.0, [f, g]),
        DiagonalChain(-1.0, [g, f]),
    ])


def _validate(config: DiagonalConfig):
    zero = (0,) * config.n
    per_chain = []
    for ch in config.chains:
        shifts = ch.shifts()
        total = zero
        for v in shifts:
            total = mi_add(total, v)
        if total != zero:
            raise DiagonalityError("chain total shift does not cancel")
        per_chain.append(shifts)
    return per_chain


def _is_radial(config: DiagonalConfig) -> bool:
    zero = (0,) * config.n
    for ch in config.chains:
        for S in ch.factors:
            for (p, q, _t) in S.terms:
                if p != zero or q != zero:
                    return False
    return True


def _chain_values(ch: DiagonalChain, shifts, comps: np.ndarray,
                  gamma: float, rows: dict) -> np.ndarray:
    """Eigenvalue contribution of one chain at the multi-indices whose
    components are the columns of comps (shape (n, m))."""
    n, m = comps.shape
    cur = comps.astype(np.int64).copy()
    deg_cur = cur.sum(axis=0)
    out = np.full(m, ch.coeff, dtype=complex)
    alive = np.ones(m, dtype=bool)
    for S, v in zip(reversed(ch.factors), reversed(shifts)):
        nxt = cur + np.array(v, dtype=np.int64)[:, None]
        valid = alive & (nxt >= 0).all(axis=0)
        fac = np.zeros(m, dtype=complex)
        for (p, q, t), c in S.terms.items():
            dp, dq = degree(p), degree(q)
            a_deg = deg_cur + dp
            row = rows[t]
            ratio = np.ones(m)
            for i in range(n):
                for l in range(1, p[i] + 1):
                    ratio *= cur[i] + l
                for l in range(1, q[i] + 1):
                    ratio *= nxt[i] + l
            fac += c * row[a_deg + n - 1] * np.sqrt(ratio) * gamma ** (-(dp + dq) / 2.0)
        out = np.where(valid, out * fac, 0.0)
        alive = valid
        cur = np.where(alive, nxt, 0)
        deg_cur = cur.sum(axis=0)
    return out


def diagonal_spectrum(ctx: FockContext, config: DiagonalConfig,
                      K_degree: int, max_values: int = 60_000_000) -> SNumberSequence:
    """Exact spectrum of a diagonal configuration for all degrees <= K_degree.

    Radial configurations (n = 1, or all factors free of monomial parts)
    produce one value per degree with the full degree multiplicity attached;
    otherwise one value per multi-index is computed (n = 2 is vectorized over
    each degree, higher n enumerates).  certified_rank marks how far the
    sorted values are guaranteed to be the operator's true leading s-numbers.
    """
    if config.n != ctx.n:
        raise DiagonalityError("configuration dimension does not match context")
    per_chain = _validate(config)
    n, gamma = ctx.n, ctx.gamma

    # normalized moment rows for every radial exponent that can occur
    buffer_deg = max(
        (sum(max(degree(p) for (p, q, _t) in S.terms) for S in ch.factors)
         for ch in config.chains), default=0)
    rows = {}
    for ch in config.chains:
        for S in ch.factors:
            for (_p, _q, t) in S.terms:
                if t not in rows:
                    rows[t] = scaled_moment_row(
                        t, gamma, K_degree + buffer_deg + n + 1)

    radial = n == 1 or _is_radial(config)
    if not radial:
        # sum over k <= K_degree of C(k+n-1, n-1)
        count = math.comb(K_degree + n, n)
        if count > max_values:
            raise DiagonalityError(
                f"per-multi-index path would materialize {count} values; "
                f"lower K_degree")

    if radial:
        # the eigenvalue depends on |alpha| only: one representative per degree
        comps = np.zeros((n, K_degree + 1), dtype=np.int64)
        comps[0] = np.arange(K_degree + 1)
        vals = np.zeros(K_degree + 1, dtype=complex)
        for ch, shifts in zip(config.chains, per_chain):
            vals += _chain_values(ch, shifts, comps, gamma, rows)
        if config.power != 1:
            vals = vals**config.power
        per_degree = None
        degree_mults = degree_multiplicity(n, np.arange(K_degree + 1))
    else:
        per_degree = []
        for k in range(K_degree + 1):
            if n == 2:
                a1 = np.arange(k + 1, dtype=np.int64)
                comps = np.vstack([a1, k - a1])
            else:
                comps = np.array(list(compositions(k, n)), dtype=np.int64).T
            v = np.zeros(comps.shape[1], dtype=complex)
            for ch, shifts in zip(config.chains, per_chain):
                v += _chain_values(ch, shifts, comps, gamma, rows)
            if config.power != 1:
                v = v**config.power
            per_degree.append(v)
        vals = np.concatenate(per_degree)
        degree_mults = np.ones(vals.shape[0], dtype=np.int64)

    # imaginary parts must be numerical noise for these self-adjoint products
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    if float(np.max(np.abs(vals.imag))) > 1e-9 * scale:
        raise DiagonalityError("configuration has non-real diagonal values")

    # truncation certificate: everything beyond K_degree is bounded by the
    # largest modulus seen over the last 5% of degrees
    tail_lo = max(0, int(math.floor(0.95 * K_degree)))
    if radial:
        tail_bound = float(np.max(np.abs(vals[tail_lo:])))
    else:
        tail_bound = max(float(np.max(np.abs(v))) for v in per_degree[tail_lo:])

    values = vals.real
    order = np.argsort(-np.abs(values), kind="stable")
    values = values[order]
    mults = degree_mults[order]
    signed = bool(np.any(values < 0))
    certified = int(np.sum(mults[np.abs(values) > tail_bound * (1 + 1e-12)]))
    return SNumberSequence(values, mults,
                           f"exact-diagonal(K_degree={K_degree})",
                           signed=signed, certified_rank=certified)
