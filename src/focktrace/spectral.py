"""Spectral extraction: the exact per-degree spectrum of operator products
that the monomial basis diagonalizes, and the sorted s-number sequences the
trace estimators read.

A product chain is diagonal when every Toeplitz factor shifts all monomials
by one fixed multi-index and the shifts cancel along the chain.  Its
eigenvalue at alpha is then a finite product of normalized-moment factors,
evaluated for every degree up to a cap, with multiplicities attached.  Each
factor term is a moment-row entry at the degree of alpha times a rising
factorial in its coordinates, so it is tabulated once per degree and once
per coordinate value, over blocks of whole degrees, and every eigenvalue is
formed from gathers of those tables.  One block-major walk adds up the
chains, reading each moment row through a window that advances with the
block, from a stream of chunks: no row is held whole.
"""

from __future__ import annotations

import bisect
import math
from itertools import chain

import numpy as np

from . import _kernels
from .core import degree, degree_multiplicity, mi_sub
# perfbench's tracer wraps scaled_moment_row where spectral imports it
from .fock_matrices import FockContext, moment_chunks, scaled_moment_row  # noqa: F401
from .symbols import RadialSymbol


# values per block of the per-multi-index path, a run of whole degrees (a
# degree of more values is a block of its own), whose buffers, up to ten
# arrays of 128 KB, are made once per spectrum (`_MultiIndexColumns`):
# temporaries of that size made per block would have glibc trim and fault
# in the top of its heap again on every block; values per slice of the
# sortedness check and of the sort's sign-bit reads; runs per write of the
# CSV export
_BLOCK = 1 << 14
# degrees per block of the radial path, at most _BLOCK: one value per
# degree, so each table of a block is as long as the block, and the tables
# of 2^13 degrees (64 KB each) stay in cache
_DEGREES = 1 << 13
# most values either path materializes
_MAX_VALUES = 60_000_000


class DiagonalityError(ValueError):
    """Raised when the exact per-degree path cannot take a configuration: it
    is not monomial-diagonal, not of the context's dimension, or has values
    that are not real or more than _MAX_VALUES of them, or a moment row it
    reads leaves [0, 1], which happens at large gamma (`moment_chunks`)."""


def _not_diagonal(why: str) -> DiagonalityError:
    return DiagonalityError(
        f"{why}; the exact per-degree path needs shift-cancelling (monomial-"
        f"diagonal) configurations: dense truncations cannot reach trace "
        f"asymptotics")


def _sorted_by_modulus(values: np.ndarray):
    """values in the stable order of decreasing modulus (ties in index
    order), in place in values, a buffer the caller owns, which is returned.

    The keys -|v| hold equal bits where they are equal (every zero is
    -0.0), so sorting them gives them in the stable modulus order, with no
    argsort or gather.  When every value has its sign bit set (-0.0 counts
    as signed), the values are their own keys.  Otherwise the keys
    overwrite the values and are negated back to moduli once sorted; where
    the sign bits differ, they are gathered in the keys' stable argsort and
    given back to the moduli: one index array beside the buffer, rather
    than a key array, an index array and a sorted copy.  The sign bits are
    read a block at a time; a mask of them all is made only where they
    differ."""
    blocks = [values[i:i + _BLOCK] for i in range(0, values.size, _BLOCK)]
    if all(np.signbit(b).all() for b in blocks):
        values.sort()
        return values
    if any(np.signbit(b).any() for b in blocks):
        signs = np.signbit(values)
        np.abs(values, out=values)
        np.negative(values, out=values)
        signs = signs[np.argsort(values, kind="stable")]
    else:
        signs = None
        np.negative(values, out=values)
    values.sort()
    np.negative(values, out=values)
    if signs is not None:
        np.negative(values, out=values, where=signs)
    return values


def _leading_count(values: np.ndarray, bound: float, inclusive=False) -> int:
    """Length of the prefix of values, sorted by nonincreasing modulus, whose
    moduli exceed bound (or reach it, with inclusive=True); a bisection."""
    find = bisect.bisect_right if inclusive else bisect.bisect_left
    return find(values, -bound, key=lambda x: -abs(x))


def _sorted_runs(values: np.ndarray, mults):
    """values, a buffer the caller owns, and their multiplicities (None for
    all 1) in the stable order of decreasing modulus: sorted in place
    (`_sorted_by_modulus`) with a stride-0 view of 1 for multiplicities, or
    gathered with their multiplicities in that order, by a stable argsort."""
    if mults is None:
        values = _sorted_by_modulus(values)
        return values, np.broadcast_to(np.int64(1), values.shape)
    order = np.argsort(-np.abs(values), kind="stable")
    return values[order], mults[order]


def _runs_of(mults: np.ndarray, ranks):
    """The run that holds each rank: the rank itself when every run is one."""
    if _kernels.is_unit(mults):
        return ranks
    return np.searchsorted(np.cumsum(mults), ranks, side="right")


def _ranks_in(mults: np.ndarray, lead: int) -> int:
    """The number of ranks that the first lead runs hold."""
    return lead if _kernels.is_unit(mults) else int(mults[:lead].sum())


class SNumberSequence:
    """Run-length-compressed spectrum sorted by decreasing |value|.

    For s-number data (signed=False) all values are >= 0.  Ranks below
    certified_rank are guaranteed to be the true leading s-numbers of the
    untruncated operator: every dropped eigenvalue is smaller in modulus.
    certificate names the check behind certified_rank (`diagonal_spectrum`):
    "monotone-tail", or "unverified" when the check failed and nothing is
    certified; None when no check was made.
    """

    def __init__(self, values: np.ndarray, mults: np.ndarray,
                 signed: bool = False, certified_rank: int | None = None,
                 certificate: str | None = None):
        self.values = np.asarray(values, dtype=float)
        self.mults = np.asarray(mults, dtype=np.int64)
        self.signed = signed
        self.certified_rank = certified_rank
        self.certificate = certificate
        v = self.values
        if v.shape != self.mults.shape or v.ndim != 1:
            raise ValueError("values and mults must be equal-length 1-D")
        if not v.size:
            return
        lo, hi = v.min(), v.max()  # NaN and +-inf reach one of them
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("values must be finite")
        # each modulus may exceed the one before by at most the tolerant
        # bound (1 + 1e-15) * a + 1e-300, which exact order always meets: in
        # blocks that overlap by one value, order is tested exactly, in one
        # scratch mask, and the bound is built only where it fails
        rises = np.empty(min(v.size - 1, _BLOCK), dtype=bool)
        moduli = np.empty(min(v.size, _BLOCK + 1)) if lo < 0 else None
        for start in range(0, v.size - 1, _BLOCK):
            a = v[start:start + _BLOCK + 1]
            if moduli is not None:
                a = np.abs(a, out=moduli[:a.size])
            up = np.greater(a[1:], a[:-1], out=rises[:a.size - 1])
            if up.any():
                i = np.flatnonzero(up)
                with np.errstate(over="ignore"):  # an infinite bound is the right one
                    bound = a[i] * (1 + 1e-15)
                bound += 1e-300
                if np.any(a[i + 1] > bound):
                    raise ValueError("values must be sorted by nonincreasing modulus")
        if not self.signed and lo < 0:
            raise ValueError("s-numbers must be nonnegative")
        if not _kernels.is_unit(self.mults) and self.mults.min() <= 0:
            raise ValueError("multiplicities must be positive")

    @property
    def total(self) -> int:
        return _ranks_in(self.mults, self.values.size)

    def partial_sums(self, ranks) -> np.ndarray:
        """The exact sum of the first K+1 values, rounded once to the
        nearest float, for each K in ranks, nondecreasing and below total
        (ValueError otherwise); one walk, see `_kernels.partial_sums_at`."""
        ranks = np.asarray(ranks, dtype=np.int64)
        if np.any(ranks < 0) or np.any(ranks >= self.total):
            raise ValueError("rank out of range")
        if np.any(ranks[1:] < ranks[:-1]):
            raise ValueError("ranks must be nondecreasing")
        return _kernels.partial_sums_at(self.values, self.mults, ranks)

    def pointwise_values(self, lo: int, hi: int) -> np.ndarray:
        """(j+1) * s_j for j in [lo, hi], materialized."""
        if not 0 <= lo <= hi < self.total:
            raise ValueError("window out of range")
        if hi - lo > 20_000_000:
            raise ValueError("window too large to materialize")
        if _kernels.is_unit(self.mults):  # rank j is run j
            # j + 1.0 for every j, exactly, and times the values in place
            out = np.arange(lo + 1.0, hi + 2.0)
            out *= self.values[lo:hi + 1]
            return out
        j = np.arange(lo, hi + 1, dtype=np.int64)
        return (j + 1.0) * self.values[_runs_of(self.mults, j)]

    def merge(self, other: "SNumberSequence") -> "SNumberSequence":
        """Spectrum of the direct sum: sorted union with multiplicities.
        Unit multiplicities on both sides stay a stride-0 view."""
        unit = _kernels.is_unit(self.mults) and _kernels.is_unit(other.mults)
        v, m = _sorted_runs(
            np.concatenate([self.values, other.values]),
            None if unit else np.concatenate([self.mults, other.mults]))
        ranks = (self.certified_rank, other.certified_rank)
        if None in ranks:
            cert = None
        elif 0 in ranks:
            cert = 0
        else:
            # a dropped eigenvalue of either part is smaller in modulus than
            # that part's last certified value, so all of them are below T
            T = max(abs(float(x.values[_runs_of(x.mults, x.certified_rank - 1)]))
                    for x in (self, other))
            cert = _ranks_in(m, _leading_count(v, T, inclusive=True))
        checks = {self.certificate, other.certificate}
        return SNumberSequence(v, m, signed=self.signed or other.signed,
                               certified_rank=cert,
                               certificate=None if None in checks
                               else "unverified" if "unverified" in checks
                               else "monotone-tail")

    def scaled(self, factor: float) -> "SNumberSequence":
        if factor < 0 and not self.signed:
            raise ValueError("negative scaling of s-numbers")
        return SNumberSequence(self.values * factor, self.mults,
                               signed=self.signed,
                               certified_rank=self.certified_rank,
                               certificate=self.certificate)

    def to_csv(self, path):
        """CSV export, one row per run: 'first_rank,multiplicity,value',
        formatted _BLOCK runs at a time by one %-format."""
        with open(path, "w") as fh:
            fh.write("first_rank,multiplicity,value\n")
            start = 0
            for lo in range(0, self.values.size, _BLOCK):
                m = self.mults[lo:lo + _BLOCK]
                ends = np.cumsum(m) + start
                rows = zip((ends - m).tolist(), m.tolist(),
                           self.values[lo:lo + _BLOCK].tolist())
                fh.write("%d,%d,%.17g\n" * m.size % tuple(chain.from_iterable(rows)))
                start = int(ends[-1])


# ---------------------------------------------------------------------------
# diagonal fast path

class DiagonalChain:
    """coeff * T_{S_1} ... T_{S_m}, rightmost factor applied first."""

    def __init__(self, coeff: complex, factors: list):
        self.coeff = coeff
        self.factors = factors


class DiagonalConfig:
    """Linear combination of diagonal chains, raised to an integer power.

    All chains must share the ambient dimension and have zero total shift;
    the configuration is then diagonal in the monomial basis and its
    eigenvalue at alpha is (sum_c coeff_c * prod of factor elements)^power.
    """

    def __init__(self, n: int, chains: list, power: int = 1):
        self.n = n
        self.chains = chains
        self.power = power

    def __mul__(self, other: "DiagonalConfig") -> "DiagonalConfig":
        if self.power != 1 or other.power != 1:
            raise ValueError("compose before raising to a power")
        chains = [DiagonalChain(c1.coeff * c2.coeff, c1.factors + c2.factors)
                  for c1 in self.chains for c2 in other.chains]
        return DiagonalConfig(self.n, chains)

    def __pow__(self, k: int) -> "DiagonalConfig":
        if self.power != 1:
            raise ValueError("already raised to a power")
        return DiagonalConfig(self.n, self.chains, k)


def toeplitz_config(S: RadialSymbol) -> DiagonalConfig:
    return DiagonalConfig(S.n, [DiagonalChain(1.0, [S])])


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


def _plan(config: DiagonalConfig, gamma: float):
    """One visit to each of config's chains, factors and terms, which fixes
    once per spectrum all that `_chain_values` would otherwise work out
    again for every block.  Returns (chains, reach, exponents, read, real):

    - chains: for each chain, (c0, first, factors, bounds).  c0 is its
      coefficient; factors, in the order they are applied (rightmost
      first), are lists of terms, each (t, at, c, g, parts): the exponent
      of its moment row; its row index |alpha| + s + |p| + n - 1, s being
      what the factors before it add to the degree, as |alpha| + at; its
      coefficient c; its power g = gamma^(-(|p|+|q|)/2) (None when it is
      1); and, for each coordinate i that it reads (p_i or q_i nonzero),
      (i, (sigma_i, p_i, q_i, v_i)), with sigma_i the shift of coordinate i
      before the factor and v its shift.  bounds are the (i, b) with b > 0
      such that a column stays inside the multi-index cone along the chain
      exactly when alpha_i >= b for each of them.  first is the index of the first
      chain that its first factor, the same symbol object, opens when that
      factor opens more than one chain, and None otherwise: such a factor
      is evaluated once per block (`_chain_values`).
    - reach, how far a block's row windows reach, buffer_deg + n + 1: a
      chain shifts a degree by at most the sum of its factors' largest |p|,
      and a term's index adds |p| + n - 1.
    - exponents, the radial exponents in order of first use, and read, the
      coordinates that some term reads, in order (none when every term has
      p = q = 0).
    - real, whether every coefficient is real: the coefficients are then
      floats, their real parts, and complex otherwise.

    Refuses, chain by chain, a chain of no factors (c0 times the identity,
    which is not compact and so has no Dixmier trace), a factor of mixed
    shifts and a chain whose shifts do not cancel."""
    n = config.n
    exponents, read = {}, set()
    real = all(complex(ch.coeff).imag == 0 for ch in config.chains)
    for S in chain.from_iterable(ch.factors for ch in config.chains):
        for (p, q, t), c in S.terms.items():
            exponents[t] = None
            read.update(i for i in range(n) if p[i] or q[i])
            real = real and complex(c).imag == 0
    coef = (lambda c: complex(c).real) if real else complex

    plans, buffer_deg = [], 0
    for ch in config.chains:
        if not ch.factors:
            raise DiagonalityError("a chain of no factors is a multiple of "
                                   "the identity: not compact, no Dixmier trace")
        planned, lift = [], 0
        sigma = [0] * n  # the shift of each coordinate before the factor
        need = [0] * n  # alpha_i >= need[i] keeps every column inside the cone
        for S in reversed(ch.factors):
            moves = {mi_sub(p, q) for p, q, _t in S.terms}
            if len(moves) != 1:
                raise _not_diagonal("factor mixes monomial shifts; not diagonal")
            v = moves.pop()
            terms = []
            for (p, q, t), c in S.terms.items():
                dp, dq = degree(p), degree(q)
                c, g = coef(c), gamma ** (-(dp + dq) / 2.0)
                terms.append((t, sum(sigma) + dp + n - 1, c,
                              None if g == 1 else g,
                              [(i, (sigma[i], p[i], q[i], v[i]))
                               for i in range(n) if p[i] or q[i]]))
            planned.append(terms)
            lift += max(degree(p) for p, _q, _t in S.terms)
            for i in range(n):
                sigma[i] += v[i]
                need[i] = max(need[i], -sigma[i])
        if any(sigma):
            raise _not_diagonal("chain total shift does not cancel")
        buffer_deg = max(buffer_deg, lift)
        plans.append((coef(ch.coeff), planned,
                      [(i, b) for i, b in enumerate(need) if b]))
    # the factor each chain applies first, by identity: config holds every
    # factor for the whole call
    opening = [id(ch.factors[-1]) for ch in config.chains]
    chains = [(c0, opening.index(key) if opening.count(key) > 1 else None,
               planned, bounds)
              for key, (c0, planned, bounds) in zip(opening, plans)]
    return chains, buffer_deg + n + 1, list(exponents), sorted(read), real


def _rising(a: np.ndarray, p: int, q: int, v: int) -> np.ndarray:
    """prod_{l=1..p} (a + l) * prod_{l=1..q} (a + v + l) in float64, one
    multiplication at a time in that order: one coordinate's part of the
    rising-factorial quotient of the monomial norms for a term z^p conj(z)^q
    of shift v = p - q, at the coordinate values a."""
    r = None
    for b, k in ((a, p), (a + v, q)):
        for l in range(1, k + 1):
            if r is None:
                r = (b + l).astype(float)
            else:
                r *= b + l
    return r


def _factor_values(terms, cols, rows: dict, origin: int, dtype,
                   into) -> np.ndarray:
    """The sum of one factor's terms (`_plan`) at the columns cols, its
    first term written into the buffer into and each later one into
    "term"; see `_chain_values`.  Each row is read at |alpha| + at through
    np.take with mode="clip": an index falls below the window only where
    |alpha| + s < 0, a column that has left the multi-index cone, which
    `_chain_values` sets to 0 whatever was read there."""
    fac = None
    for t, at, c, g, parts in terms:
        # the index lives only for the gather
        table = c * np.take(rows[t], cols.degs + (at - origin), mode="clip")
        term = cols.spread(table, into if fac is None
                           else cols.buffer("term", dtype))
        if len(parts) == 1:
            term *= cols.rising(*parts[0], True, cols.buffer("part"))
        elif parts:
            (i, key), *rest = parts
            ratio = cols.rising(i, key, False, cols.buffer("ratio"))
            for i, key in rest:
                ratio *= cols.rising(i, key, False, cols.buffer("part"))
            term *= np.sqrt(ratio, out=ratio)
        if g is not None:
            term *= g
        if fac is None:
            fac = term
        else:
            fac += term
    return fac


def _chain_values(chain, cols, rows: dict, origin: int, dtype,
                  shared: dict) -> np.ndarray:
    """Eigenvalue contribution of one chain, as `_plan` lays it out, at the
    columns of a block, cols (`_DegreeColumns` or `_MultiIndexColumns`):
    cols.degs are their distinct degrees and cols.coords[i] the value of
    coordinate i at each column, for the coordinates that some term reads;
    rows[t][j] is m_t at degree origin + j.  dtype float means that every
    coefficient is the real part of one with a zero imaginary part: a
    complex product of operands with zero imaginary part has the same real
    part.

    Each value is c0 times the product, over the factors from the right, of
    sum_terms c * m_t[|alpha| + |p| + n - 1] * sqrt(ratio) * gamma^(-(|p|+|q|)/2),
    where ratio is the rising-factorial quotient of the monomial norms, and
    0 once a shift leaves the multi-index cone.  A term is evaluated once per
    distinct index: c * m_t[...] over degs, spread over the columns
    (cols.spread), and each coordinate's part of ratio (`_rising`) over
    that coordinate's values, with its sqrt when the term carries one
    coordinate, read at the columns (cols.rising).  Every column then sees
    the operations of the per-column product, with c0 applied to the first
    factor (complex products commute bit for bit), except multiplications
    by a c0 or gamma power of exactly 1 and additions to an initial 0,
    which are skipped: that can change only the sign of a zero, and
    `_diagonal_values` adds each chain to +0.0.  A ratio over several
    coordinates is the product of its parts, the same float while the
    product of integers stays below 2^53.

    The chain is built in cols' buffers (cols.buffer): the first factor
    times c0 in "out", and each later factor's sum in "fac"
    (`_factor_values`).  A first factor that opens several chains (first
    not None) is evaluated by the first of them in a block, into ("first",
    first), and kept in shared, the block's dict of such factors, for all
    of them.  The columns outside the cone are set to 0 at the end."""
    c0, first, factors, bounds = chain
    if first is None:
        out = _factor_values(factors[0], cols, rows, origin, dtype,
                             cols.buffer("out", dtype))
        if c0 != 1:
            out *= c0
    else:
        fac = shared.get(first)
        if fac is None:
            fac = shared[first] = _factor_values(
                factors[0], cols, rows, origin, dtype,
                cols.buffer(("first", first), dtype))
        # the shared factor stays as it is; times an exact 1 is a copy
        out = np.multiply(fac, c0, out=cols.buffer("out", dtype))
    for terms in factors[1:]:
        out *= _factor_values(terms, cols, rows, origin, dtype,
                              cols.buffer("fac", dtype))
    for i, bound in bounds:
        outside = np.less(cols.coords[i], bound, out=cols.buffer("mask", bool))
        out[outside] = 0.0
    return out


def _raised(v: np.ndarray, power: int, scratch=None):
    """v ** power, written into v.  A complex integer power is a chain of
    products, a float one a single rounded pow: v is raised in complex, in
    scratch (a complex buffer as long as v) or a new array, so that both
    dtypes agree exactly."""
    p = np.empty(v.shape, complex) if scratch is None else scratch
    np.copyto(p, v)
    p **= power
    v[...] = p.real if v.dtype == float else p


def _degree_runs(k0: int, sizes: np.ndarray, lower, want, buffer, iota):
    """The multi-indices of the degrees k0, k0 + 1, ..., sizes[d] of degree
    k0 + d, each degree in `core.compositions` order, as n rows, and the
    index d of each column's degree: (d, rows).  Degree k is (k - |beta|,
    beta) for beta over the first sizes[d] columns of lower, the rows of
    the same enumeration of length n - 1 from degree 0 on: the multi-indices
    of length n - 1 and degree <= k.  At n = 2, lower is None and beta runs
    over (0), ..., (k).  Only the rows in want are built, with those that
    row 0 needs; a row not built is None.  Each row and d are written, a
    degree at a time, into buffer(name), an int64 array of sum(sizes)
    entries, from iota, np.arange of at least max(sizes) entries."""
    counts = sizes.tolist()
    d = buffer("degree")
    first = buffer(0) if 0 in want else None
    # the position of each column in its degree: row 1 at n = 2, the
    # column of lower above
    ramp = (buffer("ramp") if lower is not None
            else buffer(1) if 1 in want else None)
    start = 0
    for j, size in enumerate(counts):
        end = start + size
        d[start:end] = j
        if ramp is not None:
            ramp[start:end] = iota[:size]
        if first is not None:  # k0 + j - beta at n = 2 (size is k0 + j + 1)
            first[start:end] = iota[size - 1::-1] if lower is None else k0 + j
        start = end
    if lower is None:
        return d, [first, ramp]
    rest = [np.take(beta, ramp, out=buffer(i), mode="clip")
            if i in want or first is not None else None
            for i, beta in enumerate(lower, 1)]
    if first is not None:
        for beta in rest:
            first -= beta
    return d, [first, *rest]


class _DegreeColumns:
    """The columns of a radial block: one per degree k, ..., end - 1, each
    the representative (k, 0, ..., 0), so every table is taken at the
    columns themselves and the walk keeps no buffer."""

    def __init__(self, k: int, end: int):
        self.degs = np.arange(k, end)
        self.coords = {0: self.degs}

    def buffer(self, name, dtype=float):
        return None

    def spread(self, table, out):
        return table

    def rising(self, i, key, root, out):
        sigma, p, q, v = key
        r = _rising(np.maximum(self.degs + sigma, 0), p, q, v)
        return np.sqrt(r, out=r) if root else r


class _MultiIndexColumns:
    """The columns of the per-multi-index walk, one block of whole degrees
    after another (`block`): alpha_1 ascending at n = 2, `core.compositions`
    order above.  Everything a block holds lives in buffers made once per
    spectrum, each as long as the longest block (`buffer`), and written
    through out= (np.take with mode="clip", which writes straight into its
    output, where "raise" buffers it): each column's degree index and
    position, the coordinates that some term reads (read, from `_plan`),
    and the chain's products and sums.  Each term's rising table over the
    coordinate values 0, ..., K_degree is built once per spectrum with its
    sqrt, keyed by (sigma_i, p_i, q_i, v_i), and read at the columns."""

    def __init__(self, n: int, K_degree: int, sizes, starts, read, width: int):
        self.sizes, self.starts, self.width = sizes, starts, width
        # the enumeration of length n - 1, for n >= 3, every row of it
        self.lower = None
        for d in range(2, n):
            counts = degree_multiplicity(d, np.arange(K_degree + 1))
            self.lower = _degree_runs(
                0, counts, self.lower, range(d),
                lambda _name, m=int(counts.sum()): np.empty(m, dtype=np.int64),
                np.arange(counts.max()))[1]
        # coordinate i is row 1 - i at n = 2 (alpha_1 ascending), row i above
        self.rows = [1, 0] if n == 2 else list(range(n))
        self.read, self.want = read, {self.rows[i] for i in read}
        # every position in a degree, and every coordinate value
        self.iota = np.arange(sizes[-1])
        self.values = self.iota[:K_degree + 1]
        self.tables, self.buffers, self.m = {}, {}, 0

    def block(self, k: int, end: int) -> "_MultiIndexColumns":
        """Points the columns at the degrees k, ..., end - 1."""
        self.m = self.starts[end] - self.starts[k]
        self.degs = np.arange(k, end)
        self.degree, rows = _degree_runs(
            k, self.sizes[k:end], self.lower, self.want,
            lambda row: self.buffer(("row", row), np.int64), self.iota)
        self.coords = {i: rows[self.rows[i]] for i in self.read}
        return self

    def buffer(self, name, dtype=float):
        """The block's part of the buffer name, made on first use."""
        buf = self.buffers.get(name)
        if buf is None:
            buf = self.buffers[name] = np.empty(self.width, dtype=dtype)
        return buf[:self.m]

    def spread(self, table, out):
        """table, one entry per degree of the block, at each column."""
        return np.take(table, self.degree, out=out, mode="clip")

    def rising(self, i, key, root, out):
        """`_rising` at key = (sigma_i, p_i, q_i, v_i), or its sqrt, at the
        value of coordinate i of each column."""
        tables = self.tables.get(key)
        if tables is None:
            sigma, p, q, v = key
            r = _rising(np.maximum(self.values + sigma, 0), p, q, v)
            tables = self.tables[key] = r, np.sqrt(r)
        return np.take(tables[root], self.coords[i], out=out, mode="clip")


def _windows(chunks, spans):
    """For each (lo, hi) of spans, both nondecreasing and each span
    overlapping or touching the next, entries lo..hi-1 of the row that
    chunks gives in order.  Each chunk is read once, when a window first
    reaches it; entries below a window's lo are let go."""
    buf, start = np.empty(0), 0
    for lo, hi in spans:
        end = start + buf.shape[0]
        if end < hi:
            parts = [buf[lo - start:]]
            while end < hi:
                x = next(chunks)
                parts.append(x)
                end += x.shape[0]
            buf, start = np.concatenate(parts), lo
            del parts, x
        yield buf[lo - start:hi - start]


def _diagonal_values(ctx: FockContext, config: DiagonalConfig, K_degree: int):
    """The unsorted eigenvalues of a diagonal configuration for all degrees
    <= K_degree, in a buffer of their own; the index of each degree's first
    value; and the values' multiplicities, None when every one is 1.

    Radial configurations (n = 1, or all factors free of monomial parts)
    give one value per degree, with the full degree multiplicity attached
    (1 at n = 1); the others one value per multi-index, degree by degree
    (alpha_1 ascending at n = 2, `core.compositions` order at higher n).
    Blocks of whole degrees, of at most min(`_DEGREES`, `_BLOCK`) values
    when radial and `_BLOCK` otherwise (or one degree), take their tables
    once per degree and coordinate value (`_DegreeColumns`,
    `_MultiIndexColumns`); the per-multi-index blocks are written through
    buffers made once per spectrum.  One walk over the blocks adds each chain,
    laid out once by `_plan`, to its block, which starts at +0.0 and is raised
    to the power after the last chain, so a block's columns and values serve
    every chain while in cache, and a first factor that opens several chains
    is evaluated once per block.  Each exponent's moment row is streamed once
    (`moment_chunks`) and read through a window from k - reach to end + reach
    (`_windows`; reach from `_plan`), so beside the values only block and
    chunk scratch is held.  Configurations with only real coefficients are
    evaluated in float64.  More than _MAX_VALUES values are refused before
    anything is allocated; a row out of [0, 1], as it is read; a negative
    K_degree (ValueError), first.
    """
    if K_degree < 0:
        raise ValueError(f"need K_degree >= 0, got {K_degree}")
    if config.n != ctx.n:
        raise DiagonalityError("configuration dimension does not match context")
    n, gamma = ctx.n, ctx.gamma
    chains, reach, exponents, read, real = _plan(config, gamma)
    radial = not read or n == 1
    # per multi-index: sum over k <= K_degree of C(k+n-1, n-1)
    count = K_degree + 1 if radial else math.comb(K_degree + n, n)
    if count > _MAX_VALUES:
        raise DiagonalityError(
            f"{'radial' if radial else 'per-multi-index'} path would "
            f"materialize {count} values at cutoff {K_degree}, over the cap "
            f"of {_MAX_VALUES}")

    dtype = float if real else complex
    # the number of multi-indices of each degree (n = 1 is radial)
    sizes = degree_multiplicity(n, np.arange(K_degree + 1)) if n > 1 else None
    if radial:
        # the eigenvalue depends on |alpha| only: one representative per
        # degree, (k, 0, ..., 0), which carries the degree's multiplicity
        starts, mults = range(K_degree + 2), sizes
    else:
        starts, mults = np.concatenate(([0], np.cumsum(sizes))), None

    # blocks: from each degree k, the longest run of whole degrees that holds
    # at most cap values, or degree k alone
    cap = min(_DEGREES, _BLOCK) if radial else _BLOCK
    blocks, k = [], 0
    while k <= K_degree:
        end = max(k + 1, bisect.bisect_right(starts, starts[k] + cap) - 1)
        blocks.append((k, end))
        k = end
    if radial:
        columns = _DegreeColumns
    else:
        width = max(starts[end] - starts[k] for k, end in blocks)
        columns = _MultiIndexColumns(n, K_degree, sizes, starts, read, width).block
    # normalized moment rows, one stream per radial exponent in order of
    # first use, each read within reach of a block's degrees (`_plan`)
    spans = [(max(k - reach, 0), end + reach) for k, end in blocks]
    windows = {t: _windows(moment_chunks(t, gamma, K_degree + reach), spans)
               for t in exponents}
    # _chain_values skips multiplications by an exact 1 and additions to an
    # initial 0, which can leave -0.0 where the full products give +0.0.
    # Adding every chain to +0.0 turns both into +0.0: its bit-identity
    # depends on this start.
    vals = np.zeros(count, dtype=dtype)
    for (k, end), (origin, _hi) in zip(blocks, spans):
        try:
            rows = {t: next(w) for t, w in windows.items()}
        except ValueError as exc:  # a row out of [0, 1] (`moment_chunks`)
            raise DiagonalityError(str(exc)) from exc
        cols = columns(k, end)
        lo, hi = starts[k], starts[end]
        shared = {}
        for chain in chains:
            vals[lo:hi] += _chain_values(chain, cols, rows, origin, dtype, shared)
        if config.power != 1:
            _raised(vals[lo:hi], config.power, cols.buffer("power", complex))
    return vals, starts, mults


def _largest_modulus(x: np.ndarray) -> float:
    """The largest modulus in x, 0.0 when x is empty: of real values by
    their max and min, without a modulus array."""
    if not x.size:
        return 0.0
    if x.dtype == complex:
        return float(np.max(np.abs(x)))
    return float(max(x.max(), -x.min()))


def diagonal_spectrum(ctx: FockContext, config: DiagonalConfig,
                      K_degree: int) -> SNumberSequence:
    """Exact spectrum of a diagonal configuration for all degrees <= K_degree:
    the values of `_diagonal_values`, with their multiplicities, in the
    stable order of decreasing modulus.

    The values are held once: `_sorted_runs` sorts them in place when every
    multiplicity is 1, which is then a stride-0 view, not an array, and
    gathers them with their multiplicities otherwise.  signed is whether
    the least value is negative.

    certified_rank marks how far the sorted values are guaranteed to be the
    operator's true leading s-numbers: the ranks of the prefix of moduli
    above the tail bound, the largest modulus over the last 5 % of degrees,
    found by bisection.  That bound holds for the degrees past K_degree only
    if the moduli do not rise there, and only the window's degrees are
    checked: where the later half of the window (the fewer degrees, when
    they are odd) reaches a larger modulus than the earlier half, nothing
    is certified (certified_rank 0, certificate "unverified"); otherwise
    certificate is "monotone-tail".  Halves, not neighbouring degrees: the
    values of spectra that cancel carry rounding jitter larger than their
    change from one degree to the next.  Each half's largest modulus is its
    max and -min (for complex values, the max of the moduli), with no
    temporary as long as the values.
    """
    vals, starts, degree_mults = _diagonal_values(ctx, config, K_degree)
    if vals.dtype == complex:
        # imaginary parts must be numerical noise for these self-adjoint products
        scale = max(float(np.max(np.abs(vals))), 1e-300)
        if float(np.max(np.abs(vals.imag))) > 1e-9 * scale:
            raise DiagonalityError("configuration has non-real diagonal values")

    # truncation certificate: the later half of the last 5% of degrees
    # against the earlier half
    tail_lo = max(0, int(math.floor(0.95 * K_degree)))
    mid = (tail_lo + K_degree + 2) // 2
    early = _largest_modulus(vals[starts[tail_lo]:starts[mid]])
    late = _largest_modulus(vals[starts[mid]:starts[K_degree + 1]])
    rises = late > early
    tail_bound = max(early, late)
    # the real parts of a complex buffer, or of a power, are a strided view:
    # only those are copied
    vals = np.ascontiguousarray(vals.real)

    values, mults = _sorted_runs(vals, degree_mults)
    signed = bool(values.min() < 0)
    certified = 0 if rises else _ranks_in(
        mults, _leading_count(values, tail_bound * (1 + 1e-12)))
    return SNumberSequence(values, mults, signed=signed,
                           certified_rank=certified,
                           certificate="unverified" if rises else "monotone-tail")
