"""Reference values for the tests: monomial norms, the radial moments

    integral_0^inf u^d (1+u)^(t/2) e^(-gamma u) du

by quadrature, independently of the recurrences behind
`focktrace.fock_matrices.scaled_moment_row`, their d = 0 base moments by
quadrature and by mpmath's generalized exponential integral, independently
of the `decimal` evaluation in `focktrace.fock_matrices._base_moment`, and
by that evaluation at 45 digits (`base_moment_45`), the
moment rows by their former three routes, least-squares lines by LAPACK,
the values of a configuration evaluated as one unblocked block, the
per-multi-index spectrum assembled one degree at a time, the spectrum
finished with sorted copies, a sequence of values in any order
(`from_values`), the validation of an s-number sequence with
its tolerant order bound built over every value, the term arithmetic of
the symbol classes as plain-dict rules, and the symbol algebra and
Toeplitz compression as they were computed term by term: `star` on that
term arithmetic, `sphere_norm_sq` from the full product P * P.conj(), and
`toeplitz_entries` looping over the basis; the sphere bracket as its own
rule beside `boundary_pairing`'s (`tangential_bracket`); one sphere monomial
(`sphere_monomial`), semantic equality of sphere polynomials
(`sphere_equal`) and the sphere's surface area; `evaluate`,
the coherent vector, `berezin` and `boundary_pairing_limit` one point and
one matrix at a time in numpy complex arithmetic.
Dense truncations: the Hankel product matrix, and the Hermitian eigensolve
and SVD (with their residual and adjoint-symmetry contracts) that the
per-degree spectra are checked against.
"""

import math

import mpmath as mp
import numpy as np
from scipy import integrate

from focktrace import _kernels, core, spectral, sphere_calculus
from focktrace.core import (SpherePolynomial, compositions, degree,
                            enumerate_basis, mi_add, mi_factorial, mi_sub,
                            sphere_integral)
from focktrace.fock_matrices import (_base_moment, buffered_product,
                                     scaled_moment_row, toeplitz_matrix)
from focktrace.sphere_calculus import ConvergenceError


def monomial_norm_sq(ctx, alpha) -> float:
    """Squared norm of z^alpha: (pi/gamma)^n * alpha! / gamma^|alpha|."""
    return (math.pi / ctx.gamma) ** ctx.n * mi_factorial(alpha) / ctx.gamma ** degree(alpha)


def radial_moment(d: int, t: float, gamma: float) -> float:
    """Adaptive double-precision quadrature for every exponent t, split at
    u = 1 and at the peak of the factorial-normalized integrand.  Relative
    accuracy ~1e-13.  The unscaled value overflows for d beyond ~170 at
    gamma = 1."""
    if d < 0:
        raise ValueError("need d >= 0")
    if not gamma > 0:
        raise ValueError("need gamma > 0")
    s = t / 2.0
    lg = math.lgamma(d + 1)
    unscale = math.exp(lg - (d + 1) * math.log(gamma))

    def f(u):
        if u <= 0.0:
            return 0.0
        return math.exp(d * math.log(u) - gamma * u + s * math.log1p(u)
                        + (d + 1) * math.log(gamma) - lg)

    peak = max(d, 1) / gamma
    mid = 3.0 * peak + 10.0
    v1, _ = integrate.quad(f, 0.0, 1.0, epsabs=0, epsrel=1e-13, limit=300)
    v2, _ = integrate.quad(f, 1.0, mid, points=[peak] if peak > 1 else None,
                           epsabs=0, epsrel=1e-13, limit=300)
    v3, _ = integrate.quad(f, mid, np.inf, epsabs=1e-300, epsrel=1e-13, limit=300)
    return (v1 + v2 + v3) * unscale


def radial_moment_hp(d: int, t: float, gamma: float, dps: int = 30):
    """The same integral to dps digits (mpmath); returns an mpf."""
    with mp.workdps(dps):
        return mp.quad(lambda u: u**d * (1 + u) ** (t / 2.0) * mp.e ** (-gamma * u),
                       [0, 1, max(d, 1) / gamma + 1, mp.inf])


def normalized_moment_hp(d: int, t: float, gamma: float) -> float:
    """m_t[d] = gamma^(d+1)/d! * integral_0^inf u^d (1+u)^(t/2) e^(-gamma u) du
    as gamma^(d+1) U(d+1, d+2+t/2, gamma), with Tricomi's confluent
    hypergeometric U (DLMF 13.4.4), by 30-digit mpmath, rounded to a float:
    tens of times faster than the quadrature of `radial_moment_hp`."""
    with mp.workdps(30):
        return float(mp.mpf(gamma) ** (d + 1)
                     * mp.hyperu(d + 1, d + 2 + mp.mpf(t) / 2, gamma))


def base_moment_quad(t: float, gamma: float) -> float:
    """integral_0^inf (1+u)^(t/2) e^(-gamma u) du by 30-digit mpmath
    quadrature, rounded to a float."""
    with mp.workdps(30):
        return float(mp.quad(lambda u: (1 + u) ** (t / 2.0) * mp.e ** (-gamma * u),
                             [0, 1, mp.inf]))


def base_moment_expint(t: float, gamma: float) -> float:
    """The same integral as e^gamma E_(-t/2)(gamma) (DLMF 8.19), by 30-digit
    mpmath, rounded to a float."""
    with mp.workdps(30):
        return float(mp.e ** gamma * mp.expint(-t / 2.0, gamma))


def base_moment_45(t: float, gamma: float) -> float:
    """`focktrace.fock_matrices._base_moment` as it was evaluated before its
    precision was cut: in 45-digit `decimal` arithmetic, each sum run until
    its relative step is below 1e-40, rounded to a float once."""
    import decimal
    with decimal.localcontext() as context:
        context.prec = 45
        Dec = decimal.Decimal
        eps, tiny = Dec("1e-40"), Dec("1e-300")
        s, g = Dec(t / 2.0), Dec(gamma)
        z, p = max(g, Dec(1)), -s
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
        return float(val)


def serial_pair_rows(s_plus_one, a0, b0, gamma, dmax):
    """The rows (A, B) = (m_{s+1}, m_s), degrees 0..dmax, of the serial loop
    B[d] = (gamma/d) (A[d-1] - B[d-1]), A[d] = A[d-1] + ((s+1)/gamma) B[d]
    on Python floats."""
    c = s_plus_one / gamma
    a, b = float(a0), float(b0)
    A, B = [a], [b]
    for d in range(1, dmax + 1):
        b = (gamma / d) * (a - b)
        a = a + c * b
        A.append(a)
        B.append(b)
    return np.array(A), np.array(B)


def compute_row(t: float, gamma: float, dmax: int) -> np.ndarray:
    """`fock_matrices.scaled_moment_row` as it was with three routes: a closed
    form sum of rising products for t = 2, 4, ..., a ladder loop from
    m_0 = 1 for t = -2, -4, ..., and the pair anchor (`serial_pair_rows`),
    its upper row A raised or its lower row B laddered, for every other t."""
    s = t / 2.0
    si = int(round(s))
    if abs(s - si) < 1e-12:
        if si == 0:
            return np.ones(dmax + 1)
        if si > 0:
            d = np.arange(dmax + 1, dtype=float)
            row = np.zeros(dmax + 1)
            for i in range(si + 1):
                prod = np.ones(dmax + 1)
                for l in range(1, i + 1):
                    prod *= d + l
                row += math.comb(si, i) * prod / gamma**i
            return row
        row = np.ones(dmax + 1)
        for sigma in range(0, si, -1):
            base = gamma * _base_moment(2.0 * (sigma - 1), gamma)
            row = _kernels.ladder_row(row, base, gamma)
        return row
    frac = s - math.floor(s)
    sigma0 = frac - 1.0
    ups = int(round(s - sigma0)) - 1
    downs = int(round(sigma0 - s))
    length = dmax + 1 + max(ups, 0)
    a0 = gamma * _base_moment(2.0 * (sigma0 + 1.0), gamma)
    b0 = gamma * _base_moment(2.0 * sigma0, gamma)
    A, B = serial_pair_rows(sigma0 + 1.0, a0, b0, gamma, length - 1)
    if abs(s - sigma0) < 1e-12:
        return B[: dmax + 1]
    if ups >= 0:
        row = A
        for _ in range(ups):
            row = _kernels.raise_row(row, gamma)
        return row[: dmax + 1]
    row = B
    for i in range(downs):
        base = gamma * _base_moment(2.0 * (sigma0 - i - 1), gamma)
        row = _kernels.ladder_row(row, base, gamma)
    return row[: dmax + 1]


def chain_values(ch, shifts, comps: np.ndarray, gamma: float, rows: dict,
                 dtype) -> np.ndarray:
    """`spectral._chain_values` as it was before its passes were trimmed: one
    full-width numpy expression per term and factor, each validity test and
    degree sum over every column."""
    n, m = comps.shape
    coef = complex if dtype is complex else (lambda c: complex(c).real)
    cur = comps.astype(np.int64).copy()
    deg_cur = cur.sum(axis=0)
    out = np.full(m, coef(ch.coeff), dtype=dtype)
    alive = np.ones(m, dtype=bool)
    for S, v in zip(reversed(ch.factors), reversed(shifts)):
        nxt = cur + np.array(v, dtype=np.int64)[:, None]
        valid = alive & (nxt >= 0).all(axis=0)
        fac = np.zeros(m, dtype=dtype)
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
            fac += coef(c) * row[a_deg + n - 1] * np.sqrt(ratio) * gamma ** (-(dp + dq) / 2.0)
        out = np.where(valid, out * fac, 0.0)
        alive = valid
        cur = np.where(alive, nxt, 0)
        deg_cur = cur.sum(axis=0)
    return out


class ColumnsAt:
    """The columns of `spectral._chain_values` at the multi-indices of comps,
    an (n, m) array, one column each: every table is taken at the columns
    themselves, with no buffer."""

    def __init__(self, comps: np.ndarray):
        self.degs = comps.sum(axis=0)
        self.coords = dict(enumerate(comps))

    def buffer(self, name, dtype=float):
        return None

    def spread(self, table, out):
        return table

    def rising(self, i, key, root, out):
        sigma, p, q, v = key
        r = spectral._rising(np.maximum(self.coords[i] + sigma, 0), p, q, v)
        return np.sqrt(r, out=r) if root else r


def unblocked_values(config, comps: np.ndarray, gamma: float, rows: dict,
                     dtype) -> np.ndarray:
    """The eigenvalues of config at the columns of comps, an (n, m) array of
    multi-indices, as one block: one `spectral._chain_values` call per chain
    with every table taken at the columns themselves (`ColumnsAt`) and every
    first factor evaluated by each chain it opens, each added to +0.0, then
    raised to the power.  This is how
    `spectral._config_values` evaluated columns before the pair walk of
    `spectral._diagonal_values` replaced it."""
    cols = ColumnsAt(comps)
    v = np.zeros(comps.shape[1], dtype=dtype)
    for chain in spectral._plan(config, gamma)[0]:
        # no factor values shared between chains: each evaluates its own
        v += spectral._chain_values(chain, cols, rows, 0, dtype, {})
    if config.power != 1:
        spectral._raised(v, config.power)
    return v


def line_by_lstsq(x, y):
    """(intercept, slope) of the least-squares line through (x, y) by
    `np.linalg.lstsq` on the design matrix [1, x], as `dixmier` fitted its
    lines before the closed form."""
    x = np.asarray(x, dtype=float)
    A = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(A, np.asarray(y, dtype=float), rcond=None)
    return float(coef[0]), float(coef[1])


def per_degree_spectrum(ctx, config, K_degree: int):
    """`spectral.diagonal_spectrum` of a non-radial configuration as it was
    built before blocks: one complex `chain_values` call per chain and
    degree (alpha_1 ascending at n = 2, `compositions` order above), the
    per-degree arrays concatenated, and a stable sort; the certificate
    from the largest modulus of each tail degree, by `np.abs`, the later
    half of them against the earlier."""
    n, gamma = ctx.n, ctx.gamma
    _chains, reach, exponents, _read, _real = spectral._plan(config, gamma)
    # each factor's shift, from any of its terms
    per_chain = [[mi_sub(*next(iter(S.terms))[:2]) for S in ch.factors]
                 for ch in config.chains]
    rows = {t: scaled_moment_row(t, gamma, K_degree + reach) for t in exponents}
    per_degree = []
    for k in range(K_degree + 1):
        if n == 2:
            a1 = np.arange(k + 1, dtype=np.int64)
            comps = np.vstack([a1, k - a1])
        else:
            comps = np.array(list(compositions(k, n)), dtype=np.int64).T
        v = np.zeros(comps.shape[1], dtype=complex)
        for ch, shifts in zip(config.chains, per_chain):
            v += chain_values(ch, shifts, comps, gamma, rows, complex)
        if config.power != 1:
            v = v**config.power
        per_degree.append(v)
    vals = np.concatenate(per_degree)
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    if float(np.max(np.abs(vals.imag))) > 1e-9 * scale:
        raise spectral.DiagonalityError("configuration has non-real diagonal values")
    tail_lo = max(0, int(math.floor(0.95 * K_degree)))
    tops = [float(np.max(np.abs(v))) for v in per_degree[tail_lo:]]
    half = (len(tops) + 1) // 2
    rises = max(tops[half:], default=0.0) > max(tops[:half])
    values = vals.real
    values = values[np.argsort(-np.abs(values), kind="stable")]
    certified = 0 if rises else int(np.sum(np.abs(values) > max(tops) * (1 + 1e-12)))
    return spectral.SNumberSequence(
        values, np.ones(values.shape[0], dtype=np.int64),
        signed=bool(np.any(values < 0)), certified_rank=certified,
        certificate="unverified" if rises else "monotone-tail")


def finish_with_copies(vals, starts, degree_mults, K_degree: int):
    """`spectral.diagonal_spectrum`'s finishing of the output of
    `spectral._diagonal_values` as it was before the values were held once:
    a sorted copy (`np.sort(v)[::-1]` for values without a sign bit, a stable
    modulus argsort otherwise), an `np.ones` multiplicity array, and the
    certificate as a mask over every modulus, from the largest modulus of
    each tail degree, by `np.abs`, the later half of them against the
    earlier."""
    if np.iscomplexobj(vals):
        scale = max(float(np.max(np.abs(vals))), 1e-300)
        if float(np.max(np.abs(vals.imag))) > 1e-9 * scale:
            raise spectral.DiagonalityError("configuration has non-real diagonal values")
    tail_lo = max(0, int(math.floor(0.95 * K_degree)))
    tops = [float(np.max(np.abs(vals[starts[d]:starts[d + 1]])))
            for d in range(tail_lo, K_degree + 1)]
    half = (len(tops) + 1) // 2
    rises = max(tops[half:], default=0.0) > max(tops[:half])
    v = vals.real
    order = np.argsort(-np.abs(v), kind="stable")
    if degree_mults is not None:
        values, mults = v[order], degree_mults[order]
    else:
        values = v[order] if np.signbit(v).any() else np.sort(v)[::-1]
        mults = np.ones(values.shape[0], dtype=np.int64)
    certified = 0 if rises else int(
        np.sum(mults[np.abs(values) > max(tops) * (1 + 1e-12)]))
    return spectral.SNumberSequence(
        values, mults, signed=bool(np.any(values < 0)),
        certified_rank=certified,
        certificate="unverified" if rises else "monotone-tail")


def snumber_validation(values, mults, signed) -> str | None:
    """The message of the ValueError that `spectral.SNumberSequence` raises
    on these values and multiplicities, or None, by its checks as they were
    before exact order was tested first: finiteness, the tolerant bound
    (1 + 1e-15) * |v_i| + 1e-300 on |v_(i+1)| built over every value at
    once, the sign of s-numbers, and the least multiplicity."""
    v = np.asarray(values, dtype=float)
    m = np.asarray(mults, dtype=np.int64)
    if v.shape != m.shape or v.ndim != 1:
        return "values and mults must be equal-length 1-D"
    if not v.size:
        return None
    lo, hi = v.min(), v.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        return "values must be finite"
    a = np.abs(v)
    with np.errstate(over="ignore"):
        bound = a[:-1] * (1 + 1e-15)
    bound += 1e-300
    if np.any(a[1:] > bound):
        return "values must be sorted by nonincreasing modulus"
    if not signed and lo < 0:
        return "s-numbers must be nonnegative"
    if m.min() <= 0:
        return "multiplicities must be positive"
    return None


def from_values(values, signed=False, certified_rank=None):
    """An `spectral.SNumberSequence` of unit multiplicities of values in any
    order, sorted by `spectral._sorted_runs` in a copy."""
    v, m = spectral._sorted_runs(np.array(values, dtype=float), None)
    return spectral.SNumberSequence(v, m, signed=signed,
                                    certified_rank=certified_rank)


def csv_by_rows(seq, path):
    """`SNumberSequence.to_csv` as it was before the block writer: one
    f-string per run, from numpy scalars."""
    with open(path, "w") as fh:
        fh.write("first_rank,multiplicity,value\n")
        start = 0
        for v, m in zip(seq.values, seq.mults):
            fh.write(f"{start},{m},{v:.17g}\n")
            start += m


def _rising_product(alpha, p) -> float:
    """(alpha+p)! / alpha! as a float, computed without large factorials."""
    out = 1.0
    for a, k in zip(alpha, p):
        for l in range(1, k + 1):
            out *= a + l
    return out


def toeplitz_entries(ctx, S, D: int) -> np.ndarray:
    """`fock_matrices.toeplitz_matrix(ctx, S, D).entries` as it was built
    before array assembly: one Python pass over the basis per term."""
    n, gamma = ctx.n, ctx.gamma
    basis = enumerate_basis(n, D)
    index = {a: i for i, a in enumerate(basis)}
    M = np.zeros((len(basis), len(basis)), dtype=complex)
    for (p, q, t), c in S.terms.items():
        row = scaled_moment_row(t, gamma, D + degree(p) + n)
        gfac = gamma ** (-(degree(p) + degree(q)) / 2.0)
        for i_a, alpha in enumerate(basis):
            beta = mi_add(alpha, mi_sub(p, q))
            if any(b < 0 for b in beta) or degree(beta) > D:
                continue
            a = mi_add(alpha, p)
            val = c * row[degree(a) + n - 1] * gfac * math.sqrt(
                _rising_product(alpha, p) * _rising_product(beta, q))
            M[index[beta], i_a] += val
    return M


# --- dense truncations -----------------------------------------------------

def hankel_product(ctx, f, g, D: int) -> np.ndarray:
    """Entries of the degree-<=D truncation of the Hankel product pairing f
    against g: toeplitz(conj(f) * g) - toeplitz(conj(f)) @ toeplitz(g), the
    second term buffered.  Positive semidefinite when f = g."""
    direct = toeplitz_matrix(ctx, f.conj() * g, D).entries
    return direct - buffered_product(ctx, [f.conj(), g], D).entries


def hermitian_spectrum(A, signed: bool = False,
                       residual_tol: float = 1e-10) -> np.ndarray:
    """Eigenvalues of the Hermitian matrix A by decreasing modulus, ties in
    eigh's order; their moduli unless signed.

    A must be Hermitian to 1e-12 of its largest entry, and each eigenpair
    must meet the residual contract |Av - lambda v| <= tol * |A|."""
    A = np.asarray(A, dtype=complex)
    m = np.max(np.abs(A)) if A.size else 0.0
    if m > 0 and np.max(np.abs(A - A.conj().T)) > 1e-12 * m:
        raise ValueError("matrix failed the hermiticity gate")
    w, V = np.linalg.eigh((A + A.conj().T) / 2.0)
    opnorm = float(np.max(np.abs(w))) if w.size else 0.0
    resid = np.linalg.norm(A @ V - V * w, axis=0)
    if opnorm > 0 and np.max(resid) > residual_tol * opnorm:
        raise RuntimeError("eigenpair residual exceeds contract")
    vals = w if signed else np.abs(w)
    return vals[np.argsort(-np.abs(vals), kind="stable")]


def singular_values(A) -> np.ndarray:
    """s-numbers of A, descending, with the adjoint symmetry verified."""
    A = np.asarray(A, dtype=complex)
    s = np.linalg.svd(A, compute_uv=False)
    s_adj = np.linalg.svd(A.conj().T, compute_uv=False)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    if np.max(np.abs(s - s_adj)) > 1e-10 * scale:
        raise RuntimeError("adjoint symmetry of s-numbers violated")
    return s


# --- term arithmetic -------------------------------------------------------
# The rules of SpherePolynomial, RadialSymbol and HomogeneousSymbol on their
# term dicts {(p, q[, t]): complex c}, as each class computed them on its
# own: every result of an operation went through its constructor again.


def _key(key):
    return key[:2] + tuple(round(float(t), 9) for t in key[2:])


def add_term(terms, key, c):
    """`HomogeneousSymbol.add_term`, and the constructors' rule per term:
    skip a zero c, store 0.0 + complex(c) summed onto the key, and pop the
    key when its sum is exactly zero (a later term re-adds it at the end)."""
    if c == 0:
        return
    key = _key(key)
    c0 = terms.get(key, 0.0) + complex(c)
    if c0 == 0:
        terms.pop(key, None)
    else:
        terms[key] = c0


def stored(items) -> dict:
    """The terms a constructor stores for a sequence of (key, c)."""
    out = {}
    for key, c in items:
        add_term(out, key, c)
    return out


def term_sum(a: dict, b: dict) -> dict:
    """a + b: a copied, b's coefficients summed in with pop on zero."""
    out = dict(a)
    for k, c in b.items():
        c0 = out.get(k, 0.0) + c
        if c0 == 0:
            out.pop(k, None)
        else:
            out[k] = c0
    return stored(out.items())


def term_scale(a: dict, s) -> dict:
    return stored((k, c * s) for k, c in a.items())


def term_neg(a: dict) -> dict:
    return stored((k, -c) for k, c in a.items())


def term_product(a: dict, b: dict) -> dict:
    """a * b: products summed per key without dropping zeros, then stored."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = _key((mi_add(k1[0], k2[0]), mi_add(k1[1], k2[1]))
                       + tuple(t1 + t2 for t1, t2 in zip(k1[2:], k2[2:])))
            out[key] = out.get(key, 0.0) + c1 * c2
    return stored(out.items())


def term_conj(a: dict) -> dict:
    return stored(((q, p, *t), c.conjugate()) for (p, q, *t), c in a.items())


def _summed(parts) -> dict:
    """Nonzero contributions summed per key without dropping zeros, then
    stored: the rule of RadialSymbol.wirtinger and the tangential fields."""
    out = {}
    for key, c in parts:
        if c != 0:
            key = _key(key)
            out[key] = out.get(key, 0.0) + c
    return stored(out.items())


def term_wirtinger(n: int, a: dict, j: int, kind: str, layer: bool = False) -> dict:
    """d/dz_j ('holo') or d/dconj(z_j) ('anti') of keys (p, q, t), with
    d w^t = (t/2) conj(z_j) w^(t-2) dz_j.  A RadialSymbol used `_summed`; a
    layer (HomogeneousSymbol) added each contribution with `add_term`."""
    e = tuple(1 if i == j - 1 else 0 for i in range(n))
    parts = []
    for (p, q, t), c in a.items():
        if kind == "holo":
            if p[j - 1] > 0:
                parts.append(((mi_sub(p, e), q, t), c * p[j - 1]))
            if t != 0:
                parts.append(((p, mi_add(q, e), t - 2), c * t / 2.0))
        else:
            if q[j - 1] > 0:
                parts.append(((p, mi_sub(q, e), t), c * q[j - 1]))
            if t != 0:
                parts.append(((mi_add(p, e), q, t - 2), c * t / 2.0))
    return stored(parts) if layer else _summed(parts)


def term_laplacian(n: int, a: dict, layer: bool = False) -> dict:
    out = {}
    for j in range(1, n + 1):
        out = term_sum(out, term_wirtinger(
            n, term_wirtinger(n, a, j, "holo", layer), j, "anti", layer))
    return term_scale(out, 4.0)


def heat_inverse(n: int, a: dict, gamma: float) -> dict:
    """`weyl_calculus.heat_inverse` as its own alternating series."""
    out, term, l = {}, a, 0
    while term:
        out = term_sum(out, term_scale(
            term, (-1.0) ** l / (math.factorial(l) * (8.0 * gamma) ** l)))
        term = term_laplacian(n, term)
        l += 1
    return out


def tangential_dbar(n: int, P: dict, j: int) -> dict:
    """`sphere_calculus.tangential_dbar` as its own rule on keys (p, q)."""
    e = tuple(1 if i == j - 1 else 0 for i in range(n))
    parts = []
    for (p, q), c in P.items():
        if q[j - 1] > 0:
            parts.append(((p, mi_sub(q, e)), c * q[j - 1]))
        if degree(q):
            parts.append(((mi_add(p, e), q), -c * degree(q)))
    return _summed(parts)


def _falling(p, alpha) -> float:
    """p!/(p-alpha)! componentwise; 0 when alpha exceeds p somewhere."""
    out = 1.0
    for a, b in zip(p, alpha):
        if b > a:
            return 0.0
        for l in range(b):
            out *= a - l
    return out


def poly_deriv(a: dict, alpha, beta) -> dict:
    out = {}
    for (p, q, _t), c in a.items():
        f1 = _falling(p, alpha)
        if f1 == 0.0:
            continue
        f2 = _falling(q, beta)
        if f2 == 0.0:
            continue
        key = (mi_sub(p, alpha), mi_sub(q, beta), 0.0)
        out[key] = out.get(key, 0.0) + c * f1 * f2
    return stored(out.items())


def star(a, b, gamma: float) -> dict:
    """The terms of `weyl_calculus.star(a, b, gamma)` as they were summed on
    symbols: one term dict per derivative and per product, and a fresh
    accumulator per pair."""
    n = a.n
    amax = min(max((sum(p) for (p, _q, _t) in a.terms), default=0),
               max((sum(q) for (_p, q, _t) in b.terms), default=0))
    bmax = min(max((sum(q) for (_p, q, _t) in a.terms), default=0),
               max((sum(p) for (p, _q, _t) in b.terms), default=0))
    out = {}
    for alpha in enumerate_basis(n, amax):
        for beta in enumerate_basis(n, bmax):
            da = poly_deriv(a.terms, alpha, beta)
            if not da:
                continue
            db = poly_deriv(b.terms, beta, alpha)
            if not db:
                continue
            ka, kb = sum(alpha), sum(beta)
            coeff = (-1.0) ** kb / (
                mi_factorial(alpha) * mi_factorial(beta) * (-2.0 * gamma) ** (ka + kb))
            out = term_sum(out, term_scale(term_product(da, db), coeff))
    return out


def sphere_norm_sq(P) -> float:
    """`core.sphere_norm_sq` as the integral of the full product."""
    return sphere_integral(
        SpherePolynomial(P.n, term_product(P.terms, term_conj(P.terms)))).real


def tangential_bracket(phi, psi):
    """`sphere_calculus.tangential_bracket` as its own rule: the sum over j
    of tangential_d(j, phi) * tangential_dbar(j, psi), then minus
    reeb(phi) * reeb(psi)."""
    out = SpherePolynomial(phi.n)
    for j in range(1, phi.n + 1):
        out = out + sphere_calculus.tangential_d(j, phi) * \
            sphere_calculus.tangential_dbar(j, psi)
    return out - sphere_calculus.reeb(phi) * sphere_calculus.reeb(psi)


def sphere_monomial(n, p, q, c=1.0):
    """The sphere polynomial c * zeta^p conj(zeta)^q."""
    return SpherePolynomial(n, {(tuple(p), tuple(q)): c})


def sphere_equal(P, Q, tol: float = 1e-10) -> bool:
    """Semantic equality modulo the relation |zeta|^2 = 1, via the Gram form
    (`core.sphere_norm_sq`)."""
    if P.n != Q.n:
        raise ValueError("dimension mismatch")
    norm = core.sphere_norm_sq
    return norm(P - Q) <= tol * (1.0 + norm(P) + norm(Q))


def sphere_surface_area(n: int) -> float:
    """Surface area of the unit sphere in C^n (real dimension 2n-1)."""
    return 2.0 * math.pi**n / math.factorial(n - 1)


# --- per-point evaluation in numpy complex arithmetic -----------------------
# `TermSum.evaluate`, the coherent vector, `berezin` and
# `boundary_pairing_limit` as they were computed one point and one matrix
# at a time, on numpy complex128 scalars.


def evaluate(P, z) -> complex:
    """`TermSum.evaluate` on numpy complex128 scalars."""
    z = np.asarray(z, dtype=complex)
    r2 = float(np.sum(np.abs(z) ** 2))
    out = 0.0 + 0.0j
    for (p, q, *t), c in P.terms.items():
        val = c * P._factor(r2, *t) if t else c
        for i in range(P.n):
            if p[i]:
                val *= z[i] ** p[i]
            if q[i]:
                val *= np.conj(z[i]) ** q[i]
        out += val
    return complex(out)


def coherent_factors(wj, gamma: float, D: int) -> np.ndarray:
    """`fock_matrices._coherent_factors` with its recurrence on an array."""
    lam = gamma * abs(wj) ** 2
    m = max(math.ceil(lam), 1)
    damp = math.exp(-lam / (2 * m))
    out = np.ones(D + 1, dtype=complex)
    for a in range(1, D + 1):
        out[a] = out[a - 1] * wj * (math.sqrt(gamma / a) * (damp if a <= m else 1.0))
    return out * damp ** np.maximum(m - np.arange(D + 1), 0)


def berezin(ctx, M, w) -> complex:
    """`fock_matrices.berezin` of one matrix, its coherent vector built from
    `coherent_factors`, without the truncation warning."""
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    factors = [coherent_factors(wj, ctx.gamma, M.D) for wj in w]
    e = np.array([math.prod(f[a] for f, a in zip(factors, alpha))
                  for alpha in enumerate_basis(ctx.n, M.D)])
    return complex(e @ M.entries @ e.conj())


def boundary_pairing_limit(f, g, zeta, exponent: int = 2) -> complex:
    """`sphere_calculus.boundary_pairing_limit` at one point, the
    derivatives built for it and evaluated by `evaluate`."""
    zeta = np.asarray(zeta, dtype=complex)
    if abs(float(np.sum(np.abs(zeta) ** 2)) - 1.0) > 1e-12:
        raise ValueError("zeta must lie on the unit sphere")
    fbar = f.conj()
    dfs = [fbar.wirtinger(j, "holo") for j in range(1, f.n + 1)]
    dgs = [g.wirtinger(j, "anti") for j in range(1, f.n + 1)]
    values = []
    for r in (1e2, 1e3):
        z = r * zeta
        acc = sum(evaluate(df, z) * evaluate(dg, z) for df, dg in zip(dfs, dgs))
        values.append(complex(r**exponent * acc))
    v0, v1 = values
    gap = abs(v1 - v0)
    if gap > 1e-3 * (1.0 + abs(v1)):
        raise ConvergenceError(
            f"radial limit not Cauchy: |v1-v0| = {gap:.3e} at radii 1e2, 1e3")
    x0, x1 = 1e2**-2, 1e3**-2
    return (x0 * v1 - x1 * v0) / (x0 - x1)
