"""Multi-index arithmetic, graded monomial bases, and exact integration of
polynomials on the unit sphere of C^n.

Multi-indices are plain tuples of nonnegative ints.  The global basis order
is graded: total degree first, then descending lexicographic within a degree.
Every matrix in the package indexes rows/columns this way.

Integrals are taken against the *normalized* surface measure (total mass 1);
`sphere_surface_area` supplies the single conversion constant to the
unnormalized measure.
"""

from __future__ import annotations

import math
import operator

import numpy as np

_INT64_MAX = np.iinfo(np.int64).max


def factorial(k: int) -> float:
    """k! correctly rounded; OverflowError above k = 170, where k! leaves the
    float range."""
    return float(math.factorial(k))


def binomial(a: int, b: int) -> int:
    """Exact C(a, b) at every size; 0 outside 0 <= b <= a."""
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def degree(alpha) -> int:
    return sum(alpha)


def mi_factorial(alpha) -> float:
    out = 1.0
    for a in alpha:
        out *= factorial(a)
    return out


def mi_add(alpha, beta):
    return tuple(map(operator.add, alpha, beta))


def mi_sub(alpha, beta):
    return tuple(map(operator.sub, alpha, beta))


def unit_index(n: int, j: int):
    """e_j as a multi-index, j being 1-based."""
    return tuple(1 if i == j - 1 else 0 for i in range(n))


def compositions(k: int, n: int):
    """All multi-indices of length n and total degree k, descending lex."""
    if n == 1:
        yield (k,)
        return
    for first in range(k, -1, -1):
        for rest in compositions(k - first, n - 1):
            yield (first,) + rest


def enumerate_basis(n: int, D: int):
    """All multi-indices with |alpha| <= D in graded descending-lex order."""
    if n < 1 or D < 0:
        raise ValueError("need n >= 1 and D >= 0")
    out = []
    for k in range(D + 1):
        out.extend(compositions(k, n))
    return out


def graded_rank(alphas: np.ndarray) -> np.ndarray:
    """Positions in `enumerate_basis` order of the rows of an (m, n) array of
    multi-indices.

    With r_i = alpha_i + ... + alpha_n, the multi-indices before alpha are
    the C(r_1+n-1, n) of lower degree and, for each i < n, the
    C(r_(i+1)+n-i-1, n-i) of degree r_1 that agree with alpha before i and
    exceed it at i.
    """
    m, n = alphas.shape
    rest = alphas[:, ::-1].cumsum(axis=1)[:, ::-1]  # rest[:, i] = r_(i+1)
    rank = np.zeros(m, dtype=np.int64)
    for i in range(n):
        # C(r+k-1, k) with k = n - i, built up exactly as C(r+j-1, j), j <= k
        r, c = rest[:, i], np.ones(m, dtype=np.int64)
        for j in range(1, n - i + 1):
            c = c * (r + j - 1) // j
        rank += c
    return rank


def degree_multiplicity(n: int, k):
    """Number of multi-indices of length n with |alpha| = k, C(k+n-1, n-1).

    k is an int, or an integer array for which an int64 array of the same
    shape is returned; that form raises ValueError when a value would not
    fit in int64.
    """
    if n < 1 or np.any(np.asarray(k) < 0):
        raise ValueError("need n >= 1 and k >= 0")
    if np.ndim(k) == 0:
        return binomial(int(k) + n - 1, n - 1)
    k = np.asarray(k, dtype=np.int64)
    if k.size and binomial(int(k.max()) + n - 1, n - 1) > _INT64_MAX:
        raise ValueError(f"C(k+{n - 1}, {n - 1}) overflows int64 at k = {k.max()}")
    # C(k+i, i) = C(k+i-1, i-1) * (k+i) / i; dividing by i before the
    # product (split by the gcd) keeps every intermediate below the result
    out = np.ones_like(k)
    for i in range(1, n):
        g = np.gcd(out, i)
        out = (out // g) * ((k + i) // (i // g))
    return out


def sphere_surface_area(n: int) -> float:
    """Surface area of the unit sphere in C^n (real dimension 2n-1)."""
    return 2.0 * math.pi**n / factorial(n - 1)


class SpherePolynomial:
    """Finite sum of monomials zeta^p conj(zeta)^q restricted to the unit
    sphere of C^n.

    The representation is not unique on the sphere (|zeta|^2 = 1); use
    `sphere_equal` for semantic comparison.  Terms with exactly zero
    coefficient are not stored; a multi-index of the wrong length or with a
    negative entry raises ValueError.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for (p, q), c in (terms.items() if isinstance(terms, dict) else terms):
                p, q = tuple(p), tuple(q)
                if len(p) != n or len(q) != n or min(p + q, default=0) < 0:
                    raise ValueError(f"need two multi-indices of {n} "
                                     f"nonnegative exponents, got {p}, {q}")
                if c != 0:
                    key = (p, q)
                    c0 = self.terms.get(key, 0.0) + complex(c)
                    if c0 == 0:
                        self.terms.pop(key, None)
                    else:
                        self.terms[key] = c0

    @classmethod
    def monomial(cls, n, p, q, c=1.0):
        return cls(n, {(tuple(p), tuple(q)): c})

    @classmethod
    def constant(cls, n, c=1.0):
        z = (0,) * n
        return cls(n, {(z, z): c})

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("dimension mismatch")

    def __add__(self, other):
        if not isinstance(other, SpherePolynomial):
            other = SpherePolynomial.constant(self.n, other)
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            c0 = out.get(k, 0.0) + c
            if c0 == 0:
                out.pop(k, None)
            else:
                out[k] = c0
        return SpherePolynomial(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return SpherePolynomial(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, SpherePolynomial):
            other = SpherePolynomial.constant(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, SpherePolynomial):
            return SpherePolynomial(
                self.n, {k: c * other for k, c in self.terms.items()})
        self._check(other)
        out = {}
        for (p1, q1), c1 in self.terms.items():
            for (p2, q2), c2 in other.terms.items():
                key = (mi_add(p1, p2), mi_add(q1, q2))
                c0 = out.get(key, 0.0) + c1 * c2
                out[key] = c0
        return SpherePolynomial(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = SpherePolynomial.constant(self.n)
        for _ in range(k):
            out = out * self
        return out

    def conj(self):
        return SpherePolynomial(
            self.n, {(q, p): c.conjugate() for (p, q), c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, zeta) -> complex:
        zeta = np.asarray(zeta, dtype=complex)
        out = 0.0 + 0.0j
        for (p, q), c in self.terms.items():
            val = c
            for i in range(self.n):
                if p[i]:
                    val *= zeta[i] ** p[i]
                if q[i]:
                    val *= np.conj(zeta[i]) ** q[i]
            out += val
        return complex(out)

    def permute(self, perm):
        """Apply a coordinate permutation: zeta_i -> zeta_perm[i]."""
        out = {}
        for (p, q), c in self.terms.items():
            p2 = tuple(p[perm[i]] for i in range(self.n))
            q2 = tuple(q[perm[i]] for i in range(self.n))
            out[(p2, q2)] = out.get((p2, q2), 0.0) + c
        return SpherePolynomial(self.n, out)

    def __repr__(self):
        if not self.terms:
            return f"SpherePolynomial(n={self.n}, 0)"
        bits = []
        for (p, q), c in sorted(self.terms.items()):
            bits.append(f"{c:+.6g}*z^{list(p)}*zb^{list(q)}")
        return f"SpherePolynomial(n={self.n}, {' '.join(bits)})"


def _monomial_integral(n: int, p, q) -> float:
    # normalized measure: vanishes unless p == q, else (n-1)! p! / (n-1+|p|)!,
    # a ratio of exact integers and so correctly rounded at every degree
    if p != q:
        return 0.0
    num = math.factorial(n - 1)
    for a in p:
        num *= math.factorial(a)
    return num / math.factorial(n - 1 + degree(p))


def sphere_integral(P: SpherePolynomial) -> complex:
    """Integral of P over the unit sphere against the normalized measure."""
    out = 0.0 + 0.0j
    for (p, q), c in P.terms.items():
        if p == q:
            out += c * _monomial_integral(P.n, p, q)
    return complex(out)


def sphere_norm_sq(P: SpherePolynomial) -> float:
    """L^2 norm squared against the normalized measure, computed exactly.

    Bit for bit `sphere_integral(P * P.conj()).real`, but only the diagonal
    terms of the product are formed: the product of zeta^p1 conj(zeta)^q1
    and zeta^p2 conj(zeta)^q2 integrates to nonzero only when
    p2 - q2 = q1 - p1, so the factors of P.conj() are bucketed by that shift.
    Each diagonal coefficient is summed over its pairs in the order of the
    product's double loop, and the integral runs over the diagonal terms in
    the product's key order.
    """
    by_shift = {}
    for (p2, q2), c2 in P.conj().terms.items():
        by_shift.setdefault(mi_sub(p2, q2), []).append((p2, c2))
    diag = {}
    for (p1, q1), c1 in P.terms.items():
        for p2, c2 in by_shift.get(mi_sub(q1, p1), ()):
            key = mi_add(p1, p2)
            diag[key] = diag.get(key, 0.0) + c1 * c2
    out = 0.0 + 0.0j
    for p, c in diag.items():
        if c != 0:
            out += (0.0 + complex(c)) * _monomial_integral(P.n, p, p)
    return complex(out).real


def sphere_equal(P: SpherePolynomial, Q: SpherePolynomial,
                 tol: float = 1e-10) -> bool:
    """Semantic equality modulo the relation |zeta|^2 = 1, via the Gram form."""
    if P.n != Q.n:
        raise ValueError("dimension mismatch")
    diff = P - Q
    return sphere_norm_sq(diff) <= tol * (1.0 + sphere_norm_sq(P) + sphere_norm_sq(Q))
