"""Multi-index arithmetic, graded monomial bases, the term-sum algebra, and
exact integration of polynomials on the unit sphere of C^n.

`TermSum` is the one sparse algebra of sums c * z^p * conj(z)^q (times a
radial factor): its constructor, rounding, +, -, *, **, conj, evaluation
and repr serve `SpherePolynomial` here and `RadialSymbol` and
`HomogeneousSymbol` in `focktrace.symbols`.

Multi-indices are plain tuples of nonnegative ints.  The global basis order
is graded: total degree first, then descending lexicographic within a degree.
Every matrix in the package indexes rows/columns this way.

Integrals are taken against the *normalized* surface measure (total mass 1).
"""

from __future__ import annotations

import math
import operator

import numpy as np

_INT64_MAX = np.iinfo(np.int64).max
_TKEY_DECIMALS = 9


def degree(alpha) -> int:
    return sum(alpha)


def mi_factorial(alpha) -> float:
    out = 1.0
    for a in alpha:
        out *= float(math.factorial(a))
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


def degree_multiplicity(n: int, k) -> np.ndarray:
    """Number of multi-indices of length n with |alpha| = k, C(k+n-1, n-1),
    for each entry of the integer array k, as an int64 array of k's shape;
    ValueError when a value would not fit in int64.
    """
    k = np.asarray(k, dtype=np.int64)
    if n < 1 or np.any(k < 0):
        raise ValueError("need n >= 1 and k >= 0")
    if k.size and math.comb(int(k.max()) + n - 1, n - 1) > _INT64_MAX:
        raise ValueError(f"C(k+{n - 1}, {n - 1}) overflows int64 at k = {k.max()}")
    # C(k+i, i) = C(k+i-1, i-1) * (k+i) / i; dividing by i before the
    # product (split by the gcd) keeps every intermediate below the result
    out = np.ones_like(k)
    for i in range(1, n):
        g = np.gcd(out, i)
        out = (out // g) * ((k + i) // (i // g))
    return out


def _tkey(t: float) -> float:
    # radial exponents act as dict keys; round to kill 1e-16 drift from t-2 chains
    return round(float(t), _TKEY_DECIMALS)


class TermSum:
    """Finite sum of terms c * z^p * conj(z)^q, times a radial factor w^t in
    the kinds that have one, on C^n: the algebra shared by `SpherePolynomial`
    and the symbols of `focktrace.symbols`.

    `terms` maps (p, q), or (p, q, t) with t rounded by `_tkey`, to a nonzero
    complex coefficient.  The constructor refuses a multi-index of the wrong
    length or with a negative entry (ValueError), sums repeated keys and
    drops a key whose sum is exactly zero; it stores 0.0 + complex(c), which
    turns a -0.0 part into +0.0.  Arithmetic builds each result once, in that
    stored form and with that rounding, without checking its keys again.
    Operands must be of one kind and dimension; a number stands for a
    constant.  A subclass with a radial factor names it in `_radial` (None:
    keys are (p, q)) and evaluates w^t at |z|^2 = r2 in `_factor(r2, t)`.
    """

    __slots__ = ("n", "terms")
    degree = None  # homogeneity degree; only homogeneous layers have one
    _radial = None

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for (p, q, *t), c in (terms.items() if isinstance(terms, dict) else terms):
                self._add(p, q, t, c)

    def _add(self, p, q, t, c):
        p, q = tuple(p), tuple(q)
        if len(p) != self.n or len(q) != self.n or min(p + q, default=0) < 0:
            raise ValueError(f"need two multi-indices of {self.n} "
                             f"nonnegative exponents, got {p}, {q}")
        if c != 0:
            key = self._key(p, q, t)
            c0 = self.terms.get(key, 0.0) + complex(c)
            if c0 == 0:
                self.terms.pop(key, None)
            else:
                self.terms[key] = c0

    def _key(self, p, q, t):
        if len(t) != (self._radial is not None):
            raise ValueError(f"{type(self).__name__} keys have "
                             f"{3 if self._radial else 2} entries, got {(p, q, *t)}")
        return (p, q, _tkey(t[0])) if t else (p, q)

    def _new(self, terms, degree=None):
        """A sum of this kind on terms in stored form, unchecked; a layer
        keeps its degree unless given another."""
        out = object.__new__(type(self))
        out.n, out.terms = self.n, terms
        if self.degree is not None:
            out.degree = self.degree if degree is None else degree
        return out

    def _from_sums(self, sums, degree=None):
        """`_new` on sums as the constructor stores them: exact zeros
        dropped, 0.0 + complex(c) kept."""
        return self._new({k: 0.0 + complex(c) for k, c in sums.items() if c != 0},
                         degree)

    def _constant(self, c):
        z = (0,) * self.n
        return self._from_sums({(z, z, 0.0) if self._radial else (z, z): c}, 0.0)

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} "
                            f"with {type(other).__name__}")
        if self.n != other.n:
            raise ValueError("dimension mismatch")

    def __add__(self, other):
        if not isinstance(other, TermSum):
            other = self._constant(other)
        self._check(other)
        if (self.degree is not None and self.terms and other.terms
                and abs(self.degree - other.degree) > 1e-8):
            raise ValueError("incompatible layers")
        out = dict(self.terms)
        for k, c in other.terms.items():
            c0 = out.get(k, 0.0) + c
            if c0 == 0:
                out.pop(k, None)
            else:
                out[k] = c0
        return self._new(out, None if self.terms else other.degree)

    __radd__ = __add__

    def __neg__(self):
        return self._from_sums({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TermSum):
            return self._from_sums({k: c * other for k, c in self.terms.items()})
        self._check(other)
        radial = self._radial is not None
        sums = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = (mi_add(k1[0], k2[0]), mi_add(k1[1], k2[1]))
                if radial:
                    key += (_tkey(k1[2] + k2[2]),)
                sums[key] = sums.get(key, 0.0) + c1 * c2
        return self._from_sums(
            sums, None if self.degree is None else self.degree + other.degree)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("need a nonnegative integer exponent")
        out = self._constant(1.0)
        for _ in range(k):
            out = out * self
        return out

    def conj(self):
        return self._from_sums(
            {(k[1], k[0]) + k[2:]: c.conjugate() for k, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, z) -> complex:
        """The sum at the point z of shape (n,) (ValueError otherwise), in Python
        complex arithmetic.  Each power rounds as numpy's complex128 power does,
        up to the sign of a zero part, which the sum, started at +0, drops; a
        power that overflows is outside the domain (Python raises OverflowError
        for some).  |z|^2 is numpy's sum of np.abs(z)**2, whose abs and
        summation order Python's abs and sum do not share."""
        z = np.asarray(z, dtype=complex)
        if z.shape != (self.n,):
            raise ValueError(f"need a point of C^{self.n}, got shape {z.shape}")
        r2 = float(np.add.reduce(np.abs(z) ** 2))
        zs = z.tolist()
        zbs = [x.conjugate() for x in zs]
        out = 0.0 + 0.0j
        for (p, q, *t), c in self.terms.items():
            val = c * self._factor(r2, *t) if t else c
            for i in range(self.n):
                if p[i]:
                    val *= zs[i] ** p[i]
                if q[i]:
                    val *= zbs[i] ** q[i]
            out += val
        return out

    def __repr__(self):
        head = f"{type(self).__name__}(n={self.n}"
        if self.degree is not None:
            head += f", deg={self.degree:g}"
        bits = [f"{c:+.6g}*z^{list(p)}*zb^{list(q)}"
                + "".join(f"*{self._radial}^{s:g}" for s in t)
                for (p, q, *t), c in sorted(self.terms.items())]
        return f"{head}, {' '.join(bits) or 0})"


class SpherePolynomial(TermSum):
    """Finite sum of monomials zeta^p conj(zeta)^q restricted to the unit
    sphere of C^n, keyed (p, q).

    The representation is not unique on the sphere (|zeta|^2 = 1): two
    sums may differ and agree as functions there.
    """

    __slots__ = ()

    @classmethod
    def constant(cls, n, c=1.0):
        z = (0,) * n
        return cls(n, {(z, z): c})


def _monomial_integral(n: int, p) -> float:
    # the integral of |zeta^p|^2, (n-1)! p! / (n-1+|p|)!: a ratio of exact
    # integers, and so correctly rounded at every degree
    num = math.factorial(n - 1)
    for a in p:
        num *= math.factorial(a)
    return num / math.factorial(n - 1 + degree(p))


def sphere_integral(P: SpherePolynomial) -> complex:
    """Integral of P over the unit sphere against the normalized measure."""
    out = 0.0 + 0.0j
    for (p, q), c in P.terms.items():
        if p == q:
            out += c * _monomial_integral(P.n, p)
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
            out += (0.0 + complex(c)) * _monomial_integral(P.n, p)
    return complex(out).real

