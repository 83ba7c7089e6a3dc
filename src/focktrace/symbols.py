"""Concrete symbol algebra: finite sums  c * z^p * conj(z)^q * (1+|z|^2)^(t/2).

This class of functions is smooth on all of C^n, exactly integrable against
Gaussians, closed under Wirtinger derivatives, products and conjugation, and
carries an asymptotic expansion into layers homogeneous of decreasing degree
at infinity.  `HomogeneousSymbol` represents one such layer,
c * z^p * conj(z)^q * |z|^s, valid away from the origin.
"""

from __future__ import annotations

import math

import numpy as np

from .core import SpherePolynomial, degree, mi_add, mi_sub, unit_index

_TKEY_DECIMALS = 9


def _tkey(t: float) -> float:
    # radial exponents act as dict keys; round to kill 1e-16 drift from t-2 chains
    return round(float(t), _TKEY_DECIMALS)


def general_binomial(x: float, i: int) -> float:
    """binomial(x, i) for real x: x(x-1)...(x-i+1)/i!."""
    out = 1.0
    for l in range(i):
        out *= (x - l) / (l + 1)
    return out


class RadialSymbol:
    """Finite sum of terms c * z^p * conj(z)^q * (1+|z|^2)^(t/2) on C^n.

    terms maps (p, q, t) -> complex coefficient; zero coefficients are
    dropped, and a multi-index of the wrong length or with a negative entry
    raises ValueError.  The order of the symbol is max over terms of
    |p|+|q|+t.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for (p, q, t), c in items:
                p, q = tuple(p), tuple(q)
                if len(p) != n or len(q) != n or min(p + q, default=0) < 0:
                    raise ValueError(f"need two multi-indices of {n} "
                                     f"nonnegative exponents, got {p}, {q}")
                if c != 0:
                    key = (p, q, _tkey(t))
                    c0 = self.terms.get(key, 0.0) + complex(c)
                    if c0 == 0:
                        self.terms.pop(key, None)
                    else:
                        self.terms[key] = c0

    @classmethod
    def monomial(cls, n, p, q, t=0.0, c=1.0):
        return cls(n, {(tuple(p), tuple(q), float(t)): c})

    @classmethod
    def constant(cls, n, c=1.0):
        z = (0,) * n
        return cls(n, {(z, z, 0.0): c})

    @classmethod
    def coordinate(cls, n, j, conjugated=False):
        """z_j (or conj(z_j)), j 1-based."""
        e = unit_index(n, j)
        z = (0,) * n
        return cls.monomial(n, z if conjugated else e, e if conjugated else z)

    @classmethod
    def radial_power(cls, n, t):
        """(1 + |z|^2)^(t/2)."""
        z = (0,) * n
        return cls.monomial(n, z, z, t)

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("dimension mismatch")

    def __add__(self, other):
        if not isinstance(other, RadialSymbol):
            other = RadialSymbol.constant(self.n, other)
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            c0 = out.get(k, 0.0) + c
            if c0 == 0:
                out.pop(k, None)
            else:
                out[k] = c0
        return RadialSymbol(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return RadialSymbol(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, RadialSymbol):
            other = RadialSymbol.constant(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, RadialSymbol):
            return RadialSymbol(self.n, {k: c * other for k, c in self.terms.items()})
        self._check(other)
        out = {}
        for (p1, q1, t1), c1 in self.terms.items():
            for (p2, q2, t2), c2 in other.terms.items():
                key = (mi_add(p1, p2), mi_add(q1, q2), _tkey(t1 + t2))
                out[key] = out.get(key, 0.0) + c1 * c2
        return RadialSymbol(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = RadialSymbol.constant(self.n)
        for _ in range(k):
            out = out * self
        return out

    def conj(self):
        return RadialSymbol(
            self.n, {(q, p, t): c.conjugate() for (p, q, t), c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def is_real(self) -> bool:
        """True iff the symbol equals its own conjugate, term by term."""
        for (p, q, t), c in self.terms.items():
            if abs(self.terms.get((q, p, t), 0.0) - c.conjugate()) > 1e-14 * (1 + abs(c)):
                return False
        return True

    def is_polynomial(self) -> bool:
        return all(t == 0 for (_, _, t) in self.terms)

    def order(self) -> float:
        """max over terms of |p|+|q|+t; -inf for the zero symbol."""
        if not self.terms:
            return -math.inf
        return max(degree(p) + degree(q) + t for (p, q, t) in self.terms)

    def wirtinger(self, j: int, kind: str):
        """Wirtinger derivative d/dz_j ('holo') or d/dconj(z_j) ('anti')."""
        if not 1 <= j <= self.n:
            raise ValueError("coordinate index out of range")
        e = unit_index(self.n, j)
        out = {}

        def acc(key, c):
            if c != 0:
                out[key] = out.get(key, 0.0) + c

        for (p, q, t), c in self.terms.items():
            if kind == "holo":
                if p[j - 1] > 0:
                    acc((mi_sub(p, e), q, t), c * p[j - 1])
                if t != 0:
                    acc((p, mi_add(q, e), _tkey(t - 2)), c * t / 2.0)
            elif kind == "anti":
                if q[j - 1] > 0:
                    acc((p, mi_sub(q, e), t), c * q[j - 1])
                if t != 0:
                    acc((mi_add(p, e), q, _tkey(t - 2)), c * t / 2.0)
            else:
                raise ValueError("kind must be 'holo' or 'anti'")
        return RadialSymbol(self.n, out)

    def laplacian(self):
        """4 * sum_j d/dz_j d/dconj(z_j)."""
        out = RadialSymbol(self.n)
        for j in range(1, self.n + 1):
            out = out + self.wirtinger(j, "holo").wirtinger(j, "anti")
        return 4.0 * out

    def evaluate(self, z) -> complex:
        z = np.asarray(z, dtype=complex)
        r2 = float(np.sum(np.abs(z) ** 2))
        out = 0.0 + 0.0j
        for (p, q, t), c in self.terms.items():
            val = c * (1.0 + r2) ** (t / 2.0)
            for i in range(self.n):
                if p[i]:
                    val *= z[i] ** p[i]
                if q[i]:
                    val *= np.conj(z[i]) ** q[i]
            out += val
        return complex(out)

    def homogeneous_expansion(self, N: int):
        """First N homogeneous layers at infinity, degrees m, m-1, ..., m-N+1.

        Expands each (1+|z|^2)^(t/2) factor by the binomial series in
        |z|^(-2); returns (layers, remainder_order) where the true symbol
        minus the partial sum is O(|z|^(m-N)).
        """
        if N < 1:
            raise ValueError("need N >= 1")
        if not self.terms:
            return [HomogeneousSymbol(self.n, 0.0) for _ in range(N)], -math.inf
        m = self.order()
        layers = [HomogeneousSymbol(self.n, m - j) for j in range(N)]
        for (p, q, t), c in self.terms.items():
            d_term = degree(p) + degree(q) + t
            for j in range(N):
                gap = d_term - (m - j)
                if gap < -1e-9:
                    continue
                i2 = gap / 2.0
                i = int(round(i2))
                if abs(i2 - i) > 1e-9 or i < 0:
                    continue
                coeff = c * general_binomial(t / 2.0, i)
                if coeff != 0:
                    layers[j].add_term(p, q, t - 2 * i, coeff)
        return layers, m - N

    def leading_sphere_part(self):
        """(order m, restriction to |z|=1 of the top homogeneous layer)."""
        if not self.terms:
            raise ValueError("zero symbol has no leading part")
        layers, _ = self.homogeneous_expansion(1)
        return self.order(), layers[0].restrict_sphere()

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"c": [c.real, c.imag], "p": list(p), "q": list(q), "t": t}
                for (p, q, t), c in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RadialSymbol":
        n = int(data["n"])
        terms = {}
        for item in data["terms"]:
            c = complex(item["c"][0], item["c"][1])
            p = tuple(int(x) for x in item["p"])
            q = tuple(int(x) for x in item["q"])
            t = float(item["t"])
            key = (p, q, _tkey(t))
            terms[key] = terms.get(key, 0.0) + c
        return cls(n, terms)

    def __repr__(self):
        if not self.terms:
            return f"RadialSymbol(n={self.n}, 0)"
        bits = []
        for (p, q, t), c in sorted(self.terms.items()):
            bits.append(f"{c:+.6g}*z^{list(p)}*zb^{list(q)}*w^{t:g}")
        return f"RadialSymbol(n={self.n}, {' '.join(bits)})"


class HomogeneousSymbol:
    """Finite sum of terms c * z^p * conj(z)^q * |z|^s, all of one common
    homogeneity degree |p|+|q|+s, defined for |z| > 0."""

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n: int, deg: float, terms=None):
        self.n = n
        self.degree = float(deg)
        self.terms = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for (p, q, s), c in items:
                self.add_term(p, q, s, c)

    def add_term(self, p, q, s, c):
        if c == 0:
            return
        p, q, s = tuple(p), tuple(q), _tkey(s)
        if abs(degree(p) + degree(q) + s - self.degree) > 1e-8:
            raise ValueError("term degree does not match layer degree")
        key = (p, q, s)
        c0 = self.terms.get(key, 0.0) + complex(c)
        if c0 == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = c0

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if self.n != other.n or (self.terms and other.terms
                                 and abs(self.degree - other.degree) > 1e-8):
            raise ValueError("incompatible layers")
        deg = self.degree if self.terms else other.degree
        out = HomogeneousSymbol(self.n, deg, dict(self.terms))
        for (p, q, s), c in other.terms.items():
            out.add_term(p, q, s, c)
        return out

    def __mul__(self, scalar):
        return HomogeneousSymbol(
            self.n, self.degree,
            {k: c * scalar for k, c in self.terms.items()})

    __rmul__ = __mul__

    def wirtinger(self, j: int, kind: str):
        """Derivative rule with d|z|^s = (s/2) conj(z)_j |z|^(s-2); degree
        drops by exactly one."""
        e = unit_index(self.n, j)
        out = HomogeneousSymbol(self.n, self.degree - 1)
        for (p, q, s), c in self.terms.items():
            if kind == "holo":
                if p[j - 1] > 0:
                    out.add_term(mi_sub(p, e), q, s, c * p[j - 1])
                if s != 0:
                    out.add_term(p, mi_add(q, e), s - 2, c * s / 2.0)
            elif kind == "anti":
                if q[j - 1] > 0:
                    out.add_term(p, mi_sub(q, e), s, c * q[j - 1])
                if s != 0:
                    out.add_term(mi_add(p, e), q, s - 2, c * s / 2.0)
            else:
                raise ValueError("kind must be 'holo' or 'anti'")
        return out

    def laplacian(self):
        out = HomogeneousSymbol(self.n, self.degree - 2)
        for j in range(1, self.n + 1):
            out = out + self.wirtinger(j, "holo").wirtinger(j, "anti")
        return 4.0 * out

    def evaluate(self, z) -> complex:
        z = np.asarray(z, dtype=complex)
        r = float(np.sqrt(np.sum(np.abs(z) ** 2)))
        if r == 0:
            raise ValueError("homogeneous symbols are singular at the origin")
        out = 0.0 + 0.0j
        for (p, q, s), c in self.terms.items():
            val = c * r**s
            for i in range(self.n):
                if p[i]:
                    val *= z[i] ** p[i]
                if q[i]:
                    val *= np.conj(z[i]) ** q[i]
            out += val
        return complex(out)

    def restrict_sphere(self) -> SpherePolynomial:
        """Set |z| = 1, forgetting the radial factor."""
        out = {}
        for (p, q, _s), c in self.terms.items():
            out[(p, q)] = out.get((p, q), 0.0) + c
        return SpherePolynomial(self.n, out)

    def __repr__(self):
        if not self.terms:
            return f"HomogeneousSymbol(n={self.n}, deg={self.degree:g}, 0)"
        bits = []
        for (p, q, s), c in sorted(self.terms.items()):
            bits.append(f"{c:+.6g}*z^{list(p)}*zb^{list(q)}*r^{s:g}")
        return f"HomogeneousSymbol(n={self.n}, deg={self.degree:g}, {' '.join(bits)})"
