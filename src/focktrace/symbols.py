"""Concrete symbol algebra: finite sums  c * z^p * conj(z)^q * (1+|z|^2)^(t/2).

This class of functions is smooth on all of C^n, exactly integrable against
Gaussians, closed under Wirtinger derivatives, products and conjugation, and
carries an asymptotic expansion into layers homogeneous of decreasing degree
at infinity.  `HomogeneousSymbol` represents one such layer,
c * z^p * conj(z)^q * |z|^s, valid away from the origin.  Both are
`core.TermSum`s keyed (p, q, t), whose arithmetic they share; they add the
radial factor, one Wirtinger rule for both factors, the layer expansion, the
restriction to the sphere and the JSON format.
"""

from __future__ import annotations

import math

from .core import (SpherePolynomial, TermSum, _tkey, degree, mi_add, mi_sub,
                   unit_index)


def json_number(value, whole=False, least=0):
    """A finite JSON number >= least, with whole=True a whole one (64 or 64.0,
    not 64.5) as an int; true, "64" and NaN are refused (ValueError).  The
    one rule for every number of a symbol's JSON form and of a config."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not (math.isfinite(value) and value >= least)
            or whole and value % 1):
        raise ValueError(f"need a finite{' whole' if whole else ''} number "
                         f">= {least}, got {value!r}")
    return int(value) if whole else float(value)


def general_binomial(x: float, i: int) -> float:
    """binomial(x, i) for real x: x(x-1)...(x-i+1)/i!."""
    out = 1.0
    for l in range(i):
        out *= (x - l) / (l + 1)
    return out


class RadialSymbol(TermSum):
    """Finite sum of terms c * z^p * conj(z)^q * (1+|z|^2)^(t/2) on C^n,
    keyed (p, q, t).  The order of the symbol is max over terms of
    |p|+|q|+t."""

    __slots__ = ()
    _radial = "w"

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

    def is_polynomial(self) -> bool:
        return all(t == 0 for (_, _, t) in self.terms)

    def order(self) -> float:
        """max over terms of |p|+|q|+t; -inf for the zero symbol."""
        if not self.terms:
            return -math.inf
        return max(degree(p) + degree(q) + t for (p, q, t) in self.terms)

    def wirtinger(self, j: int, kind: str):
        """Wirtinger derivative d/dz_j ('holo') or d/dconj(z_j) ('anti').

        The radial factor w = (1+|z|^2)^(1/2), or w = |z| in a homogeneous
        layer, follows the one rule d w^t / dz_j = (t/2) conj(z_j) w^(t-2)
        (and its mirror), so a layer's degree drops by exactly one.
        """
        if not 1 <= j <= self.n:
            raise ValueError("coordinate index out of range")
        if kind not in ("holo", "anti"):
            raise ValueError("kind must be 'holo' or 'anti'")
        holo = kind == "holo"
        e = unit_index(self.n, j)
        sums = {}
        for (p, q, t), c in self.terms.items():
            m = p[j - 1] if holo else q[j - 1]
            if m > 0:
                key = (mi_sub(p, e), q, t) if holo else (p, mi_sub(q, e), t)
                sums[key] = sums.get(key, 0.0) + c * m
            if t != 0:
                dc = c * t / 2.0
                if dc != 0:
                    t2 = _tkey(t - 2)
                    key = (p, mi_add(q, e), t2) if holo else (mi_add(p, e), q, t2)
                    sums[key] = sums.get(key, 0.0) + dc
        return self._from_sums(sums, None if self.degree is None else self.degree - 1)

    def laplacian(self):
        """4 * sum_j d/dz_j d/dconj(z_j)."""
        out = self._new({})
        for j in range(1, self.n + 1):
            out = out + self.wirtinger(j, "holo").wirtinger(j, "anti")
        return 4.0 * out

    def _factor(self, r2: float, t: float) -> float:
        return (1.0 + r2) ** (t / 2.0)

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
        """The symbol of a `to_json_dict` object, its numbers read by
        `json_number`: n >= 1 and the exponents whole, c's two parts and t
        any finite numbers."""
        n = json_number(data["n"], whole=True, least=1)
        terms = []
        for item in data["terms"]:
            re, im = (json_number(x, least=-math.inf) for x in item["c"])
            p, q = (tuple(json_number(x, whole=True) for x in item[k])
                    for k in "pq")
            terms.append(((p, q, json_number(item["t"], least=-math.inf)),
                          complex(re, im)))
        return cls(n, terms)


class HomogeneousSymbol(TermSum):
    """Finite sum of terms c * z^p * conj(z)^q * |z|^s, all of one common
    homogeneity degree |p|+|q|+s, defined for |z| > 0; keyed (p, q, s)."""

    __slots__ = ("degree",)
    _radial = "r"

    def __init__(self, n: int, deg: float, terms=None):
        self.degree = float(deg)
        super().__init__(n, terms)

    def add_term(self, p, q, s, c):
        self._add(p, q, [s], c)

    def _key(self, p, q, t):
        key = super()._key(p, q, t)
        if abs(degree(p) + degree(q) + key[2] - self.degree) > 1e-8:
            raise ValueError("term degree does not match layer degree")
        return key

    wirtinger = RadialSymbol.wirtinger
    laplacian = RadialSymbol.laplacian

    def _factor(self, r2: float, s: float) -> float:
        if r2 == 0:
            raise ValueError("homogeneous symbols are singular at the origin")
        return math.sqrt(r2) ** s

    def restrict_sphere(self) -> SpherePolynomial:
        """Set |z| = 1, forgetting the radial factor."""
        out = {}
        for (p, q, _s), c in self.terms.items():
            out[(p, q)] = out.get((p, q), 0.0) + c
        return SpherePolynomial(self.n, out)
