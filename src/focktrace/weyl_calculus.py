"""Symbolic composition calculus for polynomial symbols on C^n: the star
product of operator composition, the Gaussian heat transform linking the two
quantizations, its layer-by-layer form on decaying symbols, and the leading
symbol of a Hankel product.

The Gaussian weight parameter gamma > 0 is passed explicitly; the composition
parameter is tied to it throughout (no independent rescaling is representable).
"""

from __future__ import annotations

import math

import numpy as np

from .core import enumerate_basis, mi_add, mi_factorial, mi_sub
from .symbols import HomogeneousSymbol, RadialSymbol


def _require_polynomial(a: RadialSymbol, what: str):
    if not a.is_polynomial():
        raise ValueError(f"{what} requires a pure polynomial symbol (all t = 0)")


def _falling(p, alpha) -> float:
    """p!/(p-alpha)! componentwise; 0 when alpha exceeds p somewhere."""
    out = 1.0
    for a, b in zip(p, alpha):
        if b > a:
            return 0.0
        for l in range(b):
            out *= a - l
    return out


def _deriv_terms(a: RadialSymbol, alpha, beta) -> dict:
    """The terms {(p, q, 0.0): c} of `poly_deriv(a, alpha, beta)`, each
    coefficient rounded as the RadialSymbol constructor leaves it."""
    out = {}
    for (p, q, _t), c in a.terms.items():
        f1 = _falling(p, alpha)
        if f1 == 0.0:
            continue
        f2 = _falling(q, beta)
        if f2 == 0.0:
            continue
        # 0.0 + c is the constructor's rounding (it turns a -0.0 part into
        # +0.0); the keys are distinct, so nothing else is summed here
        c = 0.0 + c * f1 * f2
        if c != 0:
            out[(mi_sub(p, alpha), mi_sub(q, beta), 0.0)] = c
    return out


def poly_deriv(a: RadialSymbol, alpha, beta) -> RadialSymbol:
    """d^alpha/dz^alpha d^beta/dconj(z)^beta of a polynomial symbol."""
    _require_polynomial(a, "poly_deriv")
    return RadialSymbol(a.n, _deriv_terms(a, alpha, beta))


def _zdeg(a: RadialSymbol) -> int:
    return max((sum(p) for (p, _q, _t) in a.terms), default=0)


def _zbardeg(a: RadialSymbol) -> int:
    return max((sum(q) for (_p, q, _t) in a.terms), default=0)


def star(a: RadialSymbol, b: RadialSymbol, gamma: float) -> RadialSymbol:
    """Star product of polynomial symbols: the symbol of the composition of
    their quantized operators,

        sum_{alpha,beta} (-1)^|beta| / (alpha! beta! (-2 gamma)^(|alpha|+|beta|))
            * d^alpha dbar^beta a * d^beta dbar^alpha b.

    The sum is finite on polynomials; 1 is a two-sided unit.

    Each (alpha, beta) product is formed and scaled on plain dicts, rounded
    at every step as the RadialSymbol arithmetic would round it, and summed
    into one accumulator that drops a key whose sum is exactly zero and so
    is already the result's stored form, taken without a second check; the
    result is bit for bit, key order included, the sum of RadialSymbols
    `out + coeff * (poly_deriv(a, alpha, beta) * poly_deriv(b, beta, alpha))`
    over the pairs in graded order.
    """
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    _require_polynomial(a, "star")
    _require_polynomial(b, "star")
    n = a.n
    alphas = enumerate_basis(n, min(_zdeg(a), _zbardeg(b)))
    betas = enumerate_basis(n, min(_zbardeg(a), _zdeg(b)))
    out = {}
    for alpha in alphas:
        ka, fa = sum(alpha), mi_factorial(alpha)
        for beta in betas:
            da = _deriv_terms(a, alpha, beta)
            if not da:
                continue
            db = _deriv_terms(b, beta, alpha)
            if not db:
                continue
            kb = sum(beta)
            coeff = (-1.0) ** kb / (
                fa * mi_factorial(beta) * (-2.0 * gamma) ** (ka + kb))
            prod = {}
            for (p1, q1, _), c1 in da.items():
                for (p2, q2, _), c2 in db.items():
                    key = (mi_add(p1, p2), mi_add(q1, q2), 0.0)
                    prod[key] = prod.get(key, 0.0) + c1 * c2
            for key, c in prod.items():
                # the rounding of da * db, then of coeff * (da * db)
                if c == 0:
                    continue
                c = (0.0 + c) * coeff
                if c == 0:
                    continue
                c = out.get(key, 0.0) + (0.0 + c)
                if c == 0:
                    out.pop(key, None)
                else:
                    out[key] = c
    return a._new(out)


def heat_transform(a: RadialSymbol, gamma: float) -> RadialSymbol:
    """Heat flow at time 1/(8 gamma) applied to a polynomial symbol:
    sum_l Laplacian^l a / (l! (8 gamma)^l), a finite sum."""
    _require_polynomial(a, "heat_transform")
    out = RadialSymbol(a.n)
    term = a
    l = 0
    while not term.is_zero():
        out = out + (1.0 / (math.factorial(l) * (8.0 * gamma) ** l)) * term
        term = term.laplacian()
        l += 1
    return out


def heat_inverse(a: RadialSymbol, gamma: float) -> RadialSymbol:
    """Inverse of `heat_transform` on polynomials: the same flow run
    backward, sum_l Laplacian^l a / (l! (-8 gamma)^l);
    heat_inverse(heat_transform(a)) == a exactly."""
    return heat_transform(a, -gamma)


def heat_layers(S: RadialSymbol, N: int, gamma: float):
    """First N homogeneous layers of the heat transform of a decaying symbol.

    Layer k collects Laplacian^l / (l! (8 gamma)^l) applied to the symbol
    layer of degree (order - j), over j + 2l = k; it is homogeneous of degree
    order - k.  The heat transform minus the sum of the N layers is
    O(|z|^(order - N)); it decays faster when omitted layers vanish (for
    (1+|z|^2)^(-1) the odd layers do, so the remainder after N layers has
    degree -2 - 2*ceil(N/2)).  Positive-order symbols are rejected.
    """
    m = S.order()
    if m > 0:
        raise ValueError("heat_layers requires a symbol of order <= 0")
    sym_layers, _ = S.homogeneous_expansion(N)
    out = []
    for k in range(N):
        layer = HomogeneousSymbol(S.n, m - k)
        for l in range(0, k // 2 + 1):
            j = k - 2 * l
            term = sym_layers[j]
            for _ in range(l):
                term = term.laplacian()
            layer = layer + (1.0 / (math.factorial(l) * (8.0 * gamma) ** l)) * term
        out.append(layer)
    return out


def hankel_leading_symbol(f: RadialSymbol, g: RadialSymbol, gamma: float) -> RadialSymbol:
    """Leading symbol of the Hankel product pairing f against g:
    (1/gamma) sum_j d/dz_j conj(f) * d/dconj(z_j) g.

    Both symbols must have order <= 0; the result has order at most
    order(f) + order(g) - 2.
    """
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    if f.order() > 0 or g.order() > 0:
        raise ValueError("hankel_leading_symbol requires orders <= 0")
    fbar = f.conj()
    out = RadialSymbol(f.n)
    for j in range(1, f.n + 1):
        out = out + fbar.wirtinger(j, "holo") * g.wirtinger(j, "anti")
    return (1.0 / gamma) * out


def heat_quadrature(S: RadialSymbol, z: complex, gamma: float, nodes: int = 80) -> complex:
    """Numeric heat transform by Gauss-Hermite product quadrature (n = 1):

        (2 gamma / pi) * integral S(z + u) exp(-2 gamma |u|^2) du over C.

    Serves as the independent oracle for `heat_transform`/`heat_layers`.
    """
    if S.n != 1:
        raise NotImplementedError("quadrature oracle implemented for n = 1 only")
    s, w = np.polynomial.hermite.hermgauss(nodes)
    scale = 1.0 / math.sqrt(2.0 * gamma)
    U = scale * (s[:, None] + 1j * s[None, :])
    Z = complex(z) + U
    r2 = np.abs(Z) ** 2
    vals = np.zeros_like(Z)
    for (p, q, t), c in S.terms.items():
        term = c * (1.0 + r2) ** (t / 2.0)
        if p[0]:
            term = term * Z ** p[0]
        if q[0]:
            term = term * np.conj(Z) ** q[0]
        vals = vals + term
    total = np.einsum("i,j,ij->", w, w, vals)
    return complex(total / math.pi)
