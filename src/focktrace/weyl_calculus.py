"""Symbolic composition calculus for polynomial symbols on C^n: the star
product of operator composition, the Gaussian heat transform linking the two
quantizations, its layer-by-layer form on decaying symbols, and the leading
symbol of a Hankel product.

The Gaussian weight parameter gamma > 0 is passed explicitly; the composition
parameter is tied to it throughout (no independent rescaling is representable).
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .core import mi_factorial
from .symbols import HomogeneousSymbol, RadialSymbol


def _require_polynomial(a: RadialSymbol, what: str):
    if not a.is_polynomial():
        raise ValueError(f"{what} requires a pure polynomial symbol (all t = 0)")


def _require_gamma(gamma, what: str):
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"{what} needs gamma finite and > 0, got {gamma!r}")


def _max_exponents(a: RadialSymbol):
    """Componentwise maxima of the p and of the q of a's terms."""
    zero = (0,) * a.n
    ps = [p for (p, _q, _t) in a.terms] or [zero]
    qs = [q for (_p, q, _t) in a.terms] or [zero]
    return [max(col) for col in zip(*ps)], [max(col) for col in zip(*qs)]


def _graded(alpha):
    """Sort key of the graded order of `enumerate_basis`."""
    return sum(alpha), [-x for x in alpha]


def _fallings(p, cap, weights):
    """(alpha, p!/(p-alpha)!, sum_i alpha_i weights_i) for every alpha <= p
    and <= cap componentwise; each ratio is the float product of the
    factors p_i - l, over i and then l in increasing order."""
    out = [((), 1.0, 0)]
    for a, m, w in zip(p, cap, weights):
        nxt = []
        for alpha, f, off in out:
            nxt.append((alpha + (0,), f, off))
            for l in range(min(a, m)):
                f *= a - l
                off += w
                nxt.append((alpha + (l + 1,), f, off))
        out = nxt
    return out


def _deriv_table(a: RadialSymbol, cap_p, cap_q, wp, wq) -> dict:
    """{(u, v): [(packed key, coefficient)]}: the terms of d^u dbar^v a for
    every u <= cap_p and v <= cap_q componentwise that leaves one, in a's
    term order, each coefficient 0.0 + c * f1 * f2 (the falling factorials
    of `_fallings`) as the RadialSymbol constructor rounds it; (p, q) is
    packed as sum_i p_i wp_i + q_i wq_i.  Each exponent's fallings are
    built once per table."""
    table = {}
    falls_p, falls_q = {}, {}
    for (p, q, _t), c in a.terms.items():
        us = falls_p.get(p)
        if us is None:
            us = falls_p[p] = _fallings(p, cap_p, wp)
        vs = falls_q.get(q)
        if vs is None:
            vs = falls_q[q] = _fallings(q, cap_q, wq)
        key = sum(map(operator.mul, p, wp)) + sum(map(operator.mul, q, wq))
        for u, f1, o1 in us:
            cf, k1 = c * f1, key - o1
            for v, f2, o2 in vs:
                d = 0.0 + cf * f2
                if d != 0:
                    table.setdefault((u, v), []).append((k1 - o2, d))
    return table


def _packing(n: int, base: int):
    """The weights wp, wq packing (p, q) as sum_i p_i base^i + q_i base^(n+i)."""
    return [base**i for i in range(n)], [base**(n + i) for i in range(n)]


def _digits(x: int, n: int, base: int):
    """The n lowest digits of x in base `base`, lowest first."""
    out = []
    for _ in range(n):
        x, d = divmod(x, base)
        out.append(d)
    return tuple(out)


def star(a: RadialSymbol, b: RadialSymbol, gamma: float) -> RadialSymbol:
    """Star product of polynomial symbols: the symbol of the composition of
    their quantized operators,

        sum_{alpha,beta} (-1)^|beta| / (alpha! beta! (-2 gamma)^(|alpha|+|beta|))
            * d^alpha dbar^beta a * d^beta dbar^alpha b.

    The sum is finite on polynomials; 1 is a two-sided unit.  gamma must be
    finite and > 0 (ValueError).

    Each operand's derivatives come from one table per call, {(u, v):
    terms}, built term by term over u <= p and v <= q only.  A pair needs a
    term of b with q >= alpha and p >= beta, so a's table caps alpha by b's
    componentwise maximum of q and beta by that of p; b's table, keyed
    (beta, alpha), caps beta by a's maximum of q and alpha by that of p.
    Only the pairs in both tables are visited, in graded order (alpha, then
    beta, each ordered as `enumerate_basis` orders them).  Keys (p, q) are
    packed as integers in base B = 2E + 1, E the largest exponent of either
    operand: a product's exponents are at most 2E < B, so adding two packed
    keys never carries and adds the exponents; keys are decoded once at the
    end, each distinct half (p or q) once.

    Each pair's product is formed and scaled on plain dicts, rounded at
    every step as the RadialSymbol arithmetic would round it, and summed
    into one accumulator that drops a key whose sum is exactly zero; the
    result is bit for bit, key order included, the sum of RadialSymbols
    `out + coeff * (d^alpha dbar^beta a * d^beta dbar^alpha b)` over the
    pairs in graded order, each derivative the RadialSymbol of its table
    entry.
    """
    _require_gamma(gamma, "star")
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    _require_polynomial(a, "star")
    _require_polynomial(b, "star")
    n = a.n
    max_pa, max_qa = _max_exponents(a)
    max_pb, max_qb = _max_exponents(b)
    base = 2 * max(max_pa + max_qa + max_pb + max_qb) + 1
    wp, wq = _packing(n, base)
    ta = _deriv_table(a, max_qb, max_pb, wp, wq)
    tb = _deriv_table(b, max_qa, max_pa, wp, wq)
    pairs = sorted((pair for pair in ta if pair[::-1] in tb),
                   key=lambda pair: (_graded(pair[0]), _graded(pair[1])))
    out = {}
    for alpha, beta in pairs:
        da, db = ta[alpha, beta], tb[beta, alpha]
        ka, kb = sum(alpha), sum(beta)
        coeff = (-1.0) ** kb / (mi_factorial(alpha) * mi_factorial(beta)
                                * (-2.0 * gamma) ** (ka + kb))
        prod = {}
        for k1, c1 in da:
            for k2, c2 in db:
                key = k1 + k2
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
    # decode each key's halves, q * B^n + p, each distinct half once
    splits = [divmod(key, base**n) for key in out]
    halves = {x for pair in splits for x in pair}
    digits = {x: _digits(x, n, base) for x in halves}
    return a._new({(digits[p], digits[q], 0.0): c
                   for (q, p), c in zip(splits, out.values())})


def _heat_series(a: RadialSymbol, t: float) -> RadialSymbol:
    """sum_l Laplacian^l a / (l! (8 t)^l), a finite sum on polynomials."""
    out = RadialSymbol(a.n)
    term = a
    l = 0
    while not term.is_zero():
        out = out + (1.0 / (math.factorial(l) * (8.0 * t) ** l)) * term
        term = term.laplacian()
        l += 1
    return out


def heat_transform(a: RadialSymbol, gamma: float) -> RadialSymbol:
    """Heat flow at time 1/(8 gamma) applied to a polynomial symbol:
    sum_l Laplacian^l a / (l! (8 gamma)^l), a finite sum.  gamma must be
    finite and > 0 (ValueError)."""
    _require_gamma(gamma, "heat_transform")
    _require_polynomial(a, "heat_transform")
    return _heat_series(a, gamma)


def heat_inverse(a: RadialSymbol, gamma: float) -> RadialSymbol:
    """Inverse of `heat_transform` on polynomials: the same flow run
    backward, sum_l Laplacian^l a / (l! (-8 gamma)^l);
    heat_inverse(heat_transform(a)) == a exactly.  gamma must be finite
    and > 0 (ValueError)."""
    _require_gamma(gamma, "heat_inverse")
    _require_polynomial(a, "heat_inverse")
    return _heat_series(a, -gamma)


def heat_layers(S: RadialSymbol, N: int, gamma: float):
    """First N homogeneous layers of the heat transform of a decaying symbol.

    Layer k collects Laplacian^l / (l! (8 gamma)^l) applied to the symbol
    layer of degree (order - j), over j + 2l = k; it is homogeneous of degree
    order - k.  The heat transform minus the sum of the N layers is
    O(|z|^(order - N)); it decays faster when omitted layers vanish (for
    (1+|z|^2)^(-1) the odd layers do, so the remainder after N layers has
    degree -2 - 2*ceil(N/2)).  Positive-order symbols, and a gamma that is
    not finite and > 0, are rejected (ValueError).
    """
    _require_gamma(gamma, "heat_layers")
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

    Both symbols must have order <= 0, and gamma finite and > 0
    (ValueError); the result has order at most order(f) + order(g) - 2.
    """
    _require_gamma(gamma, "hankel_leading_symbol")
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    if f.order() > 0 or g.order() > 0:
        raise ValueError("hankel_leading_symbol requires orders <= 0")
    fbar = f.conj()
    out = RadialSymbol(f.n)
    for j in range(1, f.n + 1):
        out = out + fbar.wirtinger(j, "holo") * g.wirtinger(j, "anti")
    return (1.0 / gamma) * out


@functools.cache
def _hermite_rule(nodes: int):
    """The Gauss-Hermite nodes and weights of `nodes` points, computed once
    per node count and read-only, since every caller shares them."""
    rule = np.polynomial.hermite.hermgauss(nodes)
    for a in rule:
        a.flags.writeable = False
    return rule


def heat_quadrature(S: RadialSymbol, z: complex, gamma: float, nodes: int) -> complex:
    """Numeric heat transform by Gauss-Hermite product quadrature (n = 1):

        (2 gamma / pi) * integral S(z + u) exp(-2 gamma |u|^2) du over C.

    Serves as the independent oracle for `heat_transform`/`heat_layers`.
    """
    if S.n != 1:
        raise NotImplementedError("quadrature oracle implemented for n = 1 only")
    s, w = _hermite_rule(nodes)
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
