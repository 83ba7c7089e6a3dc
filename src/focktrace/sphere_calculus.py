"""Tangential differential calculus on the unit sphere of C^n.

The operators act on `SpherePolynomial` data through closed-form monomial
rules, derived by extending zeta^p conj(zeta)^q to the degree-0 homogeneous
function z^p conj(z)^q |z|^(-|p|-|q|) and restricting the ambient derivative
back to the sphere.  `tangential_dbar` is `tangential_d` conjugated on both
sides, and each rule builds its result in the stored form of `core.TermSum`
directly.  The boundary form of a Hankel-type product has one
implementation, `boundary_pairing`; `tangential_bracket` is its case of
orders 0.  Finite differences are used only in tests.
"""

from __future__ import annotations

import numpy as np

from .core import SpherePolynomial, degree, mi_add, mi_sub, unit_index
from .symbols import RadialSymbol


class ConvergenceError(RuntimeError):
    """Raised when a radial-limit sequence fails its Cauchy check."""


def reeb(P: SpherePolynomial) -> SpherePolynomial:
    """Reeb field (anti-holomorphic minus holomorphic radial parts, halved):
    multiplier (|q|-|p|)/2 on each monomial.  On degree-0 extensions it is the
    anti-holomorphic radial derivative, and minus the holomorphic one."""
    return P._from_sums({(p, q): c * (degree(q) - degree(p)) / 2.0
                         for (p, q), c in P.terms.items()})


def tangential_d(j: int, P: SpherePolynomial) -> SpherePolynomial:
    """Tangential part of d/dz_j:
    zeta^p conj(zeta)^q -> p_j zeta^(p-e_j) conj(zeta)^q
                           - |p| zeta^p conj(zeta)^(q+e_j)."""
    if not 1 <= j <= P.n:
        raise ValueError("coordinate index out of range")
    e = unit_index(P.n, j)
    sums = {}
    for (p, q), c in P.terms.items():
        if p[j - 1] > 0:
            key = (mi_sub(p, e), q)
            sums[key] = sums.get(key, 0.0) + c * p[j - 1]
        dp = degree(p)
        if dp:
            key = (p, mi_add(q, e))
            sums[key] = sums.get(key, 0.0) + -c * dp
    return P._from_sums(sums)


def tangential_dbar(j: int, P: SpherePolynomial) -> SpherePolynomial:
    """Tangential part of d/dconj(z_j), the mirror of `tangential_d`:
    zeta^p conj(zeta)^q -> q_j zeta^p conj(zeta)^(q-e_j)
                           - |q| zeta^(p+e_j) conj(zeta)^q."""
    return tangential_d(j, P.conj()).conj()


def tangential_bracket(phi: SpherePolynomial, psi: SpherePolynomial) -> SpherePolynomial:
    """sum_j tangential_d(j, phi) * tangential_dbar(j, psi)
    - reeb(phi) * reeb(psi): the boundary form of orders 0,
    boundary_pairing(conj(phi), 0, psi, 0)."""
    return boundary_pairing(phi.conj(), 0, psi, 0)


def sphere_laplacian(P: SpherePolynomial) -> SpherePolynomial:
    """Quarter of the intrinsic sphere Laplacian, assembled from the
    tangential fields:

        (1/2) sum_j (tangential_d . tangential_dbar
                     + tangential_dbar . tangential_d) - reeb^2.

    The symmetrization matters: the one-sided composition
    sum_j tangential_d(j, tangential_dbar(j, .)) - reeb^2 differs from this
    by the first-order term -(n-1) reeb, so it only agrees for n = 1.  The
    symmetrized form equals a quarter of the ambient Laplacian applied to
    the degree-0 homogeneous extension and restricted back (the normal
    second derivative drops on such extensions).
    """
    out = SpherePolynomial(P.n)
    for j in range(1, P.n + 1):
        out = out + 0.5 * (tangential_d(j, tangential_dbar(j, P))
                           + tangential_dbar(j, tangential_d(j, P)))
    return out - reeb(reeb(P))


def boundary_pairing(f_lead: SpherePolynomial, m: int,
                     g_lead: SpherePolynomial, k: int) -> SpherePolynomial:
    """Leading boundary form of a Hankel-type product, from leading sphere
    parts f_lead (symbol decaying like |z|^-m) and g_lead (like |z|^-k):

        (m/2 + E) conj(f_lead) * (k/2 - E) g_lead
        + sum_j tangential_d(j, conj(f_lead)) * tangential_dbar(j, g_lead)

    The first slot is conjugated; at m = k = 0 it is
    `tangential_bracket(conj(f_lead), g_lead)`, the bracket's one
    implementation.
    """
    if f_lead.n != g_lead.n:
        raise ValueError("dimension mismatch")
    if m < 0 or k < 0:
        raise ValueError("orders m, k must be nonnegative")
    fb = f_lead.conj()
    left = (m / 2.0) * fb + reeb(fb)
    right = (k / 2.0) * g_lead - reeb(g_lead)
    out = left * right
    for j in range(1, f_lead.n + 1):
        out = out + tangential_d(j, fb) * tangential_dbar(j, g_lead)
    return out


def boundary_pairing_limit(f: RadialSymbol, g: RadialSymbol, points,
                           exponent: int) -> list:
    """Radial limits of r^exponent * sum_j (d/dz_j conj(f))(r zeta) *
    (d/dconj(z_j) g)(r zeta), evaluated exactly from the symbol derivative
    algebra at r = 1e2 and 1e3, for each point zeta of a (count, n) array of
    points on the unit sphere (1e-12), as a list of complex in that order.
    The derivatives are built once for all points; a wrong shape or a point
    off the sphere is refused (ValueError) before any point is evaluated.

    Supported-class symbols carry O(r^-2) corrections, so the two values
    agree to ~1e-4 of the correction size; a gap above 1e-3 (1 + |v|), as
    from a wrong exponent, raises ConvergenceError.  The limit is the
    two-point Richardson value in x = r^-2, which removes the O(r^-2) bias.
    """
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    points = np.asarray(points, dtype=complex)
    if points.ndim != 2 or points.shape[1] != f.n:
        raise ValueError(f"need a (count, {f.n}) array of points, "
                         f"got shape {points.shape}")
    if np.any(np.abs(np.sum(np.abs(points) ** 2, axis=1) - 1.0) > 1e-12):
        raise ValueError("zeta must lie on the unit sphere")
    fbar = f.conj()
    dfs = [fbar.wirtinger(j, "holo") for j in range(1, f.n + 1)]
    dgs = [g.wirtinger(j, "anti") for j in range(1, f.n + 1)]
    x0, x1 = 1e2**-2, 1e3**-2
    limits = []
    for point in points:
        values = []
        for r in (1e2, 1e3):
            z = r * point
            acc = sum(df.evaluate(z) * dg.evaluate(z) for df, dg in zip(dfs, dgs))
            values.append(complex(r**exponent * acc))
        v0, v1 = values
        gap = abs(v1 - v0)
        if gap > 1e-3 * (1.0 + abs(v1)):
            raise ConvergenceError(
                f"radial limit not Cauchy: |v1-v0| = {gap:.3e} at radii 1e2, 1e3")
        limits.append((x0 * v1 - x1 * v0) / (x0 - x1))
    return limits
