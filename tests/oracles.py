"""Reference values for the tests: monomial norms, and the radial moments

    integral_0^inf u^d (1+u)^(t/2) e^(-gamma u) du

by quadrature, independently of the recurrences behind
`focktrace.fock_matrices.scaled_moment_row`.
"""

import math

import mpmath as mp
import numpy as np
from scipy import integrate

from focktrace.core import degree, mi_factorial


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
