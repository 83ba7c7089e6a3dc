"""Bit-identity digests of the diagonal spectral path.

For each of 23 diagonal configurations, at gamma in {0.7, 1, 2} and two
cutoffs each, hashes with SHA-256 what `spectral._diagonal_values` returns
(the values, the start of each degree and the multiplicities) and what
`spectral.diagonal_spectrum` returns (the sorted values and their
multiplicities, `certified_rank` and `signed`).  A configuration that is
refused is hashed by its error's type and message.  Prints one digest per
configuration and the digest of all of them, `total`.

The configurations are n = 1: model, hankel, commutator, toeplitz chain,
hankel^3, complex hankel, complex commutator^2, t = -3 hankel, three
chains, t = 3 toeplitz and lowering; n = 2: radial, radial^2, hankel,
commutator, mixed (the hankel-toeplitz default case), hankel^2, complex
hankel^3, z2 hankel, lowering and two-coords; n = 3: toeplitz and
hankel^3.  The lowering chains apply z-bar^2 first, so later factors read
their rows below the degree of alpha, below the row window at the first
degrees; n2-lowering also has a factor of two terms, one with a real
coefficient other than 1, and n2-two-coords has terms that read both
coordinates.  The cutoffs cross a block boundary of each path
(`_DEGREES` degrees when radial, `_BLOCK` values otherwise) and the
serial head of the moment rows.

With --against DIR, DIR holding another focktrace package (say a
checkout's src/), the digests are computed from that package in a
subprocess, by that checkout's own script, DIR/../benchmarks/hash_spectra.py,
when it has one (its configurations are built through its own API), and by
this script otherwise; every configuration whose digest differs is listed,
and the exit code is 1 if any does, else 0.  focktrace is imported from
PYTHONPATH.

Run:  PYTHONPATH=src python benchmarks/hash_spectra.py [--against ../parent/src]
"""

import argparse
import hashlib
import os
import subprocess
import sys

import numpy as np

from focktrace.fock_matrices import FockContext
from focktrace.spectral import (DiagonalChain, DiagonalConfig, _diagonal_values,
                                commutator_config, diagonal_spectrum,
                                hankel_config, toeplitz_config)
from focktrace.symbols import RadialSymbol

GAMMAS = (0.7, 1.0, 2.0)
# two cutoffs per dimension, one inside the first block and one past it: n = 1
# across the 8192-degree radial block (9001 values), n = 2 and 3 across the
# 16384-value per-multi-index block (80,601 and 76,076 values)
CUTOFFS = {1: (3000, 9000), 2: (60, 400), 3: (20, 75)}


def configurations():
    """{name: DiagonalConfig} of the 23 hashed configurations."""
    def z(n, j=1, conj=False):
        return RadialSymbol.coordinate(n, j, conjugated=conj)

    def w(n, t):
        return RadialSymbol.radial_power(n, t)

    c = 0.6 + 0.8j
    f1, u = z(1) * w(1, -1.0), w(1, -1.0)
    fb1 = z(1, conj=True) * w(1, -1.0)
    f2, f3 = z(2) * w(2, -1.0), z(3) * w(3, -1.0)
    g2 = z(2) * w(2, -2.0)
    zb1, zb2, z22 = z(2, conj=True), z(2, 2, conj=True), z(2, 2)
    return {
        "n1-model": toeplitz_config(w(1, -2.0)),
        "n1-hankel": hankel_config(f1, f1),
        "n1-commutator": commutator_config(f1, fb1),
        "n1-toeplitz-chain": DiagonalConfig([DiagonalChain(1.0, [u, u])]),
        "n1-hankel^3": hankel_config(f1, f1) ** 3,
        "n1-complex-hankel": hankel_config(c * f1, c * f1),
        "n1-complex-commutator^2": commutator_config(c * f1, (c * f1).conj()) ** 2,
        "n1-t=-3-hankel": hankel_config(z(1) * w(1, -3.0), z(1) * w(1, -3.0)),
        "n1-three-chains": DiagonalConfig([
            DiagonalChain(1.0, [u, u]), DiagonalChain(-0.5, [w(1, -2.0)]),
            DiagonalChain(2.0, [f1.conj(), f1])]),
        "n1-t=3-toeplitz": toeplitz_config(w(1, 3.0)),
        "n1-lowering": DiagonalConfig([DiagonalChain(1.0, [
            z(1) * z(1) * w(1, -2.0), w(1, -2.0),
            z(1, conj=True) * z(1, conj=True) * w(1, -1.0)])]),
        "n2-radial": toeplitz_config(w(2, -4.0)),
        "n2-radial^2": toeplitz_config(w(2, -4.0)) ** 2,
        "n2-hankel": hankel_config(f2, f2),
        "n2-commutator": commutator_config(f2, z(2, conj=True) * w(2, -1.0)),
        "n2-mixed": (hankel_config(g2, g2)
                     * toeplitz_config(z(2) * z(2, conj=True) * w(2, -2.0))),
        "n2-hankel^2": hankel_config(f2, f2) ** 2,
        "n2-complex-hankel^3": hankel_config(c * f2, c * f2) ** 3,
        "n2-z2-hankel": hankel_config(z(2, 2) * w(2, -1.0), z(2, 2) * w(2, -1.0)),
        "n2-lowering": DiagonalConfig([DiagonalChain(1.0, [
            z(2) * z(2) * w(2, -2.0), w(2, -2.0) + 0.5 * z22 * zb2 * w(2, -4.0),
            zb1 * zb1 * w(2, -1.0)])]),
        "n2-two-coords": DiagonalConfig([
            DiagonalChain(1.0, [zb1 * z22 * w(2, -2.0), z(2) * zb2 * w(2, -2.0)]),
            DiagonalChain(-0.3, [z(2) * zb1 * z22 * zb2 * w(2, -6.0)])]),
        "n3-toeplitz": toeplitz_config(z(3) * z(3, conj=True) * w(3, -8.0)),
        "n3-hankel^3": hankel_config(f3, f3) ** 3,
    }


def _update(h, *arrays):
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())


def digest(config) -> str:
    h = hashlib.sha256()
    for gamma in GAMMAS:
        ctx = FockContext(config.n, gamma)
        for K in CUTOFFS[config.n]:
            h.update(f"gamma={gamma!r} K={K}".encode())
            try:
                vals, starts, mults = _diagonal_values(ctx, config, K)
                _update(h, vals, np.asarray(starts, dtype=np.int64))
                if mults is None:
                    h.update(b"mults=None")
                else:
                    _update(h, mults)
                seq = diagonal_spectrum(ctx, config, K)
                _update(h, seq.values, seq.mults)
                h.update(f"{seq.certified_rank!r} {seq.signed!r}".encode())
            except ValueError as exc:
                h.update(f"{type(exc).__name__}: {exc}".encode())
    return h.hexdigest()


def digests() -> dict:
    out = {name: digest(config) for name, config in configurations().items()}
    out["total"] = hashlib.sha256("".join(out.values()).encode()).hexdigest()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="DIR",
                        help="compare with the focktrace package in DIR")
    args = parser.parse_args(argv)
    ours = digests()
    for name, d in ours.items():
        print(f"{d}  {name}")
    if args.against is None:
        return 0
    against = os.path.abspath(args.against)
    script = os.path.join(os.path.dirname(against), "benchmarks", "hash_spectra.py")
    if not os.path.exists(script):
        script = os.path.abspath(__file__)
    env = dict(os.environ, PYTHONPATH=against)
    out = subprocess.run([sys.executable, script], env=env,
                         check=True, capture_output=True, text=True).stdout
    theirs = {name: d for d, name in (line.split("  ", 1) for line in out.splitlines())}
    differ = [name for name in ours if theirs.get(name) != ours[name]]
    for name in differ:
        print(f"differs from {args.against}: {name}")
    if not differ:
        print(f"every digest equals {args.against}'s")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
