"""Layer timing of the numeric kernels in `focktrace._kernels`, of the
eigenvalue assembly, `spectral._diagonal_values`, and of the dense
assembly, `fock_matrices.toeplitz_matrix`.

Times each kernel once per repeat at one row length, the assembly of the
toeplitz-trace and mixed-trace `hankel-toeplitz` default spectra (n = 2)
at one K_degree, and of the hankel-trace default spectrum (n = 1, one
value per degree) at the row length; each assembly builds its moment rows
too: no row outlives its call.  `partial_sums_at` sums a spectrum with
unit multiplicities as the spectra hold them, a stride-0 view, and one
with multiplicities k + 1.
The dense cases assemble calculus-check's composition-vs-star shape, the
n = 2, D = 8 Weyl matrix of a fixed star product of about 400 terms, and a
three-term n = 1 symbol at D = 2048; their length is the symbol's term count.
Each case runs once to warm up (the d = 0 base moments are kept) and then
REPEATS times; the median and the quartiles of those times are recorded,
since on a shared machine a best-of-few reads differently run to run.
The moment-row kernels and the three assemblies also record `peak_bytes`,
the tracemalloc peak of one more, untimed call: the bytes it allocates,
its result included.
The run is one point, named by --label, of BENCH_kernels.json at the
repository root, with the kernel backend and the machine it ran on; a point
of the same label is replaced, the others are kept.  focktrace is imported
from PYTHONPATH, so two checkouts' src/ give two points.

Run:  PYTHONPATH=src python benchmarks/bench_kernels.py --label after
          [--length 1048576] [--K-degree 2000]
"""

import argparse
import inspect
import json
import os
import platform
import time
import tracemalloc
from pathlib import Path

import numpy as np

from focktrace import _kernels, spectral
from focktrace.cli import _random_sum
from focktrace.fock_matrices import FockContext, toeplitz_matrix
from focktrace.symbols import RadialSymbol
from focktrace.weyl_calculus import heat_inverse, star

ROOT = Path(__file__).resolve().parents[1]


REPEATS = 9


def bench(fn):
    """The first quartile, median and third quartile of REPEATS timed calls
    of fn, after one untimed call."""
    fn()
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return [float(x) for x in np.percentile(samples, [25, 50, 75])]


def traced_peak(fn):
    """The tracemalloc peak, in bytes, of one call of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--label", required=True)
    parser.add_argument("--length", type=int, default=1 << 20)
    parser.add_argument("--K-degree", type=int, default=2000)
    parser.add_argument("--out", default=str(ROOT / "BENCH_kernels.json"))
    args = parser.parse_args()
    L, K = args.length, args.K_degree

    ones = np.ones(L)
    rng = np.random.default_rng(0)
    values = np.sort(rng.random(L))[::-1].copy()
    mults = np.broadcast_to(np.int64(1), (L,))
    ranks = np.array([2**e for e in range(10, int(np.log2(L)) + 1)],
                     dtype=np.int64) - 1
    # n = 2 multiplicities k+1: inexact products, ranks up to the last run
    degree_mults = np.arange(1, L + 1, dtype=np.int64)
    top = int(degree_mults.sum()) - 1
    degree_ranks = np.array([2**e for e in range(10, top.bit_length())]
                            + [top], dtype=np.int64)

    # the n = 2 default spectra of toeplitz-trace and mixed-trace
    z1 = RadialSymbol.coordinate(2, 1)
    z1b = RadialSymbol.coordinate(2, 1, conjugated=True)
    w2 = RadialSymbol.radial_power(2, -2.0)
    toeplitz = spectral.toeplitz_config(
        z1 * z1b * RadialSymbol.radial_power(2, -6.0))
    mixed = (spectral.hankel_config(z1 * w2, z1 * w2)
             * spectral.toeplitz_config(z1 * z1b * w2))
    ctx = FockContext(2, 1.0)
    count = (K + 1) * (K + 2) // 2
    # the n = 1 default spectrum of hankel-trace, one value per degree
    f = RadialSymbol.coordinate(1, 1) * RadialSymbol.radial_power(1, -1.0)
    hankel = spectral.hankel_config(f, f)
    # pair_rows fills the row asked for; one of five parameters fills both
    pair_args = (0.5, 1.2, 0.82, 1.0, L - 1)
    if len(inspect.signature(_kernels.pair_rows).parameters) > 5:
        pair_args += (True,)

    # dense assembly: the heat-inverse symbol of a star product of two
    # n = 2, degree-4 draws, and three radial terms at a large degree
    draws = np.random.default_rng(0)
    a, b = (_random_sum(RadialSymbol, draws, 2, 4) for _ in range(2))
    weyl = heat_inverse(star(a, b, 1.0), 1.0)
    ctx1 = FockContext(1, 1.0)
    few = RadialSymbol(1, [(((1,), (1,), -2.0), 1.0), (((1,), (0,), -1.0), 0.5j),
                           (((0,), (2,), 0.0), 0.25)])

    # (name, length, call, whether to record its tracemalloc peak)
    cases = [
        ("ladder_row", L, lambda: _kernels.ladder_row(ones, 0.59634736, 1.0),
         True),
        ("pair_rows", L, lambda: _kernels.pair_rows(*pair_args), True),
        ("raise_row", L, lambda: _kernels.raise_row(ones, 1.0), False),
        ("partial_sums_at", L,
         lambda: _kernels.partial_sums_at(values, mults, ranks), False),
        ("partial_sums_at[mults=k+1]", L,
         lambda: _kernels.partial_sums_at(values, degree_mults, degree_ranks),
         False),
        ("_diagonal_values[toeplitz-trace]", count,
         lambda: spectral._diagonal_values(ctx, toeplitz, K), True),
        ("_diagonal_values[hankel-toeplitz]", count,
         lambda: spectral._diagonal_values(ctx, mixed, K), True),
        ("_diagonal_values[hankel-trace n=1]", L,
         lambda: spectral._diagonal_values(ctx1, hankel, L - 1), True),
        ("toeplitz_matrix[weyl n=2 D=8]", len(weyl.terms),
         lambda: toeplitz_matrix(ctx, weyl, 8), False),
        ("toeplitz_matrix[n=1 D=2048]", len(few.terms),
         lambda: toeplitz_matrix(ctx1, few, 2048), False),
    ]

    print(f"kernel timings, length = {L}, assembly at K_degree = {K} "
          f"({count} values), median [quartiles] of {REPEATS}, backend "
          f"{_kernels.ACTIVE_BACKEND}")
    rows = []
    for name, length, fn, traced in cases:
        q1, median, q3 = bench(fn)
        row = {"kernel": name, "length": length, "repeats": REPEATS,
               "median_s": median, "quartiles_s": [q1, q3]}
        line = f"{name:<36}{median * 1e3:>10.2f} ms  [{q1 * 1e3:.2f}, {q3 * 1e3:.2f}]"
        if traced:
            row["peak_bytes"] = traced_peak(fn)
            line += f"  peak {row['peak_bytes'] / 2**20:.2f} MiB"
        rows.append(row)
        print(line)

    record = {
        "label": args.label,
        "backend": _kernels.ACTIVE_BACKEND,
        "machine": {"processor": platform.processor() or platform.machine(),
                    "cpus": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__},
        "results": rows,
    }
    out = Path(args.out)
    points = json.loads(out.read_text()).get("points", []) if out.exists() else []
    points = [p for p in points if p.get("label") != args.label] + [record]
    out.write_text(json.dumps({"points": points}, indent=1) + "\n")


if __name__ == "__main__":
    main()
