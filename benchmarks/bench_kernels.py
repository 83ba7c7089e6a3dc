"""Layer timing of the numeric kernels in `focktrace._kernels`.

Times each kernel once per repeat at one row length (best of 3, after one
warm-up call) and writes BENCH_kernels.json at the repository root, with
the kernel backend and the machine it ran on.

Run:  PYTHONPATH=src python benchmarks/bench_kernels.py [--length 1048576]
"""

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from focktrace import _kernels

ROOT = Path(__file__).resolve().parents[1]


def bench(fn, repeat=3, warmup=1):
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--length", type=int, default=1 << 20)
    parser.add_argument("--out", default=str(ROOT / "BENCH_kernels.json"))
    args = parser.parse_args()
    L = args.length

    ones = np.ones(L)
    rng = np.random.default_rng(0)
    values = np.sort(rng.random(L))[::-1].copy()
    mults = np.ones(L, dtype=np.int64)
    ranks = np.array([2**e for e in range(10, int(np.log2(L)) + 1)],
                     dtype=np.int64) - 1
    # n = 2 multiplicities k+1: inexact products, ranks up to the last run
    degree_mults = np.arange(1, L + 1, dtype=np.int64)
    top = int(degree_mults.sum()) - 1
    degree_ranks = np.array([2**e for e in range(10, top.bit_length())]
                            + [top], dtype=np.int64)

    cases = [
        ("ladder_row", lambda: _kernels.ladder_row(ones, 0.59634736, 1.0)),
        ("pair_rows", lambda: _kernels.pair_rows(0.5, 1.2, 0.82, 1.0, L - 1)),
        ("raise_row", lambda: _kernels.raise_row(ones, 1.0)),
        ("partial_sums_at",
         lambda: _kernels.partial_sums_at(values, mults, ranks)),
        ("partial_sums_at[mults=k+1]",
         lambda: _kernels.partial_sums_at(values, degree_mults, degree_ranks)),
    ]

    print(f"kernel timings, length = {L} (best of 3), "
          f"backend {_kernels.ACTIVE_BACKEND}")
    rows = []
    for name, fn in cases:
        seconds = bench(fn)
        rows.append({"kernel": name, "length": L, "seconds": seconds})
        print(f"{name:<28}{seconds * 1e3:>10.2f} ms")

    record = {
        "backend": _kernels.ACTIVE_BACKEND,
        "machine": {"processor": platform.processor() or platform.machine(),
                    "cpus": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__},
        "results": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
