"""Layer timing of the numeric kernels in `focktrace._kernels`, of the
eigenvalue assembly, `spectral._diagonal_values`, and of the dense
assembly, `fock_matrices.toeplitz_matrix`.

Times each kernel once per repeat at one row length, the assembly of the
toeplitz-trace and mixed-trace `hankel-toeplitz` default spectra (n = 2)
at one K_degree, and of the hankel-trace default spectrum (n = 1, one
value per degree) at the row length; each assembly builds its moment rows
too: no row outlives its call.  The moment-row kernels are timed as the
walk reads them, a stream of `fock_matrices.moment_chunks` drained chunk
by chunk: t = -2 is the m_0 anchor and one `ladder_chunks` step, t = -1
the `pair_chunks` anchor.  `partial_sums_at` sums a spectrum with
unit multiplicities as the spectra hold them, a stride-0 view, and one
with multiplicities k + 1.
The dense cases assemble calculus-check's composition-vs-star shape, the
n = 2, D = 8 Weyl matrix of a fixed star product of about 400 terms, and a
three-term n = 1 symbol at D = 2048; their length is the symbol's term count.
Each case runs once to warm up (the d = 0 base moments are kept) and then
REPEATS times; the median and the quartiles of those times are recorded,
since on a shared machine a best-of-few reads differently run to run.
The moment-row streams and the three assemblies also record `peak_bytes`,
the tracemalloc peak of one more, untimed call: the bytes it allocates,
its result included.  perfbench's tracer wraps whole-row functions, so it
cannot see what a stream holds.
The run is one point, named by --label, of BENCH_kernels.json at the
repository root, with the kernel backend and the machine it ran on; a point
of the same label is replaced, the others are kept.  focktrace is imported
from PYTHONPATH.

With --against LABEL=DIR, DIR holding another focktrace package (say a
checkout's src/), that package is loaded beside this one under another
name, and each case alternates between the two trees call by call (which
goes first alternates too), so that a drift in host speed falls on both
alike; points from separate runs cannot resolve changes below about 50 %
on a shared machine.  Both trees' medians and quartiles are recorded, as
two points that name each other in "paired_with".

Run:  PYTHONPATH=src python benchmarks/bench_kernels.py --label after
          [--against "before=../parent/src"] [--length 1048576]
          [--K-degree 2000]
"""

import argparse
import importlib
import importlib.util
import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


REPEATS = 9


def load(name, path=None):
    """The focktrace modules the cases use, from the package on PYTHONPATH,
    or from the package in the directory `path` imported as `name`."""
    if path is not None:
        init = Path(path) / "focktrace" / "__init__.py"
        spec = importlib.util.spec_from_file_location(
            name, init, submodule_search_locations=[str(init.parent)])
        package = importlib.util.module_from_spec(spec)
        sys.modules[name] = package
        spec.loader.exec_module(package)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in (
        "_kernels", "spectral", "cli", "fock_matrices", "symbols", "weyl_calculus")})


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def quartiles(samples):
    return [float(x) for x in np.percentile(samples, [25, 50, 75])]


def bench(*fns):
    """For each of fns, the first quartile, median and third quartile of
    REPEATS timed calls, after one untimed call of each; the calls of
    several fns alternate, and so does which goes first."""
    for fn in fns:
        fn()
    samples = [[] for _ in fns]
    for r in range(REPEATS):
        order = range(len(fns)) if r % 2 == 0 else reversed(range(len(fns)))
        for i in order:
            samples[i].append(timed(fns[i]))
    return [quartiles(x) for x in samples]


def traced_peak(fn):
    """The tracemalloc peak, in bytes, of one call of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def drained(chunks):
    """Reads every chunk of chunks, letting each go before the next."""
    for _ in chunks:
        pass


def cases(ft, L, K):
    """(name, length, call, whether to record its tracemalloc peak) for
    each case, with the focktrace modules ft."""
    _kernels, spectral = ft._kernels, ft.spectral
    RadialSymbol, FockContext = ft.symbols.RadialSymbol, ft.fock_matrices.FockContext
    toeplitz_matrix = ft.fock_matrices.toeplitz_matrix
    moment_chunks = ft.fock_matrices.moment_chunks
    heat_inverse, star = ft.weyl_calculus.heat_inverse, ft.weyl_calculus.star
    _random_sum = ft.cli._random_sum

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

    # dense assembly: the heat-inverse symbol of a star product of two
    # n = 2, degree-4 draws, and three radial terms at a large degree
    draws = np.random.default_rng(0)
    a, b = (_random_sum(RadialSymbol, draws, 2, 4) for _ in range(2))
    weyl = heat_inverse(star(a, b, 1.0), 1.0)
    ctx1 = FockContext(1, 1.0)
    few = RadialSymbol(1, [(((1,), (1,), -2.0), 1.0), (((1,), (0,), -1.0), 0.5j),
                           (((0,), (2,), 0.0), 0.25)])

    return [
        ("moment_chunks[t=-2]", L,
         lambda: drained(moment_chunks(-2.0, 1.0, L - 1)), True),
        ("moment_chunks[t=-1]", L,
         lambda: drained(moment_chunks(-1.0, 1.0, L - 1)), True),
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


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--label", required=True)
    parser.add_argument("--against", metavar="LABEL=DIR")
    parser.add_argument("--length", type=int, default=1 << 20)
    parser.add_argument("--K-degree", type=int, default=2000)
    parser.add_argument("--out", default=str(ROOT / "BENCH_kernels.json"))
    args = parser.parse_args()
    L, K = args.length, args.K_degree
    packages = [(args.label, load("focktrace"))]
    if args.against:
        label, _, path = args.against.partition("=")
        if not path:
            parser.error("--against takes LABEL=DIR")
        packages.append((label, load("focktrace_against", path)))
    trees = [(label, cases(ft, L, K)) for label, ft in packages]
    backends = [(label, ft._kernels.ACTIVE_BACKEND) for label, ft in packages]
    count = (K + 1) * (K + 2) // 2
    print(f"kernel timings, length = {L}, assembly at K_degree = {K} "
          f"({count} values), median [quartiles] of {REPEATS}, "
          + ", ".join(f"{label}: backend {backend}" for label, backend in backends))
    results = [[] for _ in trees]
    for per_tree in zip(*(tree_cases for _, tree_cases in trees)):
        name, length, _, traced = per_tree[0]
        stats = bench(*(fn for _, _, fn, _ in per_tree))
        line = f"{name:<36}"
        for rows, (_, _, fn, _), (q1, median, q3) in zip(results, per_tree, stats):
            row = {"kernel": name, "length": length, "repeats": REPEATS,
                   "median_s": median, "quartiles_s": [q1, q3]}
            line += f"{median * 1e3:>10.2f} ms [{q1 * 1e3:.2f}, {q3 * 1e3:.2f}]"
            if traced:
                row["peak_bytes"] = traced_peak(fn)
                line += f" peak {row['peak_bytes'] / 2**20:.2f} MiB"
            rows.append(row)
        print(line)

    machine = {"processor": platform.processor() or platform.machine(),
               "cpus": os.cpu_count(), "python": platform.python_version(),
               "numpy": np.__version__}
    records = []
    for (label, backend), rows in zip(backends, results):
        record = {"label": label, "backend": backend, "machine": machine,
                  "results": rows}
        if len(trees) > 1:
            record["paired_with"] = [other for other, _ in backends if other != label]
        records.append(record)
    out = Path(args.out)
    points = json.loads(out.read_text()).get("points", []) if out.exists() else []
    labels = {record["label"] for record in records}
    points = [p for p in points if p.get("label") not in labels] + records
    out.write_text(json.dumps({"points": points}, indent=1) + "\n")


if __name__ == "__main__":
    main()
