"""One measured process of the benchmark: imports focktrace from the checkout,
notes when the import finished, then does one job between two timings of a
fixed reference loop and prints one JSON line.

    python3 perfbench/child.py probe
    python3 perfbench/child.py warmup
    python3 perfbench/child.py experiment JOB.json [--trace]
    python3 perfbench/child.py merge JOB.json [--trace]

`experiment` runs the focktrace CLI itself (`focktrace.cli.main`) on the job's
experiment, config file, seed and report path; a job that names one of the
CLI's default mixed-trace cases gets a config of that case alone.  `merge` builds two n = 1
spectra once and then answers the job's scaled-merge queries.  With --trace
the layer boundaries are wrapped by `tracer.Tracer` for the job's duration.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import focktrace.cli  # noqa: E402  (the import is what setup time measures)

T_IMPORT = time.monotonic()

import json  # noqa: E402


def _from_checkout():
    src = (ROOT / "src").resolve()
    return src in Path(focktrace.cli.__file__).resolve().parents


def _environment():
    import importlib.util
    import platform

    import mpmath
    import numpy
    import scipy
    from focktrace import _kernels

    return {
        "kernel_backend": getattr(_kernels, "ACTIVE_BACKEND", "unknown"),
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
    }


def _write_mixed_config(job):
    """A mixed-trace config of one of the CLI's default cases, by label, with
    the job's overrides (only the self-test's tiny sizes use any)."""
    label, overrides = job["mixed_case"]["label"], job["mixed_case"]["overrides"]
    case = next(c for c in focktrace.cli._default_mixed_cases()
                if c["label"] == label)
    with open(job["config_path"], "w") as fh:
        json.dump({"cases": [dict(case, **overrides)]}, fh)


def _merge_requery(job):
    from focktrace import dixmier, spectral
    from focktrace.fock_matrices import FockContext
    from focktrace.symbols import RadialSymbol

    grid = job["grid"]
    config = spectral.toeplitz_config(RadialSymbol.radial_power(1, -2.0))
    seqs = [spectral.diagonal_spectrum(FockContext(1, g), config, job["K"])
            for g in (1.0, 2.0)]
    base = [dixmier.extrapolate(s, grid).value for s in seqs]
    rounds = []
    for lam, mu in job["scalings"]:
        merged = seqs[0].scaled(lam).merge(seqs[1].scaled(mu))
        rounds.append(dixmier.extrapolate(merged, grid).value)
    return {"base": base, "rounds": rounds}


def reference_loop():
    """Wall and CPU seconds of a fixed mix of interpreted and numpy work that
    no focktrace change can touch; run.py scales the job's times by it."""
    import numpy as np

    t0, c0 = time.perf_counter(), time.process_time()
    acc, table = 0.0, {}
    for i in range(360_000):
        acc += ((i * 7919) % 104729) / 3.0
        table[i & 1023] = acc
    values = (np.arange(1 << 16, dtype=float) * 0.6180339887) % 1.0
    for _ in range(16):
        values = np.cumsum(np.sort(values)) % 1.0
    return time.perf_counter() - t0, time.process_time() - c0


def main(argv):
    if not _from_checkout():
        print(f"focktrace was imported from {focktrace.cli.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 3
    mode = argv[0]
    out = {"t_import": T_IMPORT}
    # the reference loop brackets the job, so that it samples the host's
    # speed on both sides of it
    before = reference_loop()
    code = 0
    if mode == "warmup":
        out["environment"] = _environment()
    elif mode in ("experiment", "merge"):
        with open(argv[1]) as fh:
            job = json.load(fh)
        tracer = None
        if "--trace" in argv[2:]:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        if mode == "experiment":
            args = ["--experiment", job["experiment"], "--seed", str(job["seed"]),
                    "--out", job["report"]]
            if "mixed_case" in job:
                _write_mixed_config(job)
            if job.get("config_path"):
                args += ["--config", job["config_path"]]
            code = focktrace.cli.main(args)
        else:
            body = _merge_requery
            if tracer is not None:
                body = tracer.span("merge-requery", body)
            out["merge"] = body(job)
        if tracer is not None:
            out["trace"] = tracer.summary()
    elif mode != "probe":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    after = reference_loop()
    out["reference_s"] = [before[0], after[0]]
    out["reference_cpu_s"] = [before[1], after[1]]
    print(json.dumps(out))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
