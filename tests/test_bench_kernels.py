"""`benchmarks/bench_kernels.py` against this tree: every case runs once at
tiny sizes, so that a change to a signature the cases call fails here, not
at the next timing run."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"


def test_every_case_runs_at_tiny_sizes():
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    bench_kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_kernels)
    cases = bench_kernels.cases(bench_kernels.load("focktrace"), 1 << 12, 20)
    names = [name for name, _length, _call, _traced in cases]
    assert len(set(names)) == len(names), names
    for _name, _length, call, _traced in cases:
        call()
