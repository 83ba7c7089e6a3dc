"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q

References for the tiny jobs are recorded first, exactly as
`record_reference.py` records the full ones; each workload then runs once
(one untraced and one traced pass), and the gate is shown to trip on a
perturbed reference.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import record_reference  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def tiny_reference():
    return record_reference.record(tiny=True)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, tiny_reference):
    bench = run.load_benchmark()
    result, env = run.measure(workload, 3, 0, True, tiny_reference, tiny=True)
    assert result["correct"], result["misses"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        line = json.loads(json.dumps(run.result_line(result, trace, bench)))
        assert list(line) == ["correct", "attempted", "failed", "metrics"]
        assert [(name, m["unit"]) for name, m in line["metrics"].items()] == [
            (m["name"], m["unit"]) for m in bench[kind]]
        for m in line["metrics"].values():
            assert isinstance(m["value"], (int, float))
    assert result["e2e"]["wall_s"] > 0 and result["e2e"]["setup_s"] > 0
    assert {"kernel_backend", "numba", "numpy", "scipy", "mpmath", "python",
            "nproc", "cpu_model", "blas_threads", "git_commit"} <= set(env)


def test_per_layer_counts_on_the_radial_workload(tiny_reference):
    result, _ = run.measure("radial-n1", 4, 0, True, tiny_reference, tiny=True)
    layers = result["layers"]
    # one degree_multiplicity call per degree, K_degree + 1 = 4097 per experiment
    assert layers["core.degree_multiplicity.calls"] == 3 * 4097
    assert layers["spectral.diagonal_spectrum.ranks"] == 3 * 4097
    assert layers["dixmier.log_mean.calls"] == 3 * len(run._TINY_GRID)
    assert layers["kernels.ladder_row.steps"] > 0
    assert layers["weyl_calculus.star.calls"] == 0
    # the gate has checked it against the children's wall times
    assert 0 < layers["trace.unattributed_s"] < 3 * run.ATTRIBUTION_SLACK_S


@pytest.mark.parametrize("workload,key", [
    ("radial-n1", "tiny/radial-n1/hankel-trace"),
    ("merge-requery", None),
])
def test_gate_trips_on_perturbed_reference(workload, key, tiny_reference):
    bad = copy.deepcopy(tiny_reference)
    if key is None:
        bad["merge"][run.merge_key(run.MERGE_TINY, True)]["base"][0] *= 1 + 1e-9
    else:
        checks = bad["experiments"][key]
        name = next(iter(checks))
        checks[name] *= 1 + 1e-9
    result, _ = run.measure(workload, 3, 0, False, bad, tiny=True)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "radial-n1", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_zero_target_checks_compare_at_unit_scale():
    same = run.Gate.same
    # a rounding-level residual may move by less than 1e-12 absolute
    assert same(4.0e-16 + 5e-13, 4.0e-16, zero_target=True)
    assert not same(4.0e-16 + 2e-12, 4.0e-16, zero_target=True)
    assert not same(4.0e-16 + 5e-13, 4.0e-16)
    # a value of its own is compared relatively either way
    assert same(0.25 * (1 + 5e-13), 0.25)
    assert not same(0.25 * (1 + 4e-12), 0.25)
    assert not same(0.05 * (1 + 4e-12), 0.05)
    assert not same(2.0 * (1 + 4e-12), 2.0, zero_target=True)


def test_attribution_check_trips_on_time_outside_spans():
    class Traced:
        def __init__(self, wall, setup, self_sum):
            self.wall_s, self.setup_s = wall, setup
            self.out = {"trace": {"attribution": {"self_sum_s": self_sum,
                                                  "bookkeeping_s": 0.01}}}

    gate = run.Gate({})
    assert run._check_attribution(gate, [Traced(10.0, 1.0, 8.8)]) == \
        pytest.approx(0.19)
    assert gate.failed == 0
    run._check_attribution(gate, [Traced(10.0, 1.0, 7.0)])  # 1.99 s unaccounted
    run._check_attribution(gate, [Traced(10.0, 1.0, 9.5)])  # spans exceed the child
    assert gate.attempted == 3 and gate.failed == 2


def test_pass_times_are_scaled_by_their_own_loops():
    class Done:
        def __init__(self, wall, reference):
            self.wall_s, self.cpu_s, self.rss_mb = wall, wall, 100.0
            self.setup_s, self.reference_s, self.out = 0.5, reference, {}
            self.reference_cpu_s = reference / 2

    rec = run._pass_record([Done(2.0, 0.2), Done(3.0, 0.3)])
    assert rec["wall_s"] == 5.0
    assert rec["scale"] == pytest.approx(run.REFERENCE_LOOP_S / 0.25)
    assert rec["cpu_scale"] == pytest.approx(run.REFERENCE_LOOP_S / 0.125)
    assert rec["scaled_setup_s"] == pytest.approx(
        [0.5 * run.REFERENCE_LOOP_S / 0.2, 0.5 * run.REFERENCE_LOOP_S / 0.3])
