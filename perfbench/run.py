"""The focktrace benchmark: end-to-end and per-layer metrics of one workload.

    python3 perfbench/run.py --workload radial-n1 --seed 1 --seconds 30 --trace 0

Every experiment runs in a fresh child process (`child.py`), one at a time,
so load is closed-loop with a single client.  A run first starts one
discarded warm-up child, which pays the bytecode compile after install and
reports the environment, then an import-only child that samples set-up
time, then whole passes of the workload, then another import-only child.
Passes start only while the whole run, the last probe included, is expected
to end within --seconds (there is always at least one).  With
--trace 1 the passes alternate between untraced and traced, and the traced
ones give the per-layer metrics.

Every child times a fixed reference loop just before and just after its
job, and the end-to-end times are reported at a reference host speed (see
REFERENCE_LOOP_S); the raw times are kept in `.perfbench/result.json`.

Each child's outputs are checked against `reference.json`: every report
check's `computed` must match its recorded value to 1e-12 relative, `pass`
must be true, and on merge-requery direct-sum additivity must hold within 2%.
`attempted` and `failed` in the result line count these checks; a crash
counts as a failed check.  The last line of standard output is the result;
the line before it is the environment.  BENCHMARK.json lists the metrics;
README.md next to this file says which layer each one is meant to move.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
CHILD = HERE / "child.py"

CHILD_TIMEOUT_S = 150.0
REL_TOL = 1e-12
ADDITIVITY_TOL = 0.02
ATTRIBUTION_SHARE = 0.05
ATTRIBUTION_SLACK_S = 0.5

# multiindex-n2 restricts mixed-trace to the CLI's own default n = 2 case (one
# Hankel pair against one Toeplitz factor), which the child looks up by label;
# mixed-trace's n = 1 Toeplitz-chain case is left out
HANKEL_TOEPLITZ = {"mixed_case": {"label": "hankel-toeplitz", "overrides":
                                  {"K_degree": 2000}}}
HANKEL_TOEPLITZ_TINY = {"mixed_case": {"label": "hankel-toeplitz", "overrides":
                                       {"K_degree": 60, "tolerance": 0.5}}}

# Each diagonal workload is a fixed list of (key, experiment, config).  The
# configs are the CLI defaults with the size cut by four (K = 2^18 rather
# than 2^20 at n = 1, K_degree = 2000 rather than 4000 at n = 2), so that a
# run holds several passes and reports their median; everything else,
# tolerances included, is the default.  `tiny` variants exist only for the
# self-test.
RADIAL_K = 1 << 18
DIAGONAL = {
    "radial-n1": [
        ("model-operator", "model-operator",
         {"K_ranks": RADIAL_K, "window": [RADIAL_K // 2, RADIAL_K - 1]}),
        ("hankel-trace", "hankel-trace", {"K_degree": RADIAL_K}),
        ("commutator-trace", "commutator-trace", {"K_degree": RADIAL_K}),
    ],
    "multiindex-n2": [
        ("toeplitz-trace", "toeplitz-trace", {"K_degree": 2000}),
        ("mixed-trace-hankel-toeplitz", "mixed-trace", HANKEL_TOEPLITZ),
    ],
}
_TINY_GRID = [2**e for e in range(6, 13, 2)]
DIAGONAL_TINY = {
    "radial-n1": [
        ("model-operator", "model-operator",
         {"K_ranks": 4096, "window": [2048, 4095], "grid": _TINY_GRID,
          "tol_pointwise": 0.5, "tol_extrapolated": 0.5}),
        ("hankel-trace", "hankel-trace",
         {"K_degree": 4096, "grid": _TINY_GRID, "tolerance": 0.5}),
        ("commutator-trace", "commutator-trace",
         {"K_degree": 4096, "grid": _TINY_GRID, "tolerance": 0.5}),
    ],
    "multiindex-n2": [
        ("toeplitz-trace", "toeplitz-trace", {"K_degree": 60, "tolerance": 0.5}),
        ("mixed-trace-hankel-toeplitz", "mixed-trace", HANKEL_TOEPLITZ_TINY),
    ],
}

# symbolic-dense takes its calculus-check seeds from this pool, and
# merge-requery its scalings from reference.json's pool, so that every
# drawn input has a recorded reference.
CALCULUS_SEEDS = tuple(range(8))
CALCULUS_SEEDS_TINY = (0,)
MERGE = {"K": 1 << 17, "grid": [2**e for e in range(9, 18, 2)], "rounds": 6}
MERGE_TINY = {"K": 1 << 12, "grid": _TINY_GRID, "rounds": 2}

WORKLOADS = ("radial-n1", "multiindex-n2", "symbolic-dense", "merge-requery")


# ---------------------------------------------------------------------------
# children

def fresh_workdir():
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir()


# One BLAS thread per child, so that the one client is one thread.  By
# default OpenBLAS keeps a second thread spinning on the other core of a
# 2-vCPU host, which made each child depend on the load on both cores.
BLAS_THREADS = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS")}


def _child_env():
    env = dict(os.environ, **BLAS_THREADS)
    # bytecode is cached after the warm-up child, as after an install
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPATH", None)
    return env


# The host's speed drifts by a sixth or more within seconds to minutes, much
# the same for every kind of work, so raw times of the same code spread past
# any useful bound from run to run.  Each child therefore times a fixed loop
# that no focktrace change can touch (`child.reference_loop`) in the same
# process just before and just after its job, and times are reported at a
# reference speed: a pass's wall time is multiplied by REFERENCE_LOOP_S over
# the mean loop time of its own children, its CPU time likewise by the loops'
# CPU time, and a child's set-up time by REFERENCE_LOOP_S over its own mean
# loop time.  The loop takes about REFERENCE_LOOP_S on the 2-vCPU Intel Xeon
# host the bounds were set on, in its faster phases, so reported times read
# as seconds there.  A change that left work running in the child after its
# job would slow the loop and flatter the scaled times; the raw times in
# result.json show it.
REFERENCE_LOOP_S = 0.1


class Child:
    """Outcome of one child process: wall, CPU, max RSS, its JSON line, and
    the mean wall and CPU times of the reference loops around its job."""

    def __init__(self, args, log_name):
        err_path = WORK / f"{log_name}.err"
        t_spawn = time.monotonic()
        t0 = time.perf_counter()
        with open(err_path, "w") as err:
            proc = subprocess.Popen([sys.executable, str(CHILD), *args],
                                    cwd=ROOT, env=_child_env(),
                                    stdout=subprocess.PIPE, stderr=err)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                stdout = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                proc.stdout.close()
        self.wall_s = time.perf_counter() - t0
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.out = None
        lines = stdout.decode(errors="replace").strip().splitlines()
        if lines:
            try:
                self.out = json.loads(lines[-1])
            except json.JSONDecodeError:
                pass
        self.setup_s = self.reference_s = self.reference_cpu_s = None
        if self.out is not None and "t_import" in self.out:
            self.setup_s = self.out["t_import"] - t_spawn
            # the loops are not the job's: take them out of the child's times
            loops, loops_cpu = self.out["reference_s"], self.out["reference_cpu_s"]
            self.reference_s = statistics.mean(loops)
            self.reference_cpu_s = statistics.mean(loops_cpu)
            self.wall_s -= sum(loops)
            self.cpu_s -= sum(loops_cpu)
        self.err_path = err_path

    def diagnose(self):
        tail = self.err_path.read_text(errors="replace").strip().splitlines()[-5:]
        return f"exit {self.code}: " + " | ".join(tail)


# ---------------------------------------------------------------------------
# correctness gate

class Gate:
    """Counts checks against the recorded reference; remembers the misses."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.misses = []

    def check(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.misses.append(label)

    @staticmethod
    def same(computed, ref, zero_target=False):
        """computed matches ref to REL_TOL.  A check with a zero target reports
        a deviation between quantities of order one, which holds only their
        rounding error, so it is compared at that scale: absolutely, to REL_TOL
        times max(|ref|, 1).  Other values are compared relatively."""
        scale = max(abs(ref), 1.0 if zero_target else 1e-12)
        return abs(computed - ref) <= REL_TOL * scale

    def experiment(self, key, child, report_path):
        expected = self.reference["experiments"].get(key)
        if expected is None:
            self.check(f"{key}: no reference recorded", False)
            return
        report = None
        if child.code in (0, 1) and report_path.is_file():
            report = json.loads(report_path.read_text())
        if report is None:
            for name in expected:
                self.check(f"{key}::{name}: {child.diagnose()}", False)
            return
        got = {c["name"]: c for c in report["checks"]}
        for name in sorted(set(got) - set(expected)):
            self.check(f"{key}::{name}: no reference recorded", False)
        for name, ref in expected.items():
            c = got.get(name)
            ok = c is not None and c["pass"] and self.same(
                c["computed"], ref, c["tolerance_kind"] == "absolute-zero-target")
            self.check(f"{key}::{name}: computed="
                       f"{c['computed'] if c else None!r} reference={ref!r} "
                       f"pass={c['pass'] if c else None}", ok)

    def merge(self, key, child, scalings, indices):
        ref = self.reference["merge"][key]
        out = (child.out or {}).get("merge") if child.code == 0 else None
        if out is None:
            for i in range(2 + 2 * len(indices)):
                self.check(f"{key}: {child.diagnose()}", False)
            return
        base = out["base"]
        for i in range(2):
            self.check(f"{key}: base {i} extrapolate={base[i]!r} reference="
                       f"{ref['base'][i]!r}", self.same(base[i], ref["base"][i]))
        for i, value in zip(indices, out["rounds"]):
            lam, mu = scalings[i]
            want = ref["rounds"][i]
            self.check(f"{key}: scaling {i} extrapolate={value!r} "
                       f"reference={want!r}", self.same(value, want))
            expect = lam * base[0] + mu * base[1]
            dev = abs(value - expect) / abs(expect)
            self.check(f"{key}: scaling {i} additivity deviation {dev:.3g}",
                       dev <= ADDITIVITY_TOL)
        if len(out["rounds"]) != len(indices):
            self.check(f"{key}: {len(out['rounds'])} rounds answered, "
                       f"{len(indices)} asked", False)


# ---------------------------------------------------------------------------
# passes

def experiment_child(tag, experiment, config, seed, trace):
    """Run one CLI experiment in a child; returns (child, report path)."""
    report = WORK / f"{tag}-report.json"
    job = {"experiment": experiment, "seed": seed, "report": str(report)}
    if config is not None:
        job["config_path"] = str(WORK / f"{tag}-config.json")
        if "mixed_case" in config:
            job["mixed_case"] = config["mixed_case"]
        else:
            Path(job["config_path"]).write_text(json.dumps(config))
    job_path = WORK / f"{tag}-job.json"
    job_path.write_text(json.dumps(job))
    child = Child(["experiment", str(job_path)] + (["--trace"] if trace else []),
                  tag)
    return child, report


def merge_child(tag, size, scalings, trace):
    """Build the two merge-requery spectra and answer the given scalings."""
    job_path = WORK / f"{tag}-job.json"
    job_path.write_text(json.dumps({"K": size["K"], "grid": size["grid"],
                                    "scalings": scalings}))
    return Child(["merge", str(job_path)] + (["--trace"] if trace else []), tag)


def merge_key(size, tiny):
    return f"{'tiny/' if tiny else ''}merge-requery/K={size['K']}"


class Workload:
    """Builds and runs passes of one workload from a seeded generator."""

    def __init__(self, name, seed, gate, tiny=False):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.gate = gate
        self.tiny = tiny
        self.count = 0
        # every run cycles through the whole pool in a seeded order, so runs
        # differ in order, not in how much work their seeds carry
        pool = list(CALCULUS_SEEDS_TINY if tiny else CALCULUS_SEEDS)
        self.rng.shuffle(pool)
        self.calculus_seeds = itertools.cycle(pool)
        self.merge_size = MERGE_TINY if tiny else MERGE
        self.merge_key = merge_key(self.merge_size, tiny)
        if name == "merge-requery":
            self.scalings = gate.reference["merge"][self.merge_key]["scalings"]

    def _tag(self):
        self.count += 1
        return f"child-{self.count}"

    def next_round(self):
        """Inputs of the next pass: a list of experiment jobs (key,
        experiment, config, seed), or the indices of merge-requery's
        scalings.  In a traced run the same inputs feed both passes."""
        if self.name in DIAGONAL:
            jobs = list((DIAGONAL_TINY if self.tiny else DIAGONAL)[self.name])
            self.rng.shuffle(jobs)
            return [(key, exp, cfg, 0) for key, exp, cfg in jobs]
        if self.name == "symbolic-dense":
            seed = next(self.calculus_seeds)
            return [(f"calculus-check/seed={seed}", "calculus-check", None, seed)]
        return [self.rng.randrange(len(self.scalings))
                for _ in range(self.merge_size["rounds"])]

    def run_pass(self, inputs, trace):
        """One pass; returns its children (the gate has counted their checks)."""
        if self.name == "merge-requery":
            child = merge_child(self._tag(), self.merge_size,
                                [self.scalings[i] for i in inputs], trace)
            self.gate.merge(self.merge_key, child, self.scalings, inputs)
            return [child]
        prefix = "tiny/" if self.tiny else ""
        children = []
        for key, experiment, config, seed in inputs:
            child, report = experiment_child(self._tag(), experiment, config,
                                             seed, trace)
            self.gate.experiment(f"{prefix}{self.name}/{key}", child, report)
            children.append(child)
        return children


def _scale(loop_times):
    return REFERENCE_LOOP_S / statistics.mean(loop_times) if loop_times else 1.0


def _pass_record(children):
    # the pass's speed is that of the loops its own children ran: wall time
    # against the loops' wall time, CPU time against their CPU time
    references = [c.reference_s for c in children if c.reference_s is not None]
    references_cpu = [c.reference_cpu_s for c in children
                      if c.reference_cpu_s is not None]
    return {"wall_s": sum(c.wall_s for c in children),
            "cpu_s": sum(c.cpu_s for c in children),
            "scale": _scale(references),
            "cpu_scale": _scale(references_cpu),
            "rss_mb": max(c.rss_mb for c in children),
            "child_wall_s": [c.wall_s for c in children],
            "reference_s": references,
            "reference_cpu_s": references_cpu,
            "setup_s": [c.setup_s for c in children if c.setup_s is not None],
            "scaled_setup_s": [c.setup_s * REFERENCE_LOOP_S / c.reference_s
                               for c in children if c.setup_s is not None],
            "traces": [c.out["trace"] for c in children
                       if c.out is not None and "trace" in c.out]}


# ---------------------------------------------------------------------------
# metrics

def _sum_traces(traces):
    total = {"calls": {}, "busy": {}, "self": {}, "counters": {},
             "attribution": {}}
    for tr in traces:
        for part in total:
            for k, v in tr[part].items():
                total[part][k] = total[part].get(k, 0) + v
    return total


def layer_metrics(traces):
    """Per-layer metrics of one traced pass, from its children's tracers."""
    t = _sum_traces(traces)
    busy, self_, calls, ctr = t["busy"], t["self"], t["calls"], t["counters"]

    def b(name):
        return busy.get(name, 0.0)

    row = "fock_matrices.scaled_moment_row"
    row_calls = calls.get(row, 0)
    out = {
        f"{row}.busy_s": b(row),
        f"{row}.self_s": self_.get(row, 0.0),
        f"{row}.calls": row_calls,
        f"{row}.entries": ctr.get(f"{row}.entries", 0),
        f"{row}.hit_ratio": ctr.get(f"{row}.hits", 0) / row_calls if row_calls else 0.0,
        "fock_matrices.dense.busy_s": b("fock_matrices.dense"),
        "fock_matrices.dense.entries": ctr.get("fock_matrices.dense.entries", 0),
        "fock_matrices.berezin.busy_s": b("fock_matrices.berezin"),
    }
    for k in ("ladder_row", "pair_rows", "raise_row"):
        out[f"kernels.{k}.busy_s"] = b(f"kernels.{k}")
        out[f"kernels.{k}.steps"] = ctr.get(f"kernels.{k}.steps", 0)
    out["kernels.partial_sums_at.busy_s"] = b("kernels.partial_sums_at")
    out["kernels.partial_sums_at.runs_walked"] = ctr.get(
        "kernels.partial_sums_at.runs_walked", 0)
    out["core.degree_multiplicity.calls"] = calls.get("core.degree_multiplicity", 0)
    out["core.degree_multiplicity.busy_s"] = b("core.degree_multiplicity")
    out["core.sphere_norm_sq.busy_s"] = b("core.sphere_norm_sq")
    out["core.sphere_norm_sq.calls"] = calls.get("core.sphere_norm_sq", 0)
    spec = "spectral.diagonal_spectrum"
    out[f"{spec}.self_s"] = self_.get(spec, 0.0)
    for k in ("values", "ranks", "certified_rank"):
        out[f"{spec}.{k}"] = ctr.get(f"{spec}.{k}", 0)
    out["spectral.partial_sums.calls"] = calls.get("spectral.partial_sums", 0)
    out["spectral.partial_sums.busy_s"] = b("spectral.partial_sums")
    out["spectral.merge.busy_s"] = b("spectral.merge")
    out["spectral.merge.values"] = ctr.get("spectral.merge.values", 0)
    out["spectral.scaled.busy_s"] = b("spectral.scaled")
    out["dixmier.extrapolate.busy_s"] = b("dixmier.extrapolate")
    out["dixmier.extrapolate.calls"] = calls.get("dixmier.extrapolate", 0)
    out["dixmier.log_mean.calls"] = calls.get("dixmier.log_mean", 0)
    out["dixmier.pointwise.busy_s"] = b("dixmier.pointwise")
    out["weyl_calculus.star.busy_s"] = b("weyl_calculus.star")
    out["weyl_calculus.star.calls"] = calls.get("weyl_calculus.star", 0)
    out["weyl_calculus.heat.busy_s"] = b("weyl_calculus.heat")
    out["sphere_calculus.busy_s"] = b("sphere_calculus")
    out["symbolic.target_s"] = (b("sphere_calculus") + b("symbolic.leading")
                                + b("symbolic.sphere_integral"))
    out["cli.run_experiment.self_s"] = t["attribution"].get("root_self_s", 0.0)
    return out


def _check_attribution(gate, children):
    """Each traced child's span self times plus the tracer's bookkeeping
    must account for its wall time after import, up to a remainder outside
    the root span (tracer set-up, writing the report, process exit) of at
    most ATTRIBUTION_SHARE of that time plus ATTRIBUTION_SLACK_S.  Returns
    the pass's remainder, summed over its children."""
    outside = 0.0
    for c in children:
        if c.out is None or "trace" not in c.out or c.setup_s is None:
            gate.check(f"trace attribution: no trace, {c.diagnose()}", False)
            continue
        a = c.out["trace"]["attribution"]
        after_import = c.wall_s - c.setup_s
        rest = after_import - a["self_sum_s"] - a["bookkeeping_s"]
        gate.check(f"trace attribution: self {a['self_sum_s']:.6f} s + "
                   f"bookkeeping {a['bookkeeping_s']:.6f} s + outside the "
                   f"root span {rest:.6f} s = child wall after import "
                   f"{after_import:.6f} s",
                   0.0 <= rest <= ATTRIBUTION_SHARE * after_import
                   + ATTRIBUTION_SLACK_S)
        outside += rest
    return outside


def measure(name, seed, seconds, trace, reference, tiny=False):
    """Run one workload within about `seconds`; returns (result, environment)."""
    start = time.perf_counter()
    fresh_workdir()
    gate = Gate(reference)
    warm = Child(["warmup"], "warmup")
    if warm.code != 0 or warm.out is None:
        raise RuntimeError(f"warm-up child failed: {warm.diagnose()}")
    setups = []

    scaled_setups = []  # the warm-up child is left out with its compile

    def probe_setup(when):
        probe = Child(["probe"], f"probe-{when}")
        if probe.setup_s is None:
            raise RuntimeError(f"set-up probe failed: {probe.diagnose()}")
        setups.append(probe.setup_s)
        scaled_setups.append(probe.setup_s * REFERENCE_LOOP_S / probe.reference_s)
        return probe.wall_s + 2 * probe.reference_s

    probe_s = probe_setup("before")
    workload = Workload(name, seed, gate, tiny)
    plain, traced, rounds_s = [], [], []
    while True:
        t0 = time.perf_counter()
        inputs = workload.next_round()
        for tr in ((False, True) if trace else (False,)):
            children = workload.run_pass(inputs, tr)
            rec = _pass_record(children)
            (traced if tr else plain).append(rec)
            if tr:
                rec["unattributed_s"] = _check_attribution(gate, children)
        now = time.perf_counter()
        rounds_s.append(now - t0)
        # another round only if it and the last probe are expected to fit,
        # at the median round's and the first probe's pace
        if now - start + statistics.median(rounds_s) + probe_s > seconds:
            break
    probe_setup("after")

    setups += [s for rec in plain + traced for s in rec["setup_s"]]
    scaled_setups += [s for rec in plain + traced for s in rec["scaled_setup_s"]]
    raw = {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "setup_s": statistics.median(setups),
    }
    e2e = {
        "wall_s": statistics.median(r["wall_s"] * r["scale"] for r in plain),
        "cpu_s": statistics.median(r["cpu_s"] * r["cpu_scale"] for r in plain),
        "setup_s": statistics.median(scaled_setups),
        "peak_rss_mb": max(r["rss_mb"] for r in plain),
    }
    layers = {}
    if trace:
        per_pass = [dict(layer_metrics(r["traces"]),
                         **{"trace.unattributed_s": r["unattributed_s"]})
                    for r in traced]
        # median_low: each value is one traced pass's, so counts stay whole
        layers = {k: statistics.median_low(p[k] for p in per_pass)
                  for k in per_pass[0]}
        layers["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced) - raw["wall_s"])
    result = {"raw": raw,
              "correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed, "e2e": e2e, "layers": layers,
              "misses": gate.misses,
              "passes": [{k: v for k, v in r.items() if k != "traces"}
                         for r in plain]}
    env = dict(warm.out["environment"], **host_environment())
    return result, env


# ---------------------------------------------------------------------------
# environment

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def host_environment():
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "blas_threads": BLAS_THREADS, "git_commit": _git_commit()}


# ---------------------------------------------------------------------------

def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(result, trace, benchmark):
    specs = benchmark["per_layer" if trace else "end_to_end"]
    values = result["layers" if trace else "e2e"]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in specs}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "focktrace" / "cli.py").is_file():
        print(f"error: no focktrace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    benchmark = load_benchmark()
    try:
        result, env = measure(args.workload, args.seed, args.seconds,
                              bool(args.trace), reference)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line = result_line(result, args.trace, benchmark)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, **result}
    (WORK / "result.json").write_text(json.dumps(record, indent=1))
    for miss in result["misses"]:
        print(f"check failed: {miss}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
