"""End-to-end timing of the six CLI experiments at their default configs.

Each experiment runs `python -m focktrace.cli --experiment NAME` in a fresh
subprocess, so imports and the moment-row cache are cold, N times in turn.
For each experiment the script records the median wall time (spawn to
exit, imports included) and the median peak resident set size (`os.wait4`),
along with every sample and exit code.  Each point also records the kernel
backend and the Python, numpy and mpmath versions that its children import,
and the machine.

A point is a label and the directory that holds the focktrace package
(default: this checkout's src/).  With several points, every round runs
each experiment once per point, alternating which point goes first, so
that a drift in host speed falls on all points alike.  The points of the
run are written to BENCH_e2e.json at the repository root, replacing what
it held.

Run:  python benchmarks/bench_e2e.py --point after [--repeats 5]
      python benchmarks/bench_e2e.py --point before=../parent/src --point after
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPERIMENTS = ("model-operator", "toeplitz-trace", "hankel-trace",
               "commutator-trace", "mixed-trace", "calculus-check")
_ENVIRONMENT = ("import json, platform, mpmath, numpy; "
                "from focktrace import _kernels; "
                "print(json.dumps({'backend': _kernels.ACTIVE_BACKEND, "
                "'python': platform.python_version(), "
                "'numpy': numpy.__version__, 'mpmath': mpmath.__version__}))")


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_once(name: str, env: dict, report: str):
    """Wall seconds, peak RSS in MB and exit code of one CLI run."""
    cmd = [sys.executable, "-m", "focktrace.cli", "--experiment", name,
           "--out", report]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    return wall, usage.ru_maxrss / 1024.0, proc.returncode  # ru_maxrss: KiB


def summarize(samples) -> list:
    results = []
    for name in EXPERIMENTS:
        walls, rss, codes = (list(x) for x in zip(*samples[name]))
        results.append({"experiment": name,
                        "wall_s": statistics.median(walls),
                        "peak_rss_mb": statistics.median(rss),
                        "wall_samples": walls, "rss_samples": rss,
                        "exit_codes": codes})
    return results


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--point", action="append", required=True,
                        metavar="LABEL[=SRC]",
                        help="a label, and the directory that holds the "
                             "focktrace package (default: this checkout's)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=str(ROOT / "BENCH_e2e.json"))
    args = parser.parse_args()
    envs = {}
    for point in args.point:
        label, _, src = point.partition("=")
        envs[label] = child_env(Path(src or ROOT / "src").resolve())

    environments = {label: json.loads(subprocess.run(
        [sys.executable, "-c", _ENVIRONMENT], env=env, check=True,
        capture_output=True, text=True).stdout) for label, env in envs.items()}
    samples = {label: {name: [] for name in EXPERIMENTS} for label in envs}
    labels = list(envs)
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.json")
        for r in range(args.repeats):
            for name in EXPERIMENTS:
                for label in labels if r % 2 == 0 else labels[::-1]:
                    samples[label][name].append(run_once(name, envs[label], report))

    machine = {"processor": platform.processor() or platform.machine(),
               "cpus": os.cpu_count()}
    points = []
    for label in labels:
        results = summarize(samples[label])
        print(f"{label}: median of {args.repeats} fresh processes, "
              f"backend {environments[label]['backend']}")
        for res in results:
            print(f"  {res['experiment']:<18}{res['wall_s']:>8.2f} s"
                  f"{res['peak_rss_mb']:>8.0f} MB  exit {res['exit_codes']}")
        points.append({"label": label, "repeats": args.repeats,
                    "environment": environments[label], "machine": machine,
                    "results": results})
    Path(args.out).write_text(json.dumps({"points": points}, indent=1) + "\n")


if __name__ == "__main__":
    main()
