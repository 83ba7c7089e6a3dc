"""End-to-end timing of the six CLI experiments at their default configs.

Each experiment runs `python -m focktrace.cli --experiment NAME` in a fresh
subprocess, so imports are cold, N times in turn.  A first row, `--help`,
runs `python -m focktrace.cli --help` the same way: the import, argument
parsing and exit that every CLI run pays, its per-process floor.
For each experiment the script records the median wall time (spawn to
exit, imports included) and the median peak resident set size (`os.wait4`),
along with every sample and exit code.  Each point also records the kernel
backend and the Python and numpy versions that its children import (and
mpmath's, where it is installed, though focktrace does not import it), and
the machine.

A point is a label and the directory that holds the focktrace package
(default: this checkout's src/).  Each point's package is copied into a
temporary directory whose path has the same length for every point, and
its children import it from there: the peak RSS of a run moves by several
MB with the length of the import path alone.  The copy is compiled to
bytecode first, as an install would leave it, so no run pays for
compiling the package.  With several points, every round runs each
experiment once per point, alternating which point goes first, so that
a drift in host speed falls on all points alike.  Round r
passes `--seed r` (only calculus-check draws random numbers), so a run of
R repeats covers calculus-check's seeds 0 to R - 1.

Every run's check values (`computed` and `target`) are kept per point and
round; any check whose values differ between points is printed, so a
timing comparison also shows whether the points compute the same numbers.
The points of the run are written to BENCH_e2e.json at the repository
root (or --out): a point replaces the one of the same label there, and the
others are kept, so the file keeps the trajectory of earlier runs.

Run:  python benchmarks/bench_e2e.py --point after [--repeats 5]
      python benchmarks/bench_e2e.py --point before=../parent/src --point after
"""

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPERIMENTS = ("model-operator", "toeplitz-trace", "hankel-trace",
               "commutator-trace", "mixed-trace", "calculus-check")
# the row of the per-process floor, then one row per experiment
FLOOR = "--help"
ROWS = (FLOOR,) + EXPERIMENTS
_ENVIRONMENT = """
import importlib.util, json, platform, numpy
from focktrace import _kernels
env = {"backend": _kernels.ACTIVE_BACKEND, "python": platform.python_version(),
       "numpy": numpy.__version__}
if importlib.util.find_spec("mpmath"):
    import mpmath
    env["mpmath"] = mpmath.__version__
print(json.dumps(env))
"""


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_once(name: str, env: dict, report: Path, seed: int):
    """Wall seconds, peak RSS in MB, exit code and check values of one CLI
    run of a row; the check values map each check's name to [computed,
    target], and are None when the run wrote no report."""
    args = [FLOOR] if name == FLOOR else [
        "--experiment", name, "--out", str(report), "--seed", str(seed)]
    cmd = [sys.executable, "-m", "focktrace.cli", *args]
    report.unlink(missing_ok=True)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    checks = None
    if report.exists():
        checks = {c["name"]: [c["computed"], c["target"]]
                  for c in json.loads(report.read_text())["checks"]}
    # ru_maxrss: KiB
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, checks


def summarize(samples) -> list:
    results = []
    for name in ROWS:
        walls, rss, codes, checks = (list(x) for x in zip(*samples[name]))
        results.append({"experiment": name,
                        "wall_s": statistics.median(walls),
                        "peak_rss_mb": statistics.median(rss),
                        "wall_samples": walls, "rss_samples": rss,
                        "exit_codes": codes, "check_samples": checks})
    return results


def differing_checks(samples, labels) -> list:
    """(experiment, round, check, {label: [computed, target]}) for every
    check whose values are not the same at every point; floats compare by
    their JSON spelling, so -0.0 and 0.0 differ."""
    out = []
    for name in ROWS:
        for r, runs in enumerate(zip(*(samples[label][name] for label in labels))):
            values = {label: run[3] or {} for label, run in zip(labels, runs)}
            for check in sorted(set().union(*values.values())):
                seen = {label: v.get(check) for label, v in values.items()}
                if len({json.dumps(v) for v in seen.values()}) > 1:
                    out.append((name, r, check, seen))
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--point", action="append", required=True,
                        metavar="LABEL[=SRC]",
                        help="a label, and the directory that holds the "
                             "focktrace package (default: this checkout's)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=str(ROOT / "BENCH_e2e.json"))
    args = parser.parse_args()
    sources = {}
    for point in args.point:
        label, _, src = point.partition("=")
        sources[label] = Path(src or ROOT / "src").resolve()
    labels = list(sources)
    samples = {label: {name: [] for name in ROWS} for label in labels}
    with tempfile.TemporaryDirectory() as tmp:
        envs = {}
        for i, label in enumerate(labels):
            # names of one width, so every copy's path has the same length
            home = Path(tmp, f"{i:0{len(str(len(labels)))}d}")
            shutil.copytree(sources[label] / "focktrace", home / "focktrace",
                            ignore=shutil.ignore_patterns("__pycache__"))
            compileall.compile_dir(home / "focktrace", quiet=1)
            envs[label] = child_env(home)
        environments = {label: json.loads(subprocess.run(
            [sys.executable, "-c", _ENVIRONMENT], env=env, check=True,
            capture_output=True, text=True).stdout) for label, env in envs.items()}
        report = Path(tmp, "report.json")
        for r in range(args.repeats):
            for name in ROWS:
                for label in labels if r % 2 == 0 else labels[::-1]:
                    samples[label][name].append(
                        run_once(name, envs[label], report, r))

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
    differing = differing_checks(samples, labels)
    for name, r, check, seen in differing:
        print(f"differs: {name} (seed {r}) {check}: {seen}")
    if len(labels) > 1 and not differing:
        print(f"check values identical at every point, seeds 0-{args.repeats - 1}")
    out = Path(args.out)
    kept = json.loads(out.read_text())["points"] if out.exists() else []
    kept = [p for p in kept if p["label"] not in sources]
    out.write_text(json.dumps({"points": kept + points}, indent=1) + "\n")


if __name__ == "__main__":
    main()
