"""Record the reference outputs the benchmark's correctness gate compares to.

    python3 perfbench/record_reference.py        # rewrites perfbench/reference.json

Runs every job the workloads can draw, each in a fresh child exactly as the
benchmark does, and stores each report check's `computed` value.  It refuses
to record a job whose checks do not pass.  Re-record only when a change is
meant to move the numbers, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import random
import sys

from run import (CALCULUS_SEEDS, CALCULUS_SEEDS_TINY, DIAGONAL, DIAGONAL_TINY,
                 HERE, MERGE, MERGE_TINY, experiment_child, fresh_workdir,
                 merge_child, merge_key)

MERGE_POOL = 12


def _computed(child, report):
    if child.code != 0 or not report.is_file():
        raise RuntimeError(f"reference job failed: {child.diagnose()}")
    checks = json.loads(report.read_text())["checks"]
    return {c["name"]: c["computed"] for c in checks}


def record(tiny=False):
    fresh_workdir()
    prefix = "tiny/" if tiny else ""
    ref = {"experiments": {}, "merge": {}}
    count = 0
    jobs = [(f"{prefix}{name}/{key}", exp, cfg, 0)
            for name, group in (DIAGONAL_TINY if tiny else DIAGONAL).items()
            for key, exp, cfg in group]
    jobs += [(f"{prefix}symbolic-dense/calculus-check/seed={s}", "calculus-check",
              None, s) for s in (CALCULUS_SEEDS_TINY if tiny else CALCULUS_SEEDS)]
    for key, experiment, config, seed in jobs:
        count += 1
        child, report = experiment_child(f"ref-{count}", experiment, config,
                                         seed, False)
        ref["experiments"][key] = _computed(child, report)

    size = MERGE_TINY if tiny else MERGE
    rng = random.Random(11)
    scalings = [[round(rng.uniform(0.2, 3.0), 6), round(rng.uniform(0.2, 3.0), 6)]
                for _ in range(MERGE_POOL)]
    child = merge_child("ref-merge", size, scalings, False)
    if child.code != 0 or child.out is None:
        raise RuntimeError(f"reference merge job failed: {child.diagnose()}")
    ref["merge"][merge_key(size, tiny)] = {"scalings": scalings,
                                          **child.out["merge"]}
    return ref


def main():
    ref = record()
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
