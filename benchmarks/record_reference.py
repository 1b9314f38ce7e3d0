"""Record the reference outputs that the benchmark compares later runs with.

    python3 benchmarks/record_reference.py          # every input seed, from scratch
    python3 benchmarks/record_reference.py 0 3 7    # re-record chosen input seeds only

For every input seed (0 to workloads.REFERENCE_SEEDS - 1) it runs one pass of
the figures, thermal and scenarios workloads, at full and at smoke-test size,
requires every output to pass its checks, and writes the sha256 of each
figure and scenario CSV and the sampled thermal values to
benchmarks/reference.json. Run it only at a commit whose outputs are right:
the benchmark counts any later difference as a failed job.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads

RECORDED = ("figures", "thermal", "scenarios")


def record(seeds: list) -> dict:
    by_seed = {}
    workdir = run.WORK_ROOT / f"record-{os.getpid()}"
    try:
        for seed in seeds:
            for workload in RECORDED:
                for tiny in (False, True):
                    jobs = workloads.build(workload, seed, workdir, tiny)
                    done = run.run_pass(workload, jobs, reference=None)
                    if done["failed"]:
                        raise SystemExit(f"seed {seed} {workload}: outputs fail their checks:"
                                         f" {done['failed']}")
                    for job in jobs:
                        fp = workloads.fingerprint(job.fingerprint, done["outputs"][job.label])
                        by_seed.setdefault(str(seed), {})[f"{workload}/{job.label}"] = fp
            print(f"seed {seed} recorded", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return by_seed


def main(argv: list) -> int:
    seeds = [int(s) for s in argv] or list(range(workloads.REFERENCE_SEEDS))
    if any(not 0 <= s < workloads.REFERENCE_SEEDS for s in seeds):
        raise SystemExit(f"input seeds run from 0 to {workloads.REFERENCE_SEEDS - 1}")
    doc = record(seeds)
    if argv:
        doc = dict(json.loads(workloads.REFERENCE_PATH.read_text(encoding="utf-8")), **doc)
    text = json.dumps(doc, indent=1, sort_keys=True)
    workloads.REFERENCE_PATH.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
