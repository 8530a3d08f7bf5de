"""Warm in-process time of each job of a perfbench workload.

Runs the workload's jobs in order, ``--repeats`` times over, in one
process, after one untimed pass that imports lazily and fills caches; each
job's time is its minimum over the timed passes.  Prints one line per job
in milliseconds, then their sum and geometric mean.  Every outcome of the
untimed pass is checked against the expected tables of
``perfbench/workloads.py``, and a wrong one exits 1.

    python tools/job_times.py --workload b52-mixed [--repeats 7] [--seed 1]

The timings are a per-job view for comparing two checkouts on one
machine; ``perfbench/run.py`` stays the benchmark (one cold pass per
process).  Jobs and their inputs come from ``perfbench/workloads.py`` and
``perfbench/nilpotents.py``, and llvkit from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import math
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from llvkit import models, rings                           # noqa: E402
from llvkit.rings import QuadraticForm                     # noqa: E402

import nilpotents                                          # noqa: E402
from workloads import JOBS, WORKLOADS                      # noqa: E402


def make_inputs(workload, seed, tmp):
    """The inputs ``perfbench/run.py`` generates for the workload: the
    saved (5,2) ring file and the seeded nilpotents."""
    inputs = {}
    if workload.ring_file:
        form = QuadraticForm.diagonal([1, 1, 1, -1, -1])
        big = models.bogomolov_model(form, 2)
        path = Path(tmp) / "ring-5-2.json"
        rings.save_ring(big, path)
        inputs["ring_file"] = str(path)
    if workload.nilpotents:
        inputs["nilpotents"] = nilpotents.generate(seed, workload.nilpotents)
    return inputs


def job_times(workload_name, repeats, seed):
    """({job id: min seconds}, {job id: problems of the untimed pass})."""
    workload = WORKLOADS[workload_name]
    jobs = [JOBS[job_id] for job_id in workload.jobs]
    with tempfile.TemporaryDirectory() as tmp:
        inputs = make_inputs(workload, seed, tmp)
        problems = {job.id: job.check(job.run(inputs)) for job in jobs}
        best = {job.id: math.inf for job in jobs}
        for _ in range(repeats):
            for job in jobs:
                start = time.perf_counter()
                job.run(inputs)
                best[job.id] = min(best[job.id], time.perf_counter() - start)
    return best, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    best, problems = job_times(args.workload, args.repeats, args.seed)
    width = max(map(len, best))
    for job_id, secs in best.items():
        print(f"{job_id:<{width}}  {secs * 1e3:9.2f} ms")
    total = sum(best.values())
    geomean = math.exp(sum(map(math.log, best.values())) / len(best))
    print(f"{'sum':<{width}}  {total * 1e3:9.2f} ms")
    print(f"{'geomean':<{width}}  {geomean * 1e3:9.2f} ms")
    wrong = {job_id: p for job_id, p in problems.items() if p}
    for job_id, p in wrong.items():
        print(f"{job_id}: wrong outcome: {'; '.join(p)}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
