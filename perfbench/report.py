"""Print every end-to-end metric, the failure share, the tracing overhead
and every nonzero per-layer metric for each workload, one fresh process
per run, one run at a time.

    python3 perfbench/report.py [--seed 1] [workload ...]

For each workload it runs ``run.py`` untraced, then traced, with the
``run_seconds`` of ``BENCHMARK.json``.  The tracing overhead is traced
verify_s minus untraced verify_s.  With no workload named it reports
k3-lie, b53-lefschetz-pw and b52-mixed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SECONDS = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
DEFAULT_WORKLOADS = ("k3-lie", "b53-lefschetz-pw", "b52-mixed")


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=DEFAULT_WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for workload in args.workloads:
        plain = run(workload, args.seed, 0)
        traced = run(workload, args.seed, 1)
        print(f"{workload} (seed {args.seed})")
        for name, m in plain["metrics"].items():
            print(f"  {name:<28} {m['value']:12.4f} {m['unit']}")
        for label, res in (("untraced", plain), ("traced", traced)):
            share = res["failed"] / res["attempted"]
            print(f"  {'fail_share (' + label + ')':<28} {share:12.4f} "
                  f"({res['failed']}/{res['attempted']} jobs)"
                  f"{'' if res['correct'] else '  INCORRECT'}")
        layers = traced["metrics"]
        overhead = layers["trace.verify_s"]["value"] - plain["metrics"]["verify_s"]["value"]
        print(f"  {'trace.verify_s':<28} {layers['trace.verify_s']['value']:12.4f} s")
        print(f"  {'tracing overhead':<28} {overhead:12.4f} s")
        for name, m in layers.items():
            if m["value"] and name != "trace.verify_s":
                print(f"    {name:<40} {m['value']:12.4f} {m['unit']}")


if __name__ == "__main__":
    main()
