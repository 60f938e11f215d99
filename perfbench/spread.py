"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads cd2cf halting --seeds 1-10

For every workload, runs ``perfbench/run.py`` once per seed, one run at a
time, and prints per end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median, beside a third of
the metric's bound from BENCHMARK.json.  The runs are also written to
``perfbench/results/spread-<time>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    record = {"started": time.strftime("%Y-%m-%dT%H:%M:%S"), "nproc": os.cpu_count(),
              "python": sys.version.split()[0], "seconds": args.seconds, "runs": {}}
    for w in args.workloads:
        runs = []
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                print(f"{w} seed {seed}: exit {out.returncode}", file=sys.stderr)
                return 1
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        record["runs"][w] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{w}: seeds {args.seeds[0]}-{args.seeds[-1]}, correct "
              f"{all(r['correct'] for r in runs)}, failed shares {sorted(shares)}")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            limit = f"{bound / 3:.4f}" if bound is not None else "-"
            print(f"  {name:28s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
                  f"  spread {spread:.4f}  bound/3 {limit}")
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
