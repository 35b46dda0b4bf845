"""Record BENCH_<n>.json: medians and quartiles of the benchmark's end-to-end metrics.

    python3 scripts/record_bench.py --number N [--runs K] [--seed S]

N numbers the output, BENCH_<N>.json; give each recorded change the next
number.  Run from anywhere inside the repository.  Each run calls
``perfbench/run.py --trace 0`` once per workload listed in BENCHMARK.json,
for as many seconds as BENCHMARK.json sets, with seed S + run number, so the
runs see different item orders.  BENCH_<N>.json at the repository root then
holds, per workload, the median and quartiles of every end-to-end metric
over the runs, with the per-run values, plus the Python version, CPU count,
git SHA and non-blank src line count that run.py reports.  Exits 1 when a
run produces no result.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_run_output(stdout):
    """(metadata, result) from the last two stdout lines of perfbench/run.py."""
    *_, meta_line, result_line = stdout.strip().splitlines()
    return json.loads(meta_line)["metadata"], json.loads(result_line)


def summarize(values):
    """Median and quartiles (inclusive method) of one metric over the runs."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": list(values)}


def aggregate(number, seeds, runs, metric_names):
    """The BENCH_<number>.json record for runs, a list of (workload, metadata,
    result) triples in run order from one checkout, keeping the metrics in
    metric_names."""
    meta = runs[0][1]
    workloads = {}
    for name in dict.fromkeys(w for w, _, _ in runs):
        results = [res for w, _, res in runs if w == name]
        workloads[name] = {
            "runs": len(results),
            "correct": all(res["correct"] for res in results),
            "attempted": sum(res["attempted"] for res in results),
            "failed": sum(res["failed"] for res in results),
            "metrics": {
                metric: dict(unit=results[0]["metrics"][metric]["unit"],
                             **summarize([res["metrics"][metric]["value"]
                                          for res in results]))
                for metric in metric_names},
        }
    return {"number": number, "seeds": list(seeds),
            **{key: meta[key] for key in
               ("python", "nproc", "git_sha", "src_nonblank_lines")},
            "workloads": workloads}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--number", type=int, required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.runs < 1:
        sys.exit("record_bench: --runs must be positive")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_names = [m["name"] for m in bench["end_to_end"]]
    seeds = [args.seed + r for r in range(args.runs)]
    runs = []
    for seed in seeds:
        for workload in (w["name"] for w in bench["workloads"]):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit("record_bench: %s seed %d exited %d:\n%s" % (
                    workload, seed, proc.returncode, proc.stderr.strip()))
            meta, result = parse_run_output(proc.stdout)
            runs.append((workload, meta, result))
            print("%s seed=%d wall_s=%.4f correct=%s" % (
                workload, seed, result["metrics"]["wall_s"]["value"],
                result["correct"]), flush=True)
    out = ROOT / ("BENCH_%d.json" % args.number)
    out.write_text(json.dumps(aggregate(args.number, seeds, runs, metric_names),
                              indent=1) + "\n")
    print("wrote %s" % out)


if __name__ == "__main__":
    main()
