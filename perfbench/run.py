"""Benchmark entry point: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each pass of the workload is a fresh
interpreter (``child.py``) with ``src`` on PYTHONPATH and no warm-up, as a
CLI call would be.  Untraced (``--trace 0``), at least three passes run, and
more while another one still fits in ``--seconds``; set-up is also sampled
by set-up-only interpreters between the passes.  Every time is in nominal
seconds: scaled by a reference loop timed beside it (``hostspeed``), so that
the host's drifting speed cancels out.  The end-to-end metrics are medians
over the passes.  Traced (``--trace 1``), one untraced and one traced pass
run, and the per-layer metrics come from the traced one; their times are
raw seconds, since the tracer's spans cannot be scaled one by one.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it holds the run's metadata, raw medians
included.  Failed items are listed on stderr.  Exits 1 without a result when
a pass cannot run.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CHILD_TIMEOUT_S = 150
MIN_PASSES = 3
SETUP_SAMPLES = 11
SETUPS_PER_PASS = 2

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

_FN_STATS = {"calls": "count", "self_s": "s", "distinct_ratio": "ratio",
             "calls_per_item": "1/item"}


def _fn(name, *stats):
    return [("%s.%s" % (name, s), _FN_STATS[s]) for s in stats]


def _layer(name):
    return [(name + ".self_s", "s"), (name + ".errors", "count")]


PER_LAYER = (
    _fn("core.injective", "calls", "self_s", "distinct_ratio")
    + _fn("core.opposite", "calls") + _fn("core.indecomposables", "calls")
    + _layer("core")
    + _fn("homology.pdim_table", "calls", "self_s", "distinct_ratio")
    + _fn("homology.idim_table", "calls", "self_s", "distinct_ratio")
    + _fn("homology.syzygy", "calls") + _fn("homology.cosyzygy", "calls")
    + _fn("homology.ext_dim", "calls", "self_s")
    + _fn("homology.domdim", "self_s") + _fn("homology.gorenstein_dim", "self_s")
    + _layer("homology")
    + _fn("tilting.tilting_criterion", "calls_per_item")
    + _fn("tilting.syzygy_correspondence", "calls_per_item")
    + _fn("tilting.split_projective_vertices", "calls")
    + _fn("tilting.classify", "self_s") + _fn("tilting.canonical_tilting", "self_s")
    + _fn("tilting.canonical_cotilting", "self_s")
    + _fn("tilting.verify_cotilting", "self_s")
    + _layer("tilting")
    + _fn("sweeps.generate_sequences", "self_s") + _layer("sweeps")
    + _fn("checks.grid_algebras", "self_s") + _layer("checks")
    + _fn("endo.end_algebra", "self_s") + _fn("endo.syzygy_step", "calls", "self_s")
    + _fn("endo.pd_over", "self_s") + _layer("endo")
    + [m for f in ("solve", "kernel_basis", "rank", "rref")
       for m in _fn("linalg." + f, "calls", "self_s")]
    + _layer("linalg")
    + _fn("oracle.oracle_hom_dim", "calls", "self_s")
    + _fn("oracle.oracle_ext1_dim", "calls", "self_s")
    + _layer("oracle")
    + [("trace.overhead_ratio", "ratio")]
)


class PassFailed(Exception):
    pass


def child(workload, seed, *flags):
    """Run one child interpreter to completion and return its record."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", workload, "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassFailed("pass exceeded %d s: %s" % (CHILD_TIMEOUT_S, " ".join(flags)))
    if proc.returncode != 0:
        raise PassFailed("pass exited %d:\n%s" % (proc.returncode, proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(count):
    """Highest whole percentile with at least 10 of count items beyond it."""
    return max(0, 100 * (count - 10) // count)


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with q% of values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


def run_metrics(passes):
    """End-to-end timings, in nominal seconds (see ``hostspeed``), over the passes.

    Every pass runs the same items in the same order in a fresh interpreter,
    so item i of one pass repeats item i of the others, each from cold.
    ``wall_s`` is the median of the passes' wall times; the latency metrics
    take each item's median over the passes, then the p50 and the tail of
    those.
    """
    per_item = [statistics.median(lat) for lat in zip(*(p["latencies_s"] for p in passes))]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "item_p50_ms": 1000 * statistics.median(per_item),
        "item_tail_ms": 1000 * percentile(per_item, tail_percentile(len(per_item))),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def untraced(workload, seed, seconds):
    """At least MIN_PASSES passes, then more while the next one (as long as
    the mean so far) still fits in seconds.

    Set-up-only interpreters run between the passes, so that a burst of
    contention does not land on all the set-up samples at once.
    """
    passes, setups = [], []
    start = time.monotonic()
    while True:
        passes.append(child(workload, seed))
        setups.append(passes[-1]["setup_s"])
        for _ in range(SETUPS_PER_PASS):
            setups.append(child(workload, seed, "--setup-only")["setup_s"])
        elapsed = time.monotonic() - start
        if (len(passes) >= MIN_PASSES
                and elapsed * (len(passes) + 1) / len(passes) > seconds):
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(child(workload, seed, "--setup-only")["setup_s"])
    values = dict(run_metrics(passes), setup_s=statistics.median(setups))
    return passes, {name: (values[name], unit) for name, unit in END_TO_END}


def layer_value(name, totals, items):
    parts = name.split(".")
    if len(parts) == 2:   # whole layer: sum over its functions
        layer, stat = parts
        idx = {"self_s": 1, "errors": 2}[stat]
        return sum(t[idx] for fn, t in totals.items() if fn.startswith(layer + "."))
    fn, stat = parts[0] + "." + parts[1], parts[2]
    calls, self_s, _, distinct = totals.get(fn, (0, 0.0, 0, None))
    if stat == "calls":
        return calls
    if stat == "self_s":
        return self_s
    if stat == "calls_per_item":
        return calls / items
    return distinct / calls if calls else 0.0   # distinct_ratio


def traced(workload, seed):
    base = child(workload, seed)
    rec = child(workload, seed, "--trace")
    items = len(rec["latencies_s"])
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_ratio":
            value = rec["wall_s"] / base["wall_s"]
        else:
            value = layer_value(name, rec["layers"], items)
        metrics[name] = (value, unit)
    return [base, rec], metrics


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_lines():
    """Net non-blank lines of src/nakayama/*.py (tracked beside the numbers, not gated)."""
    return sum(1 for p in sorted((SRC / "nakayama").glob("*.py"))
               for line in p.read_text().splitlines() if line.strip())


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "nakayama" / "__init__.py").is_file():
        sys.exit("perfbench: no package source at %s" % (SRC / "nakayama"))
    try:
        if args.trace:
            passes, metrics = traced(args.workload, args.seed)
        else:
            passes, metrics = untraced(args.workload, args.seed, args.seconds)
    except PassFailed as e:
        sys.exit("perfbench: %s" % e)

    digests = {p["inputs_digest"] for p in passes}
    if len(digests) != 1:
        sys.exit("perfbench: passes of one run saw different inputs")
    items = len(passes[0]["latencies_s"])
    attempted = sum(len(p["latencies_s"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for f in failures[:20]:
        print("FAILED %(item)s: error=%(error)s output=%(output)s" % f, file=sys.stderr)

    print("%s seed=%d trace=%d: %d passes x %d items, tail = p%d"
          % (args.workload, args.seed, args.trace, len(passes), items,
             tail_percentile(items)))
    for name, (value, unit) in metrics.items():
        print("  %-44s %16s %s" % (name, value if isinstance(value, int) else "%.6f" % value,
                                   unit))
    print("  %-44s %16.6f (%d of %d items)"
          % ("failed_frac", len(failures) / attempted, len(failures), attempted))
    print(json.dumps({"metadata": {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "items_per_pass": items,
        "tail_percentile": tail_percentile(items),
        "failed_frac": len(failures) / attempted,
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
        "reference_s": statistics.median(r for p in passes for r in p["reference_s"]),
        "nominal_reference_s": hostspeed.NOMINAL_S,
        "inputs_digest": digests.pop(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_nonblank_lines": src_lines(),
    }}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
