"""One cold pass of one workload, in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py --workload NAME --seed N [--trace | --setup-only]

``run.py`` starts this with ``src`` on PYTHONPATH.  Set-up time runs from
before ``import nakayama`` to the end of input generation; ``setup_s`` is
that time in nominal seconds (see ``hostspeed``), scaled by the median of
reference runs just before and just after it.  Items run one after another
(closed loop, one thread); each item's latency covers only the call into the
package, and outputs are checked against the pins after the last item, so
``wall_s`` (the sum of the latencies) holds no checking.  With ``--trace``
the layer functions are wrapped for the whole pass and restored before exit.
"""

import argparse
import json
import resource
import time
import traceback
from contextlib import nullcontext

import hostspeed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    refs = [hostspeed.time_reference() for _ in range(hostspeed.SETUP_RUNS)]
    t0 = time.perf_counter()
    import nakayama  # noqa: F401  (import time is part of set-up)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error("unknown workload %r; choose from %s"
                 % (args.workload, ", ".join(workloads.WORKLOADS)))
    wl = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    with tracer.installed() if tracer else nullcontext():
        with tracer.root("bench.setup") if tracer else nullcontext():
            items = wl.generate(args.seed)
        setup_s = time.perf_counter() - t0
        # imported after set-up: statistics loads fractions, which is part
        # of the package's own import time
        import statistics
        refs += [hostspeed.time_reference() for _ in range(hostspeed.SETUP_RUNS)]
        record = {"setup_raw_s": setup_s,
                  "setup_s": setup_s * hostspeed.scale(statistics.median(refs))}
        if not args.setup_only:
            if tracer:
                tracer.fold()
            outputs, timing = run_items(wl, items, tracer)
            record.update(timing)
            if tracer:
                record["layers"] = tracer.totals()
    record["inputs_digest"] = workloads.inputs_digest(wl, items)
    if not args.setup_only:
        record["failures"] = check(wl, items, outputs, workloads.load_pins())
    print(json.dumps(record))


def run_items(wl, items, tracer):
    """Run every item in order; returns ([(output, error)], timing record).

    A ``hostspeed.Sampler`` times the reference loop before the first item,
    after the last and every ``hostspeed.EVERY_S`` in between: from a timer,
    inside the items, when untraced; between the items when traced, so that
    no reference run lands in a span.  ``latencies_s`` are in nominal
    seconds and ``raw_latencies_s`` as measured, both without the sampler's
    own time.
    """
    sampler = hostspeed.Sampler()
    state = wl.start()
    outputs = []
    intervals = []
    clock = time.perf_counter
    with sampler.installed(timer=tracer is None):
        for item in items:
            start = clock()
            try:
                with tracer.root("bench.item") if tracer else nullcontext():
                    out = wl.run(item, state)
                err = None
            except Exception:  # a raising item is a failed item, not a failed run
                out, err = None, traceback.format_exc()
            intervals.append((start, clock()))
            outputs.append((out, err))
            if tracer:
                tracer.fold()
                sampler.tick_if_due()
    timed = [sampler.scaled(s, e) for s, e in intervals]
    references = [e - s for s, e in sampler.runs]
    raw = [r for r, _ in timed]
    scaled = [x for _, x in timed]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return outputs, {"latencies_s": scaled, "raw_latencies_s": raw,
                     "wall_s": sum(scaled), "raw_wall_s": sum(raw),
                     "reference_s": references, "peak_rss_mb": rss_mb}


def check(wl, items, outputs, pins):
    """One failure record per item that raised or differs from its pin."""
    return [{"item": wl.key(item), "error": err, "output": out}
            for item, (out, err) in zip(items, outputs)
            if err is not None or not wl.check(item, out, pins)]


if __name__ == "__main__":
    main()
