"""scripts/record_bench.py: parsing and aggregation of canned run.py output."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "record_bench",
    Path(__file__).resolve().parent.parent / "scripts" / "record_bench.py")
record_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record_bench)

META = {"workload": "w", "seed": 0, "trace": 0, "python": "3.11.7", "nproc": 2,
        "git_sha": "abc123", "src_nonblank_lines": 2500}


def run_output(wall, rss, failed=0):
    """What perfbench/run.py prints: a table, the metadata line, the result."""
    result = {"correct": not failed, "attempted": 10, "failed": failed,
              "metrics": {"wall_s": {"value": wall, "unit": "s"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"},
                          "setup_s": {"value": 0.07, "unit": "s"}}}
    return "\n".join(["w seed=0 trace=0: 3 passes x 10 items, tail = p0",
                      "  wall_s  %.6f s" % wall,
                      json.dumps({"metadata": META}),
                      json.dumps(result)]) + "\n"


def test_parse_run_output_reads_the_last_two_lines():
    meta, result = record_bench.parse_run_output(run_output(0.5, 21.0))
    assert meta == META
    assert result["metrics"]["wall_s"] == {"value": 0.5, "unit": "s"}


def test_aggregate_gives_median_and_quartiles_per_workload():
    walls = {"a": [0.5, 0.1, 0.4, 0.2, 0.3], "b": [2.0, 4.0]}
    runs = []
    for r in range(5):
        for name in ("a", "b"):
            if r < len(walls[name]):
                runs.append((name,) + record_bench.parse_run_output(
                    run_output(walls[name][r], 20.0 + r, failed=int(name == "b" and r))))
    rec = record_bench.aggregate(12, [3, 4, 5, 6, 7], runs, ["wall_s", "peak_rss_mb"])
    assert rec["number"] == 12 and rec["seeds"] == [3, 4, 5, 6, 7]
    assert (rec["python"], rec["nproc"], rec["git_sha"], rec["src_nonblank_lines"]) \
        == ("3.11.7", 2, "abc123", 2500)
    a, b = rec["workloads"]["a"], rec["workloads"]["b"]
    assert list(rec["workloads"]) == ["a", "b"]
    assert a["metrics"]["wall_s"] == {"unit": "s", "median": 0.3, "q1": 0.2,
                                      "q3": 0.4, "values": walls["a"]}
    assert a["metrics"]["peak_rss_mb"]["median"] == 22.0
    assert set(a["metrics"]) == {"wall_s", "peak_rss_mb"}
    assert (a["runs"], a["correct"], a["attempted"], a["failed"]) == (5, True, 50, 0)
    assert b["metrics"]["wall_s"]["median"] == 3.0
    assert (b["metrics"]["wall_s"]["q1"], b["metrics"]["wall_s"]["q3"]) == (2.5, 3.5)
    assert (b["runs"], b["correct"], b["failed"]) == (2, False, 1)


def test_single_run_has_collapsed_quartiles():
    runs = [("a",) + record_bench.parse_run_output(run_output(0.25, 20.0))]
    got = record_bench.aggregate(12, [0], runs, ["wall_s"])
    assert got["workloads"]["a"]["metrics"]["wall_s"] == {
        "unit": "s", "median": 0.25, "q1": 0.25, "q3": 0.25, "values": [0.25]}

