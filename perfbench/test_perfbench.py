"""Tests of the benchmark itself (not collected by the package's test run).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
import time
from pathlib import Path

import pytest

from nakayama import core, sweeps, tilting

import run
import hostspeed
import tracer
import workloads
from child import check, run_items

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def pins():
    return workloads.load_pins()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_slice_of_each_workload_matches_pins(name, pins):
    wl = workloads.WORKLOADS[name]
    items = wl.generate(workloads.DEFAULT_SEED)[:3]
    outputs, timing = run_items(wl, items, None)
    assert check(wl, items, outputs, pins) == []
    assert len(timing["latencies_s"]) == 3


def test_mismatch_and_exception_each_fail_one_item(pins):
    wl = workloads.WORKLOADS["classify-grid"]
    items = wl.generate(workloads.DEFAULT_SEED)[:3]
    outputs, _ = run_items(wl, items, None)
    outputs[1] = ("{}", None)
    outputs[2] = (None, "ValueError: boom")
    failed = check(wl, items, outputs, pins)
    assert [f["item"] for f in failed] == [wl.key(items[1]), wl.key(items[2])]


def _pinned(name, wl, item, pins):
    if name == "endo-ladder":
        return wl.key(item).split("#")[0] in pins["ladder"]
    section = "oracle" if name == "oracle-grid" else "classify"
    return wl.key(item) in pins[section]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_order_and_sample_not_pins(name, pins):
    wl = workloads.WORKLOADS[name]
    default = [wl.key(i) for i in wl.generate(workloads.DEFAULT_SEED)]
    held_out = wl.generate(workloads.HELD_OUT_SEED)
    assert default == [wl.key(i) for i in wl.generate(workloads.DEFAULT_SEED)]
    assert default != [wl.key(i) for i in held_out]
    if name == "classify-lifted":
        assert set(default) != set(map(wl.key, held_out))
    else:
        assert sorted(default) == sorted(map(wl.key, held_out))
    assert all(_pinned(name, wl, i, pins) for i in held_out)
    assert all(_pinned(name, wl, i, pins)
               for i in wl.generate(workloads.DEFAULT_SEED))


def test_lifted_sample_shape():
    algs = workloads.WORKLOADS["classify-lifted"].generate(workloads.DEFAULT_SEED)
    assert len(algs) == 50 and len(set(algs)) == 50
    assert sorted(a.n for a in algs) == sorted(list(workloads.LIFTED_N) * 10)
    for a in algs:
        assert 200 <= min(a.c) < 400
        rep = sweeps.difference_class_rep("cyclic", a.c)
        assert max(rep) <= workloads.LIFTED_C   # same difference class as its base


def test_ladder_pins_are_consistent(pins):
    for n, k in workloads.LADDER:
        rung = pins["ladder"][core.format_algebra(workloads.ladder_algebra(n, k))]
        assert len(rung["pd"]) == n
        assert rung["gldim_over"] == max(rung["pd"], key=int)
    dims = [pins["ladder"][core.format_algebra(workloads.ladder_algebra(n, k))]["dim_end"]
            for n, k in workloads.LADDER]
    assert dims == [54, 86, 110]


def test_tail_percentile_leaves_ten_items_beyond():
    assert [run.tail_percentile(n) for n in (1091, 182, 50, 51)] == [99, 94, 80, 80]
    values = list(range(1, 51))
    assert run.percentile(values, 80) == 40
    assert run.percentile(values, 50) == 25
    assert run.percentile(values, 0) == 1


def test_sampler_takes_its_runs_out_and_scales_by_the_runs_around():
    sampler = hostspeed.Sampler()
    sampler.runs = [(0.0, 1.0), (10.0, 12.0), (20.0, 21.0), (30.0, 31.0)]
    own, scaled = sampler.scaled(5.0, 15.0)
    assert own == 8.0           # the run at 10..12 lies inside
    assert scaled == pytest.approx(8.0 * hostspeed.NOMINAL_S / (4.0 / 3))
    assert sampler.scaled(22.0, 25.0) == (3.0, pytest.approx(3.0 * hostspeed.NOMINAL_S))


def test_sampler_ticks_inside_a_long_item():
    sampler = hostspeed.Sampler()
    with sampler.installed():
        start = time.perf_counter()
        while time.perf_counter() - start < 6 * hostspeed.EVERY_S:
            pass
        end = time.perf_counter()
    inside = [(s, e) for s, e in sampler.runs if start <= s and e <= end]
    assert len(inside) >= 3 and len(sampler.runs) == len(inside) + 2
    own, _ = sampler.scaled(start, end)
    assert own == pytest.approx(end - start - sum(e - s for s, e in inside))


def test_self_times_sum_to_root_span():
    t = tracer.Tracer()
    with t.installed():
        with t.root("bench.item"):
            tilting.classify(core.AdmissibleSequence("cyclic", (3, 3, 4, 4)))
    spans = list(t.spans)
    root = spans[-1]
    assert root[1] == 0 and all(s[1] != 0 for s in spans[:-1])
    assert len(spans) > 100
    selfs = tracer.self_times(spans)
    assert sum(selfs.values()) == pytest.approx(root[4] - root[3], abs=1e-9)
    assert min(selfs.values()) > -1e-9
    t.fold()
    totals = t.totals()
    assert totals["tilting.classify"][0] == 1
    assert totals["tilting.tilting_criterion"][0] == 3


def _bindings(functions):
    """Every (module, attribute) bound to one of the functions, and its value."""
    ids = {id(f) for f in functions}
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            for attr, value in list(getattr(mod, "__dict__", {}).items())
            if id(value) in ids}


def test_every_binding_is_patched_then_restored():
    originals = tracer.layer_functions()
    before = _bindings(originals.values())
    # re-exports and `from .core import injective` style imports are all covered
    assert ("nakayama.homology", "injective") in before
    assert ("nakayama", "classify") in before
    t = tracer.Tracer()
    try:
        assert t.install() == len(before)
        for (mod, attr), value in before.items():
            patched = vars(sys.modules[mod])[attr]
            assert patched is not value and patched.__wrapped__ is value
        wl = workloads.WORKLOADS["oracle-grid"]
        run_items(wl, wl.generate(workloads.DEFAULT_SEED)[:2], t)
    finally:
        t.restore()
    assert _bindings(originals.values()) == before
    assert t.totals()["oracle.oracle_hom_dim"][0] > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
