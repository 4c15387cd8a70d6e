"""The harness's own arithmetic (collected by tier-1; times nothing).

Every assertion here is about a number the ledger *computes* — which
percentile it reports, what a seed generates, how lateness and misses
are accounted, which layer a file's time lands in, what ``--compare``
concludes — never about how long anything took.
"""

from __future__ import annotations

import json
import os
import re
from types import SimpleNamespace

import pytest

from . import compare, loadgen, measure, profiler, spec, stats


# ------------------------------------------------------------- percentiles
def test_percentile_interpolates_like_numpy():
    xs = [10.0, 20.0, 30.0, 40.0]
    assert stats.percentile(xs, 0) == 10.0
    assert stats.percentile(xs, 100) == 40.0
    assert stats.percentile(xs, 50) == 25.0
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile(xs, 101)


@pytest.mark.parametrize("n, tail", [
    (9, 50.0), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_supported_tail_keeps_ten_samples_beyond(n, tail):
    assert stats.supported_tail(n) == tail
    if tail > 50.0:
        assert round(n * (100.0 - tail) / 100.0, 6) >= stats.MIN_BEYOND


def test_iqr_share_is_the_contract_spread():
    values = [100.0, 101.0, 99.0, 102.0, 98.0, 100.0, 103.0, 97.0,
              100.0, 100.0]
    import statistics
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.iqr_share(values) == pytest.approx((q3 - q1) / 100.0)
    assert stats.iqr_share([5.0] * 10) == 0.0
    # sixteen windows pin their median four times tighter than one
    assert stats.median_uncertainty(values + values[:6]) == pytest.approx(
        stats.iqr_share(values + values[:6]) / 4.0)


def test_windows_report_medians_not_means():
    w = measure.Windows()
    w.add([0.010] * 10)             # 100 ops/s
    w.add([0.010] * 10)
    w.add([0.100] * 10)             # one stalled window: 10 ops/s
    m = w.metrics()
    assert m["ops_per_s"] == pytest.approx(100.0)
    assert m["latency_p50_ms"] == pytest.approx(10.0)
    assert w.samples == 30 and len(w) == 3
    w.add([], seconds=1.0)          # an empty window is not a window
    assert len(w) == 3
    assert w.spreads()["ops_per_s"] > 0.25


def test_windows_take_an_explicit_wall_time():
    w = measure.Windows()
    w.add([0.2, 0.2, 0.2, 0.2], seconds=0.5)    # overlapping requests
    assert w.metrics()["ops_per_s"] == pytest.approx(8.0)


def test_windows_normalise_by_the_machine_slowdown():
    from . import machine
    assert machine.slowdown(machine.REFERENCE_PY_MS / 1e3) == 1.0
    slow = machine.slowdown(2 * machine.REFERENCE_PY_MS / 1e3)
    assert slow == 2.0
    w = measure.Windows()
    for _ in range(3):      # the same work on a machine running 2x slow
        w.add([0.020] * 10, slowdown=slow)
    m = w.metrics()
    assert m["ops_per_s"] == pytest.approx(100.0)
    assert m["latency_p50_ms"] == pytest.approx(10.0)
    assert w.info()["raw_ops_per_s"] == pytest.approx(50.0)
    assert w.pooled == [pytest.approx(0.010)] * 30


# -------------------------------------------------------------- generators
def test_poisson_schedule_is_a_pure_function_of_the_seed():
    a = loadgen.poisson_schedule(7, 1000.0, 2.0)
    assert a == loadgen.poisson_schedule(7, 1000.0, 2.0)
    assert a != loadgen.poisson_schedule(8, 1000.0, 2.0)
    offsets = [t for t, _ in a]
    assert offsets == sorted(offsets) and 0.0 < offsets[0]
    assert offsets[-1] < 2.0
    assert 1700 < len(a) < 2300           # ~rate x duration
    sizes = [n for _, n in a]
    assert set(sizes) <= set(range(1, 7)) | {loadgen.LARGE_SIZE}
    large = sizes.count(loadgen.LARGE_SIZE) / len(sizes)
    assert 0.10 < large < 0.20            # the 85 / 15 mix


def test_backlog_sizes_differ_per_window_not_per_call():
    a = loadgen.backlog_sizes(3, 1, 500)
    assert a == loadgen.backlog_sizes(3, 1, 500)
    assert a != loadgen.backlog_sizes(3, 2, 500)
    assert a != loadgen.backlog_sizes(4, 1, 500)
    assert set(a) == {1, 2, 3, 4}


# ------------------------------------------------------ lateness / verdicts
def _rate(latency_ms=2.0, late_ms=0.1, n=1000, **kw):
    """Two seconds (four windows) of evenly spaced identical requests."""
    r = loadgen.RateResult(rate=kw.pop("rate", 1000.0), limit_ms=10.0,
                           duration=2.0, sent=n, succeeded=n, **kw)
    r.latencies = [(2.0 * i / n, latency_ms) for i in range(n)]
    r.late = [(2.0 * i / n, late_ms) for i in range(n)]
    return r


def test_windowed_percentiles_ignore_the_partial_last_window():
    samples = [(0.1, 1.0), (0.2, 3.0), (0.6, 10.0), (1.05, 99.0)]
    assert loadgen.windowed(samples, 50.0, 0.5, 1.2) == [2.0, 10.0]


def test_one_stall_does_not_move_the_median_window():
    r = _rate()
    r.latencies = [(t, 500.0 if t < 0.25 else v) for t, v in r.latencies]
    assert r.latency(99.0) == pytest.approx(2.0)       # 1 of 4 windows
    assert r.pooled_latency(99.0) == pytest.approx(500.0)


def test_verdicts():
    assert _rate().verdict == "pass"
    assert _rate(latency_ms=11.0).verdict == "fail"
    # shed and failed requests miss the limit by definition
    assert _rate(shed=11).verdict == "fail"
    assert _rate(failed=6, shed=5).verdict == "fail"
    assert _rate(shed=10).verdict == "pass"             # exactly 1%
    assert _rate(backlog_at_end=1).verdict == "fail"
    # a late generator measured itself: neither passed nor failed
    limit = loadgen.LATE_SHARE_LIMIT * 10.0
    assert _rate(late_ms=limit + 0.01).verdict == "invalid"
    assert _rate(late_ms=limit + 0.01, latency_ms=50.0).verdict == "invalid"
    assert _rate(late_ms=limit).verdict == "pass"


def test_goodput_is_the_highest_passing_rate():
    results = [_rate(rate=500.0), _rate(rate=1000.0),
               _rate(rate=4000.0, late_ms=5.0),         # invalid
               _rate(rate=8000.0, shed=300)]            # fail
    assert loadgen.goodput(results) == 1000.0
    assert loadgen.goodput(results[2:]) == 0.0


class _Future:
    def __init__(self, exc=None):
        self.exc = exc

    def done(self):
        return True

    def result(self, timeout=None):
        if self.exc is not None:
            raise self.exc
        return None


class _Shed(Exception):
    pass


def test_open_loop_accounts_for_every_request():
    schedule = [(0.001 * i, 1 + i % 3) for i in range(30)]

    def submit(rows):
        submit.calls += 1
        if submit.calls % 10 == 0:
            raise _Shed()
        return _Future(RuntimeError("boom") if submit.calls % 7 == 0
                       else None)
    submit.calls = 0
    res = loadgen.run_open_loop(submit, _Shed, schedule, 1000.0, 0.03,
                                limit_ms=10.0, drain_s=0.5)
    assert res.sent == 30 and res.shed == 3
    assert res.failed == 4 and res.succeeded == 23
    assert res.succeeded + res.failed + res.shed == res.sent
    assert res.backlog_at_end == 0
    assert len(res.late) == 30 and all(ms >= 0.0 for _, ms in res.late)
    # latency runs from the due time, which lateness is part of
    assert all(ms >= 0.0 for _, ms in res.latencies)


# ----------------------------------------------------------- module -> layer
#: repro modules no workload spends time in, deliberately left to
#: ``other`` (package ``__init__`` files by their package's name)
UNLEDGERED = {"__init__", "cli", "core", "device", "check", "serve",
              "analysis", "analysis.breakdown", "analysis.report",
              "frameworks", "frameworks.models", "frameworks.probe",
              "check.lint", "check.race_detector", "check.scenarios"}


def _repro_modules():
    import repro
    root = os.path.dirname(os.path.abspath(repro.__file__))
    for dirpath, _, files in os.walk(root):
        for f in files:
            if f.endswith(".py"):
                yield root, os.path.join(dirpath, f)


def test_every_repro_file_maps_to_exactly_one_layer():
    unledgered = set()
    for root, path in _repro_modules():
        layer = profiler.layer_of_file(path, root)
        assert layer in spec.LAYERS
        assert layer not in ("wait", "harness")
        if layer == "other":
            rel = os.path.relpath(path, root)[:-3].replace(os.sep, ".")
            rel = re.sub(r"(^|\.)__init__$", "", rel) or "__init__"
            unledgered.add(rel)
    # a new module must be given a ledger row, not silently land in
    # `other`: only these (which no workload spends time in) may
    assert unledgered <= UNLEDGERED
    assert set(spec.MODULE_LAYERS.values()) <= set(spec.LAYERS)


def test_layer_of_prefers_the_longest_prefix():
    assert spec.layer_of("repro.core.cache") == "core.cache"
    assert spec.layer_of("repro.core.config") == "core.engine"
    assert spec.layer_of("repro.layers.conv") == "layers"
    assert spec.layer_of("repro.zoo.resnet") == "graph"
    assert spec.layer_of("repro.cli") == "other"
    assert spec.layer_of("repro") == "other"
    assert spec.layer_of("numpy.core.fromnumeric") == "other"
    assert spec.layer_of("reproduce.core.cache") == "other"


def test_harness_and_foreign_files():
    here = os.path.dirname(os.path.abspath(__file__))
    assert profiler.layer_of_file(
        os.path.join(here, "loadgen.py"), "/x/repro") == "harness"
    assert profiler.layer_of_file("/usr/lib/python3/threading.py",
                                  "/x/repro") == "other"
    assert profiler.layer_of_file("/x/repro/mempool/heap_pool.py",
                                  "/x/repro") == "mempool"
    assert profiler.layer_of_file("/x/repro/serve/__init__.py",
                                  "/x/repro") == "other"


def _code(filename, name="f"):
    return SimpleNamespace(co_filename=filename, co_name=name,
                           co_firstlineno=1)


def _entry(code, inline, calls, subs=()):
    return SimpleNamespace(code=code, inlinetime=inline, callcount=calls,
                           calls=list(subs))


def test_fold_charges_builtins_to_the_caller_and_locks_to_wait():
    append = "<method 'append' of 'list' objects>"
    acquire = "<method 'acquire' of '_thread.lock' objects>"
    sleep = "<built-in method time.sleep>"
    assert not profiler.is_blocking(append)
    assert profiler.is_blocking(acquire) and profiler.is_blocking(sleep)
    sub = lambda code, t: SimpleNamespace(code=code, inlinetime=t)
    entries = [
        _entry(_code("/x/repro/mempool/heap_pool.py", "alloc"), 1.0, 10,
               [sub(append, 0.25), sub(acquire, 2.0)]),
        _entry(_code("/x/repro/serve/queue.py", "submit"), 0.5, 4,
               [sub(_code("/x/repro/mempool/heap_pool.py"), 9.0)]),
        _entry(_code("/usr/lib/python3/threading.py", "wait"), 0.125, 3,
               [sub(acquire, 4.0)]),
        # top-level builtin records: 0.5 s of append had no seen caller
        _entry(append, 0.75, 7),
        _entry(acquire, 6.0, 5),
        _entry(sleep, 1.5, 2),
    ]
    rows, funcs = profiler.fold(entries, "/x/repro")
    assert rows["mempool"] == [1.25, 10]        # own + its append
    assert rows["serve.queue"] == [0.5, 4]      # Python callees are not
    assert rows["other"] == [0.125 + 0.5, 3]    # threading + orphan append
    assert rows["wait"] == [2.0 + 4.0 + 1.5, 7]     # acquire x5 + sleep x2
    assert sum(r[0] for r in rows.values()) == pytest.approx(
        1.0 + 0.5 + 0.125 + 0.75 + 6.0 + 1.5)   # nothing lost or doubled
    assert ("mempool", "alloc", "heap_pool.py:1", 1.25, 10) in funcs


# ------------------------------------------------------------------ compare
def _result(**metrics):
    base = {"setup_s": 0.5, "ops_per_s": 100.0, "latency_p50_ms": 10.0,
            "latency_p95_ms": 12.0, "sim_img_per_s": 75.0,
            "peak_mib": 2388.0, "host_rss_mib": 35.0, "ok_share": 1.0}
    base.update(metrics)
    calls = {f"{l}.calls": {"value": 7.0, "unit": "count"}
             for l in spec.LAYERS}
    run = {"metrics": {k: {"value": v, "unit": ""}
                       for k, v in base.items()}, "spread": {}}
    return {"seed": 1, "machine": {"commit": "x"}, "workloads": {
        name: {"end_to_end": json.loads(json.dumps(run)),
               "per_layer": {"metrics": dict(calls)}}
        for name in spec.WORKLOAD_NAMES}}


def _verdicts(a, b, workload="train_roomy"):
    rows, diffs = compare.compare_results(a, b)
    return {r[1]: r[-1] for r in rows if r[0] == workload}, diffs


BOUND = {m.name: m.bound for m in spec.END_TO_END}


def test_compare_same_within_bound_worse_beyond():
    inside = 100.0 * (1 - 0.8 * BOUND["ops_per_s"])
    beyond = 100.0 * (1 - 1.2 * BOUND["ops_per_s"])
    v, diffs = _verdicts(_result(), _result(ops_per_s=inside))
    assert v["ops_per_s"] == "same" and not diffs
    v, _ = _verdicts(_result(), _result(ops_per_s=beyond))
    assert v["ops_per_s"] == "worse"
    v, _ = _verdicts(_result(), _result(ops_per_s=200.0 - beyond))
    assert v["ops_per_s"] == "better"
    slower = 10.0 * (1 + 1.2 * BOUND["latency_p50_ms"])
    v, _ = _verdicts(_result(), _result(latency_p50_ms=slower))
    assert v["latency_p50_ms"] == "worse"               # lower is better


def test_compare_unresolved_when_spread_exceeds_bound():
    a, b = _result(), _result(ops_per_s=50.0)
    b["workloads"]["train_roomy"]["end_to_end"]["spread"] = {
        "ops_per_s": BOUND["ops_per_s"] + 0.01}
    v, _ = _verdicts(a, b)
    assert v["ops_per_s"] == "unresolved"
    v, _ = _verdicts(a, b, "train_pressured")           # no spread there
    assert v["ops_per_s"] == "worse"


def test_compare_exact_metrics_must_be_equal():
    b = _result(sim_img_per_s=75.0000001, ok_share=0.9999)
    v, _ = _verdicts(_result(), b)
    assert v["sim_img_per_s"] == "better"               # higher is better
    assert v["ok_share"] == "worse"
    # thread timing decides what rides which step on serving workloads:
    # the simulated figure is bounded there, not exact
    v, _ = _verdicts(_result(), b, "fleet_paced")
    assert v["sim_img_per_s"] == "same" and v["ok_share"] == "worse"


def test_compare_call_counts_exact_only_where_deterministic():
    b = _result()
    for name in ("train_roomy", "fleet_paced"):
        b["workloads"][name]["per_layer"]["metrics"]["mempool.calls"] = {
            "value": 8.0, "unit": "count"}
    _, diffs = _verdicts(_result(), b)
    assert len(diffs) == 1 and "train_roomy: mempool.calls" in diffs[0]
    assert "identical" in compare.render(*compare.compare_results(
        _result(), _result()))


# ------------------------------------------------------------ contract file
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_fits_the_benchmark_contract():
    doc = spec.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    names = [w["name"] for w in doc["workloads"]] \
        + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in doc["end_to_end"])}]
    assert len(json.dumps(doc)) < 64 * 1024


def test_benchmark_json_is_the_spec_written_out():
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == spec.benchmark_json()
