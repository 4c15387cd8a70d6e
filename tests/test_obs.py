"""Observability tests (ISSUE 10 acceptance).

The load-bearing guarantees:

* the span/request identity: one root span per *offered* request —
  fleet or standalone — and completed (``ok``) + failed (``error``) +
  shed (``shed``) partition the roots exactly, provable offline from
  the exported Chrome trace alone;
* trace-id propagation crosses threads: a request's queue wait and
  every compute slice (including both halves of a split) land in the
  tree its root opened at the front door;
* disarmed tracing is free in frames, not in a noisy percentage:
  ``TestDisarmedCost`` counts **zero** calls into ``repro.obs`` and
  ``repro.check`` across a replayed train iteration, so a hook that
  costs a frame when disarmed fails the build; a served request makes
  no hook call and enters only the traced primitives' own frames, a
  pinned count per request;
* iteration spans come from the handle a user drives
  (``Session.run_iteration``), so N served batches are N spans and
  internal executors (compile scout, cost model) add none;
* metrics snapshots stay consistent under concurrent readers — no
  torn ``(completed, failed, shed)`` triples, no exceptions from
  iterating live windows.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.config import RuntimeConfig
from repro.core.engine import Engine
from repro.core.session import Session
from repro.obs import trace as obs_trace
from repro.obs.export import (
    build_chrome_trace,
    export_chrome_trace,
    validate_trace,
    validate_trace_file,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import Tracer
from repro.serve import InferenceServer, RequestRejected, ServingFleet
from repro.serve.metrics import render_slo_report
from repro.zoo import NETWORK_BUILDERS


def make_engine(batch=4, net="lenet") -> Engine:
    return Engine(NETWORK_BUILDERS[net](batch=batch),
                  RuntimeConfig.superneurons(concrete=False))


def iteration_spans(tracer):
    return [s for s in tracer.spans() if s.name == "iteration"]


# --------------------------------------------------------------------------
# tracer primitives
# --------------------------------------------------------------------------
class TestTracer:
    def test_root_and_children_share_trace_id(self):
        tr = Tracer()
        root = tr.root("request")
        child = root.child("queue.wait")
        grand = child.child("deeper")
        assert root.trace_id == child.trace_id == grand.trace_id
        assert child.parent_id == root.span_id
        assert root.parent_id is None
        other = tr.root("request")
        assert other.trace_id != root.trace_id

    def test_finish_is_idempotent(self):
        tr = Tracer()
        sp = tr.root("request")
        sp.finish(end=1.0, status="ok")
        sp.finish(end=9.0, status="error")   # late call: no-op
        assert sp.end == 1.0
        assert sp.status == "ok"

    def test_limit_bounds_retention_and_flags_truncation(self):
        tr = Tracer(limit=3)
        spans = [tr.root(f"s{i}") for i in range(5)]
        assert len(tr) == 3
        assert tr.truncated
        # dropped spans still work (finish is safe, just unretained)
        spans[-1].finish()
        assert spans[-1].status == "ok"

    def test_span_context_manager_records_errors(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.span("compile"):
                raise ValueError("boom")
        (sp,) = tr.spans()
        assert sp.status == "error"
        assert sp.attrs["error"] == "ValueError"

    def test_emit_records_closed_interval(self):
        tr = Tracer()
        sp = tr.emit("compute.slice", start=1.0, end=2.5)
        assert sp.start == 1.0 and sp.end == 2.5
        assert sp.duration == 1.5

    def test_capture_arms_and_restores(self):
        prev = obs_trace.ACTIVE
        with obs_trace.capture() as tr:
            assert obs_trace.ACTIVE is tr
            assert obs_trace.armed()
        assert obs_trace.ACTIVE is prev

    @pytest.mark.parametrize("armed", [False, True])
    def test_engines_and_executors_leave_arming_alone(
            self, monkeypatch, armed):
        """Arming is process-wide (env at import, ``arm()``/
        ``capture()``): building an engine and its executors never
        arms, disarms, swaps or re-caps either process tracer."""
        from contextlib import ExitStack

        from repro.check import instrument
        monkeypatch.setattr(instrument, "ACTIVE", None)
        monkeypatch.setattr(obs_trace, "ACTIVE", None)
        with ExitStack() as stack:
            if armed:
                stack.enter_context(instrument.capture(limit=7))
                stack.enter_context(obs_trace.capture(limit=7))
            found = instrument.ACTIVE, obs_trace.ACTIVE
            engine = make_engine(batch=2)
            sessions = [engine.session(mode=m)
                        for m in ("train", "infer", "infer")]
            sessions[0].run_iteration(0)
            engine.parallel_run(sessions[1:], 1, timeout=60.0)
            # an executor keeps its op log exactly when the process
            # tracer was armed at build
            for s in sessions:
                assert bool(s.executor.timeline.ops()) == armed
                s.close()
            assert instrument.ACTIVE is found[0]
            assert obs_trace.ACTIVE is found[1]
            if armed:
                assert found[0].limit == found[1].limit == 7
            else:
                assert found == (None, None)


# --------------------------------------------------------------------------
# metrics registry
# --------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_probe_replaces_and_renders(self):
        reg = MetricsRegistry()
        reg.probe("slo", lambda: {"a": 1},
                  renderer=lambda v: f"a={v['a']}")
        reg.probe("slo", lambda: {"a": 2},
                  renderer=lambda v: f"a={v['a']}")   # re-register wins
        assert reg.collect()["slo"]["value"] == {"a": 2}
        assert "a=2" in reg.render()

    def test_export_jsonl_appends_a_time_series(self, tmp_path):
        reg = MetricsRegistry()
        reg.probe("n", itertools.count(1).__next__)
        path = tmp_path / "metrics.jsonl"
        reg.export_jsonl(path, extra={"t": 1})
        reg.export_jsonl(path, extra={"t": 2})
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert [ln["metrics"]["n"]["value"] for ln in lines] == [1, 2]
        assert [ln["t"] for ln in lines] == [1, 2]


# --------------------------------------------------------------------------
# flight recorder
# --------------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_is_bounded(self):
        rec = FlightRecorder(limit=4)
        for i in range(10):
            rec.note("tick", str(i))
        events = rec.events()
        assert len(events) == 4
        assert [e["message"] for e in events] == ["6", "7", "8", "9"]

    def test_shed_burst_auto_dumps_once_per_burst(self):
        rec = FlightRecorder(shed_burst_threshold=3)
        for _ in range(7):
            rec.note_shed(4, "normal", "fleet")
        assert len(rec.dumps) == 2   # bursts at 3 and 6, not 7 dumps
        assert rec.dumps[0]["reason"] == "shed-burst"

    def test_dump_captures_ring_and_recent_spans(self):
        rec = FlightRecorder()
        rec.note("worker.exception", "boom", batch=7)
        tr = Tracer()
        tr.emit("compute.slice", start=0.0, end=1.0)
        record = rec.dump("worker-exception", tracer=tr)
        assert record["events"][-1]["kind"] == "worker.exception"
        assert record["spans"][0]["name"] == "compute.slice"
        assert record["spans_truncated"] is False

    def test_dump_of_truncated_tracer_says_so(self):
        """A tracer keeps its *first* ``limit`` spans: past the cap the
        dump's spans are the oldest of the run, and it must say so."""
        tr = Tracer(limit=4)
        for i in range(10):
            tr.emit(f"s{i}", start=float(i), end=i + 0.5)
        record = FlightRecorder().dump("test", tracer=tr)
        assert [s["name"] for s in record["spans"]] == \
            ["s0", "s1", "s2", "s3"]
        assert record["spans_truncated"] is True

    def test_dump_dir_writes_json_file(self, tmp_path):
        rec = FlightRecorder()
        rec.dump_dir = str(tmp_path)
        rec.note("tick")
        record = rec.dump("test-reason")
        files = list(tmp_path.glob("flight-*-test-reason.json"))
        assert len(files) == 1
        assert json.loads(files[0].read_text())["dump_id"] == \
            record["dump_id"]


# --------------------------------------------------------------------------
# exporter + validator
# --------------------------------------------------------------------------
class TestChromeExport:
    def _ok_tracer(self):
        tr = Tracer()
        root = tr.root("request", start=0.0)
        root.child("queue.wait", start=0.1).finish(end=0.4)
        tr.emit("compute.slice", start=0.4, end=0.9, parent=root)
        root.finish(end=1.0, status="ok")
        return tr

    def test_round_trip_validates(self, tmp_path):
        path = tmp_path / "trace.json"
        doc = export_chrome_trace(
            path, self._ok_tracer(),
            counts={"completed": 1, "failed": 0, "shed": 0})
        assert validate_trace(doc) == []
        assert validate_trace_file(path) == []
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        assert loaded["otherData"]["requests"]["completed"] == 1

    def test_counts_mismatch_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="identity"):
            export_chrome_trace(
                tmp_path / "bad.json", self._ok_tracer(),
                counts={"completed": 0, "failed": 1, "shed": 0})

    def test_two_roots_in_one_tree_is_invalid(self):
        doc = build_chrome_trace(self._ok_tracer())
        extra = dict(doc["traceEvents"][1])
        extra["args"] = {k: v for k, v in extra["args"].items()
                        if k != "parent"}
        doc["traceEvents"].append(extra)
        assert any("root spans" in p for p in validate_trace(doc))

    def test_child_outside_root_interval_is_invalid(self):
        tr = Tracer()
        root = tr.root("request", start=0.0)
        late = root.child("queue.wait", start=0.5)
        root.finish(end=1.0)
        late.finish(end=2.0)           # outlives its root
        doc = build_chrome_trace(tr)
        assert any("outside its root" in p for p in validate_trace(doc))

    def test_timelines_become_sim_processes(self):
        from repro.device.timeline import Stream, Timeline
        tl = Timeline()
        tl.submit(Stream.COMPUTE, 0.5, "conv1")
        tl.submit(Stream.D2H, 0.25, "offload")
        doc = build_chrome_trace(timelines={"lenet.worker0": tl})
        assert validate_trace(doc) == []
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert "sim.compute" in cats and "sim.d2h" in cats
        assert "otherData" not in doc       # nothing clipped, nothing said

    def test_clipped_timeline_is_flagged(self):
        from repro.device.timeline import Stream, Timeline
        clipped, whole = Timeline(max_ops=2), Timeline(max_ops=2)
        for i in range(5):
            clipped.submit(Stream.COMPUTE, 0.1, f"op{i}")
        whole.submit(Stream.COMPUTE, 0.1, "op")
        doc = build_chrome_trace(timelines={"s": clipped, "w": whole})
        assert validate_trace(doc) == []
        assert doc["otherData"] == {"timeline_ops_dropped": {"s": 3}}

    def test_unreadable_file_reports_not_raises(self, tmp_path):
        assert validate_trace_file(tmp_path / "missing.json")


# --------------------------------------------------------------------------
# engine + executor integration
# --------------------------------------------------------------------------
class TestEngineTracing:
    def test_iteration_spans_when_armed(self):
        net = NETWORK_BUILDERS["lenet"](batch=4)
        with obs_trace.capture() as tr:
            with Session(net, RuntimeConfig.superneurons(
                    concrete=False)) as sess:
                results = sess.run(iters=4)
        spans = iteration_spans(tr)
        assert len(spans) == 4
        assert spans[0].cat == "engine"
        assert spans[0].attrs["net"] == "lenet"
        assert spans[0].attrs["mode"] == "train"
        assert [s.attrs["iteration"] for s in spans] == [0, 1, 2, 3]
        assert [s.attrs["replayed"] for s in spans] == [False] + [True] * 3
        # the first replayed iteration records the residency table, the
        # next ones run from it
        assert [s.attrs["table"] for s in spans] == [False, False, True, True]
        for span, res in zip(spans, results):
            assert span.attrs["sim_time"] == round(res.sim_time, 9) > 0
            assert span.attrs["peak_bytes"] == res.peak_bytes

    def test_a_pressured_session_runs_from_the_table_from_iteration_2(self):
        """At the smallest capacity the small residual net runs in,
        every iteration evicts, copies and drops; the tensor cache starts
        at a fixed point, so iteration 1 records and 2 on run from the
        table."""
        from tests.test_clean_lines import SMALLEST, small_resnet
        with obs_trace.capture() as tr:
            with Session(small_resnet(), RuntimeConfig.superneurons(
                    concrete=False, gpu_capacity=SMALLEST)) as sess:
                results = sess.run(iters=4)
        assert all(r.cache_evictions and r.d2h_bytes and r.cache_dropped
                   for r in results)
        assert [s.attrs["table"] for s in iteration_spans(tr)] == \
            [False, False, True, True]

    def test_timeline_ops_only_recorded_when_armed(self):
        net = NETWORK_BUILDERS["lenet"](batch=4)
        prev = obs_trace.disarm()
        try:
            with Session(net, RuntimeConfig.superneurons(
                    concrete=False)).executor as ex:
                ex.run_iteration(0)
                assert ex.timeline.ops() == []    # disarmed: no op log
        finally:
            if prev is not None:
                obs_trace.arm(prev)
        with obs_trace.capture():
            with Session(net, RuntimeConfig.superneurons(
                    concrete=False)).executor as ex:
                ex.run_iteration(0)
                assert len(ex.timeline.ops()) > 0
                assert ex.timeline.max_ops == obs_trace.TIMELINE_OPS_LIMIT

    def test_timeline_op_log_is_bounded(self):
        from repro.device.timeline import Stream, Timeline
        tl = Timeline(record_ops=True, max_ops=5)
        for i in range(8):
            tl.submit(Stream.COMPUTE, 0.1, f"op{i}")
        assert len(tl.ops()) == 5
        assert tl.dropped_ops == 3
        assert tl.ops()[0].label == "op3"    # newest window kept

    def test_parallel_run_session_spans(self):
        with obs_trace.capture() as tr:
            engine = make_engine(batch=4)
            sessions = [engine.session(mode="infer") for _ in range(2)]
            try:
                engine.parallel_run(sessions, iters=2)
            finally:
                for s in sessions:
                    s.close()
        roots = tr.roots("session.run")
        assert len(roots) == 2
        assert all(r.status == "ok" for r in roots)
        assert sorted(r.attrs["session"] for r in roots) == [0, 1]
        assert all(r.attrs["iters"] == 2 for r in roots)
        # each session iteration lands as its own engine-cat span
        # (parentless by design: run_iteration cannot know which
        # session root owns it without threading context through every
        # call); 2 sessions x 2 iters, none for the compile scout
        assert len(iteration_spans(tr)) == 4

    def test_executor_register_metrics_probes(self):
        net = NETWORK_BUILDERS["lenet"](batch=4)
        reg = MetricsRegistry()
        with Session(net, RuntimeConfig.superneurons(
                concrete=False)).executor as ex:
            ex.run_iteration(0)
            ex.register_metrics(reg, "eng")
            snap = reg.collect()
        assert snap["eng.allocator"]["value"]["allocs"] > 0
        assert set(snap["eng.cache"]["value"]) == {
            "hits", "misses", "evictions", "clean_evictions", "dropped"}
        assert snap["eng.timeline"]["value"]["elapsed"] > 0
        assert "d2h_bytes" in snap["eng.dma"]["value"]


# --------------------------------------------------------------------------
# disarmed cost: frames, not percentages
# --------------------------------------------------------------------------
class TestDisarmedCost:
    @pytest.mark.parametrize("net,gpu_capacity", [
        ("alexnet", None),            # roomy: everything resident
        ("resnet50", 1 << 30),        # 1 GiB: evictions every iteration
    ])
    def test_replayed_iteration_enters_no_obs_or_check_frame(
            self, monkeypatch, net, gpu_capacity):
        """With both process tracers disarmed a steady-state train
        iteration calls no Python function of ``repro.obs`` or
        ``repro.check`` — every hook on the path is an inline
        ``is None`` test.  A wall-clock gate cannot see one frame; this
        one cannot miss it."""
        from repro.check import instrument
        monkeypatch.setattr(instrument, "ACTIVE", None)
        monkeypatch.setattr(obs_trace, "ACTIVE", None)
        entered = []

        def profiler(frame, event, arg):
            if event == "call" and frame.f_globals.get(
                    "__name__", "").startswith(("repro.obs", "repro.check")):
                entered.append(f"{frame.f_globals['__name__']}."
                               f"{frame.f_code.co_name}")

        with Session(NETWORK_BUILDERS[net](batch=32),
                     RuntimeConfig.superneurons(
                         concrete=False,
                         gpu_capacity=gpu_capacity)) as sess:
            # link the plan, then reuse it past the first drop set
            sess.run(iters=3)
            replayed = sess.executor.replayed_iterations
            sys.setprofile(profiler)
            try:
                res = sess.run_iteration(3)
            finally:
                sys.setprofile(None)
            assert sess.executor.replayed_iterations == replayed + 1
        assert (res.cache_evictions > 0) == (gpu_capacity is not None)
        assert entered == []

    #: hooks that must not be entered disarmed: each call site tests
    #: ``ACTIVE`` inline and skips the call
    HOOKS = ("_rec", "channel_send", "channel_recv", "trace_read",
             "trace_write")

    @pytest.mark.parametrize("landed", [13.6], ids=["lenet-b8-w1"])
    def test_served_request_enters_only_the_primitives(
            self, monkeypatch, landed):
        """A closed backlog through one greedy-fill worker, submit to
        stop, disarmed: no ``repro.obs`` function, no hook call, and
        per request only the traced primitives' own frames (the
        request's lock and future, the queue monitor) — pinned at most
        2% above what they landed at (32.8 before, 15.3 of them
        ``_rec``)."""
        from repro.check import instrument
        monkeypatch.setattr(instrument, "ACTIVE", None)
        monkeypatch.setattr(obs_trace, "ACTIVE", None)
        entered = []

        def profiler(frame, event, arg):
            if event == "call" and frame.f_globals.get(
                    "__name__", "").startswith(("repro.obs", "repro.check")):
                entered.append(f"{frame.f_globals['__name__']}."
                               f"{frame.f_code.co_name}")

        engine = make_engine(batch=8)
        engine.compiled("infer")
        rng = np.random.default_rng(42)
        sizes = [int(n) for n in rng.integers(1, 5, size=400)]
        server = InferenceServer(engine, workers=1, policy="greedy-fill",
                                 max_wait=0.001)
        threading.setprofile(profiler)     # the worker, started below
        sys.setprofile(profiler)
        try:
            futures = [server.submit(size=n) for n in sizes]
            server.start()
            for f in futures:
                assert f.result(timeout=30) is None
            server.stop()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
        assert [e for e in entered if e.startswith("repro.obs")] == []
        assert [e for e in entered
                if e.rsplit(".", 1)[1] in self.HOOKS] == []
        per_request = len(entered) / len(sizes)
        assert per_request <= landed * 1.02, \
            f"{per_request:.2f} frames a request, landed {landed}"


class TestFrameBudget:
    """What a steady iteration costs the host, in frames: every
    ``repro.*`` function it enters, with both tracers and the placement
    validator disarmed, as every ledger figure and user run has them.
    A roomy iteration and a pressured one both run from the residency
    table, which folds each calm run of its moves into one state update
    and one clock advance (DESIGN.md "The residency table"): a roomy
    table is one such block, whatever the net.  Only the moves around a
    copy or a wait, and a block whose guard fails, still cost one state
    transition, kernel submit, copy or wait per recorded move; no move
    calls the allocator (the table answers them).  The counts are
    pinned at most 2% above what they landed at.  Python 3.12+ inlines
    comprehensions and only counts lower."""

    @pytest.mark.parametrize("net,gpu_capacity,landed", [
        ("alexnet", None, 41),            # 252 move by move; 2,098 live
        ("resnet50", None, 41),           # 1,745 move by move; 16,542 live
        ("resnet50", 1 << 30, 1_028),     # 2,214 move by move; 29,464 live
        ("lenet", None, 41),              # b8 infer, the serving step; 77
    ], ids=["alexnet-None", "resnet50-None", "resnet50-1073741824",
            "lenet-None"])
    def test_replayed_iteration_frames(self, monkeypatch, net, gpu_capacity,
                                       landed):
        from repro.check import instrument
        monkeypatch.setattr(instrument, "ACTIVE", None)
        monkeypatch.setattr(obs_trace, "ACTIVE", None)
        monkeypatch.setenv("REPRO_VALIDATE_STATE", "0")
        frames = 0

        def profiler(frame, event, arg):
            nonlocal frames
            if event == "call" and frame.f_globals.get(
                    "__name__", "").startswith("repro."):
                frames += 1

        batch, mode = (8, "infer") if net == "lenet" else (32, "train")
        with Session(NETWORK_BUILDERS[net](batch=batch),
                     RuntimeConfig.superneurons(
                         concrete=False, gpu_capacity=gpu_capacity),
                     mode=mode) as sess:
            assert not sess.executor.state.validate
            sess.run(iters=3)
            sys.setprofile(profiler)
            try:
                sess.run_iteration(3)
            finally:
                sys.setprofile(None)
            assert sess.executor.table_iterations == 2
        assert frames <= landed * 1.02, f"{frames} frames, landed {landed}"


# --------------------------------------------------------------------------
# serving integration: the span/request identity
# --------------------------------------------------------------------------
class TestServingSpans:
    def test_server_roots_and_propagation(self):
        with obs_trace.capture() as tr:
            engine = make_engine(batch=4)
            server = InferenceServer(engine, workers=2,
                                     policy="greedy-fill",
                                     max_wait=0.001)
            with server:
                for size in (1, 2, 3, 6):
                    server.submit(size=size)
                assert server.drain(timeout=30)
        roots = tr.roots("request")
        assert len(roots) == 4
        assert all(r.status == "ok" for r in roots)
        trees = tr.by_trace()
        for root in roots:
            names = [s.name for s in trees[root.trace_id]]
            assert "queue.wait" in names
            assert "compute.slice" in names
        # the size-6 request split across two batch rides: two slices
        split_root = next(r for r in roots if r.attrs["size"] == 6)
        slices = [s for s in trees[split_root.trace_id]
                  if s.name == "compute.slice"]
        assert len(slices) == 2
        assert sorted(s.attrs["part"] for s in slices) == [0, 1]

    def test_n_served_batches_are_n_iteration_spans(self):
        """The engine's compile scout and ``check cost``'s throwaway
        executors are not iterations anybody asked for: an armed
        serving trace carries one ``iteration`` span per batch."""
        from repro.cli import main
        with obs_trace.capture() as tr:
            engine = make_engine(batch=4)
            server = InferenceServer(engine, workers=2,
                                     policy="greedy-fill",
                                     max_wait=0.001)
            with server:
                for size in (1, 2, 3, 4) * 8:
                    server.submit(size=size)
                assert server.drain(timeout=30)
            batches = server.metrics.to_dict()["batches"]["count"]
            spans = iteration_spans(tr)
            assert len(spans) == batches > 0
            # each worker's first batch links its plan; every later
            # one reuses it
            ran = [w._executor for w in server._sessions
                   if w._executor is not None]
            assert sum(not s.attrs["replayed"] for s in spans) \
                == len(ran) >= 1
            assert sum(ex.replayed_iterations for ex in ran) \
                == batches - len(ran)
            assert all(s.attrs["mode"] == "infer" for s in spans)
            # compiles (scout) and costs (throwaway executor) both
            # modes of a fresh engine
            assert main(["check", "cost", "--net", "lenet"]) == 0
            assert len(iteration_spans(tr)) == batches

    def test_four_worker_backlog_trace_validates(self, tmp_path):
        # more workers than cores on a queued backlog, switching threads
        # often: split requests' slices land on different workers, which
        # report their clock readings out of order — every compute.slice
        # must still sit inside its request's root span
        sizes = [1, 2, 3, 4, 12, 20] * 40
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with obs_trace.capture() as tr:
                server = InferenceServer(make_engine(batch=8), workers=4,
                                         policy="greedy-fill",
                                         max_wait=0.001)
                for size in sizes:
                    server.submit(size=size)
                with server:
                    assert server.drain(timeout=60)
                    timelines = server.session_timelines()
                completed, failed, shed = server.metrics.counts()
        finally:
            sys.setswitchinterval(interval)
        assert (completed, failed, shed) == (len(sizes), 0, 0)
        doc = export_chrome_trace(
            tmp_path / "w4.json", tr, timelines=timelines,
            counts={"completed": completed, "failed": failed,
                    "shed": shed})
        assert validate_trace(doc) == []

    def test_fleet_identity_and_export(self, tmp_path):
        with obs_trace.capture() as tr:
            engines = [make_engine(batch=2), make_engine(batch=4)]
            fleet = ServingFleet(engines, workers=1, max_wait=0.001)
            with fleet:
                for size in (1, 2, 3, 4, 2, 1):
                    fleet.submit(size=size)
                assert fleet.drain(timeout=30)
                timelines = fleet.session_timelines()
            completed, failed, shed = fleet.metrics.counts()
        assert (completed, failed, shed) == (6, 0, 0)
        roots = tr.roots("request")
        assert len(roots) == 6
        # route child closed before admission, lane annotated post-hoc
        assert all("lane" in r.attrs for r in roots)
        doc = export_chrome_trace(
            tmp_path / "fleet.json", tr, timelines=timelines,
            counts={"completed": completed, "failed": failed,
                    "shed": shed})
        assert validate_trace(doc) == []

    def test_shed_request_root_status(self):
        with obs_trace.capture() as tr:
            engine = make_engine(batch=4)
            fleet = ServingFleet([engine], workers=1,
                                 max_pending_rows=4)
            # not started: nothing drains, so the second submit must shed
            fleet.submit(size=4)
            with pytest.raises(RequestRejected):
                fleet.submit(size=4)
        roots = tr.roots("request")
        assert len(roots) == 2
        statuses = sorted(r.status for r in roots)
        assert statuses == ["open", "shed"]
        shed_root = next(r for r in roots if r.status == "shed")
        assert shed_root.attrs["probes"] == 1

    @pytest.mark.parametrize("front", ["server", "fleet"])
    def test_invalid_submit_opens_no_root(self, front, tmp_path):
        """A bad call raises before its root opens: one left ``open``
        would make the exporter refuse the whole trace."""
        rows = np.zeros((2, 1, 28, 28), dtype=np.float32)
        if front == "server":       # simulated: size-only traffic
            door = InferenceServer(make_engine(), workers=1,
                                   max_wait=0.001)
            good = dict(size=2)
            bad = [(dict(size=2, priority="urgent"), "unknown priority"),
                   (dict(size=0), ">= 1 samples"),
                   (dict(data=rows), "no payloads"),
                   ({}, "data rows or an explicit size")]
        else:                       # concrete: payload rows
            door = ServingFleet(
                [Engine(NETWORK_BUILDERS["lenet"](batch=4),
                        RuntimeConfig.superneurons(concrete=True))],
                workers=1, max_wait=0.001)
            good = dict(data=rows)
            bad = [(dict(data=rows, priority="urgent"), "unknown priority"),
                   (dict(data=rows, size=3), "disagrees"),
                   (dict(data=rows[:, :, :7]), "no lane serves"),
                   (dict(size=2), "payload rows")]
        with obs_trace.capture() as tr:
            with door:
                door.submit(**good)
                for kwargs, why in bad:
                    with pytest.raises(ValueError, match=why):
                        door.submit(**kwargs)
                assert door.drain(timeout=30)
                timelines = door.session_timelines()
            completed, failed, shed = door.metrics.counts()
        assert (completed, failed, shed) == (1, 0, 0)
        assert [r.status for r in tr.roots("request")] == ["ok"]
        doc = export_chrome_trace(
            tmp_path / "t.json", tr, timelines=timelines,
            counts={"completed": completed, "failed": failed,
                    "shed": shed})
        assert validate_trace(doc) == []

    def test_probed_and_refused_lane_leaves_no_extra_roots(self):
        """Spilling to a second lane must not mint a second root."""
        with obs_trace.capture() as tr:
            full = make_engine(batch=4)
            spare = make_engine(batch=4)
            fleet = ServingFleet([full, spare], workers=1,
                                 max_pending_rows=4)
            fleet.submit(size=4)     # fills one lane
            fleet.submit(size=4)     # spills to the other
        assert len(tr.roots("request")) == 2

    def test_untraced_serving_attaches_no_spans(self):
        prev = obs_trace.disarm()
        try:
            engine = make_engine(batch=4)
            server = InferenceServer(engine, workers=1, max_wait=0.001)
            with server:
                fut = server.submit(size=2)
                assert server.drain(timeout=30)
                fut.result(timeout=5)
        finally:
            if prev is not None:
                obs_trace.arm(prev)


# --------------------------------------------------------------------------
# shared SLO renderer (single + fleet shapes)
# --------------------------------------------------------------------------
class TestRenderSloReport:
    def test_server_shape(self):
        engine = make_engine(batch=4)
        server = InferenceServer(engine, workers=1, max_wait=0.001)
        with server:
            server.submit(size=3)
            assert server.drain(timeout=30)
        text = render_slo_report(server.metrics.to_dict())
        assert "requests     : 1 completed, 0 failed" in text
        assert "latency      : p50" in text
        assert "batches      :" in text
        assert "weight swaps" not in text    # zero swaps: line elided

    def test_fleet_shape(self):
        engine = make_engine(batch=4)
        fleet = ServingFleet([engine], workers=1, max_wait=0.001)
        with fleet:
            fleet.submit(size=2)
            assert fleet.drain(timeout=30)
        text = render_slo_report(fleet.metrics.to_dict())
        assert "offered 1" in text
        assert "fleet-wide" in text
        assert "routed" in text

    def test_registry_render_uses_the_same_renderer(self):
        engine = make_engine(batch=4)
        server = InferenceServer(engine, workers=1, max_wait=0.001)
        reg = MetricsRegistry()
        with server:
            server.submit(size=2)
            assert server.drain(timeout=30)
            server.register_metrics(reg, "server")
        rendered = reg.render()
        assert "server.slo:" in rendered
        assert "requests     : 1 completed" in rendered


# --------------------------------------------------------------------------
# paced replay on an injected clock (the CLI clock unification)
# --------------------------------------------------------------------------
class TestPacedReplay:
    def test_fake_clock_replays_at_trace_offsets(self):
        from repro.cli import paced_replay

        class FakeClock:
            def __init__(self):
                self.t = 100.0       # non-zero epoch: offsets must be
                                     # relative to the replay start
            def __call__(self):
                return self.t
            def sleep(self, dt):
                assert dt > 0
                self.t += dt

        clock = FakeClock()
        seen = []
        paced_replay(
            [(0.0, "a"), (0.25, "b"), (1.0, "c")],
            lambda i, arrival: seen.append((i, arrival[1], clock.t)),
            clock=clock, sleep=clock.sleep)
        assert seen == [(0, "a", 100.0), (1, "b", 100.25),
                        (2, "c", 101.0)]

    def test_late_arrivals_do_not_sleep(self):
        from repro.cli import paced_replay
        sleeps = []
        t = iter([0.0, 5.0, 5.0, 5.0]).__next__   # clock jumped ahead
        paced_replay([(0.0,), (1.0,), (2.0,)], lambda i, a: None,
                     clock=t, sleep=sleeps.append)
        assert sleeps == []    # every arrival already past due


# --------------------------------------------------------------------------
# metrics snapshot consistency under concurrent load (satellite)
# --------------------------------------------------------------------------
class TestMetricsSnapshotConsistency:
    def test_no_torn_reads_under_live_traffic(self):
        engine = make_engine(batch=4)
        server = InferenceServer(engine, workers=2, max_wait=0.001)
        stop = threading.Event()
        errors = []

        def reader():
            last = (0, 0, 0)
            while not stop.is_set():
                try:
                    counts = server.metrics.counts()
                    # counters are monotone; a torn read would show a
                    # count moving backwards between snapshots
                    assert all(c >= p for c, p in zip(counts, last)), \
                        (counts, last)
                    last = counts
                    snap = server.metrics.latency_snapshot()
                    assert all(isinstance(v, list) for k, v in
                               snap.items() if k != "classes")
                    d = server.metrics.to_dict()
                    req = d["requests"]
                    # within one locked snapshot the identity holds
                    assert req["completed"] >= 0
                    assert req["shed_rate"] <= 1.0
                    assert 0.0 <= d["batches"]["fill_ratio"] <= 1.0
                except Exception as exc:   # noqa: BLE001 - reported below
                    errors.append(exc)
                    return

        readers = [threading.Thread(target=reader, daemon=True)
                   for _ in range(4)]
        n = 120
        with server:
            for t in readers:
                t.start()
            for i in range(n):
                server.submit(size=(i % 6) + 1)
                if i % 16 == 0:
                    time.sleep(0.001)    # let workers interleave
            assert server.drain(timeout=60)
        stop.set()
        for t in readers:
            t.join(timeout=5)
        assert errors == []
        completed, failed, shed = server.metrics.counts()
        assert (completed, failed, shed) == (n, 0, 0)
