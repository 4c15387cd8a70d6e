"""Serving subsystem tests (ISSUE 5 acceptance).

The load-bearing guarantees:

* per-request outputs from the server — padded, split, coalesced, over
  N parallel workers — are **bit-identical** to running each request
  alone through a solo infer session (random traces:
  ``tests/test_equivalence_matrix.py::test_served``);
* ``swap_weights`` never tears a request across weight versions: the
  second half of a split request computes on the *old* weights.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RuntimeConfig
from repro.core.engine import Engine
from repro.obs.export import build_chrome_trace, validate_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serve import (
    PRIORITIES,
    DynamicBatcher,
    InferenceServer,
    RequestQueue,
    ServingFleet,
)
from repro.serve.batcher import coalesce
from repro.zoo import NETWORK_BUILDERS
from tests.reference_coalescers import deadline_plan, pack_split_fill

BATCH = 8


def make_engine(concrete: bool = True) -> Engine:
    net = NETWORK_BUILDERS["lenet"](batch=BATCH)
    return Engine(net, RuntimeConfig.superneurons(concrete=concrete))


@pytest.fixture(scope="module")
def engine() -> Engine:
    """Shared read-only engine (tests that swap weights build their own)."""
    return make_engine()


def make_requests(engine, sizes, seed=0):
    rng = np.random.default_rng(seed)
    shape = engine.input_shape[1:]
    return [rng.standard_normal((n,) + shape).astype(np.float32)
            for n in sizes]


def solo_outputs(engine, data) -> np.ndarray:
    """The reference: one request alone through a solo infer session,
    padded to the compiled shape (split when oversized)."""
    parts = []
    with engine.session(mode="infer") as sess:
        for start in range(0, data.shape[0], engine.batch_size):
            chunk = data[start:start + engine.batch_size]
            feed = np.zeros(engine.input_shape, dtype=np.float32)
            feed[:chunk.shape[0]] = chunk
            parts.append(np.array(
                sess.infer_batch(feed)[:chunk.shape[0]]))
    return np.concatenate(parts, axis=0)


def fake_requests(sizes, clock=lambda: 0.0):
    """Payload-free requests for pure coalescing-plan tests."""
    q = RequestQueue(clock=clock)
    return [q.submit(size=n) for n in sizes]


def assert_plan_covers(plans, requests, capacity):
    """Every request's rows appear exactly once, in row order, and no
    batch exceeds capacity or is all padding."""
    seen = {r.request_id: [] for r in requests}
    for plan in plans:
        fill = sum(s.rows for s in plan)
        assert 1 <= fill <= capacity, "empty or overfull batch"
        offsets = sorted(s.row_offset for s in plan)
        assert offsets == sorted(set(offsets)), "overlapping row offsets"
        for s in plan:
            assert 0 <= s.row_offset <= capacity - s.rows
            seen[s.request.request_id].append((s.start, s.stop))
    for r in requests:
        spans = sorted(seen[r.request_id])
        assert spans[0][0] == 0 and spans[-1][1] == r.size
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert stop == start, "gap or overlap in split request"


# ------------------------------------------------------------------- rule
def plan_rows(plans):
    """A plan as plain tuples, to compare two planners' output."""
    return [[(s.request.request_id, s.start, s.stop, s.row_offset,
              s.part_index) for s in plan] for plan in plans]


class TestCoalescePolicies:
    def test_unknown_policy_lists_registered(self):
        engine = make_engine(concrete=False)
        for policy in ("fifo", "deadline", "nope"):
            with pytest.raises(ValueError, match="greedy-fill"):
                DynamicBatcher(RequestQueue(), BATCH, policy=policy)
            with pytest.raises(ValueError, match="greedy-fill"):
                InferenceServer(engine, policy=policy)
            with pytest.raises(ValueError, match="greedy-fill"):
                ServingFleet([engine], policy=policy)

    def test_greedy_fill_minimizes_padding(self):
        reqs = fake_requests([5, 6, 2])
        plans = coalesce(reqs, 8)
        fills = [sum(s.rows for s in p) for p in plans]
        assert fills == [8, 5]      # 13 rows -> one full batch + tail
        assert_plan_covers(plans, reqs, 8)

    def test_oversized_request_multi_step_split(self):
        # > 2x the compiled batch: 20 rows over capacity 8 -> 3 steps
        reqs = fake_requests([20])
        plans = coalesce(reqs, 8)
        assert len(plans) == 3
        assert [sum(s.rows for s in p) for p in plans] == [8, 8, 4]
        parts = [s.part_index for p in plans for s in p]
        assert parts == [0, 1, 2]
        assert_plan_covers(plans, reqs, 8)

    def test_exact_multiple_has_no_all_padding_batch(self):
        # naive ceil-division would emit a fourth, empty step
        reqs = fake_requests([24])
        plans = coalesce(reqs, 8)
        assert len(plans) == 3
        assert all(sum(s.rows for s in p) == 8 for p in plans)

    def test_random_plans_cover_rows_exactly(self):
        rng = np.random.default_rng(7)
        for trial in range(40):
            sizes = rng.integers(1, 22, size=rng.integers(1, 9))
            reqs = fake_requests([int(s) for s in sizes])
            assert_plan_covers(coalesce(reqs, 8), reqs, 8)

    @settings(max_examples=200, deadline=None)
    @given(capacity=st.integers(1, 12), data=st.data())
    def test_the_rule_is_the_retired_deadline_plan(self, capacity, data):
        """Rounds of mixed priorities and deadlines, sizes
        1..3 x capacity, admitted through a queue whose clock may stand
        still: the rule plans what ``deadline`` planned, and what
        ``greedy-fill`` planned when every request is ``normal`` and
        undated."""
        uniform = data.draw(st.booleans(), label="uniform")
        n = data.draw(st.integers(1, 10), label="requests")
        ticks = iter(data.draw(st.lists(
            st.sampled_from([0.0, 0.5, 1.0]), min_size=n, max_size=n),
            label="ticks"))
        now = [0.0]

        def clock():
            now[0] += next(ticks)
            return now[0]

        q = RequestQueue(clock=clock)
        for _ in range(n):
            size = data.draw(st.integers(1, 3 * capacity), label="size")
            if uniform:
                q.submit(size=size)
            else:
                q.submit(size=size,
                         priority=data.draw(st.sampled_from(PRIORITIES),
                                            label="priority"),
                         deadline=data.draw(st.one_of(
                             st.none(), st.sampled_from([1.0, 2.0, 5.0])),
                             label="deadline"))
        with q.cond:
            round_ = q.take_pending()
        plans = plan_rows(coalesce(round_, capacity))
        assert plans == plan_rows(deadline_plan(round_, capacity))
        if uniform:
            assert plans == plan_rows(pack_split_fill(round_, capacity))
        assert_plan_covers(coalesce(round_, capacity), round_, capacity)

    @pytest.mark.parametrize("door", ["server", "fleet"])
    def test_a_critical_request_rides_the_first_batch(self, door):
        """Default arguments, one worker, a closed backlog of six 3-row
        ``normal`` requests and then one 2-row ``critical`` request with
        a deadline: one assembly round of three batches, and the
        critical request rides the first (it rode the last while the
        default packed in arrival order)."""
        engine = make_engine(concrete=False)
        if door == "server":
            front = InferenceServer(engine)
            lane = front
        else:
            front = ServingFleet([engine])
            (lane,) = front.servers.values()
        reqs = [lane.queue.submit(size=3) for _ in range(6)]
        critical = lane.queue.submit(size=2, priority="critical",
                                     deadline=lane.clock() + 1.0)
        with front:
            assert front.drain(timeout=60)
        assert lane.metrics.to_dict()["batches"]["count"] == 3
        starts = sorted({r.dispatch_time for r in reqs + [critical]})
        assert len(starts) == 3     # one worker: a start per batch
        assert critical.dispatch_time == starts[0]


# ------------------------------------------------------------------ queue
class TestRequestQueue:
    def test_submit_validates(self):
        q = RequestQueue(sample_shape=(1, 28, 28))
        with pytest.raises(ValueError, match="data rows or an explicit"):
            q.submit()
        with pytest.raises(ValueError, match="sample shape"):
            q.submit(np.zeros((2, 3, 3), dtype=np.float32))
        with pytest.raises(ValueError, match=">= 1 samples"):
            q.submit(size=0)
        with pytest.raises(ValueError, match="disagrees"):
            q.submit(np.zeros((2, 1, 28, 28)), size=3)

    def test_ids_and_timestamps(self):
        t = [100.0]
        q = RequestQueue(clock=lambda: t[0])
        a = q.submit(size=1)
        t[0] = 101.5
        b = q.submit(size=2)
        assert (a.request_id, b.request_id) == (0, 1)
        assert (a.enqueue_time, b.enqueue_time) == (100.0, 101.5)

    def test_closed_queue_rejects(self):
        q = RequestQueue()
        q.close()
        with pytest.raises(RuntimeError, match="closed"):
            q.submit(size=1)

    def _split_request(self):
        """A traced two-part request whose part 1 (computed 1.2..2.0)
        has already reported — the sibling slice that ran while the
        worker holding part 0 had lost the interpreter lock."""
        tracer = Tracer()
        q = RequestQueue(clock=lambda: 0.0)
        req = q.submit(size=12, span=tracer.root("request", start=0.0))
        req.begin_dispatch(2)
        req.mark_dispatched(0.5)
        assert not req.deliver(1, None, version=0, now=2.0)
        tracer.emit("compute.slice", start=1.2, end=2.0, parent=req.span)
        return tracer, req

    def test_completes_at_the_latest_part_not_the_last_caller(self):
        # part 0's worker read its clock (t=1.0) before part 1 ran
        tracer, req = self._split_request()
        assert req.deliver(0, None, version=0, now=1.0)
        tracer.emit("compute.slice", start=0.5, end=1.0, parent=req.span)
        assert req.complete_time == 2.0
        assert req.span.end == 2.0
        assert validate_trace(build_chrome_trace(tracer)) == []

    def test_fails_no_earlier_than_a_part_already_delivered(self):
        tracer, req = self._split_request()
        assert req.fail(RuntimeError("boom"), now=1.0)
        assert req.complete_time == 2.0
        assert (req.span.end, req.span.status) == (2.0, "error")
        assert validate_trace(build_chrome_trace(tracer)) == []


# ---------------------------------------------------------------- batcher
class TestDynamicBatcher:
    def test_empty_queue_times_out(self):
        b = DynamicBatcher(RequestQueue(), 8, max_wait=0.0)
        t0 = time.monotonic()
        assert b.next_batch(timeout=0.05) is None
        assert time.monotonic() - t0 < 5.0

    def test_lone_request_not_starved(self):
        # one request, far below capacity: dispatched (padded) once
        # max_wait expires instead of waiting for batch-mates forever
        q = RequestQueue()
        b = DynamicBatcher(q, 8, max_wait=0.01)
        q.submit(size=2)
        batch = b.next_batch(timeout=5.0)
        assert batch is not None
        assert (batch.fill, batch.padding) == (2, 6)

    def test_full_backlog_skips_max_wait(self):
        # enough queued rows: assembles immediately despite a huge wait
        q = RequestQueue()
        b = DynamicBatcher(q, 8, max_wait=60.0)
        q.submit(size=5)
        q.submit(size=4)
        t0 = time.monotonic()
        batch = b.next_batch(timeout=5.0)
        assert batch is not None
        assert time.monotonic() - t0 < 5.0

    def test_shutdown_wakes_blocked_worker(self):
        b = DynamicBatcher(RequestQueue(), 8)
        got = []
        t = threading.Thread(target=lambda: got.append(b.next_batch()))
        t.start()
        b.shutdown()
        t.join(timeout=5.0)
        assert not t.is_alive() and got == [None]

    def test_outstanding_blocks_wait_idle(self):
        q = RequestQueue()
        b = DynamicBatcher(q, 8, max_wait=0.0)
        q.submit(size=3)
        batch = b.next_batch(timeout=1.0)
        assert not b.wait_idle(timeout=0.05)
        b.mark_done(batch)
        assert b.wait_idle(timeout=1.0)


# --------------------------------------------------- acceptance: identity
class TestServingBitIdentical:
    def test_burst_backlog_coalesces_before_workers_start(self, engine):
        # queue first, then start: the first assembly round sees the
        # whole backlog, so coalescing (not just per-request padding)
        # is actually exercised
        datas = make_requests(engine, [3, 5, 2, 6], seed=9)
        refs = [solo_outputs(engine, d) for d in datas]
        server = InferenceServer(engine, workers=2, policy="greedy-fill",
                                 max_wait=0.0)
        futures = [server.submit(d) for d in datas]
        server.start()
        try:
            outs = [f.result(timeout=60.0) for f in futures]
        finally:
            server.stop()
        for ref, out in zip(refs, outs):
            assert np.array_equal(ref, out)
        m = server.metrics.to_dict()
        assert m["batches"]["count"] == 2          # 16 rows -> 2 full steps
        assert m["batches"]["padded_rows"] == 0
        assert m["requests"]["completed"] == 4
        # serving sessions must not retain per-iteration results (each
        # holds traces + the output batch: unbounded growth otherwise)
        assert all(s.results == [] for s in server._sessions)

    def test_simulated_traffic_runs_payload_free(self):
        sim = make_engine(concrete=False)
        with InferenceServer(sim, workers=2, max_wait=0.001) as server:
            futures = [server.submit(size=n) for n in (3, 12, 8, 1)]
            outs = [f.result(timeout=60.0) for f in futures]
        assert outs == [None] * 4      # no payloads exist in sim mode
        m = server.metrics.to_dict()
        assert m["requests"]["completed"] == 4
        assert m["requests"]["samples"] == 24
        assert m["throughput"]["samples_per_second"] > 0


# ------------------------------------------------------------ weight swap
class TestWeightSwap:
    def test_install_params_roundtrip_and_version(self):
        eng = make_engine()
        snap = eng.snapshot_params()
        assert eng.weights_version == 0
        n = eng.install_params({k: v * 2.0 for k, v in snap.items()})
        assert n == len(snap) and eng.weights_version == 1
        back = eng.snapshot_params()
        for k in snap:
            assert np.array_equal(back[k], snap[k] * 2.0)

    def test_ambiguous_param_names_rejected(self):
        from repro.graph.network import Net
        from repro.layers.data import DataLayer
        from repro.layers.fc import FullyConnected

        net = Net("dup")
        net.add(DataLayer("data", (2, 1, 4, 4)))
        net.add(FullyConnected("fc", 8))
        net.add(FullyConnected("fc", 8))   # same name, legal at build
        eng = Engine(net, RuntimeConfig.superneurons(concrete=True))
        with pytest.raises(ValueError, match="ambiguous"):
            eng.snapshot_params()
        with pytest.raises(ValueError, match="ambiguous"):
            eng.install_params({})

    def test_install_params_validates_before_writing(self):
        eng = make_engine()
        snap = eng.snapshot_params()
        with pytest.raises(KeyError, match="unknown parameter"):
            eng.install_params({"nope:w": np.zeros(3, dtype=np.float32)})
        name = next(iter(snap))
        bad = dict(snap)
        bad[name] = np.zeros((1, 2, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="expects shape"):
            eng.install_params(bad)
        # nothing half-swapped: values and version are untouched
        assert eng.weights_version == 0
        after = eng.snapshot_params()
        assert all(np.array_equal(after[k], snap[k]) for k in snap)

    def test_swap_lands_between_split_halves_on_old_weights(self):
        """The satellite edge case, deterministically: a request split
        across steps is mid-flight (first step computed, later steps
        pending) when swap_weights is called — the swap must block
        until every step finished on the OLD weights."""
        eng = make_engine()
        data = make_requests(eng, [int(2.5 * BATCH)], seed=5)[0]
        ref_old = solo_outputs(eng, data)

        first_step_done = threading.Event()
        gate = threading.Event()

        class GatedSession:
            """Delegates to a real session, stalling the worker after
            its first step so the test can inject the swap mid-request."""

            def __init__(self, inner):
                self._inner = inner
                self._steps = 0

            def run_iteration(self, *args, **kwargs):
                res = self._inner.run_iteration(*args, **kwargs)
                self._steps += 1
                if self._steps == 1:
                    first_step_done.set()
                    assert gate.wait(30.0)
                return res

            def with_history(self, max_results):
                self._inner.with_history(max_results)
                return self

            def close(self):
                self._inner.close()

        real_session = eng.session
        eng.session = lambda mode="train": GatedSession(real_session(mode))
        server = InferenceServer(eng, workers=1, max_wait=0.0)
        server.start()
        try:
            future = server.submit(data)
            assert first_step_done.wait(30.0)
            # worker is stalled after step 1 of 3; swap from a thread
            snap = eng.snapshot_params()
            swapper = threading.Thread(
                target=server.swap_weights,
                args=({k: v * 1.5 for k, v in snap.items()},))
            swapper.start()
            time.sleep(0.05)
            assert swapper.is_alive(), \
                "swap must block while the split request is in flight"
            assert eng.weights_version == 0, \
                "weights installed while a request was mid-split"
            gate.set()                      # let steps 2..3 run
            out = future.result(timeout=30.0)
            swapper.join(timeout=30.0)
            assert not swapper.is_alive()
        finally:
            server.stop()
        # every slice computed under the old version, bit-identically
        assert np.array_equal(ref_old, out)
        assert eng.weights_version == 1
        assert server.metrics.to_dict()["swaps"] == \
            {"count": 1, "weights_version": 1}

    def test_requests_after_swap_use_new_weights(self):
        eng = make_engine()
        data = make_requests(eng, [5], seed=11)[0]
        snap = eng.snapshot_params()
        new_params = {k: v * 0.5 for k, v in snap.items()}
        with InferenceServer(eng, workers=2, max_wait=0.0) as server:
            before = server.submit(data).result(timeout=30.0)
            installed = server.swap_weights(new_params)
            after = server.submit(data).result(timeout=30.0)
        assert installed == len(snap)
        ref_new = solo_outputs(eng, data)   # engine now holds new weights
        assert np.array_equal(after, ref_new)
        assert not np.array_equal(before, after)

    def test_no_tearing_under_racing_swaps(self):
        """Requests racing a swap land entirely on one version —
        ``versions`` (the per-slice record) never mixes."""
        eng = make_engine()
        datas = make_requests(eng, [20, 7, 19, 3], seed=13)
        snap = eng.snapshot_params()
        with InferenceServer(eng, workers=3, policy="greedy-fill",
                             max_wait=0.001) as server:
            reqs = [server.queue.submit(data=d) for d in datas]
            server.swap_weights({k: v * 1.1 for k, v in snap.items()})
            for r in reqs:
                r.future.result(timeout=60.0)
        for r in reqs:
            assert len(r.versions) == 1, \
                f"request {r.request_id} tore across {r.versions}"


# ---------------------------------------------------------------- metrics
class TestServerMetrics:
    def test_fill_padding_and_latency_accounting(self, engine):
        datas = make_requests(engine, [3, 20], seed=17)
        with InferenceServer(engine, workers=2, max_wait=0.0) as server:
            for d in datas:
                server.submit(d).result(timeout=60.0)
        m = server.metrics.to_dict()
        assert m["requests"]["completed"] == 2
        assert m["requests"]["samples"] == 23
        assert m["batches"]["rows"] == 23
        total = m["batches"]["rows"] + m["batches"]["padded_rows"]
        assert total == m["batches"]["count"] * BATCH
        assert 0.0 < m["batches"]["fill_ratio"] <= 1.0
        lat = m["requests"]["latency_ms"]
        assert lat["max"] >= lat["p95"] >= lat["p50"] >= 0.0
        assert m["requests"]["queue_ms"]["mean"] >= 0.0
        assert m["throughput"]["requests_per_second"] > 0

    def test_stop_fails_unserved_requests(self):
        eng = make_engine()
        server = InferenceServer(eng, workers=1, max_wait=30.0)
        server.start()
        data = make_requests(eng, [2], seed=19)[0]
        server.batcher.pause()             # assembly can never happen,
        future = server.submit(data)       # so the abandon is certain
        server.stop(drain=False)
        with pytest.raises(RuntimeError, match="server stopped"):
            future.result(timeout=5.0)
        assert server.metrics.to_dict()["requests"]["failed"] == 1
        with pytest.raises(RuntimeError, match="closed"):
            server.submit(data)

    def test_concrete_server_requires_payload(self, engine):
        with InferenceServer(engine, workers=1) as server:
            with pytest.raises(ValueError, match="payload rows"):
                server.submit(size=3)

    def test_simulated_server_rejects_silently_ignored_payload(self):
        sim = make_engine(concrete=False)
        data = np.zeros((2, 1, 28, 28), dtype=np.float32)
        with InferenceServer(sim, workers=1) as server:
            with pytest.raises(ValueError, match="no payloads"):
                server.submit(data=data)

    def test_clean_stop_reports_drained(self, engine):
        server = InferenceServer(engine, workers=1, max_wait=0.0)
        server.start()
        data = make_requests(engine, [2], seed=23)[0]
        future = server.submit(data)
        assert server.stop(timeout=30.0) is True
        assert future.result(timeout=1.0) is not None

    @pytest.mark.parametrize("workers", [1, 3])
    def test_roster_is_fixed_from_start_to_stop(self, workers):
        """``workers=N`` means N ``repro-serve-*`` threads from
        ``start()`` to ``stop()``, whatever the backlog: 24 two-step
        requests queued at once is 48 batches deep, far past any
        per-worker depth, and spawns nothing; idling retires nothing."""
        def serve_threads():
            return sum(t.name.startswith("repro-serve-")
                       for t in threading.enumerate())
        sim = make_engine(concrete=False)
        before = serve_threads()
        server = InferenceServer(sim, workers=workers, max_wait=0.0)
        assert serve_threads() == before        # nothing until start()
        with server:
            assert serve_threads() == before + workers
            futures = [server.submit(size=2 * BATCH) for _ in range(24)]
            deadline = time.monotonic() + 30.0
            while not all(f.done() for f in futures):
                assert serve_threads() == before + workers
                assert time.monotonic() < deadline, "backlog never drained"
                time.sleep(0.001)
            assert server.drain(timeout=30.0)
            time.sleep(0.1)                     # idle: nobody retires
            assert serve_threads() == before + workers
            assert len(server.session_timelines()) == workers
            registry = MetricsRegistry()
            server.register_metrics(registry, "lane")
            assert {n.split(".")[1] for n in registry.names()
                    if n.startswith("lane.worker")} \
                == {f"worker{i}" for i in range(workers)}
            assert f"{workers} workers" in server.describe()
        assert serve_threads() == before
        assert server.metrics.counts() == (24, 0, 0)

    def test_needs_at_least_one_worker(self, engine):
        with pytest.raises(ValueError, match="workers"):
            InferenceServer(engine, workers=0)


# -------------------------------------------------- engine introspection
class TestEngineIntrospection:
    def test_describe_reports_shape_and_parallel_drive(self, engine):
        engine.compiled("infer")
        text = engine.describe()
        assert f"batch {BATCH}" in text
        assert f"infer [{BATCH}x1x28x28]" in text
        assert "parallel drive: infer" in text
        assert "weights v0" in text

    def test_batch_shape_properties(self, engine):
        assert engine.input_shape == (BATCH, 1, 28, 28)
        assert engine.batch_size == BATCH

    def test_supports_parallel(self, engine):
        assert engine.supports_parallel("infer")
        assert not engine.supports_parallel("train")   # concrete weights
        assert make_engine(concrete=False).supports_parallel("train")
        with pytest.raises(ValueError, match="unknown execution mode"):
            engine.supports_parallel("predict")
