"""The serve worker's batch hand-off (ISSUE 16).

Workers take batches off a deque without entering the queue monitor and
record metrics into a private shard, so the shared locks are off the
per-batch path.  What has to survive that:

* the monitor is entered per assembly round, not per batch, and the
  shared ``serve.metrics`` lock never from a worker;
* the swap/drain barriers still mean "nothing in flight": a barrier
  registers before it reads the done tokens, ``mark_done`` appends its
  token before it reads the registration;
* the shards fold to exactly what one shared lock would have counted;
* a step that dies mid-scatter resolves every request exactly once.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.check import instrument
from repro.core.config import RuntimeConfig
from repro.core.engine import Engine
from repro.serve import (
    DynamicBatcher,
    InferenceServer,
    RequestQueue,
    RequestRejected,
)
from repro.serve.batcher import AssembledBatch, BatchSlice
from repro.serve.metrics import FleetMetrics, ServerMetrics
from repro.serve.queue import PRIORITIES, InferenceRequest, RequestFuture
from repro.zoo import NETWORK_BUILDERS

BATCH = 8


def make_engine(batch=BATCH) -> Engine:
    return Engine(NETWORK_BUILDERS["lenet"](batch=batch),
                  RuntimeConfig.superneurons(concrete=False))


def two_outstanding(clock=time.monotonic):
    """A batcher with two batches taken and not yet done."""
    q = RequestQueue(clock=clock)
    b = DynamicBatcher(q, BATCH, policy="greedy-fill", max_wait=0.0,
                       clock=clock)
    q.submit(size=2 * BATCH)
    return b, [b.next_batch(timeout=1.0), b.next_batch(timeout=1.0)]


def monitor_entries(log, thread_prefix=""):
    return [e for e in log.events
            if e.kind == "acquire" and e.label == "serve.queue"
            and e.thread.startswith(thread_prefix)]


# ------------------------------------------------------------ queue rows
class TestRequestFuture:
    """A future is a flag until someone waits on it unresolved."""

    def test_resolved_before_result(self):
        f = RequestFuture()
        assert not f.done()
        f.set_result("rows")
        assert f.done() and f.result() == "rows" \
            and f.result(timeout=0) == "rows"

    def test_result_waits_for_a_set_from_another_thread(self):
        f = RequestFuture()
        got = []
        waiter = threading.Thread(target=lambda: got.append(
            f.result(timeout=10)))
        waiter.start()
        while f._event._event is None:      # the waiter is in wait()
            time.sleep(0.001)
        f.set_result("rows")
        waiter.join(10)
        assert got == ["rows"]

    @pytest.mark.parametrize("timeout", [0.02, 0, -1])
    def test_result_times_out(self, timeout):
        with pytest.raises(TimeoutError):
            RequestFuture().result(timeout=timeout)

    def test_exception_is_reraised(self):
        f = RequestFuture()
        f.set_exception(RuntimeError("step died"))
        assert f.done()
        with pytest.raises(RuntimeError, match="step died"):
            f.result(timeout=0)


class TestPendingRows:
    def test_running_count_tracks_submit_and_take(self):
        q = RequestQueue()
        assert q.pending_rows() == 0
        for size in (3, 1, 7):
            q.submit(size=size)
        assert q.pending_rows() == 11
        with q.cond:
            assert sum(r.size for r in q.take_pending()) == 11
        assert q.pending_rows() == 0
        q.submit(size=4)
        assert q.pending_rows() == 4

    def test_rejection_leaves_the_count_alone(self):
        q = RequestQueue(max_pending_rows=10)
        q.submit(size=6)
        with pytest.raises(RequestRejected, match="6 pending rows"):
            q.submit(size=5)
        assert q.pending_rows() == 6
        q.submit(size=4)
        assert q.pending_rows() == 10


# ------------------------------------------------------ lock-entry budget
class TestLockEntryBudget:
    def test_workers_enter_the_monitor_per_round_not_per_batch(self):
        """4 workers, a closed backlog of N batches: the monitor sees a
        small multiple of (rounds + workers) worker entries — the locked
        pop took 2N — and the shared metrics lock sees none."""
        workers, n_batches = 4, 200
        eng = make_engine()
        with instrument.capture() as log:
            server = InferenceServer(eng, workers=workers,
                                     policy="greedy-fill", max_wait=0.001)
            rounds = []
            assemble = server.batcher._assemble_round
            server.batcher._assemble_round = \
                lambda: (rounds.append(1), assemble())
            futures = [server.submit(size=2)
                       for _ in range(n_batches * BATCH // 2)]
            server.start()
            for f in futures:
                f.result(timeout=60.0)
            # read before stop(): its drain barrier registers a waiter
            entries = monitor_entries(log, "repro-serve-")
            shared = [e for e in log.events
                      if e.kind == "acquire" and e.label == "serve.metrics"
                      and e.thread.startswith("repro-serve-")]
            pops = [e for e in log.events if e.label == "batcher.pop"]
            server.stop()
        assert server.batcher.batches_assembled == n_batches == len(pops)
        assert len(rounds) >= 1
        assert len(entries) <= 3 * (len(rounds) + workers) < 2 * n_batches
        assert shared == []
        assert server.metrics.counts() == (len(futures), 0, 0)
        assert server.metrics.to_dict()["batches"]["count"] == n_batches


# ------------------------------------------------------ barrier handshake
class TickingClock:
    """Every reading is ``step`` later than the one before: a timeout
    expires after a known number of looks, and nothing really sleeps."""

    def __init__(self, step=0.0):
        self.now, self.step = 0.0, step

    def __call__(self):
        self.now += self.step
        return self.now


class TestBarrierHandshake:
    def _waiter(self, batcher):
        """``wait_idle`` in a thread, parked and registered."""
        got = []
        t = threading.Thread(
            target=lambda: got.append(batcher.wait_idle(timeout=30.0)))
        t.start()
        deadline = time.monotonic() + 10.0
        while batcher._waiters != 1:
            assert time.monotonic() < deadline
            time.sleep(0.0005)
        return t, got

    def test_done_before_the_waiter_never_touches_the_monitor(self):
        b, batches = two_outstanding()
        with instrument.capture() as log:
            for batch in batches:
                b.mark_done(batch)
            assert monitor_entries(log) == []
            assert b.wait_idle(timeout=0.0)
        assert b._outstanding == 0 and not b._done

    def test_waiter_registered_first_is_notified(self):
        b, batches = two_outstanding()
        t, got = self._waiter(b)
        with instrument.capture() as log:
            for batch in batches:
                b.mark_done(batch)
            assert len(monitor_entries(log, "MainThread")) == 2
        t.join(timeout=10.0)
        assert got == [True] and b._waiters == 0

    def test_waiter_registering_between_the_last_two_dones(self):
        b, batches = two_outstanding()
        b.mark_done(batches[0])             # nobody to tell
        t, got = self._waiter(b)
        time.sleep(0.02)
        assert t.is_alive() and got == []   # one batch still in flight
        b.mark_done(batches[1])
        t.join(timeout=10.0)
        assert got == [True]

    def test_timeout_with_a_batch_in_flight(self):
        clock = TickingClock()
        b, batches = two_outstanding(clock)
        clock.step = 10.0
        b.mark_done(batches[0])
        assert b.wait_idle(timeout=5.0) is False
        assert b.wait_drained(timeout=5.0) is False
        assert b._waiters == 0              # deregistered on the way out
        b.mark_done(batches[1])
        assert b.wait_idle(timeout=5.0) is True

    def test_empty_deque_leaves_no_phantom_outstanding(self):
        clock = TickingClock(step=10.0)
        q = RequestQueue(clock=clock)
        b = DynamicBatcher(q, BATCH, max_wait=0.0, clock=clock)
        assert b.next_batch(timeout=5.0) is None
        assert b._outstanding == 0
        assert b.wait_idle(timeout=5.0) is True
        assert b.wait_drained(timeout=5.0) is True

    def test_abandoned_batches_stop_counting_as_outstanding(self):
        b, batches = two_outstanding()
        b.queue.submit(size=3 * BATCH)
        taken = b.next_batch(timeout=1.0)   # a second round: 3 published
        b.shutdown()
        assert b.next_batch(timeout=1.0) is None
        assert len(b.drain_ready()) == 2
        for batch in batches + [taken]:
            b.mark_done(batch)
        assert b.wait_idle(timeout=0.0)


class TestSwapStorm:
    def test_no_tearing_and_no_install_with_a_batch_in_flight(self):
        """Swaps against 4 workers with the interpreter switching
        threads every 10 us: every request computes on one weights
        version, and the barrier never lets an install through while a
        batch is between ``next_batch`` and ``mark_done``."""
        eng = make_engine()
        snap = eng.snapshot_params()
        server = InferenceServer(eng, workers=4, policy="greedy-fill",
                                 max_wait=0.0005)
        in_flight, torn = set(), []
        next_batch, mark_done = \
            server.batcher.next_batch, server.batcher.mark_done
        install = eng.install_params

        def tracked_next(timeout=None):
            batch = next_batch(timeout)
            if batch is not None:
                in_flight.add(batch.batch_id)
            return batch

        def tracked_done(batch):
            in_flight.discard(batch.batch_id)
            mark_done(batch)

        def checked_install(params):
            torn.extend(in_flight)
            return install(params)

        server.batcher.next_batch = tracked_next
        server.batcher.mark_done = tracked_done
        eng.install_params = checked_install
        rng = random.Random(16)
        reqs = [server.queue.submit(size=1 + rng.randrange(2 * BATCH))
                for _ in range(150)]
        stop = threading.Event()

        def storm():
            while not stop.is_set():
                server.swap_weights(snap, timeout=60.0)

        swapper = threading.Thread(target=storm)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with server:
                swapper.start()
                for _ in range(3):
                    reqs += [server.queue.submit(
                        size=1 + rng.randrange(2 * BATCH))
                        for _ in range(150)]
                    for r in reqs:
                        r.future.result(timeout=60.0)
                stop.set()
                swapper.join(timeout=60.0)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not swapper.is_alive()
        assert torn == []
        assert eng.weights_version >= 1
        for r in reqs:
            assert len(r.versions) == 1, \
                f"request {r.request_id} tore across {r.versions}"
        assert server.metrics.counts() == (len(reqs), 0, 0)


# ---------------------------------------------------------- shard folding
class Reference:
    """What one lock around plain counters would have collected."""

    def __init__(self):
        self.completed = self.failed = self.shed = 0
        self.samples = self.shed_samples = 0
        self.batches = self.rows = self.padded = self.splits = 0
        self.windows = {k: [] for k in
                        ("total", "queue", "compute", "failed")}
        self.classes = {c: [] for c in PRIORITIES}


def random_request(rng, rid):
    req = InferenceRequest(rid, rng.randint(1, BATCH), None,
                           enqueue_time=rng.random(),
                           priority=rng.choice(PRIORITIES))
    req.begin_dispatch(1)
    return req


def drive(rng, metrics, shards, ref, ops):
    """``ops`` random records spread over ``shards``, with reads (which
    fold) thrown in; ``ref`` tallies the same by hand."""
    for rid in range(ops):
        kind = rng.choice(("step", "step", "abort", "failure", "shed",
                           "read"))
        # a draw that costs the same whatever the shard count
        shard = shards[rng.randrange(1 << 16) % len(shards)]
        if kind == "read":
            metrics.counts()
        elif kind == "shed":
            rows, cls = rng.randint(1, 9), rng.choice(PRIORITIES)
            metrics.record_shed(rows, cls)
            ref.shed += 1
            ref.shed_samples += rows
        elif kind == "failure":     # off the worker path (stop())
            req = random_request(rng, rid)
            req.fail(RuntimeError("x"), req.enqueue_time + rng.random())
            metrics.record_failure(req)
            ref.failed += 1
            ref.windows["failed"].append(
                req.complete_time - req.enqueue_time)
        else:
            req, lost = random_request(rng, rid), random_request(rng, -rid)
            req.mark_dispatched(req.enqueue_time + rng.random())
            req.deliver(0, None, 0, req.dispatch_time + rng.random())
            ref.completed += 1
            ref.samples += req.size
            ref.windows["queue"].append(
                req.dispatch_time - req.enqueue_time)
            ref.windows["compute"].append(
                req.complete_time - req.dispatch_time)
            total = req.complete_time - req.enqueue_time
            ref.windows["total"].append(total)
            ref.classes[req.priority].append(total)
            if kind == "abort":     # the step raised after req landed
                lost.fail(RuntimeError("x"), lost.enqueue_time + 1.0)
                shard.record_step(None, 0.0, [req], [lost])
                ref.failed += 1
                ref.windows["failed"].append(
                    lost.complete_time - lost.enqueue_time)
            else:
                part = rng.randint(1, req.size)     # < size: a split
                batch = AssembledBatch(
                    rid, BATCH, [BatchSlice(req, 0, part, 0, 0)], 0.0)
                shard.record_step(batch, 0.25, [req])
                ref.batches += 1
                ref.rows += part
                ref.padded += BATCH - part
                ref.splits += part != req.size


class TestShardFolding:
    @pytest.mark.parametrize("seed", range(5))
    def test_folds_to_what_one_lock_would_count(self, seed):
        rng = random.Random(seed)
        metrics = ServerMetrics(clock=lambda: 0.0)
        shards = [metrics.shard() for _ in range(4)]
        ref = Reference()
        drive(rng, metrics, shards, ref, 400)
        assert metrics.counts() == (ref.completed, ref.failed, ref.shed)
        snap = metrics.latency_snapshot()
        for key, want in ref.windows.items():
            assert sorted(snap[key]) == sorted(want)
        for cls, want in ref.classes.items():
            assert sorted(snap["classes"][cls]) == sorted(want)
        d = metrics.to_dict()
        assert d["requests"]["samples"] == ref.samples
        assert d["requests"]["shed_samples"] == ref.shed_samples
        assert d["batches"] == {
            "count": ref.batches, "rows": ref.rows,
            "padded_rows": ref.padded, "split_slices": ref.splits,
            "fill_ratio": ref.rows / (ref.rows + ref.padded),
            "compute_seconds": 0.25 * ref.batches}
        assert sum(c["completed"] for c in d["classes"].values()) \
            == ref.completed
        # folded: the shards hold nothing, the windows exist once
        assert all(s._tally.completed == 0 and not s._tally.latency["total"]
                   for s in shards)

    def test_sharded_and_single_shard_reports_are_the_same(self):
        """The same records through four shards (folded at random
        moments) and through one (folded once): ``to_dict`` and the
        fleet rollup over them cannot tell the difference."""
        def build(n_shards):
            lanes = {}
            for lane in ("a", "b"):
                rng = random.Random(lane)
                m = ServerMetrics(clock=lambda: 0.0)
                drive(rng, m, [m.shard() for _ in range(n_shards)],
                      Reference(), 300)
                lanes[lane] = m
            return FleetMetrics(lanes)

        def flat(d, prefix=""):
            for k, v in d.items():
                if isinstance(v, dict):
                    yield from flat(v, f"{prefix}{k}.")
                else:
                    yield prefix + k, v

        many, one = build(4), build(1)
        assert many.counts() == one.counts()
        got, want = dict(flat(many.to_dict())), dict(flat(one.to_dict()))
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-9), key


class TestFleetFold:
    """The fleet report is a fold of the tallies its lanes already
    fold: one read per lane, the server's own builder over the sum."""

    @staticmethod
    def lanes(names):
        out = {}
        for lane in names:
            m = ServerMetrics(clock=lambda: 0.0)
            drive(random.Random(lane), m, [m.shard() for _ in range(2)],
                  Reference(), 200)
            out[lane] = m
        return out

    def test_one_lane_fleet_reports_what_the_lane_reports(self):
        lanes = self.lanes(["a"])
        fleet = FleetMetrics(lanes)
        d = fleet.to_dict()
        want = lanes["a"].to_dict()
        assert d["engines"]["a"] == want
        for block in ("requests", "classes", "batches"):
            assert d["fleet"][block] == want[block]
        assert d["fleet"]["fill_ratio"] == want["batches"]["fill_ratio"]
        assert fleet.counts() == lanes["a"].counts()
        # fleet sheds (no lane admitted the request) add on top
        fleet.record_shed(3, "batch")
        got = fleet.to_dict()["fleet"]
        assert got["requests"]["shed"] == want["requests"]["shed"] + 1
        assert got["requests"]["shed_samples"] \
            == want["requests"]["shed_samples"] + 3
        assert got["classes"]["batch"]["shed"] \
            == want["classes"]["batch"]["shed"] + 1
        assert fleet.counts()[2] == lanes["a"].counts()[2] + 1

    def test_three_lane_percentiles_are_over_merged_samples(self):
        from repro.serve.metrics import _stats_ms
        lanes = self.lanes(["a", "b", "c"])
        snaps = [m.latency_snapshot() for m in lanes.values()]
        d = FleetMetrics(lanes).to_dict()["fleet"]
        for key, block in (("total", "latency_ms"), ("queue", "queue_ms"),
                           ("compute", "compute_ms"),
                           ("failed", "failed_ms")):
            merged = [x for s in snaps for x in s[key]]
            assert d["requests"][block] == _stats_ms(merged)
        for cls in PRIORITIES:
            merged = [x for s in snaps for x in s["classes"][cls]]
            assert d["classes"][cls]["latency_ms"] == _stats_ms(merged)
        # and not an average of the lanes' percentiles
        p95s = [m.to_dict()["requests"]["latency_ms"]["p95"]
                for m in lanes.values()]
        assert d["requests"]["latency_ms"]["p95"] != sum(p95s) / 3

    def test_to_dict_takes_each_lane_lock_once(self):
        """Counts and windows from one read: a request completing
        between two reads would be in one and not the other."""
        lanes = self.lanes(["a", "b"])

        class CountingLock:
            def __init__(self, lock):
                self.lock, self.entered = lock, 0

            def __enter__(self):
                self.entered += 1
                return self.lock.__enter__()

            def __exit__(self, *exc):
                return self.lock.__exit__(*exc)

        for m in lanes.values():
            m._lock = CountingLock(m._lock)
        FleetMetrics(lanes).to_dict()
        assert [m._lock.entered for m in lanes.values()] == [1, 1]


# -------------------------------------------------- failures mid-scatter
class TestFailureAccounting:
    def test_exception_mid_scatter_resolves_each_request_once(
            self, monkeypatch):
        """One batch carries three requests; the second delivery
        raises.  The first stays completed, the other two fail, the
        step is not counted, and ``stop()``'s identity holds."""
        real_deliver = InferenceRequest.deliver
        calls = []

        def deliver(req, *args):
            calls.append(req.request_id)
            if len(calls) == 2:
                raise RuntimeError("scatter died")
            return real_deliver(req, *args)

        monkeypatch.setattr(InferenceRequest, "deliver", deliver)
        server = InferenceServer(make_engine(), workers=1,
                                 policy="greedy-fill", max_wait=0.0)
        futures = [server.submit(size=n) for n in (3, 3, 2)]
        with server:
            assert futures[0].result(timeout=30.0) is None
            for f in futures[1:]:
                with pytest.raises(RuntimeError, match="scatter died"):
                    f.result(timeout=30.0)
            server.drain(timeout=30.0)
        m = server.metrics.to_dict()
        assert server.metrics.counts() == (1, 2, 0)
        assert server.queue.submitted == 3
        assert m["batches"]["count"] == 0
        assert m["requests"]["samples"] == 3

    def test_stop_without_drain_fails_what_is_left_on_the_deque(self):
        eng = make_engine()
        first_step = threading.Event()

        class Held:
            """Holds the worker inside its first step until the server
            is shutting down, so the rest of the round stays published
            and untaken."""

            def __init__(self, inner):
                self._inner = inner

            def run_iteration(self, *args, **kwargs):
                first_step.set()
                deadline = time.monotonic() + 30.0
                while not server.batcher.stopping:
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
                return self._inner.run_iteration(*args, **kwargs)

            def with_history(self, n):
                self._inner.with_history(n)
                return self

            def close(self):
                self._inner.close()

        real_session = eng.session
        eng.session = lambda mode="train": Held(real_session(mode))
        server = InferenceServer(eng, workers=1, policy="greedy-fill",
                                 max_wait=0.0)
        futures = [server.submit(size=BATCH) for _ in range(6)]
        server.start()
        assert first_step.wait(30.0)
        assert server.stop(drain=False) is False
        assert futures[0].result(timeout=1.0) is None
        for f in futures[1:]:
            with pytest.raises(RuntimeError, match="server stopped"):
                f.result(timeout=1.0)
        assert server.metrics.counts() == (1, 5, 0)
        assert not server.batcher._ready
        assert server.batcher.wait_idle(timeout=0.0)
