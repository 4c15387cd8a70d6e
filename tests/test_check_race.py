"""Race detector: every rule fires on a seeded-race fixture recorded
from a real interleaving, clean code stays clean, and the serving swap
barrier passes under the detector (the deadlock regression).

The seeded fixtures use RAW ``threading`` primitives (tests are not
linted) to *order* the threads deterministically without creating
happens-before edges in the log — the detector sees genuinely
unordered accesses that in fact executed in a fixed sequence, which is
exactly the "passes by lucky scheduling" failure mode the sanitizer
exists to catch.
"""

import threading
import time

import pytest

from repro.check import instrument
from repro.check.diagnostics import RACE_RULES
from repro.check.instrument import (
    EventLog,
    TracedCondition,
    TracedEvent,
    TracedLock,
    TracedThread,
    capture,
    channel_recv,
    channel_send,
    trace_read,
    trace_write,
)
from repro.check.race_detector import analyze_log


def _rules(report):
    return sorted({d.rule for d in report.diagnostics})


def _two_threads(first, then):
    """Run ``first`` and ``then`` in two raw threads, ``then`` strictly
    after ``first`` — real ordering, NO happens-before edge in the log."""
    gate = threading.Event()

    def a():
        first()
        gate.set()

    def b():
        assert gate.wait(10)
        then()

    ta = threading.Thread(target=a, name="fixture-a")
    tb = threading.Thread(target=b, name="fixture-b")
    ta.start(); tb.start()
    ta.join(10); tb.join(10)
    assert not ta.is_alive() and not tb.is_alive()


# --------------------------------------------------------------------------- #
# RACE001 unordered-conflicting-access
# --------------------------------------------------------------------------- #

class _Shared:
    pass


def test_race001_unordered_write_write():
    obj = _Shared()
    with capture() as log:
        _two_threads(lambda: trace_write(obj, "shared.counter"),
                     lambda: trace_write(obj, "shared.counter"))
    report = analyze_log(log)
    assert _rules(report) == ["RACE001"]
    (d,) = report.diagnostics
    assert d.severity == "error"
    assert "write-write" in d.message
    assert "fixture-a" in d.op and "fixture-b" in d.op


def test_race001_locked_write_vs_unlocked_read():
    obj = _Shared()
    lock = TracedLock("fixture.lock")

    def write():
        with lock:
            trace_write(obj, "shared.field")

    with capture() as log:
        _two_threads(write, lambda: trace_read(obj, "shared.field"))
    report = analyze_log(log)
    # the writer synchronized (lockset non-empty) but the reader did
    # not: an ordering race, not an unsynchronized publish
    assert _rules(report) == ["RACE001"]


def test_race001_read_then_unordered_write():
    obj = _Shared()
    with capture() as log:
        _two_threads(lambda: trace_read(obj, "shared.field"),
                     lambda: trace_write(obj, "shared.field"))
    report = analyze_log(log)
    assert _rules(report) == ["RACE001"]
    assert "races the read" in report.diagnostics[0].message


def test_clean_event_ordering_passes():
    obj = _Shared()
    ev = TracedEvent("fixture.done")

    def write():
        trace_write(obj, "shared.field")
        ev.set()

    def read():
        assert ev.wait(10)
        trace_read(obj, "shared.field")

    with capture() as log:
        _two_threads(write, read)
    assert analyze_log(log).ok


def test_clean_channel_ordering_passes():
    obj = _Shared()

    def write():
        trace_write(obj, "shared.field")
        channel_send("tok", "fixture.chan")

    def read():
        channel_recv("tok", "fixture.chan")
        trace_read(obj, "shared.field")

    with capture() as log:
        _two_threads(write, read)
    assert analyze_log(log).ok


def test_clean_common_lock_passes():
    obj = _Shared()
    lock = TracedLock("fixture.lock")

    def write():
        with lock:
            trace_write(obj, "shared.field")

    def read():
        with lock:
            trace_read(obj, "shared.field")

    with capture() as log:
        _two_threads(write, read)
    assert analyze_log(log).ok


def test_traced_thread_spawn_and_join_edges():
    obj = _Shared()
    with capture() as log:
        trace_write(obj, "shared.field")      # parent, before spawn
        t = TracedThread(target=lambda: trace_write(obj, "shared.field"),
                         name="fixture-child")
        t.start()
        t.join(10)
        trace_read(obj, "shared.field")       # parent, after join
    assert analyze_log(log).ok


def test_same_thread_accesses_never_race():
    obj = _Shared()
    with capture() as log:
        trace_write(obj, "shared.field")
        trace_write(obj, "shared.field")
        trace_read(obj, "shared.field")
    assert analyze_log(log).ok


# --------------------------------------------------------------------------- #
# RACE002 lock-order-inversion
# --------------------------------------------------------------------------- #

def test_race002_lock_order_inversion():
    # one thread takes a->b then b->a sequentially: no deadlock THIS
    # run, but the acquisition graph has the cycle that deadlocks two
    # threads taking the orders concurrently
    a = TracedLock("lock.a")
    b = TracedLock("lock.b")
    with capture() as log:
        with a:
            with b:
                pass
        with b:
            with a:
                pass
    report = analyze_log(log)
    assert _rules(report) == ["RACE002"]
    (d,) = report.diagnostics
    assert "lock.a" in d.message and "lock.b" in d.message
    assert "cycle" in d.message


def test_race002_three_lock_cycle():
    a, b, c = (TracedLock(f"lock.{x}") for x in "abc")
    with capture() as log:
        with a, b:
            pass
        with b, c:
            pass
        with c, a:
            pass
    report = analyze_log(log)
    assert _rules(report) == ["RACE002"]


def test_consistent_lock_order_passes():
    a = TracedLock("lock.a")
    b = TracedLock("lock.b")
    with capture() as log:
        for _ in range(3):
            with a:
                with b:
                    pass
    assert analyze_log(log).ok


# --------------------------------------------------------------------------- #
# RACE003 unsynchronized-publish
# --------------------------------------------------------------------------- #

def test_race003_unsynchronized_publish():
    obj = _Shared()
    with capture() as log:
        _two_threads(lambda: trace_write(obj, "shared.config"),
                     lambda: trace_read(obj, "shared.config"))
    report = analyze_log(log)
    assert _rules(report) == ["RACE003"]
    (d,) = report.diagnostics
    assert "holding no lock" in d.message


def test_race003_and_race001_are_mutually_exclusive():
    # the same unordered write->read pair classifies as exactly one
    # rule, decided by the writer's lockset (empty = publish bug)
    obj = _Shared()
    lock = TracedLock("fixture.lock")

    def locked_write():
        with lock:
            trace_write(obj, "shared.field")

    with capture() as log_unlocked:
        _two_threads(lambda: trace_write(obj, "shared.field"),
                     lambda: trace_read(obj, "shared.field"))
    with capture() as log_locked:
        _two_threads(locked_write,
                     lambda: trace_read(obj, "shared.field"))
    assert _rules(analyze_log(log_unlocked)) == ["RACE003"]
    assert _rules(analyze_log(log_locked)) == ["RACE001"]


# --------------------------------------------------------------------------- #
# RACE004 lock-held-across-wait
# --------------------------------------------------------------------------- #

def test_race004_lock_held_across_condition_wait():
    lock = TracedLock("fixture.outer")
    cond = TracedCondition("fixture.cond")
    with capture() as log:
        with lock:
            with cond:
                cond.wait(timeout=0.01)
    report = analyze_log(log)
    assert _rules(report) == ["RACE004"]
    (d,) = report.diagnostics
    assert "fixture.outer" in d.message and "fixture.cond" in d.message


def test_race004_lock_held_across_event_wait():
    lock = TracedLock("fixture.outer")
    ev = TracedEvent("fixture.ev")
    with capture() as log:
        with lock:
            ev.wait(timeout=0.01)
    report = analyze_log(log)
    assert _rules(report) == ["RACE004"]


def test_race004_gate_lock_exempt():
    # the server's swap lock pattern: gate=True documents that holding
    # it across the drain barrier IS the design
    gate = TracedLock("fixture.swap", gate=True)
    cond = TracedCondition("fixture.cond")
    with capture() as log:
        with gate:
            with cond:
                cond.wait(timeout=0.01)
    assert analyze_log(log).ok


def test_race004_own_monitor_is_not_a_held_lock():
    cond = TracedCondition("fixture.cond")
    with capture() as log:
        with cond:
            cond.wait(timeout=0.01)
    assert analyze_log(log).ok


# --------------------------------------------------------------------------- #
# RACE005 incomplete-trace (warning)
# --------------------------------------------------------------------------- #

def test_race005_truncated_log_warns():
    obj = _Shared()
    with capture(limit=3) as log:
        for _ in range(10):
            trace_write(obj, "shared.field")
    assert log.truncated
    report = analyze_log(log)
    assert _rules(report) == ["RACE005"]
    (d,) = report.diagnostics
    assert d.severity == "warning"
    assert report.ok  # warnings alone do not fail a check


def test_event_log_limit_validation():
    with pytest.raises(ValueError):
        EventLog(limit=0)


# --------------------------------------------------------------------------- #
# the wait hand-off: condition wait releases and re-acquires the monitor
# --------------------------------------------------------------------------- #

def test_condition_wait_handoff_orders_accesses():
    # writer publishes under the monitor while a reader is *waiting* on
    # it: the wait_begin/wait_end release/re-acquire must carry the edge
    obj = _Shared()
    cond = TracedCondition("fixture.cond")
    ready = []

    def consumer():
        with cond:
            while not ready:
                if not cond.wait(timeout=10):
                    raise AssertionError("producer never arrived")
            trace_read(obj, "shared.field")

    def producer():
        with cond:
            trace_write(obj, "shared.field")
            ready.append(True)
            cond.notify_all()

    with capture() as log:
        tc = threading.Thread(target=consumer, name="consumer")
        tc.start()
        import time
        time.sleep(0.05)  # let the consumer reach the wait
        tp = threading.Thread(target=producer, name="producer")
        tp.start()
        tc.join(10); tp.join(10)
        assert not tc.is_alive() and not tp.is_alive()
    assert analyze_log(log).ok


# --------------------------------------------------------------------------- #
# arming / overhead plumbing
# --------------------------------------------------------------------------- #

def test_disarmed_hooks_record_nothing():
    assert not instrument.armed()
    obj = _Shared()
    lock = TracedLock("quiet")
    ev = TracedEvent("quiet")
    with lock:
        trace_write(obj, "shared")
    ev.set()
    assert ev.wait(1)
    assert instrument.active_log() is None


# --------------------------------------------------------------------------- #
# TracedEvent: a flag, and a threading.Event only for an early waiter
# --------------------------------------------------------------------------- #

def _blocked_waiters(ev, n, timeout=10.0):
    """Start ``n`` raw threads blocked in ``ev.wait(timeout)``; returns
    them and the list their results land in.  Returns once a waiter has
    built the event, so a later ``set`` comes after at least one wait."""
    results = []
    threads = [threading.Thread(target=lambda: results.append(
        ev.wait(timeout)), name=f"waiter-{i}") for i in range(n)]
    for t in threads:
        t.start()
    while ev._event is None:
        time.sleep(0.001)
    return threads, results


def _joined(threads):
    for t in threads:
        t.join(10)
    return not any(t.is_alive() for t in threads)


def test_event_set_before_wait_builds_no_event():
    ev = TracedEvent("ev")
    assert not ev.is_set()
    ev.set()
    assert ev.is_set() and ev.wait() and ev.wait(0) and ev.wait(-1)
    assert ev._event is None


def test_event_wait_before_a_set_from_another_thread():
    ev = TracedEvent("ev")
    threads, results = _blocked_waiters(ev, 1)
    ev.set()
    assert _joined(threads) and results == [True]


def test_event_releases_every_waiter():
    ev = TracedEvent("ev")
    threads, results = _blocked_waiters(ev, 3)
    ev.set()
    assert _joined(threads) and results == [True, True, True]


@pytest.mark.parametrize("timeout", [0.02, 0, -1])
def test_event_wait_times_out(timeout):
    ev = TracedEvent("ev")
    assert ev.wait(timeout) is False
    # a zero or negative timeout returns at once, with nothing built
    assert (ev._event is None) == (timeout <= 0)


@pytest.mark.parametrize("waiter_first", [True, False],
                         ids=["waiter-first", "setter-first"])
def test_armed_event_handoff_log(waiter_first):
    """Armed, the hand-off is the same three records under the event's
    id whichever side comes first, and ``set`` precedes ``wait_end``."""
    ev = TracedEvent("ev")
    with capture() as log:
        if waiter_first:
            threads, results = _blocked_waiters(ev, 1)
            ev.set()
            assert _joined(threads) and results == [True]
        else:
            ev.set()
            assert ev.wait(10)
    kinds = [e.kind for e in log.events if e.obj == id(ev)]
    assert kinds == (["event_wait_begin", "event_set", "event_wait_end"]
                     if waiter_first else
                     ["event_set", "event_wait_begin", "event_wait_end"])
    assert analyze_log(log).ok


def test_capture_restores_previous_state():
    assert not instrument.armed()
    with capture() as log:
        assert instrument.active_log() is log
        with capture() as inner:
            assert instrument.active_log() is inner
        assert instrument.active_log() is log
    assert not instrument.armed()


def test_thread_key_dedupes_same_name():
    log = EventLog()
    results = []

    def rec():
        log.record("write", 1, "x")

    t1 = threading.Thread(target=rec, name="twin")
    t2 = threading.Thread(target=rec, name="twin")
    t1.start(); t1.join(10)
    t2.start(); t2.join(10)
    keys = {e.thread for e in log.events}
    assert len(keys) == 2  # same name, distinct per-log identities


# --------------------------------------------------------------------------- #
# the shipped concurrency surfaces are clean under the detector
# --------------------------------------------------------------------------- #

def test_parallel_scenario_clean():
    from repro.check.scenarios import run_parallel_scenario

    log, info = run_parallel_scenario(sessions=3, iters=2)
    report = analyze_log(log, target="parallel")
    assert report.ok, report.render()
    assert not report.warnings
    assert info["events"] > 100


def test_serving_scenario_with_swap_storm_clean():
    """The deadlock regression: swap_weights (pause -> wait_idle ->
    install -> resume, under the gate lock) racing live workers must
    produce no RACE002 lock-cycle, no RACE004 (the swap lock is a
    documented gate), and no unordered access to the installed params —
    an inverted barrier order would trip RACE001/002/004 here."""
    from repro.check.scenarios import run_serving_scenario

    log, info = run_serving_scenario(requests=40, swaps=3)
    report = analyze_log(log, target="serving")
    assert report.ok, report.render()
    assert not report.warnings
    assert info["swaps"] == 3
    # the scenario actually exercised the surfaces the rules police:
    kinds = {e.kind for e in log.events}
    assert {"acquire", "release", "wait_begin", "wait_end", "event_set",
            "chan_send", "chan_recv", "thread_start", "read",
            "write"} <= kinds
    labels = {e.label for e in log.events}
    assert "server.swap" in labels
    assert "engine.weights_version" in labels


def test_saturated_scenario_clean():
    """Closed backlogs, 4 workers, swaps landing mid-drain: workers take
    most batches off the ready deque without entering the monitor, so
    the barrier's proof rests on the hand-off's own edges."""
    from repro.check.scenarios import run_saturated_scenario

    log, info = run_saturated_scenario(requests=120, swaps=3)
    report = analyze_log(log, target="saturated")
    assert report.ok, report.render()
    assert not report.warnings
    assert (info["workers"], info["swaps"]) == (4, 3)
    assert info["weights_version"] == 3
    pops = sum(e.label == "batcher.pop" for e in log.events)
    entries = sum(e.kind == "acquire" and e.label == "serve.queue"
                  and e.thread.startswith("repro-serve-")
                  for e in log.events)
    dones = sum(e.label == "batcher.done" for e in log.events)
    assert dones == pops > 50
    # the locked pop entered twice per batch; were that still so, this
    # scenario would not be exercising the lock-free path at all
    assert entries < 2 * pops


def _lock_free_batch_then_install(batcher, engine_like):
    """A worker takes a batch, reads the weights and marks it done with
    nobody registered (so ``mark_done`` never enters the monitor); then
    the swapper finds the batcher idle at once and installs.  Raw
    events order the two without leaving an edge in the log."""
    marked = threading.Event()

    def worker():
        batch = batcher.next_batch(timeout=10.0)
        trace_read(engine_like, "engine.params")
        batcher.mark_done(batch)
        marked.set()

    t = threading.Thread(target=worker, name="fixture-worker")
    t.start()
    assert marked.wait(10)
    assert batcher.wait_idle(timeout=0.0)
    with TracedLock("engine.compile"):
        trace_write(engine_like, "engine.params")
    t.join(10)


def test_done_to_idle_edge_orders_a_lock_free_batch_before_the_install():
    from repro.serve import DynamicBatcher, RequestQueue

    owner = object()
    with capture() as log:
        q = RequestQueue()
        q.submit(size=8)
        _lock_free_batch_then_install(
            DynamicBatcher(q, 8, max_wait=0.0), owner)
    assert analyze_log(log).ok


def test_without_the_done_edge_the_install_is_a_race(monkeypatch):
    """The same run with ``mark_done``'s send muted: the worker's last
    monitor exit precedes its read, so nothing orders the read before
    the install — the sanitizer has to say so."""
    from repro.serve import DynamicBatcher, RequestQueue, batcher

    monkeypatch.setattr(
        batcher, "channel_send",
        lambda token, label="chan": None if label == "batcher.done"
        else channel_send(token, label))
    owner = object()
    with capture() as log:
        q = RequestQueue()
        q.submit(size=8)
        _lock_free_batch_then_install(
            DynamicBatcher(q, 8, max_wait=0.0), owner)
    assert _rules(analyze_log(log)) == ["RACE001"]


def test_inverted_swap_barrier_would_be_caught():
    """If swap_weights took the queue monitor first and the swap lock
    inside it while workers nest the other way, the detector flags the
    inversion — the regression the RACE002 rule exists for."""
    swap = TracedLock("server.swap.bad")  # NOT a gate: misdeclared
    cond = TracedCondition("serve.queue")
    with capture() as log:
        # worker order: monitor -> swap
        with cond:
            with swap:
                pass
        # inverted swapper order: swap -> monitor -> wait
        with swap:
            with cond:
                cond.wait(timeout=0.01)
    report = analyze_log(log)
    assert set(_rules(report)) == {"RACE002", "RACE004"}


def test_rule_table_registered():
    assert set(RACE_RULES) == {f"RACE00{i}" for i in range(1, 6)}
    from repro.check.diagnostics import ALL_RULES
    assert set(RACE_RULES) <= set(ALL_RULES)
