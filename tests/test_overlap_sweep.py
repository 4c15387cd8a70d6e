"""Overlap under pressure, pinned across capacities (DESIGN.md "Clean and
dirty lines", "Return trip").

Write-behind cleaning and the just-in-time return trip hide the tensor
cache's DMA under compute; they may move *when* bytes cross PCIe, never
how many come back, how high the peak goes, or what a roomy run does.
This is the tier-1 subset of the 5 x 5 capacity sweep in EXPERIMENTS.md
("PR 24"): simulated img/s at least the parent's at every pressured
capacity, peaks and eviction counts as measured, and the two mechanisms'
tables empty after every iteration.
"""

import pytest

from repro import Engine, RuntimeConfig, Session
from repro.zoo import inception_v4, resnet50

from tests.test_clean_lines import SETTLED, abort_then_recover, settled

GiB = 1 << 30
MiB = 1 << 20

#: (net, GiB) -> (parent simulated img/s, peak bytes, evictions); b32,
#: full stack.  img/s is PR 24's parent (on-demand eviction and fetch,
#: every copy exposed); peak is the parent's too, bit for bit.
SWEEP = {
    ("resnet50", 0.75): (34.963, 783_132_832, 44),
    ("resnet50", 1.0): (39.435, 1_048_305_824, 28),
    ("resnet50", 2.0): (58.510, 2_134_253_728, 7),
    ("inception_v4", 1.0): (20.494, 1_042_176_032, 86),
}
NETS = {"resnet50": resnet50, "inception_v4": inception_v4}
BATCH = 32


def pressured(net="resnet50", gib=1.0, **kw):
    cfg = RuntimeConfig.superneurons(
        concrete=False, gpu_capacity=int(gib * GiB), **kw)
    return NETS[net](batch=BATCH), cfg


@pytest.mark.parametrize("net,gib", list(SWEEP),
                         ids=[f"{n}@{g}GiB" for n, g in SWEEP])
def test_no_capacity_is_slower_than_on_demand(net, gib):
    parent_ips, peak, evictions = SWEEP[net, gib]
    with Engine(*pressured(net, gib)).session("train") as sess:
        for i in range(2):
            res = sess.run_iteration(i)
            assert settled(sess.executor) == SETTLED
    assert BATCH / res.sim_time > parent_ips
    assert res.peak_bytes == peak
    assert res.cache_evictions == evictions
    # most evictions find write-behind there first
    assert res.cache_clean_evictions >= evictions - 8


def test_train_pressured_claim():
    """The ledger workload's figures: what moved and what must not."""
    with Engine(*pressured()).session("train") as sess:
        sess.run_iteration(0)
        res = sess.run_iteration(1)
    assert BATCH / res.sim_time >= 50            # 39.435 at the parent
    assert res.stall_seconds <= 0.200            # 0.3843
    assert res.h2d_bytes == 1_534_902_272        # unchanged
    assert res.h2d_bytes < res.d2h_bytes <= 1543 * MiB
    assert (res.peak_bytes, res.cache_evictions) == (1_048_305_824, 28)


def test_a_roomy_run_never_cleans_and_never_comes_back():
    net, cfg = pressured(gib=12)
    with Engine(net, cfg).session("train") as sess:
        ex = sess.executor
        ex._clean_async = lambda t: pytest.fail(f"cleaned {t.name}")
        for i in range(2):
            res = sess.run_iteration(i)
            assert res.d2h_bytes == res.h2d_bytes == 0
            assert res.stall_seconds == 0 and settled(ex) == SETTLED


def test_engine_lane_equals_standalone_session_from_iteration_zero():
    """The need order is a derived schedule: a lane that links the
    engine's shared plans and a standalone session that gathers its own
    run the same return trip, the recording iteration included."""
    with Engine(*pressured()).session("train") as lane:
        shared = [lane.run_iteration(i).to_dict() for i in range(3)]
        assert lane.executor.replayed_iterations == 3
    with Session(*pressured()) as solo:
        own = [solo.run_iteration(i).to_dict() for i in range(3)]
        assert solo.executor.replayed_iterations == 2
    assert shared == own
    assert shared[0]["cache"]["evictions"] == 28


def test_an_aborted_return_trip_leaves_no_queue_behind():
    """Mid-backward at 1 GiB: copies are due, lines are being cleaned.
    The next iteration's turn starts from an empty queue."""
    abort_then_recover(lambda: Session(*pressured()), at_step=280,
                       stranded=lambda ex: len(ex._due_back) > 0)
