"""Tests for the timeline and DMA engine."""

import pytest

from repro.device import (
    CopyDirection,
    DeviceModel,
    DMAEngine,
    Stream,
    Timeline,
)


class TestTimeline:
    def test_same_stream_serializes(self):
        tl = Timeline()
        tl.submit(Stream.COMPUTE, 1.0)
        tl.submit(Stream.COMPUTE, 2.0)
        assert tl.now(Stream.COMPUTE) == pytest.approx(3.0)

    def test_different_streams_overlap(self):
        tl = Timeline()
        tl.submit(Stream.COMPUTE, 5.0)
        tl.submit(Stream.D2H, 1.0)
        assert tl.now(Stream.D2H) == pytest.approx(1.0)
        assert tl.elapsed == pytest.approx(5.0)

    def test_dependency_delays_start(self):
        tl = Timeline()
        ev = tl.submit(Stream.COMPUTE, 3.0)
        ev2 = tl.submit(Stream.D2H, 1.0, after=[ev])
        assert ev2.time == pytest.approx(4.0)

    def test_sync_returns_stall(self):
        tl = Timeline()
        ev = tl.submit(Stream.D2H, 2.0)
        stall = tl.sync(Stream.COMPUTE, ev)
        assert stall == pytest.approx(2.0)
        assert tl.now(Stream.COMPUTE) == pytest.approx(2.0)

    def test_sync_no_stall_when_already_past(self):
        tl = Timeline()
        ev = tl.submit(Stream.D2H, 1.0)
        tl.submit(Stream.COMPUTE, 5.0)
        assert tl.sync(Stream.COMPUTE, ev) == 0.0

    def test_sync_all_joins(self):
        tl = Timeline()
        tl.submit(Stream.COMPUTE, 1.0)
        tl.submit(Stream.H2D, 4.0)
        t = tl.sync_all()
        assert t == pytest.approx(4.0)
        assert tl.now(Stream.COMPUTE) == pytest.approx(4.0)

    def test_busy_time_accumulates(self):
        tl = Timeline()
        tl.submit(Stream.COMPUTE, 1.0)
        tl.submit(Stream.COMPUTE, 0.5)
        assert tl.busy_time(Stream.COMPUTE) == pytest.approx(1.5)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Timeline().submit(Stream.COMPUTE, -1.0)

    def test_reset(self):
        tl = Timeline()
        tl.submit(Stream.COMPUTE, 1.0)
        tl.reset()
        assert tl.elapsed == 0.0
        assert not tl.ops()


class TestDMAEngine:
    def test_copy_time_scales_with_bytes(self):
        tl = Timeline()
        dma = DMAEngine(tl, DeviceModel())
        t_small = dma.copy_time(1 << 20, CopyDirection.D2H)
        t_big = dma.copy_time(1 << 30, CopyDirection.D2H)
        assert t_big > t_small * 100

    def test_pageable_halves_bandwidth(self):
        tl = Timeline()
        model = DeviceModel()
        pinned = DMAEngine(tl, model, pinned=True)
        pageable = DMAEngine(tl, model, pinned=False)
        nb = 1 << 30
        assert pageable.copy_time(nb, CopyDirection.H2D) > \
            1.9 * pinned.copy_time(nb, CopyDirection.H2D)

    def test_stats_accumulate(self):
        tl = Timeline()
        dma = DMAEngine(tl, DeviceModel())
        dma.copy_async(100, CopyDirection.D2H)
        dma.copy_async(50, CopyDirection.H2D)
        assert dma.stats.d2h_bytes == 100
        assert dma.stats.h2d_bytes == 50
        assert dma.stats.total_bytes == 150
        dma.reset_stats()
        assert dma.stats.total_bytes == 0

    def test_copies_on_their_own_streams(self):
        tl = Timeline()
        dma = DMAEngine(tl, DeviceModel())
        ev = dma.copy_async(1 << 30, CopyDirection.D2H)
        assert ev.stream is Stream.D2H
        assert tl.now(Stream.COMPUTE) == 0.0  # compute untouched
