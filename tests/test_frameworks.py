"""Tests for the framework policy models and capacity probes."""

import pytest

from repro.core.config import RecomputeStrategy, RuntimeConfig, WorkspacePolicy
from repro.frameworks import FRAMEWORKS, framework_config
from repro.frameworks.probe import _search_max, max_batch, peak_memory, try_run
from repro.zoo import alexnet, lenet


class TestModels:
    def test_all_five_present(self):
        assert set(FRAMEWORKS) == {"caffe", "torch", "mxnet", "tensorflow",
                                   "superneurons"}

    def test_caffe_static_sharing(self):
        cfg = framework_config("caffe")
        assert cfg.liveness_scope == "grads_only"
        assert not cfg.use_offload
        assert cfg.recompute is RecomputeStrategy.NONE

    def test_mxnet_speed_centric(self):
        cfg = framework_config("mxnet")
        assert cfg.recompute is RecomputeStrategy.SPEED_CENTRIC
        assert cfg.liveness_scope == "all"

    def test_tensorflow_pageable_swap(self):
        cfg = framework_config("tensorflow")
        assert cfg.use_offload
        assert not cfg.use_tensor_cache
        assert not cfg.pinned_host

    def test_superneurons_full_stack(self):
        cfg = framework_config("superneurons")
        assert cfg.use_offload and cfg.use_tensor_cache
        assert cfg.recompute is RecomputeStrategy.COST_AWARE

    def test_overrides_pass_through(self):
        cfg = framework_config("caffe", concrete=False,
                               gpu_capacity=123456789)
        assert not cfg.concrete
        assert cfg.capacity == 123456789

    def test_peak_ordering_across_frameworks(self):
        """Static sharing keeps every activation; DAG liveness frees;
        SuperNeurons floors out.  Peaks must order accordingly."""
        mk = lambda: alexnet(batch=8, image=131, num_classes=10)
        peaks = {}
        for fw in ("caffe", "mxnet", "superneurons"):
            cfg = framework_config(fw, concrete=False,
                                   workspace_policy=WorkspacePolicy.NONE)
            peaks[fw] = peak_memory(mk(), cfg)
        assert peaks["caffe"] > peaks["mxnet"] >= peaks["superneurons"]


class TestSearchMax:
    def test_threshold(self):
        assert _search_max(lambda n: n <= 37, 1, 1000) == 37

    def test_everything_fits_returns_cap(self):
        assert _search_max(lambda n: True, 1, 64) == 64

    def test_nothing_fits_returns_zero(self):
        assert _search_max(lambda n: False, 8, 64) == 0

    def test_exact_boundary(self):
        assert _search_max(lambda n: n <= 64, 1, 64) == 64
        assert _search_max(lambda n: n <= 8, 8, 64) == 8

    def test_start_around_the_cap(self):
        """The cap binds whatever the start: one below it and at it the
        answer is the cap; above it the range is empty — it used to
        return the start, ignoring the cap."""
        cap = 8
        assert _search_max(lambda n: True, cap - 1, cap) == cap
        assert _search_max(lambda n: True, cap, cap) == cap
        with pytest.raises(ValueError, match="empty search range"):
            _search_max(lambda n: True, cap + 1, cap)


class TestProbes:
    def test_try_run_none_on_tiny_device(self):
        net = lenet(batch=8, image=28)
        cfg = RuntimeConfig.baseline(concrete=False, gpu_capacity=1 << 20,
                                     workspace_policy=WorkspacePolicy.NONE)
        assert try_run(net, cfg) is None

    def test_try_run_ok_on_roomy_device(self):
        net = lenet(batch=8, image=28)
        cfg = RuntimeConfig.baseline(concrete=False)
        assert try_run(net, cfg) is not None

    def test_max_batch_monotone_in_capacity(self):
        def factory_small():
            return RuntimeConfig.liveness_only(
                concrete=False, gpu_capacity=64 << 20,
                workspace_policy=WorkspacePolicy.NONE)

        def factory_big():
            return RuntimeConfig.liveness_only(
                concrete=False, gpu_capacity=256 << 20,
                workspace_policy=WorkspacePolicy.NONE)

        b_small = max_batch(lenet, factory_small, start=2, limit=2048,
                            image=28)
        b_big = max_batch(lenet, factory_big, start=2, limit=2048, image=28)
        assert b_big > b_small > 0

    def test_superneurons_max_batch_beats_baseline(self):
        cap = 96 << 20

        def base():
            return RuntimeConfig.baseline(
                concrete=False, gpu_capacity=cap,
                workspace_policy=WorkspacePolicy.NONE)

        def sn():
            return RuntimeConfig.superneurons(
                concrete=False, gpu_capacity=cap,
                workspace_policy=WorkspacePolicy.NONE)

        b_base = max_batch(lenet, base, start=2, limit=4096, image=28)
        b_sn = max_batch(lenet, sn, start=2, limit=4096, image=28)
        assert b_sn > b_base
