"""Tests for the pluggable MemoryPolicy API.

Two layers of guarantees (that ``Session(net).with_policy(...)`` is
the run of the preset config it resolves to is
``tests/test_equivalence_matrix.py::test_facade``'s):

* **hook ordering** — a recording probe policy appended to the stack
  sees the lifecycle hooks in the documented order, for every step;
* **registry/config plumbing** — stacks resolve from configs, framework
  models describe their stacks, custom policies ride along.
"""

import pytest

from repro import RuntimeConfig, SGD, Session
from repro.core.config import RecomputeStrategy
from repro.core.policy import (
    POLICY_REGISTRY,
    LivenessPolicy,
    MemoryPolicy,
    OffloadCachePolicy,
    RecomputePolicy,
    resolve_policies,
)
from repro.core.policy import WorkspacePolicy as WorkspacePlugin
from repro.frameworks import FRAMEWORKS
from repro.zoo import lenet


class RecordingPolicy(MemoryPolicy):
    """Appends every hook invocation to a shared log."""

    key = "probe"

    def __init__(self):
        self.log = []

    def on_iteration_start(self, ctx):
        self.log.append(("iteration_start", ctx.iteration))

    def before_step(self, ctx, step):
        self.log.append(("before_step", step.index))

    def before_compute(self, ctx, step):
        self.log.append(("before_compute", step.index))

    def after_step(self, ctx, step):
        self.log.append(("after_step", step.index))

    def on_step_settled(self, ctx, step):
        self.log.append(("step_settled", step.index))

    def on_tensor_dead(self, ctx, t):
        self.log.append(("tensor_dead", t.name))

    def on_iteration_end(self, ctx):
        self.log.append(("iteration_end", ctx.iteration))


class TestHookOrdering:
    def _run_with_probe(self, config):
        net = lenet(batch=2, image=12)
        probe = RecordingPolicy()
        with Session(net, config).with_policy(probe).executor as ex:
            ex.run_iteration(0)
            n_steps = len(ex.route.steps)
        return probe.log, n_steps

    def test_iteration_brackets_everything(self):
        log, _ = self._run_with_probe(RuntimeConfig.superneurons())
        assert log[0] == ("iteration_start", 0)
        assert ("iteration_end", 0) in log
        tail = log[log.index(("iteration_end", 0)):]
        # nothing but tensor_dead (the iteration-end cleanup) may follow
        assert all(e[0] in ("iteration_end", "tensor_dead") for e in tail)

    def test_per_step_hook_order(self):
        log, n_steps = self._run_with_probe(RuntimeConfig.superneurons())
        for idx in range(n_steps):
            step_events = [e[0] for e in log if e[1] == idx
                           and e[0] in ("before_step", "before_compute",
                                        "after_step", "step_settled")]
            assert step_events[0] == "before_step"
            assert step_events[-1] == "step_settled"
            assert step_events.index("after_step") \
                > step_events.index("before_step")
            # before_compute fires for compute-bearing steps, between
            # before_step and after_step
            if "before_compute" in step_events:
                assert step_events.index("before_step") \
                    < step_events.index("before_compute") \
                    < step_events.index("after_step")

    def test_every_step_sees_hooks(self):
        log, n_steps = self._run_with_probe(RuntimeConfig.liveness_only())
        before = [e for e in log if e[0] == "before_step"]
        settled = [e for e in log if e[0] == "step_settled"]
        assert len(before) == len(settled) == n_steps

    def test_tensor_dead_fires_under_liveness(self):
        log, _ = self._run_with_probe(RuntimeConfig.liveness_only())
        assert any(e[0] == "tensor_dead" for e in log)

    def test_reclamation_dispatch_order_is_stack_order(self):
        """offload registration -> liveness frees -> recompute cleanup."""
        keys = [p.key for p in resolve_policies(RuntimeConfig.superneurons())]
        assert keys == ["offload", "liveness", "recompute", "workspace"]


class TestStackResolution:
    def test_baseline_is_workspace_only(self):
        keys = [p.key for p in resolve_policies(RuntimeConfig.baseline())]
        assert keys == ["workspace"]

    def test_registry_has_the_four_builtins(self):
        assert {"liveness", "offload", "recompute", "workspace"} \
            <= set(POLICY_REGISTRY)

    def test_configure_maps_options_onto_config(self):
        cfg = RuntimeConfig.baseline()
        OffloadCachePolicy.configure(cfg, cache="lfu")
        RecomputePolicy.configure(cfg, strategy="memory")
        LivenessPolicy.configure(cfg, scope="grads_only")
        WorkspacePlugin.configure(cfg, mode="max")
        assert cfg.use_offload and cfg.use_tensor_cache
        assert cfg.cache_policy == "lfu"
        assert cfg.recompute is RecomputeStrategy.MEMORY_CENTRIC
        assert cfg.liveness_scope == "grads_only"
        assert cfg.workspace_policy.value == "max"

    def test_bad_options_are_loud(self):
        with pytest.raises(ValueError):
            LivenessPolicy.configure(RuntimeConfig(), scope="sometimes")
        with pytest.raises(ValueError):
            RecomputePolicy.configure(RuntimeConfig(), strategy="psychic")
        with pytest.raises(KeyError):
            Session(lenet(batch=2, image=12)).with_policy("turbo")

    def test_frameworks_describe_policy_stacks(self):
        for name, fw in FRAMEWORKS.items():
            desc = fw.describe_policies()
            assert "workspace" in desc
        assert "cache=lru" in FRAMEWORKS["superneurons"].describe_policies()
        assert "eager" in FRAMEWORKS["tensorflow"].describe_policies()
        assert "grads_only" in FRAMEWORKS["caffe"].describe_policies()


class TestSessionExecutorEquivalence:
    """The fluent builder against a preset config, on iteration 0's loss
    and peak (every ladder rung, bit for bit, over several iterations is
    ``tests/test_equivalence_matrix.py::test_facade``)."""

    def test_session_peak_and_loss_match_executor_exactly(self):
        mk = lambda: lenet(batch=4, image=12)
        with Session(mk(), RuntimeConfig.superneurons()) as sess:
            a = sess.run_iteration(0, optimizer=SGD(0.1))
        with Session(mk()).with_policy("liveness") \
                          .with_policy("offload", cache="lru") \
                          .with_policy("recompute", strategy="cost_aware") \
                as sess:
            b = sess.run_iteration(0, optimizer=SGD(0.1))
        assert (a.loss, a.peak_bytes) == (b.loss, b.peak_bytes)


class TestSessionBehaviour:
    def test_custom_policy_rides_along(self):
        probe = RecordingPolicy()
        with Session(lenet(batch=2, image=12)).with_policy(probe) as sess:
            sess.run_iteration(0)
            assert sess.policy_names()[-1] == "probe"
        assert probe.log[0][0] == "iteration_start"

    def test_configure_after_build_is_rejected(self):
        sess = Session(lenet(batch=2, image=12))
        sess.run_iteration(0)
        with pytest.raises(RuntimeError, match="already built"):
            sess.with_policy("offload")
        sess.close()

    def test_from_framework(self):
        with Session.from_framework(lenet(batch=2, image=12),
                                    "superneurons") as sess:
            assert "offload" in sess.policy_names()
            res = sess.run_iteration(0, optimizer=SGD(0.05))
        assert res.loss is not None

    def test_with_config_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            Session(lenet(batch=2, image=12)).with_config(warp_drive=True)

    def test_context_manager_releases_device(self):
        with Session(lenet(batch=2, image=12)) as sess:
            sess.run_iteration(0)
            gpu = sess.executor.gpu
        assert gpu.used_bytes == 0

    def test_trainer_accepts_session(self):
        from repro import Trainer
        sess = Session(lenet(batch=4, image=12),
                       RuntimeConfig.superneurons())
        with Trainer(session=sess, optimizer=SGD(0.1)) as tr:
            stats = tr.train(4)
        assert stats.final_loss < stats.losses[0]


class TestResultSummary:
    def test_to_dict_includes_workspace_summary(self):
        with Session(lenet(batch=2, image=12),
                     RuntimeConfig.superneurons()) as sess:
            d = sess.run_iteration(0).to_dict()
        ws = d["workspaces"]
        assert ws["executions"] == 4  # 2 convs x (fw + bw)
        assert ws["at_max_speed"] + ws["fallbacks"] == ws["executions"]
