"""The compile-once Engine API and the inference execution mode (ISSUE 3).

Contracts under test (the full matrix of a standalone session, an
engine worker and interleaved workers running the same iterations, and
of an infer loss being train's forward half, is
``tests/test_equivalence_matrix.py``'s):

* the standalone ``Session(net).with_policy(...).run(...)`` path and an
  ``engine.session(mode="train")`` worker return bit-identical
  ``IterationResult.to_dict()`` output (the facade round-trip);
* infer peak memory is strictly lower on every zoo net, and infer mode
  arms no backward-only policy;
* N sessions sharing one engine compile the plan exactly once, each
  over a substrate of its own;
* ``Session.without_policy`` is driven by the policy registry: its
  accepted names and error listing match ``with_policy``, and
  disarming offload disarms the tensor cache with it;
* the Engine is the one front door (PR 21): ``Executor`` is not a
  package export and cannot be built without an engine's planning, and
  every executor of an engine — standalone session, engine worker,
  scout — runs over the one cached ``_mode_planning`` result.
"""

import gc
import weakref
from collections import Counter

import pytest

import repro
from repro import Engine, RuntimeConfig, SGD, Session, Trainer
from repro.check.plan_verifier import PlanVerificationError
from repro.core.liveness import LivenessAnalysis
from repro.core.policy import POLICY_REGISTRY, MemoryPolicy
from repro.core.runtime import Executor
from repro.device.gpu import OutOfMemoryError
from repro.graph.route import ExecutionRoute
from repro.tensors.tensor import Tensor
from repro.zoo import NETWORK_BUILDERS, alexnet, lenet, resnet50

ITERS = 4


class TestEngineTrainRoundTrip:
    """The facade: standalone Session output == engine worker output."""

    def test_session_path_matches_engine_worker_bit_identical(self):
        def mk():
            return lenet(batch=4, image=12)

        with Session(mk(), RuntimeConfig.superneurons()) as sess:
            solo = [sess.run_iteration(i, optimizer=SGD(0.05)).to_dict()
                    for i in range(ITERS)]
        engine = repro.compile(mk(), RuntimeConfig.superneurons())
        with engine.session(mode="train") as worker:
            shared = [worker.run_iteration(i, optimizer=SGD(0.05)).to_dict()
                      for i in range(ITERS)]
            # the worker links its plan at iteration 0, as the
            # standalone session does, and reuses it from iteration 1
            assert worker.executor.replayed_iterations == ITERS - 1
        assert shared == solo

    def test_fluent_with_policy_path_matches_engine(self):
        def mk():
            return lenet(batch=4, image=12)

        with Session(mk()).with_policy("offload", cache="lru") \
                          .with_policy("recompute", strategy="cost_aware") \
                as sess:
            solo = [r.to_dict() for r in
                    sess.run(iters=3, optimizer=SGD(0.05))]
        cfg = RuntimeConfig()
        POLICY_REGISTRY["offload"].configure(cfg, cache="lru")
        POLICY_REGISTRY["recompute"].configure(cfg, strategy="cost_aware")
        with repro.compile(mk(), cfg).session() as worker:
            shared = [r.to_dict() for r in
                      worker.run(iters=3, optimizer=SGD(0.05))]
        assert shared == solo

    def test_simulated_alexnet_round_trip(self):
        def mk():
            return alexnet(batch=4, image=67, num_classes=10)

        cfg = RuntimeConfig.superneurons(concrete=False)
        with Session(mk(), cfg) as sess:
            solo = [sess.run_iteration(i).to_dict() for i in range(3)]
        with repro.compile(mk(), cfg).session() as worker:
            shared = [worker.run_iteration(i).to_dict() for i in range(3)]
        assert shared == solo


class TestInferMode:
    @pytest.mark.parametrize("name", sorted(NETWORK_BUILDERS))
    def test_infer_peak_strictly_below_train_peak(self, name):
        net = NETWORK_BUILDERS[name](batch=8)
        engine = Engine(net, RuntimeConfig.superneurons(concrete=False))
        with engine.session(mode="train") as t:
            train_peak = t.run_iteration(0).peak_bytes
        with engine.session(mode="infer") as i:
            infer_peak = i.run_iteration(0).peak_bytes
        assert infer_peak < train_peak

    def test_forward_only_route_no_backward_artifacts(self):
        engine = repro.compile(lenet(batch=4, image=12),
                               RuntimeConfig.superneurons())
        with engine.session(mode="infer") as sess:
            res = sess.run_iteration(0)
            route = sess.executor.route
        assert len(route.steps) == route.num_layers  # N, not 2N
        assert route.bstep_of == {}
        assert all(t.phase == "forward" for t in res.traces)
        # backward-bridging machinery never engages
        assert res.extra_forwards == 0
        assert res.d2h_bytes == 0 and res.h2d_bytes == 0

    def test_infer_disarms_offload_and_recompute(self):
        engine = Engine(lenet(batch=2, image=12),
                        RuntimeConfig.superneurons())
        sess = engine.session(mode="infer")
        assert sess.policy_names() == ["liveness", "workspace"]
        sess.close()

    def test_infer_runs_eval_kernels(self):
        """Dropout is identity in infer mode: two infer iterations on
        the same batch match, and differ from the train-mode forward
        (which applies the mask)."""
        from repro.graph import Net
        from repro.layers import (DataLayer, Dropout, FullyConnected,
                                  SoftmaxLoss)

        def build():
            net = Net("drop")
            x = net.add(DataLayer("data", (4, 3, 8, 8), num_classes=4))
            x = net.add(Dropout("drop1", 0.4), [x])
            x = net.add(FullyConnected("fc", 4), [x])
            net.add(SoftmaxLoss("softmax"), [x])
            return net.build()

        engine = Engine(build(), RuntimeConfig.superneurons())
        with engine.session(mode="infer") as inf:
            eval_loss = inf.run_iteration(0).loss
        with engine.session(mode="train") as tr:
            train_loss = tr.run_iteration(0).loss
        assert eval_loss != train_loss  # mask applied only in training

    def test_trainer_rejects_infer_sessions(self):
        engine = Engine(lenet(batch=2, image=12))
        with pytest.raises(TypeError, match="train-mode session"):
            Trainer(session=engine.session(mode="infer"))

    def test_infer_rejects_optimizer_loudly(self):
        """No backward pass means the optimizer would silently never
        step — that must be an error, not a constant loss curve."""
        engine = Engine(lenet(batch=2, image=12))
        with engine.session(mode="infer") as sess:
            with pytest.raises(TypeError, match="no backward pass"):
                sess.run_iteration(0, optimizer=SGD(0.05))

    def test_infer_session_rejects_backward_policies(self):
        """for_mode would silently disarm them — arming must fail loudly,
        for registry names and for instances alike."""
        from repro.core.policy import OffloadCachePolicy
        sess = Session(lenet(batch=2, image=12), mode="infer")
        for name in ("offload", "recompute"):
            with pytest.raises(TypeError, match="disarmed in infer mode"):
                sess.with_policy(name)
        with pytest.raises(TypeError, match="disarmed in infer mode"):
            sess.with_policy(OffloadCachePolicy(cache_policy=None))
        sess.with_policy("liveness")  # forward-relevant: still fine
        sess.close()

    def test_engine_copies_its_config(self):
        """Mutating the caller's config after compile must not desync
        the compiled plans from later workers."""
        cfg = RuntimeConfig.superneurons(concrete=False)
        engine = Engine(lenet(batch=2, image=12), cfg)
        with engine.session() as s:
            before = s.run_iteration(0).to_dict()
        cfg.gpu_capacity = 1 << 20  # caller-side mutation: ignored
        cfg.use_offload = False
        with engine.session() as s:
            after = s.run_iteration(0).to_dict()
        assert after == before

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown execution mode"):
            Session(lenet(batch=2, image=12), mode="predict")


class TestConcurrentSessions:
    def test_plan_compiled_exactly_once_across_sessions(self):
        engine = repro.compile(lenet(batch=4, image=12),
                               RuntimeConfig.superneurons())
        assert engine.compile_count == 0  # lazy until a session runs
        sessions = [engine.session(mode="infer") for _ in range(3)]
        for i in range(2):
            for s in sessions:
                s.run_iteration(i)
        assert engine.compile_count == 1
        assert engine.compiled_modes == ("infer",)
        for s in sessions:
            s.close()

    def test_each_session_gets_its_own_substrate(self):
        engine = repro.compile(lenet(batch=4, image=12))
        a, b = engine.session(), engine.session()
        ex_a, ex_b = a.executor, b.executor
        assert ex_a.timeline is not ex_b.timeline
        assert ex_a.allocator is not ex_b.allocator
        assert ex_a.gpu is not ex_b.gpu
        # but the compiled planning artifacts are the very same objects
        assert ex_a.route is ex_b.route
        assert ex_a.plan is ex_b.plan
        a.close()
        b.close()

    def test_engine_sessions_are_config_frozen(self):
        engine = Engine(lenet(batch=2, image=12))
        sess = engine.session()
        with pytest.raises(RuntimeError, match="compiled engine"):
            sess.with_policy("offload")
        with pytest.raises(RuntimeError, match="compiled engine"):
            sess.with_config(concrete=False)
        sess.close()

    def test_train_and_infer_compiles_share_planning_base(self):
        """The batched-compile fix: compiling both modes runs the
        Alg. 1 graph walk exactly once, and both routes reference the
        very same forward order."""
        engine = Engine(lenet(batch=2, image=12),
                        RuntimeConfig.superneurons())
        train = engine.compiled("train")
        infer = engine.compiled("infer")
        assert engine.compile_count == 1
        assert engine.mode_compile_count == 2
        assert train.route.forward_layers is infer.route.forward_layers


class TestClosedExecutors:
    """Closing an executor cuts the reference cycles through it — the
    linked plan's ops, its policies' context and its observer each hold
    it — so a closed executor is freed by reference counting alone."""

    def test_a_verified_costed_compile_leaves_no_cyclic_garbage(self):
        """A dropped engine — its net, routes, plans and the scout's
        record — is freed by reference counting alone, for every zoo
        net in both modes: what lets a compile pause the collector."""
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for build in NETWORK_BUILDERS.values():
                engine = Engine(build(batch=8),
                                RuntimeConfig.superneurons(concrete=False),
                                verify=True, cost_report=True)
                for mode in ("train", "infer"):
                    engine.compiled(mode)
                assert set(engine.cost_reports) == {"train", "infer"}
                del engine
            gc.collect()
            garbage = Counter(type(o).__name__ for o in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert not garbage, garbage.most_common(5)

    def test_a_layer_holds_its_consumers_weakly(self):
        net = lenet(batch=2, image=12).build()
        data, first = net.layers[0], net.layers[1]
        assert data.next == [first] and first.prev == [data]
        gc.disable()
        try:
            del net, first
            assert data.next == []      # the net owned them
        finally:
            gc.enable()

    def test_a_dropped_session_is_freed_at_once(self):
        net = lenet(batch=2, image=12)
        gc.disable()
        try:
            with Session(net, RuntimeConfig.superneurons()) as sess:
                sess.run_iteration(0)
                ex = weakref.ref(sess.executor)
            del sess
            assert ex() is None
        finally:
            gc.enable()


def _capacity_refused(verify: bool) -> Engine:
    """resnet50 b32 on the baseline rung at 1 GiB: its scout runs out
    of memory, and a verifying engine refuses the plan instead."""
    return Engine(resnet50(batch=32),
                  RuntimeConfig.baseline(concrete=False,
                                         gpu_capacity=1 << 30),
                  verify=verify)


class TestCollectorPause:
    """A compile runs with the cyclic collector paused and leaves it as
    it found it, whatever the compile does."""

    COMPILES = {
        "compiles": (lambda: Engine(lenet(batch=2, image=12),
                                    RuntimeConfig.superneurons(),
                                    verify=True, cost_report=True),
                     None),
        "out_of_memory": (lambda: _capacity_refused(False),
                          OutOfMemoryError),
        "refused_by_verifier": (lambda: _capacity_refused(True),
                                PlanVerificationError),
    }

    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["enabled", "disabled"])
    @pytest.mark.parametrize("case", sorted(COMPILES))
    def test_a_compile_leaves_the_collector_as_it_found_it(self, case,
                                                           enabled):
        build, raises = self.COMPILES[case]
        engine = build()
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if raises is None:
                engine.compiled("train")
            else:
                with pytest.raises(raises):
                    engine.compiled("train")
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_overlapping_compiles_restore_the_outermost_setting(
            self, monkeypatch):
        """A compile runs with the collector paused; one that starts
        inside it finds the collector paused and leaves it paused, and
        the outer one turns it back on."""
        inner = Engine(lenet(batch=2, image=12),
                       RuntimeConfig.superneurons())
        seen = []
        scout = Engine._scout

        def nested(self, planning):
            seen.append(gc.isenabled())
            if self is not inner:
                inner.compiled("infer")
                seen.append(gc.isenabled())
            return scout(self, planning)
        monkeypatch.setattr(Engine, "_scout", nested)
        assert gc.isenabled()
        Engine(lenet(batch=2, image=12),
               RuntimeConfig.superneurons()).compiled("train")
        assert seen == [False, False, False] and gc.isenabled()
        assert inner.compiled_modes == ("infer",)


class TestFrontDoor:
    def test_executor_is_not_a_package_export(self):
        assert "Executor" not in repro.__all__
        with pytest.raises(ImportError):
            from repro import Executor  # noqa: F401

    def test_executor_needs_an_engines_planning(self):
        net, cfg = lenet(batch=2, image=12), RuntimeConfig.superneurons()
        for args in ((net,), (net, cfg), (net, cfg, cfg.policy_stack())):
            with pytest.raises(TypeError, match="Session.*Engine"):
                Executor(*args)

    def test_one_planning_pass_per_mode_per_engine(self, monkeypatch):
        """Every way in ends at ``Engine._mode_planning``, once per
        mode; ``Executor.__init__`` builds no route and compiles no
        liveness plan of its own."""
        calls, derived = [], {"routes": 0, "liveness": 0}
        plan_mode = Engine._mode_planning
        route_init = ExecutionRoute.__init__
        liveness_compile = LivenessAnalysis.compile

        def counted_planning(engine, mode):
            calls.append((id(engine), mode))
            return plan_mode(engine, mode)

        def counted_route(self, *a, **kw):
            derived["routes"] += 1
            route_init(self, *a, **kw)

        def counted_liveness(self):
            derived["liveness"] += 1
            return liveness_compile(self)

        monkeypatch.setattr(Engine, "_mode_planning", counted_planning)
        monkeypatch.setattr(ExecutionRoute, "__init__", counted_route)
        monkeypatch.setattr(LivenessAnalysis, "compile", counted_liveness)

        net, cfg = lenet(batch=2, image=12), RuntimeConfig.superneurons()
        with Session(net, cfg) as solo:
            solo.run(2)
            private = solo.engine
            private.compiled("train")  # the scout re-plans nothing
            assert calls == [(id(private), "train")]
            planning = private.planning("train")
            assert solo.executor.route is planning.route
            assert solo.executor.plan is planning.liveness_plan
            assert private.compiled("train") is planning

        engine = Engine(net, cfg)
        with engine.session("train") as a, engine.session("train") as b, \
                engine.session("infer") as c, \
                engine.executor("train") as recording:
            for s in (a, b, c):
                s.run_iteration(0)
            recording.run_iteration(0)
            planning = engine.planning("train")
            for ex in (a.executor, b.executor, recording):
                assert ex.route is planning.route
                assert ex.plan is planning.liveness_plan
            assert c.executor.route is engine.planning("infer").route
        assert calls[1:] == [(id(engine), "train"), (id(engine), "infer")]
        # three planning passes, three routes, three liveness compiles:
        # none of the seven executors (scouts included) derived its own
        assert derived == {"routes": 3, "liveness": 3}

    @pytest.mark.parametrize("preset", ["superneurons", "liveness_offload"])
    def test_step_prefetch_is_a_tuple_of_tensors(self, preset):
        cfg = getattr(RuntimeConfig, preset)(concrete=False)
        engine = Engine(alexnet(batch=2, image=67, num_classes=10), cfg)
        with engine.session("train") as sess:
            sess.run_iteration(0)
            plan = sess.executor.iteration_plan.plans["offload"]
        schedule = plan.step_prefetch
        if cfg.use_tensor_cache:
            # cache mode has no next-step schedule: its return trip is
            # a need order of (first backward reader, tensor)
            assert not schedule and plan.return_trip
            assert all(isinstance(i, int) and isinstance(t, Tensor)
                       for i, t in plan.return_trip)
            return
        assert schedule and not plan.return_trip
        for reads in schedule.values():
            assert isinstance(reads, tuple) and reads
            assert all(isinstance(t, Tensor) for t in reads)


class TestWithoutPolicyRegistry:
    def test_error_lists_registered_names(self):
        sess = Session(lenet(batch=2, image=12))
        with pytest.raises(KeyError) as ei:
            sess.without_policy("nope")
        msg = str(ei.value)
        for name in sorted(POLICY_REGISTRY):
            assert name in msg
        sess.close()

    def test_accepted_names_match_with_policy(self):
        """Every built-in with_policy name round-trips through
        without_policy — the two sets cannot drift."""
        for name in ("liveness", "offload", "recompute", "workspace"):
            sess = Session(lenet(batch=2, image=12),
                           RuntimeConfig.superneurons())
            sess.with_policy(name).without_policy(name)
            # workspace stays in the stack by design (the "none" mode
            # still records zero-workspace choices); the rest drop out
            if name != "workspace":
                assert name not in sess.policy_names()
            sess.close()

    def test_disarming_offload_disarms_the_cache(self):
        sess = Session(lenet(batch=2, image=12))
        sess.with_policy("offload", cache="lru")
        assert sess.config.use_offload and sess.config.use_tensor_cache
        sess.without_policy("offload")
        assert not sess.config.use_offload
        assert not sess.config.use_tensor_cache  # previously left armed
        sess.close()

    def test_disarmed_equals_never_armed(self):
        def mk():
            return lenet(batch=4, image=12)

        with Session(mk()) as plain:
            want = [r.to_dict() for r in plain.run(iters=2,
                                                   optimizer=SGD(0.05))]
        with Session(mk()).with_policy("offload", cache="lru") \
                          .without_policy("offload") as round_trip:
            got = [r.to_dict() for r in round_trip.run(iters=2,
                                                       optimizer=SGD(0.05))]
        assert got == want
