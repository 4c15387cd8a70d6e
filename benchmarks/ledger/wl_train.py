"""The three training workloads.

``train_roomy`` and ``train_pressured`` run the same executor two ways
(everything resident vs ~30 evictions an iteration); ``train_concrete``
bypasses it (NumPy layer math dominates) and carries the loss check.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, Sequence

from repro import Engine, RuntimeConfig, SGD, Trainer, zoo
from repro.device.timeline import Stream, Timeline
from repro.layers.data import synthetic_provider
from repro.mempool.heap_pool import HeapPool

from . import measure, spec, stats
from .profiler import LedgerProfiler
from .workload import Outcome, Workload, ledger_rows

GIB = 1 << 30

#: losses compared bit for bit against a fresh non-replay session
LOSS_CHECK_ITERS = 40


def signature(res) -> tuple:
    """What must not change from one steady-state iteration to the
    next, nor between replay and the fresh planning path.  ``sim_time``
    is a difference of two readings of a clock that keeps running, so
    its last bits depend on the iteration number: it is compared (and
    reported) at the nanosecond the repo's own span export rounds to."""
    return (round(res.sim_time, 9), res.peak_bytes, res.d2h_bytes,
            res.h2d_bytes, res.alloc_calls)


class _Train(Workload):
    """Shared loop: timed windows of ``window_iters`` iterations."""

    batch = 32
    #: small windows on purpose: this machine's slow episodes last a
    #: second or two, and the median of ~100 short windows ignores them
    #: where the median of ~15 long ones does not
    window_iters = 10
    profile_iters = 100

    def build_net(self):
        raise NotImplementedError

    def config(self) -> RuntimeConfig:
        raise NotImplementedError

    def step(self, iteration: int):
        return self.session.run_iteration(iteration)

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.engine = Engine(self.build_net(), self.config())
        self.session = self.engine.session("train").with_history(0)
        self.iteration = 0
        self.step_next()

    def step_next(self):
        res = self.step(self.iteration)
        self.iteration += 1
        self.after_step(res)
        return res

    def close(self) -> None:
        self.session.close()

    # ------------------------------------------------------------- untraced
    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        clock = time.perf_counter
        reference = signature(self.step_next())       # iteration 1

        def window(_index: int) -> Sequence[float]:
            lat = []
            for _ in range(self.window_iters):
                t0 = clock()
                res = self.step_next()
                lat.append(clock() - t0)
                out.attempted += 1
                if signature(res) != reference:
                    out.failed += 1
            return lat

        windows = measure.run_windows(window, seconds)
        out.metrics.update(windows.metrics())
        out.spread.update(windows.spreads())
        out.metrics["host_rss_mib"] = measure.rss_mib()
        out.metrics["sim_img_per_s"] = self.batch / reference[0]
        out.metrics["peak_mib"] = reference[1] / measure.MIB
        out.info.update(windows.info())
        if out.failed:
            out.notes.append(f"{out.failed} iterations left the "
                             "steady-state signature")
        ex = self.session.executor
        out.check(ex.allocator.used_bytes == ex.param_bytes,
                  "allocator back at params-only after the run")
        self.verify(out, reference)
        return out

    def after_step(self, res) -> None:
        pass

    def verify(self, out: Outcome, reference: tuple) -> None:
        """Replay must equal the fresh planning path."""
        cfg = replace(self.config(), steady_state_replay=False)
        with Engine(self.build_net(), cfg).session("train") as fresh:
            fresh.run_iteration(0)
            out.check(signature(fresh.run_iteration(1)) == reference,
                      "replayed iteration equals a steady_state_replay="
                      "False session's")

    # --------------------------------------------------------------- traced
    def trace(self, seconds: float) -> Dict[str, float]:
        clock = time.perf_counter
        for _ in range(5):
            self.step_next()
        # untraced reference: per-iteration host and CPU time
        lat: List[float] = []
        cpu0 = time.process_time()
        deadline = clock() + 0.3 * seconds
        while clock() < deadline or len(lat) < 20:
            t0 = clock()
            res = self.step_next()
            lat.append(clock() - t0)
        cpu = time.process_time() - cpu0
        out = self.counters(res)
        out["core.runtime.iter_ms_p50"] = stats.percentile(lat, 50) * 1e3
        out["core.runtime.iter_ms_p99"] = stats.percentile(lat, 99) * 1e3
        out["core.runtime.cpu_ms_per_iter"] = cpu / len(lat) * 1e3
        with LedgerProfiler() as prof:
            for _ in range(self.profile_iters):
                self.step_next()
        out.update(ledger_rows(
            prof, self.profile_iters, self.name,
            prof.wall_seconds / self.profile_iters / stats.median(lat)))
        return out

    def counters(self, res) -> Dict[str, float]:
        ws = res.workspace_choices
        pool = getattr(self.session.executor.allocator, "pool", None)
        return {
            "mempool.alloc_calls": res.alloc_calls,
            "mempool.fragmentation":
                pool.fragmentation if pool is not None else 0.0,
            "mempool.sim_overhead_ms": res.alloc_overhead * 1e3,
            "device.dma.d2h_mib": res.d2h_bytes / measure.MIB,
            "device.dma.h2d_mib": res.h2d_bytes / measure.MIB,
            "device.timeline.stall_ms": res.stall_seconds * 1e3,
            "core.cache.hits": res.cache_hits,
            "core.cache.evictions": res.cache_evictions,
            "core.recompute.extra_forwards": res.extra_forwards,
            "core.workspace.at_max_share":
                sum(1 for w in ws if w.got_max_speed) / len(ws)
                if ws else 0.0,
        }


class TrainSim(_Train):
    """resnet50 b32, the full SuperNeurons stack, simulated payloads.
    Descriptor-only iterations take no input, so the seed changes
    nothing here — the run is a pure function of the code."""

    def __init__(self, name: str, capacity: int):
        self.name = name
        self.capacity = capacity

    def build_net(self):
        return zoo.resnet50(batch=self.batch)

    def config(self) -> RuntimeConfig:
        return RuntimeConfig.superneurons(concrete=False,
                                          gpu_capacity=self.capacity)

    def trace(self, seconds: float) -> Dict[str, float]:
        out = super().trace(seconds)
        if self.name == "train_roomy":
            out.update(self.micro_drivers())
        return out

    def micro_drivers(self) -> Dict[str, float]:
        out = {f"core.policy.rung_ms.{rung}": ms
               for rung, ms in zip(spec.RUNGS, ladder_ms())}
        out["mempool.replay_us_per_op"] = self.pool_replay_us()
        tl = Timeline(record_ops=False)
        out["device.timeline.submit_us"] = measure.micro_us(
            lambda: tl.submit(Stream.COMPUTE, 1e-6), 20000)
        return out

    def pool_replay_us(self) -> float:
        """The alloc/free sequence of one steady iteration, captured by
        wrapping the session's allocator from here, replayed alone
        against a fresh :class:`HeapPool`."""
        alloc = self.session.executor.allocator
        ops: List[tuple] = []
        index_of: Dict[int, int] = {}
        real_alloc, real_free = alloc.alloc, alloc.free

        def rec_alloc(nbytes, tag=""):
            a = real_alloc(nbytes, tag=tag)
            index_of[a.handle] = len(ops)
            ops.append((nbytes, -1))
            return a

        def rec_free(a):
            real_free(a)
            if a.handle in index_of:
                ops.append((0, index_of.pop(a.handle)))

        alloc.alloc, alloc.free = rec_alloc, rec_free
        try:
            self.step_next()
        finally:
            del alloc.alloc, alloc.free
        pool = HeapPool(alloc.slab_bytes)
        for layer in self.engine.net.layers:
            for p in layer.params:
                pool.alloc(p.nbytes)

        def replay() -> None:
            nodes: Dict[int, int] = {}
            for i, (nbytes, freed) in enumerate(ops):
                if freed < 0:
                    nodes[i] = pool.alloc(nbytes)
                else:
                    pool.free(nodes.pop(freed))
            for node in nodes.values():
                pool.free(node)

        return measure.micro_us(replay, 5) / len(ops)


def ladder_ms(iters: int = 60) -> List[float]:
    """Median host ms per replayed iteration of each ablation rung on
    alexnet b32 (the order of ``spec.RUNGS``)."""
    rungs = (RuntimeConfig.baseline, RuntimeConfig.liveness_only,
             RuntimeConfig.liveness_offload, RuntimeConfig.superneurons)
    clock = time.perf_counter
    out = []
    for make in rungs:
        engine = Engine(zoo.alexnet(batch=32), make(concrete=False))
        with engine.session("train").with_history(0) as s:
            lat = []
            for i in range(iters + 3):
                t0 = clock()
                s.run_iteration(i)
                lat.append(clock() - t0)
        out.append(stats.median(lat[3:]) * 1e3)
    return out


class TrainConcrete(_Train):
    """lenet b32 with real payloads, SGD through ``repro.train``; the
    seed picks the synthetic data stream."""

    name = "train_concrete"
    profile_iters = 30

    def build_net(self):
        net = zoo.lenet(batch=self.batch)
        data = net.data_layer
        data.provider = synthetic_provider(data.shape, data.num_classes,
                                           seed=self.seed)
        return net

    def config(self) -> RuntimeConfig:
        return RuntimeConfig.superneurons(concrete=True)

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.losses: List[float] = []
        self.engine = Engine(self.build_net(), self.config())
        self.session = self.engine.session("train").with_history(0)
        self.trainer = Trainer(session=self.session, optimizer=SGD(lr=0.05))
        self.iteration = 0
        self.step_next()

    def step(self, iteration: int):
        return self.trainer.train(1, start_iteration=iteration).results[0]

    def after_step(self, res) -> None:
        if len(self.losses) < LOSS_CHECK_ITERS:
            self.losses.append(res.loss)

    def verify(self, out: Outcome, reference: tuple) -> None:
        """The loss trajectory, bit for bit, against a fresh session
        that plans every iteration anew from the same initial weights
        and the same seeded data."""
        cfg = replace(self.config(), steady_state_replay=False)
        session = Engine(self.build_net(), cfg).session("train")
        with Trainer(session=session, optimizer=SGD(lr=0.05)) as fresh:
            got = fresh.train(len(self.losses), keep_results=False).losses
        out.check(got == self.losses,
                  f"first {len(self.losses)} losses bit-identical to a "
                  "fresh non-replay session's")
        out.check(self.losses[-1] < self.losses[0], "the loss went down")
