"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``report``  — run one network under a framework config and print the
              iteration report (peak bytes, traffic, workspaces, time).
``trace``   — print the stepwise memory trace (the Fig. 10 curve).
``probe``   — largest batch (or deepest ResNet) before OOM.
``breakdown`` — Fig. 8-style time/memory percentages by layer type.
``policies`` — the registered memory-policy stack per framework.
``infer``   — compile once, run N forward-only sessions concurrently;
              report throughput and the train-vs-infer peak-memory gap.
``serve``   — the real serving loop: an InferenceServer coalescing a
              synthetic arrival trace (``--rate``, ``--duration``)
              into dynamic batches over ``--workers`` sessions.
``check``   — program analysis: ``check plan`` compiles nets across the
              ablation ladder (plus serve-shaped batch configs under
              ``--all``) and verifies every schedule's memory-safety
              invariants (PLAN001-PLAN007); ``check lint`` runs the
              architecture linter (LINT001-LINT005) over ``src/repro``;
              ``check race`` drives the instrumented stress scenarios
              through the happens-before race detector (RACE001-RACE005);
              ``check cost`` runs compiled schedules against the
              device latency model, predicts per-iteration time and
              peaks, and flags performance pathologies (PERF001-PERF007;
              ``--budget N --advise`` additionally recommends the
              cheapest ladder rung that fits N GiB).  All emit one JSON
              schema via ``--format json`` for CI artifacts and support
              ``--fail-on {warning,error}``; exit codes are 0 (clean),
              1 (findings at or above the threshold), 2 (usage or
              internal error).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.analysis import memory_breakdown_by_type, time_breakdown_by_type
from repro.analysis.report import Table
# the paper's ablation ladder: each rung is a RuntimeConfig classmethod
from repro.check.advisor import DEFAULT_LADDER as ABLATION_LADDER
from repro.core.engine import Engine
from repro.core.policy import POLICY_REGISTRY
from repro.core.session import Session
from repro.device.gpu import OutOfMemoryError
from repro.frameworks import FRAMEWORKS, framework_config
from repro.frameworks.probe import max_batch, max_resnet_depth
from repro.zoo import NETWORK_BUILDERS

MiB = 1024 * 1024
GiB = 1024 * MiB

DEFAULT_NET = "alexnet"

#: the one serving clock.  Arrival pacing, request deadlines, span
#: timestamps and the server/fleet internals all read this monotonic
#: base — pacing on ``perf_counter`` while deadlines used ``monotonic``
#: put the two on different (drifting) zero points.
CLOCK = time.monotonic


def paced_replay(arrivals, dispatch, clock=None, sleep=time.sleep) -> None:
    """Replay a timed trace: each arrival is ``(at, *rest)``; wait
    until trace offset ``at`` on ``clock``, then call
    ``dispatch(index, arrival)``.  ``clock`` and ``sleep`` are
    injectable so tests replay a trace on a fake clock with no
    real-time sleeps."""
    clock = CLOCK if clock is None else clock
    t0 = clock()
    for i, arrival in enumerate(arrivals):
        delay = arrival[0] - (clock() - t0)
        if delay > 0:
            sleep(delay)
        dispatch(i, arrival)


def _export_obs(args, tracer, timelines, counts, metrics_host,
                prefix: str) -> None:
    """Write the serve observability artifacts.  ``--trace-out`` gets
    the merged Chrome trace (span trees + worker device timelines,
    validated against the serving counts before writing);
    ``--metrics-out`` appends one metrics-registry JSONL snapshot."""
    if tracer is not None and args.trace_out:
        from repro.obs.export import export_chrome_trace
        completed, failed, shed = counts
        doc = export_chrome_trace(
            args.trace_out, tracer, timelines=timelines,
            counts={"completed": completed, "failed": failed,
                    "shed": shed})
        print(f"trace        : {len(tracer)} spans, "
              f"{len(doc['traceEvents'])} events -> {args.trace_out}")
    if getattr(args, "metrics_out", None):
        from repro.obs.metrics import MetricsRegistry
        registry = MetricsRegistry()
        metrics_host.register_metrics(registry, prefix)
        registry.export_jsonl(args.metrics_out)
        print(f"metrics      : {len(registry.names())} series "
              f"-> {args.metrics_out}")


def _add_common(p: argparse.ArgumentParser) -> None:
    # default=None so commands can tell an explicit --net from the
    # fallback (probe --depth must reject a network it would ignore)
    p.add_argument("--net", choices=sorted(NETWORK_BUILDERS), default=None)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--framework", choices=sorted(FRAMEWORKS),
                   default="superneurons")
    p.add_argument("--gpu-gb", type=float, default=12.0,
                   help="device DRAM capacity in GiB")


def _net_name(args) -> str:
    return args.net or DEFAULT_NET


def _config(args):
    return framework_config(
        args.framework, concrete=False,
        gpu_capacity=int(args.gpu_gb * GiB),
    )


def cmd_report(args) -> int:
    """Iteration 0 of a session: the iteration users run, from the
    scout's record where the stack arms the tensor cache."""
    name = _net_name(args)
    net = NETWORK_BUILDERS[name](batch=args.batch)
    try:
        with Session(net, _config(args)) as sess:
            res = sess.run_iteration(0)
    except (OutOfMemoryError, MemoryError):
        res = None
    if res is None:
        print(f"{name} (batch {args.batch}) does NOT fit "
              f"{args.gpu_gb:g} GiB under {args.framework}")
        return 1
    print(f"network      : {name} (batch {args.batch}, "
          f"{len(net)} layers)")
    print(f"framework    : {args.framework}")
    print(f"peak memory  : {res.peak_bytes / MiB:.1f} MiB "
          f"({res.activation_peak_bytes / MiB:.1f} MiB activations)")
    print(f"sim time     : {res.sim_time * 1e3:.2f} ms/iter "
          f"({args.batch / res.sim_time:.1f} img/s)")
    print(f"offload      : {res.d2h_bytes / MiB:.1f} MiB out, "
          f"{res.h2d_bytes / MiB:.1f} MiB back, "
          f"stall {res.stall_seconds * 1e3:.2f} ms")
    print(f"recompute    : {res.extra_forwards} extra forwards")
    print(f"allocator    : {res.alloc_calls} calls, "
          f"{res.alloc_overhead * 1e3:.2f} ms overhead")
    if res.workspace_choices:
        got = sum(w.got_max_speed for w in res.workspace_choices)
        print(f"workspaces   : {got}/{len(res.workspace_choices)} conv "
              f"executions at max-speed algorithm")
    return 0


def cmd_trace(args) -> int:
    name = _net_name(args)
    net = NETWORK_BUILDERS[name](batch=args.batch)
    if args.trace_out:
        return _cmd_trace_export(args, name, net)
    with Session(net, _config(args)) as sess:
        res = sess.run_iteration(0)
    tab = Table(f"stepwise memory: {name} b={args.batch} "
                f"({args.framework})",
                ["step", "label", "high (MiB)", "settled (MiB)", "live"])
    for t in res.traces:
        tab.add(t.index, t.label, f"{t.activation_high / MiB:.1f}",
                f"{t.activation_settled / MiB:.1f}", t.live_tensors)
    print(tab.render())
    return 0


def _cmd_trace_export(args, name, net) -> int:
    """``trace --trace-out``: run ``--iters`` live iterations with the
    span tracer armed and write the merged Chrome trace — wall-clock
    iteration spans plus the simulated device streams (compute/D2H/H2D
    overlap), Perfetto-loadable."""
    from repro.obs import trace as obs_trace
    from repro.obs.export import export_chrome_trace

    if args.iters < 1:
        print("trace --trace-out needs --iters >= 1", file=sys.stderr)
        return 2
    with obs_trace.capture(clock=CLOCK) as tracer:
        with Session(net, _config(args), mode=args.mode) as sess:
            for i in range(args.iters):
                sess.run_iteration(i)
            timeline = sess.executor.timeline
    doc = export_chrome_trace(
        args.trace_out, tracer,
        timelines={f"{name}.{args.mode}": timeline})
    print(f"{name} b={args.batch} {args.mode}: {args.iters} iteration(s) "
          f"traced, {len(tracer)} spans, {len(doc['traceEvents'])} "
          f"events -> {args.trace_out}")
    return 0


def cmd_probe(args) -> int:
    factory = lambda: _config(args)
    start = 1 if args.depth else 2  # n3 sweeps from 1, batches from 2
    if args.limit < start:
        print(f"probe --limit {args.limit} is below the search start "
              f"{start}", file=sys.stderr)
        return 2
    if args.depth:
        if args.net is not None:
            print("probe --depth sweeps custom ResNets; it cannot honour "
                  f"--net {args.net} (drop the flag)", file=sys.stderr)
            return 2
        depth, n3 = max_resnet_depth(factory, batch=args.batch,
                                     limit_n3=args.limit)
        print(f"deepest ResNet under {args.framework} at batch "
              f"{args.batch}: depth {depth} (n3={n3})")
    else:
        name = _net_name(args)
        builder = NETWORK_BUILDERS[name]
        b = max_batch(builder, factory, start=start, limit=args.limit)
        print(f"largest {name} batch under {args.framework}: {b}")
    return 0


def cmd_breakdown(args) -> int:
    name = _net_name(args)
    net = NETWORK_BUILDERS[name](batch=args.batch)
    t = time_breakdown_by_type(net)
    m = memory_breakdown_by_type(net)
    tab = Table(f"breakdown: {name} b={args.batch}",
                ["layer type", "% time", "% memory"])
    for k in sorted(set(t) | set(m)):
        tab.add(k, f"{t.get(k, 0):.1f}", f"{m.get(k, 0):.1f}")
    print(tab.render())
    return 0


def cmd_infer(args) -> int:
    """Forward-only serving: compile once, fan out sessions."""
    if args.sessions < 1 or args.iters < 1:
        print("infer needs --sessions >= 1 and --iters >= 1",
              file=sys.stderr)
        return 2
    name = _net_name(args)
    net = NETWORK_BUILDERS[name](batch=args.batch)
    engine = Engine(net, _config(args))
    sessions = [engine.session(mode="infer") for _ in range(args.sessions)]
    if args.trace_out:
        from repro.obs import trace as obs_trace
        obs_ctx = obs_trace.capture(clock=CLOCK)
    else:
        from contextlib import nullcontext
        obs_ctx = nullcontext()
    try:
        with obs_ctx as tracer:
            t0 = time.perf_counter()
            if args.parallel:
                # thread-per-session: tensor state is session-local, so
                # the threads interleave at op granularity with results
                # bit-identical to the round-robin loop below.  On
                # timeout the worker threads are abandoned but
                # non-daemon (they would block interpreter exit), so
                # hard-exit as parallel_run's docstring prescribes for
                # CLIs.
                from concurrent.futures import TimeoutError as _FutTimeout
                try:
                    per_session = engine.parallel_run(
                        sessions, args.iters, timeout=args.timeout)
                except (_FutTimeout, TimeoutError):
                    print(f"parallel sessions hung past "
                          f"{args.timeout:g}s; aborting", file=sys.stderr)
                    os._exit(1)
                results = [r for rs in per_session for r in rs]
            else:
                results = []
                for i in range(args.iters):
                    for s in sessions:  # round-robin serving interleave
                        results.append(s.run_iteration(i))
            wall = time.perf_counter() - t0
    finally:
        for s in sessions:
            s.close()
    peak = max(r.peak_bytes for r in results)
    sim_per_iter = results[-1].sim_time
    serve_compiles = engine.compile_count
    with engine.session(mode="train") as train:
        train_peak = train.run_iteration(0).peak_bytes

    n_iter = args.iters * args.sessions
    drive = "thread-per-session" if args.parallel else "round-robin"
    print(f"network      : {name} (batch {args.batch}, {len(net)} layers)")
    print(f"framework    : {args.framework}")
    print(f"sessions     : {args.sessions} sharing one engine, {drive} "
          f"(plans compiled {serve_compiles}x for serving)")
    print(f"infer peak   : {peak / MiB:.1f} MiB "
          f"(train would need {train_peak / MiB:.1f} MiB — "
          f"{train_peak / peak:.2f}x more)")
    print(f"sim time     : {sim_per_iter * 1e3:.2f} ms/iter "
          f"({args.batch / sim_per_iter:.1f} img/s per session)")
    print(f"host time    : {wall / n_iter * 1e3:.2f} ms/iter over "
          f"{n_iter} iterations ({args.batch * n_iter / wall:.0f} img/s "
          f"aggregate)")
    if tracer is not None:
        from repro.obs.export import export_chrome_trace
        doc = export_chrome_trace(
            args.trace_out, tracer,
            timelines={f"{name}.s{i}": s.executor.timeline
                       for i, s in enumerate(sessions)})
        print(f"trace        : {len(tracer)} spans, "
              f"{len(doc['traceEvents'])} events -> {args.trace_out}")
    return 0


def _cmd_serve_fleet(args, tracer=None) -> int:
    """Heterogeneous fleet serving: N batch shapes, SLO-aware routing."""
    import numpy as np

    from repro.serve import RequestRejected, ServingFleet
    from repro.serve.metrics import render_slo_report

    try:
        batches = [int(b) for b in args.fleet_batches.split(",") if b]
    except ValueError:
        batches = []
    if not batches or any(b < 1 for b in batches):
        print("--fleet-batches needs a comma list of sizes >= 1",
              file=sys.stderr)
        return 2
    if not 0.0 <= args.critical_frac <= 1.0:
        print("--critical-frac must be in [0, 1]", file=sys.stderr)
        return 2
    name = _net_name(args)
    cfg = framework_config(args.framework, concrete=args.concrete,
                           gpu_capacity=int(args.gpu_gb * GiB))
    engines = [Engine(NETWORK_BUILDERS[name](batch=b), cfg)
               for b in batches]
    max_request = args.max_request or max(batches)
    sample_shape = engines[0].input_shape[1:]

    rng = np.random.default_rng(args.seed)
    arrivals = []
    t = 0.0
    while t < args.duration:
        arrivals.append((t, int(rng.integers(1, max_request + 1)),
                         rng.random() < args.critical_frac))
        t += rng.exponential(1.0 / args.rate)

    fleet = ServingFleet(engines, workers=args.workers,
                         max_pending_rows=args.max_pending_rows,
                         max_wait=args.max_wait, clock=CLOCK)
    shed = [0]

    def dispatch(_i, arrival):
        _at, size, critical = arrival
        priority = "critical" if critical else "normal"
        deadline = CLOCK() + 0.05 if critical else None
        try:
            if args.concrete:
                data = rng.standard_normal(
                    (size,) + sample_shape).astype(np.float32)
                fleet.submit(data=data, priority=priority,
                             deadline=deadline)
            else:
                fleet.submit(size=size, priority=priority,
                             deadline=deadline)
        except RequestRejected:
            shed[0] += 1  # explicit backpressure, not a failure

    timelines = None
    with fleet:
        paced_replay(arrivals, dispatch)
        if not fleet.drain(timeout=args.timeout):
            print(f"backlog not drained after {args.timeout:g}s; "
                  "aborting", file=sys.stderr)
            os._exit(1)
        if tracer is not None:
            timelines = fleet.session_timelines()
    m = fleet.metrics.to_dict()
    req = m["fleet"]["requests"]
    print(f"network      : {name} x {len(batches)} engines "
          f"(batches {','.join(str(b) for b in batches)}, "
          f"{'concrete' if args.concrete else 'simulated'})")
    print(f"fleet        : {fleet.describe()}")
    print(f"trace        : {len(arrivals)} requests over "
          f"{args.duration:g}s at ~{args.rate:g} req/s "
          f"(sizes 1..{max_request}, "
          f"{args.critical_frac:.0%} critical, seed {args.seed})")
    print(render_slo_report(m))
    assert req["shed"] == shed[0], (req["shed"], shed[0])
    if req["completed"] + req["failed"] + req["shed"] != len(arrivals):
        print(f"accounting broken: {req['completed']} + {req['failed']} "
              f"+ {req['shed']} != {len(arrivals)}", file=sys.stderr)
        return 1
    _export_obs(args, tracer, timelines, fleet.metrics.counts(),
                fleet, "fleet")
    return 1 if req["failed"] else 0


def cmd_serve(args) -> int:
    """Dynamic-batching serving from a synthetic arrival trace."""
    if args.rate <= 0 or args.duration <= 0 or args.workers < 1 \
            or args.swaps < 0 \
            or (args.max_request is not None and args.max_request < 1):
        print("serve needs --rate > 0, --duration > 0, --workers >= 1, "
              "--swaps >= 0, --max-request >= 1", file=sys.stderr)
        return 2
    run = _cmd_serve_fleet if args.fleet else _cmd_serve_single
    if args.trace_out:
        # arm a fresh tracer BEFORE the engines build: the executor
        # decides at construction whether to keep a device-op log for
        # the exporter's simulated-stream lanes
        from repro.obs import trace as obs_trace
        with obs_trace.capture(clock=CLOCK) as tracer:
            return run(args, tracer)
    return run(args)


def _cmd_serve_single(args, tracer=None) -> int:
    """One engine, one dynamic batcher, N worker sessions."""
    import numpy as np

    from repro.serve import InferenceServer
    from repro.serve.metrics import render_slo_report

    name = _net_name(args)
    net = NETWORK_BUILDERS[name](batch=args.batch)
    cfg = framework_config(args.framework, concrete=args.concrete,
                           gpu_capacity=int(args.gpu_gb * GiB))
    engine = Engine(net, cfg)
    max_request = args.max_request or 2 * args.batch
    sample_shape = engine.input_shape[1:]

    # deterministic Poisson-ish trace: exponential inter-arrivals,
    # uniform request sizes in [1, max_request] (sizes > batch exercise
    # the multi-step split path)
    rng = np.random.default_rng(args.seed)
    arrivals = []
    t = 0.0
    while t < args.duration:
        arrivals.append((t, int(rng.integers(1, max_request + 1))))
        t += rng.exponential(1.0 / args.rate)

    server = InferenceServer(engine, workers=args.workers,
                             max_wait=args.max_wait, clock=CLOCK)
    # max(1, ...): a trace shorter than swaps+1 still swaps on every
    # arrival instead of silently skipping the requested hot swaps
    swap_every = max(1, len(arrivals) // (args.swaps + 1)) \
        if args.swaps else 0
    snapshot = engine.snapshot_params() if args.swaps else None

    def dispatch(i, arrival):
        _at, size = arrival
        if args.concrete:
            data = rng.standard_normal(
                (size,) + sample_shape).astype(np.float32)
            server.submit(data=data)
        else:
            server.submit(size=size)
        if swap_every and (i + 1) % swap_every == 0 \
                and engine.weights_version < args.swaps:
            server.swap_weights(snapshot, timeout=args.timeout)

    timelines = None
    with server:
        paced_replay(arrivals, dispatch)
        if not server.drain(timeout=args.timeout):
            print(f"backlog not drained after {args.timeout:g}s; "
                  "aborting", file=sys.stderr)
            os._exit(1)
        if tracer is not None:
            timelines = server.session_timelines()
    m = server.metrics.to_dict()
    failed = m["requests"]["failed"]
    print(f"network      : {name} (batch {args.batch}, {len(net)} layers, "
          f"{'concrete' if args.concrete else 'simulated'})")
    print(f"server       : {server.describe()}")
    print(f"trace        : {len(arrivals)} requests over "
          f"{args.duration:g}s at ~{args.rate:g} req/s "
          f"(sizes 1..{max_request}, seed {args.seed})")
    print(render_slo_report(m))
    _export_obs(args, tracer, timelines, server.metrics.counts(),
                server, "server")
    return 1 if failed else 0


def _emit_report(report, args) -> int:
    """Render a CheckReport per --format/--output.

    Exit code: 0 clean, 1 when findings reach the --fail-on threshold
    ("error" by default; "warning" also fails on warnings).
    """
    out = report.to_json() if args.format == "json" else report.render()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(out + "\n")
        # keep the console actionable even when the artifact goes to disk
        n_err, n_warn = len(report.errors), len(report.warnings)
        print(f"{report.tool}: {len(report.checked)} target(s) checked, "
              f"{n_err} error(s), {n_warn} warning(s) -> {args.output}")
        for d in report.errors:
            print("  " + d.render(), file=sys.stderr)
    else:
        print(out)
    failing = report.diagnostics if args.fail_on == "warning" \
        else report.errors
    return 1 if failing else 0


def _check_cmd(fn):
    """Wrap a check subcommand: any internal crash exits 2, keeping the
    documented code space (0 clean / 1 findings / 2 usage-or-internal)
    stable for CI."""
    def run(args) -> int:
        try:
            return fn(args)
        except BrokenPipeError:  # pragma: no cover - piping artifact
            raise
        except Exception as exc:
            print(f"check: internal error: {exc}", file=sys.stderr)
            return 2
    return run


@_check_cmd
def cmd_check_lint(args) -> int:
    """Architecture linter over the repro sources."""
    from repro.check import lint_paths, lint_tree

    report = lint_paths(args.paths) if args.paths else lint_tree()
    return _emit_report(report, args)


def _parse_rungs(args):
    """Validated ladder rungs from --configs (None on a bad name)."""
    rungs = args.configs.split(",") if args.configs else list(ABLATION_LADDER)
    for rung in rungs:
        if rung not in ABLATION_LADDER:
            print(f"unknown ladder config {rung!r}; expected one of "
                  f"{', '.join(ABLATION_LADDER)}", file=sys.stderr)
            return None
    return rungs


def _parse_serve_batches(args):
    """Serve-shaped batch sizes to sweep: --serve-batches wins; --all
    defaults to the shapes a serving deployment compiles engines at."""
    if args.serve_batches is not None:
        return [int(b) for b in args.serve_batches.split(",") if b.strip()]
    return [1, 4, 16] if args.all else []


@_check_cmd
def cmd_check_plan(args) -> int:
    """Compile every target with the plan verifier armed; a target the
    verifier refuses reports its findings and the sweep goes on."""
    from dataclasses import replace

    from repro.core.config import RuntimeConfig
    from repro.check import CheckReport, PlanVerificationError

    nets = sorted(NETWORK_BUILDERS) if args.all else [_net_name(args)]
    rungs = _parse_rungs(args)
    if rungs is None:
        return 2
    modes = args.modes.split(",") if args.modes else ["train", "infer"]
    serve_batches = _parse_serve_batches(args)
    report = CheckReport(tool="plan-verifier")

    def verify(engine, mode, target):
        report.checked.append(target)
        try:
            engine.compiled(mode)
        except PlanVerificationError as exc:
            report.extend(replace(d, target=target)
                          for d in exc.report.diagnostics)

    for name in nets:
        for rung in rungs:
            cfg = getattr(RuntimeConfig, rung)(
                concrete=False, gpu_capacity=int(args.gpu_gb * GiB))
            engine = Engine(NETWORK_BUILDERS[name](batch=args.batch), cfg,
                            verify=True)
            for mode in modes:
                verify(engine, mode, f"{name}/{mode}@{rung}")
        # serve-shaped sweep: the infer plans a serving deployment would
        # actually replay — DynamicBatcher pads/splits every request
        # burst to the engine's compiled batch, so each serve batch size
        # is its own compiled shape to prove safe
        for b in serve_batches:
            cfg = RuntimeConfig.superneurons(
                concrete=False, gpu_capacity=int(args.gpu_gb * GiB))
            engine = Engine(NETWORK_BUILDERS[name](batch=b), cfg,
                            verify=True)
            verify(engine, "infer", f"{name}/serve@b{b}")
    return _emit_report(report, args)


@_check_cmd
def cmd_check_race(args) -> int:
    """Run the instrumented stress scenarios under the race detector."""
    from repro.check import CheckReport, analyze_log
    from repro.check.scenarios import (
        run_parallel_scenario, run_saturated_scenario,
        run_serving_scenario)

    net = _net_name(args)
    serving = dict(net=net, requests=args.requests, swaps=args.swaps,
                   batch=args.batch, seed=args.seed, limit=args.limit)
    scenarios = {
        "parallel": lambda: run_parallel_scenario(
            net=net, sessions=args.sessions, iters=args.iters,
            batch=args.batch, limit=args.limit),
        "serving": lambda: run_serving_scenario(
            workers=args.workers, **serving),
        "saturated": lambda: run_saturated_scenario(**serving),
    }
    report = CheckReport(tool="race-detector")
    for name, run in scenarios.items():
        if args.scenario not in (name, "all"):
            continue
        log, info = run()
        sub = analyze_log(log, target=name)
        report.checked.extend(sub.checked)
        report.extend(sub.diagnostics)
        shape = f"{info['sessions']} sessions x {info['iters']} iters" \
            if name == "parallel" \
            else (f"{info['workers']} workers, {info['requests']} "
                  f"requests, {info['swaps']} swaps")
        print(f"{name} scenario: {shape}, {info['events']} events")
    return _emit_report(report, args)


@_check_cmd
def cmd_check_cost(args) -> int:
    """Predict compiled schedules' cost; flag performance pathologies."""
    from repro.check import CheckReport
    from repro.check.advisor import Advice, assess_ladder
    from repro.check.cost_model import analyze_prediction, serving_fill_check

    nets = sorted(NETWORK_BUILDERS) if args.all else [_net_name(args)]
    rungs = _parse_rungs(args)
    if rungs is None:
        return 2
    modes = args.modes.split(",") if args.modes else ["train", "infer"]
    budget = int(args.budget * GiB) if args.budget is not None else None
    max_request = args.max_request or 2 * args.batch
    report = CheckReport(tool="cost-model")
    for name in nets:
        # one sweep: the advisor ranks the predictions the report holds
        ladder = assess_ladder(
            lambda name=name: NETWORK_BUILDERS[name](batch=args.batch),
            modes=modes, rungs=rungs,
            gpu_capacity=int(args.gpu_gb * GiB))
        for assessment in ladder:
            for mode in modes:
                pred = assessment.predictions.get(mode)
                if pred is None:  # refused: the plan verifier's findings
                    report.checked.append(f"{name}/{mode}@{assessment.rung}")
                    report.extend(assessment.refused[mode])
                    continue
                report.checked.append(pred.target)
                report.extend(analyze_prediction(pred, budget=budget))
                report.metrics[pred.target] = pred.to_dict()
                if pred.stall_seconds > 0 and args.format == "text":
                    kinds = " + ".join(
                        f"{kind} {seconds * 1e3:.1f}" for kind, seconds
                        in pred.stall_seconds_by_kind.items())
                    print(f"{pred.target}: stall "
                          f"{pred.stall_seconds * 1e3:.1f} ms = {kinds}")
        # the serving path pads every batch to the compiled shape:
        # check the expected fill of this batch size (PERF006)
        target = f"{name}/serve@b{args.batch}"
        report.checked.append(target)
        report.extend(serving_fill_check(args.batch, max_request,
                                         target=target))
        if args.advise:
            adv = Advice(
                net=name, budget=budget, ladder=ladder,
                rank_mode="train" if "train" in modes else modes[0])
            report.metrics[f"{name}/advice"] = adv.to_dict()
            print(adv.render())
            drops = adv.render_drops()
            if drops:
                print(drops)
    return _emit_report(report, args)


def cmd_policies(args) -> int:
    if args.framework_name:
        names = [args.framework_name]
    else:
        names = sorted(FRAMEWORKS)
    tab = Table("registered memory-policy stacks",
                ["framework", "policy stack"])
    for name in names:
        tab.add(name, FRAMEWORKS[name].describe_policies())
    print(tab.render())
    print(f"\nregistry: {', '.join(sorted(POLICY_REGISTRY))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="one-iteration report")
    _add_common(p)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("trace", help="stepwise memory trace")
    _add_common(p)
    p.add_argument("--trace-out", default=None,
                   help="write a Perfetto-loadable Chrome trace of "
                        "--iters live iterations (wall-clock spans + "
                        "simulated device streams) instead of the "
                        "stepwise table")
    p.add_argument("--mode", choices=("train", "infer"), default="train",
                   help="execution mode for --trace-out runs")
    p.add_argument("--iters", type=int, default=2,
                   help="iterations to trace with --trace-out")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("probe", help="largest batch / deepest ResNet")
    _add_common(p)
    p.add_argument("--depth", action="store_true",
                   help="probe ResNet depth instead of batch size")
    p.add_argument("--limit", type=int, default=512)
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("breakdown", help="Fig. 8 style layer-type shares")
    _add_common(p)
    p.set_defaults(fn=cmd_breakdown)

    p = sub.add_parser("infer",
                       help="forward-only serving throughput/memory")
    _add_common(p)
    p.add_argument("--sessions", type=int, default=2,
                   help="concurrent sessions sharing one compiled engine")
    p.add_argument("--iters", type=int, default=8,
                   help="iterations per session")
    p.add_argument("--parallel", action="store_true",
                   help="drive the sessions thread-per-session "
                        "(engine.parallel_run) instead of round-robin")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="seconds before a hung --parallel run aborts "
                        "(the parallel_run shared deadline)")
    p.add_argument("--trace-out", default=None,
                   help="arm the span tracer and write a "
                        "Perfetto-loadable Chrome trace (per-session "
                        "run/iteration spans + device timelines) here")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("serve",
                       help="dynamic-batching serving loop "
                            "(synthetic arrival trace)")
    _add_common(p)
    p.add_argument("--rate", type=float, default=200.0,
                   help="mean request arrival rate (requests/second)")
    p.add_argument("--duration", type=float, default=2.0,
                   help="trace length in seconds")
    p.add_argument("--workers", type=int, default=2,
                   help="infer sessions pulling batches concurrently")
    p.add_argument("--max-wait", type=float, default=0.005,
                   help="seconds a lone request waits for batch-mates")
    p.add_argument("--max-request", type=int, default=None,
                   help="largest request size in samples "
                        "(default 2x batch, exercising splits)")
    p.add_argument("--swaps", type=int, default=0,
                   help="hot-swap the weights this many times mid-trace")
    p.add_argument("--seed", type=int, default=0,
                   help="trace rng seed")
    p.add_argument("--concrete", action="store_true",
                   help="real payloads (outputs computed); default is "
                        "descriptor-only simulated traffic")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="seconds to wait for the backlog to drain "
                        "before aborting")
    p.add_argument("--fleet", action="store_true",
                   help="serve over a heterogeneous fleet (one engine "
                        "per --fleet-batches shape) with SLO-aware "
                        "routing instead of one server")
    p.add_argument("--fleet-batches", default="4,8,16",
                   help="comma list of compiled batch shapes, one "
                        "engine each (--fleet mode)")
    p.add_argument("--max-pending-rows", type=int, default=None,
                   help="bounded admission per lane: shed past this "
                        "many pending sample rows (--fleet mode)")
    p.add_argument("--critical-frac", type=float, default=0.1,
                   help="fraction of trace requests tagged "
                        "priority=critical with a deadline "
                        "(--fleet mode)")
    p.add_argument("--trace-out", default=None,
                   help="arm the span tracer and write a "
                        "Perfetto-loadable Chrome trace (one span tree "
                        "per request + worker device timelines) here")
    p.add_argument("--metrics-out", default=None,
                   help="append one metrics-registry JSONL snapshot "
                        "(SLO report, queue depth, allocator/cache/"
                        "timeline probes) here")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "check", help="program analysis (plans + lint + races + cost)",
        description="Exit codes: 0 clean, 1 findings at or above the "
                    "--fail-on threshold, 2 usage or internal error.")
    csub = p.add_subparsers(dest="check_command", required=True)

    def _add_check_output(cp):
        cp.add_argument("--format", choices=("text", "json"),
                        default="text")
        cp.add_argument("--output", default=None,
                        help="write the report here instead of stdout "
                             "(errors still echo to stderr)")
        cp.add_argument("--fail-on", choices=("warning", "error"),
                        default="error", dest="fail_on",
                        help="findings severity that flips the exit "
                             "code to 1 (default: error)")

    cp = csub.add_parser("plan",
                         help="compile and verify plans across the "
                              "ablation ladder")
    cp.add_argument("--net", choices=sorted(NETWORK_BUILDERS), default=None)
    cp.add_argument("--all", action="store_true",
                    help="verify every zoo network")
    cp.add_argument("--batch", type=int, default=8)
    cp.add_argument("--gpu-gb", type=float, default=12.0,
                    help="device DRAM capacity in GiB")
    cp.add_argument("--configs", default=None,
                    help="comma-separated ladder rungs "
                         f"(default: {','.join(ABLATION_LADDER)})")
    cp.add_argument("--modes", default=None,
                    help="comma-separated execution modes "
                         "(default: train,infer)")
    cp.add_argument("--serve-batches", default=None,
                    help="comma-separated serve-shaped batch sizes to "
                         "verify as infer plans (default with --all: "
                         "1,4,16; empty string disables)")
    _add_check_output(cp)
    cp.set_defaults(fn=cmd_check_plan)

    cl = csub.add_parser("lint",
                         help="architecture linter over src/repro")
    cl.add_argument("paths", nargs="*",
                    help="files/directories to lint (default: the "
                         "installed repro package)")
    _add_check_output(cl)
    cl.set_defaults(fn=cmd_check_lint)

    cr = csub.add_parser(
        "race",
        help="happens-before race/deadlock detection over instrumented "
             "stress scenarios")
    cr.add_argument("--scenario",
                    choices=("parallel", "serving", "saturated", "all"),
                    default="all")
    cr.add_argument("--net", choices=sorted(NETWORK_BUILDERS),
                    default="lenet",
                    help="zoo network the scenarios run (small nets "
                         "keep the event log dense in sync ops)")
    cr.add_argument("--batch", type=int, default=8)
    cr.add_argument("--sessions", type=int, default=4,
                    help="parallel scenario: sessions per mode")
    cr.add_argument("--iters", type=int, default=3,
                    help="parallel scenario: iterations per session")
    cr.add_argument("--workers", type=int, default=3,
                    help="serving scenario: worker sessions")
    cr.add_argument("--requests", type=int, default=60,
                    help="serving + saturated scenarios: trace length "
                         "in requests")
    cr.add_argument("--swaps", type=int, default=3,
                    help="serving + saturated scenarios: mid-trace "
                         "weight hot-swaps")
    cr.add_argument("--seed", type=int, default=0,
                    help="serving + saturated scenarios: trace rng seed")
    cr.add_argument("--limit", type=int, default=None,
                    help="event-log capacity; overflow truncates the "
                         "trace and reports RACE005 (warning); default "
                         "honours REPRO_TRACE_SYNC_CAP (else 2000000)")
    _add_check_output(cr)
    cr.set_defaults(fn=cmd_check_race)

    cc = csub.add_parser(
        "cost",
        help="static performance & memory cost model over compiled "
             "schedules (PERF001-PERF007)")
    cc.add_argument("--net", choices=sorted(NETWORK_BUILDERS), default=None)
    cc.add_argument("--all", action="store_true",
                    help="cost every zoo network")
    cc.add_argument("--batch", type=int, default=8)
    cc.add_argument("--gpu-gb", type=float, default=12.0,
                    help="device DRAM capacity in GiB")
    cc.add_argument("--configs", default=None,
                    help="comma-separated ladder rungs "
                         f"(default: {','.join(ABLATION_LADDER)})")
    cc.add_argument("--modes", default=None,
                    help="comma-separated execution modes "
                         "(default: train,infer)")
    cc.add_argument("--budget", type=float, default=None,
                    help="memory budget in GiB; a predicted peak above "
                         "it is a PERF005 error")
    cc.add_argument("--advise", action="store_true",
                    help="rank the ladder per net and recommend the "
                         "fastest rung that fits --budget; list each "
                         "victim a rung drops with its modelled rebuild "
                         "and exposed copy time")
    cc.add_argument("--max-request", type=int, default=None,
                    help="largest serving request size for the PERF006 "
                         "padding check (default 2x batch)")
    _add_check_output(cc)
    cc.set_defaults(fn=cmd_check_cost)

    p = sub.add_parser("policies", help="memory-policy stack per framework")
    p.add_argument("framework_name", nargs="?", default=None,
                   choices=sorted(FRAMEWORKS),
                   help="show a single framework's stack")
    p.set_defaults(fn=cmd_policies)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
