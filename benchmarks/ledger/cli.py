"""Entry point: one workload (the contract), all of them, or a compare."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

from . import compare, machine, spec, stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

#: a child that runs longer than this is killed (the contract allows a
#: whole run 180 s)
CHILD_TIMEOUT_S = 170.0

#: ambient switches that would change what the program does under test
_SCRUBBED_ENV = ("REPRO_TRACE", "REPRO_TRACE_LIMIT", "REPRO_TRACE_SYNC",
                 "REPRO_TRACE_SYNC_CAP", "REPRO_VALIDATE_STATE",
                 "REPRO_FLIGHT_DIR")


class RunFailed(Exception):
    """The benchmark could not produce a result."""


def pin_blas() -> None:
    """One BLAS thread, for this process's NumPy calibration loop and
    (inherited) for every measuring child."""
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[key] = "1"


def child_env() -> Dict[str, str]:
    """The measuring processes' environment: ambient repro switches
    scrubbed, the program importable."""
    env = dict(os.environ)
    for key in _SCRUBBED_ENV:
        env.pop(key, None)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(workload: str, phase: str, seed: int, seconds: float
              ) -> dict:
    """One fresh measuring process; its last stdout line is the result
    (earlier lines are its commentary, passed through)."""
    cmd = [sys.executable, "-m", "benchmarks.ledger.child",
           "--workload", workload, "--phase", phase,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"{workload}/{phase}: no result after "
                        f"{CHILD_TIMEOUT_S:g} s; killed") from None
    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{workload}/{phase}: child exited "
                        f"{proc.returncode}")
    return json.loads(lines[-1])


def run_one(workload: str, seed: int, seconds: float, trace: bool
            ) -> dict:
    """One contract run: the result object of its last stdout line,
    plus ``notes``/``info``/``spread`` for the result file."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise RunFailed(f"no program to measure: {SRC}/repro is missing")
    before = machine.calibrate()
    if trace:
        child = run_child(workload, "trace", seed, seconds)
        values = {m.name: 0.0 for m in spec.PER_LAYER}
        values.update(child["metrics"])
        attempted, failed = 1, 0
        table = spec.PER_LAYER
    else:
        setups = [run_child(workload, "setup", seed, seconds)
                  for _ in range(spec.SETUPS)]
        child = run_child(workload, "measure", seed, seconds)
        attempted, failed = child["attempted"], child["failed"]
        values = dict(child["metrics"])
        values["setup_s"] = stats.median([s["setup_s"] for s in setups])
        child["info"]["raw_setup_s"] = round(
            stats.median([s["raw_setup_s"] for s in setups]), 4)
        values["ok_share"] = 1.0 - failed / attempted
        table = spec.END_TO_END
    after = machine.calibrate()
    if trace:
        values.update(after)
    notes = list(child.get("notes", ()))
    if machine.noisy(before, after):
        notes.append(
            "NOISY MACHINE: the calibration loops ran "
            + ", ".join(f"{k} {before[k]:.2f} -> {after[k]:.2f} ms"
                        for k in before)
            + " across this run; its host-time figures are suspect")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in table},
        "notes": notes,
        "info": child.get("info", {}),
        "spread": child.get("spread", {}),
        "calibration": {"before": before, "after": after},
    }


def print_run(workload: str, trace: bool, run: dict) -> None:
    print(f"## {workload} ({'traced' if trace else 'untraced'}): "
          f"attempted {run['attempted']} failed {run['failed']}"
          + "".join(f" {k}={v}" for k, v in sorted(run["info"].items())))
    for name, m in run["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for note in run["notes"]:
        print(f"# {note}")


def contract_line(run: dict) -> str:
    return json.dumps({k: run[k] for k in
                       ("correct", "attempted", "failed", "metrics")})


def run_all(seed: int, seconds: float, out_path: Optional[str]) -> int:
    """Every workload, one after another: untraced for the end-to-end
    metrics, then a separate traced run for the per-layer ones."""
    result = {"schema": 1, "seed": seed, "seconds": seconds,
              "machine": machine.describe(ROOT), "workloads": {}}
    ok = True
    for name in spec.WORKLOAD_NAMES:
        entry = {}
        for trace in (False, True):
            run = run_one(name, seed, seconds, trace)
            print_run(name, trace, run)
            entry["per_layer" if trace else "end_to_end"] = run
            ok = ok and run["correct"]
        result["workloads"][name] = entry
    w1 = result["workloads"]["serve_sat_w1"]["end_to_end"]["metrics"]
    w4 = result["workloads"]["serve_sat_w4"]["end_to_end"]["metrics"]
    print(f"## serve_sat_w4 / serve_sat_w1 ops_per_s = "
          f"{w4['ops_per_s']['value'] / w1['ops_per_s']['value']:.3f}x "
          f"of {w1['ops_per_s']['value']:.6g} 1/s")
    if out_path is None:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        out_path = os.path.join(HERE, "out", f"ledger-seed{seed}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"## result written to {out_path}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python3 -m benchmarks.ledger", description=__doc__)
    ap.add_argument("--workload", choices=spec.WORKLOAD_NAMES,
                    help="run this one workload (default: all seven)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                    help="how long one run measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: the traced run (per-layer metrics)")
    ap.add_argument("--out", help="all-workloads mode: result file")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="judge result file B against A")
    args = ap.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    pin_blas()
    try:
        if args.workload is None:
            return run_all(args.seed, args.seconds, args.out)
        run = run_one(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    except RunFailed as exc:
        print(f"benchmarks.ledger: {exc}", file=sys.stderr)
        return 2
    print_run(args.workload, bool(args.trace), run)
    print(contract_line(run))
    return 0 if run["correct"] else 1
