"""The measuring process: one workload, one phase, one JSON line.

The parent starts this module in a fresh interpreter (BLAS pinned to
one thread) so every workload — and every one of the cold set-ups
behind ``setup_s`` — pays its own imports and shares nothing with the
one before it.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()       # before the program is imported

import argparse     # noqa: E402
import json         # noqa: E402
import sys          # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="benchmarks.ledger.child")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--phase", required=True,
                    choices=("setup", "measure", "trace"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)

    from . import machine
    from .workloads import make
    workload = make(args.workload)
    workload.setup(args.seed)
    raw = time.perf_counter() - _T0
    # normalised like every host-time figure (see measure.py): divided
    # by how slow the calibration loop says the machine is right now
    slowdown = machine.slowdown(machine.calib_py_ms() / 1e3)
    result = {"setup_s": raw / slowdown, "raw_setup_s": raw}
    try:
        if args.phase == "measure":
            out = workload.measure(args.seconds)
            result.update(metrics=out.metrics, spread=out.spread,
                          attempted=out.attempted, failed=out.failed,
                          notes=out.notes, info=out.info)
        elif args.phase == "trace":
            result.update(metrics=workload.trace(args.seconds))
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
