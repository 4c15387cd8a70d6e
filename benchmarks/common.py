"""Shared helpers for the benchmark harness.

Every bench:

* runs in *simulated* mode (byte/time ledger, no payloads) so paper-scale
  networks fit on a laptop;
* prints its table/series (visible with ``pytest -s``) and writes it to
  ``benchmarks/results/<bench>.txt`` — the files EXPERIMENTS.md quotes;
* asserts the *shape* of the paper's result (who wins, direction of
  effects, where peaks land), never absolute numbers;
* wraps its core computation in ``benchmark.pedantic(..., rounds=1)`` so
  ``pytest benchmarks/ --benchmark-only`` both times and executes it
  exactly once.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.core.config import RuntimeConfig
from repro.core.runtime import IterationResult
from repro.core.session import Session
from repro.device.gpu import OutOfMemoryError
from repro.frameworks import FRAMEWORKS, framework_config
from repro.frameworks.probe import max_batch, max_resnet_depth
from repro.zoo import (
    alexnet,
    inception_v4,
    resnet50,
    resnet101,
    resnet152,
    vgg16,
    vgg19,
)

RESULTS_DIR = Path(__file__).parent / "results"

GiB = 1024**3
MiB = 1024**2

#: The paper's seven evaluation networks with their Fig. 2 batch sizes.
PAPER_NETWORKS = {
    "alexnet": (alexnet, {"batch": 200}),
    "vgg16": (vgg16, {"batch": 32}),
    "vgg19": (vgg19, {"batch": 32}),
    "inception_v4": (inception_v4, {"batch": 32}),
    "resnet50": (resnet50, {"batch": 32}),
    "resnet101": (resnet101, {"batch": 32}),
    "resnet152": (resnet152, {"batch": 32}),
}

#: Framework display order used by the comparison tables.
FRAMEWORK_ORDER = ["caffe", "mxnet", "torch", "tensorflow", "superneurons"]


def write_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)


def img_per_sec(net, res: Optional[IterationResult]) -> Optional[float]:
    if res is None or res.sim_time <= 0:
        return None
    return net.data_layer.shape[0] / res.sim_time


def steady_run(net, config: RuntimeConfig) -> Optional[IterationResult]:
    """A session's second iteration, the iteration a training run
    repeats; None when the device OOMs.  (Under pressure a session
    starts from its engine's scout record, so its first iteration is
    that one too.)"""
    try:
        with Session(net, config) as sess:
            sess.run_iteration(0)
            return sess.run_iteration(1)
    except (OutOfMemoryError, MemoryError):
        return None


def once(benchmark, fn: Callable, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


@functools.lru_cache(maxsize=None)
def cached_max_batch(fw: str, net_name: str, limit: int = 4096) -> int:
    """Table 5 probe, cached so Fig. 13 reuses it within a session."""
    builder, kw = PAPER_NETWORKS[net_name]
    kw = {k: v for k, v in kw.items() if k != "batch"}

    def factory() -> RuntimeConfig:
        return framework_config(fw, concrete=False)

    return max_batch(builder, factory, start=4, limit=limit, **kw)


@functools.lru_cache(maxsize=None)
def cached_max_depth(fw: str, limit_n3: int = 1024):
    def factory() -> RuntimeConfig:
        return framework_config(fw, concrete=False)

    return max_resnet_depth(factory, batch=16, image=224, limit_n3=limit_n3)
