"""Simulated GPU substrate.

The paper's runtime runs on a 12 GB NVIDIA K40c / TITAN Xp.  We have no
GPU, so this subpackage provides a byte-accurate, time-modeled stand-in:

* :class:`~repro.device.gpu.SimulatedGPU` — a DRAM byte ledger with a
  capacity limit and a cudaMalloc/cudaFree latency model.
* :class:`~repro.device.dma.DMAEngine` — asynchronous H2D/D2H copies
  with pinned vs pageable bandwidth, returning completion events.
* :class:`~repro.device.timeline.Timeline` — a tiny discrete-event
  simulator with one compute stream and two copy streams, so that
  offload/prefetch genuinely overlap compute the way CUDA streams do.
* :class:`~repro.device.model.DeviceModel` — the calibrated constants
  (throughputs, bandwidths, latencies) all simulated times derive from.

Every memory number in the paper's evaluation is a statement about which
bytes are resident when — reproduced exactly by the ledger.  Every speed
number is a statement about ratios (compute vs PCIe, malloc overhead vs
kernel time) — preserved by the analytic cost model.
"""

from repro.device.model import DeviceModel, K40_MODEL, TITANXP_MODEL
from repro.device.timeline import Timeline, Stream, Event
from repro.device.gpu import SimulatedGPU, OutOfMemoryError
from repro.device.dma import DMAEngine, CopyDirection
from repro.device.fabric import (
    ExternalPool,
    LOCAL_CPU,
    MemoryFabric,
    PEER_GPU,
    REMOTE_RDMA,
)

__all__ = [
    "ExternalPool",
    "MemoryFabric",
    "LOCAL_CPU",
    "PEER_GPU",
    "REMOTE_RDMA",
    "DeviceModel",
    "K40_MODEL",
    "TITANXP_MODEL",
    "Timeline",
    "Stream",
    "Event",
    "SimulatedGPU",
    "OutOfMemoryError",
    "DMAEngine",
    "CopyDirection",
]
