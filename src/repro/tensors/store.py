"""Payload stores: where tensor *values* live.

The runtime's scheduling decisions never look at values, only at
descriptors.  The store is the one seam between the two execution modes:

* :class:`ArrayStore` — concrete mode.  Values are NumPy arrays; offload
  really moves the array into a host-side dict and eviction really drops
  the device copy.  This is what lets the test suite prove that training
  under any combination of memory optimizations is *numerically
  identical* to the unoptimized baseline.
* :class:`NullStore` — simulated mode.  No values at all; every
  operation is a no-op.  Used for capacity experiments (ResNet-2500 on a
  "12 GB" device) that would never fit in real laptop RAM.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol

import numpy as np

from repro.tensors.tensor import Tensor


class PayloadStore(Protocol):
    """The minimal interface the runtime needs from a payload store."""

    def put(self, t: Tensor, value: np.ndarray) -> None: ...

    def get(self, t: Tensor) -> Optional[np.ndarray]: ...

    def move_to_host(self, t: Tensor) -> None: ...

    def move_to_gpu(self, t: Tensor) -> None: ...

    def drop(self, t: Tensor) -> None: ...

    def has(self, t: Tensor) -> bool: ...


class ArrayStore:
    """Concrete payload store backed by two dicts (device / host).

    Keeping two explicit maps (rather than a flag on one map) means a
    bug that reads an offloaded tensor without prefetching it first
    fails loudly in tests instead of silently working.
    """

    def __init__(self) -> None:
        self._device: Dict[int, np.ndarray] = {}
        self._host: Dict[int, np.ndarray] = {}

    # -- basic access ----------------------------------------------------
    def put(self, t: Tensor, value: np.ndarray) -> None:
        if value.size != t.numel:
            raise ValueError(
                f"payload has {value.size} elements, tensor {t.name!r} "
                f"expects {t.numel}"
            )
        self._device[t.tensor_id] = np.ascontiguousarray(
            value.reshape(t.shape), dtype=t.dtype
        )

    def get(self, t: Tensor) -> Optional[np.ndarray]:
        return self._device.get(t.tensor_id)

    def get_required(self, t: Tensor) -> np.ndarray:
        arr = self._device.get(t.tensor_id)
        if arr is None:
            raise KeyError(
                f"tensor {t.name!r} (id={t.tensor_id}) has no device payload"
            )
        return arr

    def has(self, t: Tensor) -> bool:
        return t.tensor_id in self._device

    # -- movement (mirrors DMA copies) ------------------------------------
    def move_to_host(self, t: Tensor) -> None:
        arr = self._device.pop(t.tensor_id, None)
        if arr is not None:
            self._host[t.tensor_id] = arr

    def move_to_gpu(self, t: Tensor) -> None:
        arr = self._host.pop(t.tensor_id, None)
        if arr is not None:
            self._device[t.tensor_id] = arr

    def drop(self, t: Tensor) -> None:
        self._device.pop(t.tensor_id, None)
        self._host.pop(t.tensor_id, None)

    # -- introspection ----------------------------------------------------
    @property
    def device_count(self) -> int:
        return len(self._device)

    @property
    def host_count(self) -> int:
        return len(self._host)


class NullStore:
    """Descriptor-only store for simulated mode: every op is a no-op."""

    def put(self, t: Tensor, value: np.ndarray) -> None:
        pass

    def get(self, t: Tensor) -> Optional[np.ndarray]:
        return None

    def get_required(self, t: Tensor) -> np.ndarray:
        raise RuntimeError("NullStore holds no payloads (simulated mode)")

    def has(self, t: Tensor) -> bool:
        return False

    def move_to_host(self, t: Tensor) -> None:
        pass

    def move_to_gpu(self, t: Tensor) -> None:
        pass

    def drop(self, t: Tensor) -> None:
        pass

    @property
    def device_count(self) -> int:
        return 0

    @property
    def host_count(self) -> int:
        return 0
