"""Plain SGD with optional momentum and weight decay."""

from __future__ import annotations

from typing import Dict

import numpy as np


class SGD:
    """Computes each parameter's next value: :meth:`step_param`
    returns a new array, which the executor stores in the layer's
    ``param_values`` in place of the old one.

    The optimizer state (momentum buffers) is host-side and never enters
    the GPU scheduling problem, matching Caffe's solver design on the
    paper's testbed.
    """

    def __init__(self, lr: float = 0.01, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def step_param(self, tensor_id: int, value: np.ndarray,
                   grad: np.ndarray) -> np.ndarray:
        """Return the updated value for one parameter tensor."""
        g = grad
        if self.weight_decay:
            g = g + self.weight_decay * value
        if self.momentum:
            v = self._velocity.get(tensor_id)
            if v is None:
                v = np.zeros_like(value)
            v = self.momentum * v - self.lr * g
            self._velocity[tensor_id] = v
            return value + v
        return value - self.lr * g
