"""Fully-connected (inner product) layer."""

from __future__ import annotations

import zlib

import numpy as np

from repro.layers.base import Layer, LayerType, he_normal


class FullyConnected(Layer):
    """Dense layer over a flattened NCHW input.

    Output shape is ``(N, out_features, 1, 1)`` so everything in the
    graph stays 4-D, exactly as cuDNN/Caffe treat inner products.
    """

    ltype = LayerType.FC
    needs_output_in_backward = False

    def __init__(self, name: str, out_features: int, bias: bool = True):
        super().__init__(name)
        self.out_features = out_features
        self.use_bias = bias

    def infer_shape(self, in_shapes):
        if len(in_shapes) != 1:
            raise ValueError(f"{self.name}: fc takes one input")
        n = in_shapes[0][0]
        return (n, self.out_features, 1, 1)

    @property
    def in_features(self) -> int:
        shp = self.in_shapes[0]
        d = 1
        for v in shp[1:]:
            d *= v
        return d

    def _build_params(self) -> None:
        d = self.in_features
        seed = zlib.crc32(self.name.encode())
        out = self.out_features

        self._w = self._add_param(
            (out, d, 1, 1), lambda: he_normal(seed, (out, d, 1, 1), d), "W")
        if self.use_bias:
            self._b = self._add_param(
                (out, 1, 1, 1),
                lambda: np.zeros((out, 1, 1, 1), dtype=np.float32), "b")

    def forward(self, inputs, ctx):
        (x,) = inputs
        n = x.shape[0]
        xf = x.reshape(n, -1)
        w = self.param_values[self._w.tensor_id].reshape(self.out_features, -1)
        out = xf @ w.T
        if self.use_bias:
            out = out + self.param_values[self._b.tensor_id].reshape(1, -1)
        return out.reshape(self.out_shape).astype(np.float32, copy=False)

    def backward(self, inputs, output, grad_out, ctx):
        (x,) = inputs
        n = x.shape[0]
        xf = x.reshape(n, -1)
        go = grad_out.reshape(n, self.out_features)
        w = self.param_values[self._w.tensor_id].reshape(self.out_features, -1)
        dw = (go.T @ xf).reshape(self._w.shape).astype(np.float32, copy=False)
        dx = (go @ w).reshape(x.shape).astype(np.float32, copy=False)
        grads = [dw]
        if self.use_bias:
            grads.append(go.sum(axis=0).reshape(self._b.shape)
                         .astype(np.float32, copy=False))
        return [dx], grads

    def flops_forward(self) -> float:
        n = self.in_shapes[0][0]
        return 2.0 * n * self.in_features * self.out_features
