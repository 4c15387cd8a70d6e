"""Max / average 2-D pooling (ceil mode, Caffe-compatible)."""

from __future__ import annotations

import numpy as np

from repro.layers.base import Layer, LayerType
from repro.tensors.shapes import pool2d_out_shape


class Pool2D(Layer):
    """Pooling layer; a prime recomputation target (cheap, big output)."""

    ltype = LayerType.POOL

    def __init__(self, name: str, kernel: int, stride: int, pad: int = 0,
                 mode: str = "max"):
        super().__init__(name)
        if mode not in ("max", "avg"):
            raise ValueError(f"unknown pool mode {mode!r}")
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.mode = mode
        # cudnnPoolingBackward(y, dy, x) -> dx reads both x and y, and
        # so does our max kernel (it routes dy to where x == y); avg
        # uses neither, but keeps the same dependency model (the
        # paper's l_peak = 4 tensors at the backward of a big POOL/LRN
        # layer depends on it).
        self.needs_inputs_in_backward = True
        self.needs_output_in_backward = True

    def infer_shape(self, in_shapes):
        if len(in_shapes) != 1:
            raise ValueError(f"{self.name}: pool takes one input")
        return pool2d_out_shape(in_shapes[0], self.kernel, self.stride,
                                self.pad, ceil_mode=True)

    def _padded_hw(self):
        """Input extent once every ceil-mode window is fully in bounds."""
        _, _, h, w = self.in_shapes[0]
        _, _, oh, ow = self.out_shape
        reach = self.kernel - self.stride
        return (max(self.pad + h, oh * self.stride + reach),
                max(self.pad + w, ow * self.stride + reach))

    def _padded(self, x: np.ndarray, fill: float) -> np.ndarray:
        """``x`` inside a ``fill`` border of that extent; ``x`` itself
        when no window leaves it."""
        n, c, h, w = x.shape
        hw = self._padded_hw()
        if hw == (h, w):
            return x
        xp = np.full((n, c) + hw, fill, dtype=np.float32)
        xp[:, :, self.pad:self.pad + h, self.pad:self.pad + w] = x
        return xp

    def _window_slices(self, xp: np.ndarray):
        """The k*k strided (N, C, OH, OW) views of ``xp``: element
        (i, j) of every window, in row-major window order."""
        _, _, oh, ow = self.out_shape
        k, s = self.kernel, self.stride
        for i in range(k):
            for j in range(k):
                yield xp[:, :, i:i + s * oh:s, j:j + s * ow:s]

    def forward(self, inputs, ctx):
        (x,) = inputs
        if self.mode == "max":
            slices = self._window_slices(self._padded(x, -np.inf))
            out = next(slices).astype(np.float32)
            for sl in slices:
                np.maximum(out, sl, out=out)
            return out
        out = np.zeros(x.shape[:2] + self.out_shape[2:], dtype=np.float32)
        for sl in self._window_slices(self._padded(x, 0.0)):
            out += sl
        out /= self.kernel * self.kernel
        return out

    def backward(self, inputs, output, grad_out, ctx):
        _, _, h, w = self.in_shapes[0]
        pad = self.pad
        dxp = np.zeros(grad_out.shape[:2] + self._padded_hw(),
                       dtype=np.float32)
        if self.mode == "max":
            # dy goes to the first element, row-major in its window,
            # that equals the window's max: argmax's tie rule
            (x,) = inputs
            taken = np.zeros(output.shape, dtype=bool)
            for sl, dsl in zip(self._window_slices(self._padded(x, -np.inf)),
                               self._window_slices(dxp)):
                hit = np.greater(sl == output, taken)   # and not taken
                taken |= hit
                # a product, not a masked add: ~10x cheaper, and equal
                # to it for every finite dy
                dsl += grad_out * hit
        else:
            g = grad_out / (self.kernel * self.kernel)
            for dsl in self._window_slices(dxp):
                dsl += g
        if dxp.shape[2:] == (h, w):
            return [dxp], []
        return [np.ascontiguousarray(dxp[:, :, pad:pad + h, pad:pad + w])], []
