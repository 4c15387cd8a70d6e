"""2-D convolution with a cuDNN-like algorithm table.

The NumPy kernels use im2col + GEMM (what cuDNN's
``CUDNN_CONVOLUTION_FWD_ALGO_GEMM`` does), which is fast enough under
vectorized NumPy for test-scale shapes while being exactly
differentiable.

The *algorithm table* is what the dynamic workspace selector (paper
§3.5) consumes: four algorithms with different workspace demands and
speed multipliers, mirroring cuDNN's trade-off where FFT/Winograd are
faster but need (sometimes enormous) scratch space.  The numeric result
is identical whichever algorithm is "selected" — only simulated time
and workspace bytes differ — matching the paper's statement that
"convolution workspaces do not affect the functionality".
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

import numpy as np

from repro.device.model import DeviceModel
from repro.layers.base import Layer, LayerContext, LayerType, he_normal
from repro.layers.data import DataLayer
from repro.tensors.shapes import as_pair, conv2d_out_shape


def _out_hw(h: int, w: int, kh: int, kw: int, stride: int,
            ph: int, pw: int) -> Tuple[int, int]:
    return (h + 2 * ph - kh) // stride + 1, (w + 2 * pw - kw) // stride + 1


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad) -> np.ndarray:
    """Unfold NCHW input into (N, C*kh*kw, OH*OW) patch columns.

    ``pad`` is an int or an (ph, pw) pair (rectangular kernels pad
    asymmetrically per axis).  The patches are gathered in one copy of
    a 6-D strided view; an unpadded input is read where it lies.
    """
    ph, pw = as_pair(pad)
    n, c, h, w = x.shape
    oh, ow = _out_hw(h, w, kh, kw, stride, ph, pw)
    if ph or pw:
        xp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
        xp[:, :, ph:ph + h, pw:pw + w] = x
        x = xp
    sn, sc, sh, sw = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, oh, ow),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    return patches.reshape(n, c * kh * kw, oh * ow)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad,
) -> np.ndarray:
    """Fold patch columns back, accumulating overlaps (im2col adjoint)."""
    ph, pw = as_pair(pad)
    n, c, h, w = x_shape
    oh, ow = _out_hw(h, w, kh, kw, stride, ph, pw)
    cols6 = cols.reshape(n, c, kh, kw, oh, ow)
    xp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + stride * oh
        for j in range(kw):
            j_end = j + stride * ow
            xp[:, :, i:i_end:stride, j:j_end:stride] += cols6[:, :, i, j]
    if ph == 0 and pw == 0:
        return xp
    return np.ascontiguousarray(xp[:, :, ph:ph + h, pw:pw + w])


@dataclass(frozen=True)
class ConvAlgo:
    """One entry of the per-layer algorithm table."""

    name: str
    workspace_bytes: int
    speed: float  # multiplier on base GEMM throughput (higher = faster)

    def time(self, flops: float, model: DeviceModel) -> float:
        return flops / (model.compute_tflops * self.speed) \
            + model.kernel_launch_overhead


def _next_pow2(v: int) -> int:
    p = 1
    while p < v:
        p *= 2
    return p


def conv_algorithms(
    batch: int,
    in_channels: int,
    out_channels: int,
    in_hw: Tuple[int, int],
    out_hw: Tuple[int, int],
    kernel,
    stride: int,
    model: DeviceModel,
) -> List[ConvAlgo]:
    """The memory/speed menu for one conv shape (cuDNN-style).

    * ``implicit_gemm`` — always available, zero workspace, slowest.
    * ``gemm`` — explicit im2col buffer: ``N * C*k*k * OH*OW`` floats.
    * ``winograd`` — 3x3 stride-1 only; moderate tile workspace.
    * ``fft`` — stride-1 only; transform buffers over padded-to-pow2
      spatial dims for input, filter and output grids (huge for large
      images, which is exactly why it needs the workspace budget).
    """
    oh, ow = out_hw
    h, w = in_hw
    kh, kw = as_pair(kernel)
    speeds = model.conv_algo_speed
    algos = [ConvAlgo("implicit_gemm", 0, speeds["implicit_gemm"])]

    gemm_ws = 4 * batch * in_channels * kh * kw * oh * ow
    algos.append(ConvAlgo("gemm", gemm_ws, speeds["gemm"]))

    if kh == kw == 3 and stride == 1:
        tiles = -(-oh // 2) * (-(-ow // 2))
        wino_ws = 4 * 16 * tiles * (in_channels + out_channels) * batch // 4
        algos.append(ConvAlgo("winograd", wino_ws, speeds["winograd"]))

    if stride == 1 and max(kh, kw) > 1:
        ht, wt = _next_pow2(h + kh - 1), _next_pow2(w + kw - 1)
        grids = (batch * in_channels + batch * out_channels
                 + in_channels * out_channels)
        fft_ws = 8 * grids * ht * (wt // 2 + 1)
        algos.append(ConvAlgo("fft", fft_ws, speeds["fft"]))

    return algos


class ConvPrice(NamedTuple):
    """One conv layer's price on one device model: a pure function of
    the built layer and the model, stored by
    :meth:`~repro.layers.base.Layer.price`."""

    model: DeviceModel
    menu: Tuple[ConvAlgo, ...]     # :func:`conv_algorithms`, in its order
    fastest: ConvAlgo              # the max-speed pick
    forward_s: float               # the default algorithm's kernels
    backward_s: float


class Conv2D(Layer):
    """Convolution layer; the paper's checkpoint/offload unit.

    Its price (:meth:`Layer.price <repro.layers.base.Layer.price>`) is a
    :class:`ConvPrice`: the algorithm menu and max-speed pick beside
    the default kernel times.
    """

    ltype = LayerType.CONV
    # dgrad/wgrad read x and dy but never the forward output
    needs_output_in_backward = False

    def __init__(
        self,
        name: str,
        out_channels: int,
        kernel,
        stride: int = 1,
        pad=0,
        bias: bool = True,
    ):
        super().__init__(name)
        self.out_channels = out_channels
        self.kh, self.kw = as_pair(kernel)
        self.kernel = kernel  # as given (int or pair), for repr/tests
        self.stride = stride
        self.pad = as_pair(pad) if not isinstance(pad, int) else pad
        self.use_bias = bias

    # -- shapes / params --------------------------------------------------------
    def infer_shape(self, in_shapes):
        if len(in_shapes) != 1:
            raise ValueError(f"{self.name}: conv takes one input")
        return conv2d_out_shape(
            in_shapes[0], self.out_channels, self.kernel, self.stride, self.pad
        )

    def _build_params(self) -> None:
        _n, c, _h, _w = self.in_shapes[0]
        seed = zlib.crc32(self.name.encode())
        fan_in = c * self.kh * self.kw
        kshape = (self.out_channels, c, self.kh, self.kw)

        self._w = self._add_param(
            kshape, lambda: he_normal(seed, kshape, fan_in), "W")
        if self.use_bias:
            bshape = (self.out_channels, 1, 1, 1)
            self._b = self._add_param(
                bshape, lambda: np.zeros(bshape, dtype=np.float32), "b")

    # -- kernels -------------------------------------------------------------------
    # One GEMM per sample (``matmul`` broadcasts the filter matrix over
    # the batch axis): a row's result is the same bits whatever rides
    # in the batch beside it, which served == solo inference relies on.
    def forward(self, inputs, ctx):
        (x,) = inputs
        w = self.param_values[self._w.tensor_id]
        cols = im2col(x, self.kh, self.kw, self.stride, self.pad)
        out = np.matmul(w.reshape(self.out_channels, -1), cols)
        out = out.reshape(x.shape[0], *self.out_shape[1:])
        if self.use_bias:
            out += self.param_values[self._b.tensor_id].reshape(1, -1, 1, 1)
        return out

    def backward(self, inputs, output, grad_out, ctx):
        (x,) = inputs
        w = self.param_values[self._w.tensor_id]
        go = grad_out.reshape(x.shape[0], self.out_channels, -1)
        cols = im2col(x, self.kh, self.kw, self.stride, self.pad)
        dw = np.matmul(go, cols.transpose(0, 2, 1)).sum(axis=0)
        param_grads = [dw.reshape(w.shape)]
        if self.use_bias:
            param_grads.append(go.sum(axis=(0, 2)).reshape(-1, 1, 1, 1))
        if isinstance(self.prev[0], DataLayer):
            # nothing consumes the gradient of the input batch (cuDNN
            # users skip ConvolutionBackwardData on the first layer too)
            return [None], param_grads
        dcols = np.matmul(w.reshape(self.out_channels, -1).T, go)
        dx = col2im(dcols, x.shape, self.kh, self.kw, self.stride, self.pad)
        return [dx], param_grads

    # -- cost model -----------------------------------------------------------------
    def flops_forward(self) -> float:
        n, _k, oh, ow = self.out_shape
        _, c, _, _ = self.in_shapes[0]
        return 2.0 * n * self.out_channels * c * self.kh * self.kw * oh * ow

    def _price(self, model: DeviceModel) -> ConvPrice:
        """Derive the layer's price on ``model`` (the one
        :func:`conv_algorithms` call in ``src/``)."""
        n, c, h, w = self.in_shapes[0]
        _, _, oh, ow = self.out_shape
        menu = tuple(conv_algorithms(
            n, c, self.out_channels, (h, w), (oh, ow),
            self.kernel, self.stride, model,
        ))
        default = menu[0]
        return ConvPrice(model, menu, max(menu, key=lambda a: a.speed),
                         default.time(self.flops_forward(), model),
                         default.time(self.flops_backward(), model))

    def algorithms(self, model: DeviceModel) -> Tuple[ConvAlgo, ...]:
        return self._priced(model).menu

    def max_speed_algo(self, model: DeviceModel) -> ConvAlgo:
        return self._priced(model).fastest

    def best_algo_within(self, budget_bytes: int, model: DeviceModel) -> ConvAlgo:
        """Fastest algorithm whose workspace fits ``budget_bytes``.

        The zero-workspace implicit GEMM always fits, so this never
        fails — the paper's point is that training proceeds regardless,
        just slower when memory is tight.
        """
        feasible = [a for a in self.algorithms(model)
                    if a.workspace_bytes <= budget_bytes]
        return max(feasible, key=lambda a: a.speed)

    def sim_time_forward(self, model: DeviceModel, algo: ConvAlgo = None) -> float:
        if algo is None:
            return self._priced(model).forward_s
        return algo.time(self.flops_forward(), model)

    def sim_time_backward(self, model: DeviceModel, algo: ConvAlgo = None) -> float:
        if algo is None:
            return self._priced(model).backward_s
        return algo.time(self.flops_backward(), model)
