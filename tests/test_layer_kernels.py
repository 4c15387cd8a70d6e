"""The shipped conv / pool kernels against the straightforward ones.

``repro.layers.conv`` and ``repro.layers.pool`` are written for speed
(per-sample GEMM over strided patch views; pooling as k*k slice-wise
passes).  ``tests/reference_kernels.py`` keeps the loop / ``einsum`` /
``argmax`` kernels they replaced; this file holds the two equal over
random geometry, pins the max-pool tie rule, and pins that the first
conv of a net computes no gradient for the input batch.

"Equal" is exact for a selection (a max pool's output) and, for every
output that is a sum of products, what float32 rounding allows of two
sums of the same products in different orders (:func:`assert_sums`).
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro import RuntimeConfig, SGD, Session, Trainer, zoo
from repro.layers import Conv2D, Pool2D
from repro.layers.base import LayerContext
from repro.tensors.shapes import as_pair
from tests import reference_kernels as ref
from tests.test_layers_grad import _build

CTX = LayerContext()
#: float32's unit roundoff
U32 = 2.0 ** -24
#: a float32 sum of ``n`` products is within ``n·U32·Σ|products|`` of the
#: exact sum, whatever its order; two such sums are within twice that
C = 2

pads = st.one_of(st.integers(0, 2),
                 st.tuples(st.integers(0, 2), st.integers(0, 2)))


def kernel_fits(h, w, kernel, pad) -> bool:
    (kh, kw), (ph, pw) = as_pair(kernel), as_pair(pad)
    return h + 2 * ph >= kh and w + 2 * pw >= kw


def assert_sums(got, want, magnitude, terms: int) -> None:
    """``got`` and ``want`` are the same sums of at most ``terms``
    float32 products each, summed in different orders: entry by entry
    ``|got - want| <= C · terms · U32 · Σ|products|``, with
    ``magnitude`` the float64 ``Σ|products|``.  A sum that cancels can
    lose every digit a relative bound would ask it to keep."""
    assert got.shape == want.shape == magnitude.shape
    err = np.abs(got.astype(np.float64) - want.astype(np.float64))
    bound = C * terms * U32 * magnitude
    over = err > bound
    assert not over.any(), (
        f"{int(over.sum())} of {err.size} entries past the rounding bound; "
        f"the worst is {err[over].max():.3g} against {bound[over].min():.3g}")


def assert_dense_f32(*arrays) -> None:
    for a in arrays:
        assert a.dtype == np.float32 and a.flags.c_contiguous


def draw_input(seed: int, shape, ties: bool = False) -> np.ndarray:
    """Gaussian rows; ``ties`` makes them post-ReLU and coarse, so
    windows hold repeated maxima and whole windows of zeros."""
    x = np.random.default_rng(seed).standard_normal(shape)
    if ties:
        x = np.maximum(np.round(x * 2) / 2, 0.0)
    return x.astype(np.float32)


# ------------------------------------------------------------------ conv
class TestConvAgainstReference:
    @given(n=st.integers(1, 3), c=st.integers(1, 4), k_out=st.integers(1, 5),
           h=st.integers(3, 9), w=st.integers(3, 9),
           kh=st.integers(1, 4), kw=st.integers(1, 4),
           stride=st.integers(1, 3), pad=pads, bias=st.booleans(),
           seed=st.integers(0, 2**16))
    @settings(max_examples=120, deadline=None)
    # a weight gradient whose products cancel: the two sums' L2-relative
    # error is 2.05e-5, well inside what rounding allows
    @example(n=2, c=1, k_out=1, h=6, w=9, kh=1, kw=1, stride=1, pad=1,
             bias=False, seed=1)
    def test_forward_and_gradients(self, n, c, k_out, h, w, kh, kw, stride,
                                   pad, bias, seed):
        assume(kernel_fits(h, w, (kh, kw), pad))
        layer = _build(Conv2D("c", k_out, kernel=(kh, kw), stride=stride,
                              pad=pad, bias=bias), [(n, c, h, w)])
        x = draw_input(seed, (n, c, h, w))
        wgt = layer.param_values[layer._w.tensor_id]
        b = None
        if bias:
            b = draw_input(seed + 1, (k_out, 1, 1, 1))
            layer.param_values[layer._b.tensor_id] = b

        out = layer.forward([x], CTX)
        want = ref.conv_forward(x, wgt, b, stride, pad)
        assert out.shape == want.shape == layer.out_shape
        go = draw_input(seed + 2, out.shape)
        mag, mag_dx, mag_dw, mag_db = ref.conv_magnitudes(
            x, wgt, b, go, stride, pad)
        _, _, oh, ow = out.shape
        assert_sums(out, want, mag, c * kh * kw + bias)

        (dx,), grads = layer.backward([x], None, go, CTX)
        want_dx, want_dw, want_db = ref.conv_backward(x, wgt, go, stride, pad)
        assert dx.shape == x.shape and grads[0].shape == wgt.shape
        assert_sums(dx, want_dx, mag_dx, k_out * kh * kw)
        assert_sums(grads[0], want_dw, mag_dw, n * oh * ow)
        if bias:
            assert grads[1].shape == b.shape
            assert_sums(grads[1], want_db, mag_db, n * oh * ow)
        assert len(grads) == 1 + bias
        assert_dense_f32(out, dx, *grads)

    @given(c=st.integers(1, 4), k_out=st.integers(1, 6),
           h=st.integers(4, 12), w=st.integers(4, 12),
           kernel=st.sampled_from([1, 3, 5, (1, 3), (3, 1)]),
           stride=st.integers(1, 2), pad=pads, row=st.integers(0, 7),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_a_row_does_not_depend_on_its_batch_mates(
            self, c, k_out, h, w, kernel, stride, pad, row, seed):
        """What served == solo inference rests on: a request's rows are
        the same bits whatever the batcher packed beside them."""
        assume(kernel_fits(h, w, kernel, pad))
        layer = _build(Conv2D("c", k_out, kernel=kernel, stride=stride,
                              pad=pad), [(8, c, h, w)])
        batch = draw_input(seed, (8, c, h, w))
        others = draw_input(seed + 1, (8, c, h, w))
        others[row] = batch[row]
        padded = np.zeros_like(batch)
        padded[row] = batch[row]
        want = layer.forward([batch], CTX)[row]
        assert np.array_equal(layer.forward([others], CTX)[row], want)
        assert np.array_equal(layer.forward([padded], CTX)[row], want)


# ------------------------------------------------------------------ pool
class TestPoolAgainstReference:
    @given(n=st.integers(1, 3), c=st.integers(1, 4),
           h=st.integers(3, 11), w=st.integers(3, 11),
           geometry=st.sampled_from([(2, 2), (3, 2), (3, 3), (3, 1),
                                     (2, 1), (2, 3), (1, 1), (4, 2)]),
           pad=st.integers(0, 1), mode=st.sampled_from(["max", "avg"]),
           ties=st.booleans(), seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_forward_and_dx(self, n, c, h, w, geometry, pad, mode, ties,
                            seed):
        # ceil mode: (h - k) % s != 0 leaves partial windows at the
        # bottom/right; k > s (3, 2) makes windows overlap
        k, s = geometry
        assume(h + 2 * pad >= k and w + 2 * pad >= k and pad < k)
        layer = _build(Pool2D("p", kernel=k, stride=s, pad=pad, mode=mode),
                       [(n, c, h, w)])
        x = draw_input(seed, (n, c, h, w), ties=ties)
        out = layer.forward([x], CTX)
        want = ref.pool_forward(x, k, s, pad, mode)
        assert out.shape == want.shape == layer.out_shape

        go = draw_input(seed + 1, out.shape)
        (dx,), grads = layer.backward([x], out, go, CTX)
        want_dx = ref.pool_backward(x, go, k, s, pad, mode)
        assert grads == [] and dx.shape == x.shape
        mag, mag_dx = ref.pool_magnitudes(x, go, k, s, pad, mode)
        if mode == "max":
            # a selection and a routing: the same numbers, not close
            # ones, summed where windows overlap
            assert np.array_equal(out, want)
            assert np.array_equal(dx != 0, want_dx != 0)
        else:
            assert_sums(out, want, mag, k * k)
        assert_sums(dx, want_dx, mag_dx, k * k)
        assert_dense_f32(out, dx)

    def test_forward_does_not_alias_its_input(self):
        layer = _build(Pool2D("p", kernel=1, stride=1), [(1, 1, 3, 3)])
        x = draw_input(0, (1, 1, 3, 3))
        assert not np.shares_memory(layer.forward([x], CTX), x)


class TestMaxPoolTieRouting:
    """dy goes, whole, to the first maximum in row-major window order —
    ``argmax``'s rule, and cuDNN's deterministic max pooling's."""

    @staticmethod
    def backward(layer, x, go):
        out = layer.forward([x], CTX)
        (dx,), _ = layer.backward([x], out, go, CTX)
        return dx

    def test_all_zero_window(self):
        # the common real case: a window ReLU zeroed entirely
        layer = _build(Pool2D("p", kernel=2, stride=2), [(1, 1, 4, 4)])
        x = np.zeros((1, 1, 4, 4), dtype=np.float32)
        go = np.arange(1, 5, dtype=np.float32).reshape(1, 1, 2, 2)
        want = np.zeros_like(x)
        want[0, 0, ::2, ::2] = go[0, 0]      # each window's top-left
        assert np.array_equal(self.backward(layer, x, go), want)

    def test_two_equal_maxima(self):
        layer = _build(Pool2D("p", kernel=2, stride=2), [(1, 1, 2, 2)])
        x = np.array([[[[1.0, 7.0], [7.0, 0.0]]]], dtype=np.float32)
        go = np.full((1, 1, 1, 1), 3.0, dtype=np.float32)
        want = np.array([[[[0.0, 3.0], [0.0, 0.0]]]], dtype=np.float32)
        assert np.array_equal(self.backward(layer, x, go), want)

    @pytest.mark.parametrize("ties", [False, True])
    def test_gradient_mass_is_conserved(self, ties):
        layer = _build(Pool2D("p", kernel=3, stride=2), [(2, 3, 7, 7)])
        x = draw_input(5, (2, 3, 7, 7), ties=ties)
        # small integers: every partial sum is exact in float32
        go = np.random.default_rng(6).integers(
            -8, 9, size=layer.out_shape).astype(np.float32)
        dx = self.backward(layer, x, go)
        assert dx.sum() == go.sum()
        assert np.count_nonzero(dx) <= np.count_nonzero(go)

    def test_shared_maximum_of_overlapping_windows_gets_both(self):
        # k=3 s=2 on 5 columns: windows [0..2] and [2..4] share column 2
        layer = _build(Pool2D("p", kernel=3, stride=2), [(1, 1, 3, 5)])
        x = np.zeros((1, 1, 3, 5), dtype=np.float32)
        x[0, 0, 1, 2] = 9.0
        go = np.array([[[[2.0, 5.0]]]], dtype=np.float32)
        want = np.zeros_like(x)
        want[0, 0, 1, 2] = 7.0
        assert np.array_equal(self.backward(layer, x, go), want)


# ------------------------------------------- the first conv computes no dx
class TestNoInputGradientForTheDataLayer:
    def test_dx_is_none_and_param_grads_are_unchanged(self):
        net = zoo.lenet(batch=4)
        conv1 = net.layer_by_name("conv1")
        # same name => same seeded weights, but a non-data producer
        twin = _build(Conv2D("conv1", 6, kernel=5, pad=2),
                      [net.data_layer.shape])
        x = draw_input(1, net.data_layer.shape)
        go = draw_input(2, conv1.out_shape)
        (dx,), grads = conv1.backward([x], None, go, CTX)
        (twin_dx,), twin_grads = twin.backward([x], None, go, CTX)
        assert dx is None and twin_dx.shape == x.shape
        assert len(grads) == len(twin_grads) == 2
        for got, want in zip(grads, twin_grads):
            assert np.array_equal(got, want)

    def test_store_never_holds_a_data_gradient(self):
        with Session(zoo.lenet(batch=4),
                     RuntimeConfig.superneurons(concrete=True)) as session:
            store = session.executor.store
            put, names = store.put, []
            store.put = lambda t, value: (names.append(t.name),
                                          put(t, value))[1]
            session.run_iteration(0, optimizer=SGD(0.05))
        assert "conv1:dW" in names and "conv1:grad" in names
        assert "data:grad" not in names

    def test_lenet_trajectory_equals_the_full_dx_reference(self, monkeypatch):
        def losses():
            with Trainer(zoo.lenet(batch=8),
                         RuntimeConfig.superneurons(concrete=True),
                         SGD(0.05)) as trainer:
                return trainer.train(10, keep_results=False).losses

        shipped = losses()

        def conv_params(layer):
            b = layer.param_values[layer._b.tensor_id] \
                if layer.use_bias else None
            return layer.param_values[layer._w.tensor_id], b

        def conv_forward(self, inputs, ctx):
            w, b = conv_params(self)
            return ref.conv_forward(inputs[0], w, b, self.stride, self.pad)

        def conv_backward(self, inputs, output, grad_out, ctx):
            w, b = conv_params(self)
            dx, dw, db = ref.conv_backward(inputs[0], w, grad_out,
                                           self.stride, self.pad)
            return [dx], [dw] if b is None else [dw, db]

        def pool_forward(self, inputs, ctx):
            return ref.pool_forward(inputs[0], self.kernel, self.stride,
                                    self.pad, self.mode)

        def pool_backward(self, inputs, output, grad_out, ctx):
            return [ref.pool_backward(inputs[0], grad_out, self.kernel,
                                      self.stride, self.pad, self.mode)], []

        monkeypatch.setattr(Conv2D, "forward", conv_forward)
        monkeypatch.setattr(Conv2D, "backward", conv_backward)
        monkeypatch.setattr(Pool2D, "forward", pool_forward)
        monkeypatch.setattr(Pool2D, "backward", pool_backward)
        reference = losses()

        assert len(shipped) == 10 and shipped[-1] != shipped[0]
        np.testing.assert_allclose(shipped, reference, rtol=1e-6)
