"""Forward-value correctness tests (the gradient checks cover backward;
these pin down the forward semantics against hand-computed results)."""

import zlib

import numpy as np
import pytest

from repro.layers import (
    BatchNorm,
    Concat,
    Conv2D,
    Dropout,
    FullyConnected,
    Join,
    LRN,
    Pool2D,
    ReLU,
    SoftmaxLoss,
)
from repro.layers import base
from repro.layers.base import LayerContext
from tests.test_layers_grad import _build

CTX = LayerContext(iteration=0, training=True)


class TestReLUValues:
    def test_zeroes_negatives_keeps_positives(self):
        l = _build(ReLU("r"), [(1, 1, 2, 2)])
        x = np.array([[[[-1.0, 2.0], [0.0, -3.0]]]], dtype=np.float32)
        y = l.forward([x], CTX)
        np.testing.assert_array_equal(
            y, np.array([[[[0.0, 2.0], [0.0, 0.0]]]], dtype=np.float32))


class TestPoolValues:
    def test_max_picks_window_max(self):
        l = _build(Pool2D("p", kernel=2, stride=2), [(1, 1, 4, 4)])
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        y = l.forward([x], CTX)
        np.testing.assert_array_equal(
            y.reshape(2, 2), np.array([[5, 7], [13, 15]], dtype=np.float32))

    def test_avg_is_window_mean(self):
        l = _build(Pool2D("p", kernel=2, stride=2, mode="avg"),
                   [(1, 1, 2, 2)])
        x = np.array([[[[1.0, 3.0], [5.0, 7.0]]]], dtype=np.float32)
        y = l.forward([x], CTX)
        assert y.item() == pytest.approx(4.0)

    def test_ceil_mode_partial_window(self):
        # 3x3 input, k=2 s=2 ceil -> 2x2 output; last window sees only
        # the bottom-right element
        l = _build(Pool2D("p", kernel=2, stride=2), [(1, 1, 3, 3)])
        x = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
        y = l.forward([x], CTX)
        assert y.shape == (1, 1, 2, 2)
        assert y[0, 0, 1, 1] == 8.0


class TestConvValues:
    def test_identity_kernel(self):
        l = _build(Conv2D("c", 1, kernel=1, bias=False), [(1, 1, 3, 3)])
        l.param_values[l.params[0].tensor_id] = np.ones((1, 1, 1, 1),
                                                        dtype=np.float32)
        x = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
        np.testing.assert_array_equal(l.forward([x], CTX), x)

    def test_box_filter(self):
        l = _build(Conv2D("c", 1, kernel=3, bias=False), [(1, 1, 3, 3)])
        l.param_values[l.params[0].tensor_id] = np.ones((1, 1, 3, 3),
                                                        dtype=np.float32)
        x = np.ones((1, 1, 3, 3), dtype=np.float32)
        assert l.forward([x], CTX).item() == pytest.approx(9.0)

    def test_bias_added_per_channel(self):
        l = _build(Conv2D("c", 2, kernel=1), [(1, 1, 2, 2)])
        l.param_values[l.params[0].tensor_id] = np.zeros((2, 1, 1, 1),
                                                         dtype=np.float32)
        l.param_values[l.params[1].tensor_id] = np.array(
            [1.0, -2.0], dtype=np.float32).reshape(2, 1, 1, 1)
        y = l.forward([np.zeros((1, 1, 2, 2), dtype=np.float32)], CTX)
        assert np.all(y[0, 0] == 1.0)
        assert np.all(y[0, 1] == -2.0)

    def test_stride_subsamples(self):
        l = _build(Conv2D("c", 1, kernel=1, stride=2, bias=False),
                   [(1, 1, 4, 4)])
        l.param_values[l.params[0].tensor_id] = np.ones((1, 1, 1, 1),
                                                        dtype=np.float32)
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        y = l.forward([x], CTX)
        np.testing.assert_array_equal(
            y.reshape(2, 2), np.array([[0, 2], [8, 10]], dtype=np.float32))


class TestFCValues:
    def test_matrix_product(self):
        l = _build(FullyConnected("f", 2, bias=False), [(1, 3, 1, 1)])
        w = np.array([[1, 0, 0], [0, 2, 0]], dtype=np.float32)
        l.param_values[l.params[0].tensor_id] = w.reshape(2, 3, 1, 1)
        x = np.array([3.0, 4.0, 5.0], dtype=np.float32).reshape(1, 3, 1, 1)
        y = l.forward([x], CTX)
        np.testing.assert_array_equal(y.reshape(2), [3.0, 8.0])


class TestNormValues:
    def test_bn_normalizes_batch(self):
        l = _build(BatchNorm("b"), [(8, 2, 4, 4)])
        rng = np.random.default_rng(0)
        x = (rng.standard_normal((8, 2, 4, 4)) * 5 + 3).astype(np.float32)
        y = l.forward([x], CTX)
        assert y.mean(axis=(0, 2, 3)) == pytest.approx([0.0, 0.0], abs=1e-5)
        assert y.var(axis=(0, 2, 3)) == pytest.approx([1.0, 1.0], rel=1e-3)

    def test_bn_eval_uses_running_stats(self):
        l = _build(BatchNorm("b"), [(4, 1, 2, 2)])
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 1, 2, 2)).astype(np.float32)
        y_train = l.forward([x], LayerContext(training=True))
        y_eval = l.forward([x], LayerContext(training=False))
        assert not np.allclose(y_train, y_eval)  # running stats still 0/1

    def test_lrn_shrinks_large_activations_more(self):
        l = _build(LRN("n", size=3, alpha=1.0, beta=0.75, k=1.0),
                   [(1, 3, 1, 1)])
        x = np.array([0.1, 10.0, 0.1], dtype=np.float32).reshape(1, 3, 1, 1)
        y = l.forward([x], CTX)
        # the big channel is normalized far below its raw value
        assert y[0, 1, 0, 0] < 1.0
        assert y[0, 1, 0, 0] > 0.0


class TestDropoutValues:
    def test_scaling_preserves_expectation(self):
        l = _build(Dropout("d", 0.5), [(1, 1, 64, 64)])
        x = np.ones((1, 1, 64, 64), dtype=np.float32)
        y = l.forward([x], LayerContext(iteration=3))
        kept = y[y > 0]
        assert kept[0] == pytest.approx(2.0)          # 1/keep_prob
        assert y.mean() == pytest.approx(1.0, abs=0.15)


class TestJoinConcatValues:
    def test_join_adds(self):
        l = _build(Join("j"), [(1, 1, 2, 2)] * 2)
        a = np.full((1, 1, 2, 2), 2.0, dtype=np.float32)
        b = np.full((1, 1, 2, 2), 3.0, dtype=np.float32)
        assert np.all(l.forward([a, b], CTX) == 5.0)

    def test_concat_channel_order(self):
        l = _build(Concat("c"), [(1, 1, 2, 2), (1, 2, 2, 2)])
        a = np.zeros((1, 1, 2, 2), dtype=np.float32)
        b = np.ones((1, 2, 2, 2), dtype=np.float32)
        y = l.forward([a, b], CTX)
        assert y.shape == (1, 3, 2, 2)
        assert np.all(y[0, 0] == 0.0) and np.all(y[0, 1:] == 1.0)


class TestSoftmaxValues:
    def test_shift_invariance(self):
        l = _build(SoftmaxLoss("s"), [(1, 4, 1, 1)])
        x = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32)
        y1 = l.forward([x.reshape(1, 4, 1, 1)], CTX)
        y2 = l.forward([(x + 100).reshape(1, 4, 1, 1)], CTX)
        np.testing.assert_allclose(y1, y2, rtol=1e-5)

    def test_no_labels_no_loss(self):
        from repro.layers.base import LayerContext
        l = _build(SoftmaxLoss("s"), [(1, 4, 1, 1)])
        ctx = LayerContext()
        l.forward([np.zeros((1, 4, 1, 1), dtype=np.float32)], ctx)
        assert ctx.last_loss is None

    def test_uniform_logits_loss_is_log_n(self):
        class FakeData:
            current_labels = np.array([0])

        from repro.layers.base import LayerContext
        l = _build(SoftmaxLoss("s"), [(1, 5, 1, 1)])
        l.set_label_source(FakeData())
        ctx = LayerContext()
        l.forward([np.zeros((1, 5, 1, 1), dtype=np.float32)], ctx)
        assert ctx.last_loss == pytest.approx(np.log(5), rel=1e-5)


class TestInitialWeights:
    """Conv and FC weights are seeded He-normal draws, a pure function of
    (seed, shape, fan-in): memoised, handed out read-only, bounded by
    bytes, and the bits the layer always drew."""

    @staticmethod
    def drawn(layer):
        # the draw as the layers made it before the memo
        w = layer._w
        fan_in = int(np.prod(w.shape[1:]))
        rng = np.random.default_rng(zlib.crc32(layer.name.encode()))
        return rng.normal(0.0, np.sqrt(2.0 / fan_in),
                          size=w.shape).astype(np.float32)

    @pytest.mark.parametrize("make,in_shape", [
        (lambda: Conv2D("c", 4, kernel=3, pad=1), (2, 3, 6, 6)),
        (lambda: FullyConnected("f", 5), (2, 3, 4, 4)),
    ], ids=["conv", "fc"])
    def test_every_build_shares_one_read_only_draw(self, make, in_shape):
        a, b = (_build(make(), [in_shape]) for _ in range(2))
        wa, wb = (l.param_values[l._w.tensor_id] for l in (a, b))
        assert wa is wb
        want = self.drawn(a)
        assert wa.dtype == want.dtype and np.array_equal(wa, want)
        with pytest.raises(ValueError, match="read-only"):
            wa += 1.0

    def test_the_memo_is_bounded_by_bytes(self, monkeypatch):
        monkeypatch.setattr(base, "DRAWS_LIMIT", 3 * 4096)
        monkeypatch.setattr(base, "_draws", type(base._draws)())
        draws = [base.he_normal(seed, (1024,), 8) for seed in range(4)]
        assert sum(w.nbytes for w in base._draws.values()) <= 3 * 4096
        assert base.he_normal(0, (1024,), 8) is not draws[0]  # drawn again
        assert np.array_equal(base.he_normal(0, (1024,), 8), draws[0])
        assert base.he_normal(3, (1024,), 8) is draws[3]
