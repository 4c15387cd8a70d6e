"""Unit tests for tensor descriptors and payload stores."""

import numpy as np
import pytest

from repro.tensors import (
    ArrayStore,
    NullStore,
    Placement,
    Tensor,
    TensorKind,
    conv2d_out_shape,
    nchw_nbytes,
    pool2d_out_shape,
)


class TestTensor:
    def test_nbytes_float32(self):
        t = Tensor((2, 3, 4, 5))
        assert t.numel == 120
        assert t.nbytes == 480

    def test_ids_unique(self):
        a, b = Tensor((1, 1, 1, 1)), Tensor((1, 1, 1, 1))
        assert a.tensor_id != b.tensor_id
        assert a != b
        assert a == a

    def test_descriptor_is_identity_only(self):
        """Scheduling state lives in SessionTensorState, not here: a
        descriptor shared by N sessions must be immutable identity."""
        t = Tensor((1, 2, 3, 4))
        for attr in ("placement", "locked", "host_resident", "gpu_addr"):
            assert not hasattr(t, attr)

    def test_session_state_defaults(self):
        from repro.core.tensor_state import SessionTensorState

        t = Tensor((1, 2, 3, 4))
        st = SessionTensorState()
        assert st.placement(t) is Placement.UNALLOCATED
        assert not st.on_gpu(t) and not st.is_live(t)

    def test_session_state_lock_unlock(self):
        from repro.core.tensor_state import SessionTensorState

        t = Tensor((1, 1, 1, 1))
        st = SessionTensorState()
        st.lock(t)
        assert st.locked(t)
        st.unlock(t)
        assert not st.locked(t)

    def test_states_are_independent_per_session(self):
        from repro.core.tensor_state import SessionTensorState

        t = Tensor((1, 1, 1, 1))
        a, b = SessionTensorState(), SessionTensorState()
        a.to_gpu(t)
        a.lock(t)
        assert b.placement(t) is Placement.UNALLOCATED
        assert not b.locked(t)

    def test_placement_state_machine_validation(self):
        from repro.core.tensor_state import (
            IllegalPlacementTransition,
            SessionTensorState,
        )

        t = Tensor((1, 1, 1, 1))
        st = SessionTensorState(validate=True)
        with pytest.raises(IllegalPlacementTransition):
            st.to_host(t)                        # UNALLOCATED -> HOST
        st.to_gpu(t)                             # UNALLOCATED -> GPU
        st.to_gpu(t)                             # same-state no-op ok
        st.to_host(t)                            # offload
        st.to_freed(t)                           # discard
        with pytest.raises(IllegalPlacementTransition):
            st.to_host(t)                        # FREED -> HOST
        assert st.placement(t) is Placement.FREED  # refused, not moved
        st.to_gpu(t)                             # recompute re-alloc

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Tensor(())
        with pytest.raises(ValueError):
            Tensor((0, 3, 2, 2))
        with pytest.raises(ValueError):
            Tensor((1, -2, 2, 2))

    def test_kind_default_data(self):
        assert Tensor((1, 1, 1, 1)).kind is TensorKind.DATA

    def test_hashable_in_sets(self):
        a, b = Tensor((1, 1, 1, 1)), Tensor((1, 1, 1, 1))
        s = {a, b, a}
        assert len(s) == 2


class TestArrayStore:
    def test_put_get_roundtrip(self):
        store = ArrayStore()
        t = Tensor((2, 2, 2, 2))
        v = np.arange(16, dtype=np.float32).reshape(2, 2, 2, 2)
        store.put(t, v)
        np.testing.assert_array_equal(store.get(t), v)

    def test_put_rejects_wrong_size(self):
        store = ArrayStore()
        t = Tensor((2, 2, 2, 2))
        with pytest.raises(ValueError):
            store.put(t, np.zeros(3, dtype=np.float32))

    def test_offload_hides_device_copy(self):
        store = ArrayStore()
        t = Tensor((1, 1, 2, 2))
        store.put(t, np.ones((1, 1, 2, 2), dtype=np.float32))
        store.move_to_host(t)
        assert store.get(t) is None
        with pytest.raises(KeyError):
            store.get_required(t)
        store.move_to_gpu(t)
        assert store.get(t) is not None

    def test_drop_removes_everywhere(self):
        store = ArrayStore()
        t = Tensor((1, 1, 1, 1))
        store.put(t, np.zeros((1, 1, 1, 1), dtype=np.float32))
        store.move_to_host(t)
        store.drop(t)
        assert store.host_count == 0 and store.device_count == 0

    def test_counts(self):
        store = ArrayStore()
        ts = [Tensor((1, 1, 1, 1)) for _ in range(3)]
        for t in ts:
            store.put(t, np.zeros((1, 1, 1, 1), dtype=np.float32))
        store.move_to_host(ts[0])
        assert store.device_count == 2
        assert store.host_count == 1


class TestNullStore:
    def test_all_noops(self):
        store = NullStore()
        t = Tensor((1, 1, 1, 1))
        store.put(t, np.zeros((1, 1, 1, 1), dtype=np.float32))
        assert store.get(t) is None
        assert not store.has(t)
        store.move_to_host(t)
        store.move_to_gpu(t)
        store.drop(t)
        assert store.device_count == 0

    def test_get_required_raises(self):
        with pytest.raises(RuntimeError):
            NullStore().get_required(Tensor((1, 1, 1, 1)))


class TestShapes:
    def test_conv_basic(self):
        assert conv2d_out_shape((2, 3, 8, 8), 16, 3, 1, 1) == (2, 16, 8, 8)
        assert conv2d_out_shape((1, 3, 227, 227), 96, 11, 4, 0) == (1, 96, 55, 55)

    def test_conv_rejects_too_big_kernel(self):
        with pytest.raises(ValueError):
            conv2d_out_shape((1, 3, 2, 2), 8, 5, 1, 0)

    def test_pool_ceil_mode(self):
        # AlexNet pool1: 55 -> ceil((55-3)/2)+1 = 27
        assert pool2d_out_shape((1, 96, 55, 55), 3, 2) == (1, 96, 27, 27)
        # ceil case: 7 -> ceil((7-3)/2)+1 = 3 floor too; 8 -> ceil(5/2)+1=4
        assert pool2d_out_shape((1, 1, 8, 8), 3, 2, ceil_mode=True)[2] == 4
        assert pool2d_out_shape((1, 1, 8, 8), 3, 2, ceil_mode=False)[2] == 3

    def test_nchw_nbytes(self):
        assert nchw_nbytes((2, 3, 4, 5)) == 480
