"""Unit tests for the LRU tensor cache (paper Alg. 2)."""

import pytest

from repro.core.cache import TensorCache
from repro.core.tensor_state import SessionTensorState
from repro.tensors.tensor import Tensor, TensorKind


def _t(kb: int, name: str = "") -> Tensor:
    return Tensor((1, 1, 1, 256 * kb), name=name)  # kb KiB tensors


def _locked_cache() -> "tuple[TensorCache, SessionTensorState]":
    """A cache bound to a session state (the lock-bit source)."""
    state = SessionTensorState()
    return TensorCache(state=state), state


class TestLRUOrder:
    def test_insert_puts_at_mru(self):
        c = TensorCache()
        a, b = _t(1, "a"), _t(1, "b")
        c.insert(a)
        c.insert(b)
        assert [t.name for t in c.lru_order()] == ["b", "a"]

    def test_touch_moves_to_front(self):
        c = TensorCache()
        a, b, d = _t(1, "a"), _t(1, "b"), _t(1, "d")
        for t in (a, b, d):
            c.insert(t)
        assert c.touch(a)
        assert [t.name for t in c.lru_order()] == ["a", "d", "b"]

    def test_touch_miss_counts(self):
        c = TensorCache()
        t = _t(1)
        assert not c.touch(t)
        assert c.misses == 1
        c.insert(t)
        assert c.touch(t)
        assert c.hits == 1

    def test_remove_is_idempotent(self):
        c = TensorCache()
        t = _t(1)
        c.insert(t)
        c.remove(t)
        c.remove(t)
        assert t not in c
        assert len(c) == 0


class TestEviction:
    def test_evicts_lru_first(self):
        c, _ = _locked_cache()
        a, b, d = _t(4, "a"), _t(4, "b"), _t(4, "d")
        for t in (a, b, d):
            c.insert(t)
        evicted = []

        def cb(t):
            evicted.append(t.name)
            return t.nbytes

        freed = c.evict_for(4 * 1024, cb)
        assert evicted == ["a"]          # oldest goes first
        assert freed == a.nbytes

    def test_evicts_until_enough(self):
        c, _ = _locked_cache()
        ts = [_t(4, f"t{i}") for i in range(4)]
        for t in ts:
            c.insert(t)
        freed = c.evict_for(10 * 1024, lambda t: t.nbytes)
        assert freed >= 10 * 1024
        assert len(c) == 1  # three evicted (4K each)

    def test_locked_tensors_survive(self):
        c, state = _locked_cache()
        a, b = _t(4, "a"), _t(4, "b")
        c.insert(a)
        c.insert(b)
        state.lock(a)
        evicted = []
        c.evict_for(4 * 1024, lambda t: evicted.append(t.name) or t.nbytes)
        assert evicted == ["b"]
        assert a in c

    def test_all_locked_frees_nothing(self):
        c, state = _locked_cache()
        ts = [_t(2, f"t{i}") for i in range(3)]
        for t in ts:
            c.insert(t)
            state.lock(t)
        assert c.evict_for(1024, lambda t: t.nbytes) == 0
        assert len(c) == 3

    def test_lock_bits_are_per_session(self):
        """Two sessions' caches over the SAME descriptors must not see
        each other's locks — the pre-refactor shared ``t.locked`` bit
        made this impossible."""
        a, b = _t(4, "a"), _t(4, "b")
        c1, s1 = _locked_cache()
        c2, s2 = _locked_cache()
        for c in (c1, c2):
            c.insert(a)
            c.insert(b)
        s1.lock(a)  # session 1 pins a; session 2 did not
        ev1, ev2 = [], []
        c1.evict_for(8 * 1024, lambda t: ev1.append(t.name) or t.nbytes)
        c2.evict_for(8 * 1024, lambda t: ev2.append(t.name) or t.nbytes)
        assert ev1 == ["b"]          # a survives only where it is locked
        assert ev2 == ["a", "b"]

    def test_unbound_cache_refuses_to_evict(self):
        """Without a SessionTensorState the lock check cannot run —
        eviction must fail loud, never treat pinned tensors as free."""
        c = TensorCache()
        c.insert(_t(4, "a"))
        with pytest.raises(RuntimeError, match="SessionTensorState"):
            c.evict_for(1, lambda t: t.nbytes)

    def test_eviction_counter(self):
        c, _ = _locked_cache()
        for i in range(3):
            c.insert(_t(2, f"t{i}"))
        c.evict_for(6 * 1024, lambda t: t.nbytes)
        assert c.evictions == 3

    def test_pressure_event_walks_the_tail_not_the_map(self):
        """An event asks the lock bits about the victims it takes and
        the locked entries it steps over — never about the whole map
        (a 2,400-eviction ResNet iteration paid 1.18 M lock checks for
        1,209 events when it did) — and the victims are the ones an
        eager scan of the map picks, in the same order."""
        class Counting(SessionTensorState):
            calls = 0

            def locked(self, t):
                Counting.calls += 1
                return super().locked(t)

        state = Counting()
        c = TensorCache(state=state)
        ts = [_t(1, f"t{i}") for i in range(200)]
        for t in ts:
            c.insert(t)                  # t0 is the LRU tail
        pinned = [ts[0], ts[2], ts[3], ts[150]]
        for t in pinned:
            state.lock(t)
        expect = [t.name for t in ts if t not in pinned]
        evicted = []
        for want in (1, 3, 2):           # victims per event
            before = len(evicted)
            Counting.calls = 0

            def offload(t):
                evicted.append(t.name)
                c.remove(ts[100])        # the callback mutates the map
                return t.nbytes

            assert c.evict_for(want * 1024, offload) == want * 1024
            assert evicted[before:] == expect[before:before + want]
            assert Counting.calls <= want + len(pinned) + 1
        assert all(t in c for t in pinned)


class TestBackwardFriendlyOrder:
    def test_backward_pattern_hits(self):
        """The paper's rationale: backward wants the most recently
        produced tensors first, which LRU keeps at the front."""
        c = TensorCache()
        produced = [_t(1, f"l{i}") for i in range(10)]
        for t in produced:
            c.insert(t)
        # backward touches in reverse production order: all hits, and
        # eviction pressure would always hit the oldest (least useful)
        for t in reversed(produced):
            assert c.touch(t)
        assert c.hits == 10
