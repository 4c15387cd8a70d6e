"""LRU Tensor Cache (paper §3.3.2, Algorithm 2).

Keeps data tensors resident on the GPU while room remains, so that
offload traffic only happens under genuine memory pressure.  The
back-propagation's head-to-tail / tail-to-head pattern makes the most
recently produced tensors the first ones the backward pass wants —
which is exactly the access pattern LRU serves best (the paper's
justification for the policy choice).

Operations mirror Alg. 2:

* ``insert`` = ``LRU.in``  — place an (unlocked) tensor at the MRU front;
* ``evict_for`` = ``LRU.out`` — offload least-recently-used *unlocked*
  tensors until enough bytes are freed;
* ``touch`` = the hit path of ``Check`` — move to the MRU front;
* ``due_clean`` — recorded victims: the lines ``LRU.out`` took in the
  last completed iteration, in eviction order.  Pressure repeats from
  one iteration to the next, so a derived op
  (``core/plan.py::_make_recorded_clean_op``) starts each one's D2H copy
  as soon as its producer has run, long before pressure reaches it;
* ``drops`` — dropped victims: the recorded conv outputs whose rebuild
  costs less than the copies they would expose, chosen once from the
  first record (:func:`choose_drops`).  ``LRU.out`` still takes them,
  but they are discarded with no copy either way, their chain sources
  fall due on the return trip at ``sources_due``, and recomputation
  rebuilds them when backward asks;
* ``outcome`` / ``seed`` — all three, once chosen, handed to a fresh
  cache with the modelled costs the drop set was chosen on (the
  engine's scout chooses them once per compiled mode);
* ``settled`` — the last completed iteration evicted the victims it
  was predicted to, under a drop set chosen before it: a fixed point,
  from which the executor records a residency table.

Movement itself (the D2H copy + allocator free) is the executor's job;
the cache only decides *which* tensors go, through the callbacks.

The paper notes "there are other sophisticated cache replacement
policies [that] might better fit the scenario" and leaves them out of
scope; we implement two alternatives (FIFO and LFU) behind the same
interface so the ablation bench can quantify the choice.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from itertools import accumulate, islice
from typing import (Callable, Deque, Dict, FrozenSet, Iterator, List,
                    Mapping, NamedTuple, Optional, Sequence, Set, Tuple)

from repro.tensors.tensor import Tensor


class TensorCache:
    """Ordered map of GPU-resident data tensors; front = MRU.

    ``policy`` selects the victim order:

    * ``"lru"``  — least recently used first (the paper's choice);
    * ``"fifo"`` — insertion order, ignoring touches;
    * ``"lfu"``  — least frequently used first (touch counts).
    """

    def __init__(self, policy: str = "lru", state=None) -> None:
        if policy not in ("lru", "fifo", "lfu"):
            raise ValueError(f"unknown cache policy {policy!r}")
        self.policy = policy
        #: tensor id -> line, MRU first; cleared in place, never rebound
        #: (an offload policy moves its lines itself under "lru")
        self.lines: "OrderedDict[int, Tensor]" = OrderedDict()
        # touch counts and arrival ticks: only "fifo" and "lfu" read them
        self._counting = policy != "lru"
        self._freq: Dict[int, int] = {}
        self._arrival: Dict[int, int] = {}
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: of those, dropped victims discarded with no copy
        self.dropped = 0
        #: this iteration's victims so far, in eviction order, each with
        #: the step that evicted it
        self._record: List[Tuple[Tensor, int]] = []
        #: the last completed iteration's victims
        self._predicted: Tuple[Tuple[Tensor, int], ...] = ()
        #: the predicted victims not yet handed to the recorded-clean op
        #: this iteration, head first (one deque per cache: the op binds
        #: it at link)
        self.due_clean: Deque[Tensor] = deque()
        #: id of each victim discarded instead of evicted -> its last
        #: forward reader (before that it is evicted as usual); fixed
        #: once chosen (:func:`choose_drops`)
        self.drops: Mapping[int, int] = {}
        #: chain source id -> the backward step it is due back by: the
        #: first backward reader of a dropped victim it rebuilds (the
        #: return trip binds this dict at link)
        self.sources_due: Dict[int, int] = {}
        #: id of each dropped victim -> the modelled seconds the choice
        #: weighed: its rebuild's and its copies' exposed time
        self.drop_costs: Mapping[int, Tuple[float, float]] = {}
        #: until the drop set is chosen, what the return trip saw in the
        #: last iteration it brought lines back: the step each line was
        #: due to go out at, and the steps it was refused room at
        self.choosing = True
        self.trip_planned: Dict[int, int] = {}
        self.trip_refused: Set[int] = set()
        #: the last completed iteration left the victims, the drop set
        #: and ``sources_due`` as it found them: a fixed point, from
        #: which the next iteration makes the same moves
        self.settled = False
        # lock bits are session state, not descriptor state: the victim
        # filter consults the owning session's SessionTensorState
        self._state = state

    def bind_state(self, state) -> None:
        """Attach the session's tensor-state table (lock-bit source)."""
        self._state = state

    # -- membership ------------------------------------------------------
    def insert(self, t: Tensor) -> None:
        """LRU.in: register a tensor that just landed on the GPU."""
        tid = t.tensor_id
        self.lines[tid] = t
        self.lines.move_to_end(tid, last=False)
        if self._counting:
            self._freq.setdefault(tid, 0)
            self._tick += 1
            self._arrival.setdefault(tid, self._tick)

    def touch(self, t: Tensor) -> bool:
        """Check-hit: move to MRU.  Returns True when present."""
        tid = t.tensor_id
        if tid in self.lines:
            self.lines.move_to_end(tid, last=False)
            if self._counting:
                self._freq[tid] = self._freq.get(tid, 0) + 1
            self.hits += 1
            return True
        self.misses += 1
        return False

    def remove(self, t: Tensor) -> None:
        self.lines.pop(t.tensor_id, None)
        if self._counting:
            self._freq.pop(t.tensor_id, None)
            self._arrival.pop(t.tensor_id, None)

    def __contains__(self, t: Tensor) -> bool:
        return t.tensor_id in self.lines

    def __len__(self) -> int:
        return len(self.lines)

    # -- eviction --------------------------------------------------------
    def evict_for(
        self,
        nbytes: int,
        offload_cb: Callable[[Tensor], int],
        step: int = -1,
    ) -> int:
        """LRU.out: offload unlocked LRU tensors until >= nbytes freed.

        ``offload_cb`` performs the actual movement and returns the GPU
        bytes it released.  Returns total bytes freed (may fall short if
        everything left is locked — caller decides whether that is OOM).
        ``step`` is the route step under pressure, kept in the record.
        """
        if self._state is None:
            # Alg. 2's lock check is load-bearing: evicting a tensor a
            # kernel has pinned corrupts the run.  An unbound cache
            # cannot consult the lock bits, so fail loud here rather
            # than silently treating everything as evictable.
            raise RuntimeError(
                "TensorCache has no SessionTensorState bound; pass "
                "state= at construction or call bind_state() before "
                "evict_for()")
        freed = 0
        for t in self._victims():
            if freed >= nbytes:
                break
            self.remove(t)
            freed += offload_cb(t)
            self.evictions += 1
            self._record.append((t, step))
        return freed

    def begin_iteration(self) -> None:
        """The last completed iteration's victims fall due, in eviction
        order, except the dropped ones: they are never copied.  What an
        aborted iteration recorded is dropped: a half record would
        predict a different iteration.  So is any line it left cached:
        a completed iteration's barrier discards every line, but one
        whose removal a raising hook skipped would outlive it."""
        self.lines.clear()
        self._freq.clear()
        self._arrival.clear()
        self._record.clear()
        self.due_clean.clear()
        drops = self.drops
        self.due_clean.extend(t for t, _ in self._predicted
                              if t.tensor_id not in drops)

    @property
    def predicted(self) -> Tuple[Tuple[Tensor, int], ...]:
        """The last completed iteration's victims, in eviction order,
        each with the step that evicted it."""
        return self._predicted

    def end_iteration(self) -> None:
        """The iteration completed: its victims are the next one's
        prediction.  It left the cache :attr:`settled` if the drop set
        was chosen before it began and it evicted the lines it was
        predicted to."""
        record = tuple(self._record)
        self.settled = not self.choosing and record == self._predicted
        self._predicted = record
        self._record.clear()

    def drop(self, drops: Mapping[int, int],
             sources_due: Mapping[int, int],
             costs: Optional[Mapping[int, Tuple[float, float]]] = None
             ) -> None:
        """Fix the drop set, its sources' return-trip deadlines and the
        costs it was chosen on (once per session: the ops bind
        ``sources_due``, so it is filled in place)."""
        self.drops = dict(drops)
        self.sources_due.update(sources_due)
        self.drop_costs = dict(costs or {})
        self.choosing = False
        self.trip_planned, self.trip_refused = {}, set()

    def outcome(self) -> Optional["CacheSeed"]:
        """The victims, drop set and deadlines, for a fresh cache to
        :meth:`seed` from (None while the drop set is not chosen)."""
        return None if self.choosing else CacheSeed(
            self._predicted, self.drops, dict(self.sources_due),
            self.drop_costs)

    def seed(self, seed: "CacheSeed") -> None:
        """Start from another cache's :meth:`outcome` (:meth:`drop`
        copies: the ops fill ``sources_due`` in place)."""
        self._predicted = seed.predicted
        self.drop(seed.drops, seed.sources_due, seed.drop_costs)

    def _victims(self) -> Iterator[Tensor]:
        """Unlocked entries, first out first, found lazily.

        The caller removes each victim before asking for the next, and
        its offload mutates the map in between, so the LRU tail is
        re-entered per victim — past the locked entries already seen
        (lock bits hold still during a pressure event).  An event then
        costs O(victims + locked tail) lock checks, not O(entries):
        the locked tensors are the running step's, at the MRU end.
        """
        locked = self._state.locked
        if self.policy != "lru":  # ablation only: a sorted snapshot
            yield from [t for t in self._sorted_order() if not locked(t)]
            return
        skip = 0
        while True:
            for t in islice(reversed(self.lines.values()), skip, None):
                if not locked(t):
                    break
                skip += 1
            else:
                return
            yield t

    def _sorted_order(self) -> List[Tensor]:
        """Eviction order (first = first out) under ``fifo``/``lfu``."""
        if self.policy == "fifo":
            order = sorted(self.lines, key=lambda tid: self._arrival[tid])
            return [self.lines[tid] for tid in order]
        # lfu: fewest touches first; arrival breaks ties (older first)
        order = sorted(
            self.lines,
            key=lambda tid: (self._freq.get(tid, 0), self._arrival[tid]),
        )
        return [self.lines[tid] for tid in order]

    def lru_order(self) -> List[Tensor]:
        """MRU-first snapshot (for tests)."""
        return list(self.lines.values())


class CacheSeed(NamedTuple):
    """:meth:`TensorCache.outcome`: the victims in eviction order, the
    drop set, its chain sources' return-trip deadlines and the costs it
    was chosen on."""

    predicted: Tuple[Tuple[Tensor, int], ...]
    drops: Mapping[int, int]
    sources_due: Mapping[int, int]
    drop_costs: Mapping[int, Tuple[float, float]]


# --------------------------------------------------------------------------- #
# drop or evict: the per-victim choice
# --------------------------------------------------------------------------- #

class Victim(NamedTuple):
    """One recorded eviction, as :func:`choose_drops` models it: route
    steps, and copy times in seconds."""

    tensor_id: int
    evicted_at: int
    produced_at: int
    d2h: float
    #: its H2D copy where that is exposed — the return trip was refused
    #: room while it was due back, or never carried it — else 0
    h2d: float
    #: the first backward step that reads it (recompute chains
    #: included), or None if backward never does
    first_use: Optional[int]


def d2h_waits(victims: Sequence[Victim], kept: Set[int],
              starts: Sequence[float]) -> List[float]:
    """Modelled compute stall on each victim's D2H copy in an iteration
    with a record, by position (0 for one not in ``kept``).

    ``starts[i]`` is step ``i``'s kernel start if nothing stalls.  The
    recorded-clean op starts a kept victim's copy when its producer — and
    every earlier kept victim's — has run; the stream is FIFO; an
    eviction waits for what is left of its line's copy, and the wait
    delays every later step.  A victim evicted again is a clean line the
    second time and copies nothing.
    """
    stall = shift = 0.0
    out, ready, j = 0.0, -1, 0
    waits: List[Tuple[int, float]] = []      # (step, seconds)
    at = [0.0] * len(victims)
    seen: Set[int] = set()
    for n, v in enumerate(victims):
        if v.tensor_id not in kept or v.tensor_id in seen:
            continue
        seen.add(v.tensor_id)
        if v.produced_at > ready:
            ready = v.produced_at
            while j < len(waits) and waits[j][0] <= ready:
                shift += waits[j][1]
                j += 1
        out = max(out, starts[ready + 1] + shift) + v.d2h
        wait = out - starts[v.evicted_at] - stall
        if wait > 0:
            stall += wait
            waits.append((v.evicted_at, wait))
            at[n] = wait
    return at


def choose_drops(victims: Sequence[Victim], starts: Sequence[float],
                 rebuild: Mapping[int, Tuple[float, FrozenSet[int]]]
                 ) -> Tuple[Dict[int, Tuple[float, float]], Dict[int, int]]:
    """Which recorded victims to drop instead of evict.

    ``rebuild`` names the candidates: tensor id -> (seconds to rebuild
    it, ids of its chain sources).  A candidate's exposed copy time is
    what its D2H copy adds to the stall :func:`d2h_waits` models plus
    its exposed H2D copy; it is dropped when its rebuild costs less.
    Candidates go most profitable first, and each one's D2H share is
    taken again against the victims still kept.  A candidate that is a
    chain source of a dropped victim, or whose chain sources include
    one, is refused: a rebuild never waits on another.  Returns each
    dropped victim's (rebuild, exposed copy) seconds as weighed, keyed
    by the drop set, and each chain source's deadline — the earliest
    first backward reader among the dropped victims it rebuilds.
    """
    first = {}
    for n, v in enumerate(victims):
        first.setdefault(v.tensor_id, n)
    kept = set(first)
    drops: Dict[int, Tuple[float, float]] = {}
    sourcing: Set[int] = set()   # chain sources of the dropped
    due: Dict[int, int] = {}

    def model() -> Tuple[float, List[float]]:
        """The stall, and the stall from each position on: no later
        wait means removing a copy there saves nothing."""
        waits = d2h_waits(victims, kept, starts)
        return sum(waits), list(accumulate(reversed(waits)))[::-1]

    def exposed(v: Victim) -> float:
        if not tail[first[v.tensor_id]]:
            return v.h2d
        return base - sum(d2h_waits(victims, kept - {v.tensor_id}, starts)) \
            + v.h2d

    base, tail = model()
    order = sorted((victims[n] for n in first.values()
                    if victims[n].tensor_id in rebuild),
                   key=lambda v: rebuild[v.tensor_id][0] - exposed(v))
    for v in order:
        tid = v.tensor_id
        seconds, sources = rebuild[tid]
        if not sources.isdisjoint(drops) or tid in sourcing:
            continue
        copies = exposed(v)
        if seconds >= copies:
            continue
        drops[tid] = seconds, copies
        sourcing |= sources
        kept.discard(tid)
        base, tail = model()
        if v.first_use is not None:
            for s in sources:
                due[s] = min(due.get(s, v.first_use), v.first_use)
    return drops, due
