"""Heap-based GPU memory pool (paper §3.2.1).

The pool pre-allocates one big slab and serves requests from it, so the
per-request cost is a free-list walk instead of a device-synchronizing
cudaMalloc.  Structure follows the paper:

* the slab is divided into **1 KB blocks**, the basic storage unit;
* a **free list** of nodes (address, block count) ordered by address;
* an **allocated list** of nodes, indexed by an **id→node hash table**
  so deallocation is O(1) lookup;
* allocation is **first fit**: take the first free node with enough
  blocks, split off the remainder.

We additionally coalesce adjacent free nodes on deallocation.  The paper
does not spell this out, but without it any long-running training loop
fragments the slab and first-fit starts failing on requests that should
fit; coalescing preserves the paper's observable behaviour (the pool
never runs out before the device itself would).

**The address plan.**  A fixed topology issues the same requests in the
same order every iteration (paper §3), so between two
:meth:`HeapPool.begin_epoch` marks the pool's decisions repeat.  An
epoch that starts and ends at the same free list is kept as a record of
(request -> address, or exhaustion); while later epochs start at that
free list and issue the same requests, ``alloc``/``free`` are answered
from the record in O(1) without touching the free list.  The first
request that differs, or any question about the pool's structure,
rebuilds the free list and the allocated table by running the answered
prefix through the real first-fit and carries on live.  The record
stores first-fit's answers and never derives one, so first-fit remains
the only implementation of placement; nothing a caller can observe
(ids, addresses, sizes, errors, ``free_bytes``) depends on whether an
epoch was answered from the record.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

BLOCK = 1024  # 1 KB basic storage unit


class PoolExhaustedError(MemoryError):
    """No free node can satisfy the request (pool-level OOM)."""

    def __init__(self, requested_blocks: int, free_blocks: int):
        self.requested_blocks = requested_blocks
        self.free_blocks = free_blocks
        super().__init__(
            f"heap pool exhausted: need {requested_blocks} blocks, "
            f"{free_blocks} free (possibly fragmented)"
        )


class _Node:
    """One contiguous run of blocks (slots: one node is created per
    allocation, and attribute traffic dominates the free-list walk)."""

    __slots__ = ("node_id", "addr", "blocks")

    def __init__(self, node_id: int, addr: int, blocks: int) -> None:
        self.node_id = node_id
        self.addr = addr
        self.blocks = blocks

    @property
    def end(self) -> int:
        return self.addr + self.blocks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Node(id={self.node_id}, addr={self.addr}, blocks={self.blocks})"


#: the free list's sort key (``bisect``'s ``key=``: a C call, no frame)
_addr = attrgetter("addr")


#: One recorded pool call, ``(blocks, ordinal, answer)``:
#:
#: * a served ``alloc``: blocks requested, the ordinal of this allocation
#:   within its epoch (its node id is the epoch's first id + ordinal), the
#:   block address first-fit chose;
#: * an exhausted ``alloc``: blocks requested, ``-1``, ``-1``;
#: * a ``free``: ``0`` (no request is for zero blocks), the ordinal of
#:   the allocation released, its block count.
_Op = Tuple[int, int, int]

#: closes every plan: equal to no request, so an epoch that outruns its
#: record falls off it without a length test on the hot path
_END: _Op = (-1, -1, -1)


class _AddressPlan:
    """One epoch's pool calls, valid wherever the free list equals
    ``start`` (the epoch ended where it began, so it can repeat)."""

    __slots__ = ("start", "ops", "length", "allocs")

    def __init__(self, start: tuple, rec: List[int], allocs: int) -> None:
        self.start = start
        self.ops: List[_Op] = list(zip(rec[0::3], rec[1::3], rec[2::3]))
        self.length = len(self.ops)
        self.allocs = allocs      # node ids the epoch consumes
        self.ops.append(_END)


class HeapPool:
    """First-fit block allocator over a pre-reserved slab.

    Addresses returned by :meth:`addr_of` are *byte* offsets into the
    slab; they are stable for the lifetime of the allocation, which the
    tensor cache relies on to identify resident tensors.
    """

    def __init__(self, capacity_bytes: int):
        if capacity_bytes < BLOCK:
            raise ValueError(f"pool must be at least one block ({BLOCK} B)")
        self.capacity_bytes = capacity_bytes
        self.total_blocks = capacity_bytes // BLOCK
        first = _Node(0, 0, self.total_blocks)
        self._next_id = 1
        self._free: List[_Node] = [first]          # sorted by addr
        self._allocated: Dict[int, _Node] = {}     # id -> node (the hash table)
        self._free_blocks = self.total_blocks
        # the address plan (module docstring).  While ``_replay`` is set
        # the free list and the allocated table stay as the epoch found
        # them and only ``_free_blocks`` moves; ``_materialize`` brings
        # them up to date.
        self._plan: Optional[_AddressPlan] = None
        self._replay: Optional[List[_Op]] = None   # plan ops being answered
        self._pos = 0                              # next op of ``_replay``
        self._base = 0                             # the epoch's first node id
        # the live epoch's calls, three ints each (an ``_Op``, flat: a
        # record that is never replayed should leave the collector no
        # container per call to track)
        self._rec: Optional[List[int]] = None
        self._rec_start: tuple = ()                # free list it started at

    # -- epochs ---------------------------------------------------------------
    def begin_epoch(self) -> None:
        """Mark the start of a repeating unit of work (one iteration).

        Closes the previous epoch — its record becomes the plan if it
        ended at the free list it started from — and answers this one
        from the plan if it starts where the plan does.
        """
        plan = self._plan
        if self._replay is not None:
            if self._pos == plan.length:
                # answered to the end: the pool is where the plan starts
                self._base += plan.allocs
                self._pos = 0
                return
            self._materialize()  # a shorter epoch; may still start alike
        start = tuple((n.addr, n.blocks) for n in self._free)
        if self._rec is not None and self._rec_start == start:
            plan = self._plan = _AddressPlan(
                start, self._rec, self._next_id - self._base)
        self._base = self._next_id
        if plan is not None and plan.start == start:
            self._replay, self._pos, self._rec = plan.ops, 0, None
        else:
            self._rec, self._rec_start = [], start

    def signature(self) -> tuple:
        """The free list an epoch begun now starts at, as
        :meth:`begin_epoch` keys its address plan on it."""
        if self._replay is not None and self._pos == self._plan.length:
            return self._plan.start
        self._materialize()  # what begin_epoch would do first
        return tuple((n.addr, n.blocks) for n in self._free)

    @property
    def replaying(self) -> bool:
        """True while every call since :meth:`begin_epoch` has been
        answered from the address plan."""
        return self._replay is not None

    def _materialize(self) -> None:
        """Leave the plan: run the answered prefix through first-fit so
        the free list and the allocated table say what the answers
        said, and go on recording the epoch from there.  (Every
        structural question starts here; live, there is nothing to do.)"""
        if self._replay is None:
            return
        ops, done, base = self._replay, self._pos, self._base
        self._replay = None
        self._rec, self._rec_start = [], self._plan.start
        # the structures (and so the count and the next id they imply)
        # are as the epoch found them; the prefix re-runs from there
        self._next_id = base
        self._free_blocks = sum(n.blocks for n in self._free)
        for blocks, ordinal, answer in islice(ops, done):
            if not blocks:
                self.free(base + ordinal)
                continue
            try:
                addr = self._allocated[self.alloc(blocks * BLOCK)].addr
            except PoolExhaustedError:
                addr = -1
            if addr != answer:
                raise AssertionError(
                    f"address plan diverged from first-fit: {blocks} blocks "
                    f"recorded at {answer}, placed at {addr}")

    # -- allocation -----------------------------------------------------------
    @staticmethod
    def blocks_for(nbytes: int) -> int:
        """Blocks needed for an nbytes request (round up, min 1)."""
        return max(1, -(-nbytes // BLOCK))

    def alloc(self, nbytes: int) -> int:
        """Allocate; returns a node id (the handle used to free).

        First-fit: scan the address-ordered free list, split the first
        node large enough.
        """
        if nbytes < 0:
            raise ValueError(f"negative allocation {nbytes}")
        need = -(-nbytes // BLOCK) or 1  # blocks_for, without the frame
        if self._replay is not None:
            blocks, ordinal, _ = self._replay[self._pos]
            if blocks == need:
                self._pos += 1
                if ordinal < 0:
                    raise PoolExhaustedError(need, self._free_blocks)
                self._free_blocks -= need
                return self._base + ordinal
            self._materialize()
        free = self._free
        rec = self._rec
        for i, node in enumerate(free):
            if node.blocks >= need:
                node_id = self._next_id
                self._next_id = node_id + 1
                addr = node.addr
                alloc_node = _Node(node_id, addr, need)
                if node.blocks == need:
                    free.pop(i)
                else:
                    node.addr = addr + need
                    node.blocks -= need
                self._allocated[node_id] = alloc_node
                self._free_blocks -= need
                if rec is not None:
                    rec += (need, node_id - self._base, addr)
                return node_id
        if rec is not None:
            rec += (need, -1, -1)
        raise PoolExhaustedError(need, self._free_blocks)

    def addr_of(self, node_id: int) -> int:
        """Byte offset of an allocation within the slab."""
        self._materialize()
        return self._allocated[node_id].addr * BLOCK

    def size_of(self, node_id: int) -> int:
        """Byte size (block-rounded) of an allocation."""
        self._materialize()
        return self._allocated[node_id].blocks * BLOCK

    # -- deallocation ----------------------------------------------------------
    def free(self, node_id: int) -> None:
        """Return a node to the free list, coalescing neighbours."""
        if self._replay is not None:
            blocks, ordinal, count = self._replay[self._pos]
            if not blocks and node_id == self._base + ordinal:
                self._pos += 1
                self._free_blocks += count
                return
            self._materialize()
        node = self._allocated.pop(node_id, None)
        if node is None:
            raise KeyError(f"unknown or double-freed node id {node_id}")
        if self._rec is not None:
            if node_id < self._base:
                # an older epoch's node: this epoch cannot repeat
                self._rec = None
            else:
                self._rec += (0, node_id - self._base, node.blocks)
        self._free_blocks += node.blocks
        # Insert by address, then merge with left/right neighbours.
        free = self._free
        addr = node.addr
        lo = bisect_left(free, addr, key=_addr)
        free.insert(lo, node)
        # coalesce right
        if lo + 1 < len(free) and addr + node.blocks == free[lo + 1].addr:
            node.blocks += free[lo + 1].blocks
            free.pop(lo + 1)
        # coalesce left
        if lo > 0:
            left = free[lo - 1]
            if left.addr + left.blocks == addr:
                left.blocks += node.blocks
                free.pop(lo)

    # -- introspection ------------------------------------------------------------
    @property
    def free_bytes(self) -> int:
        return self._free_blocks * BLOCK

    @property
    def used_bytes(self) -> int:
        return (self.total_blocks - self._free_blocks) * BLOCK

    @property
    def largest_free_bytes(self) -> int:
        """Largest single allocation currently satisfiable."""
        self._materialize()
        if not self._free:
            return 0
        return max(n.blocks for n in self._free) * BLOCK

    @property
    def allocation_count(self) -> int:
        self._materialize()
        return len(self._allocated)

    @property
    def fragmentation(self) -> float:
        """1 - largest_free/total_free; 0 when free space is contiguous."""
        self._materialize()
        if self._free_blocks == 0:
            return 0.0
        largest = max((n.blocks for n in self._free), default=0)
        return 1.0 - largest / self._free_blocks

    def check_invariants(self) -> None:
        """Structural audit used by property tests."""
        self._materialize()
        runs = sorted(
            [(n.addr, n.blocks, "free") for n in self._free]
            + [(n.addr, n.blocks, "used") for n in self._allocated.values()]
        )
        cursor = 0
        for addr, blocks, _tag in runs:
            if addr < cursor:
                raise AssertionError(f"overlapping runs at block {addr}")
            cursor = addr + blocks
        if cursor > self.total_blocks:
            raise AssertionError("runs extend past the slab")
        if sum(n.blocks for n in self._free) != self._free_blocks:
            raise AssertionError("free-block count disagrees with the free list")
        covered = sum(b for _, b, _ in runs)
        if covered != self.total_blocks:
            raise AssertionError(
                f"leaked blocks: covered {covered} of {self.total_blocks}"
            )
        # adjacent free runs must have been coalesced
        prev_end = None
        for n in self._free:
            if prev_end is not None and n.addr == prev_end:
                raise AssertionError("uncoalesced adjacent free nodes")
            prev_end = n.end
