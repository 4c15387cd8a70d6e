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

The executor's residency table replays a steady iteration's allocations
from its own record (``core/plan.py::ResidencyTable``), so a table
iteration never calls the pool: first-fit is the pool's one path.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Dict, List

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

    def signature(self) -> tuple:
        """The free list, as ``(address, blocks)`` runs: two pools
        with one signature place the same calls at the same addresses,
        and fail the same ones."""
        return tuple((n.addr, n.blocks) for n in self._free)

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
        free = self._free
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
                return node_id
        raise PoolExhaustedError(need, self._free_blocks)

    def addr_of(self, node_id: int) -> int:
        """Byte offset of an allocation within the slab."""
        return self._allocated[node_id].addr * BLOCK

    def size_of(self, node_id: int) -> int:
        """Byte size (block-rounded) of an allocation."""
        return self._allocated[node_id].blocks * BLOCK

    # -- deallocation ----------------------------------------------------------
    def free(self, node_id: int) -> None:
        """Return a node to the free list, coalescing neighbours."""
        node = self._allocated.pop(node_id, None)
        if node is None:
            raise KeyError(f"unknown or double-freed node id {node_id}")
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
        if not self._free:
            return 0
        return max(n.blocks for n in self._free) * BLOCK

    @property
    def allocation_count(self) -> int:
        return len(self._allocated)

    @property
    def fragmentation(self) -> float:
        """1 - largest_free/total_free; 0 when free space is contiguous."""
        if self._free_blocks == 0:
            return 0.0
        largest = max((n.blocks for n in self._free), default=0)
        return 1.0 - largest / self._free_blocks

    def check_invariants(self) -> None:
        """Structural audit used by property tests."""
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
