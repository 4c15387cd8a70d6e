"""The retired coalescing strategies, kept as test references.

The serving batcher once chose among three registered coalescers:
``fifo`` (whole requests in arrival order), ``greedy-fill`` (arrival
order, exact-fill packing) and ``deadline`` (priority class, deadline,
enqueue time and id order, then the same packing).  One rule replaced
them: :func:`repro.serve.batcher.coalesce` orders a round the way
``deadline`` did and packs it the way both exact-fill strategies did.
These are the two exact-fill strategies' plan bodies, moved here
unchanged but for the registry scaffold; ``test_serving.py`` holds the
one rule to them.
"""

from typing import Dict, List

from repro.serve.batcher import BatchSlice
from repro.serve.queue import PRIORITY_RANK, InferenceRequest


def pack_split_fill(pending: List[InferenceRequest], capacity: int
                    ) -> List[List[BatchSlice]]:
    """Pack ``pending`` in the given order, splitting requests freely
    across batch boundaries so every batch except the last is filled
    exactly (the ``greedy-fill`` plan)."""
    batches: List[List[BatchSlice]] = []
    current: List[BatchSlice] = []
    used = 0
    parts: Dict[int, int] = {}
    for req in pending:
        start = 0
        while start < req.size:
            take = min(req.size - start, capacity - used)
            part = parts.get(req.request_id, 0)
            current.append(
                BatchSlice(req, start, start + take, used, part))
            parts[req.request_id] = part + 1
            start += take
            used += take
            if used == capacity:
                batches.append(current)
                current, used = [], 0
    if current:
        batches.append(current)
    return batches


def deadline_plan(pending: List[InferenceRequest], capacity: int
                  ) -> List[List[BatchSlice]]:
    """The ``deadline`` plan: sort the round by (priority class,
    deadline, enqueue time, id), dateless last within a class, then
    pack it exactly."""
    normal = PRIORITY_RANK["normal"]
    ordered = sorted(pending, key=lambda r: (
        PRIORITY_RANK.get(r.priority, normal),
        r.deadline if r.deadline is not None else float("inf"),
        r.enqueue_time,
        r.request_id,
    ))
    return pack_split_fill(ordered, capacity)
