"""The unhappy-path harness: what must hold after a front door is done.

Fault tests drive a server or fleet through rejections, bad calls and
shutdown, then ask one question — is everything accounted for and at
rest?  :func:`assert_quiescent` is that question, asked the same way for
an :class:`~repro.serve.server.InferenceServer` and a
:class:`~repro.serve.fleet.ServingFleet`.
"""

from __future__ import annotations

from repro.obs.export import build_chrome_trace, validate_trace


def lanes(front) -> list:
    """The servers behind ``front`` (a fleet's lanes, or the server)."""
    return list(front.servers.values()) if hasattr(front, "servers") \
        else [front]


def assert_quiescent(front, futures, tracer=None) -> None:
    """After ``front.stop()``: every offered request resolved exactly one
    way, every future is done and no worker thread is alive.

    ``futures`` are the futures of every admitted request.  A shed
    request was offered but never admitted, so ``completed + failed +
    shed == offered`` says every admission (the queues' own count, one
    future each) resolved completed or failed.  With ``tracer`` (armed
    for the whole run) the exported trace must also validate: one
    closed root per offered request, partitioned by status exactly as
    ``front.metrics.counts()`` says.
    """
    completed, failed, shed = front.metrics.counts()
    admitted = sum(server.queue.submitted for server in lanes(front))
    assert completed + failed == admitted == len(futures), (
        f"completed={completed} + failed={failed} (shed={shed}) vs "
        f"{admitted} admitted and {len(futures)} futures")
    pending = [i for i, f in enumerate(futures) if not f.done()]
    assert pending == [], f"unresolved futures: {pending}"
    alive = [t.name for server in lanes(front)
             for t in server._threads if t.is_alive()]
    assert alive == [], f"workers alive after stop(): {alive}"
    if tracer is not None:
        doc = build_chrome_trace(
            tracer, timelines=front.session_timelines(),
            counts={"completed": completed, "failed": failed,
                    "shed": shed})
        assert validate_trace(doc) == []
