"""Suite-wide fixtures and environment.

Arming ``REPRO_VALIDATE_STATE`` here means every ``SessionTensorState``
the suite constructs — not just the property tests that opt in — runs
the placement state machine, so an illegal transition anywhere in the
ablation ladder fails the suite loudly as
:class:`~repro.core.tensor_state.IllegalPlacementTransition` instead of
corrupting state silently.  ``setdefault`` keeps an explicit caller
override (``REPRO_VALIDATE_STATE=0 pytest ...``) working, and tests
that pass ``validate=`` explicitly are unaffected: the env default only
applies to ``validate=None``.
"""

import os

os.environ.setdefault("REPRO_VALIDATE_STATE", "1")

from dataclasses import replace  # noqa: E402

from repro.core.engine import Engine  # noqa: E402  (after the env default)
from repro.core.policy import resolve_policies  # noqa: E402
from repro.core.runtime import Executor  # noqa: E402


def hand_stacked_executor(net, config, stack, mode="train"):
    """An executor over a policy stack in an order no config resolves
    to — a custom policy *ahead of* the built-ins, two caches with
    different eviction orders on one net, a stack that contradicts the
    config's flags.  ``Session.with_policy(instance)`` covers the
    append-at-the-end case; this is the only other way in, and it plans
    nothing itself: route, segments and liveness come from an
    :class:`Engine`, exactly as ``Engine.executor`` takes them.  The
    suite constructs an executor nowhere else than in this module.
    """
    engine = Engine(net, config)
    return Executor(engine.net, engine.config.for_mode(mode), stack,
                    engine.planning(mode))


def compiled_executor(engine, mode="train", **overrides):
    """A lane of ``engine``'s compiled ``mode`` (its scout's record, no
    scout of its own) over the config with ``overrides`` the record does
    not depend on, such as ``steady_state_replay=False``."""
    config = replace(engine.config.for_mode(mode), **overrides)
    return Executor(engine.net, config, resolve_policies(config),
                    engine.compiled(mode))
