"""Deterministic, seeded fault injection for the whole stack.

Declare faults as data (:class:`FaultSchedule` of :class:`FaultRule`),
activate them with :func:`install`/:func:`installed`, and replay the
exact same failure sequence from the same seed. Injection points are
compiled into the wire codec, the event-loop front end, replication,
the serving engine, and the batch tier; see
:data:`~repro.chaos.schedule.KNOWN_POINTS` for the catalogue.
"""

from repro.chaos.batch import scheduled_worker_kills
from repro.chaos.injector import (
    ChaosInjector,
    active,
    fire,
    garble,
    install,
    installed,
    latency,
    should,
    uninstall,
)
from repro.chaos.schedule import (
    KNOWN_POINTS,
    FaultEvent,
    FaultRule,
    FaultSchedule,
)

__all__ = [
    "KNOWN_POINTS",
    "ChaosInjector",
    "FaultEvent",
    "FaultRule",
    "FaultSchedule",
    "active",
    "fire",
    "garble",
    "install",
    "installed",
    "latency",
    "scheduled_worker_kills",
    "should",
    "uninstall",
]
