"""Batch-tier worker-kill injection driven by a seeded fault schedule.

The batch scheduler's :class:`~repro.batch.scheduler.FailureInjector`
enumerates faults explicitly (exact partitions to kill).
:func:`scheduled_worker_kills` resolves a
:class:`~repro.chaos.schedule.FaultSchedule`'s rules on the
``"batch.worker_kill"`` point, keyed by partition index, into that kill
set::

    injector = FailureInjector(
        worker_kills=scheduled_worker_kills(schedule, partitions=8)
    )
    ctx = BatchContext(..., injector=injector)

Keyed draws matter here: fork workers consult the injector in a child
process, after ``os.fork``, so nothing mutable can be shared back. A
decision that is a pure function of ``(seed, rule_index, partition)``
answers identically in the child and in the driver, which is what keeps
the driver's :meth:`consume_worker_kill` bookkeeping consistent with the
kill the child actually performed.
"""

from __future__ import annotations

from repro.chaos.schedule import FaultSchedule

WORKER_KILL_POINT = "batch.worker_kill"


def scheduled_worker_kills(schedule: FaultSchedule, partitions: int) -> set:
    """The partition indices a schedule kills, resolved eagerly.

    Evaluates every ``batch.worker_kill`` rule against each partition in
    ``range(partitions)`` with the partition index as the decision key.
    Rule fault budgets (``max_faults``) are honoured in partition order;
    time windows are ignored (batch kills are placement decisions, not
    wall-clock events).
    """
    kills: set = set()
    for rule_index, rule in schedule.rules_for(WORKER_KILL_POINT):
        budget = rule.max_faults if rule.max_faults is not None else partitions
        fired = 0
        for partition in range(partitions):
            if fired >= budget:
                break
            uniform, _ = schedule.draw(rule_index, partition)
            if uniform < rule.probability:
                kills.add(partition)
                fired += 1
    return kills
