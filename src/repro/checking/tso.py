"""Fast total-store-ordering checker (paper Section 3.2).

TSO in the paper's framework: views contain own operations plus all remote
writes (``δ_p = w``); all views order *all* writes identically (mutual
consistency); the partial program order ``->ppo`` is respected.

The fast path exploits a structural fact: once the shared write order is
fixed, the views decouple and each processor's reads can be placed
*greedily*.  A read only needs a slot in the write sequence where

* the most recent write to its location stores the value it returned,
* all of its ``->ppo`` predecessors among its own writes are already
  placed, and its own later writes are not,
* it does not precede an earlier (program-ordered) read of its processor.

Placing every read at the earliest feasible slot is optimal because all
constraints relating reads are lower bounds that only grow with later
placement.  So the write order need not be enumerated whole:
:func:`~repro.kernel.serializations.search_store_order` grows it one
write at a time, placing reads as soon as they fit and committing a write
only once the reads it must follow are placed, with a failure memo on
(written set, memory, read pointers).  This module supplies only the
read rule — no forwarding: a read waits for its ppo-earlier own writes.

Falls back to the generic solver for histories with RMW operations or
duplicated write values, where the greedy argument does not apply.
"""

from __future__ import annotations

from typing import Any

from repro.checking.result import CheckResult
from repro.checking.solver import SearchBudget, check_with_spec
from repro.core.history import SystemHistory
from repro.core.operation import Operation, OpKind
from repro.core.view import View
from repro.kernel.serializations import (
    ReadRule,
    forced_write_order,
    search_store_order,
)
from repro.orders.program_order import ppo_relation
from repro.orders.writes_before import unambiguous_reads_from
from repro.spec.registry import TSO_SPEC

__all__ = ["check_tso", "is_tso"]


def check_tso(history: SystemHistory, budget: SearchBudget | None = None) -> CheckResult:
    """Decide TSO membership, with witness views on success."""
    rf = unambiguous_reads_from(history)
    if rf is None or any(op.kind is OpKind.RMW for op in history.operations):
        # Ambiguous reads-from or RMWs: the greedy argument does not apply.
        return check_with_spec(TSO_SPEC, history, budget)

    forced = forced_write_order(history, rf)
    if not forced.is_acyclic():
        return CheckResult(
            "TSO", False, reason="reads-from forces a cyclic write order"
        )

    ppo = ppo_relation(history)
    # ppo relates a processor's own operations only; bit i of
    # pred[proc][j] says its i-th operation ppo-precedes its j-th.
    pred = {proc: ppo.pred_masks(history.ops_of(proc)) for proc in history.procs}

    def rule(r: Operation) -> ReadRule:
        own = history.ops_of(r.proc)
        mask = pred[r.proc][r.index]
        return ReadRule(
            after=tuple(
                w for i, w in enumerate(own[: r.index]) if mask >> i & 1 and w.is_write
            ),
            # A read ppo-precedes every program-later operation.
            before=tuple(w for w in own[r.index + 1:] if w.is_write),
        )

    found = search_store_order(history, forced, rule)
    if found.order is None:
        return CheckResult(
            "TSO",
            False,
            reason="no shared write order admits legal per-processor views",
            explored=found.explored,
        )
    views: dict[Any, View] = {}
    for proc in history.procs:
        reads = [op for op in history.ops_of(proc) if op.is_pure_read]
        slots = found.slots[proc]
        # Reads at slot s go just before the s-th write of the order.
        merged: list[Operation] = []
        ri = 0
        for s, w in enumerate(found.order):
            while ri < len(reads) and slots[ri] == s:
                merged.append(reads[ri])
                ri += 1
            merged.append(w)
        merged.extend(reads[ri:])
        views[proc] = View(proc, merged, history, validate=False)
    return CheckResult("TSO", True, views=views, explored=found.explored)


def is_tso(history: SystemHistory) -> bool:
    """Convenience boolean form of :func:`check_tso`."""
    return check_tso(history).allowed

