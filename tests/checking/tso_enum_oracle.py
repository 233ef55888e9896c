"""Frozen copies of the TSO checkers before the prefix search.

``oracle_check_tso`` and ``oracle_check_axiomatic_tso`` are the bodies
``repro.checking.tso.check_tso`` and
``repro.checking.axiomatic_tso.check_axiomatic_tso`` had when both
enumerated every linear extension of the forced store order and placed
each processor's reads greedily against it, from scratch per order.  The
prefix search must return the same verdict, reason and (for TSO) witness
views on every input; ``test_tso_prefix_search`` holds it to that.  Only
``explored`` differs: here it counts complete orders.  Do not edit this
file to follow the checkers: it is the reference.
"""

from __future__ import annotations

from typing import Any

from repro.checking.result import CheckResult
from repro.checking.solver import SearchBudget, check_with_spec
from repro.core.errors import CheckerError
from repro.core.history import SystemHistory
from repro.core.operation import INITIAL_VALUE, Operation, OpKind
from repro.core.view import View
from repro.kernel.serializations import forced_write_order
from repro.orders.program_order import ppo_relation
from repro.orders.relation import Relation
from repro.orders.writes_before import unambiguous_reads_from
from repro.spec.registry import TSO_SPEC


def oracle_check_tso(
    history: SystemHistory, budget: SearchBudget | None = None
) -> CheckResult:
    rf = unambiguous_reads_from(history)
    if rf is None or any(op.kind is OpKind.RMW for op in history.operations):
        return check_with_spec(TSO_SPEC, history, budget)

    forced = forced_write_order(history, rf)
    if not forced.is_acyclic():
        return CheckResult(
            "TSO", False, reason="reads-from forces a cyclic write order"
        )

    ppo = ppo_relation(history)
    explored = 0
    for order in forced.all_topological_sorts():
        explored += 1
        views = _views_for_write_order(history, order, ppo)
        if views is not None:
            return CheckResult("TSO", True, views=views, explored=explored)
    return CheckResult(
        "TSO",
        False,
        reason="no shared write order admits legal per-processor views",
        explored=explored,
    )


def _views_for_write_order(
    history: SystemHistory, order: list[Operation], ppo: Relation[Operation]
) -> dict[Any, View] | None:
    wpos = {w.uid: i for i, w in enumerate(order)}
    nwrites = len(order)
    views: dict[Any, View] = {}
    for proc in history.procs:
        slots = _place_reads(history, proc, order, wpos, ppo)
        if slots is None:
            return None
        merged: list[Operation] = []
        reads = [op for op in history.ops_of(proc) if op.is_pure_read]
        ri = 0
        for s in range(nwrites + 1):
            while ri < len(reads) and slots[ri] == s:
                merged.append(reads[ri])
                ri += 1
            if s < nwrites:
                merged.append(order[s])
        views[proc] = View(proc, merged, history, validate=False)
    return views


def _place_reads(
    history: SystemHistory,
    proc: Any,
    order: list[Operation],
    wpos: dict[tuple, int],
    ppo: Relation[Operation],
) -> list[int] | None:
    nwrites = len(order)
    value_at: dict[str, list[int]] = {}
    for loc in history.locations:
        vals = [INITIAL_VALUE]
        for w in order:
            vals.append(w.value_written if w.location == loc else vals[-1])
        value_at[loc] = vals

    own_ops = history.ops_of(proc)
    own_writes = [op for op in own_ops if op.is_write]
    reads = [op for op in own_ops if op.is_pure_read]
    slots: list[int] = []
    current_min = 0
    for r in reads:
        lo = current_min
        hi = nwrites
        for w in own_writes:
            if ppo.orders(w, r):
                lo = max(lo, wpos[w.uid] + 1)
            elif ppo.orders(r, w):
                hi = min(hi, wpos[w.uid])
        if lo > hi:
            return None
        vals = value_at[r.location]
        want = r.value_read
        slot = next((s for s in range(lo, hi + 1) if vals[s] == want), None)
        if slot is None:
            return None
        slots.append(slot)
        current_min = slot
    return slots


_MODEL = "TSO-axiomatic"


def oracle_check_axiomatic_tso(history: SystemHistory) -> CheckResult:
    if any(op.kind is OpKind.RMW for op in history.operations):
        raise CheckerError(f"{_MODEL}: RMW operations are not supported")
    rf = unambiguous_reads_from(history)
    if rf is None:
        raise CheckerError(f"{_MODEL}: requires an unambiguous reads-from map")

    forced = forced_write_order(history, rf)
    if not forced.is_acyclic():
        return CheckResult(
            _MODEL, False, reason="reads-from forces a cyclic store order"
        )

    explored = 0
    for order in forced.all_topological_sorts():
        explored += 1
        if all(_loads_placeable(history, proc, order) for proc in history.procs):
            return CheckResult(_MODEL, True, explored=explored)
    return CheckResult(
        _MODEL,
        False,
        reason="no store order satisfies the Value axiom for all loads",
        explored=explored,
    )


def _loads_placeable(
    history: SystemHistory, proc: Any, order: list[Operation]
) -> bool:
    wpos = {w.uid: i for i, w in enumerate(order)}
    nstores = len(order)
    prefix: dict[str, list[int]] = {}
    for loc in history.locations:
        vals = [INITIAL_VALUE]
        for w in order:
            vals.append(w.value_written if w.location == loc else vals[-1])
        prefix[loc] = vals

    own_ops = history.ops_of(proc)
    current_min = 0
    for r in own_ops:
        if not r.is_pure_read:
            continue
        lo = current_min
        later_stores = [w for w in own_ops[r.index + 1:] if w.is_write]
        hi = min((wpos[w.uid] for w in later_stores), default=nstores)
        if lo > hi:
            return False
        own_prior = None
        for w in own_ops[: r.index]:
            if w.is_write and w.location == r.location:
                own_prior = w
        want = r.value_read
        vals = prefix[r.location]
        slot = None
        for s in range(lo, hi + 1):
            if own_prior is not None and wpos[own_prior.uid] >= s:
                value_here = own_prior.value_written
            else:
                value_here = vals[s]
            if value_here == want:
                slot = s
                break
        if slot is None:
            return False
        current_min = slot
    return True
