"""Axiomatic TSO à la Sindhu, Frailong & Cekleov (paper Section 6, E8).

The paper claims its view-based TSO characterization captures the axiomatic
specification of SPARC TSO.  To test that claim empirically we implement
the axiomatic model *independently*:

* **Order** — a single total order ``≤`` over all stores;
* **per-processor FIFO** — ``≤`` extends each processor's program order on
  its own stores (stores drain from a FIFO buffer);
* **LoadOp** — loads of one processor perform in program order, and a store
  program-ordered after a load commits after that load performs;
* **Value** — a load returns the value of the ``≤``-maximal store among
  those committed before it performs *and its own program-earlier stores*
  (store-buffer forwarding);
* **Termination** — implicit: every store occupies a position in ``≤``.

The one semantic gap between this and the paper's characterization is
forwarding: the paper's ``->ppo`` orders a write before a program-later
read *of the same location*, which forbids a processor from seeing its own
store before other processors do.  Hardware TSO permits exactly that
(litmus test ``SB+rfi`` / n5-style shapes).  The equivalence experiment
(``benchmarks/bench_tso_axiomatic.py``) quantifies where the two agree and
exhibits the divergence; see EXPERIMENTS.md.

The checker shares :func:`~repro.kernel.serializations.search_store_order`
with :mod:`repro.checking.tso`: the store order grows one store at a time
from the forced edges, each processor's loads perform greedily as soon as
they can (greedy placement is optimal for the same monotonicity reason),
and a failure memo cuts repeated states.  This module supplies only the
read rule: a load sees its latest program-earlier own store to the
location while that store is uncommitted, and a store program-ordered
after a load commits after the load performs.
"""

from __future__ import annotations

from repro.checking.result import CheckResult
from repro.core.errors import CheckerError
from repro.core.history import SystemHistory
from repro.core.operation import Operation, OpKind
from repro.kernel.serializations import (
    ReadRule,
    forced_write_order,
    search_store_order,
)
from repro.orders.writes_before import unambiguous_reads_from

__all__ = ["check_axiomatic_tso", "is_axiomatic_tso"]

_MODEL = "TSO-axiomatic"


def check_axiomatic_tso(history: SystemHistory) -> CheckResult:
    """Decide membership in hardware (axiomatic, store-forwarding) TSO.

    Requires distinct write values and no RMW operations — the same
    simplification the paper makes ("we omit [swaps] in this discussion",
    Section 3.2).
    """
    if any(op.kind is OpKind.RMW for op in history.operations):
        raise CheckerError(f"{_MODEL}: RMW operations are not supported")
    rf = unambiguous_reads_from(history)
    if rf is None:
        raise CheckerError(f"{_MODEL}: requires an unambiguous reads-from map")

    # Forwarded (same-processor) sources impose no cross-store constraint
    # beyond the FIFO chains forced_write_order already includes.
    forced = forced_write_order(history, rf)
    if not forced.is_acyclic():
        return CheckResult(
            _MODEL, False, reason="reads-from forces a cyclic store order"
        )

    def rule(r: Operation) -> ReadRule:
        own = history.ops_of(r.proc)
        earlier = [
            w for w in own[: r.index] if w.is_write and w.location == r.location
        ]
        return ReadRule(
            forward=earlier[-1] if earlier else None,
            before=tuple(w for w in own[r.index + 1:] if w.is_write),
        )

    found = search_store_order(history, forced, rule)
    if found.order is None:
        return CheckResult(
            _MODEL,
            False,
            reason="no store order satisfies the Value axiom for all loads",
            explored=found.explored,
        )
    return CheckResult(_MODEL, True, explored=found.explored)


def is_axiomatic_tso(history: SystemHistory) -> bool:
    """Convenience boolean form of :func:`check_axiomatic_tso`."""
    return check_axiomatic_tso(history).allowed

