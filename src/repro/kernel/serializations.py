"""Layer 2 of the constraint kernel: mutual-consistency witness enumeration.

Parameter 2 of the paper asks what the processor views must *agree on*:
nothing, one total order over all writes, per-location coherence orders, or
one total order over the labeled operations.  This layer enumerates the
candidate agreed objects — each one a set of totally ordered chains whose
pairs become cross-view edges — and, for release consistency, the
serializations of the labeled subsequence its discipline admits.

The enumeration is shared by the generic kernel driver and the fast
checkers (TSO's and axiomatic TSO's write-order search both start from
:func:`forced_write_order`), so the pruning soundness argument lives here
exactly once.  Those two checkers also share :func:`search_store_order`,
which grows the agreed store order one store at a time instead of
enumerating its linear extensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Iterator

from repro.core.errors import CheckerError
from repro.core.history import SystemHistory
from repro.core.operation import INITIAL_VALUE, Operation
from repro.orders.coherence import (
    CoherenceOrder,
    enumerate_coherence_orders,
    forced_coherence_pairs,
)
from repro.orders.program_order import in_program_order
from repro.orders.relation import Relation
from repro.orders.writes_before import ReadsFrom, unambiguous_reads_from
from repro.spec.model_spec import MemoryModelSpec
from repro.spec.parameters import (
    LabeledDiscipline,
    MutualConsistency,
    partition_block_map,
)

__all__ = [
    "MutualCandidate",
    "LabeledExtra",
    "forced_write_order",
    "forced_block_orders",
    "ReadRule",
    "StoreOrder",
    "search_store_order",
    "iter_mutual_candidates",
    "iter_labeled_extras",
]


@dataclass(frozen=True)
class MutualCandidate:
    """One candidate agreed object: ordered chains plus the coherence view.

    ``chains`` is a tuple of totally ordered operation tuples; every view
    must order the operations of each chain consistently with it (the
    induced cross-view edges are all within-chain pairs).  ``coherence``
    is the per-location write order the candidate induces, for models
    whose ordering rule or legality propagation needs it.
    """

    coherence: CoherenceOrder | None
    chains: tuple[tuple[Operation, ...], ...]


@dataclass(frozen=True)
class LabeledExtra:
    """Extra per-view edges enforcing a labeled discipline candidate.

    Either ``chains`` (a serialization the labeled subsequences must embed,
    the ``RC_sc`` case) or ``relation`` (an explicit closed edge relation,
    the ``RC_pc`` semi-causality case).
    """

    chains: tuple[tuple[Operation, ...], ...] = ()
    relation: Relation[Operation] | None = None


def forced_write_order(
    history: SystemHistory, reads_from: ReadsFrom | None
) -> Relation[Operation]:
    """Edges every admissible total write order must contain.

    Program order between each processor's own writes always; plus, when a
    (necessarily unambiguous) ``reads_from`` is supplied, the per-location
    coherence edges it forces.  This is the shared starting point of the
    kernel's total-write-order enumeration, the TSO fast path, and the
    axiomatic TSO reference checker.
    """
    forced: Relation[Operation] = Relation(history.writes)
    for proc in history.procs:
        chain = [op for op in history.ops_of(proc) if op.is_write]
        for a, b in zip(chain, chain[1:]):
            forced.add(a, b)
    if reads_from is not None:
        for loc in history.locations:
            for a, b in forced_coherence_pairs(history, loc, reads_from).pairs():
                forced.add(a, b)
    return forced


@dataclass(frozen=True)
class ReadRule:
    """How one pure read meets the shared store order.

    ``after``: stores that must have committed before the read performs.
    ``forward``: an own store whose value the read sees while that store
    is still uncommitted (store-buffer forwarding).  ``before``: stores
    that may commit only after the read has performed.
    """

    after: tuple[Operation, ...] = ()
    forward: Operation | None = None
    before: tuple[Operation, ...] = ()


@dataclass(frozen=True)
class StoreOrder:
    """The outcome of :func:`search_store_order`.

    ``order`` is the first admitting store order (``None`` when none
    admits); ``slots[proc][i]`` is the number of stores committed when
    ``proc``'s ``i``-th pure read performs.  ``explored`` counts search
    nodes.
    """

    order: tuple[Operation, ...] | None
    slots: dict[Any, tuple[int, ...]]
    explored: int


def search_store_order(
    history: SystemHistory,
    forced: Relation[Operation],
    rule: Callable[[Operation], ReadRule],
) -> StoreOrder:
    """The first total store order, extending ``forced``, that places every read.

    The order grows one store at a time.  At every node each processor
    performs its pending pure reads, in program order, at the current
    slot while they can go there — the read's ``after`` stores have
    committed and the value it sees (its ``forward`` store's while that
    is uncommitted, else memory's) is the one it returned.  Performing a
    read as early as possible never hurts: every constraint it takes
    part in is a lower bound on later reads and an upper bound on its
    ``before`` stores.  A store commits only when its ``forced``
    predecessors have committed and every read it must follow has
    performed.  Stores are tried in ascending ``forced`` universe order,
    the order of ``Relation.all_topological_sorts``, so the result is
    the first admitting linear extension in that enumeration; a failure
    memo on (committed stores, memory, read pointers) cuts repeated
    states.  ``forced`` must be acyclic.
    """
    stores = forced.items
    n = len(stores)
    sidx = {w.uid: i for i, w in enumerate(stores)}
    pred = forced.pred_masks(stores)
    locs = {loc: i for i, loc in enumerate(history.locations)}
    store_loc = [locs[w.location] for w in stores]
    store_val = [w.value_written for w in stores]
    procs = history.procs
    # Per processor, its pure reads as (loc, value, after, forward bit,
    # forwarded value); per store, how many of each processor's reads
    # must have performed before it commits.
    reads: list[list[tuple[int, Any, int, int, Any]]] = []
    guard: list[dict[int, int]] = [{} for _ in range(n)]
    for p, proc in enumerate(procs):
        rows: list[tuple[int, Any, int, int, Any]] = []
        for r in history.ops_of(proc):
            if not r.is_pure_read:
                continue
            rr = rule(r)
            after = 0
            for w in rr.after:
                after |= 1 << sidx[w.uid]
            fwd = rr.forward
            fbit = 1 << sidx[fwd.uid] if fwd is not None else 0
            fval = fwd.value_written if fwd is not None else None
            rows.append((locs[r.location], r.value_read, after, fbit, fval))
            for w in rr.before:
                guard[sidx[w.uid]][p] = len(rows)  # rows only grow: the max
        reads.append(rows)
    gate = [tuple(g.items()) for g in guard]
    nreads = [len(rows) for rows in reads]
    nprocs = len(procs)
    full = (1 << n) - 1
    slots = [[0] * k for k in nreads]
    order: list[int] = []
    failed: set[tuple[int, tuple, tuple[int, ...]]] = set()
    explored = 0

    def dfs(mask: int, mem: tuple, ptrs: tuple[int, ...]) -> bool:
        nonlocal explored
        explored += 1
        depth = len(order)
        moved = list(ptrs)
        for p in range(nprocs):
            rows = reads[p]
            i = moved[p]
            while i < nreads[p]:
                loc, want, after, fbit, fval = rows[i]
                if after & ~mask:
                    break
                seen = fval if fbit and not mask & fbit else mem[loc]
                if seen != want:
                    break
                slots[p][i] = depth
                i += 1
            moved[p] = i
        if mask == full:
            return moved == nreads
        now = tuple(moved)
        key = (mask, mem, now)
        if key in failed:
            return False
        for s in range(n):
            bit = 1 << s
            if mask & bit or pred[s] & ~mask:
                continue
            if any(now[p] < k for p, k in gate[s]):
                continue
            loc = store_loc[s]
            order.append(s)
            if dfs(mask | bit, mem[:loc] + (store_val[s],) + mem[loc + 1:], now):
                return True
            order.pop()
        failed.add(key)
        return False

    if dfs(0, (INITIAL_VALUE,) * len(locs), (0,) * nprocs):
        return StoreOrder(
            tuple(stores[s] for s in order),
            {proc: tuple(slots[p]) for p, proc in enumerate(procs)},
            explored,
        )
    return StoreOrder(None, {}, explored)


def forced_block_orders(
    history: SystemHistory, blocks: int, reads_from: ReadsFrom | None
) -> list[Relation[Operation]]:
    """Per-block forced write orders of a ``blocks``-way partition.

    One relation per block, in block-index order: program order between a
    processor's own writes within the block, plus — under an unambiguous
    ``reads_from`` — the per-location coherence edges it forces (every
    location lies wholly inside one block).  Every admissible agreed
    block order extends its block's relation, so this is the shared
    pruning seed of the kernel's Partition enumeration and the static
    pre-pass, exactly as :func:`forced_write_order` is for TSO.
    """
    block = partition_block_map(history, blocks)
    by_block: list[list[Operation]] = [[] for _ in range(blocks)]
    for op in history.writes:
        by_block[block[op.location]].append(op)
    out: list[Relation[Operation]] = []
    for b in range(blocks):
        forced: Relation[Operation] = Relation(by_block[b])
        for proc in history.procs:
            chain = [
                op
                for op in history.ops_of(proc)
                if op.is_write and block[op.location] == b
            ]
            for x, y in zip(chain, chain[1:]):
                forced.add(x, y)
        if reads_from is not None:
            for loc in history.locations:
                if block[loc] != b:
                    continue
                for x, y in forced_coherence_pairs(
                    history, loc, reads_from
                ).pairs():
                    forced.add(x, y)
        out.append(forced)
    return out


def _split_by_location(order: list[Operation]) -> dict[str, tuple[Operation, ...]]:
    chains: dict[str, list[Operation]] = {}
    for op in order:
        chains.setdefault(op.location, []).append(op)
    return {loc: tuple(ops) for loc, ops in chains.items()}


def iter_mutual_candidates(
    spec: MemoryModelSpec,
    history: SystemHistory,
    rf: ReadsFrom,
    *,
    use_reads_from_pruning: bool = True,
    unambiguous: bool | None = None,
) -> Iterator[MutualCandidate]:
    """Enumerate the candidate agreed objects for ``spec``'s parameter 2.

    Reads-from based pruning is applied only when the history's attribution
    is the unique one (distinct write values *and* no initial-value
    ambiguity); with an enumerated ``rf`` the forced edges would be
    unsound.  Callers that already know whether the attribution is unique
    (the driver) pass ``unambiguous`` to skip re-deriving it.
    """
    mc = spec.mutual_consistency
    if unambiguous is None:
        unambiguous = unambiguous_reads_from(history) is not None
    unambiguous = use_reads_from_pruning and unambiguous
    if mc in (MutualConsistency.NONE, MutualConsistency.IDENTICAL):
        yield MutualCandidate(None, ())
        return

    if mc is MutualConsistency.TOTAL_WRITE_ORDER:
        forced = forced_write_order(history, rf if unambiguous else None)
        if not forced.is_acyclic():
            return
        for order in forced.all_topological_sorts():
            yield MutualCandidate(_split_by_location(order), (tuple(order),))
        return

    if mc is MutualConsistency.COHERENCE:
        for coherence in enumerate_coherence_orders(
            history, rf if unambiguous else None
        ):
            yield MutualCandidate(coherence, tuple(coherence.values()))
        return

    if mc is MutualConsistency.PARTITION:
        # Partition Consistency: one agreed total order of the writes
        # *within each block*, independently per block — the candidate
        # space is the product of the per-block linear extensions of the
        # forced block orders.
        assert spec.partition_blocks is not None  # spec validation
        per_block: list[list[tuple[Operation, ...]]] = []
        for forced in forced_block_orders(
            history, spec.partition_blocks, rf if unambiguous else None
        ):
            if not forced.is_acyclic():
                return
            per_block.append(
                [tuple(order) for order in forced.all_topological_sorts()]
            )
        for combo in product(*per_block):
            coherence: dict[str, tuple[Operation, ...]] = {}
            for order in combo:
                coherence.update(_split_by_location(list(order)))
            yield MutualCandidate(
                coherence, tuple(order for order in combo if order)
            )
        return

    if mc is MutualConsistency.LABELED_TOTAL_ORDER:
        # Hybrid consistency: one agreed total order over the labeled
        # (strong) operations, extending each processor's program order
        # on them.
        forced_l: Relation[Operation] = Relation(history.labeled_ops)
        for proc in history.procs:
            chain = [op for op in history.ops_of(proc) if op.labeled]
            for a, b in zip(chain, chain[1:]):
                forced_l.add(a, b)
        for order in forced_l.all_topological_sorts():
            yield MutualCandidate(None, (tuple(order),))
        return

    raise CheckerError(f"unhandled mutual consistency {mc}")  # pragma: no cover


def iter_labeled_extras(
    spec: MemoryModelSpec,
    history: SystemHistory,
    rf: ReadsFrom,
    coherence: CoherenceOrder | None,
    max_labeled_orders: int,
) -> Iterator[LabeledExtra | None]:
    """Enumerate the labeled-discipline constraints, if the model has one.

    Yields ``None`` once for models without a discipline (or with no
    labeled operations); otherwise one :class:`LabeledExtra` per candidate
    serialization (``RC_sc``) or the single semi-causality relation of the
    labeled sub-history (``RC_pc``).
    """
    if spec.labeled_discipline is None:
        yield None
        return

    labeled = history.labeled_ops
    if not labeled:
        yield None
        return

    if spec.labeled_discipline is LabeledDiscipline.SC:
        # Enumerate legal SC serializations of the labeled operations and
        # force every view's labeled subsequence to agree with one.
        from repro.kernel.search import iter_legal_extensions  # layer-top import

        po_labeled: Relation[Operation] = Relation(labeled)
        for a in labeled:
            for b in labeled:
                if in_program_order(a, b):
                    po_labeled.add(a, b)
        count = 0
        for order in iter_legal_extensions(labeled, po_labeled):
            count += 1
            if count > max_labeled_orders:
                raise CheckerError(
                    "too many labeled serializations; raise the budget"
                )
            yield LabeledExtra(chains=(tuple(order),))
        return

    # Labeled-PC: add the semi-causality of the labeled sub-history.  The
    # attribution is inherited from the ambient reads-from choice so the
    # two levels of the model never disagree about who a labeled read saw.
    from repro.orders.semi_causal import sem_relation  # local to avoid cycle

    sub, back = history.project(lambda op: op.labeled)
    fwd = {back[new.uid].uid: new for new in sub.operations}
    rf_sub: dict[Operation, Operation | None] = {}
    for new_op in sub.operations:
        if new_op.is_read:
            src = rf.get(back[new_op.uid])
            if src is not None and src.uid in fwd and fwd[src.uid].is_write:
                rf_sub[new_op] = fwd[src.uid]
            else:
                rf_sub[new_op] = None
    coherence_sub: dict[str, tuple[Operation, ...]] = {}
    if coherence is not None:
        for loc, chain in coherence.items():
            projected = tuple(fwd[w.uid] for w in chain if w.uid in fwd)
            if projected:
                coherence_sub[loc] = projected
    sem_sub = sem_relation(sub, rf_sub, coherence_sub)
    rel: Relation[Operation] = Relation(history.operations)
    for a, b in sem_sub.pairs():
        rel.add(back[a.uid], back[b.uid])
    if not rel.is_acyclic():
        return
    yield LabeledExtra(relation=rel.transitive_closure())
