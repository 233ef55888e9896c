"""Polynomial pre-pass verdicts: definite DENY *or* ADMIT-with-witness.

The kernel decides admissibility by searching for legal linear extensions —
NP-hard in general.  But many verdicts follow from polynomial graph
analysis.  On the DENY side, *necessary* conditions:

* **rf-sanity** — a read observing a value no write stores (and which is
  not the initial value) is illegal in every view under every model;
* **write-order-cycle** — for coherence-class mutual consistency (views
  agree on same-location write order), the forced write-order edges
  ``wb ∪ po|loc`` must be acyclic, because every admissible shared order
  extends them;
* **view-cycle** — each processor's view must be a linear extension of the
  spec's ordering (restricted to the view), the reads-from legality edges,
  the bracketing edges, and the forced write-order edges; a cycle in that
  per-view constraint graph rules out every legal view;
* **agreement-exhausted** — every admissible agreed write order extends
  the *forced* write-order edges, and on litmus-scale histories the forced
  order typically leaves only a handful of linear extensions.  The rule
  enumerates them all (hard-capped), pins each candidate's exact legality
  edges, and concludes: some candidate builds legal views → ADMIT with
  that witness; *every* candidate forces a cyclic view graph → DENY,
  because the candidates are exhaustive.  Past the cap, or on any
  non-decisive failure, it abstains.

On the ADMIT side, a *sufficient* construction:

* **admit-witness** — under a unique reads-from attribution, commit to one
  agreed object (a deterministic topological extension of the forced write
  order, shared by every view) and inject, per view, exactly the edges that
  make legality automatic: each read after its source write and before the
  agreed order's next same-location write.  Any topological order of the
  resulting graph is then a legal view that embeds the agreed object and
  the spec's ordering — a complete, machine-checkable witness.  Whenever a
  graph is cyclic, or any precondition fails, the rule abstains (UNKNOWN);
  it never guesses.

A :class:`HistoryPrepass` is compiled once per
:class:`~repro.spec.model_spec.MemoryModelSpec` and then applied to many
histories.  Every graph is a list of integer predecessor masks over the
kernel's :class:`~repro.kernel.constraints.HistoryPlane` (bit ``i`` of
``masks[j]`` set means operation ``i`` precedes operation ``j``): the
ordering, bracketing and reads-from masks are the entries the kernel's
search already keeps in :attr:`HistoryPlane.masks`, and what the pre-pass
derives from the history alone — the read-to-source table, the forced
write orders and the capped agreed candidates — is built once per
history and shared by every spec checked against it.  A view's graph is
the universe masks restricted to the view's members
(:func:`~repro.kernel.constraints.restrict_masks`).  Linear extensions
mirror :class:`~repro.orders.relation.Relation`'s (a FIFO Kahn that
visits successors in ascending order; backtracking in ascending order),
so witnesses are the ones a relation-based construction builds.

Soundness contract
------------------
The pre-pass returns a **definite DENY**, a **definite ADMIT carrying a
witness**, or **UNKNOWN**.  A DENY is sound because every edge placed in a
graph is *forced*: it holds in every legal view of every admissible
execution under the spec.  Conservative under-approximations keep that
true:

* with an ambiguous reads-from attribution the pre-pass returns UNKNOWN
  (except for rf-sanity, which is attribution-independent), because
  legality edges are only forced once the attribution is fixed;
* for orderings that need a coherence order (semi-causality), the partial
  program order ``->ppo`` — a subset of every semi-causal relation — stands
  in for the real ordering on the DENY side (the ADMIT side rebuilds the
  real ordering from the agreed coherence order it chose);
* for specs whose ordering binds own views only (release consistency),
  ordering edges are applied only between a processor's own operations in
  its own view, mirroring the kernel's ``own_restriction``.

An ADMIT is sound because the witness is *verified by construction*: the
emitted views are legal sequences (checked), contain the spec's required
operation sets, are linear extensions of the spec's ordering and of one
shared agreed object, so the spec's existential is exhibited rather than
approximated.  The rule abstains for labeled-discipline specs whenever the
history has labeled operations (their extra serializations are the
NP-hard part the pre-pass must not guess at).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, product
from typing import Any, Sequence

from repro.core.history import SystemHistory
from repro.core.operation import Operation
from repro.core.view import View, first_legality_violation
from repro.kernel.constraints import (
    HistoryPlane,
    ViewPlane,
    close_masks,
    history_plane,
    masks_acyclic,
    own_restriction,
    plane_masks,
    restrict_masks,
    semi_causal_closure,
)
from repro.kernel.results import CheckResult, Counterexample, Witness
from repro.kernel.rf import impossible_read
from repro.obs.events import PrepassRule
from repro.obs.sink import TraceSink, active_sink
from repro.orders.writes_before import ReadsFrom
from repro.spec.model_spec import MemoryModelSpec
from repro.spec.parameters import (
    PPO,
    SEMI_CAUSAL,
    MutualConsistency,
    partition_block_map,
)

__all__ = ["PrepassVerdict", "HistoryPrepass", "compile_prepass", "prepass_check"]

#: Mutual-consistency classes whose views agree on (at least same-location)
#: write order, making forced write-order edges hold in every view.
#: Partition agreement spans whole location blocks, hence in particular
#: each single location, so it belongs here (but not in the total class:
#: cross-block writes stay unordered).
_COHERENCE_CLASS = (
    MutualConsistency.COHERENCE,
    MutualConsistency.TOTAL_WRITE_ORDER,
    MutualConsistency.IDENTICAL,
    MutualConsistency.PARTITION,
)

#: Classes whose agreement spans *all* writes, not only same-location ones.
_TOTAL_CLASS = (MutualConsistency.TOTAL_WRITE_ORDER, MutualConsistency.IDENTICAL)

#: Hard cap on the agreed-order candidates the exhaustive rule enumerates
#: (per level: global candidates, and per-view orders when no agreement
#: binds them).  Past the cap the rule abstains — the search's pruned
#: enumeration is the better tool for large choice spaces.
_MAX_AGREED_CANDIDATES = 24

#: One agreed-order choice: the per-location coherence mapping it induces
#: (``None`` when the spec's views agree on nothing), the same mapping as
#: ``(location, universe indices)`` pairs, and the chains (universe
#: indices) every view must embed.
_Candidate = tuple[
    "dict[str, tuple[Operation, ...]] | None",
    "list[tuple[str, tuple[int, ...]]] | None",
    "tuple[tuple[int, ...], ...]",
]

#: The :attr:`HistoryPlane.masks` key of the pre-pass's per-history tables.
#: A tuple, so :func:`~repro.kernel.constraints.extend_plane` and the
#: engine's plane arena drop it and it is rebuilt on demand.
_TABLES_KEY = ("prepass", "tables")


# -- graph primitives on predecessor masks ------------------------------------


def _successors(pred: Sequence[int]) -> list[int]:
    """Successor masks of a graph given by predecessor masks."""
    succ = [0] * len(pred)
    for j, m in enumerate(pred):
        bit = 1 << j
        while m:
            low = m & -m
            succ[low.bit_length() - 1] |= bit
            m ^= low
    return succ


def _kahn(pred: Sequence[int]) -> list[int] | None:
    """One linear extension, or ``None`` when the graph is cyclic.

    :meth:`Relation.topological_sort`'s order: a FIFO of ready nodes,
    seeded in ascending order, each node releasing its successors in
    ascending order.
    """
    n = len(pred)
    succ = _successors(pred)
    ready = deque(i for i in range(n) if not pred[i])
    placed = 0
    out: list[int] = []
    while ready:
        i = ready.popleft()
        out.append(i)
        placed |= 1 << i
        m = succ[i]
        while m:
            low = m & -m
            m ^= low
            j = low.bit_length() - 1
            if not pred[j] & ~placed:
                ready.append(j)
    return out if len(out) == n else None


def _bounded_extensions(
    pred: Sequence[int], cap: int
) -> tuple[list[tuple[int, ...]], bool]:
    """Up to ``cap`` linear extensions, plus whether that was all of them.

    :meth:`Relation.all_topological_sorts`'s order: backtracking that
    tries the ready nodes in ascending order.
    """
    n = len(pred)
    full = (1 << n) - 1
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def walk(placed: int) -> bool:
        if placed == full:
            out.append(tuple(chosen))
            return len(out) > cap
        for i in range(n):
            bit = 1 << i
            if not placed & bit and not pred[i] & ~placed:
                chosen.append(i)
                if walk(placed | bit):
                    return True
                chosen.pop()
        return False

    walk(0)
    if len(out) > cap:
        return out[:cap], False
    return out, True


def _find_cycle(pred: Sequence[int]) -> list[int]:
    """One cycle of a cyclic graph, closed (first node repeated last).

    A depth-first walk from the lowest node, successors in ascending
    order; callers gate it with :func:`masks_acyclic`.
    """
    succ = _successors(pred)
    color = [0] * len(pred)  # 0 unvisited, 1 on the stack, 2 done
    stack: list[int] = []

    def dfs(a: int) -> list[int] | None:
        color[a] = 1
        stack.append(a)
        m = succ[a]
        while m:
            low = m & -m
            m ^= low
            b = low.bit_length() - 1
            if color[b] == 1:
                return stack[stack.index(b):] + [b]
            if color[b] == 0:
                found = dfs(b)
                if found is not None:
                    return found
        stack.pop()
        color[a] = 2
        return None

    for a in range(len(pred)):
        if color[a] == 0:
            found = dfs(a)
            if found is not None:
                return found
    raise ValueError("graph is acyclic")


def _add_loops(masks: list[int], loops: int) -> list[int]:
    """``masks`` with a self-loop on every node of ``loops`` (a new list)."""
    out = list(masks)
    while loops:
        low = loops & -loops
        loops ^= low
        out[low.bit_length() - 1] |= low
    return out


def _pin(
    local: list[int],
    reads: Sequence[tuple[int, int, str]],
    loc_order: dict[str, list[int]],
) -> bool:
    """Add exact legality pins for the given per-location write order.

    Between its source and the source's successor in ``loc_order`` (an
    initial-value read before every same-location write), every read
    observes precisely its attributed value in *any* topological order.
    ``False`` means a read's source is missing from its location's order
    — no legal view embeds that order.
    """
    for k, src, loc in reads:
        ws = loc_order.get(loc, ())
        bit = 1 << k
        if src == -1:
            for w in ws:
                if w != k:
                    local[w] |= bit
            continue
        if src not in ws:
            return False
        for w in ws[ws.index(src) + 1:]:
            if w != k:
                local[w] |= bit
                break
    return True


# -- per-history tables ----------------------------------------------------------


class _View:
    """One view's members in local positions, with its reads and writes."""

    __slots__ = ("proc", "members", "gather", "pos", "reads", "writes", "invisible")

    def __init__(self, hp: HistoryPlane, plane: ViewPlane, src_idx: dict[int, int]):
        self.proc = plane.proc
        self.members = plane.members
        self.gather = plane.gather
        self.pos = {g: k for k, g in enumerate(self.members)}
        #: ``(read, source, location)`` per member read: local positions,
        #: source -1 for an initial-value read, -2 when it is no member.
        self.reads: list[tuple[int, int, str]] = []
        #: Member writes per location, in member order.
        self.writes: dict[str, list[int]] = {}
        self.invisible = False
        ops = hp.ops
        for k, g in enumerate(self.members):
            op = ops[g]
            if op.is_read:
                src = src_idx[g]
                if src >= 0:
                    src = self.pos.get(src, -2)
                    self.invisible |= src == -2
                self.reads.append((k, src, op.location))
            if op.is_write:
                self.writes.setdefault(op.location, []).append(k)


class _Tables:
    """What the pre-pass derives from one history, shared by every spec.

    Built under the unique reads-from attribution and cached on the
    history's plane: the read-to-source table, the reads-from-forced
    coherence edges, the forced write orders (ordering-filtered for the
    DENY side, per location, total and per block for the agreed
    objects), the capped agreed candidates per mutual-consistency class,
    and the view tables.
    """

    def __init__(self, hp: HistoryPlane) -> None:
        self.hp = hp
        n = hp.n
        ops = hp.ops
        self.src_idx, self.prop = plane_masks(hp, "prop")
        #: ``(read, source)`` in universe order, source -1 for an
        #: initial-value read.
        self.reads = sorted(self.src_idx.items())
        #: ``source -> read`` edges alone (no initial-value edges).
        self.sources = [0] * n
        for ir, isrc in self.reads:
            if isrc >= 0:
                self.sources[ir] |= 1 << isrc
        self.proc_end = [0] * n
        for start, end in hp.ranges.values():
            for i in range(start, end):
                self.proc_end[i] = end
        # forced_coherence_pairs over every location at once: each
        # processor's consecutive same-location writes, and a write read
        # by a processor before its later same-location writes.
        coh = [0] * n
        for start, end in hp.ranges.values():
            last: dict[str, int] = {}
            for i in range(start, end):
                if ops[i].is_write:
                    loc = ops[i].location
                    if loc in last:
                        coh[i] |= 1 << last[loc]
                    last[loc] = i
        for ir, isrc in self.reads:
            if isrc < 0:
                continue
            loc = ops[ir].location
            for j in range(ir + 1, self.proc_end[ir]):
                if j != isrc and ops[j].is_write and ops[j].location == loc:
                    coh[j] |= 1 << isrc
        self.coh = coh
        self._forced: dict[Any, Any] = {}
        self._looped: dict[Any, list[int]] = {}
        self._own: dict[Any, dict[Any, list[int]]] = {}
        self._brack: list[int] | None = None
        self._views: dict[Any, list[_View]] = {}
        self._admit: dict[Any, _Candidate | None] = {}
        self._agreed: dict[Any, tuple[list[_Candidate], bool]] = {}

    # -- ordering and bracketing masks ---------------------------------------

    def ordering(self, rule: Any) -> list[int]:
        """The rule's kernel masks plus the relation's self-loops.

        The kernel's masks drop the diagonal; the relation of a cyclic
        closed ordering (causality, the session rules) holds ``(a, a)``
        for every ``a`` on a cycle, and such a pair alone makes a view
        graph cyclic.  Registered rules are closed or acyclic, so the
        loops are exactly the closure's diagonal.
        """
        masks = self._looped.get(rule)
        if masks is None:
            masks = plane_masks(self.hp, rule)
            if not masks_acyclic(masks, self.hp.n):
                closed = close_masks(masks)
                loops = sum(1 << i for i, m in enumerate(closed) if m >> i & 1)
                masks = _add_loops(masks, loops)
            self._looped[rule] = masks
        return masks

    def own(self, rule: Any) -> dict[Any, list[int]]:
        """:meth:`ordering` restricted to each processor's own operations."""
        own = self._own.get(rule)
        if own is None:
            masks = self.ordering(rule)
            if masks is plane_masks(self.hp, rule):
                own = plane_masks(self.hp, (rule, "own"))
            else:
                own = own_restriction(self.hp, masks)
            self._own[rule] = own
        return own

    def bracketing(self) -> list[int]:
        """Bracketing masks plus their self-loops.

        ``bracketing_edges`` orders an acquire's source before every later
        ordinary operation, the source itself included when the acquire
        reads a po-later ordinary write.
        """
        if self._brack is None:
            ops = self.hp.ops
            loops = 0
            for ir, isrc in self.reads:
                if (
                    isrc > ir
                    and isrc < self.proc_end[ir]
                    and ops[ir].is_acquire
                    and not ops[isrc].labeled
                ):
                    loops |= 1 << isrc
            self._brack = _add_loops(plane_masks(self.hp, "bracketing"), loops)
        return self._brack

    # -- views -----------------------------------------------------------------

    def views(self, spec: MemoryModelSpec, identical: bool) -> list[_View]:
        """The views a spec's graphs live on, in processor order."""
        key = None if identical else spec.operation_set
        views = self._views.get(key)
        if views is None:
            hp = self.hp
            if identical:
                views = [_View(hp, hp.universe_plane, self.src_idx)]
            else:
                planes = hp.views(spec.operation_set)
                views = [
                    _View(hp, planes[proc], self.src_idx)
                    for proc in hp.history.procs
                ]
            self._views[key] = views
        return views

    # -- the DENY side's forced write order ------------------------------------

    def forced(
        self, rule: Any, ordering: Sequence[int], total: bool
    ) -> tuple[tuple[Operation, ...] | None, list[int] | None]:
        """``(cycle, from-read masks)`` of the forced write order.

        Program-order pairs of a processor's own writes (same-location
        pairs always; cross-location ones only under total-write-order
        agreement) and reads-from-implied pairs (a processor that reads
        ``w1`` and later writes ``w2`` to the same location forces
        ``w1 < w2``).  Each candidate edge is admitted only when the
        ordering actually orders the generating pair in the owner's view
        — both generators are same-processor pairs, so the test is sound
        even for own-view-only orderings.

        A cyclic order yields its cycle and no masks; an acyclic one the
        from-read edges: a read precedes every same-location write the
        closed order puts after its source.
        """
        key = (rule, total)
        hit = self._forced.get(key)
        if hit is not None:
            return hit
        hp = self.hp
        ops = hp.ops
        forced = [0] * hp.n
        for start, end in hp.ranges.values():
            own = [i for i in range(start, end) if ops[i].is_write]
            for jj, b in enumerate(own):
                row = ordering[b]
                for a in own[:jj]:
                    if (total or ops[a].location == ops[b].location) and row >> a & 1:
                        forced[b] |= 1 << a
        for ir, isrc in self.reads:
            if isrc < 0:
                continue
            loc = ops[ir].location
            for j in range(ir + 1, self.proc_end[ir]):
                if (
                    j != isrc
                    and ops[j].is_write
                    and ops[j].location == loc
                    and ordering[j] >> ir & 1
                ):
                    forced[j] |= 1 << isrc
        if not masks_acyclic(forced, hp.n):
            writes = hp.write_idx
            cycle = _find_cycle(restrict_masks(forced, writes))
            hit = (tuple(ops[writes[k]] for k in cycle), None)
        else:
            closed = close_masks(forced)
            fr = [0] * hp.n
            for ir, isrc in self.reads:
                if isrc < 0:
                    continue
                bit = 1 << ir
                for w in hp.writers_by_loc[ops[ir].location]:
                    if w != isrc and w != ir and closed[w] >> isrc & 1:
                        fr[w] |= bit
            hit = (None, fr)
        self._forced[key] = hit
        return hit

    # -- the agreed objects ------------------------------------------------------

    def _write_orders(self, kind: Any) -> list[tuple[Any, list[int], tuple[int, ...]]]:
        """``(label, pred masks, items)`` of each forced order of ``kind``.

        ``"coherence"``: one per location with writes (label: location);
        ``"total"``: one over every write; ``("partition", k)``: one per
        block (label: block index); ``"labeled"``: one over the labeled
        operations, in each processor's program order.
        """
        hp = self.hp
        ops = hp.ops
        if kind == "coherence":
            return [
                (loc, self.coh, hp.writers_by_loc[loc])
                for loc in hp.history.locations
                if loc in hp.writers_by_loc
            ]
        if kind == "labeled":
            groups = [(None, tuple(i for i in range(hp.n) if ops[i].labeled))]
            base = [0] * hp.n
        elif kind == "total":
            groups = [(None, tuple(hp.write_idx))]
            base = self.coh
        else:
            block = partition_block_map(hp.history, kind[1])
            groups = [
                (b, tuple(i for i in hp.write_idx if block[ops[i].location] == b))
                for b in range(kind[1])
            ]
            base = self.coh
        out = []
        for label, items in groups:
            # Each processor's items in program order form a chain:
            # items ascend and processors own contiguous index ranges.
            masks = list(base)
            for prev, i in zip(items, items[1:]):
                if self.proc_end[prev] == self.proc_end[i]:
                    masks[i] |= 1 << prev
            out.append((label, masks, items))
        return out

    def _candidate(
        self, kind: Any, orders: Sequence[tuple[Any, tuple[int, ...]]]
    ) -> _Candidate:
        """The agreed candidate of one linear extension per forced order."""
        hp = self.hp
        ops = hp.ops
        coh_idx: list[tuple[str, tuple[int, ...]]] | None = None
        if kind == "coherence":
            coh_idx = [(loc, order) for loc, order in orders]
        elif kind != "labeled":
            grouped: dict[str, list[int]] = {}
            for _, order in orders:
                for g in order:
                    grouped.setdefault(ops[g].location, []).append(g)
            coh_idx = [(loc, tuple(order)) for loc, order in grouped.items()]
        coherence = (
            None
            if coh_idx is None
            else {loc: tuple(ops[g] for g in order) for loc, order in coh_idx}
        )
        return coherence, coh_idx, tuple(order for _, order in orders if order)

    def admit_object(self, kind: Any) -> _Candidate | None:
        """The deterministic agreed object of ``kind``; ``None`` if cyclic.

        Each forced order's :func:`_kahn` extension (per location for
        coherence agreement, global for total-write-order agreement, per
        block for partition agreement, over the labeled operations for
        hybrid consistency).
        """
        if kind in self._admit:
            return self._admit[kind]
        orders = []
        candidate: _Candidate | None = None
        for label, masks, items in self._write_orders(kind):
            order = _kahn(restrict_masks(masks, items))
            if order is None:
                break
            orders.append((label, tuple(items[k] for k in order)))
        else:
            candidate = self._candidate(kind, orders)
        self._admit[kind] = candidate
        return candidate

    def agreed(self, kind: Any) -> tuple[list[_Candidate], bool]:
        """Every agreed-order choice of ``kind``, hard-capped.

        Returns the candidate list and whether it is *exhaustive* — every
        admissible agreed object extends the forced edges, so enumerating
        all (capped) linear extensions covers every possibility.  An
        incomplete list may still ADMIT (each candidate is sufficient on
        its own) but can never ground a DENY.
        """
        hit = self._agreed.get(kind)
        if hit is not None:
            return hit
        complete = True
        per_order: list[list[tuple[Any, tuple[int, ...]]]] = []
        size = 1
        for label, masks, items in self._write_orders(kind):
            orders, order_complete = _bounded_extensions(
                restrict_masks(masks, items), _MAX_AGREED_CANDIDATES
            )
            complete = complete and order_complete
            size *= max(len(orders), 1)
            per_order.append(
                [(label, tuple(items[k] for k in order)) for order in orders]
            )
        if size > _MAX_AGREED_CANDIDATES:
            complete = False
        if kind in ("total", "labeled"):
            candidates = [self._candidate(kind, [o]) for o in per_order[0]]
        else:
            candidates = [
                self._candidate(kind, combo)
                for combo in islice(product(*per_order), _MAX_AGREED_CANDIDATES)
            ]
        hit = (candidates, complete)
        self._agreed[kind] = hit
        return hit


def _tables(hp: HistoryPlane) -> _Tables:
    tables = hp.masks.get(_TABLES_KEY)
    if tables is None:
        tables = hp.masks[_TABLES_KEY] = _Tables(hp)
    return tables


@dataclass(frozen=True)
class PrepassVerdict:
    """The outcome of the pre-pass: a definite DENY or ADMIT, or UNKNOWN.

    Attributes
    ----------
    model:
        The spec the verdict is about.
    decided:
        ``True`` for a definite verdict in either direction.
    allowed:
        The verdict's polarity when decided: ``True`` means the
        ``admit-witness`` rule constructed legal views (see
        :attr:`witness`), ``False`` a necessary condition failed.
    check:
        The rule that decided (``"rf-sanity"``, ``"write-order-cycle"``,
        ``"view-cycle"`` or ``"admit-witness"``); empty when undecided.
    counterexample:
        For decided DENYs: the structured reason, in the same
        :class:`~repro.kernel.results.Counterexample` shape ``repro
        explain`` renders.
    witness:
        For decided ADMITs: the constructed legal views plus the
        reads-from attribution and agreed coherence order they embed —
        the same :class:`~repro.kernel.results.Witness` shape the search
        returns, so callers can re-verify the claim mechanically.
    checks_run:
        Which rules were evaluated (for metrics and tests).
    """

    model: str
    decided: bool
    allowed: bool = False
    check: str = ""
    counterexample: Counterexample | None = None
    witness: Witness | None = None
    checks_run: tuple[str, ...] = ()

    @property
    def reason(self) -> str:
        """One-line reason for a decided DENY (empty otherwise)."""
        return self.counterexample.detail if self.counterexample else ""

    def to_result(self) -> CheckResult:
        """The decided verdict as a kernel :class:`CheckResult`.

        Only meaningful when :attr:`decided` is set; the result carries
        ``explored=0`` — the search was never invoked.
        """
        if not self.decided:
            raise ValueError(f"{self.model}: undecided pre-pass has no result")
        if self.allowed:
            assert self.witness is not None  # decided admits always carry one
            return CheckResult(
                self.model,
                True,
                views=dict(self.witness.views),
                witness=self.witness,
            )
        return CheckResult(
            self.model,
            False,
            reason=self.reason,
            counterexample=self.counterexample,
        )


def _who(proc: Any) -> str:
    return "the common view" if proc is None else f"processor {proc!r}"


class HistoryPrepass:
    """The necessary-condition checks of one spec, compiled for reuse.

    Construction fixes *which* checks apply (from the spec's mutual
    consistency, bracketing and ordering parameters); :meth:`check` then
    runs them against a history in polynomial time.
    """

    def __init__(self, spec: MemoryModelSpec) -> None:
        self.spec = spec
        mc = spec.mutual_consistency
        self.coherence_class = mc in _COHERENCE_CLASS
        self.total_writes = mc in _TOTAL_CLASS
        self.identical = mc is MutualConsistency.IDENTICAL
        #: The DENY side's ordering: semi-causality needs a coherence order
        #: the pre-pass never fixes; ``->ppo`` is contained in every
        #: semi-causal relation, so a cycle through ppo edges is a cycle
        #: through every candidate ordering.
        self.deny_rule = PPO if spec.ordering.needs_coherence else spec.ordering
        #: The agreed object the admit-witness rule commits to, and the
        #: class the exhaustive rule enumerates (``None``: nothing agreed).
        self.admit_kind: Any = None
        self.agreed_kind: Any = None
        if mc is MutualConsistency.TOTAL_WRITE_ORDER:
            self.admit_kind = "total"
        elif mc is MutualConsistency.COHERENCE:
            self.admit_kind = "coherence"
        elif mc is MutualConsistency.PARTITION:
            assert spec.partition_blocks is not None  # spec validation
            self.admit_kind = ("partition", spec.partition_blocks)
        elif mc is MutualConsistency.LABELED_TOTAL_ORDER:
            self.admit_kind = "labeled"
        self.agreed_kind = "total" if self.total_writes else self.admit_kind
        checks = ["rf-sanity"]
        if self.coherence_class:
            checks.append("write-order-cycle")
        checks.append("view-cycle")
        checks.append("admit-witness")
        checks.append("agreement-exhausted")
        #: The rules this spec compiles to, in run order.
        self.checks: tuple[str, ...] = tuple(checks)

    def _rule_event(
        self, sink: TraceSink | None, rule: str, outcome: str, detail: str = ""
    ) -> None:
        """Narrate one rule's outcome to the active trace sink, if any."""
        if sink is not None:
            sink.emit(
                PrepassRule(
                    model=self.spec.name, rule=rule, outcome=outcome, detail=detail
                )
            )

    def check(self, history: SystemHistory) -> PrepassVerdict:
        """A definite DENY or ADMIT-with-witness, or UNKNOWN — never a guess."""
        spec = self.spec
        sink = active_sink()
        hp = history_plane(history)
        bad = impossible_read(history, hp.candidates)
        if bad is not None:
            reason = f"{bad} observes a value never written to {bad.location!r}"
            self._rule_event(sink, "rf-sanity", "deny", reason)
            return PrepassVerdict(
                spec.name,
                True,
                check="rf-sanity",
                counterexample=Counterexample(spec.name, "impossible-value", reason),
                checks_run=("rf-sanity",),
            )
        self._rule_event(sink, "rf-sanity", "pass")
        rf = hp.unique_rf
        if rf is None:
            # Legality edges are forced only under a fixed attribution;
            # with several candidate writers per read, leave the choice
            # (and the verdict) to the kernel's enumeration.
            for rule in self.checks[1:]:
                self._rule_event(sink, rule, "abstain")
            return PrepassVerdict(spec.name, False, checks_run=("rf-sanity",))
        tables = _tables(hp)
        ordering = tables.ordering(self.deny_rule)
        run = ["rf-sanity"]
        from_read: list[int] | None = None
        if self.coherence_class:
            run.append("write-order-cycle")
            cycle, from_read = tables.forced(
                self.deny_rule, ordering, self.total_writes
            )
            if cycle is not None:
                detail = (
                    "the forced write order (program-order write chains and "
                    "reads-from-implied coherence edges) is cyclic "
                    f"(cycle of {len(cycle) - 1} writes)"
                )
                self._rule_event(sink, "write-order-cycle", "deny", detail)
                return PrepassVerdict(
                    spec.name,
                    True,
                    check="write-order-cycle",
                    counterexample=Counterexample(
                        spec.name, "cyclic-constraints", detail, cycle=cycle
                    ),
                    checks_run=tuple(run),
                )
            self._rule_event(sink, "write-order-cycle", "pass")
        run.append("view-cycle")
        cx = self._view_cycle(tables, ordering, from_read)
        if cx is not None:
            self._rule_event(sink, "view-cycle", "deny", cx.detail)
            return PrepassVerdict(
                spec.name,
                True,
                check="view-cycle",
                counterexample=cx,
                checks_run=tuple(run),
            )
        self._rule_event(sink, "view-cycle", "pass")
        run.append("admit-witness")
        witness = self._admit_witness(tables, rf)
        if witness is not None:
            self._rule_event(
                sink,
                "admit-witness",
                "admit",
                "constructed a legal topological witness per view",
            )
            return PrepassVerdict(
                spec.name,
                True,
                allowed=True,
                check="admit-witness",
                witness=witness,
                checks_run=tuple(run),
            )
        self._rule_event(sink, "admit-witness", "abstain")
        run.append("agreement-exhausted")
        outcome = self._exhaust_agreements(tables, rf)
        if isinstance(outcome, Witness):
            self._rule_event(
                sink,
                "agreement-exhausted",
                "admit",
                "an enumerated agreed write order builds legal views",
            )
            return PrepassVerdict(
                spec.name,
                True,
                allowed=True,
                check="agreement-exhausted",
                witness=outcome,
                checks_run=tuple(run),
            )
        if outcome is not None:
            self._rule_event(sink, "agreement-exhausted", "deny", outcome.detail)
            return PrepassVerdict(
                spec.name,
                True,
                check="agreement-exhausted",
                counterexample=outcome,
                checks_run=tuple(run),
            )
        self._rule_event(sink, "agreement-exhausted", "abstain")
        return PrepassVerdict(spec.name, False, checks_run=tuple(run))

    # -- pieces ------------------------------------------------------------------

    def _with_ordering(
        self,
        common: list[int],
        ordering: Sequence[int],
        own: dict[Any, list[int]] | None,
        proc: Any,
    ) -> list[int]:
        """A view's universe graph: ``common`` plus the ordering it obeys.

        For own-view-only specs the ordering binds only the processor's
        own operations in its own view; otherwise (``own`` is ``None``) it
        is already part of ``common``.
        """
        if own is None:
            return common
        extra = ordering if proc is None else own[proc]
        return [a | b for a, b in zip(common, extra)]

    def _common(
        self,
        tables: _Tables,
        edges: Sequence[int],
        ordering: Sequence[int],
        extra: Sequence[int] | None,
    ) -> tuple[list[int], dict[Any, list[int]] | None]:
        """Universe edges shared by every view, and the own-view orderings.

        ``edges`` are the attribution edges, ``extra`` the from-read
        edges; bracketing joins for bracketing specs, the ordering unless
        it binds own views only.
        """
        common = list(edges)
        if extra is not None:
            common = [a | b for a, b in zip(common, extra)]
        if self.spec.bracketing:
            common = [a | b for a, b in zip(common, tables.bracketing())]
        if self.spec.ordering_own_view_only:
            if ordering is tables.ordering(self.deny_rule):
                own = tables.own(self.deny_rule)
            else:
                own = own_restriction(tables.hp, ordering)
            return common, own
        return [a | b for a, b in zip(common, ordering)], None

    def _view_cycle(
        self,
        tables: _Tables,
        ordering: list[int],
        from_read: list[int] | None,
    ) -> Counterexample | None:
        """A cycle in some per-view constraint graph, or ``None``.

        Each graph combines, over the view's members: the ordering
        (restricted to own operations for own-view-only specs), legality
        edges of the fixed attribution (source before its read; an
        initial-value read before every same-location write), bracketing
        edges, and — when a forced write order exists — from-read edges
        (a read precedes every write forced after its source).
        """
        common, own = self._common(tables, tables.prop, ordering, from_read)
        ops = tables.hp.ops
        for view in tables.views(self.spec, self.identical):
            masks = self._with_ordering(common, ordering, own, view.proc)
            local = restrict_masks(masks, view.members, view.gather)
            if masks_acyclic(local, len(local)):
                continue
            cycle = tuple(ops[view.members[k]] for k in _find_cycle(local))
            detail = (
                f"the static constraint graph for {_who(view.proc)} is cyclic "
                f"(cycle of {len(cycle) - 1} operations)"
            )
            return Counterexample(
                self.spec.name,
                "cyclic-constraints",
                detail,
                proc=view.proc,
                cycle=cycle,
            )
        return None

    def _candidate_ordering(
        self, tables: _Tables, coh_idx: list[tuple[str, tuple[int, ...]]] | None
    ) -> list[int]:
        """The ordering a witness must extend under one agreed candidate.

        The *real* ordering: the DENY side under-approximates
        semi-causality with ppo, but a witness must extend the ordering
        the chosen coherence order induces.
        """
        if not self.spec.ordering.needs_coherence:
            return tables.ordering(self.spec.ordering)
        assert coh_idx is not None  # guaranteed by spec validation
        return semi_causal_closure(
            plane_masks(tables.hp, (SEMI_CAUSAL, "parts")), coh_idx
        )

    def _local_base(
        self,
        view: _View,
        common: list[int],
        ordering: Sequence[int],
        own: dict[Any, list[int]] | None,
        chains: tuple[tuple[int, ...], ...],
    ) -> list[int] | None:
        """Ordering + agreed chains + bracketing + attribution edges, local.

        Each chain orders its members consecutively, skipping operations
        outside the view.  ``None`` means some read's unique source is not
        in the view at all — no legal view of these members exists,
        whatever the order.
        """
        if view.invisible:
            return None
        masks = self._with_ordering(common, ordering, own, view.proc)
        local = restrict_masks(masks, view.members, view.gather)
        pos = view.pos
        for chain in chains:
            prev = -1
            for g in chain:
                k = pos.get(g, -1)
                if k < 0:
                    continue
                if prev >= 0:
                    local[k] |= 1 << prev
                prev = k
        return local

    def _coherence_order(
        self, view: _View, coh_idx: list[tuple[str, tuple[int, ...]]]
    ) -> dict[str, list[int]]:
        """The agreed per-location write order, in the view's positions."""
        pos = view.pos
        return {
            loc: [pos[g] for g in chain if g in pos] for loc, chain in coh_idx
        }

    def _views_of(
        self, history: SystemHistory, view: _View, seq: list[Operation]
    ) -> dict[Any, View]:
        if view.proc is None:
            return {
                proc: View(proc, seq, history, validate=False)
                for proc in history.procs
            }
        return {view.proc: View(view.proc, seq, history, validate=False)}

    # -- the ADMIT side ----------------------------------------------------------

    def _admit_witness(self, tables: _Tables, rf: ReadsFrom) -> Witness | None:
        """A complete witness constructed greedily, or ``None`` to abstain.

        The construction commits to *one* agreed object — a deterministic
        topological extension of the forced write order (per location for
        coherence agreement, global for total-write-order agreement, over
        the labeled operations for hybrid consistency) — and then builds
        each view's constraint graph from the spec's ordering, the agreed
        chains, the bracketing edges, and *exact* legality pins: a read
        goes after its source write and before the next same-location
        write of the agreed order (an initial-value read before every
        same-location write).  Any topological order of that graph makes
        every read observe precisely its attributed source, so the views
        are legal, mutually consistent and ordering-respecting by
        construction.  Every failure — a cycle, a missing source, labeled
        operations under a labeled discipline — abstains; the rule never
        guesses.
        """
        spec = self.spec
        history = tables.hp.history
        if spec.labeled_discipline is not None and history.labeled_ops:
            # The labeled serializations are the NP-hard part (legal SC
            # orders / semi-causality of the labeled sub-history); leave
            # those histories to the search.
            return None
        agreed: _Candidate | None = (None, None, ())
        if self.admit_kind is not None:
            agreed = tables.admit_object(self.admit_kind)
            if agreed is None:
                return None
        coherence, coh_idx, chains = agreed
        ordering = self._candidate_ordering(tables, coh_idx)
        common, own = self._common(tables, tables.sources, ordering, None)
        ops = tables.hp.ops
        views: dict[Any, View] = {}
        for view in tables.views(spec, self.identical):
            local = self._local_base(view, common, ordering, own, chains)
            if local is None:
                return None
            order = self._admit_view(view, local, coh_idx)
            if order is None:
                return None
            seq = [ops[view.members[k]] for k in order]
            if first_legality_violation(seq) is not None:  # pragma: no cover
                # The construction argument guarantees legality; re-checking
                # is the cheap belt over those braces — abstain, never
                # mis-admit.
                return None
            views.update(self._views_of(history, view, seq))
        return Witness(views=views, reads_from=rf, coherence=coherence)

    def _admit_view(
        self,
        view: _View,
        local: list[int],
        coh_idx: list[tuple[str, tuple[int, ...]]] | None,
    ) -> list[int] | None:
        """One view as a pinned topological order, or ``None`` to abstain."""
        # The per-location write order this view will embed.  With a
        # coherence (or total) agreement it is the agreed order; without
        # one, derive a view-local order from a topological probe of the
        # constraints collected so far and freeze it with chain edges.
        if coh_idx is not None:
            loc_order = self._coherence_order(view, coh_idx)
        else:
            probe = _kahn(local)
            if probe is None:
                return None
            rank = [0] * len(local)
            for i, k in enumerate(probe):
                rank[k] = i
            loc_order = {}
            for loc, ws in view.writes.items():
                order = sorted(ws, key=rank.__getitem__)
                loc_order[loc] = order
                for a, b in zip(order, order[1:]):
                    local[b] |= 1 << a
        if not _pin(local, view.reads, loc_order):
            return None
        return _kahn(local)

    # -- exhaustive agreement enumeration ----------------------------------------

    def _exhaust_agreements(
        self, tables: _Tables, rf: ReadsFrom
    ) -> Witness | Counterexample | None:
        """Decide by enumerating every agreed write-order choice, capped.

        Each candidate agreed order makes the legality pins forced for
        views embedding it, so a candidate is either *built* (legal views
        exist — ADMIT, the candidate is a sufficient witness) or
        *refuted* (a pinned view graph is cyclic — no legal views embed
        it).  When the candidate list is exhaustive and every candidate
        is refuted, no agreed order works at all: a sound DENY.  Any
        non-decisive failure — the cap, a defensive legality re-check —
        degrades the DENY side to an abstention.  Labeled-discipline
        specs on labeled histories can still be denied this way (the
        discipline only *adds* requirements) but never admitted.
        """
        spec = self.spec
        history = tables.hp.history
        labeled_hard = spec.labeled_discipline is not None and bool(
            history.labeled_ops
        )
        if self.agreed_kind is None:
            candidates: list[_Candidate] = [(None, None, ())]
            complete = True
        else:
            candidates, complete = tables.agreed(self.agreed_kind)
        views = tables.views(spec, self.identical)
        all_decisive = True
        last_cx: Counterexample | None = None
        for coherence, coh_idx, chains in candidates:
            if spec.ordering.needs_coherence and coh_idx is None:
                all_decisive = False  # pragma: no cover - spec validation
                continue
            ordering = self._candidate_ordering(tables, coh_idx)
            common, own = self._common(tables, tables.sources, ordering, None)
            seqs: list[tuple[_View, list[Operation]]] = []
            refuted: Counterexample | None = None
            stuck = False
            for view in views:
                local = self._local_base(view, common, ordering, own, chains)
                seq, cx = self._exhaust_view(tables.hp.ops, view, local, coh_idx)
                if seq is None:
                    if cx is None:
                        stuck = True
                    else:
                        refuted = cx
                    break
                seqs.append((view, seq))
            if refuted is None and not stuck:
                if labeled_hard:
                    # This candidate satisfies the base requirements; only
                    # the labeled discipline is unverified.  Neither an
                    # ADMIT (the discipline may fail) nor a DENY (it may
                    # hold) — the whole rule abstains.
                    all_decisive = False
                    continue
                built: dict[Any, View] = {}
                for view, seq in seqs:
                    built.update(self._views_of(history, view, seq))
                return Witness(views=built, reads_from=rf, coherence=coherence)
            if stuck:
                all_decisive = False
            else:
                last_cx = refuted
        if complete and all_decisive and last_cx is not None:
            detail = (
                f"all {len(candidates)} agreed write-order choices are "
                f"refuted; e.g. {last_cx.detail}"
            )
            return Counterexample(
                spec.name,
                "cyclic-constraints",
                detail,
                proc=last_cx.proc,
                cycle=last_cx.cycle,
            )
        return None

    def _exhaust_view(
        self,
        ops: Sequence[Operation],
        view: _View,
        local: list[int] | None,
        coh_idx: list[tuple[str, tuple[int, ...]]] | None,
    ) -> tuple[list[Operation] | None, Counterexample | None]:
        """Build one view under a fixed agreed order, or refute it.

        Returns ``(sequence, None)`` on success, ``(None, counterexample)``
        when the candidate is *decisively* refuted for this view (the
        pinned graph is cyclic, or a read's unique source never enters the
        view), and ``(None, None)`` when nothing can be concluded.  With
        ``coh_idx`` fixed the graph is deterministic; without one (no
        cross-view agreement) the view's own per-location write orders are
        enumerated exhaustively, capped — all refuted and complete means
        the view itself is impossible.
        """
        spec = self.spec
        proc = view.proc
        who = _who(proc)
        members = view.members
        if local is None:
            return None, Counterexample(
                spec.name,
                "invisible-source",
                f"a read in {who} observes a value whose unique writer "
                "never enters that view",
                proc=proc,
            )
        v = len(local)
        if coh_idx is not None:
            if not _pin(local, view.reads, self._coherence_order(view, coh_idx)):
                return None, None  # defensive: a source outside its order
            if not masks_acyclic(local, v):
                cycle = tuple(ops[members[k]] for k in _find_cycle(local))
                return None, Counterexample(
                    spec.name,
                    "cyclic-constraints",
                    f"the pinned constraint graph for {who} is cyclic "
                    f"(cycle of {len(cycle) - 1} operations)",
                    proc=proc,
                    cycle=cycle,
                )
            order = _kahn(local)
            assert order is not None  # acyclic
            seq = [ops[members[k]] for k in order]
            if first_legality_violation(seq) is not None:  # pragma: no cover
                return None, None
            return seq, None
        # No agreed per-location order: the view chooses its own.  Every
        # legal sequence's induced write order extends the base graph's
        # forced pairs, so enumerating the extensions is exhaustive.
        if not masks_acyclic(local, v):
            cycle = tuple(ops[members[k]] for k in _find_cycle(local))
            return None, Counterexample(
                spec.name,
                "cyclic-constraints",
                f"the constraint graph for {who} is cyclic "
                f"(cycle of {len(cycle) - 1} operations)",
                proc=proc,
                cycle=cycle,
            )
        closure = close_masks(local)
        per_loc: list[list[tuple[str, tuple[int, ...]]]] = []
        complete = True
        size = 1
        for loc, ws in sorted(view.writes.items()):
            orders, loc_complete = _bounded_extensions(
                restrict_masks(closure, ws), _MAX_AGREED_CANDIDATES
            )
            complete = complete and loc_complete
            size *= max(len(orders), 1)
            per_loc.append([(loc, tuple(ws[i] for i in o)) for o in orders])
        if size > _MAX_AGREED_CANDIDATES:
            complete = False
        last: list[int] | None = None
        for combo in islice(product(*per_loc), _MAX_AGREED_CANDIDATES):
            trial = list(local)
            loc_order: dict[str, list[int]] = {}
            for loc, chain in combo:
                loc_order[loc] = list(chain)
                for a, b in zip(chain, chain[1:]):
                    trial[b] |= 1 << a
            if not _pin(trial, view.reads, loc_order):
                complete = False
                continue
            if not masks_acyclic(trial, v):
                last = trial
                continue
            order = _kahn(trial)
            assert order is not None  # acyclic
            seq = [ops[members[k]] for k in order]
            if first_legality_violation(seq) is not None:  # pragma: no cover
                complete = False
                continue
            return seq, None
        if complete and last is not None:
            cycle = tuple(ops[members[k]] for k in _find_cycle(last))
            return None, Counterexample(
                spec.name,
                "cyclic-constraints",
                f"every per-view write order for {who} is refuted "
                f"(e.g. a cycle of {len(cycle) - 1} operations)",
                proc=proc,
                cycle=cycle,
            )
        return None, None


@lru_cache(maxsize=128)
def compile_prepass(spec: MemoryModelSpec) -> HistoryPrepass:
    """The compiled pre-pass of ``spec`` (cached: specs are few, reuse is hot)."""
    return HistoryPrepass(spec)


def prepass_check(spec: MemoryModelSpec, history: SystemHistory) -> PrepassVerdict:
    """Run the compiled pre-pass of ``spec`` against ``history``."""
    return compile_prepass(spec).check(history)
