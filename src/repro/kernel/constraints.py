"""Layer 3 of the constraint kernel: spec compilation onto the mask plane.

A :class:`~repro.spec.model_spec.MemoryModelSpec` is declarative; this layer
*compiles* it, for one history, into the integer-bitmask data plane the
search layer runs on:

* the operation universe (``history.operations``) with per-operation
  location ids and read/write payloads,
* each processor's view membership (parameter 1) as index lists in the
  view-contents order the witnesses are built in,
* the per-view ordering constraints (parameter 3) plus release
  consistency's bracketing edges as predecessor bitmasks, and
* the reads-from propagation edges that make the search incremental
  (see :func:`CompiledConstraints.candidate_propagation`).

Compilation is split into what depends on the history and spec alone
(:class:`CompiledConstraints`, cacheable across checks — the engine's
:class:`~repro.engine.cache.RelationCache` stores these keyed by
``(history, spec.cache_key)``) and what depends on the reads-from
attribution (:class:`AttributionPlane`, one per enumerated attribution and
cached for the unambiguous one).

Mask conventions: ``masks[j]`` bit ``i`` set means *operation i must precede
operation j*.  :func:`close_masks` is a bitset Floyd–Warshall transitive
closure; :func:`masks_acyclic` a Kahn peeling test.  Both replace the
``Relation``-object churn the pre-kernel solver paid per candidate.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Iterable, Mapping, Sequence

from repro.core.errors import KernelError
from repro.core.history import SystemHistory
from repro.core.operation import INITIAL_VALUE, Operation
from repro.orders.memo import active_memo
from repro.orders.relation import Relation
from repro.orders.writes_before import ReadsFrom, reads_from_candidates
from repro.spec.model_spec import MemoryModelSpec
from repro.spec.parameters import (
    PPO,
    SEMI_CAUSAL,
    MutualConsistency,
    OperationSet,
)

__all__ = [
    "CompiledConstraints",
    "AttributionPlane",
    "HistoryPlane",
    "ViewPlane",
    "compile_constraints",
    "configure_plane_cache",
    "history_plane",
    "install_plane",
    "plane_cache_stats",
    "extend_plane",
    "bracketing_edges",
    "chain_masks",
    "close_masks",
    "insert_bit",
    "mask_gather",
    "masks_acyclic",
    "own_restriction",
    "plane_masks",
    "restrict_masks",
    "semi_causal_closure",
]


# -- mask primitives ----------------------------------------------------------


def chain_masks(masks: list[int], chain: Iterable[int]) -> None:
    """Add the total order of ``chain`` (universe indices) into ``masks``.

    Each chain member's predecessor mask gains every earlier member, i.e.
    the full set of within-chain pairs — already transitively closed, so a
    chain never needs re-closing.
    """
    seen = 0
    for i in chain:
        masks[i] |= seen
        seen |= 1 << i


def close_masks(masks: Sequence[int]) -> list[int]:
    """Transitive closure of predecessor masks (bitset Floyd–Warshall)."""
    out = list(masks)
    n = len(out)
    for k in range(n):
        pk = out[k]
        if not pk:
            continue
        bit = 1 << k
        for i in range(n):
            if out[i] & bit:
                out[i] |= pk
    return out


def masks_acyclic(masks: Sequence[int], n: int) -> bool:
    """True when the constraint graph the masks encode has no cycle."""
    remaining = (1 << n) - 1
    changed = True
    while remaining and changed:
        changed = False
        m = remaining
        while m:
            bit = m & -m
            m ^= bit
            if not masks[bit.bit_length() - 1] & remaining:
                remaining ^= bit
                changed = True
    return not remaining


def mask_gather(members: Sequence[int]) -> tuple[tuple[int, int, int], ...]:
    """The run table :func:`restrict_masks` gathers ``members`` with.

    One ``(universe start, width mask, local start)`` triple per run of
    consecutive universe indices in ``members``.  A view's table depends
    on its members alone, so :class:`ViewPlane` builds it once.
    """
    runs: list[list[int]] = []  # [universe start, length, local start]
    for k, g in enumerate(members):
        if runs and runs[-1][0] + runs[-1][1] == g:
            runs[-1][1] += 1
        else:
            runs.append([g, 1, k])
    return tuple((g0, (1 << length) - 1, k0) for g0, length, k0 in runs)


def restrict_masks(
    masks: Sequence[int],
    members: Sequence[int],
    gather: Sequence[tuple[int, int, int]] | None = None,
) -> list[int]:
    """Re-index universe masks onto the sub-universe ``members``.

    ``members`` lists universe indices in view-contents order; the result
    is the predecessor masks of the restriction, in local bit positions.
    Views are a few runs of consecutive universe indices (the owner's
    range, then remote operations), so each row is gathered a run at a
    time with one shift and mask instead of bit by bit.  ``gather`` is
    ``mask_gather(members)``, passed in by callers that hold it.
    """
    if gather is None:
        gather = mask_gather(members)
    out = []
    for gj in members:
        m = masks[gj]
        local = 0
        for g0, width, k0 in gather:
            local |= ((m >> g0) & width) << k0
        out.append(local)
    return out


def insert_bit(mask: int, pos: int) -> int:
    """Renumber a mask for a universe that gained an index at ``pos``.

    Bits at positions ``>= pos`` shift up by one; bit ``pos`` of the
    result is clear (the new operation is related to nothing until its
    own row says otherwise).
    """
    low = mask & ((1 << pos) - 1)
    return ((mask >> pos) << (pos + 1)) | low


# -- release consistency's bracketing (moved verbatim from the old solver) ----


def bracketing_edges(history: SystemHistory, rf: ReadsFrom) -> Relation[Operation]:
    """Release consistency's two bracketing conditions (Section 3.4).

    * An ordinary operation following an acquire is ordered after the write
      the acquire read, in every view containing both.
    * An ordinary operation preceding a release is ordered before that
      release, in every view containing both.
    """
    rel: Relation[Operation] = Relation(history.operations)
    for proc in history.procs:
        ops = history.ops_of(proc)
        for op in ops:
            if op.labeled:
                continue
            # Acquires earlier in program order bracket this ordinary op.
            for earlier in ops[: op.index]:
                if earlier.is_acquire:
                    src = rf.get(earlier)
                    if src is not None:
                        rel.add(src, op)
            # Releases later in program order bracket it from above.
            for later in ops[op.index + 1:]:
                if later.is_release:
                    rel.add(op, later)
    return rel


# -- compiled planes ----------------------------------------------------------


class ViewPlane:
    """One processor's static view data: membership and legality payloads.

    Built by slicing the universe payload arrays of the owning
    :class:`CompiledConstraints` — the per-operation classification work is
    done once per compilation, not once per view.
    """

    __slots__ = (
        "proc",
        "members",
        "gather",
        "op_loc",
        "read_vals",
        "write_vals",
        "n_locs",
    )

    def __init__(
        self,
        proc: Any,
        members: Sequence[int],
        uni_loc: Sequence[int],
        uni_read: Sequence[int | None],
        uni_write: Sequence[int | None],
    ) -> None:
        self.proc = proc
        self.members: tuple[int, ...] = tuple(members)
        #: :func:`restrict_masks`'s run table for :attr:`members`.
        self.gather = mask_gather(self.members)
        # Local location ids: ranks of the universe location ids present in
        # this view.  Universe ids follow sorted location-name order, so
        # ranking preserves the sorted-name order the search's memory-state
        # tuples are laid out in.
        present = sorted({uni_loc[g] for g in self.members})
        rank = {u: i for i, u in enumerate(present)}
        self.n_locs = len(present)
        self.op_loc: tuple[int, ...] = tuple(rank[uni_loc[g]] for g in self.members)
        self.read_vals: tuple[int | None, ...] = tuple(
            uni_read[g] for g in self.members
        )
        self.write_vals: tuple[int | None, ...] = tuple(
            uni_write[g] for g in self.members
        )


_UNSET = object()


class HistoryPlane:
    """The spec-independent compiled data of one history.

    A sweep checks the same history against many specs (the registry has a
    dozen; the lattice enumerates hundreds), and everything here is a
    function of the history alone, so the kernel shares one instance across
    those checks through a bounded identity-keyed LRU
    (:func:`history_plane`).  Entries in :attr:`masks` are keyed by an
    ordering rule (or a derived tag) and are populated only under the
    *unique* reads-from attribution, where the attribution-dependent
    relations collapse to functions of the history.
    """

    __slots__ = (
        "history",
        "ops",
        "index",
        "at",
        "n",
        "uni_loc",
        "uni_read",
        "uni_write",
        "writers_by_loc",
        "write_idx",
        "ranges",
        "_views",
        "_universe_plane",
        "_candidates",
        "_unique_rf",
        "masks",
    )

    def __init__(self, history: SystemHistory) -> None:
        self.history = history
        self.ops: tuple[Operation, ...] = history.operations
        # Keyed by operation *value*, not identity: the engine's relation
        # cache serves one table to value-equal histories (two parses of the
        # same litmus text), so a compiled plane must accept the equal twin's
        # operation objects.  Values are unique within a history (proc,
        # index), so the map is bijective either way.
        self.index: dict[Operation, int] = {op: i for i, op in enumerate(self.ops)}
        #: The same map keyed by object identity, for per-candidate chain
        #: mapping: an ``id`` is an int, so a lookup never runs the
        #: dataclass ``__hash__``.  The plane holds ``ops`` alive, so a hit
        #: is always that very operation; a value-equal twin's operations
        #: miss and fall back to :attr:`index` (:meth:`positions`).
        self.at: dict[int, int] = {id(op): i for i, op in enumerate(self.ops)}
        self.n = len(self.ops)
        # One classification pass over the universe; every view plane is a
        # slice of these arrays.  Location ids follow sorted location-name
        # order (``history.locations``), matching the per-view inventories
        # the pre-kernel solver derived independently per view.
        loc_id = {loc: i for i, loc in enumerate(history.locations)}
        uni_loc: list[int] = []
        uni_read: list[int | None] = []
        uni_write: list[int | None] = []
        writers: dict[str, list[int]] = {}
        for i, op in enumerate(self.ops):
            uni_loc.append(loc_id[op.location])
            uni_read.append(op.value_read if op.is_read else None)
            if op.is_write:
                uni_write.append(op.value_written)
                writers.setdefault(op.location, []).append(i)
            else:
                uni_write.append(None)
        self.uni_loc = uni_loc
        self.uni_read = uni_read
        self.uni_write = uni_write
        self.writers_by_loc: dict[str, tuple[int, ...]] = {
            loc: tuple(idxs) for loc, idxs in writers.items()
        }
        self.write_idx: list[int] = [
            i for i, v in enumerate(uni_write) if v is not None
        ]
        # ``history.operations`` groups operations by processor, so each
        # processor's own operations are one contiguous index range and the
        # remote part of its view is the universe order outside that range
        # (exactly ``OperationSet.view_contents``'s order).
        ranges: dict[Any, tuple[int, int]] = {}
        start = 0
        for proc in history.procs:
            end = start + len(history[proc])
            ranges[proc] = (start, end)
            start = end
        self.ranges = ranges
        self._views: dict[OperationSet, dict[Any, ViewPlane]] = {}
        self._universe_plane: ViewPlane | None = None
        self._candidates: Any = None
        self._unique_rf: Any = _UNSET
        self.masks: dict[Any, Any] = {}

    def positions(self, ops: Iterable[Operation]) -> list[int]:
        """Universe indices of ``ops``, hashing no ``Operation`` when it can."""
        at = self.at
        try:
            return [at[id(op)] for op in ops]
        except KeyError:  # operations of a value-equal twin history
            index = self.index
            return [index[op] for op in ops]

    def views(self, operation_set: OperationSet) -> dict[Any, ViewPlane]:
        """Per-processor view planes for one choice of parameter 1."""
        cached = self._views.get(operation_set)
        if cached is None:
            all_remote = operation_set is OperationSet.ALL_REMOTE
            cached = {}
            for proc, (start, end) in self.ranges.items():
                if all_remote:
                    remote = [i for i in range(self.n) if i < start or i >= end]
                else:
                    remote = [i for i in self.write_idx if i < start or i >= end]
                cached[proc] = ViewPlane(
                    proc,
                    list(range(start, end)) + remote,
                    self.uni_loc,
                    self.uni_read,
                    self.uni_write,
                )
            self._views[operation_set] = cached
        return cached

    @property
    def universe_plane(self) -> ViewPlane:
        """Payloads for the whole-universe search of IDENTICAL models."""
        if self._universe_plane is None:
            self._universe_plane = ViewPlane(
                None, range(self.n), self.uni_loc, self.uni_read, self.uni_write
            )
        return self._universe_plane

    @property
    def candidates(self):
        """The per-read candidate-source table (layer 1's input)."""
        if self._candidates is None:
            self._candidates = reads_from_candidates(self.history)
        return self._candidates

    @property
    def unique_rf(self) -> ReadsFrom | None:
        """The unique attribution when every read has at most one candidate.

        ``None`` when the history is ambiguous and layer 1 must enumerate.
        The dict matches :func:`repro.kernel.rf.iter_attributions`'s
        unambiguous yield exactly.
        """
        if self._unique_rf is _UNSET:
            cands = self.candidates
            if all(len(c) <= 1 for c in cands.values()):
                self._unique_rf = {op: c[0] for op, c in cands.items() if c}
            else:
                self._unique_rf = None
        return self._unique_rf


#: Bounded keyed LRU of compiled planes: ``id(history) -> (history, plane)``.
#: Entries hold their history strongly, which both keeps the id stable for
#: the entry's lifetime and guarantees a live id can never be recycled by
#: a different history while it is cached (the identity check is a
#: belt-and-braces second line).  Replaces the original single slot, under
#: which interleaved :class:`~repro.engine.session.EngineSession`\ s evicted
#: each other's grown planes on every append.
_PLANE_CACHE: "OrderedDict[int, tuple[SystemHistory, HistoryPlane]]" = OrderedDict()
_PLANE_CAPACITY = 64

#: Plane-cache observability counters (read via :func:`plane_cache_stats`).
_PLANE_HITS = 0
_PLANE_MISSES = 0
_PLANE_EVICTIONS = 0

#: Guards the cache and its counters: the serve layer runs checks on a
#: thread-pool executor, so lookups, LRU reordering, inserts, and
#: evictions interleave across threads.  Without the lock, an eviction
#: between another thread's ``get`` hit and its ``move_to_end`` raises
#: ``KeyError``, and the counters drop increments.  Plane *compilation*
#: stays outside the lock — concurrent misses may compile twice, which
#: is wasteful but harmless (last insert wins).
_PLANE_LOCK = threading.Lock()


def plane_cache_stats() -> dict[str, int]:
    """Hit/miss/eviction counters and current size of the plane cache.

    Cumulative for the process (the serve layer folds them into
    ``/stats``); reset with :func:`configure_plane_cache`.
    """
    with _PLANE_LOCK:
        return {
            "hits": _PLANE_HITS,
            "misses": _PLANE_MISSES,
            "evictions": _PLANE_EVICTIONS,
            "size": len(_PLANE_CACHE),
            "capacity": _PLANE_CAPACITY,
        }


def configure_plane_cache(capacity: int | None = None) -> None:
    """Resize the plane cache and reset its contents and counters.

    ``capacity=None`` keeps the current bound.  Mainly for tests and for
    long-lived daemons that want a different residency/memory trade-off;
    capacity must cover the histories interleaved checks touch between
    repeats for the LRU to help (the default 64 covers the serve layer's
    default session bound).
    """
    global _PLANE_CAPACITY, _PLANE_HITS, _PLANE_MISSES, _PLANE_EVICTIONS
    if capacity is not None and capacity < 1:
        raise KernelError(f"plane cache capacity must be >= 1, got {capacity}")
    with _PLANE_LOCK:
        if capacity is not None:
            _PLANE_CAPACITY = capacity
        _PLANE_CACHE.clear()
        _PLANE_HITS = _PLANE_MISSES = _PLANE_EVICTIONS = 0


def _plane_cache_insert(history: SystemHistory, plane: HistoryPlane) -> None:
    global _PLANE_EVICTIONS
    with _PLANE_LOCK:
        _PLANE_CACHE[id(history)] = (history, plane)
        _PLANE_CACHE.move_to_end(id(history))
        while len(_PLANE_CACHE) > _PLANE_CAPACITY:
            _PLANE_CACHE.popitem(last=False)
            _PLANE_EVICTIONS += 1


def history_plane(history: SystemHistory) -> HistoryPlane:
    """The shared :class:`HistoryPlane` of ``history`` (identity-cached).

    A bounded keyed LRU: sweeps hit on consecutive specs over one
    history, and interleaved streams (several live :class:`EngineSession`\\ s
    appending in turn) each keep their own entry instead of evicting the
    others.  A cold entry is merely rebuilt — the cache is keyed by
    object identity, never by value.
    """
    global _PLANE_HITS, _PLANE_MISSES
    key = id(history)
    with _PLANE_LOCK:
        entry = _PLANE_CACHE.get(key)
        if entry is not None and entry[0] is history:
            _PLANE_HITS += 1
            _PLANE_CACHE.move_to_end(key)
            return entry[1]
        _PLANE_MISSES += 1
    plane = HistoryPlane(history)
    _plane_cache_insert(history, plane)
    return plane


def install_plane(history: SystemHistory, plane: HistoryPlane) -> None:
    """Make ``plane`` the one :func:`history_plane` returns for ``history``.

    The incremental session's hook: after growing a plane in place
    (:func:`extend_plane`) the session installs it so the stock driver —
    which derives its plane through :func:`history_plane` — runs on the
    extended data instead of recompiling.  The warm worker pool uses the
    same hook to seed planes decoded from the shared-memory arena.
    Installing a plane that was not built for ``history`` corrupts every
    later check of it; only those two callers should install.
    """
    _plane_cache_insert(history, plane)


def _extended_rule_row(
    rule: Any,
    old: HistoryPlane,
    rows: Sequence[int],
    op: Operation,
    src: Operation | None,
) -> int | None:
    """``op``'s predecessor mask under ``rule``, in *old* universe bits.

    ``op`` is maximal (appended last on its processor, observed by no
    read), so its row is a function of the old closed rows plus the
    direct base edges into it; the old rows themselves are unchanged.
    Returns ``None`` for rules this extension does not understand.
    """
    start, end = old.ranges.get(op.proc, (0, 0))
    name = getattr(rule, "name", None)
    if name == "po":
        return ((1 << end) - 1) ^ ((1 << start) - 1)
    if name == "po-loc":
        row = 0
        for q in range(start, end):
            if old.ops[q].location == op.location:
                row |= 1 << q
        return row
    if name == "po-sync":
        row = 0
        for q in range(start, end):
            if old.ops[q].labeled or op.labeled:
                row |= rows[q] | (1 << q)
        return row
    if name == "ppo":
        from repro.orders.program_order import _ppo_base_condition

        row = 0
        for q in range(start, end):
            if _ppo_base_condition(old.ops[q], op):
                row |= rows[q] | (1 << q)
        return row
    if name == "causal":
        row = 0
        if end > start:
            row |= rows[end - 1] | (1 << (end - 1))
        if src is not None:
            isrc = old.index[src]
            row |= rows[isrc] | (1 << isrc)
        return row
    return None


def _extended_bracketing_row(
    old: HistoryPlane,
    op: Operation,
    rf: ReadsFrom,
) -> int:
    """``op``'s bracketing predecessor mask, in old universe bits."""
    start, end = old.ranges.get(op.proc, (0, 0))
    row = 0
    if op.labeled:
        if op.is_release:
            # Every earlier ordinary operation precedes the new release.
            for q in range(start, end):
                if not old.ops[q].labeled:
                    row |= 1 << q
        return row
    # A new ordinary operation follows the write each earlier acquire read.
    for q in range(start, end):
        earlier = old.ops[q]
        if earlier.is_acquire:
            seen = rf.get(earlier)
            if seen is not None:
                row |= 1 << old.index[seen]
    return row


def extend_plane(
    old: HistoryPlane, history: SystemHistory, op: Operation
) -> HistoryPlane:
    """A plane for ``history`` = ``old.history`` + ``op``, grown from ``old``.

    The caller (:class:`~repro.kernel.incremental.HistoryStream`)
    guarantees the *non-rescue* precondition: ``old`` has a unique
    reads-from attribution, no existing read gains ``op`` as a candidate
    source, and ``op`` itself has at most one candidate source.  Under it
    every attribution-derived relation keeps its old pairs and gains only
    edges into ``op``, so the cached candidate table and ordering masks
    extend in place (a bit-renumbering plus one new row per rule) instead
    of being recomputed from the relations — the payload arrays, ranges
    and index are rebuilt fresh, which is a single linear pass.

    The result is value-identical to ``HistoryPlane(history)`` with its
    caches warm; equality is pinned by ``tests/kernel/test_incremental``.
    """
    plane = HistoryPlane(history)
    pos = plane.index[op]

    # Candidate table, in the new universe order.  Old reads keep their
    # candidate tuples verbatim (non-rescue); the new read derives its own.
    old_candidates = old.candidates
    candidates: dict[Operation, tuple[Operation | None, ...]] = {}
    src: Operation | None = None
    for o in plane.ops:
        if not o.is_read:
            continue
        if o == op:
            cands: list[Operation | None] = [
                plane.ops[iw]
                for iw in plane.writers_by_loc.get(op.location, ())
                if plane.uni_write[iw] == op.value_read
                and plane.ops[iw].uid != op.uid
            ]
            if op.value_read == INITIAL_VALUE:
                cands.append(None)
            candidates[o] = tuple(cands)
            if candidates[o]:
                src = candidates[o][0]
        else:
            candidates[o] = old_candidates[o]
    plane._candidates = candidates
    if all(len(c) <= 1 for c in candidates.values()):
        plane._unique_rf = {o: c[0] for o, c in candidates.items() if c}
    else:
        plane._unique_rf = None

    rf = old.unique_rf
    if rf is None or plane._unique_rf is None:
        # The masks cache is only ever consulted under a unique
        # attribution, so there is nothing sound to carry.
        return plane

    for key, value in old.masks.items():
        if key == "prop":
            old_src_idx, old_prop = value
            src_idx = {
                (ir + 1 if ir >= pos else ir): (
                    isrc + 1 if 0 <= isrc and isrc >= pos else isrc
                )
                for ir, isrc in old_src_idx.items()
            }
            prop = [insert_bit(m, pos) for m in old_prop]
            prop.insert(pos, 0)
            if op.is_read:
                if src is not None:
                    isrc = plane.index[src]
                    src_idx[pos] = isrc
                    prop[pos] |= 1 << isrc
                elif op in plane._unique_rf:
                    src_idx[pos] = -1
                    for iw in plane.writers_by_loc.get(op.location, ()):
                        if iw != pos:
                            prop[iw] |= 1 << pos
            if op.is_write:
                for ir, isrc in old_src_idx.items():
                    if isrc < 0 and old.ops[ir].location == op.location:
                        prop[pos] |= 1 << (ir + 1 if ir >= pos else ir)
            plane.masks[key] = (src_idx, prop)
            continue
        if key == "bracketing":
            row = _extended_bracketing_row(old, op, rf)
            rows = [insert_bit(m, pos) for m in value]
            rows.insert(pos, insert_bit(row, pos))
            plane.masks[key] = rows
            continue
        if isinstance(key, tuple):
            # Own-view restrictions and semi-causality's parts are cheap
            # to rebuild on demand.
            continue
        row_old = _extended_rule_row(key, old, value, op, src if op.is_read else None)
        if row_old is None:
            continue
        rows = [insert_bit(m, pos) for m in value]
        rows.insert(pos, insert_bit(row_old, pos))
        plane.masks[key] = rows
    return plane


#: ``(base, later, reads)`` of :func:`_semi_causal_parts`.
SemiCausalParts = tuple[list[int], list[int], list[tuple[str, int, int]]]


def _semi_causal_parts(hp: HistoryPlane, rf: ReadsFrom) -> SemiCausalParts:
    """Semi-causality's parts that no coherence candidate changes.

    Returns ``(base, later, reads)``: ``base`` is the pred masks of
    ``ppo ∪ rwb``; ``later[w]`` is the mask of the writes ``w`` precedes
    in ppo (its own processor's later writes), zero for non-writes; and
    ``reads`` lists each attributed read as ``(location, read, source)``
    with source ``-1`` for an initial-value read.  ``rrb`` is then a
    function of coherence positions alone.
    """
    ppo = plane_masks(hp, PPO)
    writes = 0
    for iw in hp.write_idx:
        writes |= 1 << iw
    later = [0] * hp.n
    for j in hp.write_idx:
        m = ppo[j] & writes
        while m:
            low = m & -m
            later[low.bit_length() - 1] |= 1 << j
            m ^= low
    base = list(ppo)
    reads: list[tuple[str, int, int]] = []
    for r, src in rf.items():
        ir = hp.index[r]
        if src is None:
            reads.append((r.location, ir, -1))
            continue
        isrc = hp.index[src]
        # rwb: the writes ppo-before the source precede the read.
        base[ir] |= ppo[isrc] & writes
        reads.append((r.location, ir, isrc))
    return base, later, reads


def semi_causal_closure(
    parts: SemiCausalParts, coherence: Iterable[tuple[str, Sequence[int]]]
) -> list[int]:
    """``(ppo ∪ rwb ∪ rrb)+`` as closed pred masks for one coherence order.

    ``coherence`` yields each location's write chain as universe indices.
    Only ``rrb`` depends on it: a read precedes every write that is
    ppo-later than a write coherence-newer than its source.  Those bits
    go onto the precomputed ``ppo ∪ rwb`` masks, which are then closed.
    The diagonal is kept: bit ``i`` of row ``i`` is set exactly when
    ``sem_relation`` holds the pair ``(i, i)``.
    """
    base, later, reads = parts
    # after[w]: the ppo-later writes of every write coherence-newer
    # than w; newest[loc]: the same for all of loc's writes.
    after: dict[int, int] = {}
    newest: dict[str, int] = {}
    for loc, chain in coherence:
        acc = 0
        for iw in reversed(chain):
            after[iw] = acc
            acc |= later[iw]
        newest[loc] = acc
    masks = list(base)
    for loc, ir, isrc in reads:
        m = newest.get(loc, 0) if isrc < 0 else after.get(isrc, 0)
        bit = 1 << ir
        while m:
            low = m & -m
            masks[low.bit_length() - 1] |= bit
            m ^= low
    return close_masks(masks)


def own_restriction(hp: HistoryPlane, ordering: Sequence[int]) -> dict[Any, list[int]]:
    """Per-processor restriction of ordering masks to own operations.

    Release consistency's reading of parameter 3: the ordering binds a
    processor's operations only in that processor's *own* view.
    """
    out: dict[Any, list[int]] = {}
    for proc, (start, end) in hp.ranges.items():
        bits = ((1 << end) - 1) ^ ((1 << start) - 1)
        restricted = [0] * hp.n
        for i in range(start, end):
            restricted[i] = ordering[i] & bits
        out[proc] = restricted
    return out


def _propagation(hp: HistoryPlane, rf: ReadsFrom) -> tuple[dict[int, int], list[int]]:
    """``(src_idx, prop)``: each read's source index and the rf-forced edges.

    ``src_idx`` maps a read's universe index to its source write's, or to
    -1 for an initial-value read.  ``prop`` holds ``src -> read`` and an
    initial-value read before every write to its location.
    """
    src_idx: dict[int, int] = {}
    prop = [0] * hp.n
    for r, src in rf.items():
        ir = hp.index[r]
        if src is None:
            src_idx[ir] = -1
            bit = 1 << ir
            for iw in hp.writers_by_loc.get(r.location, ()):
                if iw != ir:
                    prop[iw] |= bit
        else:
            isrc = hp.index[src]
            src_idx[ir] = isrc
            if isrc != ir:
                prop[ir] |= 1 << isrc
    return src_idx, prop


def _build_masks(hp: HistoryPlane, key: Any, rf: ReadsFrom) -> Any:
    if key == "prop":
        return _propagation(hp, rf)
    if key == "bracketing":
        return bracketing_edges(hp.history, rf).pred_masks(hp.ops)
    if key == (SEMI_CAUSAL, "parts"):
        return _semi_causal_parts(hp, rf)
    if isinstance(key, tuple) and key[1:] == ("own",):
        return own_restriction(hp, plane_masks(hp, key[0], rf))
    return key.build(hp.history, rf, None).pred_masks(hp.ops)


def plane_masks(hp: HistoryPlane, key: Any, rf: ReadsFrom | None = None) -> Any:
    """One attribution-derived mask table of ``hp``.

    ``key`` is an ordering rule that needs no coherence order (its pred
    masks), ``(rule, "own")`` (their per-processor own-view restriction),
    ``"bracketing"`` (release consistency's bracketing edges), ``"prop"``
    (:func:`_propagation`) or ``(SEMI_CAUSAL, "parts")``.  With ``rf``
    omitted the table is the unique attribution's, built once and kept
    in :attr:`HistoryPlane.masks` for every later spec and layer — the
    search's attribution planes and the static pre-pass read the same
    entries.  An explicit ``rf`` (an enumerated attribution) is built
    fresh and not cached — except for ``ppo``, which does not read the
    attribution and is cached whatever it is.
    """
    if rf is not None and key is not PPO:
        return _build_masks(hp, key, rf)
    value = hp.masks.get(key)
    if value is None:
        unique = hp.unique_rf
        if unique is None and key is not PPO:
            raise KernelError("plane masks need a unique reads-from attribution")
        value = hp.masks[key] = _build_masks(hp, key, unique or {})
    return value


class AttributionPlane:
    """The reads-from-dependent slice of a compiled constraint set."""

    __slots__ = (
        "rf",
        "ordering",
        "own_ordering",
        "semi_causal",
        "bracketing",
        "src_idx",
        "prop",
    )

    def __init__(
        self,
        cc: "CompiledConstraints",
        rf: ReadsFrom,
        unique: bool = False,
    ) -> None:
        self.rf = rf
        spec = cc.spec
        hp = cc.hp
        # Under the unique attribution every rf-derived relation is a pure
        # function of the history, so the masks are cached on the shared
        # HistoryPlane across the specs that reuse the same ordering rule.
        explicit = None if unique else rf
        #: Static ordering pred masks; ``None`` when the ordering needs a
        #: coherence order and must be built per mutual candidate.
        self.ordering: list[int] | None = None
        self.own_ordering: dict[Any, list[int]] | None = None
        if not spec.ordering.needs_coherence:
            rule = spec.ordering
            self.ordering = plane_masks(hp, rule, explicit)
            if spec.ordering_own_view_only:
                self.own_ordering = (
                    own_restriction(hp, self.ordering)
                    if explicit is not None
                    else plane_masks(hp, (rule, "own"))
                )
        #: Semi-causality's candidate-independent part (see
        #: :meth:`CompiledConstraints.ordering_masks`).  A tuple key, so
        #: :func:`extend_plane` and the arena drop it and it is rebuilt
        #: on demand.
        self.semi_causal: SemiCausalParts | None = None
        if spec.ordering is SEMI_CAUSAL:
            self.semi_causal = plane_masks(hp, (SEMI_CAUSAL, "parts"), explicit)
        self.bracketing: list[int] | None = None
        if spec.bracketing:
            self.bracketing = plane_masks(hp, "bracketing", explicit)
        #: ``src_idx``: per universe index of a read, the index of its
        #: source write, or -1 for an initial-value read.  ``prop``: the
        #: attribution-forced edges used by incremental-legality
        #: propagation (sound only under the unambiguous attribution — the
        #: driver gates): ``src -> read``, and an initial-value read before
        #: every write to its location.
        self.src_idx, self.prop = plane_masks(hp, "prop", explicit)


class CompiledConstraints:
    """Everything about ``(history, spec)`` the search reuses across choices."""

    __slots__ = (
        "spec",
        "history",
        "hp",
        "ops",
        "index",
        "n",
        "identical",
        "own_view_only",
        "bracketing",
        "needs_coherence",
        "procs",
        "views",
        "writers_by_loc",
        "_plane_rf",
        "_plane",
    )

    def __init__(self, spec: MemoryModelSpec, history: SystemHistory) -> None:
        self.spec = spec
        self.history = history
        hp = history_plane(history)
        self.hp = hp
        self.ops = hp.ops
        self.index = hp.index
        self.n = hp.n
        self.identical = spec.mutual_consistency is MutualConsistency.IDENTICAL
        self.own_view_only = spec.ordering_own_view_only
        self.bracketing = spec.bracketing
        self.needs_coherence = spec.ordering.needs_coherence
        self.procs = history.procs
        self.views = hp.views(spec.operation_set)
        self.writers_by_loc = hp.writers_by_loc
        self._plane_rf: ReadsFrom | None = None
        self._plane: AttributionPlane | None = None

    @property
    def universe_plane(self) -> ViewPlane:
        """Payloads for the whole-universe search of IDENTICAL models."""
        return self.hp.universe_plane

    # -- attribution planes ----------------------------------------------------

    def plane(self, rf: ReadsFrom, unique: bool = False) -> AttributionPlane:
        """The attribution-dependent plane for ``rf`` (cached single-slot).

        Histories under the distinct-write-values discipline have exactly
        one attribution, so the slot makes repeated checks of the same
        history (a sweep, the classification lattice) compile it once;
        ``unique`` additionally lets the plane share its masks through the
        HistoryPlane across specs.
        """
        if self._plane is not None and (
            self._plane_rf is rf or self._plane_rf == rf
        ):
            return self._plane
        plane = AttributionPlane(self, rf, unique)
        self._plane_rf = rf
        self._plane = plane
        return plane

    # -- per-candidate assembly ------------------------------------------------

    def ordering_masks(
        self,
        plane: AttributionPlane,
        coherence: Mapping[str, tuple[Operation, ...]] | None,
    ) -> list[int] | None:
        """The ordering's pred masks for one mutual candidate.

        ``None`` when the ordering needs no coherence order (the plane's
        static :attr:`AttributionPlane.ordering` applies).  For
        semi-causality ``(ppo ∪ rwb ∪ rrb)+`` only ``rrb`` depends on the
        candidate: a read precedes every write that is ppo-later than a
        write coherence-newer than its source.  Those bits go onto the
        plane's precomputed ``ppo ∪ rwb`` masks, which are then closed
        with the diagonal cleared — equal to
        ``sem_relation(...).pred_masks(ops)``, cyclic candidates included.
        """
        if not self.needs_coherence:
            return None
        if plane.semi_causal is None or coherence is None:
            rule = self.spec.ordering
            return rule.build(self.history, plane.rf, coherence).pred_masks(self.ops)
        positions = self.hp.positions
        closed = semi_causal_closure(
            plane.semi_causal,
            [(loc, positions(chain)) for loc, chain in coherence.items()],
        )
        return [m & ~(1 << i) for i, m in enumerate(closed)]

    def _base_masks(
        self,
        plane: AttributionPlane,
        chains: tuple[tuple[Operation, ...], ...],
        ordering: Sequence[int] | None,
    ) -> tuple[list[int], dict[Any, list[int]] | None]:
        """The raw (unclosed, ungated) base masks of one mutual candidate."""
        if ordering is None:
            ordering = plane.ordering
        own: dict[Any, list[int]] | None = None
        if self.own_view_only:
            assert ordering is not None
            own = (
                plane.own_ordering
                if plane.own_ordering is not None
                else own_restriction(self.hp, ordering)
            )
            masks = [0] * self.n
        else:
            assert ordering is not None
            masks = list(ordering)
        positions = self.hp.positions
        for chain in chains:
            chain_masks(masks, positions(chain))
        if plane.bracketing is not None:
            for i in range(self.n):
                masks[i] |= plane.bracketing[i]
        return masks, own

    def assemble_base(
        self,
        plane: AttributionPlane,
        chains: tuple[tuple[Operation, ...], ...],
        ordering: Sequence[int] | None = None,
    ) -> tuple[list[int], dict[Any, list[int]] | None] | None:
        """Cross-view constraints for one mutual candidate, closed, or ``None``.

        Mirrors the pre-kernel solver's ``_base_constraints``: assemble
        ordering (unless it binds own views only) + mutual chains +
        bracketing, reject cyclic combinations, transitively close so that
        restriction to any view preserves all orderings.  Returns the
        closed masks and the per-processor own-ordering masks (``None``
        when the ordering already lives in the base).
        """
        masks, own = self._base_masks(plane, chains, ordering)
        if not masks_acyclic(masks, self.n):
            return None
        return close_masks(masks), own

    def base_acyclic(
        self,
        plane: AttributionPlane,
        chains: tuple[tuple[Operation, ...], ...],
        ordering: Sequence[int] | None = None,
    ) -> bool:
        """Whether :meth:`assemble_base` would pass its acyclicity gate.

        The incremental session's probe: deciding whether a candidate that
        failed on a prefix still *counts* as explored on the extended
        history requires the gate's answer but not the closed masks.
        """
        masks, _ = self._base_masks(plane, chains, ordering)
        return masks_acyclic(masks, self.n)

    def extra_masks(self, extra) -> list[int] | None:
        """Universe masks of a labeled-discipline candidate (layer 2)."""
        if extra is None:
            return None
        masks = [0] * self.n
        for chain in extra.chains:
            chain_masks(masks, self.hp.positions(chain))
        if extra.relation is not None:
            for i, m in enumerate(extra.relation.pred_masks(self.ops)):
                masks[i] |= m
        return masks

    def candidate_propagation(
        self,
        plane: AttributionPlane,
        coherence: Mapping[str, tuple[Operation, ...]] | None,
    ) -> list[int]:
        """Propagation masks for one candidate: rf edges + coherence successors.

        Under the unambiguous attribution a read's source is the unique
        write of the observed value, so in every legal view the source
        precedes the read and — once the candidate fixes a per-location
        write order the views embed — the read precedes the source's
        coherence successor.  These edges turn the search's dynamic
        value-legality failures into static predecessor-mask failures
        without changing which extensions exist, which is what makes the
        per-view search incremental instead of re-validating prefixes.
        """
        if coherence is None:
            return plane.prop  # shared, never mutated by the search
        prop = list(plane.prop)
        succ: dict[int, int] = {}
        positions = self.hp.positions
        for chain in coherence.values():
            ichain = positions(chain)
            succ.update(zip(ichain, ichain[1:]))
        for ir, isrc in plane.src_idx.items():
            if isrc < 0:
                continue
            inext = succ.get(isrc)
            if inext is not None and inext != ir:
                prop[inext] |= 1 << ir
        return prop


def compile_constraints(
    spec: MemoryModelSpec, history: SystemHistory
) -> CompiledConstraints:
    """Compile ``spec`` for ``history``, via the active relation memo if any.

    Inside an engine sweep (or any :func:`~repro.orders.memo.relation_memo`
    block) each ``(history, parameter-bundle)`` pair is compiled once and
    shared by every subsequent check.
    """
    memo = active_memo()
    if memo is None:
        return CompiledConstraints(spec, history)
    return memo.fetch(
        history,
        f"kernel:{spec.cache_key}",
        lambda: CompiledConstraints(spec, history),
    )
