"""The pruned view search returns exactly what the unpruned one did.

``_dfs_find`` skips two kinds of dead subtree (a memo key that ignores
locations no pending read observes, and a write that strands a reader
of the value it overwrites).  Neither may change the witness: the search
is held to the frozen pre-prune body in :mod:`tests.kernel.dfs_oracle`
on random masks and payloads, and end to end through ``check_with_spec``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import random_history
from repro.kernel import search
from repro.kernel.search import _dfs_find, _dfs_find_traced, check_with_spec
from repro.litmus import CATALOG, parse_history
from repro.obs.sink import RecordingSink
from repro.spec import ALL_SPECS

from tests.kernel.dfs_oracle import oracle_dfs_find


@st.composite
def view_instances(draw):
    """A view search input: masks, locations and payloads.

    Values come from a tiny pool so duplicate write values, writes of the
    initial value and initial-value reads are all common.  Masks are
    drawn either over a random topological order (mostly satisfiable) or
    freely (cycles included).
    """
    n = draw(st.integers(1, 9))
    n_locs = draw(st.integers(1, 3))
    op_loc, read_vals, write_vals = [], [], []
    for _ in range(n):
        kind = draw(st.sampled_from("rrwwu"))
        op_loc.append(draw(st.integers(0, n_locs - 1)))
        value = st.integers(0, 3)
        read_vals.append(draw(value) if kind in "ru" else None)
        write_vals.append(draw(value) if kind in "wu" else None)
    if draw(st.booleans()):
        # Edges only along a random topological order: acyclic.
        rank = draw(st.permutations(range(n)))
        below = [
            sum(1 << j for j in range(n) if rank[j] < rank[i]) for i in range(n)
        ]
    else:
        below = [((1 << n) - 1) & ~(1 << i) for i in range(n)]
    pred = [b & draw(st.integers(0, (1 << n) - 1)) for b in below]
    return n, pred, op_loc, read_vals, write_vals, n_locs


@settings(max_examples=400, deadline=None)
@given(view_instances(), st.booleans())
def test_pruned_search_returns_the_oracle_order(inst, memoize):
    expected = oracle_dfs_find(*inst, 0, memoize)
    assert _dfs_find(*inst, 0, memoize) == expected


@settings(max_examples=150, deadline=None)
@given(view_instances())
def test_traced_twin_returns_the_same_order(inst):
    render = [str(i) for i in range(inst[0])]
    traced = _dfs_find_traced(*inst, 0, True, RecordingSink(), "p", render)
    assert traced == _dfs_find(*inst, 0, True)


def test_prune_cases_by_hand():
    # w(x)1, w(x)2, r(x)1 unordered: placing w(x)2 right after w(x)1
    # strands r(x)1, so the read goes between the writes.
    one_reader = (3, [0, 0, 0], [0, 0, 0], [None, None, 1], [1, 2, None], 1, 0)
    # A duplicate w(x)1 after w(x)2 can restore the value: no prune.
    restorable = (
        4, [0, 0, 0, 1 << 1], [0] * 4, [None, None, 1, None], [1, 2, None, 1], 1, 0
    )
    # An initial-value read must precede every write.
    initial_read = (3, [0, 0, 0], [0, 0, 0], [None, None, 0], [5, 6, None], 1, 0)
    assert _dfs_find(*one_reader, True) == [0, 2, 1]
    assert _dfs_find(*initial_read, True) == [2, 0, 1]
    for inst in (one_reader, restorable, initial_read):
        for memoize in (True, False):
            assert _dfs_find(*inst, memoize) == oracle_dfs_find(*inst, memoize)


def _histories():
    """Catalog, seeded random histories, and duplicate-value / RMW shapes."""
    out = [test.history for test in CATALOG.values()]
    rng = np.random.default_rng(20261017)
    for _ in range(12):
        out.append(random_history(rng, procs=3, ops_per_proc=4))
    out += [
        parse_history("p: w(x)1 w(x)1 r(y)0 | q: w(y)1 r(x)1 r(x)0"),
        parse_history("p: w(x)1 r(x)2 w(y)1 | q: w(x)2 r(y)1 r(x)1"),
        parse_history("p: u(x)0->1 r(x)2 | q: u(x)1->2 r(x)1 | r: r(x)0 w(x)0"),
    ]
    return out


def _encode(result):
    views = sorted(
        (str(proc), [str(op) for op in view])
        for proc, view in (result.views or {}).items()
    )
    return result.allowed, result.explored, result.reason, views


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_checks_match_the_oracle_search(spec, monkeypatch):
    """Same verdict, explored count, reason and witness views per spec.

    Covers the identical-views (universe) search of SC-like specs as well
    as per-processor views.
    """
    histories = _histories()
    pruned = [_encode(check_with_spec(spec, h)) for h in histories]
    monkeypatch.setattr(search, "_dfs_find", oracle_dfs_find)
    frozen = [_encode(check_with_spec(spec, h)) for h in histories]
    assert pruned == frozen
