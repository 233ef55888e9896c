"""The prefix search decides TSO exactly as the per-order enumeration did.

``check_tso`` and ``check_axiomatic_tso`` grow the shared store order one
store at a time (:func:`repro.kernel.serializations.search_store_order`)
instead of enumerating its linear extensions and placing reads against
each.  Both are held to the frozen enumerating bodies in
:mod:`tests.checking.tso_enum_oracle`: the same verdict and reason, the
same TSO witness views (the first admitting order is unchanged), the same
``CheckerError`` refusals and the same kernel fallback.  Only
``explored`` differs: it now counts search nodes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import random_history
from repro.checking import check_axiomatic_tso, check_tso
from repro.core.errors import CheckerError
from repro.kernel.serializations import (
    ReadRule,
    forced_write_order,
    search_store_order,
)
from repro.litmus import CATALOG, parse_history
from repro.orders.writes_before import unambiguous_reads_from

from tests.checking.tso_enum_oracle import (
    oracle_check_axiomatic_tso,
    oracle_check_tso,
)


def _outcome(check, history):
    """Everything a caller sees of a check except ``explored``."""
    try:
        result = check(history)
    except CheckerError as exc:
        return ("refused", str(exc))
    views = None
    if result.views is not None:
        views = {proc: tuple(view) for proc, view in result.views.items()}
    return (result.model, result.allowed, result.reason, views)


def _assert_parity(history):
    assert _outcome(check_tso, history) == _outcome(oracle_check_tso, history), (
        str(history)
    )
    assert _outcome(check_axiomatic_tso, history) == _outcome(
        oracle_check_axiomatic_tso, history
    ), str(history)


def _seeded(procs, ops_per_proc, count, seed):
    rng = np.random.default_rng(seed)
    return [
        random_history(rng, procs=procs, ops_per_proc=ops_per_proc)
        for _ in range(count)
    ]


#: Fallback and refusal shapes beyond the catalog: duplicate values,
#: initial-vs-written ambiguity, RMWs, a read with no source, and a
#: cyclic forced order.
_HAND = [
    parse_history("p: w(x)1 | q: w(x)1 r(x)1"),
    parse_history("p: w(x)1 w(x)1 r(y)0 | q: w(y)1 r(x)1 r(x)0"),
    parse_history("p: w(x)0 r(x)0 | q: r(x)0"),
    parse_history("p: u(x)0->1 r(x)2 w(y)3 | q: u(x)1->2 r(y)3 r(x)1"),
    parse_history("p: w(x)1 r(x)7"),
    parse_history("p: w(x)1 w(x)2 | q: r(x)2 r(x)1"),
    parse_history("p: w(x)1 r(x)1 r(y)0 | q: w(y)1 r(y)1 r(x)0"),
]

CORPORA = {
    "catalog": [test.history for test in CATALOG.values()] + _HAND,
    "3x4": _seeded(3, 4, 40, 3),
    "3x5": _seeded(3, 5, 8, 5),
    "4x4": _seeded(4, 4, 6, 7),
    "2x6": _seeded(2, 6, 20, 11),
}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_prefix_search_matches_the_enumeration(corpus):
    for history in CORPORA[corpus]:
        _assert_parity(history)


def test_corpora_cover_every_path():
    """Admits, denials, refusals, fallbacks and witness views all occur."""
    outcomes = [
        (_outcome(check_tso, h), _outcome(check_axiomatic_tso, h))
        for corpus in CORPORA.values()
        for h in corpus
    ]
    tso = [t for t, _ in outcomes]
    axiomatic = [a for _, a in outcomes]
    assert any(t[1] and t[3] for t in tso)
    assert any(not t[1] for t in tso)
    assert any(a[0] == "refused" for a in axiomatic)
    assert any(a[0] != "refused" and a[1] for a in axiomatic)
    assert any(a[0] != "refused" and not a[1] for a in axiomatic)
    assert any(
        a[0] != "refused" and a[1] != t[1] for t, a in outcomes
    ), "the corpora must include a forwarding divergence"


@st.composite
def tso_shapes(draw):
    """Small histories rich in the shapes the store-order search decides.

    Write values are unique except when a duplicate is drawn on purpose
    (an ambiguous reads-from: a refusal or the kernel fallback); reads
    favour the initial value and the latest own write to the location
    (forwarding shapes: same-location write then read), and may return
    a value nobody wrote.  Rare RMWs exercise the other refusal.
    """
    procs = draw(st.integers(1, 3))
    rows = []
    written: dict[str, list[int]] = {"x": [], "y": []}
    value = 0
    for _ in range(procs):
        row = []
        own: dict[str, int] = {}
        for _ in range(draw(st.integers(1, 4))):
            loc = draw(st.sampled_from("xy"))
            kind = draw(st.sampled_from("wwrrrf" + ("u" if value % 7 == 3 else "")))
            if kind == "w":
                value += 1
                v = 1 if draw(st.integers(0, 11)) == 0 else value
                written[loc].append(v)
                own[loc] = v
                row.append(f"w({loc}){v}")
            elif kind == "u":
                value += 1
                row.append(f"u({loc})0->{value}")
            elif kind == "f" and loc in own:
                row.append(f"r({loc}){own[loc]}")
            else:
                row.append(("r", loc))
        rows.append(row)
    text = []
    for p, row in enumerate(rows):
        ops = []
        for op in row:
            if isinstance(op, tuple):
                loc = op[1]
                options = [0, 0, 99] + written[loc]
                op = f"r({loc}){draw(st.sampled_from(options))}"
            ops.append(op)
        text.append(f"p{p}: " + " ".join(ops))
    return parse_history(" | ".join(text))


@given(tso_shapes())
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_prefix_search_matches_the_enumeration_on_generated_shapes(history):
    _assert_parity(history)


def test_search_tries_stores_in_universe_order():
    """Two unordered stores, no reads: the first extension is the universe order."""
    history = parse_history("p: w(x)1 | q: w(y)2")
    forced = forced_write_order(history, unambiguous_reads_from(history))
    found = search_store_order(history, forced, lambda r: ReadRule())
    assert found.order == forced.items
    assert found.explored == 3  # the root and one node per store


def test_commit_waits_for_the_reads_that_precede_it():
    # Load buffering: each read needs the other processor's store, which
    # may commit only after that processor's own earlier read performs.
    history = parse_history("p: r(x)1 w(y)1 | q: r(y)1 w(x)1")
    forced = forced_write_order(history, unambiguous_reads_from(history))

    def own_later(r):
        later = history.ops_of(r.proc)[r.index + 1:]
        return ReadRule(before=tuple(w for w in later if w.is_write))

    assert search_store_order(history, forced, own_later).order is None
    unguarded = search_store_order(history, forced, lambda r: ReadRule())
    assert unguarded.order is not None
    assert not check_tso(history).allowed
    assert not check_axiomatic_tso(history).allowed


def test_failure_memo_keys_on_memory():
    # After w(x)1 w(x)2 and after w(x)2 w(x)1 the same stores have
    # committed and u has read both values either way; only memory's x
    # differs.  The first state fails (t then reads x=2 after z=1); the
    # second is the one admitting order, so a memo blind to memory would
    # wrongly cut it.
    history = parse_history(
        "p: w(x)1 | q: w(x)2 w(z)1 | t: r(z)1 r(x)1 | u: r(x)1 r(z)0"
    )
    forced = forced_write_order(history, unambiguous_reads_from(history))
    w_x1, w_x2, w_z1 = forced.items
    result = check_tso(history)
    assert result.allowed
    assert [op for op in result.views["t"] if op.is_write] == [w_x2, w_x1, w_z1]
    assert check_axiomatic_tso(history).allowed
    _assert_parity(history)
