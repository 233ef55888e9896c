"""The mask-based pre-pass decides exactly what the relation-based one did.

:mod:`tests.staticcheck.prepass_oracle` is the pre-pass as it stood when
every graph was a ``Relation[Operation]``.  On every input the current
pre-pass must agree with it on the decision, its polarity, the deciding
rule, the rules run, the witness (views, attribution and coherence) and
the counterexample's kind and processor.  A DENY's ``cycle`` may be a
different cycle than the oracle's walk found, but it must be a closed
walk through the named view along edges of the oracle's graph.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import random_history
from repro.core.history import HistoryBuilder
from repro.litmus import CATALOG
from repro.orders.relation import Relation
from repro.spec import ALL_SPECS
from repro.staticcheck.prepass import prepass_check

from tests.staticcheck import prepass_oracle


def _summary(verdict):
    witness = verdict.witness
    cx = verdict.counterexample
    return (
        verdict.model,
        verdict.decided,
        verdict.allowed,
        verdict.check,
        verdict.checks_run,
        None
        if witness is None
        else (
            {proc: tuple(view) for proc, view in witness.views.items()},
            witness.reads_from,
            witness.coherence,
        ),
        None if cx is None else (cx.kind, cx.proc),
    )


@contextmanager
def _cyclic_graphs():
    """Record every relation the oracle finds a cycle in, in call order."""
    found: list[Relation] = []
    original = Relation.find_cycle

    def find_cycle(rel):
        cycle = original(rel)
        if cycle is not None:
            found.append(rel)
        return cycle

    with mock.patch.object(Relation, "find_cycle", find_cycle):
        yield found


def _assert_cycle_in_oracle_graph(spec, history, verdict, graphs):
    cycle = verdict.counterexample.cycle
    if not cycle:
        return
    assert cycle[0] == cycle[-1] and len(cycle) >= 2, cycle
    proc = verdict.counterexample.proc
    if proc is not None:
        members = set(spec.operation_set.view_contents(history, proc))
        assert set(cycle) <= members, (proc, cycle)
    # The oracle's last cyclic graph is the one its counterexample names
    # (for the exhaustive rule: the last refuted candidate's).
    graph = graphs[-1]
    for a, b in zip(cycle, cycle[1:]):
        assert graph.orders(a, b), (a, b, cycle)


def _assert_matches_oracle(spec, history):
    got = prepass_check(spec, history)
    with _cyclic_graphs() as graphs:
        want = prepass_oracle.prepass_check(spec, history)
    assert _summary(got) == _summary(want), f"{spec.name}\n{history!r}"
    if got.counterexample is not None:
        assert (got.counterexample.cycle is None) == (
            want.counterexample.cycle is None
        )
        _assert_cycle_in_oracle_graph(spec, history, got, graphs)
    return got


def test_catalog_matches_oracle():
    for test in CATALOG.values():
        for spec in ALL_SPECS:
            _assert_matches_oracle(spec, test.history)


@pytest.mark.parametrize(
    "procs, ops_per_proc, locations",
    [(3, 4, ("x", "y")), (4, 5, ("x", "y", "z"))],
)
def test_seeded_histories_match_oracle(procs, ops_per_proc, locations):
    rules = set()
    for seed in range(30):
        history = random_history(
            np.random.default_rng(seed),
            procs=procs,
            ops_per_proc=ops_per_proc,
            locations=locations,
        )
        for spec in ALL_SPECS:
            verdict = _assert_matches_oracle(spec, history)
            rules.add((verdict.check, verdict.allowed))
    # The corpus exercises every rule that decides on searchable input.
    assert {
        ("view-cycle", False),
        ("write-order-cycle", False),
        ("admit-witness", True),
        ("agreement-exhausted", True),
        ("agreement-exhausted", False),
    } <= rules


@st.composite
def _histories(draw):
    """Small histories with RMWs, labels, initial-value reads and ambiguity.

    Most writes store a value of their own; the rest draw from a pool of
    two, so some reads have several candidate writers (or the initial
    value and a writer).  Reads observe the initial value, a value
    written to their location earlier in the draw, or a pool value,
    which nobody may write (exercising rf-sanity).
    """
    builder = HistoryBuilder()
    written: dict[str, list[int]] = {"x": [0], "y": [0]}
    fresh = 10
    for p in range(draw(st.integers(1, 3))):
        builder.proc(f"p{p}")
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from("rrwwu"))
            loc = draw(st.sampled_from("xy"))
            labeled = draw(st.integers(0, 4)) == 0
            seen = draw(st.sampled_from(written[loc]))
            if draw(st.integers(0, 15)) == 7:
                seen = 1  # a pool value, possibly never written here
            value = draw(st.integers(1, 2))
            if draw(st.integers(0, 3)):
                fresh += 1
                value = fresh
            written[loc].append(value)
            if kind == "r":
                builder.read(loc, seen, labeled=labeled)
            elif kind == "w":
                builder.write(loc, value, labeled=labeled)
            else:
                builder.rmw(loc, seen, value, labeled=labeled)
    return builder.build()


@settings(max_examples=150, deadline=None)
@given(_histories())
def test_random_histories_match_oracle(history):
    for spec in ALL_SPECS:
        _assert_matches_oracle(spec, history)


def test_self_loop_of_a_cyclic_ordering_names_the_first_view():
    # Causality's closure is cyclic here (q reads its own later write),
    # and p's view holds only one operation of the cycle: the relation's
    # (w, w) pair makes p's graph cyclic before q's is reached.
    history = (
        HistoryBuilder().proc("p").w("y", 1).proc("q").r("x", 1).w("x", 1).build()
    )
    causal = next(spec for spec in ALL_SPECS if spec.name == "Causal")
    verdict = _assert_matches_oracle(causal, history)
    assert verdict.check == "view-cycle"
    assert verdict.counterexample.proc == "p"
