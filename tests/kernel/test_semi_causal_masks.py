"""Semi-causality as masks equals the relation it replaces.

``CompiledConstraints.ordering_masks`` builds PC's ``(ppo ∪ rwb ∪ rrb)+``
per coherence candidate from integer parts precomputed per attribution.
It must equal ``sem_relation(...).pred_masks(ops)`` on every candidate,
including cyclic ones, where the closure sets diagonal bits that the
relation's ``pred_masks`` leaves out.
"""

from __future__ import annotations

from itertools import chain, islice

import numpy as np
import pytest

from repro.analysis import random_history
from repro.kernel.constraints import compile_constraints, masks_acyclic
from repro.kernel.rf import iter_attributions
from repro.kernel.serializations import iter_mutual_candidates
from repro.litmus import CATALOG, parse_history
from repro.orders.semi_causal import sem_relation
from repro.orders.writes_before import unambiguous_reads_from
from repro.spec.registry import PC_SPEC


def _seeded(procs, ops_per_proc, count, seed):
    rng = np.random.default_rng(seed)
    return [
        random_history(rng, procs=procs, ops_per_proc=ops_per_proc)
        for _ in range(count)
    ]


#: Ambiguous attributions (duplicate values) and RMWs, beyond the catalog.
_HAND = [
    parse_history("p: w(x)1 w(x)1 r(y)0 | q: w(y)1 r(x)1 r(x)0"),
    parse_history("p: u(x)0->1 r(x)2 w(y)3 | q: u(x)1->2 r(y)3 r(x)1"),
]

CORPORA = {
    "catalog": [test.history for test in CATALOG.values()] + _HAND,
    "3x4": _seeded(3, 4, 30, 7),
    "4x5": _seeded(4, 5, 8, 11),
}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_ordering_masks_equal_sem_relation(corpus):
    checked = cyclic = 0
    for history in CORPORA[corpus]:
        cc = compile_constraints(PC_SPEC, history)
        unique = unambiguous_reads_from(history) is not None
        for rf in iter_attributions(history, 4096):
            plane = cc.plane(rf, unique)
            # Without reads-from pruning every coherence order is a
            # candidate, so cyclic semi-causality is common; the first
            # candidates of each enumeration keep the 4x5 stratum quick.
            for cand in chain(
                islice(iter_mutual_candidates(PC_SPEC, history, rf), 200),
                islice(
                    iter_mutual_candidates(
                        PC_SPEC, history, rf, use_reads_from_pruning=False
                    ),
                    200,
                ),
            ):
                got = cc.ordering_masks(plane, cand.coherence)
                want = sem_relation(history, rf, cand.coherence).pred_masks(cc.ops)
                assert got == want, (history, cand.coherence)
                checked += 1
                cyclic += not masks_acyclic(got, cc.n)
    assert checked
    if corpus != "catalog":  # the catalog's PC candidates are all acyclic
        assert cyclic, "the seeded corpora must include cyclic candidates"


def test_ordering_masks_is_none_without_coherence():
    from repro.spec.registry import TSO_SPEC

    history = CATALOG["fig1-sb"].history
    cc = compile_constraints(TSO_SPEC, history)
    plane = cc.plane(unambiguous_reads_from(history), True)
    assert cc.ordering_masks(plane, None) is None
