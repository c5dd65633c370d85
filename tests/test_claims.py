"""Paper claims as counted work: exact counts, so no test here can flap.

Each test pins the *counted* units an EXPERIMENTS.md claim rests on,
measured like for like (the Demythization method: the same logical
work, the algorithms compared on what they touch).  Times belong to
the benchmark ledger; counts repeat exactly on every machine.

E6/E16 — twig joins.  ``elements_scanned`` of every forced plan on the
four E6 shapes and on the ledger's twig pattern over the ledger's own
document (XMark scale 1.0, seed 7).  TwigStack scans the fewest
postings everywhere, yet runs 4-7x slower than the mixed plan on every
XMark shape (E16): the planner prices time, and these counts keep the
algorithmic property the old scan gate watched.
"""

from __future__ import annotations

import pytest

from repro.joins import evaluate_pattern
from repro.storage import ElementIndex

from tests.test_twig_planner_differential import (
    FORCED_PLANS,
    _e6_shapes,
    ledger_shape,
)

#: shape label → elements_scanned per forced plan, in FORCED_PLANS order
#: (twigstack, binary, mixed, navigation)
E6_SCANS = {
    "A-D edge //open_auction//increase": (112, 112, 112, 3820),
    "chain //person/address/city": (150, 200, 200, 3236),
    "branching item[.//keyword]//text": (160, 200, 200, 3836),
    "rare-leaf a[.//b]//c": (3015, 3438, 3438, 75058),
    "ledger twig on the ledger document": (1050, 1535, 1535, 15062),
}


@pytest.fixture(scope="module")
def e6_shapes():
    return {label: (ElementIndex(doc), pattern)
            for label, doc, pattern in _e6_shapes() + [ledger_shape()]}


@pytest.mark.parametrize("label", sorted(E6_SCANS))
def test_e6_elements_scanned_per_plan(e6_shapes, label):
    index, pattern = e6_shapes[label]
    scans = []
    results = set()
    for alg in FORCED_PLANS:
        counters: dict[str, int] = {}
        results.add(tuple(p.pre for p in evaluate_pattern(
            index, pattern, alg, counters=counters)))
        scans.append(counters["elements_scanned"])
    assert len(results) == 1  # like for like: one answer
    assert tuple(scans) == E6_SCANS[label]
    # the holistic join never scans more than a binary cascade
    assert scans[0] <= scans[1]
