"""The XMark-style query suite: every query runs, is deterministic,
and agrees between the optimized and unoptimized engines."""

import pytest

from repro import Engine, ExecutionOptions, parse_document
from repro.workloads.xmark_queries import QUERIES, run_suite


@pytest.fixture(scope="module")
def doc(xmark_small):
    return parse_document(xmark_small)


@pytest.fixture(scope="module")
def fast_engine():
    return Engine(options=ExecutionOptions(optimize=True))


@pytest.fixture(scope="module")
def slow_engine():
    return Engine(options=ExecutionOptions(optimize=False))


@pytest.mark.parametrize("key", list(QUERIES))
def test_runs_and_is_deterministic(key, doc, fast_engine):
    compiled = fast_engine.compile(QUERIES[key].text)
    first = compiled.execute(context_item=doc).serialize()
    second = compiled.execute(context_item=doc).serialize()
    assert first == second


@pytest.mark.parametrize("key", list(QUERIES))
def test_optimizer_preserves_semantics(key, doc, fast_engine, slow_engine):
    fast = fast_engine.compile(QUERIES[key].text)
    slow = slow_engine.compile(QUERIES[key].text)
    assert fast.execute(context_item=doc).serialize() == \
        slow.execute(context_item=doc).serialize(), key


class TestSpotChecks:
    """Ground-truth invariants computable from the generator's design."""

    def test_q05_counts_subset(self, doc, fast_engine):
        total = fast_engine.compile(
            "count(//closed_auction)").execute(context_item=doc).values()[0]
        expensive = fast_engine.compile(
            QUERIES["q05-aggregate-count"].text).execute(context_item=doc).values()[0]
        assert 0 <= expensive <= total

    def test_q06_sums_to_item_count(self, doc, fast_engine):
        per_region = fast_engine.compile(
            QUERIES["q06-descendant-count"].text).execute(context_item=doc).values()
        total = fast_engine.compile(
            "count(//item)").execute(context_item=doc).values()[0]
        assert sum(per_region) == total

    def test_q10_members_sum_ge_people_with_interests(self, doc, fast_engine):
        # every person with an interest is in ≥1 category bucket
        out = run_suite(fast_engine, doc, ["q10-grouping"])["q10-grouping"]
        import re

        members = [int(m) for m in re.findall(r'members="(\d+)"', out)]
        people_with_interest = fast_engine.compile(
            "count(/site/people/person[profile/interest])"
        ).execute(context_item=doc).values()[0]
        assert sum(members) >= people_with_interest

    def test_q17_everyone_lacks_homepage(self, doc, fast_engine):
        # the generator never emits <homepage>, so q17 returns all people
        out = run_suite(fast_engine, doc, ["q17-missing-data"])["q17-missing-data"]
        n_people = fast_engine.compile(
            "count(/site/people/person)").execute(context_item=doc).values()[0]
        assert out.count("<person") == n_people

    def test_q20_partitions_are_exhaustive(self, doc, fast_engine):
        out = run_suite(fast_engine, doc, ["q20-partition"])["q20-partition"]
        import re

        buckets = [int(x) for x in re.findall(r">(\d+)<", out)]
        n_profiles = fast_engine.compile(
            "count(/site/people/person/profile)").execute(context_item=doc).values()[0]
        assert sum(buckets) == n_profiles

    def test_q18_converts_every_auction(self, doc, fast_engine):
        values = fast_engine.compile(
            QUERIES["q18-function"].text).execute(context_item=doc).values()
        n_auctions = fast_engine.compile(
            "count(/site/open_auctions/open_auction)"
        ).execute(context_item=doc).values()[0]
        assert len(values) == n_auctions
        assert all(v > 0 for v in values)
