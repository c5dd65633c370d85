"""E8 — storage-mode tradeoffs.

Claim: "There is no one fits all solution" — plain text "need(s) to
re-parse all the time", trees are "good support of navigation,
difficult to use in streaming", arrays/tokens have "low overhead" and
"good support for stream-based processing".

Series reported: per storage mode, (a) cost of answering one
navigational query including whatever (re)materialization the mode
forces, (b) repeated-query cost, and (c) resident bytes.  Shape
target: text pays the parse on every query; tree wins repeated
navigation but is the largest resident; tokens sit between and win on
a streaming scan.
"""

import pytest

from repro import Engine
from repro.storage import TextStore, TokenStore, TreeStore
from repro.stream import parse_path, stream_path
from repro.tokens import events_from_tokens

QUERY = "count(/site/open_auctions/open_auction/bidder)"

_engine = Engine()
_compiled = _engine.compile(QUERY)


@pytest.fixture(scope="module")
def stores(xmark_s02):
    return {"text": TextStore(xml_text=xmark_s02),
            "tree": TreeStore(xml_text=xmark_s02),
            "tokens": TokenStore(xml_text=xmark_s02)}


@pytest.mark.parametrize("kind", ["text", "tree", "tokens"])
def test_single_query(benchmark, stores, kind):
    """One query, cold: includes each mode's materialization cost."""
    store = stores[kind]
    benchmark.group = "E8 single query"
    benchmark.name = kind
    benchmark.extra_info["resident_bytes"] = store.resident_bytes()
    out = benchmark(lambda: _compiled.execute(context_item=store.document()).values())
    assert out[0] > 0


@pytest.mark.parametrize("kind", ["text", "tree", "tokens"])
def test_five_repeated_queries(benchmark, stores, kind):
    store = stores[kind]
    benchmark.group = "E8 repeated queries"
    benchmark.name = kind

    def run():
        out = None
        for _ in range(5):
            out = _compiled.execute(context_item=store.document()).values()
        return out

    assert benchmark(run)[0] > 0


def test_streaming_scan_from_tokens(benchmark, stores):
    """Tokens stream without re-parsing text: a path scan straight off
    the binary form."""
    store = stores["tokens"]
    benchmark.group = "E8 streaming scan"
    benchmark.name = "tokens"
    query = parse_path("/site/open_auctions/open_auction/bidder")

    def run():
        return sum(1 for _ in stream_path(
            events_from_tokens(store.tokens()), query))

    assert benchmark(run) > 0


def test_streaming_scan_from_text(benchmark, stores):
    store = stores["text"]
    benchmark.group = "E8 streaming scan"
    benchmark.name = "text(reparse)"
    from repro.xmlio.parser import parse_events

    query = parse_path("/site/open_auctions/open_auction/bidder")

    def run():
        return sum(1 for _ in stream_path(parse_events(store.text), query))

    assert benchmark(run) > 0


def test_resident_size_ordering(stores):
    """tree > text > tokens (pooled binary) on this workload."""
    assert stores["tokens"].resident_bytes() < stores["text"].resident_bytes()
    assert stores["text"].resident_bytes() < stores["tree"].resident_bytes()
