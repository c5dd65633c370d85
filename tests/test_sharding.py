"""Scatter-gather sharding: differential byte-identity, placement,
merge semantics, and the worker-pool replay fix it leans on.

The differential suite runs every query against two real servers —
one scattering across 4 pre-forked workers, one pinned to the
single-worker path (``shards=0``) — and requires identical items,
serializations, and error codes, on disk and memory stores.

Every server here runs the product (generated code), so the behaviour
tests and the E19 perfsmoke gates measure what ships.
"""

import json
import http.client
import math
import pickle
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine, ExecutionOptions, parse_document
from repro.catalog import DocumentCatalog
from repro.compiler.analysis import collection_shard_plan
from repro.server import ServerConfig, start_in_thread
from repro.server.cache import ServerResultCache
from repro.server.tenants import result_payload
from repro.service.workers import ForkWorkerPool
from repro.xdm import wire
from repro.xdm.items import AtomicValue
from repro.xsd import types as T
from repro.xsd.casting import parse_lexical


class Client:
    def __init__(self, port):
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=60)

    def request(self, method, path, body=None):
        data = body if isinstance(body, (bytes, str, type(None))) \
            else json.dumps(body)
        self.conn.request(method, path, body=data)
        resp = self.conn.getresponse()
        raw = resp.read()
        headers = dict(resp.getheaders())
        if headers.get("Content-Type", "").startswith("application/json"):
            # strict: a bare Infinity/NaN token is not JSON (RFC 8259)
            return resp.status, json.loads(raw, parse_constant=_reject), \
                headers
        return resp.status, raw.decode(), headers

    def close(self):
        self.conn.close()


DOCS = {f"d{i:02d}": (f"<r><n>{i}</n><n>{i * 10}</n>"
                      f"<f>{i}.5</f><s>x{i}</s></r>")
        for i in range(6)}
# one document whose <bad> content breaks xs:integer casts — error-path
# queries must surface the same code and status either way
DOCS["d02"] = DOCS["d02"].replace("</r>", "<bad>oops</bad></r>")
DOCS["d04"] = DOCS["d04"].replace("</r>", "<bad>worse</bad></r>")

#: (label, execute body) — every case runs on both servers
CASES = [
    ("scan_text", {"query": "collection()//n/text()"}),
    ("scan_nodes", {"query": "collection()//n"}),
    ("scan_filter", {"query": "collection()//n[. > 25]"}),
    ("scan_flwor", {"query": "for $x in collection()//n "
                             "where $x mod 2 = 0 return <e>{string($x)}</e>"}),
    ("scan_xml_form", {"query": "collection()//n/text()", "form": "xml"}),
    ("scan_mixed_xml", {"query": "collection()//n", "form": "xml"}),
    ("count", {"query": "count(collection()//n)"}),
    ("sum_int", {"query": "sum(collection()//n)"}),
    ("sum_float", {"query": "sum(collection()//f)"}),
    ("exists_true", {"query": "exists(collection()//n[. > 40])"}),
    ("exists_false", {"query": "exists(collection()//n[. > 4000])"}),
    ("scan_non_finite", {"query": "for $n in collection()//n return "
                                  "(1e0 div 0, xs:float('-INF'), "
                                  "xs:double('NaN'))"}),
    ("scan_non_finite_xml", {"query": "for $n in collection()//n "
                                      "return -1e0 div 0", "form": "xml"}),
    ("sum_non_finite", {"query": "sum(for $n in collection()//n "
                                 "return 1e0 div 0)"}),
    ("error_sum_strings", {"query": "sum(collection()//s)"}),
    ("error_mid_collection",
     {"query": "collection()//n[xs:integer(../bad) ge 0]"}),
    ("error_first_doc_wins",
     {"query": "for $b in collection()//bad return xs:integer($b)"}),
    # ineligible shapes: the router must fall back, results unchanged
    ("fallback_positional", {"query": "(collection()//n)[2]"}),
    ("fallback_order_by", {"query": "for $x in collection()//n "
                                    "order by number($x) descending "
                                    "return string($x)"}),
]


def _start(tmp_path, *, shards, store="disk", processes=4, tag=""):
    data_dir = str(tmp_path / f"srv-{tag}-{shards}") \
        if store == "disk" else None
    options = ExecutionOptions(data_dir=data_dir, shards=shards)
    return start_in_thread(ServerConfig(port=0, processes=processes,
                                        options=options))


def _load(client, tenant="t"):
    for name, xml in sorted(DOCS.items()):
        status, body, _ = client.request(
            "PUT", f"/tenants/{tenant}/documents/{name}", xml)
        assert status == 200, body


def _comparable(status, body):
    """The byte-identity surface: items/body/count and error codes —
    not the stats counters, which legitimately sum across shards."""
    if isinstance(body, dict):
        if "error" in body:
            return (status, body["error"]["code"])
        return (status, body.get("items"), body.get("count"))
    return (status, body)


class TestDifferential:
    # "source" labels the product executor, as in the other suites' ids
    @pytest.mark.parametrize("store", ["disk", "memory"],
                             ids=["source-disk", "source-memory"])
    def test_sharded_matches_single(self, tmp_path, store):
        sharded = _start(tmp_path, shards=None, store=store, tag=store)
        single = _start(tmp_path, shards=0, store=store, tag=store)
        try:
            cs, c0 = Client(sharded.port), Client(single.port)
            _load(cs)
            _load(c0)
            for label, case in CASES:
                body = dict(case)
                body["cache"] = False
                got = _comparable(*cs.request(
                    "POST", "/tenants/t/execute", body)[:2])
                want = _comparable(*c0.request(
                    "POST", "/tenants/t/execute", body)[:2])
                assert got == want, f"{label}: {got} != {want}"
            status, metrics, _ = cs.request("GET", "/metrics")
            assert status == 200
            stats = metrics["sharding"]
            assert stats["scattered"] > 0
            assert stats["fallback_single"] > 0  # the fallback cases
            cs.close()
            c0.close()
        finally:
            sharded.close()
            single.close()


class TestScatterBehavior:
    @pytest.fixture(scope="class")
    def servers(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("scatter")
        handle = _start(tmp, shards=None, tag="beh")
        client = Client(handle.port)
        _load(client)
        yield client
        client.close()
        handle.close()

    def test_explain_analyze_reports_shards(self, servers):
        status, body, _ = servers.request(
            "POST", "/tenants/t/explain",
            {"query": "count(collection()//n)", "analyze": True})
        assert status == 200
        stats = body["engine_stats"]
        assert stats["shard.chosen"] == "count"
        assert stats["shard.shards_hit"] >= 2
        assert sum(stats["shard.rows_per_shard"].values()) == len(DOCS)
        assert stats["shard.merge_ms"] >= 0

    def test_metrics_expose_router(self, servers):
        status, body, _ = servers.request("GET", "/metrics")
        assert status == 200
        stats = body["sharding"]
        assert stats["enabled"] is True
        # shards=None resolves $REPRO_TEST_SHARDS, else one per worker
        assert stats["shards"] in (2, 4)
        assert set(stats) >= {"scattered", "fallback_single",
                              "merged_errors", "merge_ms_total"}

    def test_scattered_reply_is_parent_cacheable(self, servers):
        body = {"query": "count(collection()//n)"}
        status, first, headers = servers.request(
            "POST", "/tenants/t/execute", body)
        assert status == 200
        status, second, headers = servers.request(
            "POST", "/tenants/t/execute", body)
        assert status == 200
        assert headers["X-Repro-Cache"] == "hit"
        assert first["items"] == second["items"]

    def test_parent_compiles_only_collection_texts(self, tmp_path):
        """An ad-hoc text that never spells ``collection`` goes straight
        to a child: the parent used to compile every uncached text just
        to learn it reads no collection (and the child compiled it
        again).  Collection texts still take the scatter path."""
        handle = _start(tmp_path, shards=None, tag="lex")
        try:
            client = Client(handle.port)
            _load(client)
            engine = handle.server.core.tenants.get("t").engine
            compiled: list[str] = []
            real = engine.compile
            engine.compile = lambda text, **kw: (compiled.append(text),
                                                 real(text, **kw))[1]
            router = handle.server.router
            before = router.stats()
            for i in range(5):
                status, body, _ = client.request(
                    "POST", "/tenants/t/execute",
                    {"query": f"count($d00//n) + {i}"})
                assert status == 200 and body["items"] == [2 + i]
            assert compiled == []
            assert router.stats() == before
            assert router.might_scatter("count($d00//n)") is False
            status, body, _ = client.request(
                "POST", "/tenants/t/execute",
                {"query": "count(collection()//n) + 0"})  # ineligible root
            assert status == 200 and body["items"] == [12]
            status, body, _ = client.request(
                "POST", "/tenants/t/execute",
                {"query": "count(collection()//n)"})
            assert status == 200 and body["items"] == [12]
            assert len(compiled) == 2
            after = router.stats()
            assert after["fallback_single"] == before["fallback_single"] + 1
            assert after["scattered"] == before["scattered"] + 1
            client.close()
        finally:
            handle.close()

    def test_single_document_does_not_scatter(self, tmp_path):
        handle = _start(tmp_path, shards=None, tag="one")
        try:
            client = Client(handle.port)
            status, body, _ = client.request(
                "PUT", "/tenants/t/documents/only", "<r><n>1</n></r>")
            assert status == 200
            status, body, _ = client.request(
                "POST", "/tenants/t/execute",
                {"query": "count(collection()//n)", "cache": False})
            assert status == 200 and body["items"] == [1]
            status, metrics, _ = client.request("GET", "/metrics")
            assert metrics["sharding"]["scattered"] == 0
            client.close()
        finally:
            handle.close()


class TestShardMap:
    def test_deterministic_and_persistent(self, tmp_path):
        path = str(tmp_path / "cat")
        catalog = DocumentCatalog(path)
        for i in range(8):
            catalog.add(f"d{i}", f"<r>{'<n>1</n>' * (i + 1)}</r>")
        first = catalog.shard_map(4)
        assert set(first.values()) <= set(range(4))
        assert set(first) == set(catalog.names())
        # a reopened catalog reads the persisted assignment verbatim
        reopened = DocumentCatalog(path)
        assert reopened.shard_map(4) == first
        # a different shard count recomputes instead of misusing it
        other = reopened.shard_map(2)
        assert set(other.values()) <= {0, 1}

    def test_rebalances_when_documents_change(self, tmp_path):
        path = str(tmp_path / "cat2")
        catalog = DocumentCatalog(path)
        catalog.add("a", "<r><n>1</n></r>")
        catalog.add("b", "<r><n>1</n></r>")
        before = catalog.shard_map(2)
        catalog.add("c", "<r><n>1</n></r>")
        after = catalog.shard_map(2)
        assert set(after) == {"a", "b", "c"}
        assert before != after or set(before) == set(after)

    def test_memory_catalog_balances_by_node_count(self):
        from repro.api import catalog as make_catalog

        catalog = make_catalog()
        catalog.add("big", "<r>" + "<n>1</n>" * 50 + "</r>")
        for i in range(4):
            catalog.add(f"s{i}", "<r><n>1</n></r>")
        assignment = catalog.shard_map(2)
        big_shard = assignment["big"]
        # LPT: the big document gets a shard, the small ones pack the
        # other before spilling back
        others = [sid for name, sid in assignment.items() if name != "big"]
        assert others.count(1 - big_shard) >= 3


def _same_float(a, b):
    """Bit-for-bit float equality: NaN equals NaN, 0.0 differs from -0.0."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


_INTEGER_TYPES = sorted(
    (t for t in T.builtin_types().values() if t.derives_from(T.XS_INTEGER)),
    key=lambda t: t.name.local)

#: every atomic an aggregate partial can carry: boolean + the numeric
#: tower (integer values kept in 1..100, valid for every subtype)
COMBINABLE = st.one_of(
    st.builds(AtomicValue, st.booleans(), st.just(T.XS_BOOLEAN)),
    st.builds(AtomicValue, st.integers(1, 100),
              st.sampled_from(_INTEGER_TYPES)),
    st.builds(AtomicValue,
              st.decimals(allow_nan=False, allow_infinity=False, places=3,
                          min_value=-10**6, max_value=10**6),
              st.just(T.XS_DECIMAL)),
    st.builds(AtomicValue, st.floats(width=32), st.just(T.XS_FLOAT)),
    st.builds(AtomicValue, st.floats(), st.just(T.XS_DOUBLE)),
    st.builds(AtomicValue,
              st.sampled_from([0.0, -0.0, float("inf"), float("-inf"),
                               float("nan")]),
              st.sampled_from([T.XS_FLOAT, T.XS_DOUBLE])),
)

#: atomics that cross the wire but that no merge may rebuild
OPAQUE = st.one_of(
    st.builds(AtomicValue, st.text(max_size=8),
              st.sampled_from([T.XS_STRING, T.XS_ANYURI, T.UNTYPED_ATOMIC])),
    st.sampled_from([(T.XS_DATE, "2004-03-01"), (T.XS_QNAME, "xs:integer"),
                     (T.XS_HEXBINARY, "0AFF"), (T.XS_DURATION, "P1D")])
    .map(lambda pair: AtomicValue(parse_lexical(*pair), pair[0])),
)


def _tree_nodes(xml):
    """Every standalone-serializable node of a parsed document."""
    return list(parse_document(xml).descendants_or_self())


_TEXT = st.sampled_from(["", "t", "x<&>y", " two words "])
_ELEMENT = st.recursive(
    st.builds("<e k=\"{}\">{}</e>".format,
              st.sampled_from(["v", "a&amp;b"]),
              _TEXT.map(lambda t: t.replace("&", "&amp;")
                        .replace("<", "&lt;"))),
    lambda children: st.builds(
        "<p>{}<!--c-->{}</p>".format, children, children),
    max_leaves=4)
NODES = _ELEMENT.map(_tree_nodes).flatmap(st.sampled_from)

ITEMS = st.lists(st.one_of(COMBINABLE, OPAQUE, NODES), max_size=6)

#: identity query: binds the generated items, returns them as a Result
_ECHO = Engine().compile("$x", variables=("x",))


class TestWireCodec:
    """`repro.xdm.wire`: the one encoding behind the shard pipe, the
    JSON items, the XML body and Result.serialize."""

    @given(item=COMBINABLE)
    @settings(max_examples=200, deadline=None)
    def test_combinable_atomics_round_trip_through_a_pickle(self, item):
        (entry,) = pickle.loads(pickle.dumps(wire.encode([item])))
        back = wire.decode_atomic(entry)
        # the engine compares types with `is`: a transported atomic must
        # rebuild against this process's singletons
        assert back.type is item.type
        assert back.lexical == item.lexical
        if isinstance(item.value, float):
            assert _same_float(back.value, item.value)
        else:
            assert type(back.value) is type(item.value)
            assert back.value == item.value

    @given(item=st.one_of(OPAQUE, NODES))
    @settings(max_examples=60, deadline=None)
    def test_everything_else_raises_value_error(self, item):
        (entry,) = pickle.loads(pickle.dumps(wire.encode([item])))
        with pytest.raises(ValueError):
            wire.decode_atomic(entry)

    def test_malformed_entries_raise_value_error(self):
        for entry in (("a", None, "x", "no-such-type"), ("a", 1, "1"),
                      ("s", "text"), None):
            with pytest.raises(ValueError):
                wire.decode_atomic(entry)

    @given(items=ITEMS)
    @settings(max_examples=150, deadline=None)
    def test_json_and_xml_forms_match_the_single_process_path(self, items):
        entries = pickle.loads(pickle.dumps(wire.encode(items)))
        result = _ECHO.execute(variables={"x": items})
        payload = result_payload(result, "json")
        assert wire.json_items(entries) == payload["items"]
        assert payload["count"] == len(items)
        assert wire.xml_text(entries) == result.serialize()
        assert result_payload(result, "xml")["body"] == result.serialize()
        # strict JSON: no bare Infinity/NaN tokens (RFC 8259)
        json.loads(json.dumps(payload["items"]), parse_constant=_reject)

    def test_non_finite_floats_travel_as_lexicals(self):
        items = [AtomicValue(float("inf"), T.XS_DOUBLE),
                 AtomicValue(float("-inf"), T.XS_FLOAT),
                 AtomicValue(float("nan"), T.XS_DOUBLE),
                 AtomicValue(0.5, T.XS_FLOAT)]
        assert wire.json_items(wire.encode(items)) == \
            ["INF", "-INF", "NaN", 0.5]
        assert wire.xml_text(wire.encode(items)) == "INF -INF NaN 0.5"


def _reject(token):
    raise AssertionError(f"non-JSON constant {token!r} in a reply body")


class TestEligibility:
    """collection_shard_plan against compiled-and-optimized trees."""

    def _plan(self, query):
        from repro import Engine

        return collection_shard_plan(Engine().compile(query).optimized)

    @pytest.mark.parametrize("query,expected", [
        ("collection()//n", "scan"),
        ("collection()//n[. > 3]", "scan"),
        ("for $x in collection()//n return string($x)", "scan"),
        ("count(collection()//n)", "count"),
        ("sum(collection()//n)", "sum"),
        ("exists(collection()//n)", "exists"),
        ("(collection()//n)[1]", None),          # global position
        ("count(collection('u')//n)", None),     # named collection
        ("sum(collection()//p, 0)", None),       # 2-arity sum
        ("for $x at $i in collection()//n return $i", None),
        ("for $x in collection()//n order by $x return $x", None),
    ])
    def test_plan(self, query, expected):
        assert self._plan(query) == expected


class TestReplayExactlyOnce:
    """Satellite: the hard-timeout SIGKILL respawn must not double-
    apply replayed commands when a broadcast is already in flight."""

    def test_respawn_during_broadcast_skips_delivery(self):
        state = {"n": 0}

        def handler(command):
            if command[0] == "bump":
                state["n"] += 1
                return state["n"]
            if command[0] == "get":
                return state["n"]
            if command[0] == "sleep":
                time.sleep(command[1])
                return "slept"
            raise ValueError(command)

        pool = ForkWorkerPool(handler, workers=1, max_queue=4)
        pool.start()
        try:
            from repro.errors import QueryTimeout

            pool.broadcast(("bump",), replay=True)
            errors = []

            def _slow():
                try:
                    pool.call(("sleep", 30), hard_timeout=0.5)
                except QueryTimeout:
                    pass
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            thread = threading.Thread(target=_slow)
            thread.start()
            time.sleep(0.15)  # the sleep call owns the only worker
            # this broadcast appends to the replay log, then waits for
            # the worker.  The hard timeout fires first: the respawned
            # child replays the log *including* this command, so the
            # pending delivery must be skipped, not re-applied.
            replies = pool.broadcast(("bump",), replay=True)
            thread.join(timeout=30)
            assert not errors
            assert replies == [("__replayed__",)]
            assert pool.stats()["replay_skips"] == 1
            assert pool.call(("get",)) == 2  # bumped exactly twice
        finally:
            pool.shutdown()

    def test_kill_during_ingest_then_query(self, tmp_path):
        """The server-level shape of the same bug: a worker killed
        while an ingest broadcast is pending replays the ingest on
        respawn; queries must see the document exactly once."""
        handle = _start(tmp_path, shards=None, processes=2, tag="replay")
        try:
            client = Client(handle.port)
            _load(client)
            slow = ("count(for $a in 1 to 300, $b in 1 to 300 "
                    "return $a * $b)")
            done = []

            def _busy():
                c = Client(handle.port)
                done.append(c.request("POST", "/tenants/t/execute",
                                      {"query": slow, "timeout": 0.05,
                                       "cache": False})[0])
                c.close()

            threads = [threading.Thread(target=_busy) for _ in range(2)]
            for t in threads:
                t.start()
            time.sleep(0.1)
            status, body, _ = client.request(
                "PUT", "/tenants/t/documents/late", "<r><n>99</n></r>")
            assert status == 200
            for t in threads:
                t.join(timeout=60)
            status, body, _ = client.request(
                "POST", "/tenants/t/execute",
                {"query": "count(collection()//n)", "cache": False})
            assert status == 200
            assert body["items"] == [len(DOCS) * 2 + 1]
            client.close()
        finally:
            handle.close()


class TestRefreshRace:
    """Satellite: refresh() racing a concurrent add() on the same
    directory never observes a partially-committed generation."""

    def test_reader_swap_is_atomic(self, tmp_path):
        path = str(tmp_path / "race")
        writer = DocumentCatalog(path)
        writer.add("seed", "<r><n>0</n></r>")
        reader = DocumentCatalog(path)
        stop = threading.Event()
        failures = []

        def _write():
            i = 0
            while not stop.is_set():
                i += 1
                writer.add(f"doc{i % 3}",
                           f"<r>{'<n>1</n>' * (i % 7 + 1)}</r>")

        def _read():
            while not stop.is_set():
                try:
                    reader.refresh()
                    for name in reader.names():
                        stored = reader.get(name)
                        if stored is None:
                            continue  # removed between names() and get()
                        doc = stored.document()
                        # a torn read would produce a malformed tree or
                        # raise mid-materialize; touching the root and
                        # counting children forces the segment read
                        assert doc.children is not None
                except Exception as exc:  # noqa: BLE001
                    failures.append(exc)
                    stop.set()

        threads = [threading.Thread(target=_write),
                   threading.Thread(target=_read),
                   threading.Thread(target=_read)]
        for t in threads:
            t.start()
        time.sleep(1.5)
        stop.set()
        for t in threads:
            t.join(timeout=30)
        assert not failures, failures[0]
        # the reader converges on the writer's final state
        reader.refresh()
        assert set(reader.names()) == set(writer.names())


class TestCanonicalBindingsMemo:
    """Satellite: the hot-path bindings encoding is memoized."""

    def test_repeat_bindings_encode_once(self):
        cache = ServerResultCache(capacity=8)
        bindings = {"limit": 50, "name": "x"}
        k1 = cache.key("t", "q", (), (), bindings, "json")
        k2 = cache.key("t", "q", (), (), dict(reversed(bindings.items())),
                       "json")
        assert k1 == k2
        assert cache.stats()["encodes"] == 1

    def test_unhashable_bindings_still_key(self):
        cache = ServerResultCache(capacity=8)
        bindings = {"seq": [1, 2, 3]}
        k1 = cache.key("t", "q", (), (), bindings, "json")
        k2 = cache.key("t", "q", (), (), {"seq": [1, 2, 3]}, "json")
        assert k1 == k2
        assert cache.stats()["encodes"] == 2  # lists can't memo-key

    def test_memo_is_bounded(self):
        cache = ServerResultCache(capacity=8)
        for i in range(cache._CANON_CAPACITY + 10):
            cache.key("t", "q", (), (), {"i": i}, "json")
        assert len(cache._canon) <= cache._CANON_CAPACITY


@pytest.mark.perfsmoke
class TestPerfSmoke:
    def test_hit_path_allocates_no_new_encoding(self):
        cache = ServerResultCache(capacity=32)
        bindings = {"limit": 50}
        cache.key("t", "q", (), (), bindings, "json")
        before = cache.stats()["encodes"]
        for _ in range(100):
            cache.key("t", "q", (), (), {"limit": 50}, "json")
        assert cache.stats()["encodes"] == before

    @pytest.mark.skipif((__import__("os").cpu_count() or 1) < 4,
                        reason="speedup needs >= 4 cores; on fewer the "
                               "scatter path can only show parity")
    def test_four_workers_beat_one(self, tmp_path):
        """The CI gate: a 4-worker collection scan at least 2x a
        single-worker one on a compute-heavy aggregate."""
        docs = {f"d{i}": "<r>" + "".join(f"<n>{j}</n>"
                                         for j in range(3000))
                + "</r>" for i in range(8)}
        query = ("count(collection()//n[(. * 7) mod 11 = 3 "
                 "and . + 1 > 0])")

        def _time(shards, processes):
            handle = _start(tmp_path, shards=shards, processes=processes,
                            tag=f"perf{shards}-{processes}")
            client = Client(handle.port)
            try:
                for name, xml in docs.items():
                    client.request("PUT", f"/tenants/t/documents/{name}",
                                   xml)
                body = {"query": query, "cache": False}
                client.request("POST", "/tenants/t/execute", body)  # warm
                best = float("inf")
                for _ in range(3):
                    started = time.perf_counter()
                    status, reply, _ = client.request(
                        "POST", "/tenants/t/execute", body)
                    best = min(best, time.perf_counter() - started)
                    assert status == 200, reply
                return best, reply
            finally:
                client.close()
                handle.close()

        single_s, single_reply = _time(0, 4)
        sharded_s, sharded_reply = _time(None, 4)
        assert sharded_reply["items"] == single_reply["items"]
        assert sharded_s * 2 <= single_s, \
            f"sharded {sharded_s:.3f}s vs single {single_s:.3f}s"

    def test_scatter_overhead_is_bounded(self, tmp_path):
        """Runs on any core count: even when no parallelism is
        available, scattering a compute-heavy aggregate must stay
        within 1.5x of the single-worker path (the routing + transport
        overhead is small next to real work)."""
        docs = {f"d{i}": "<r>" + "".join(f"<n>{j}</n>"
                                         for j in range(2000))
                + "</r>" for i in range(8)}
        query = "count(collection()//n[(. * 7) mod 11 = 3])"

        def _time(shards):
            handle = _start(tmp_path, shards=shards, processes=4,
                            tag=f"ovh{shards}")
            client = Client(handle.port)
            try:
                for name, xml in docs.items():
                    client.request("PUT", f"/tenants/t/documents/{name}",
                                   xml)
                body = {"query": query, "cache": False}
                client.request("POST", "/tenants/t/execute", body)
                best = float("inf")
                for _ in range(3):
                    started = time.perf_counter()
                    status, reply, _ = client.request(
                        "POST", "/tenants/t/execute", body)
                    best = min(best, time.perf_counter() - started)
                    assert status == 200, reply
                return best
            finally:
                client.close()
                handle.close()

        single_s = _time(0)
        sharded_s = _time(None)
        assert sharded_s <= single_s * 1.5 + 0.05, \
            f"sharded {sharded_s:.3f}s vs single {single_s:.3f}s"
