"""The HTTP server: tenants, registered queries, caching, metrics.

Each test talks real HTTP to a server on a background thread
(``port=0`` → OS-assigned), covering both execution modes and the
serving guarantees: result-cache hits and their invalidation on
re-ingest, tenant plan isolation over the shared compile cache, the
error-code → status mapping, and the /metrics shape.
"""

import json
import http.client
import os
import socket
import threading

import pytest

from repro import ExecutionOptions
from repro.server import AppCore, ServerConfig, start_in_thread

BOOKS = ("<bib><book year='1967'><title>T1</title><price>55</price></book>"
         "<book year='1990'><title>T2</title><price>30</price></book></bib>")

#: deliberately O(n^2): slow enough (~1s) to blow a tiny deadline /
#: hold a worker while admission tests pile on, fast enough to finish
SLOW = ("count(for $a in 1 to 350, $b in 1 to 350 "
        "return $a * $b)")


class Client:
    """A tiny keep-alive JSON/HTTP client for the test server."""

    def __init__(self, port):
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=30)

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


def _reject(token):
    raise AssertionError(f"non-JSON constant {token!r} in a reply body")


@pytest.fixture(scope="module")
def server():
    handle = start_in_thread(ServerConfig(port=0))
    yield handle
    handle.close()


@pytest.fixture()
def client(server):
    c = Client(server.port)
    yield c
    c.close()


def _setup_tenant(client, tenant, doc=BOOKS):
    status, body, _ = client.request(
        "PUT", f"/tenants/{tenant}/documents/books", doc)
    assert status == 200, body
    return body


class TestLifecycle:
    def test_health(self, client):
        status, body, _ = client.request("GET", "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["mode"] == "inprocess"

    def test_ingest_register_execute(self, client):
        _setup_tenant(client, "t_basic")
        status, body, _ = client.request(
            "PUT", "/tenants/t_basic/queries/cheap",
            {"query": "count($books//book[price < $limit])",
             "variables": ["limit"]})
        assert status == 200
        assert body["registered"]["cacheable"] is True
        status, body, _ = client.request(
            "POST", "/tenants/t_basic/queries/cheap",
            {"variables": {"limit": 50}})
        assert status == 200
        assert body["items"] == [1]
        status, body, _ = client.request(
            "POST", "/tenants/t_basic/queries/cheap",
            {"variables": {"limit": 100}})
        assert body["items"] == [2]

    def test_tenant_listing(self, client):
        _setup_tenant(client, "t_list")
        status, body, _ = client.request("GET", "/tenants/t_list")
        assert status == 200
        assert body["documents"][0]["name"] == "books"

    def test_adhoc_execute_json_and_xml(self, client):
        _setup_tenant(client, "t_forms")
        status, body, _ = client.request(
            "POST", "/tenants/t_forms/execute",
            {"query": "$books//book[1]/title"})
        assert status == 200
        assert body["items"] == [{"node": "<title>T1</title>"}]
        status, body, headers = client.request(
            "POST", "/tenants/t_forms/execute",
            {"query": "$books//book[1]/title", "form": "xml"})
        assert status == 200
        assert headers["Content-Type"].startswith("application/xml")
        assert body == "<title>T1</title>"

    def test_document_variable_binding(self, client):
        _setup_tenant(client, "t_var")
        status, body, _ = client.request(
            "POST", "/tenants/t_var/execute",
            {"query": "count($extra//item)",
             "variables": {"extra": {"xml": "<r><item/><item/></r>"}}})
        assert status == 200
        assert body["items"] == [2]

    def test_explain_analyze(self, client):
        _setup_tenant(client, "t_explain")
        status, body, _ = client.request(
            "POST", "/tenants/t_explain/explain",
            {"query": "count($books//book)"})
        assert status == 200
        assert body["analyze"] is True
        assert "plan" in body and "operators" in body


class TestResultCache:
    def test_hit_and_header(self, client):
        _setup_tenant(client, "t_cache")
        req = {"query": "count($books//book)", "variables": {}}
        status, body, headers = client.request(
            "POST", "/tenants/t_cache/execute", req)
        assert status == 200
        assert body["cached"] is False
        assert headers["X-Repro-Cache"] == "miss"
        status, body, headers = client.request(
            "POST", "/tenants/t_cache/execute", req)
        assert body["cached"] is True
        assert headers["X-Repro-Cache"] == "hit"

    def test_reingest_invalidates(self, client):
        _setup_tenant(client, "t_inval")
        req = {"query": "count($books//book)"}
        _, first, _ = client.request("POST", "/tenants/t_inval/execute", req)
        assert first["items"] == [2]
        _, again, _ = client.request("POST", "/tenants/t_inval/execute", req)
        assert again["cached"] is True
        _setup_tenant(client, "t_inval",
                      "<bib><book><title>only</title></book></bib>")
        _, after, _ = client.request("POST", "/tenants/t_inval/execute", req)
        assert after["cached"] is False
        assert after["items"] == [1]

    def test_cache_opt_out(self, client):
        _setup_tenant(client, "t_nocache")
        req = {"query": "count($books//book)", "cache": False}
        client.request("POST", "/tenants/t_nocache/execute", req)
        _, body, _ = client.request("POST", "/tenants/t_nocache/execute", req)
        assert body["cached"] is False

    def test_node_constructors_not_cached(self, client):
        _setup_tenant(client, "t_ctor")
        req = {"query": "<wrap>{count($books//book)}</wrap>"}
        client.request("POST", "/tenants/t_ctor/execute", req)
        _, body, _ = client.request("POST", "/tenants/t_ctor/execute", req)
        assert body["cached"] is False

    def test_constructor_function_casts_are_cacheable(self, client):
        # xs:decimal(...) is a cast, not a node constructor or an
        # unknown function — it must not defeat the result cache
        _setup_tenant(client, "t_cast")
        req = {"query": "count($books//book[xs:decimal(price) le 30])"}
        _, body, _ = client.request("POST", "/tenants/t_cast/execute", req)
        assert body["cached"] is False
        _, body, _ = client.request("POST", "/tenants/t_cast/execute", req)
        assert body["cached"] is True

    def test_one_compile_per_inprocess_request(self, server, client,
                                               monkeypatch):
        # the cacheable verdict comes from the query the service ran,
        # not from a second compile (which, for a text that only shares
        # its shape with a cached one, would parse it again)
        _setup_tenant(client, "t_once")
        engine = server.server.core.tenants.get("t_once").engine
        calls = []
        compile_ = engine.compile

        def counted(*args, **kwargs):
            calls.append(args[0])
            return compile_(*args, **kwargs)

        monkeypatch.setattr(engine, "compile", counted)
        for limit in (10, 40, 60, 40):
            _, body, _ = client.request(
                "POST", "/tenants/t_once/execute",
                {"query": f"count($books//book[price < {limit}])"})
            assert body["items"] == [{10: 0, 40: 1, 60: 2}[limit]]
        assert body["cached"] is True
        assert len(calls) == 3

    def test_variable_order_insensitive(self, client):
        _setup_tenant(client, "t_canon")
        q = "count($books//book[price < $a + $b])"
        _, _, _ = client.request(
            "POST", "/tenants/t_canon/execute",
            {"query": q, "variables": {"a": 10, "b": 30}})
        _, body, _ = client.request(
            "POST", "/tenants/t_canon/execute",
            {"query": q, "variables": {"b": 30, "a": 10}})
        assert body["cached"] is True


class TestTenantIsolation:
    def test_same_names_different_content_no_plan_sharing(self):
        # the satellite guarantee: one shared compile cache, and still
        # two tenants binding different content under the same document
        # name can never exchange plans or results
        core = AppCore(ExecutionOptions(), result_cache_size=8)
        core.ingest("alpha", "books",
                    "<bib><book><price>1</price></book></bib>")
        core.ingest("beta", "books",
                    "<bib><book><price>1</price></book>"
                    "<book><price>2</price></book></bib>")
        query = "count($books//book)"
        ra = core.execute_inline("alpha", query)
        rb = core.execute_inline("beta", query)
        assert ra["payload"]["items"] == [1]
        assert rb["payload"]["items"] == [2]
        alpha = core.tenants.get("alpha")
        beta = core.tenants.get("beta")
        assert alpha.engine.compile_cache is beta.engine.compile_cache
        assert alpha.engine.compile(query) is not beta.engine.compile(query)

    def test_result_cache_partitioned_by_tenant(self):
        core = AppCore(ExecutionOptions(), result_cache_size=8)
        core.ingest("one", "d", "<r><x/></r>")
        core.ingest("two", "d", "<r><x/><x/></r>")
        query = "count($d//x)"
        assert core.execute_inline("one", query)["payload"]["items"] == [1]
        assert core.execute_inline("two", query)["payload"]["items"] == [2]
        hit = core.execute_inline("one", query)
        assert hit["cached"] is True
        assert hit["payload"]["items"] == [1]


class TestErrorMapping:
    def test_syntax_error_400(self, client):
        _setup_tenant(client, "t_err")
        status, body, _ = client.request(
            "POST", "/tenants/t_err/execute", {"query": "for $x in"})
        assert status == 400
        assert body["error"]["code"].startswith("XPST")

    def test_dynamic_error_422(self, client):
        _setup_tenant(client, "t_err2")
        status, body, _ = client.request(
            "POST", "/tenants/t_err2/execute", {"query": "1 div 0"})
        assert status == 422
        assert body["error"]["code"] == "FOAR0001"

    def test_unknown_tenant_404(self, client):
        status, body, _ = client.request(
            "POST", "/tenants/ghost/execute", {"query": "1"})
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_unknown_registered_query_404(self, client):
        _setup_tenant(client, "t_err3")
        status, _, _ = client.request(
            "POST", "/tenants/t_err3/queries/missing", {})
        assert status == 404

    def test_bad_json_400(self, client):
        _setup_tenant(client, "t_err4")
        status, body, _ = client.request(
            "POST", "/tenants/t_err4/execute", "{not json")
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    def test_bad_registration_rejected_at_register_time(self, client):
        status, body, _ = client.request(
            "PUT", "/tenants/t_err5/queries/broken",
            {"query": "((("})
        assert status == 400
        assert body["error"]["code"].startswith("XPST")

    def test_timeout_504(self, client):
        _setup_tenant(client, "t_slow")
        status, body, _ = client.request(
            "POST", "/tenants/t_slow/execute",
            {"query": SLOW, "timeout": 0.05})
        assert status == 504
        assert body["error"]["code"] == "SVC0003"

    def test_no_route_404(self, client):
        status, _, _ = client.request("GET", "/nope")
        assert status == 404


_PREFORK = pytest.mark.skipif(not hasattr(os, "fork"),
                              reason="pre-forked mode needs os.fork")


@pytest.mark.parametrize("processes,shards", [
    (0, 0), pytest.param(2, 0, marks=_PREFORK),
    pytest.param(2, 2, marks=_PREFORK)],
    ids=["inprocess", "prefork", "shards2"])
def test_non_finite_floats_reply_in_strict_json(processes, shards):
    """A 200 must carry a JSON body: INF/-INF/NaN travel as their
    lexical forms on the single-worker and the scatter path alike
    (``Client`` parses strictly, so a bare ``Infinity`` fails here)."""
    handle = start_in_thread(ServerConfig(
        port=0, processes=processes,
        options=ExecutionOptions(shards=shards)))
    client = Client(handle.port)
    try:
        for name, value in (("d0", "INF"), ("d1", "NaN"), ("d2", "1.5")):
            status, body, _ = client.request(
                "PUT", f"/tenants/t/documents/{name}", f"<r><n>{value}</n></r>")
            assert status == 200, body
        for query, items in (
                ("(xs:double('INF'), xs:float('-INF'), 1e0 div 0, "
                 "xs:double('NaN'), 0.5e0)",
                 ["INF", "-INF", "INF", "NaN", 0.5]),
                ("for $n in collection()//n return xs:double($n)",
                 ["INF", "NaN", 1.5]),
                ("sum(for $n in collection()//n[. != 'NaN'] "
                 "return xs:double($n))", ["INF"])):
            status, body, _ = client.request(
                "POST", "/tenants/t/execute", {"query": query})
            assert status == 200, body
            assert body["items"] == items
            status, text, _ = client.request(
                "POST", "/tenants/t/execute", {"query": query, "form": "xml"})
            assert status == 200
            assert text == " ".join(
                i if isinstance(i, str) else str(i) for i in items)
        if shards:
            status, metrics, _ = client.request("GET", "/metrics")
            assert metrics["sharding"]["scattered"] >= 4
    finally:
        client.close()
        handle.close()


@pytest.mark.parametrize("processes", [0, pytest.param(2, marks=_PREFORK)],
                         ids=["inprocess", "prefork"])
def test_too_deeply_nested_query_is_a_400(processes):
    """The parser recurses per nesting level; past the recursion limit
    the request is malformed (XPST0003), not a 500 ``internal``."""
    handle = start_in_thread(ServerConfig(port=0, processes=processes))
    client = Client(handle.port)
    try:
        _setup_tenant(client, "t_deep")
        status, body, _ = client.request(
            "POST", "/tenants/t_deep/execute",
            {"query": "(" * 3000 + "1" + ")" * 3000})
        assert status == 400, body
        assert body["error"]["code"] == "XPST0003"
        assert "nested too deeply" in body["error"]["message"]
        status, body, _ = client.request(
            "POST", "/tenants/t_deep/execute", {"query": "count($books//book)"})
        assert status == 200 and body["items"] == [2]
    finally:
        client.close()
        handle.close()


@pytest.mark.parametrize("processes", [0, pytest.param(2, marks=_PREFORK)],
                         ids=["inprocess", "prefork"])
def test_too_deep_recursion_is_a_422(processes):
    """A user function recursing past the interpreter's stack is an
    implementation limit (XPDY0130) on this data, not a 500 — and no
    child dies of it."""
    handle = start_in_thread(ServerConfig(port=0, processes=processes))
    client = Client(handle.port)
    try:
        _setup_tenant(client, "t_rec")
        status, body, _ = client.request(
            "POST", "/tenants/t_rec/execute",
            {"query": "declare function local:f($n) { if ($n le 0) then 0 "
                      "else $n + local:f($n - 1) }; local:f(100000)"})
        assert status == 422, body
        assert body["error"]["code"] == "XPDY0130"
        status, body, _ = client.request(
            "POST", "/tenants/t_rec/execute", {"query": "count($books//book)"})
        assert status == 200 and body["items"] == [2]
        status, body, _ = client.request("GET", "/metrics")
        if processes:
            assert body["pool"]["workers"] == processes
            assert body["pool"]["crashes"] == body["pool"]["respawns"] == 0
    finally:
        client.close()
        handle.close()


def _raw_exchange(port: int, data: bytes):
    """Send ``data`` on a fresh socket while reading until the server
    closes (a server may answer before it has read everything):
    ``(status, headers, json body)``."""
    def send():
        try:
            sock.sendall(data)
        except OSError:
            pass  # the reply, read meanwhile, is what is checked

    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sender = threading.Thread(target=send)
        sender.start()
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
        sender.join()
    head, _, body = reply.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return int(lines[0].split(" ")[1]), headers, json.loads(body)


class TestHostileRequests:
    """Every request gets exactly one well-formed reply, in both modes:
    heads the parser rejects (then the connection closes: nothing after
    them can be trusted to start a request), document bodies that are
    not UTF-8, and queries nested past what one Python function may
    hold."""

    @pytest.fixture(scope="class", params=[
        0, pytest.param(2, marks=_PREFORK)], ids=["inprocess", "prefork"])
    def port(self, request):
        handle = start_in_thread(ServerConfig(
            port=0, processes=request.param, max_body=4096))
        client = Client(handle.port)
        _setup_tenant(client, "t")
        client.close()
        yield handle.port
        handle.close()

    @pytest.mark.parametrize("head", [
        b"GARBAGE\r\n\r\n",
        b"POST /tenants/t/execute HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        b"POST /tenants/t/execute HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        b"POST /tenants/t/execute HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n",
    ], ids=["request_line", "non_integer_length", "negative_length",
            "underscored_length"])
    def test_malformed_head_is_a_400(self, port, head):
        status, headers, body = _raw_exchange(port, head)
        assert status == 400, body
        assert body["error"]["code"] == "bad_request"
        assert headers["Connection"] == "close"

    def test_oversized_body_is_a_413(self, port):
        status, headers, body = _raw_exchange(
            port, b"POST /tenants/t/execute HTTP/1.1\r\n"
                  b"Content-Length: 4097\r\n\r\n")
        assert status == 413, body
        assert body["error"]["code"] == "payload_too_large"
        assert headers["Connection"] == "close"

    def test_oversized_body_sent_anyway_is_a_413(self, port):
        # the server answers before reading the body, then drains it:
        # closing over unread input would reset the connection
        status, _headers, body = _raw_exchange(
            port, b"POST /tenants/t/execute HTTP/1.1\r\n"
                  b"Content-Length: 4194304\r\n\r\n" + b"x" * 4194304)
        assert status == 413, body

    def test_overlong_head_is_a_400(self, port):
        status, headers, body = _raw_exchange(
            port, b"GET /health HTTP/1.1\r\nX-Pad: " + b"x" * 80000
                  + b"\r\n\r\n")
        assert status == 400, body
        assert body["error"]["code"] == "bad_request"
        assert headers["Connection"] == "close"

    def test_rejected_heads_are_counted(self, port):
        def rejected():
            client = Client(port)
            try:
                _status, body, _ = client.request("GET", "/metrics")
                return body["server"]["status"].get("400", 0)
            finally:
                client.close()

        before = rejected()
        _raw_exchange(port, b"GARBAGE\r\n\r\n")
        assert rejected() == before + 1

    def test_non_utf8_document_is_a_400(self, port):
        client = Client(port)
        try:
            status, body, _ = client.request(
                "PUT", "/tenants/t/documents/bad", b"<a\xff>")
            assert status == 400, body
            assert body["error"]["code"] == "bad_request"
            status, body, _ = client.request(
                "POST", "/tenants/t/execute", {"query": "count($books//book)"})
            assert status == 200 and body["items"] == [2]
        finally:
            client.close()

    def test_deep_else_if_chain_answers(self, port):
        """100 nested ``else`` branches are past CPython's 100
        indentation levels in one function."""
        chain = "".join(f"if ($x lt {i}) then {i} else " for i in range(100))
        client = Client(port)
        try:
            status, body, _ = client.request(
                "POST", "/tenants/t/execute",
                {"query": f"let $x := count($books//book) return {chain} 0"})
            assert status == 200, body
            assert body["items"] == [3]
        finally:
            client.close()


class TestOverload:
    def test_admission_rejects_503(self):
        config = ServerConfig(
            port=0, options=ExecutionOptions(max_workers=1, max_queue=0))
        handle = start_in_thread(config)
        try:
            clients = [Client(handle.port) for _ in range(4)]
            _setup_tenant(clients[0], "t_load")
            statuses = []
            lock = threading.Lock()

            def fire(c):
                status, _, _ = c.request(
                    "POST", "/tenants/t_load/execute",
                    {"query": SLOW, "cache": False})
                with lock:
                    statuses.append(status)

            threads = [threading.Thread(target=fire, args=(c,))
                       for c in clients]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert 503 in statuses, statuses
            assert 200 in statuses, statuses
        finally:
            for c in clients:
                c.close()
            handle.close()


class TestMetrics:
    def test_shape_and_counters(self, client):
        _setup_tenant(client, "t_metrics")
        req = {"query": "count($books//book)"}
        client.request("POST", "/tenants/t_metrics/execute", req)
        client.request("POST", "/tenants/t_metrics/execute", req)
        status, body, _ = client.request("GET", "/metrics")
        assert status == 200
        assert body["server"]["counters"]["requests"] >= 3
        latency = body["server"]["latency"]["execute"]
        assert latency["p50_ms"] is not None
        assert latency["p99_ms"] >= latency["p50_ms"]
        assert body["service"]["completed"] >= 1
        caches = body["caches"]
        assert caches["result_cache"]["hits"] >= 1
        assert caches["compile_cache"]["misses"] >= 1


@pytest.mark.skipif(not hasattr(os, "fork"),
                    reason="pre-forked mode needs os.fork")
class TestPreforkedMode:
    @pytest.fixture(scope="class")
    def prefork(self):
        handle = start_in_thread(ServerConfig(port=0, processes=2))
        yield handle
        handle.close()

    def test_end_to_end(self, prefork):
        client = Client(prefork.port)
        try:
            status, body, _ = client.request("GET", "/health")
            assert body["mode"] == "prefork"
            _setup_tenant(client, "t_fork")
            status, body, _ = client.request(
                "PUT", "/tenants/t_fork/queries/titles",
                {"query": "$books//book/title", "variables": []})
            assert status == 200
            status, body, _ = client.request(
                "POST", "/tenants/t_fork/queries/titles", {})
            assert status == 200
            assert body["count"] == 2
            # the parent-side cache spans children
            status, body, _ = client.request(
                "POST", "/tenants/t_fork/queries/titles", {})
            assert body["cached"] is True
            # re-ingest broadcasts and invalidates everywhere
            _setup_tenant(client, "t_fork",
                          "<bib><book><title>N</title></book></bib>")
            status, body, _ = client.request(
                "POST", "/tenants/t_fork/queries/titles", {})
            assert body["cached"] is False
            assert body["items"] == [{"node": "<title>N</title>"}]
            status, body, _ = client.request("GET", "/metrics")
            assert body["pool"]["workers"] == 2
            assert body["pool"]["replay_log"] >= 2
        finally:
            client.close()

    def test_parent_side_hits_count_in_metrics(self, prefork):
        """A hit in the parent's cross-child result cache returns before
        any child is asked; it must still count as a cache hit."""
        client = Client(prefork.port)
        try:
            _setup_tenant(client, "t_forkhits")
            req = {"query": "count($books//book)"}
            status, body, _ = client.request(
                "POST", "/tenants/t_forkhits/execute", req)
            assert status == 200 and body["cached"] is False

            def counters():
                return client.request("GET", "/metrics")[1][
                    "server"]["counters"]

            before = counters()
            for _ in range(200):
                status, body, _ = client.request(
                    "POST", "/tenants/t_forkhits/execute", req)
                assert status == 200 and body["cached"] is True
            after = counters()
            assert after["cache_hits"] - before.get("cache_hits", 0) == 200
            assert after.get("cache_misses", 0) \
                == before.get("cache_misses", 0)
        finally:
            client.close()

    def test_errors_cross_the_pipe(self, prefork):
        client = Client(prefork.port)
        try:
            _setup_tenant(client, "t_forkerr")
            status, body, _ = client.request(
                "POST", "/tenants/t_forkerr/execute", {"query": "1 div 0"})
            assert status == 422
            assert body["error"]["code"] == "FOAR0001"
        finally:
            client.close()


class TestPersistentServer:
    """``--data-dir``: durable tenants, warm restarts, prefork attach."""

    def _config(self, data_dir, **kw):
        return ServerConfig(
            port=0, options=ExecutionOptions(data_dir=str(data_dir)), **kw)

    def test_restart_comes_up_warm(self, tmp_path):
        handle = start_in_thread(self._config(tmp_path))
        client = Client(handle.port)
        try:
            _setup_tenant(client, "t_warm")
            status, body, _ = client.request(
                "POST", "/tenants/t_warm/execute",
                {"query": "count($books//book)"})
            assert status == 200 and body["items"] == [2]
        finally:
            client.close()
            handle.close()

        # a brand-new server process over the same directory: the
        # tenant and its documents are there without any re-ingest
        handle = start_in_thread(self._config(tmp_path))
        client = Client(handle.port)
        try:
            status, body, _ = client.request("GET", "/tenants")
            assert "t_warm" in body["tenants"]
            status, body, _ = client.request(
                "POST", "/tenants/t_warm/execute",
                {"query": "$books//book[price = '55']/title"})
            assert status == 200
            assert body["items"] == [{"node": "<title>T1</title>"}]
        finally:
            client.close()
            handle.close()

    @pytest.mark.parametrize("processes", [
        0, pytest.param(2, marks=pytest.mark.skipif(
            not hasattr(os, "fork"), reason="pre-forked mode needs os.fork"))])
    def test_same_named_documents_stay_per_tenant(self, tmp_path, processes):
        """Disk catalogs number generations per collection directory,
        so two tenants that ingested ``doc0``-``doc3`` in the same
        order hold them at equal generations: (name, kind, indexed,
        generation) alone made both tenants share one compile-cache
        key, and the second tenant's registered query was answered from
        the first tenant's document.  The collection id in the catalog
        fingerprint keeps them apart, before and after a restart."""
        sizes = {"north": 2, "south": 5}
        query = ("(count($doc0//x), count($doc1//x), count($doc2//x), "
                 "count($doc3//x))")

        def check(client):
            for tenant, n in sizes.items():
                expected = [n + j for j in range(4)]
                status, body, _ = client.request(
                    "PUT", f"/tenants/{tenant}/queries/sizes",
                    {"query": query, "variables": []})
                assert status == 200, body
                status, body, _ = client.request(
                    "POST", f"/tenants/{tenant}/queries/sizes",
                    {"cache": False})
                assert status == 200 and body["items"] == expected, tenant
                status, body, _ = client.request(
                    "POST", f"/tenants/{tenant}/execute",
                    {"query": query, "cache": False})
                assert status == 200 and body["items"] == expected, tenant

        handle = start_in_thread(self._config(tmp_path, processes=processes))
        client = Client(handle.port)
        try:
            for tenant, n in sizes.items():
                for j in range(4):
                    status, body, _ = client.request(
                        "PUT", f"/tenants/{tenant}/documents/doc{j}",
                        "<r>" + "<x/>" * (n + j) + "</r>")
                    assert status == 200, body
            check(client)
        finally:
            client.close()
            handle.close()
        handle = start_in_thread(self._config(tmp_path, processes=processes))
        client = Client(handle.port)
        try:
            check(client)
            north = handle.server.core.tenants.get("north").catalog
            south = handle.server.core.tenants.get("south").catalog
            assert [d.generation for d in north] \
                == [d.generation for d in south]  # the colliding part
            assert north.fingerprint() != south.fingerprint()
        finally:
            client.close()
            handle.close()

    def test_restart_does_not_serve_stale_cached_results(self, tmp_path):
        """The 1.6 bugfix: the result-cache epoch persists with the
        catalog, so a restarted server re-ingesting different content
        can never replay a previous process's cached response."""
        query = {"query": "count($books//book)"}
        handle = start_in_thread(self._config(tmp_path))
        client = Client(handle.port)
        try:
            _setup_tenant(client, "t_epoch")
            status, body, _ = client.request(
                "POST", "/tenants/t_epoch/execute", query)
            assert body["items"] == [2]
            status, body, _ = client.request(
                "POST", "/tenants/t_epoch/execute", query)
            assert body["cached"] is True  # primed
        finally:
            client.close()
            handle.close()

        handle = start_in_thread(self._config(tmp_path))
        client = Client(handle.port)
        try:
            _setup_tenant(client, "t_epoch",
                          "<bib><book><title>only</title></book></bib>")
            status, body, _ = client.request(
                "POST", "/tenants/t_epoch/execute", query)
            assert body["cached"] is False
            assert body["items"] == [1]  # the new content, not a replay
        finally:
            client.close()
            handle.close()

    def test_prefork_children_attach_not_replay(self, tmp_path):
        handle = start_in_thread(self._config(tmp_path, processes=2))
        client = Client(handle.port)
        try:
            _setup_tenant(client, "t_attach")
            # the replay log carries ("attach", tenant) commands — no
            # XML crosses the pipe in disk mode
            core = handle.server.core
            assert core.options.data_dir == str(tmp_path)
            for _ in range(3):
                status, body, _ = client.request(
                    "POST", "/tenants/t_attach/execute",
                    {"query": "$books//book[price = '55']/title",
                     "cache": False})
                assert status == 200
                assert body["items"] == [{"node": "<title>T1</title>"}]
            replay = handle.server.pool.stats()["replay_log"]
            assert replay >= 1
        finally:
            client.close()
            handle.close()

    def test_attach_command_refreshes_a_child_core(self, tmp_path):
        # AppCore-level: a second core over the same directory plays
        # the reader role a pre-forked child has
        opts = ExecutionOptions(data_dir=str(tmp_path))
        writer = AppCore(opts)
        writer.ingest("t", "books", BOOKS)
        reader = AppCore(opts)
        out = reader.execute_inline("t", "count($books//book)")
        assert out["status"] == 200 and out["payload"]["items"] == [2]
        writer.ingest("t", "books", "<bib><book/></bib>")
        reply = reader.handle(("attach", "t"))
        assert reply["status"] == 200
        assert reply["payload"]["changed"] == ["books"]
        out = reader.execute_inline("t", "count($books//book)")
        assert out["payload"]["items"] == [1]
