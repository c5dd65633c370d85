"""The HTTP server: tenants, registered queries, caching, metrics.

Each test talks real HTTP to a server on a background thread
(``port=0`` → OS-assigned), covering both execution modes and the
serving guarantees: result-cache hits and their invalidation on
re-ingest, tenant plan isolation over the shared compile cache, the
error-code → status mapping, and the /metrics shape.
"""

import contextlib
import json
import http.client
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import Engine, ExecutionOptions
from repro.catalog import DocumentCatalog
from repro.errors import XQueryError
from repro.server import AppCore, ServerConfig, start_in_thread
from repro.server.cache import ServerResultCache
from repro.server.tenants import error_reply, result_payload

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

    def test_result_cache_partitioned_by_tenant(self, client):
        # the front's one result cache: same text, same document name,
        # two tenants — each hit answers from its own tenant's entry
        for tenant, doc in (("t_part1", "<r><x/></r>"),
                            ("t_part2", "<r><x/><x/></r>")):
            status, body, _ = client.request(
                "PUT", f"/tenants/{tenant}/documents/d", doc)
            assert status == 200, body
        req = {"query": "count($d//x)"}
        for cached in (False, True):
            for tenant, items in (("t_part1", [1]), ("t_part2", [2])):
                status, body, _ = client.request(
                    "POST", f"/tenants/{tenant}/execute", req)
                assert status == 200 and body["items"] == items
                assert body["cached"] is cached


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


@pytest.mark.parametrize("processes", [0, pytest.param(2, marks=_PREFORK)],
                         ids=["inprocess", "prefork"])
def test_non_finite_floats_reply_in_strict_json(processes):
    """A 200 must carry a JSON body: INF/-INF/NaN travel as their
    lexical forms (``Client`` parses strictly, so a bare ``Infinity``
    fails here)."""
    handle = start_in_thread(ServerConfig(port=0, processes=processes))
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


class TestOneExecutePath:
    """Both modes run every execute through ``AppCore.handle`` behind
    the front's one result cache: a request gets the same answer
    whichever process runs it."""

    @pytest.fixture(scope="class", params=[
        0, pytest.param(2, marks=_PREFORK)], ids=["inprocess", "prefork"])
    def client(self, request):
        handle = start_in_thread(ServerConfig(port=0,
                                              processes=request.param))
        client = Client(handle.port)
        _setup_tenant(client, "t")
        yield client
        client.close()
        handle.close()

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_timeout_is_a_400(self, client, token):
        status, body, _ = client.request(
            "POST", "/tenants/t/execute",
            '{"query": "count($books//book)", "timeout": %s}' % token)
        assert status == 400, body
        assert body["error"]["code"] == "bad_request"
        assert "finite" in body["error"]["message"]

    def test_huge_timeout_keeps_replies_paired(self, client):
        # a timeout past what select() accepts must not leave a pool
        # worker holding an unread reply: every later request on it
        # would get the previous request's answer, cached by the front
        status, body, _ = client.request(
            "POST", "/tenants/t/execute",
            {"query": "10 * count($books//book)", "timeout": 1e300,
             "cache": False})
        # executed, then again from the front's cache
        answers = [client.request(
            "POST", "/tenants/t/execute",
            {"query": f"{n} + count($books//book)"})[1].get("items")
            for _round in range(2) for n in (0, 100, 200, 300)]
        assert answers == [[2], [102], [202], [302]] * 2
        assert status == 200 and body["items"] == [20], body

    def test_registered_query_keeps_its_declared_variables(self, client):
        status, body, _ = client.request(
            "PUT", "/tenants/t/queries/sum2",
            {"query": "count($books//book[price < $a + $b])",
             "variables": ["a", "b"]})
        assert status == 200, body
        status, body, _ = client.request(
            "POST", "/tenants/t/queries/sum2", {"variables": {"a": 10}})
        assert status == 422, body
        assert body["error"]["code"] == "XPDY0002"
        status, body, _ = client.request(
            "POST", "/tenants/t/queries/sum2",
            {"variables": {"a": 10, "b": 30}})
        assert status == 200 and body["items"] == [1]

    def test_front_hits_reach_metrics(self, client):
        status, body, _ = client.request(
            "PUT", "/tenants/t/queries/titles",
            {"query": "$books//book/title", "variables": []})
        assert status == 200, body

        def hits():
            return client.request("GET", "/metrics")[1][
                "caches"]["result_cache"]["hits"]

        before = hits()
        replies = [client.request("POST", "/tenants/t/queries/titles", {})
                   for _ in range(3)]
        assert [body["cached"] for _, body, _ in replies] \
            == [False, True, True]
        # the executing side times what it ran; a front hit ran nothing
        assert "X-Repro-Elapsed-Ms" in replies[0][2]
        assert all("X-Repro-Elapsed-Ms" not in headers
                   for _, _, headers in replies[1:])
        assert hits() - before >= 2


@pytest.mark.parametrize("processes", [0, pytest.param(2, marks=_PREFORK)],
                         ids=["inprocess", "prefork"])
def test_default_timeout_applies_to_execute(processes):
    handle = start_in_thread(ServerConfig(
        port=0, processes=processes,
        options=ExecutionOptions(default_timeout=0.05)))
    client = Client(handle.port)
    try:
        _setup_tenant(client, "t")
        status, body, _ = client.request(
            "POST", "/tenants/t/execute", {"query": SLOW})
        assert status == 504, body
        assert body["error"]["code"] == "SVC0003"
        status, body, _ = client.request("GET", "/metrics")
        assert body["server"]["status"]["504"] >= 1
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
            # the front's one cache answers, whichever child executed
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
        """A hit in the front's result cache returns before any child
        is asked; it must still count as a cache hit."""
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


class TestCanonicalBindingsMemo:
    """The hot-path bindings encoding is memoized."""

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
def test_hit_path_allocates_no_new_encoding():
    cache = ServerResultCache(capacity=32)
    bindings = {"limit": 50}
    cache.key("t", "q", (), (), bindings, "json")
    before = cache.stats()["encodes"]
    for _ in range(100):
        cache.key("t", "q", (), (), {"limit": 50}, "json")
    assert cache.stats()["encodes"] == before


#: six small documents; d02 and d04 hold a <bad> whose content breaks
#: xs:integer casts, so error paths meet the first error in document
#: order (d02's "oops") with a later one (d04's "worse") behind it
COLLECTION = {f"d{i:02d}": (f"<r><n>{i}</n><n>{i * 10}</n>"
                            f"<f>{i}.5</f><s>x{i}</s></r>")
              for i in range(6)}
COLLECTION["d02"] = COLLECTION["d02"].replace("</r>", "<bad>oops</bad></r>")
COLLECTION["d04"] = COLLECTION["d04"].replace("</r>", "<bad>worse</bad></r>")

#: (label, execute body) over the default collection
COLLECTION_CASES = [
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
    # d00 answers true before d02's cast could fail
    ("exists_stops_before_an_error",
     {"query": "exists(for $r in collection()/r return "
               "if ($r/bad) then xs:integer($r/bad) else $r/n)"}),
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
    ("positional", {"query": "(collection()//n)[2]"}),
    ("order_by", {"query": "for $x in collection()//n "
                           "order by number($x) descending "
                           "return string($x)"}),
]


def _server_answer(status, body):
    if isinstance(body, str):
        return (status, body)
    if "error" in body:
        return (status, body["error"]["code"], body["error"]["message"])
    return (status, body["items"], body["count"])


def _engine_answer(engine, case):
    form = case.get("form", "json")
    try:
        result = engine.compile(case["query"]).execute()
        payload = result_payload(result, form)
    except XQueryError as exc:
        reply = error_reply(exc)
        return (reply["status"], reply["error"], reply["message"])
    if form == "xml":
        return (200, payload["body"])
    return (200, payload["items"], payload["count"])


@contextlib.contextmanager
def _collection_servers(tmp_path, store):
    """Yield ``(engine, handles, clients)``: a bare ``Engine``, a
    pre-forked server (two children) and an in-process server, all
    over the same ``COLLECTION`` in a disk or a memory store."""
    if store == "disk":
        catalog = DocumentCatalog(tmp_path / "t")
        options = ExecutionOptions(data_dir=str(tmp_path))
    else:
        catalog = repro.catalog()
        options = ExecutionOptions()
    for name, xml in sorted(COLLECTION.items()):
        catalog.add(name, xml)
    handles = [start_in_thread(ServerConfig(port=0, processes=n,
                                            options=options))
               for n in (2, 0)]
    clients = [Client(handle.port) for handle in handles]
    try:
        if store == "memory":
            for client in clients:
                _load_collection(client)
        yield Engine(catalog=catalog), handles, clients
    finally:
        for client in clients:
            client.close()
        for handle in handles:
            handle.close()


def _load_collection(client):
    for name, xml in sorted(COLLECTION.items()):
        status, body, _ = client.request(
            "PUT", f"/tenants/t/documents/{name}", xml)
        assert status == 200, body


#: a ``--processes 2`` server pinned to one CPU, run in a child
#: interpreter; it prints its port and stops when stdin closes
_PINNED_SERVER = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from repro.server import ServerConfig, start_in_thread
handle = start_in_thread(ServerConfig(port=0, processes=2))
print(handle.port, flush=True)
sys.stdin.read()
handle.close()
"""


@pytest.mark.skipif(not hasattr(os, "fork"),
                    reason="pre-forked mode needs os.fork")
class TestCollectionDifferential:
    """Every ``collection()`` query runs in one process: a pre-forked
    server, an in-process server and a bare ``Engine`` over the same
    catalog give the same bytes and the same error, down to its
    message.  Two semantics are pinned by name: the first error in
    document order wins, and ``exists`` stops at the first document
    that answers it, before a later document's error."""

    @pytest.mark.parametrize("store", ["disk", "memory"])
    def test_servers_match_engine(self, tmp_path, store):
        with _collection_servers(tmp_path, store) as (engine, _, clients):
            answers = {}
            for label, case in COLLECTION_CASES:
                body = dict(case, cache=False)
                got = [_server_answer(*client.request(
                    "POST", "/tenants/t/execute", body)[:2])
                    for client in clients]
                want = _engine_answer(engine, case)
                assert got == [want, want], label
                answers[label] = want
        assert answers["exists_stops_before_an_error"] == (200, [True], 1)
        assert answers["error_first_doc_wins"][1] == "FORG0001"
        assert "oops" in answers["error_first_doc_wins"][2]
        assert "oops" in answers["error_mid_collection"][2]

    def test_prefork_parent_compiles_no_query(self, tmp_path):
        """A pre-forked parent hands every text, collection or not, to
        a child without compiling it."""
        with _collection_servers(tmp_path, "disk") as (_, handles, clients):
            parent = handles[0].server.core.tenants.get("t").engine
            compiled = []
            real = parent.compile
            parent.compile = lambda text, **kw: (compiled.append(text),
                                                 real(text, **kw))[1]
            for i in range(3):
                status, body, _ = clients[0].request(
                    "POST", "/tenants/t/execute",
                    {"query": f"count($d00//n) + {i}"})
                assert status == 200 and body["items"] == [2 + i]
            for label, case in COLLECTION_CASES:
                status, _, _ = clients[0].request(
                    "POST", "/tenants/t/execute", dict(case, cache=False))
                assert status in (200, 400, 422), label
            assert compiled == []

    def test_collection_reply_is_front_cacheable(self, tmp_path):
        """A repeated ``collection()`` query is answered from the
        front result cache on either kind of server."""
        with _collection_servers(tmp_path, "disk") as (_, _, clients):
            query = {"query": "count(collection()//n)"}
            for client in clients:
                status, first, headers = client.request(
                    "POST", "/tenants/t/execute", query)
                assert status == 200 and first["items"] == [12]
                status, second, headers = client.request(
                    "POST", "/tenants/t/execute", query)
                assert status == 200
                assert headers["X-Repro-Cache"] == "hit"
                assert second["items"] == first["items"]

    def test_metrics_have_no_sharding_block(self, tmp_path):
        """``/metrics`` reports the server and its caches, and no
        scatter router, whether or not the server pre-forks."""
        with _collection_servers(tmp_path, "disk") as (_, _, clients):
            for client in clients:
                status, body, _ = client.request(
                    "POST", "/tenants/t/execute",
                    {"query": "count(collection()//n)"})
                assert status == 200
                status, metrics, _ = client.request("GET", "/metrics")
                assert status == 200
                assert {"server", "caches"} <= set(metrics)
                assert "sharding" not in metrics

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs an affinity mask")
    def test_one_core_server_runs_collections_in_one_child(self):
        """A ``--processes 2`` server pinned to one CPU answers every
        collection case as a bare ``Engine`` does."""
        catalog = repro.catalog()
        for name, xml in sorted(COLLECTION.items()):
            catalog.add(name, xml)
        engine = Engine(catalog=catalog)
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.Popen([sys.executable, "-c", _PINNED_SERVER],
                                stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, env=env, text=True)
        try:
            client = Client(int(proc.stdout.readline()))
            try:
                _load_collection(client)
                for label, case in COLLECTION_CASES:
                    got = _server_answer(*client.request(
                        "POST", "/tenants/t/execute",
                        dict(case, cache=False))[:2])
                    assert got == _engine_answer(engine, case), label
            finally:
                client.close()
        finally:
            proc.stdin.close()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


class TestReplayExactlyOnce:
    """A worker killed while an ingest broadcast is pending replays the
    ingest on respawn; queries see the document exactly once."""

    @pytest.mark.skipif(not hasattr(os, "fork"),
                        reason="pre-forked mode needs os.fork")
    def test_kill_during_ingest_then_query(self, tmp_path):
        handle = start_in_thread(ServerConfig(
            port=0, processes=2,
            options=ExecutionOptions(data_dir=str(tmp_path))))
        try:
            client = Client(handle.port)
            _load_collection(client)
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
            assert body["items"] == [len(COLLECTION) * 2 + 1]
            client.close()
        finally:
            handle.close()
