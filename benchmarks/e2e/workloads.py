"""The five workloads: documents, registered queries, request cycles.

A workload is a deterministic function of the seed.  It yields an
endless sequence of *cycles* for its one client; a cycle is a list of
operations holding each query template a fixed number of times in a
seeded order, so any whole number of cycles has the same template mix.  Every
operation carries its pre-encoded request and a thunk that computes the
expected answer with the ElementTree oracle of ``queries``.

Why each workload exists is its ``why`` (one line, copied into
``BENCHMARK.json``); what each one bypasses is in the README.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Hashable, Iterator, Optional

import queries as Q
from loadgen import encode_request, json_request

from repro.workloads import generate_xmark

DEFAULT_SEED = 2004
#: operations in the traced sample and in the committed expectations
SAMPLE_OPS = 200


@dataclass
class Op:
    request: bytes
    kind: str                               # template name, or "put"
    expect: Optional[Callable[[], list]]    # oracle thunk; None for a PUT
    key: Hashable                           # equal keys, equal answers
    #: what an in-process replay needs: (tenant, query text, declared
    #: variable names or None for ad-hoc, bindings or None); for a PUT
    #: (tenant, document name, XML text)
    call: tuple = ()


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _zipf_picker(n: int, s: float = 1.1) -> Callable:
    """rank -> index chooser with P(rank r) proportional to r**-s."""
    cum = list(accumulate(1.0 / (r ** s) for r in range(1, n + 1)))
    return lambda rng: rng.choices(range(n), cum_weights=cum)[0]


def _literal(value: float, uid: int) -> str:
    """A decimal literal whose digits past the third carry ``uid``:
    two different uids can never give the same query text."""
    return f"{value:.3f}{uid:06d}"


class Workload:
    name = ""
    why = ""
    #: cycles the client runs before the workload counts as warm
    warm_cycles = 3

    def __init__(self, seed: int):
        self.seed = seed

    # -- to be provided ------------------------------------------------------

    def documents(self) -> list[tuple[str, str, str]]:
        """(tenant, name, xml) of every document set-up ingests."""
        raise NotImplementedError

    def registrations(self) -> list[tuple[str, str, str, tuple]]:
        """(tenant, query name, text, variables) set-up registers."""
        return []

    def cycles(self) -> Iterator[list[Op]]:
        raise NotImplementedError

    def warmup_ops(self) -> list[Op]:
        """Operations sent once before the warm-up cycles."""
        return []

    def restart_ops(self, acknowledged: dict) -> list[Op]:
        """Checks to run after a SIGKILL and restart on the same data
        directory; ``acknowledged`` maps (tenant, document) to the XML
        of its last acknowledged PUT.  Empty: no restart needed."""
        return []

    # -- shared ---------------------------------------------------------------

    def setup_requests(self) -> list[bytes]:
        """Ingests, then registrations, sent one after the other."""
        out = [encode_request("PUT", f"/tenants/{t}/documents/{n}",
                              xml.encode("utf-8"), "application/xml")
               for t, n, xml in self.documents()]
        out += [json_request("PUT", f"/tenants/{t}/queries/{n}",
                             {"query": text, "variables": list(variables)})
                for t, n, text, variables in self.registrations()]
        return out

    def _registered_op(self, tenant: str, qname: str, template: Q.Template,
                       source: str, docs: list, version: Hashable,
                       params: dict) -> Op:
        return Op(
            json_request("POST", f"/tenants/{tenant}/queries/{qname}",
                         {"variables": params}),
            template.name,
            lambda: template.oracle(docs, params),
            (tenant, qname, version, tuple(sorted(params.items()))),
            (tenant, Q.source_text(template, source),
             tuple(template.params), params))

    def sample(self, n: int = SAMPLE_OPS, block: int = 0) -> list[Op]:
        """The whole cycles that hold the first ``n`` measured
        operations (``block`` 0: the traced sample, and what
        the committed expectations cover) or the ``block``-th such run
        of cycles after them."""
        gen = self.cycles()
        for _ in range(self.warm_cycles):
            next(gen)
        for _ in range(block + 1):
            out: list[Op] = []
            while len(out) < n:
                out.extend(next(gen))
        return out


class AdhocCompile(Workload):
    name = "adhoc_compile"
    why = ("never-repeated ad-hoc texts on a 55 KB document: the compile "
           "cache always misses, so parse+compile is most of each request")
    TEMPLATES = ("flwor_where", "count_pred", "quantifier", "constructor",
                 "order_by", "user_function", "aggregates", "grouping",
                 "conditional", "string_functions", "absence", "partition",
                 "deep_text")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.xml = generate_xmark(scale=0.2, seed=seed)
        self.docs = [Q.parse_site(self.xml)]
        table = Q.templates()
        self.templates = [table[name] for name in self.TEMPLATES]

    def documents(self):
        return [("adhoc", "auction", self.xml)]

    def cycles(self):
        rng = _rng(self.seed, self.name)
        uid = 0
        while True:
            cycle = []
            for template in rng.sample(self.templates, len(self.templates)):
                uid += 1
                literal = _literal(template.sample(rng)["x"], uid)
                text = Q.adhoc_text(template, "$auction", {"x": literal})
                params = {"x": float(literal)}
                cycle.append(Op(
                    json_request("POST", "/tenants/adhoc/execute",
                                 {"query": text}),
                    template.name,
                    lambda t=template, p=params: t.oracle(self.docs, p),
                    ("adhoc", uid), ("adhoc", text, None, None)))
            yield cycle


class RegisteredExec(Workload):
    name = "registered_exec"
    why = ("registered queries on a 270 KB document with never-repeated "
           "bindings: the compile cache hits, the result cache misses, "
           "operators and serialization do the work")
    #: an odd number of equally frequent templates: the median latency
    #: then lies inside one template's distribution, not in the gap
    #: between two, where it would jump with every small shift
    TEMPLATES = ("count_pred", "flwor_window", "point_lookup", "twig",
                 "quantifier_count", "grouping", "deep_text", "partition",
                 "aggregates")
    tenant = "shop"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.xml = generate_xmark(scale=1.0, seed=seed)
        self.docs = [Q.parse_site(self.xml)]
        table = Q.templates(n_people=250)
        self.templates = [table[name] for name in self.TEMPLATES]

    def documents(self):
        return [(self.tenant, "auction", self.xml)]

    def registrations(self):
        return [(self.tenant, t.name, Q.source_text(t, "$auction"),
                 tuple(t.params)) for t in self.templates]

    def cycles(self):
        rng = _rng(self.seed, self.name)
        while True:
            yield [self._registered_op(self.tenant, t.name, t, "$auction",
                                       self.docs, 0, t.sample(rng))
                   for t in rng.sample(self.templates, len(self.templates))]


class CachedHot(RegisteredExec):
    name = "cached_hot"
    why = ("three registered queries, Zipf bindings over 96 keys that fit "
           "the 128-entry result cache: HTTP parse, cache probe and socket "
           "write are the whole request; compiler and runtime are bypassed")
    #: no constructors here: a query that builds nodes is never cached
    TEMPLATES = ("deep_text", "point_lookup", "quantifier_count")
    KEYS_PER_QUERY = 32
    #: one large reply in ten operations, so that latency_p95_ms is the
    #: median latency of the large reply and not a point on its tail
    MIX = ("deep_text",) + ("point_lookup",) * 5 + ("quantifier_count",) * 4

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = _rng(seed, self.name, "keys")
        self.keys = {t.name: [t.sample(rng)
                              for _ in range(self.KEYS_PER_QUERY)]
                     for t in self.templates}
        # the large reply: nearly every closed auction, about 5 KB of JSON
        self.keys["deep_text"] = [{"x": Q.PRICE_LOW(rng)}
                                  for _ in range(self.KEYS_PER_QUERY)]
        self._by_name = {t.name: t for t in self.templates}
        self._pick = _zipf_picker(self.KEYS_PER_QUERY)

    def _op(self, template, params):
        return self._registered_op(self.tenant, template.name, template,
                                   "$auction", self.docs, 0, params)

    def warmup_ops(self):
        return [self._op(t, params) for t in self.templates
                for params in self.keys[t.name]]

    def cycles(self):
        rng = _rng(self.seed, self.name)
        while True:
            mix = [self._by_name[name] for name in self.MIX]
            rng.shuffle(mix)
            yield [self._op(t, self.keys[t.name][self._pick(rng)])
                   for t in mix]


class CollectionScatter(Workload):
    name = "collection_scatter"
    why = ("one analyst over twelve documents: 70% shard-eligible "
           "count/sum/exists/scan over collection(), 30% ineligible; shard "
           "dispatch, merge and pipe transport dominate")
    tenant = "lake"
    SCALES = (0.1, 0.1, 0.1, 0.1, 0.15, 0.15, 0.2, 0.2, 0.25, 0.3, 0.4, 0.4)
    #: 7 shard-eligible operations and 3 ineligible ones per cycle
    MIX = ("count_pred", "count_pred", "sum_ages", "sum_ages",
           "exists_current", "scan_names", "scan_names",
           "positional", "order_income", "order_income")

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = _rng(seed, self.name, "docs")
        scales = list(self.SCALES)
        rng.shuffle(scales)
        self.xmls = {f"d{i:02d}": generate_xmark(scale=scale,
                                                 seed=seed * 100 + i)
                     for i, scale in enumerate(scales)}
        # collection() binds documents in sorted-name order
        self.docs = [Q.parse_site(self.xmls[name])
                     for name in sorted(self.xmls)]
        table = Q.templates()
        self.templates = {name: table[name] for name in set(self.MIX)}

    def documents(self):
        return [(self.tenant, name, xml) for name, xml in self.xmls.items()]

    def registrations(self):
        return [(self.tenant, t.name, Q.source_text(t, "collection()"),
                 tuple(t.params)) for t in self.templates.values()]

    def cycles(self):
        rng = _rng(self.seed, self.name)
        while True:
            mix = [self.templates[name] for name in self.MIX]
            rng.shuffle(mix)
            yield [self._registered_op(self.tenant, t.name, t,
                                       "collection()", self.docs, 0,
                                       t.sample(rng)) for t in mix]


class IngestMixed(Workload):
    name = "ingest_mixed"
    why = ("one durable re-ingest PUT per nine cached reads over eight "
           "documents: scanner, index build, commit+fsync, attach broadcast "
           "and invalidation run beside the read path")
    tenant = "mixed"
    #: one cycle is fifty operations, five of them PUTs
    warm_cycles = 1
    TEMPLATES = ("point_lookup", "count_pred", "deep_text")
    DOCS = 8
    READS_PER_PUT = 9
    KEYS_PER_QUERY = 8
    #: a cycle re-ingests one document of each size, so every cycle
    #: (and with it every round) carries the same weight of XML
    SCALES = (0.1, 0.15, 0.2, 0.25, 0.3)

    def __init__(self, seed: int):
        super().__init__(seed)
        # ids below 25 exist in every document of scale >= 0.1
        table = Q.templates(n_people=25)
        self.templates = [table[name] for name in self.TEMPLATES]
        rng = _rng(seed, self.name, "keys")
        self.keys = {t.name: [t.sample(rng)
                              for _ in range(self.KEYS_PER_QUERY)]
                     for t in self.templates}
        self._pick_key = _zipf_picker(self.KEYS_PER_QUERY)
        self._pick_doc = _zipf_picker(self.DOCS)
        self.names = [f"doc{j}" for j in range(self.DOCS)]

    def _xml(self, doc: str, version: int, scale: float) -> str:
        """Content ``version`` of ``doc``; the seed decides what is in
        it, the caller how much."""
        rng = _rng(self.seed, self.name, doc, version)
        return generate_xmark(scale=scale, seed=rng.randrange(1 << 30))

    def _first(self, doc: str) -> str:
        return self._xml(doc, 0, self.SCALES[int(doc[3:]) % len(self.SCALES)])

    def documents(self):
        return [(self.tenant, doc, self._first(doc)) for doc in self.names]

    def registrations(self):
        return [(self.tenant, f"{t.name}_{doc}",
                 Q.source_text(t, f"${doc}"), tuple(t.params))
                for doc in self.names for t in self.templates]

    def _put_op(self, doc: str, version: int, xml: str) -> Op:
        return Op(encode_request("PUT",
                                 f"/tenants/{self.tenant}/documents/{doc}",
                                 xml.encode("utf-8"), "application/xml"),
                  "put", None, (self.tenant, doc, version),
                  (self.tenant, doc, xml))

    def cycles(self):
        rng = _rng(self.seed, self.name)
        # the state below is exactly what the server must answer from at
        # every point: the client's own last acknowledged writes
        version = {doc: 0 for doc in self.names}
        roots = {doc: [Q.parse_site(self._first(doc))] for doc in self.names}
        puts = 0
        while True:
            cycle: list[Op] = []
            for scale in rng.sample(self.SCALES, len(self.SCALES)):
                put_at = rng.randrange(self.READS_PER_PUT + 1)
                for slot in range(self.READS_PER_PUT + 1):
                    if slot == put_at:
                        doc = self.names[puts % self.DOCS]
                        puts += 1
                        version[doc] += 1
                        xml = self._xml(doc, version[doc], scale)
                        roots[doc] = [Q.parse_site(xml)]
                        cycle.append(self._put_op(doc, version[doc], xml))
                        continue
                    doc = self.names[self._pick_doc(rng)]
                    template = rng.choice(self.templates)
                    params = self.keys[template.name][self._pick_key(rng)]
                    cycle.append(self._registered_op(
                        self.tenant, f"{template.name}_{doc}", template,
                        f"${doc}", roots[doc], version[doc], params))
            yield cycle

    def restart_ops(self, acknowledged):
        """Ad-hoc reads (registered queries are transient by design) of
        every document against its last acknowledged content.  No XML
        is sent."""
        table = Q.templates()
        probes = [(table["flwor_where"], {"x": "0"}),
                  (table["deep_text"], {"x": "0"})]
        out = []
        for (tenant, doc), xml in acknowledged.items():
            root = [Q.parse_site(xml)]
            for template, literals in probes:
                text = Q.adhoc_text(template, f"${doc}", literals)
                out.append(Op(
                    json_request("POST", f"/tenants/{tenant}/execute",
                                 {"query": text}),
                    "restart_" + template.name,
                    lambda t=template, r=root: t.oracle(r, {"x": 0.0}),
                    (tenant, doc, "restart", template.name),
                    (tenant, text, None, None)))
        return out


WORKLOADS = {cls.name: cls for cls in (AdhocCompile, RegisteredExec, CachedHot,
                                       CollectionScatter, IngestMixed)}
#: the workloads ``BENCHMARK.json`` lists, and so the ones the benchmark
#: driver gates on; ``ingest_mixed`` runs in the ledger only (README:
#: "Why four of the five workloads are gated")
GATED = ("adhoc_compile", "registered_exec", "cached_hot",
         "collection_scatter")


def sequence_hash(ops: list[Op]) -> str:
    digest = hashlib.sha256()
    for op in ops:
        digest.update(op.request)
    return digest.hexdigest()


def answer_digest(op: Op) -> str:
    """Short digest of the oracle's answer (``put`` for a PUT)."""
    if op.expect is None:
        return "put"
    text = json.dumps(op.expect(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:12]
