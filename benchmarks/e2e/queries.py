"""Query templates, each with an independent answer oracle.

Every template is one XQuery text over the XMark-shaped documents of
``repro.workloads.generate_xmark`` plus a function that computes the
expected answer from the same XML with the standard library's
``xml.etree.ElementTree`` -- never with ``repro``.  The harness sends
the query over HTTP and compares the ``items`` of the reply with what
the oracle says; a mismatch is a failed operation.

In a template's text ``$DOC`` stands for the source (a catalog document
variable such as ``$auction``, or ``collection()``) and the names in
``params`` are external variables.  A registered query keeps them as
variables and sends bindings; an ad-hoc query has them replaced by
literals (:func:`adhoc_text`), which is what makes each text unique.

Answers use the server's JSON item form: atomics as JSON scalars,
nodes as ``{"node": markup}``.  The oracles only return text nodes,
atomics and elements they build themselves, so no serializer convention
of ``ElementTree`` enters the comparison.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Any, Callable

#: float parameters are drawn from a grid of this many values, so a
#: uniform draw misses the server's 128-entry result cache (>= 4096)
GRID = 8192


def _grid(lo: float, hi: float) -> Callable:
    return lambda rng: round(lo + rng.randrange(GRID) * (hi - lo) / GRID, 3)


INCOME = _grid(9000.0, 112000.0)
INCOME_WINDOW = _grid(9000.0, 70000.0)   # lower edge of a 48000-wide window
INCOME_HIGH = _grid(98000.0, 118000.0)   # keeps cross-collection scans small
PRICE = _grid(5.0, 480.0)
PRICE_LOW = _grid(5.0, 25.0)             # nearly every closed auction: ~5 KB
INCREASE = _grid(1.0, 24.0)
CURRENT = _grid(1.0, 160.0)
CURRENT_HIGH = _grid(150.0, 260.0)       # exists() is sometimes false here
FACTOR = _grid(1.0, 3.0)


def text_node(value: str) -> dict:
    return {"node": value}


def element(tag: str, **attributes: Any) -> dict:
    """An empty constructed element, serialized the way the server does."""
    attrs = "".join(f' {key}="{value}"' for key, value in attributes.items())
    return {"node": f"<{tag}{attrs}/>"}


# -- ElementTree access to the XMark shape (root is <site>) ------------------

def people(docs):
    return [p for root in docs for p in root.findall("people/person")]


def open_auctions(docs):
    return [a for root in docs
            for a in root.findall("open_auctions/open_auction")]


def closed_auctions(docs):
    return [c for root in docs
            for c in root.findall("closed_auctions/closed_auction")]


def income(person) -> float:
    return float(person.find("profile").get("income"))


def price(closed) -> float:
    return float(closed.findtext("price"))


def increases(auction) -> list[float]:
    return [float(b.findtext("increase")) for b in auction.findall("bidder")]


def annotation_text(node) -> str:
    return node.findtext("annotation/description/text")


@dataclass(frozen=True)
class Template:
    """One query shape: text, parameter samplers and its oracle.

    ``oracle(docs, params)`` gets the parsed ``<site>`` roots the query
    reads (one for a document variable, all of a tenant's documents in
    sorted-name order for ``collection()``) and returns the expected
    ``items`` list.
    """

    name: str
    text: str
    params: dict
    oracle: Callable[[list, dict], list]
    shape: str

    def sample(self, rng) -> dict:
        return {name: draw(rng) for name, draw in self.params.items()}


def _flwor_where(docs, p):
    return [text_node(q.findtext("name")) for q in people(docs)
            if income(q) >= p["x"]]


def _count_pred(docs, p):
    return [sum(1 for a in open_auctions(docs) for i in increases(a)
                if i >= p["x"])]


def _quantifier(docs, p):
    return [a.get("id") for a in open_auctions(docs)
            if any(i > p["x"] for i in increases(a))]


def _quantifier_count(docs, p):
    return [len(_quantifier(docs, p))]


def _constructor(docs, p):
    return [element("a", id=a.get("id"), n=len(a.findall("bidder")))
            for a in open_auctions(docs)
            if float(a.findtext("current")) >= p["x"]]


def _order_by(docs, p):
    kept = [c for c in closed_auctions(docs) if price(c) >= p["x"]]
    kept.sort(key=price, reverse=True)
    return [text_node(c.findtext("price")) for c in kept]


def _user_function(docs, p):
    return [float(a.findtext("current")) * p["x"]
            for a in open_auctions(docs)]


def _aggregates(docs, p):
    kept = [income(q) for q in people(docs) if income(q) >= p["x"]]
    if not kept:
        return [0]
    return [len(kept), max(kept), min(kept)]


def _grouping(docs, p):
    kept = [q for q in people(docs) if income(q) >= p["x"]]
    cities = sorted({q.findtext("address/city") for q in kept})
    return [element("city", name=c,
                    n=sum(1 for q in kept
                          if q.findtext("address/city") == c))
            for c in cities]


def _conditional(docs, p):
    out = []
    for a in open_auctions(docs):
        if float(a.findtext("initial")) < p["x"]:
            incs = increases(a)
            out.append(incs[-1] if len(incs) > 2 else 0)
    return out


def _string_functions(docs, p):
    return [f"{q.findtext('name').split(' ')[0].upper()}:"
            f"{len(q.findtext('emailaddress'))}"
            for q in people(docs) if income(q) >= p["x"]]


def _absence(docs, p):
    return [sum(1 for q in people(docs)
                if q.find("watches") is None and income(q) < p["x"])]


def _flwor_window(docs, p):
    return [element("p", n=q.findtext("name"), c=q.findtext("address/city"))
            for q in people(docs) if p["x"] <= income(q) < p["x"] + 48000]


def _point_lookup(docs, p):
    by_id = {q.get("id"): q for q in people(docs)}
    return [text_node(by_id[key].findtext("name"))
            for key in (p["a"], p["b"]) if key in by_id]


def _twig(docs, p):
    return [sum(1 for a in open_auctions(docs)
                if a.find("bidder/increase") is not None
                and a.find("itemref") is not None
                and a.find("seller").get("person") in (p["a"], p["b"]))]


def _deep_text(docs, p):
    return [text_node(annotation_text(c)) for c in closed_auctions(docs)
            if price(c) >= p["x"]]


def _partition(docs, p):
    incomes = [income(q) for q in people(docs)]
    hi = sum(1 for v in incomes if v >= p["x"])
    mid = sum(1 for v in incomes if p["x"] / 2 <= v < p["x"])
    lo = sum(1 for v in incomes if v < p["x"] / 2)
    return [{"node": f"<result><hi>{hi}</hi><mid>{mid}</mid>"
                     f"<lo>{lo}</lo></result>"}]


def _sum_ages(docs, p):
    ages = [float(q.findtext("profile/age")) for q in people(docs)
            if income(q) >= p["x"]]
    return [math.fsum(ages)] if ages else [0]


def _exists(docs, p):
    return [any(float(a.findtext("current")) >= p["x"]
                for a in open_auctions(docs))]


def _positional(docs, p):
    return _flwor_where(docs, p)[2:3]


def _order_income(docs, p):
    kept = [q for q in people(docs) if income(q) >= p["x"]]
    kept.sort(key=income)
    return [text_node(q.findtext("name")) for q in kept]


def _person_id(n_people: int) -> Callable:
    return lambda rng: f"person{rng.randrange(n_people)}"


def templates(n_people: int = 250) -> dict[str, Template]:
    """All query shapes, keyed by name.  ``n_people`` sizes the id
    parameters of the point lookup (250 x scale in the generator)."""
    pid = _person_id(n_people)
    table = [
        Template("flwor_where",
                 "for $p in $DOC/site/people/person "
                 "where xs:double($p/profile/@income) >= $x "
                 "return $p/name/text()",
                 {"x": INCOME}, _flwor_where, "FLWOR + where"),
        Template("count_pred",
                 "count($DOC/site/open_auctions/open_auction"
                 "/bidder[xs:double(increase) >= $x])",
                 {"x": INCREASE}, _count_pred, "filtered scan count"),
        Template("quantifier",
                 "for $b in $DOC/site/open_auctions/open_auction "
                 "where some $i in $b/bidder/increase "
                 "satisfies xs:double($i) > $x return string($b/@id)",
                 {"x": INCREASE}, _quantifier, "quantifier"),
        Template("quantifier_count",
                 "count(for $b in $DOC/site/open_auctions/open_auction "
                 "where some $i in $b/bidder/increase "
                 "satisfies xs:double($i) > $x return $b)",
                 {"x": INCREASE}, _quantifier_count, "quantifier"),
        Template("constructor",
                 "for $a in $DOC/site/open_auctions/open_auction "
                 "where xs:double($a/current) >= $x "
                 'return <a id="{$a/@id}" n="{count($a/bidder)}"/>',
                 {"x": CURRENT}, _constructor, "element constructor"),
        Template("order_by",
                 "for $c in $DOC/site/closed_auctions/closed_auction "
                 "where xs:double($c/price) >= $x "
                 "order by xs:double($c/price) descending "
                 "return $c/price/text()",
                 {"x": PRICE}, _order_by, "order by"),
        Template("user_function",
                 "declare function local:scale($v as xs:double, "
                 "$k as xs:double) as xs:double { $v * $k }; "
                 "for $a in $DOC/site/open_auctions/open_auction "
                 "return local:scale(xs:double($a/current), xs:double($x))",
                 {"x": FACTOR}, _user_function, "user function"),
        Template("aggregates",
                 "let $v := for $p in $DOC/site/people/person/profile"
                 "[xs:double(@income) >= $x] return xs:double($p/@income) "
                 "return if (empty($v)) then 0 "
                 "else (count($v), max($v), min($v))",
                 {"x": INCOME}, _aggregates, "aggregates"),
        Template("grouping",
                 "for $c in distinct-values($DOC/site/people/person"
                 "[xs:double(profile/@income) >= $x]/address/city) "
                 "order by $c "
                 'return <city name="{$c}" n="{count($DOC/site/people/person'
                 "[address/city = $c][xs:double(profile/@income) >= $x])}\"/>",
                 {"x": INCOME}, _grouping, "grouping + order by"),
        Template("conditional",
                 "for $a in $DOC/site/open_auctions/open_auction"
                 "[xs:double(initial) < $x] "
                 "return if (count($a/bidder) > 2) "
                 "then xs:double($a/bidder[last()]/increase) else 0",
                 {"x": CURRENT}, _conditional, "conditional + last()"),
        Template("string_functions",
                 "for $p in $DOC/site/people/person"
                 "[xs:double(profile/@income) >= $x] "
                 "return concat(upper-case(substring-before($p/name, ' ')), "
                 "':', string-length($p/emailaddress))",
                 {"x": INCOME}, _string_functions, "string functions"),
        Template("absence",
                 "count($DOC/site/people/person[empty(watches)]"
                 "[xs:double(profile/@income) < $x])",
                 {"x": INCOME}, _absence, "absence predicate"),
        Template("flwor_window",
                 "for $p in $DOC/site/people/person "
                 "where xs:double($p/profile/@income) >= $x "
                 "and xs:double($p/profile/@income) < $x + 48000 "
                 'return <p n="{$p/name/text()}" '
                 'c="{$p/address/city/text()}"/>',
                 {"x": INCOME_WINDOW}, _flwor_window,
                 "FLWOR returning ~100 constructed nodes"),
        Template("point_lookup",
                 "($DOC/site/people/person[@id = $a]/name/text(), "
                 "$DOC/site/people/person[@id = $b]/name/text())",
                 {"a": pid, "b": pid}, _point_lookup,
                 "value-index point lookup"),
        Template("twig",
                 "count($DOC//open_auction[bidder/increase][itemref]"
                 "/seller[@person = $a or @person = $b])",
                 {"a": pid, "b": pid}, _twig, "twig pattern"),
        Template("deep_text",
                 "$DOC/site/closed_auctions/closed_auction"
                 "[xs:double(price) >= $x]/annotation/description/text/text()",
                 {"x": PRICE}, _deep_text, "deep path, many text nodes"),
        Template("partition",
                 "<result><hi>{count($DOC/site/people/person/profile"
                 "[xs:double(@income) >= $x])}</hi>"
                 "<mid>{count($DOC/site/people/person/profile"
                 "[xs:double(@income) < $x and xs:double(@income) >= $x div 2])"
                 "}</mid><lo>{count($DOC/site/people/person/profile"
                 "[xs:double(@income) < $x div 2])}</lo></result>",
                 {"x": INCOME}, _partition, "multi-branch aggregate"),
        # collection() shapes: shard-eligible ...
        Template("sum_ages",
                 "sum($DOC/site/people/person/profile"
                 "[xs:double(@income) >= $x]/age)",
                 {"x": INCOME}, _sum_ages, "sum"),
        Template("exists_current",
                 "exists($DOC/site/open_auctions/open_auction"
                 "[xs:double(current) >= $x])",
                 {"x": CURRENT_HIGH}, _exists, "exists"),
        Template("scan_names",
                 "$DOC/site/people/person"
                 "[xs:double(profile/@income) >= $x]/name/text()",
                 {"x": INCOME_HIGH}, _flwor_where, "scan"),
        # ... and ineligible ones, which must take fallback_single
        Template("positional",
                 "($DOC/site/people/person"
                 "[xs:double(profile/@income) >= $x]/name/text())[3]",
                 {"x": INCOME_HIGH}, _positional, "positional"),
        Template("order_income",
                 "for $p in $DOC/site/people/person "
                 "where xs:double($p/profile/@income) >= $x "
                 "order by xs:double($p/profile/@income) "
                 "return $p/name/text()",
                 {"x": INCOME_HIGH}, _order_income, "order by"),
    ]
    return {t.name: t for t in table}


def source_text(template: Template, source: str) -> str:
    """The template's text over ``source`` (``$name`` or ``collection()``)."""
    return template.text.replace("$DOC", source)


def adhoc_text(template: Template, source: str, literals: dict) -> str:
    """An ad-hoc text: every parameter replaced by its literal."""
    text = source_text(template, source)
    for name, literal in literals.items():
        text = re.sub(r"\$" + name + r"\b", literal, text)
    return text


def parse_site(xml_text: str):
    """The ``<site>`` root the oracles read."""
    return ET.fromstring(xml_text)


def same_items(got: Any, expected: list) -> bool:
    """Reply items equal the oracle's, floats to within 1e-9 relative."""
    if not isinstance(got, list) or len(got) != len(expected):
        return False
    for a, b in zip(got, expected):
        if isinstance(a, bool) or isinstance(b, bool):
            if a is not b:
                return False
        elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
            if not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9):
                return False
        elif a != b:
            return False
    return True
