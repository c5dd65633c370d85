"""repro — a streaming XML/XQuery query processor.

A faithful reproduction of the system architecture presented in
"XML Query Processing" (D. Florescu, ICDE 2004): an XQuery engine with
a normalizing compiler, a rewrite-rule optimizer, and a lazy pull-based
runtime, over from-scratch XML parsing, the XQuery Data Model, a
simplified XML Schema, the TokenStream binary representation, labeled
storage with structural/twig joins, and a streaming XPath automaton.

Quickstart::

    import repro

    result = repro.execute(
        "for $b in $doc//book where $b/@year < 1980 return $b/title",
        variables={"doc": repro.xml(
            "<bib><book year='1967'><title>T</title></book></bib>")},
    )
    print(result.serialize())

``repro.compile`` / ``repro.execute`` / ``repro.explain`` share one
default engine (and its compile cache); plain strings in
``variables=`` bind ``xs:string`` atomics — wrap XML text in
``repro.xml(...)`` to bind a parsed document.  For concurrent
execution with deadlines and admission control, see
:class:`repro.service.QueryService`.
"""

from repro.api import catalog, compile, configure, execute, explain
from repro.catalog import DocumentCatalog, StoredDocument
from repro.engine import CompiledQuery, Engine, Result, execute_query, xml
from repro.errors import (
    QueryCancelled,
    QueryTimeout,
    ServiceError,
    ServiceOverloaded,
)
from repro.options import ExecutionOptions
from repro.runtime.cancellation import CancellationToken
from repro.xdm.build import parse_document

__version__ = "8.2.0"

__all__ = [
    # the unified public API
    "compile",
    "execute",
    "explain",
    "configure",
    "xml",
    "catalog",
    "ExecutionOptions",
    "DocumentCatalog",
    "StoredDocument",
    # engine objects
    "Engine",
    "CompiledQuery",
    "Result",
    "parse_document",
    # concurrency & cancellation
    "CancellationToken",
    "QueryCancelled",
    "QueryTimeout",
    "ServiceError",
    "ServiceOverloaded",
    # legacy one-shot helper (prefer repro.execute)
    "execute_query",
    "__version__",
]
