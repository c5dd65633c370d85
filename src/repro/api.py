"""The one-import public API: ``repro.compile / execute / explain``.

All three delegate to one process-wide default :class:`~repro.engine.
Engine`, so repeated queries share its compiled-query cache::

    import repro

    compiled = repro.compile("for $b in //book return $b/title")
    result = repro.execute("count(//book)", context_item=xml_text)
    print(repro.explain("//book[@year < 1980]", analyze=True,
                        context_item=xml_text))

The default engine is created lazily with the default
:class:`~repro.options.ExecutionOptions` (optimizer and static typing
on).  For different options — optimizer off, a forced twig strategy —
call :func:`configure`; for a shared base
context construct an :class:`~repro.engine.Engine` directly, or use
:class:`repro.service.QueryService` for concurrent execution with
deadlines and admission control.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.catalog import DocumentCatalog
from repro.engine import CompiledQuery, Engine, Result
from repro.options import ExecutionOptions
from repro.runtime.cancellation import CancellationToken

#: the lazily-created process-wide engine behind the module-level API
_default_engine: Optional[Engine] = None


def default_engine() -> Engine:
    """The engine behind :func:`compile`/:func:`execute`/:func:`explain`."""
    global _default_engine
    if _default_engine is None:
        _default_engine = Engine()
    return _default_engine


def configure(options: ExecutionOptions) -> Engine:
    """Rebuild the process-wide default engine with ``options``.

    One call configures every subsequent :func:`compile` /
    :func:`execute` / :func:`explain`::

        repro.configure(repro.ExecutionOptions(optimize=False))

    Returns the new default engine (its compile cache starts empty —
    cached plans from the previous configuration are dropped).
    """
    global _default_engine
    if not isinstance(options, ExecutionOptions):
        raise TypeError(f"configure() takes a repro.ExecutionOptions, "
                        f"got {type(options).__name__}")
    _default_engine = Engine(options=options)
    return _default_engine


def catalog(path=None, *, durability: str = "sync") -> DocumentCatalog:
    """A :class:`~repro.catalog.DocumentCatalog` — in memory, or disk-backed.

    With no arguments (the default), everything lives in RAM and dies
    with the process::

        cat = repro.catalog()
        cat.add("books", xml_text)                 # tree store, indexed
        engine = repro.Engine(catalog=cat)
        engine.compile("$books//book[price = '55']").execute()

    With ``path`` the catalog opens (or creates) a persistent
    collection directory: every ``add`` commits the document's token
    array, labels, indexes, and statistics to disk, and a fresh
    process reopening the same path serves identical results without
    re-parsing any XML::

        cat = repro.catalog("collections/bib")     # durable
        cat.add("books", xml_text)                 # committed + fsync'd
        # ... later, any process:
        cat = repro.catalog("collections/bib")     # warm open, lazy load

    ``durability`` sets the default commit level for ``add``/``remove``
    on a disk catalog: ``"sync"`` (fsync everything) or ``"none"``
    (atomic rename only — faster, crash may lose the latest commit but
    never corrupts the collection).

    Catalog documents bind automatically by name; indexed ones make
    eligible path steps run on posting lists instead of navigation.
    """
    return DocumentCatalog(path, durability=durability)


def compile(query_text: str,  # noqa: A001 - deliberate builtin shadow at module scope
            variables: Iterable[str] = (),
            schemas: Iterable = ()) -> CompiledQuery:
    """Compile a query with the default engine (cached)."""
    return default_engine().compile(query_text, variables=variables,
                                    schemas=schemas)


def execute(query_text: str, *,
            context_item: Any = None,
            variables: Optional[dict[str, Any]] = None,
            documents: Optional[dict[str, Any]] = None,
            collections: Optional[dict[str, list]] = None,
            document_loader=None,
            profiler=None,
            deadline: Optional[float] = None,
            cancellation: Optional[CancellationToken] = None) -> Result:
    """Compile (cached) and execute a query with the default engine.

    Keyword-only, with the same names as
    :meth:`~repro.engine.CompiledQuery.execute`.
    """
    compiled = default_engine().compile(query_text,
                                        variables=tuple(variables or ()))
    return compiled.execute(context_item=context_item, variables=variables,
                            documents=documents, collections=collections,
                            document_loader=document_loader,
                            profiler=profiler, deadline=deadline,
                            cancellation=cancellation)


def explain(query_text: str, *,
            context_item: Any = None,
            variables: Optional[dict[str, Any]] = None,
            documents: Optional[dict[str, Any]] = None,
            collections: Optional[dict[str, list]] = None,
            document_loader=None,
            analyze: bool = False,
            deadline: Optional[float] = None,
            cancellation: Optional[CancellationToken] = None):
    """EXPLAIN (ANALYZE) a query with the default engine.

    Keyword-only, with the same names as :meth:`~repro.engine.Engine.
    explain`.
    """
    return default_engine().explain(query_text, context_item=context_item,
                                    variables=variables, documents=documents,
                                    collections=collections,
                                    document_loader=document_loader,
                                    analyze=analyze, deadline=deadline,
                                    cancellation=cancellation)
