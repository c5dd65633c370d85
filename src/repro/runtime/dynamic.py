"""The dynamic (evaluation-time) context.

Mirrors the tutorial's "Dynamic context" slide: values for external
variables, the current item / position / size, available documents and
collections, current date-time and implicit timezone.
"""

from __future__ import annotations

import threading
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import DynamicError
from repro.qname import QName

if TYPE_CHECKING:
    from repro.compiler.context import StaticContext
    from repro.xdm.nodes import DocumentNode


class DynamicContext:
    """Evaluation state.

    Contexts are immutable from the evaluator's point of view: binding
    a variable or moving the focus returns a *child* context.  The
    shared slots (documents, functions, counters) live in one
    ``_shared`` record so children stay cheap.
    """

    __slots__ = ("variables", "item", "position", "size", "_shared")

    def __init__(self, static_ctx: "StaticContext | None" = None,
                 current_datetime: datetime | None = None):
        self.variables: dict[QName, Any] = {}
        self.item: Any = None
        self.position: int = 0
        self.size: int = 0
        self._shared = _Shared(static_ctx, current_datetime)

    # -- derivation -------------------------------------------------------------

    def _child(self) -> "DynamicContext":
        clone = object.__new__(DynamicContext)
        clone.variables = self.variables
        clone.item = self.item
        clone.position = self.position
        clone.size = self.size
        clone._shared = self._shared
        return clone

    def bind(self, name: QName, value: Any) -> "DynamicContext":
        """A child context with ``$name`` bound to ``value``."""
        clone = self._child()
        clone.variables = dict(self.variables)
        clone.variables[name] = value
        return clone

    def bind_many(self, bindings: dict[QName, Any]) -> "DynamicContext":
        """A child context with several variables bound at once."""
        clone = self._child()
        clone.variables = dict(self.variables)
        clone.variables.update(bindings)
        return clone

    def with_focus(self, item: Any, position: int, size: int) -> "DynamicContext":
        """A child context whose focus (., position(), last()) is set."""
        clone = self._child()
        clone.item = item
        clone.position = position
        clone.size = size
        return clone

    def function_frame(self, bindings: dict[QName, Any]) -> "DynamicContext":
        """The context a user function body runs in: its parameters
        (``bindings``) and nothing else — no caller variable, no focus
        (err:XPDY0002 for ``.`` in a function body)."""
        clone = self._child()
        clone.variables = bindings
        clone.item = None
        clone.position = clone.size = 0
        return clone

    # -- lookups ------------------------------------------------------------------

    def variable(self, name: QName) -> Any:
        """The value of ``$name``; err:XPDY0002 when unbound."""
        try:
            return self.variables[name]
        except KeyError:
            raise DynamicError(f"variable ${name} is not bound", code="XPDY0002") from None

    def context_item(self) -> Any:
        """The context item; err:XPDY0002 when undefined."""
        if self.item is None:
            raise DynamicError("the context item is undefined", code="XPDY0002")
        return self.item

    # -- shared state accessors --------------------------------------------------

    @property
    def static_context(self):
        return self._shared.static_ctx

    @property
    def current_datetime(self) -> datetime:
        return self._shared.current_datetime

    def register_document(self, uri: str, provider) -> None:
        """Make a document available to ``fn:doc(uri)``.

        ``provider`` is a DocumentNode, XML text, or a zero-argument
        callable returning either.
        """
        self._shared.documents[uri] = provider

    def register_collection(self, uri: str, nodes: list) -> None:
        """Make a node list available to ``fn:collection(uri)``."""
        self._shared.collections[uri] = nodes

    def set_document_loader(self, loader) -> None:
        """Fallback for fn:doc: ``loader(uri)`` returns XML text, a node,
        or None (not found).  The CLI plugs the filesystem in here."""
        self._shared.document_loader = loader

    def prefetch_documents(self, uris) -> None:
        """Start the loader on each of ``uris`` not registered, one
        short-lived thread per URI, when two or more remain: their waits
        overlap.  Nothing surfaces here — :meth:`resolve_document` takes
        each outcome at the ``fn:doc`` that reaches it."""
        shared = self._shared
        pending = [uri for uri in uris if uri not in shared.documents]
        if len(pending) >= 2:
            for uri in pending:
                shared.prefetched[uri] = _Prefetch(shared.document_loader, uri)

    def resolve_document(self, uri: str) -> "DocumentNode":
        shared = self._shared
        provider = shared.documents.get(uri)
        if provider is None:
            prefetch = shared.prefetched.pop(uri, None)
            if prefetch is not None:
                provider = prefetch.result()
            elif shared.document_loader is not None:
                provider = shared.document_loader(uri)
        if provider is None:
            raise DynamicError(f"document {uri!r} is not available", code="FODC0002")
        if callable(provider):
            provider = provider()
        if isinstance(provider, str):
            from repro.xdm.build import parse_document

            provider = parse_document(provider, base_uri=uri)
        self._shared.documents[uri] = provider  # cache parsed form
        return provider

    def resolve_collection(self, uri: str) -> list:
        """The collection registered under ``uri``; err:FODC0004 if absent."""
        nodes = self._shared.collections.get(uri)
        if nodes is None:
            raise DynamicError(f"collection {uri!r} is not available", code="FODC0004")
        return nodes

    @property
    def node_ids_required(self) -> bool:
        return self._shared.node_ids_required

    @node_ids_required.setter
    def node_ids_required(self, flag: bool) -> None:
        self._shared.node_ids_required = flag

    @property
    def profiler(self):
        """The attached :class:`repro.observability.Profiler`, or None.

        Compiled plans read ``_shared.profiler`` directly (the guarded
        hook); this property is the public spelling.
        """
        return self._shared.profiler

    @profiler.setter
    def profiler(self, profiler) -> None:
        self._shared.profiler = profiler

    @property
    def cancellation(self):
        """The attached :class:`repro.runtime.cancellation.CancellationToken`,
        or None.

        Hot loops read ``_shared.cancellation`` directly (the guarded
        check, same pattern as the profiler hook); this property is the
        public spelling.
        """
        return self._shared.cancellation

    @cancellation.setter
    def cancellation(self, token) -> None:
        self._shared.cancellation = token

    @property
    def stats(self) -> dict[str, int]:
        """Cheap instrumentation counters (benchmarks read these)."""
        return self._shared.stats

    def count(self, key: str, amount: int = 1) -> None:
        """Bump an instrumentation counter (read via :attr:`stats`)."""
        stats = self._shared.stats
        stats[key] = stats.get(key, 0) + amount


class _Shared:
    """State shared by all contexts derived from one evaluation."""

    __slots__ = ("static_ctx", "current_datetime", "documents", "collections",
                 "node_ids_required", "stats", "document_loader", "prefetched",
                 "profiler", "cancellation")

    def __init__(self, static_ctx, current_datetime):
        self.static_ctx = static_ctx
        self.current_datetime = current_datetime or datetime.now(timezone.utc)
        self.documents: dict[str, Any] = {}
        self.collections: dict[str, list] = {}
        self.document_loader = None
        #: uri → :class:`_Prefetch` not yet taken by an fn:doc
        self.prefetched: dict[str, _Prefetch] = {}
        #: set by the compiler when the plan contains identity-sensitive
        #: operators; constructors consult it (experiment E4)
        self.node_ids_required = True
        self.stats: dict[str, int] = {}
        #: per-operator metrics sink (repro.observability); None = off,
        #: and every plan hook reduces to one is-None check
        self.profiler = None
        #: cooperative CancellationToken polled by the hot iterator
        #: loops; None = no deadline/cancellation, one is-None check
        self.cancellation = None


class _Prefetch(threading.Thread):
    """One ``loader(uri)`` call running ahead of the fn:doc that needs it.

    A thread per call, not a pool: it ends with the load, so no idle
    thread outlives the query into a later ``ForkWorkerPool`` fork.
    """

    def __init__(self, loader: Callable[[str], Any], uri: str):
        super().__init__(name="repro-prefetch", daemon=True)
        self._loader = loader
        self._uri = uri
        self._value: Any = None
        self._error: Optional[BaseException] = None
        self.start()

    def run(self) -> None:
        try:
            self._value = self._loader(self._uri)
        except BaseException as exc:  # noqa: BLE001 - re-raised by result()
            self._error = exc

    def result(self) -> Any:
        """The loader's return value, or its exception re-raised."""
        self.join()
        if self._error is not None:
            raise self._error
        return self._value
