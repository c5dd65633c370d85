"""The engine: the paper's whole pipeline behind one API.

    Engine().compile(query) → CompiledQuery → .execute(...) → Result

``compile`` runs parse → normalize → analyze → rewrite → emit;
``execute`` evaluates lazily — the returned :class:`Result` is an
iterable that pulls through the operator tree on demand, so consuming
one item of the result does one item's worth of work (E1/E2).
"""

from __future__ import annotations

import copy
from typing import Any, Iterable, Iterator, Optional

from repro.compiler.analysis import literal_doc_uris, walk_reachable
from repro.compiler.context import StaticContext
from repro.compiler.lift import Bindings, lift_literals
from repro.compiler.normalize import normalize_module
from repro.compiler.pysource import SourcePlanCompiler
from repro.errors import DynamicError, QueryCancelled, StaticError
from repro.options import ExecutionOptions
from repro.qname import QName
from repro.runtime.cancellation import CancellationToken
from repro.runtime.dynamic import DynamicContext
from repro.runtime.iterators import BufferedSequence
from repro.xdm import wire
from repro.xdm.build import parse_document
from repro.xdm.items import AtomicValue
from repro.xdm.nodes import DocumentNode, Node
from repro.xquery import ast


class xml:
    """Marks a string as XML text to parse into a document node.

    Variable bindings treat plain Python strings as ``xs:string``
    atomics; wrap the text to bind a parsed document instead::

        repro.execute("$doc//book", variables={"doc": repro.xml(text)})

    Accepted anywhere a document can be bound: ``variables=``,
    ``documents=``, and the context item.
    """

    __slots__ = ("text",)

    def __init__(self, text: str):
        if not isinstance(text, str):
            raise TypeError("repro.xml() wraps XML text (a str), "
                            f"got {type(text).__name__}")
        self.text = text

    def parse(self) -> "DocumentNode":
        return parse_document(self.text)

    def __repr__(self) -> str:
        return f"repro.xml({self.text[:40]!r}...)" if len(self.text) > 40 \
            else f"repro.xml({self.text!r})"


class Result:
    """A lazy query result: iterate it, or serialize it.

    Iterating yields XDM items (nodes and atomic values).  The result
    can be iterated multiple times (it buffers what was pulled).
    """

    def __init__(self, compiled: "CompiledQuery", dctx: DynamicContext):
        #: the :class:`CompiledQuery` this result ran
        self.compiled = compiled
        source = compiled.plan(dctx)
        if compiled.can_recurse or dctx._shared.cancellation is not None:
            # only queries that can fail this way pay the extra layer
            source = _drain(source, dctx)
        self._seq = BufferedSequence(source)
        self._dctx = dctx

    def __iter__(self) -> Iterator[Any]:
        return iter(self._seq)

    def items(self) -> list[Any]:
        """Materialize all items."""
        return list(self._seq)

    def atomized(self) -> list[Any]:
        """Materialize and atomize: handy for assertions in tests."""
        from repro.xdm.atomize import atomize

        return list(atomize(self._seq))

    def values(self) -> list[Any]:
        """Python values of the atomized result."""
        return [v.value for v in self.atomized()]

    def serialize(self, xml_decl: bool = False, indent: int = 0) -> str:
        """Serialize the result sequence to XML text.

        Nodes serialize as markup; atomic values serialize as their
        lexical forms, space-separated (the standard serialization
        rules, simplified).  ``indent`` pretty-prints element-only
        content.
        """
        text = wire.xml_text(wire.entry(item, indent) for item in self._seq)
        if xml_decl:
            decl = '<?xml version="1.0" encoding="UTF-8"?>'
            text = decl + ("\n" if indent else "") + text
        return text

    @property
    def stats(self) -> dict[str, int]:
        """Instrumentation counters collected during evaluation."""
        return self._dctx.stats

    @property
    def profiler(self):
        """The attached per-operator profiler, or None."""
        return self._dctx.profiler


class CompiledQuery:
    """A compiled query: executable plan plus its compile-time artifacts."""

    def __init__(self, module: ast.Module, core: ast.Expr, optimized: ast.Expr,
                 static_ctx: StaticContext, plan, static_type=None,
                 plan_tree=None, catalog_bindings=None,
                 generated_source=None, catalog_collection=None,
                 doc_uris=(), lifted: Bindings = ()):
        self.module = module
        #: core expression tree straight out of normalization
        self.core = core
        #: tree after the rewrite engine ran
        self.optimized = optimized
        self.static_context = static_ctx
        self.plan = plan
        #: inferred result type (None when static typing is off)
        self.static_type = static_type
        #: the operator tree the code generator emitted hooks for
        #: (:class:`repro.observability.PlanNode`)
        self.plan_tree = plan_tree
        #: catalog documents the query references, bound automatically
        #: at execute unless overridden (name → StoredDocument)
        self.catalog_bindings = catalog_bindings
        #: the Python text the emitter wrote for this query
        self.generated_source = generated_source
        #: the *default collection* this query reads (it contains a
        #: no-argument ``fn:collection()`` call and the engine has a
        #: catalog): sorted-name ``[(name, StoredDocument), ...]``,
        #: bound automatically at execute unless the caller registers
        #: uri ``""`` explicitly.  None when the query never touches
        #: the default collection.  The scatter-gather router keys its
        #: shard planning off this attribute.
        self.catalog_collection = catalog_collection
        #: the distinct string literals ``fn:doc`` is called on: with a
        #: ``document_loader`` attached, execute prefetches those not
        #: registered (see :meth:`DynamicContext.prefetch_documents`)
        self.doc_uris = doc_uris
        #: does the plan call a user function normalization kept as a
        #: call (the only way evaluation recurses without bound)?
        self.can_recurse = any(isinstance(e, ast.FunctionCall)
                               and e.decl is not None
                               for e in optimized.walk())
        #: the literals :mod:`repro.compiler.lift` lifted out of this
        #: text, ``(($#l0, value), ...)``: bound at every execute
        self.lifted = lifted

    def bind_literals(self, lifted: Bindings) -> "CompiledQuery":
        """A view of this plan that runs with another text's literals
        (a text of the same lifted shape): a shallow copy."""
        view = copy.copy(self)
        view.lifted = lifted
        return view

    def execute(self, *,
                context_item: Any = None,
                variables: Optional[dict[str, Any]] = None,
                documents: Optional[dict[str, Any]] = None,
                collections: Optional[dict[str, list]] = None,
                document_loader=None,
                profiler=None,
                deadline: Optional[float] = None,
                cancellation: Optional[CancellationToken] = None) -> Result:
        """Run the query.  All parameters are keyword-only.

        - ``context_item``: XML text, a node, or None — bound to ``.``;
        - ``variables``: name → value; a plain ``str`` binds an
          ``xs:string`` atomic — wrap XML text in :func:`repro.xml` to
          bind a parsed document; values may also be nodes, items,
          lists of items, or plain Python values (converted to typed
          atomics);
        - ``documents``: uri → XML text / :func:`repro.xml` / node /
          callable for fn:doc;
        - ``collections``: uri → list of nodes for fn:collection;
        - ``document_loader``: fallback ``loader(uri)`` for fn:doc URIs
          not pre-registered (return XML text / a node / None); when
          the query names two or more such URIs as string literals,
          their loads start concurrently before evaluation, and each
          outcome (or error) surfaces at the fn:doc that reaches it;
        - ``profiler``: a :class:`repro.observability.Profiler` to
          activate the plan's per-operator hooks (None = off, free);
        - ``deadline``: seconds this execution may run — evaluation
          raises :class:`repro.errors.QueryTimeout` once exceeded;
        - ``cancellation``: a :class:`repro.runtime.cancellation.
          CancellationToken` to share (``deadline`` tightens it).
        """
        dctx = DynamicContext(self.static_context)
        if profiler is not None:
            dctx.profiler = profiler
        token = cancellation
        if deadline is not None:
            if token is None:
                token = CancellationToken.with_timeout(deadline)
            else:
                token.tighten(deadline)
        if token is not None:
            dctx.cancellation = token
        if document_loader is not None:
            dctx.set_document_loader(document_loader)
        if documents:
            for uri, provider in documents.items():
                if isinstance(provider, xml):
                    provider = provider.text
                else:
                    from repro.catalog import StoredDocument

                    if isinstance(provider, StoredDocument):
                        provider = provider.document()
                dctx.register_document(uri, provider)
        if document_loader is not None and self.doc_uris:
            dctx.prefetch_documents(self.doc_uris)
        if collections:
            for uri, nodes in collections.items():
                dctx.register_collection(uri, nodes)
        if self.catalog_collection is not None \
                and (not collections or "" not in collections):
            from repro.xdm.order import pin_tree_order

            docs = [stored.document()
                    for _name, stored in self.catalog_collection]
            # cross-document order is first-touch order: pin it to the
            # sorted-name binding order so `collection()` results are
            # deterministic — and identical to the scatter-gather
            # merge, which emits documents in exactly this order
            pin_tree_order(docs)
            dctx.register_collection("", docs)
        bindings: dict[QName, Any] = {}
        if variables:
            for name, value in variables.items():
                qname = name if isinstance(name, QName) else QName("", name)
                bindings[qname] = _to_sequence(value)
        if self.catalog_bindings:
            for name, stored in self.catalog_bindings.items():
                qname = QName("", name)
                if qname not in bindings:
                    bindings[qname] = [stored.document()]
        for name, value in self.lifted:
            bindings[name] = [value]
        if bindings:
            dctx = dctx.bind_many(bindings)
        if context_item is not None:
            if profiler is not None and isinstance(context_item, str):
                # time the parse and collect scanner fallback counters
                item = profiler.parse_document(context_item)
            else:
                item = _to_item(context_item)
            dctx = dctx.with_focus(item, 1, 1)
        return Result(self, dctx)

    def to_xquery(self) -> str:
        """Render the *optimized* core tree back as XQuery text, with
        this text's lifted literals in place of their variables.

        Useful for inspecting what the rewrite engine actually did;
        raises :class:`repro.xquery.unparse.Unparsable` for trees with
        no surface syntax (inlined typed-function conversions).
        """
        from repro.xquery.unparse import unparse

        values = dict(self.lifted)

        def bind(expr: ast.Expr) -> ast.Expr:
            if isinstance(expr, ast.VarRef) and expr.name in values:
                return ast.Literal(values[expr.name], expr.pos)
            return expr.with_children(bind)

        return unparse(bind(self.optimized) if values else self.optimized)

    def explain(self) -> str:
        """A readable dump of the optimized core tree (with lineage)."""
        lines: list[str] = []

        def walk(expr: ast.Expr, depth: int) -> None:
            note = ""
            if expr.annotations:
                flagged = [k for k, v in sorted(expr.annotations.items()) if v]
                if flagged:
                    note = "  {" + ", ".join(flagged) + "}"
            lines.append("  " * depth + repr(expr) + note)
            for child in expr.children():
                walk(child, depth + 1)

        walk(self.optimized, 0)
        return "\n".join(lines)


#: sentinel distinguishing "no compile_cache argument" from an explicit None
_DEFAULT_CACHE = object()


class Engine:
    """Compiles queries; holds cross-query configuration (schemas, ...).

    Execution knobs live on one frozen :class:`repro.ExecutionOptions`
    object — ``Engine(options=ExecutionOptions(optimize=False))``.
    The other parameters are object wiring (``base_context``,
    ``catalog``, a shared ``compile_cache``): those carry identity, not
    configuration.
    """

    def __init__(self, base_context: StaticContext | None = None,
                 compile_cache=_DEFAULT_CACHE,
                 catalog=None,
                 options: Optional[ExecutionOptions] = None):
        if options is None:
            options = ExecutionOptions()
        #: the frozen :class:`repro.ExecutionOptions` this engine runs
        #: under; the knob attributes below are read-only mirrors
        self.options = options
        self.optimize = options.optimize
        #: physical plan for twig patterns the planner decomposes:
        #: "auto" (the pattern-level cost model picks), or a forced
        #: "holistic" | "binary" | "navigation" | "mixed" for
        #: override/debug and the differential test matrix
        self.twig_strategy = options.twig_strategy
        #: document catalog (:func:`repro.catalog`): its documents bind
        #: automatically by name, and the access-path planner may
        #: compile eligible steps onto its indexes
        self.catalog = catalog
        #: the "static typing feature" (optional in XQuery): infer the
        #: result type and reject statically-impossible queries
        self.static_typing = options.static_typing
        self.base_context = base_context
        from repro.runtime.memo import LRUCache

        #: compiled queries are pure — cache them keyed by (source text
        #: or lifted shape, declared variables, options fingerprint,
        #: static-context fingerprint, catalog fingerprint); see
        #: :meth:`compile`.  Pass ``compile_cache=None`` to disable, or
        #: an :class:`LRUCache` to share one cache across engines (keys
        #: carry every compile-relevant input, so sharing is safe).
        if compile_cache is _DEFAULT_CACHE:
            self.compile_cache = LRUCache(options.compile_cache_size) \
                if options.compile_cache_size else None
        else:
            self.compile_cache = compile_cache

    def compile(self, query_text: str,
                variables: Iterable[str] = (),
                schemas: Iterable = ()) -> CompiledQuery:
        """Compile an XQuery main module.

        ``variables`` pre-declares application-bound variable names;
        ``schemas`` are :class:`repro.xsd.schema.Schema` objects made
        available to ``validate`` and type references.

        Two lookups (DESIGN.md, "Literal lifting"): the exact text, with
        no parse; then, after parsing and lifting the literals
        (:mod:`repro.compiler.lift`), the lifted *shape*, which answers
        with a view of the shape's plan bound to this text's literals.
        Only a full compile stores entries (the text's and its
        shape's).  A call that did not compile counts one cache hit,
        one that did counts one miss.
        """
        extra = self._declared(variables)
        cache = self.compile_cache if not schemas else None
        if cache is not None:
            base_fp = self.base_context.fingerprint() \
                if self.base_context is not None else None
            # variables are a *set* of declared names: normalize the
            # order so {"a","b"} and {"b","a"} hit the same entry; the
            # catalog fingerprint keys store/index identity so a plan
            # compiled against an index is never reused for a
            # different (e.g. unindexed) binding of the same name;
            # every value knob (optimizer, twig strategy, …) keys through
            # the one options fingerprint, so each surface that compiles
            # queries keys its cache identically
            inputs = (tuple(sorted(extra, key=str)),
                      self.options.fingerprint(), base_fp,
                      self.catalog.fingerprint()
                      if self.catalog is not None else None)
            cached = cache.find((query_text,) + inputs)
            if cached is not None:
                cache.hits += 1
                return cached

        found = None
        try:
            module, lifted, shape = lift_literals(query_text)
            if cache is not None and shape is not None:
                found = cache.find((shape,) + inputs)
            if found is None:
                compiled = self._compile_module(module, extra, schemas,
                                                lifted)
        except RecursionError:
            # every front-half pass recurses once per nesting level (the
            # parser about twenty frames per parenthesis)
            raise StaticError("expression nested too deeply",
                              code="XPST0003") from None
        finally:
            if cache is not None:
                if found is None:
                    cache.misses += 1
                else:
                    cache.hits += 1
        if found is not None:
            return found.bind_literals(lifted)
        if cache is not None:
            cache.put((query_text,) + inputs, compiled)
            if shape is not None:
                cache.put((shape,) + inputs, compiled)
        return compiled

    def _declared(self, variables: Iterable[str]) -> tuple[QName, ...]:
        """The application-bound variable names: ``variables`` plus
        the catalog's document names."""
        extra = tuple(QName("", v) if not isinstance(v, QName) else v
                      for v in variables)
        if self.catalog is not None:
            declared = {q.local for q in extra if not q.uri}
            extra = extra + tuple(QName("", name)
                                  for name in self.catalog.names()
                                  if name not in declared)
        return extra

    def _compile_module(self, module: ast.Module, extra: tuple,
                        schemas: Iterable,
                        lifted: Bindings = ()) -> CompiledQuery:
        """normalize → rewrite → analyze → plan → emit a parsed module
        (``lifted``: the values its lifted literals run with)."""
        base = self.base_context.copy() if self.base_context is not None else None
        if schemas:
            if base is None:
                base = StaticContext()
            for schema in schemas:
                base.import_schema(schema)
        core, static_ctx = normalize_module(module, base, extra)

        static_type = None
        if self.static_typing:
            from repro.compiler.typecheck import infer_type

            static_type = infer_type(core, static_ctx)

        optimized = core
        if self.optimize:
            from repro.compiler.analysis import analyze
            from repro.compiler.rewriter import RewriteEngine, default_rules

            engine = RewriteEngine(default_rules(), static_ctx)
            optimized = engine.rewrite(core)
            analyze(optimized, static_ctx)
        else:
            from repro.compiler.analysis import analyze

            analyze(optimized, static_ctx)

        if self.catalog is not None and self.optimize:
            from repro.compiler.planner import plan_access_paths

            optimized = plan_access_paths(optimized, static_ctx, self.catalog,
                                          twig_strategy=self.twig_strategy)

        plan, plan_tree, generated_source = self._emit(optimized, static_ctx)
        catalog_bindings = None
        catalog_collection = None
        if self.catalog is not None:
            used = {e.name.local for e in optimized.walk()
                    if isinstance(e, ast.VarRef) and not e.name.uri}
            used.update(e.var.local for e in optimized.walk()
                        if isinstance(e, (ast.AccessPath, ast.TwigJoin))
                        and not e.var.uri)
            catalog_bindings = {name: self.catalog[name]
                               for name in self.catalog.names()
                               if name in used}
            if _reads_default_collection(optimized):
                catalog_collection = [(name, self.catalog[name])
                                      for name in sorted(self.catalog.names())]
        return CompiledQuery(module, core, optimized, static_ctx, plan,
                             static_type, plan_tree=plan_tree,
                             catalog_bindings=catalog_bindings,
                             generated_source=generated_source,
                             catalog_collection=catalog_collection,
                             doc_uris=literal_doc_uris(optimized),
                             lifted=lifted)

    def _emit(self, optimized: ast.Expr, static_ctx: StaticContext):
        """The code-generation step: ``(plan, plan_tree,
        generated_source)`` for an optimized core tree."""
        generator = SourcePlanCompiler(static_ctx, catalog=self.catalog)
        plan = generator.compile_root(optimized)
        return plan, generator.plan_tree, generator.generated_source

    def explain(self, query_text: str, *,
                context_item: Any = None,
                variables: Optional[dict[str, Any]] = None,
                documents: Optional[dict[str, Any]] = None,
                collections: Optional[dict[str, list]] = None,
                document_loader=None,
                analyze: bool = False,
                deadline: Optional[float] = None,
                cancellation: Optional[CancellationToken] = None):
        """EXPLAIN (ANALYZE): the annotated operator tree for a query.

        With ``analyze=False`` the query is only compiled and the
        returned :class:`~repro.observability.ExplainResult` carries
        the plan tree with optimizer annotations.  With
        ``analyze=True`` the query is also *executed* (and drained)
        with a profiler attached, so every operator is annotated with
        invocation, item, and inclusive-time counts.  ``str()`` the
        result for the text form; ``.to_dict()`` is the JSON form the
        CLI's ``--profile`` emits and ``benchmarks/report.py`` ingests.
        """
        from repro.observability import ExplainResult, Profiler

        compiled = self.compile(query_text, variables=tuple(variables or ()))
        if not analyze:
            return ExplainResult(compiled, query_text=query_text)
        profiler = Profiler()
        result = compiled.execute(context_item=context_item,
                                  variables=variables, documents=documents,
                                  collections=collections,
                                  document_loader=document_loader,
                                  profiler=profiler,
                                  deadline=deadline,
                                  cancellation=cancellation)
        result.items()  # drain: ANALYZE measures a full evaluation
        engine_stats = dict(result.stats)
        if self.compile_cache is not None:
            engine_stats["compile_cache_hits"] = self.compile_cache.hits
            engine_stats["compile_cache_misses"] = self.compile_cache.misses
        return ExplainResult(compiled, profiler, query_text=query_text,
                             engine_stats=engine_stats)


def _reads_default_collection(expr: ast.Expr) -> bool:
    """True if ``expr``, or a function body it calls, contains a
    no-argument ``fn:collection()`` call."""
    from repro.qname import FN_NS

    for e in walk_reachable(expr):
        if isinstance(e, ast.FunctionCall) and not e.args \
                and e.name.local == "collection" \
                and e.name.uri in ("", FN_NS):
            return True
    return False


def _drain(source, dctx):
    """The root plan's items, with its failures mapped in one place: a
    cancelled/timed-out pull carries the partial stats, and a recursion
    deeper than the interpreter's stack (a user function recursing a few
    hundred levels) is err:XPDY0130, an implementation limit."""
    try:
        yield from source
    except QueryCancelled as exc:
        if not exc.stats:
            exc.stats = dict(dctx.stats)
        raise
    except RecursionError:
        raise DynamicError("recursion too deep: implementation limit "
                           "exceeded", code="XPDY0130") from None


def _to_item(value: Any) -> Any:
    """Convert a *context item* argument: XML text parses to a document."""
    from repro.catalog import StoredDocument

    if isinstance(value, Node) or isinstance(value, AtomicValue):
        return value
    if isinstance(value, xml):
        return value.parse()
    if isinstance(value, StoredDocument):
        return value.document()
    if isinstance(value, str):
        return parse_document(value)
    return _to_atomic(value)


def _to_variable_item(value: Any) -> Any:
    """Convert a *variable binding* value.

    Unlike the context item, a plain ``str`` here is data, not markup:
    it binds an ``xs:string`` atomic.  Use :class:`xml` to bind a
    parsed document (pre-1.1 every str was parsed as XML — the silent
    misparse that motivated the wrapper).
    """
    from repro.catalog import StoredDocument

    if isinstance(value, Node) or isinstance(value, AtomicValue):
        return value
    if isinstance(value, xml):
        return value.parse()
    if isinstance(value, StoredDocument):
        return value.document()
    if isinstance(value, str):
        from repro.xsd import types as T

        return AtomicValue(value, T.XS_STRING)
    return _to_atomic(value)


def _to_sequence(value: Any) -> list[Any]:
    if isinstance(value, (list, tuple)):
        return [_to_variable_item(v) for v in value]
    return [_to_variable_item(value)]


def _to_atomic(value: Any) -> AtomicValue:
    from decimal import Decimal

    from repro.xsd import types as T

    if isinstance(value, bool):
        return AtomicValue(value, T.XS_BOOLEAN)
    if isinstance(value, int):
        return AtomicValue(value, T.XS_INTEGER)
    if isinstance(value, float):
        return AtomicValue(value, T.XS_DOUBLE)
    if isinstance(value, Decimal):
        return AtomicValue(value, T.XS_DECIMAL)
    raise TypeError(f"cannot convert {type(value).__name__} to an XDM item")


def execute_query(query_text: str, context_item: Any = None,
                  variables: dict[str, Any] | None = None,
                  documents: dict[str, Any] | None = None,
                  optimize: bool = True) -> Result:
    """One-shot convenience: compile and execute in one call.

    Note: variable values that are plain strings bound ``xs:string``
    atomics since 1.1 — wrap XML text in :func:`repro.xml`.  Prefer
    :func:`repro.execute`, which shares the default engine's compile
    cache.
    """
    engine = Engine(options=ExecutionOptions(optimize=optimize))
    compiled = engine.compile(query_text,
                              variables=tuple(variables or ()))
    return compiled.execute(context_item=context_item, variables=variables,
                            documents=documents)
