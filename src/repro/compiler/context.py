"""The static context.

The tutorial's "Static context" slide lists what compilation sees:
in-scope namespaces, default element/function namespaces, in-scope
variables, functions, schema definitions, base URI, statically known
documents.  This class is that record; the engine populates it from
the prolog plus application settings, and every compilation phase
reads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.errors import UndefinedNameError
from repro.qname import FN_NS, NamespaceBindings, QName
from repro.xsd import types as T

if TYPE_CHECKING:
    from repro.xquery.ast import FunctionDecl
    from repro.xsd.schema import Schema


class _Same:
    """An object in a key, by identity: equal only to a holder of the
    same object, and keeping that object alive (an ``id()`` in its
    place could name a later object at a freed address)."""

    __slots__ = ("obj",)

    def __init__(self, obj: Any):
        self.obj = obj

    def __hash__(self) -> int:
        return id(self.obj)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Same) and other.obj is self.obj


class StaticContext:
    """Everything known at compile time."""

    def __init__(self):
        self.namespaces = NamespaceBindings()
        self.default_element_ns: str = ""
        self.default_function_ns: str = FN_NS
        #: variable name → declared sequence type (or None)
        self.variables: dict[QName, Any] = {}
        #: (name, arity) → FunctionDecl for user functions
        self.functions: dict[tuple[QName, int], "FunctionDecl"] = {}
        #: imported schemas by target namespace
        self.schemas: dict[str, "Schema"] = {}
        self.types = T.TypeRegistry()
        self.base_uri: str = ""
        #: statically-known documents: uri → provider (tests/engine use this)
        self.known_documents: dict[str, Any] = {}
        #: whether order matters for the whole query ("unordered" mode)
        self.ordering_mode: str = "ordered"

    def declare_variable(self, name: QName, type_decl=None) -> None:
        self.variables[name] = type_decl

    def declare_function(self, decl: "FunctionDecl") -> None:
        key = (decl.name, decl.arity)
        if key in self.functions:
            raise UndefinedNameError(
                f"function {decl.name}#{decl.arity} declared twice", code="XQST0034")
        self.functions[key] = decl

    def lookup_function(self, name: QName, arity: int):
        return self.functions.get((name, arity))

    def lookup_type(self, name: QName):
        """Resolve a type name against imported schemas, then built-ins."""
        for schema in self.schemas.values():
            found = schema.lookup_type(name)
            if found is not None:
                return found
        return self.types.lookup(name)

    def import_schema(self, schema: "Schema") -> None:
        self.schemas[schema.target_namespace] = schema

    def fingerprint(self) -> tuple:
        """A hashable digest of everything compilation reads.

        Two contexts with equal fingerprints make any query compile to
        the same artifacts, so the engine's compile cache keys on it.
        Cheap by-value members (namespaces, base URI) are digested
        directly; members holding arbitrary objects (variable types,
        function declarations, schemas, document providers) are held
        by identity (:class:`_Same`) — replacing such an object changes
        the fingerprint, mutating it in place does not (callers who
        mutate must not share a base context across compiles they want
        distinguished).  The digest holds those objects, so while a
        key made from it lives, no other object can take their place.
        """
        return (
            tuple(sorted(self.namespaces.in_scope().items())),
            self.default_element_ns,
            self.default_function_ns,
            tuple(sorted((name.clark, _Same(decl))
                         for name, decl in self.variables.items())),
            tuple(sorted((name.clark, arity, _Same(decl))
                         for (name, arity), decl in self.functions.items())),
            tuple(sorted((ns, _Same(schema))
                         for ns, schema in self.schemas.items())),
            _Same(self.types),
            self.base_uri,
            tuple(sorted((uri, _Same(provider))
                         for uri, provider in self.known_documents.items())),
            self.ordering_mode,
        )

    def copy(self) -> "StaticContext":
        clone = StaticContext()
        clone.namespaces = self.namespaces.copy()
        clone.default_element_ns = self.default_element_ns
        clone.default_function_ns = self.default_function_ns
        clone.variables = dict(self.variables)
        clone.functions = dict(self.functions)
        clone.schemas = dict(self.schemas)
        clone.types = self.types
        clone.base_uri = self.base_uri
        clone.known_documents = dict(self.known_documents)
        clone.ordering_mode = self.ordering_mode
        return clone
