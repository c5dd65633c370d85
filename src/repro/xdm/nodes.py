"""The seven XDM node kinds and their accessors.

Trees are built once (by :mod:`repro.xdm.build`, validation, or element
constructors) and treated as immutable afterwards; this is what lets
document-order keys be cached per tree.

Node identity is Python object identity.  The ``is`` operator of
XQuery maps to ``a is b`` on these objects; document order is provided
by :mod:`repro.xdm.order`.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.qname import QName
from repro.xdm.items import AtomicValue
from repro.xsd import types as T


#: Sentinel stored as an element's typed value when its schema type has
#: element-only content: the typed-value accessor then raises a type
#: error, per the XDM ("typed-value of an element with element-only
#: content is an error").
NO_TYPED_VALUE: list = ["<element-only content>"]


class Node:
    """Abstract base for all node kinds.

    The accessor set follows the tutorial's "Node accessors" slide:
    node-kind, node-name, parent, string-value, typed-value, type,
    children, attributes, base-uri, nilled.
    """

    __slots__ = ("parent", "__weakref__")
    kind: str = "node"

    def __init__(self, parent: Optional["Node"] = None):
        self.parent = parent

    # -- accessors ---------------------------------------------------------

    @property
    def node_name(self) -> QName | None:
        return None

    @property
    def string_value(self) -> str:
        raise NotImplementedError

    @property
    def type_annotation(self) -> T.AtomicType:
        return T.UNTYPED

    def typed_value(self) -> list[AtomicValue]:
        """The typed-value accessor (a sequence of atomic values)."""
        return [AtomicValue(self.string_value, T.UNTYPED_ATOMIC)]

    def typed_string(self) -> str | None:
        """The typed value's ``.value`` when it is one string-like atom
        (untyped data, a comment, ...), without making the atom; None
        when an annotation decides (ask :meth:`typed_value`)."""
        return self.string_value

    @property
    def children(self) -> list["Node"]:
        return []

    @property
    def attributes(self) -> list["AttributeNode"]:
        return []

    @property
    def base_uri(self) -> str:
        return self.parent.base_uri if self.parent is not None else ""

    @property
    def nilled(self) -> bool | None:
        return None

    # -- navigation helpers --------------------------------------------------

    def root(self) -> "Node":
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    def ancestors(self) -> Iterator["Node"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def descendants(self) -> Iterator["Node"]:
        """Pre-order descendants (not including self or attributes)."""
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def descendants_or_self(self) -> Iterator["Node"]:
        yield self
        yield from self.descendants()

    def __repr__(self) -> str:
        name = self.node_name
        return f"<{self.kind} {name}>" if name else f"<{self.kind}>"


class DocumentNode(Node):
    """A document node — the root of a parsed document."""

    __slots__ = ("_children", "_base_uri", "tree_order")
    kind = "document"

    def __init__(self, base_uri: str = ""):
        super().__init__(None)
        self._children: list[Node] = []
        self._base_uri = base_uri
        #: this tree's rank and node indexes, set lazily by
        #: repro.xdm.order (a ``TreeOrder``)
        self.tree_order = None

    @property
    def children(self) -> list[Node]:
        return self._children

    @property
    def base_uri(self) -> str:
        return self._base_uri

    @property
    def string_value(self) -> str:
        return "".join(c.string_value for c in self._children
                       if isinstance(c, (ElementNode, TextNode)))

    def document_element(self) -> Optional["ElementNode"]:
        for child in self._children:
            if isinstance(child, ElementNode):
                return child
        return None


class ElementNode(Node):
    """An element node, optionally type-annotated by validation."""

    __slots__ = ("name", "_attributes", "_children", "ns_decls",
                 "_type", "_typed_value", "_nilled", "tree_order")
    kind = "element"

    def __init__(self, name: QName, parent: Node | None = None):
        super().__init__(parent)
        self.name = name
        self._attributes: list[AttributeNode] = []
        self._children: list[Node] = []
        #: (prefix, uri) namespace declarations appearing on this element
        self.ns_decls: tuple[tuple[str, str], ...] = ()
        self._type: T.AtomicType = T.UNTYPED
        #: set by validation when the schema type is a simple type
        self._typed_value: list[AtomicValue] | None = None
        self._nilled = False
        #: used when this element is the root of a constructed tree
        self.tree_order = None

    @property
    def node_name(self) -> QName | None:
        return self.name

    @property
    def children(self) -> list[Node]:
        return self._children

    @property
    def attributes(self) -> list["AttributeNode"]:
        return self._attributes

    @property
    def string_value(self) -> str:
        children = self._children
        if len(children) == 1 and isinstance(children[0], TextNode):
            return children[0].content  # a leaf: most atomized elements
        parts: list[str] = []
        stack = list(reversed(children))
        while stack:
            node = stack.pop()
            if isinstance(node, TextNode):
                parts.append(node.content)
            elif isinstance(node, ElementNode):
                stack.extend(reversed(node._children))
        return "".join(parts)

    @property
    def type_annotation(self) -> T.AtomicType:
        return self._type

    def set_type(self, type_: T.AtomicType,
                 typed_value: list[AtomicValue] | None = None,
                 nilled: bool = False) -> None:
        """Annotate this element (called by schema validation)."""
        self._type = type_
        self._typed_value = typed_value
        self._nilled = nilled

    def typed_value(self) -> list[AtomicValue]:
        if self._typed_value is NO_TYPED_VALUE:
            from repro.errors import TypeError_
            raise TypeError_(
                f"element {self.name} has element-only content and no typed value")
        if self._typed_value is not None:
            return self._typed_value
        return [AtomicValue(self.string_value, T.UNTYPED_ATOMIC)]

    def typed_string(self) -> str | None:
        return self.string_value if self._typed_value is None else None

    @property
    def nilled(self) -> bool | None:
        return self._nilled

    def attribute(self, name: QName) -> Optional["AttributeNode"]:
        for attr in self._attributes:
            if attr.name == name:
                return attr
        return None

    def in_scope_namespaces(self) -> dict[str, str]:
        """Prefix → URI bindings in scope at this element."""
        bindings: dict[str, str] = {}
        chain: list[ElementNode] = []
        node: Node | None = self
        while isinstance(node, ElementNode):
            chain.append(node)
            node = node.parent
        for element in reversed(chain):
            for prefix, uri in element.ns_decls:
                bindings[prefix] = uri
        return bindings


class AttributeNode(Node):
    """An attribute node."""

    __slots__ = ("name", "value", "_type", "_typed_value")
    kind = "attribute"

    def __init__(self, name: QName, value: str, parent: Node | None = None):
        super().__init__(parent)
        self.name = name
        self.value = value
        self._type: T.AtomicType = T.UNTYPED_ATOMIC
        self._typed_value: list[AtomicValue] | None = None

    @property
    def node_name(self) -> QName | None:
        return self.name

    @property
    def string_value(self) -> str:
        return self.value

    @property
    def type_annotation(self) -> T.AtomicType:
        return self._type

    def set_type(self, type_: T.AtomicType,
                 typed_value: list[AtomicValue] | None = None) -> None:
        self._type = type_
        self._typed_value = typed_value

    def typed_value(self) -> list[AtomicValue]:
        if self._typed_value is not None:
            return self._typed_value
        return [AtomicValue(self.value, T.UNTYPED_ATOMIC)]

    def typed_string(self) -> str | None:
        return self.value if self._typed_value is None else None


class TextNode(Node):
    """A text node."""

    __slots__ = ("content",)
    kind = "text"

    def __init__(self, content: str, parent: Node | None = None):
        super().__init__(parent)
        self.content = content

    @property
    def string_value(self) -> str:
        return self.content


class CommentNode(Node):
    """A comment node."""

    __slots__ = ("content",)
    kind = "comment"

    def __init__(self, content: str, parent: Node | None = None):
        super().__init__(parent)
        self.content = content

    @property
    def string_value(self) -> str:
        return self.content

    def typed_value(self) -> list[AtomicValue]:
        return [AtomicValue(self.content, T.XS_STRING)]


class PINode(Node):
    """A processing-instruction node."""

    __slots__ = ("target", "content")
    kind = "processing-instruction"

    def __init__(self, target: str, content: str, parent: Node | None = None):
        super().__init__(parent)
        self.target = target
        self.content = content

    @property
    def node_name(self) -> QName | None:
        return QName("", self.target)

    @property
    def string_value(self) -> str:
        return self.content

    def typed_value(self) -> list[AtomicValue]:
        return [AtomicValue(self.content, T.XS_STRING)]


class NamespaceNode(Node):
    """A namespace node (prefix binding visible at an element)."""

    __slots__ = ("prefix", "uri")
    kind = "namespace"

    def __init__(self, prefix: str, uri: str, parent: Node | None = None):
        super().__init__(parent)
        self.prefix = prefix
        self.uri = uri

    @property
    def node_name(self) -> QName | None:
        return QName("", self.prefix) if self.prefix else None

    @property
    def string_value(self) -> str:
        return self.uri

    def typed_value(self) -> list[AtomicValue]:
        return [AtomicValue(self.uri, T.XS_STRING)]


def is_node(item: Any) -> bool:
    """True if ``item`` is a node (vs an atomic value)."""
    return isinstance(item, Node)
