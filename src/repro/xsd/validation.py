"""Schema validation: annotating trees with types (the PSVI).

"Schema validation impacts the data model representation and therefore
the XQuery semantics!!" — after validation ``<a>3</a> eq 3`` holds
where before it did not.  Validation here walks a tree, checks it
against declarations, and *annotates in place*: element/attribute type
annotations and typed values are filled in, so every later
``typed-value`` call sees schema types instead of untypedAtomic.

Content models are matched with a small backtracking NFA over child
positions, which handles nested sequence/choice groups and occurrence
bounds (including ``unbounded``).

``xsi:type`` on an element overrides the declared type, enabling the
tutorial's ``<a xsi:type="xs:integer">3</a>`` examples without a full
schema.
"""

from __future__ import annotations

from typing import Union

from repro.errors import ValidationError
from repro.qname import QName, XSI_NS, NamespaceBindings
from repro.xdm.items import AtomicValue
from repro.xdm.nodes import (
    NO_TYPED_VALUE,
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    Node,
    PINode,
    TextNode,
)
from repro.xdm.order import forget_node_index
from repro.xsd import types as T
from repro.xsd.casting import parse_lexical
from repro.xsd.schema import (
    ChoiceModel,
    ComplexType,
    ContentModel,
    ElementDecl,
    ElementParticle,
    Schema,
    SequenceModel,
)

_XSI_TYPE = QName(XSI_NS, "type")
_XSI_NIL = QName(XSI_NS, "nil")


def validate(node: Union[DocumentNode, ElementNode], schema: Schema | None = None) -> Node:
    """Validate ``node`` against ``schema``, annotating it in place.

    With no schema, only ``xsi:type`` annotations are applied — the
    "implicit validation" mode the tutorial's typed-data examples rely
    on.  Raises :class:`ValidationError` on any mismatch.
    """
    element = node.document_element() if isinstance(node, DocumentNode) else node
    if element is None:
        raise ValidationError("cannot validate a document with no element")

    if schema is None:
        _validate_xsi_only(element)
        return node

    decl = schema.element_decl(element.name)
    if decl is None:
        raise ValidationError(f"no declaration for root element {element.name}")
    _validate_element(element, decl.type, decl, schema)
    # annotation invalidates cached typed values / orders conservatively
    forget_node_index(node.root())
    return node


# -- xsi:type-only validation --------------------------------------------------


def _validate_xsi_only(element: ElementNode) -> None:
    xsi = element.attribute(_XSI_TYPE)
    if xsi is not None:
        ns = NamespaceBindings(element.in_scope_namespaces())
        tname = QName.parse(xsi.value, ns, default_uri="")
        registry = T.TypeRegistry()
        atype = registry.lookup(tname)
        if atype is None:
            raise ValidationError(f"xsi:type references unknown type {xsi.value!r}")
        value = parse_lexical(atype, element.string_value)
        element.set_type(atype, [AtomicValue(value, atype)])
    for child in element.children:
        if isinstance(child, ElementNode):
            _validate_xsi_only(child)


# -- full validation ----------------------------------------------------------


def _validate_element(element: ElementNode,
                      etype: Union[T.AtomicType, ComplexType],
                      decl: ElementDecl | None,
                      schema: Schema) -> None:
    # xsi:nil handling
    nil_attr = element.attribute(_XSI_NIL)
    if nil_attr is not None and nil_attr.value in ("true", "1"):
        if decl is None or not decl.nillable:
            raise ValidationError(f"element {element.name} is not nillable")
        if any(isinstance(c, (ElementNode, TextNode)) for c in element.children):
            raise ValidationError(f"nilled element {element.name} must be empty")
        element.set_type(etype if isinstance(etype, T.AtomicType) else T.ANY_TYPE,
                         [], nilled=True)
        return

    # xsi:type override
    xsi = element.attribute(_XSI_TYPE)
    if xsi is not None:
        ns = NamespaceBindings(element.in_scope_namespaces())
        tname = QName.parse(xsi.value, ns, default_uri=schema.target_namespace)
        override = schema.lookup_type(tname)
        if override is None:
            raise ValidationError(f"xsi:type references unknown type {xsi.value!r}")
        etype = override

    if isinstance(etype, T.AtomicType):
        _validate_simple_element(element, etype)
        return

    # complex type: attributes first
    for attr in element.attributes:
        if attr.name.uri == XSI_NS:
            continue
        adecl = etype.attribute(attr.name)
        if adecl is None:
            raise ValidationError(
                f"undeclared attribute {attr.name} on element {element.name}")
        value = parse_lexical(adecl.type, attr.value)
        attr.set_type(adecl.type, [AtomicValue(value, adecl.type)])
    for adecl in etype.attributes:
        if adecl.required and element.attribute(adecl.name) is None:
            raise ValidationError(
                f"missing required attribute {adecl.name} on element {element.name}")

    if etype.simple_content is not None:
        _check_text_only(element, etype)
        value = parse_lexical(etype.simple_content, element.string_value)
        element.set_type(etype.simple_content, [AtomicValue(value, etype.simple_content)])
        return

    child_elements = [c for c in element.children if isinstance(c, ElementNode)]

    if etype.mixed:
        allowed = dict(_flatten_particles(etype.content))
        for child in child_elements:
            if child.name not in allowed:
                raise ValidationError(
                    f"element {child.name} not allowed in mixed content of {element.name}")
            _validate_element(child, allowed[child.name], None, schema)
        element.set_type(T.UNTYPED_ATOMIC,
                         [AtomicValue(element.string_value, T.UNTYPED_ATOMIC)])
        return

    # element-only content: no significant text allowed
    for child in element.children:
        if isinstance(child, TextNode) and child.content.strip():
            raise ValidationError(
                f"text {child.content.strip()!r} not allowed in element-only "
                f"content of {element.name}")

    if etype.content is None:
        if child_elements:
            raise ValidationError(f"element {element.name} must be empty")
    else:
        _match_content(etype.content, element, child_elements, schema)
    element.set_type(T.ANY_TYPE, NO_TYPED_VALUE)


def _validate_simple_element(element: ElementNode, etype: T.AtomicType) -> None:
    _check_text_only(element, etype)
    for attr in element.attributes:
        if attr.name.uri != XSI_NS:
            raise ValidationError(
                f"element {element.name} of simple type {etype} cannot have attributes")
    value = parse_lexical(etype, element.string_value)
    element.set_type(etype, [AtomicValue(value, etype)])


def _check_text_only(element: ElementNode, etype) -> None:
    for child in element.children:
        if isinstance(child, ElementNode):
            raise ValidationError(
                f"element {element.name} of type {etype} cannot have child elements")


def _flatten_particles(model: ContentModel):
    """Yield (name, type) for every element particle reachable in a model."""
    if model is None:
        return
    for particle in model.particles:
        if isinstance(particle, ElementParticle):
            yield particle.name, particle.type
        else:
            yield from _flatten_particles(particle)


def _match_content(model: ContentModel, element: ElementNode,
                   children: list[ElementNode], schema: Schema) -> None:
    """Match ``children`` against ``model``; validate each child; raise on failure."""
    ends = _match_particle(model, children, 0)
    if len(children) not in ends:
        raise ValidationError(
            f"content of element {element.name} does not match its content model "
            f"(matched {max(ends) if ends else 0} of {len(children)} children)")
    # validate each child against the (first) particle that declares it
    types = dict(_flatten_particles(model))
    for child in children:
        ctype = types.get(child.name)
        if ctype is None:
            raise ValidationError(
                f"element {child.name} not declared in content of {element.name}")
        _validate_element(child, ctype, None, schema)


def _match_particle(particle, children: list[ElementNode], pos: int) -> set[int]:
    """NFA step: all positions reachable by matching ``particle`` once,
    honoring its own occurrence bounds."""
    if isinstance(particle, ElementParticle):
        single = _match_single_element
    elif isinstance(particle, SequenceModel):
        single = _match_single_sequence
    elif isinstance(particle, ChoiceModel):
        single = _match_single_choice
    else:
        raise ValidationError(f"unknown particle {particle!r}")

    min_occurs = particle.min_occurs
    max_occurs = particle.max_occurs  # None = unbounded

    results: set[int] = set()
    frontier = {pos}
    count = 0
    if min_occurs == 0:
        results.add(pos)
    while frontier and (max_occurs is None or count < max_occurs):
        nxt: set[int] = set()
        for p in frontier:
            nxt |= single(particle, children, p)
        count += 1
        if count >= min_occurs:
            results |= nxt
        if nxt == frontier:
            break  # zero-width match; avoid infinite loop
        frontier = nxt
    return results


def _match_single_element(particle: ElementParticle,
                          children: list[ElementNode], pos: int) -> set[int]:
    if pos < len(children) and children[pos].name == particle.name:
        return {pos + 1}
    return set()


def _match_single_sequence(model: SequenceModel,
                           children: list[ElementNode], pos: int) -> set[int]:
    frontier = {pos}
    for particle in model.particles:
        nxt: set[int] = set()
        for p in frontier:
            nxt |= _match_particle(particle, children, p)
        frontier = nxt
        if not frontier:
            break
    return frontier


def _match_single_choice(model: ChoiceModel,
                         children: list[ElementNode], pos: int) -> set[int]:
    out: set[int] = set()
    for particle in model.particles:
        out |= _match_particle(particle, children, pos)
    return out
