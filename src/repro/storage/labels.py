"""Node labeling: (pre, post, level) intervals and Dewey order keys.

The region/interval encoding behind structural joins (Al-Khalifa et
al.): node *a* is an ancestor of node *d* iff

    a.pre < d.pre  and  a.post > d.post

and a parent iff additionally ``a.level + 1 == d.level``.  One
document walk assigns all labels.

Dewey labels (``1.3.2`` = second child of third child of root) support
the same tests (prefix containment) plus cheap sibling/update
reasoning; both are provided because the literature of the era uses
both, and ``tests/test_storage.py`` checks that they agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.xdm.nodes import DocumentNode, ElementNode, Node


@dataclass(frozen=True, slots=True, order=True)
class Label:
    """A (pre, post, level) region label. Sorts by pre order."""

    pre: int
    post: int
    level: int

    def is_ancestor_of(self, other: "Label") -> bool:
        return self.pre < other.pre and self.post > other.post

    def is_parent_of(self, other: "Label") -> bool:
        return self.is_ancestor_of(other) and self.level + 1 == other.level

    def is_descendant_of(self, other: "Label") -> bool:
        return other.is_ancestor_of(self)

    def precedes(self, other: "Label") -> bool:
        """Strictly before in document order, not an ancestor."""
        return self.pre < other.pre and self.post < other.post


@dataclass(frozen=True, slots=True)
class DeweyLabel:
    """A Dewey order key: the path of child indexes from the root."""

    path: tuple[int, ...]

    def is_ancestor_of(self, other: "DeweyLabel") -> bool:
        n = len(self.path)
        return n < len(other.path) and other.path[:n] == self.path

    def is_parent_of(self, other: "DeweyLabel") -> bool:
        return len(other.path) == len(self.path) + 1 and \
            other.path[: len(self.path)] == self.path

    @property
    def level(self) -> int:
        return len(self.path)

    def __lt__(self, other: "DeweyLabel") -> bool:
        return self.path < other.path

    def __str__(self) -> str:
        return ".".join(str(p) for p in self.path)


def label_document(doc: DocumentNode | ElementNode,
                   dewey: bool = False) -> dict[int, Label | DeweyLabel]:
    """Label every node (elements, attributes, text, ...) in one walk.

    Returns ``id(node) → label``.  ``pre`` numbers follow document
    order including attributes; ``post`` numbers close after all
    descendants, so interval containment is exactly ancestry.
    """
    if dewey:
        return _dewey_labels(doc)
    labels: dict[int, Label] = {}
    # ONE counter drives both pre and post (region/interval encoding):
    # a node's (pre, post) brackets exactly its descendants' numbers, so
    # cross-comparisons like "a.post < d.pre" (a ends before d starts)
    # are meaningful — the stack-tree join relies on that.
    counter = 0

    stack: list[tuple[Node, int, bool]] = [(doc, 0, False)]
    pre_of: dict[int, int] = {}
    level_of: dict[int, int] = {}
    while stack:
        node, level, visited = stack.pop()
        if visited:
            labels[id(node)] = Label(pre_of[id(node)], counter, level_of[id(node)])
            counter += 1
            continue
        pre_of[id(node)] = counter
        level_of[id(node)] = level
        counter += 1
        stack.append((node, level, True))
        if isinstance(node, ElementNode):
            for attr in node.attributes:
                labels[id(attr)] = Label(counter, counter + 1, level + 1)
                counter += 2
        for child in reversed(node.children):
            stack.append((child, level + 1, False))
    return labels


def _dewey_labels(doc: Node) -> dict[int, DeweyLabel]:
    labels: dict[int, DeweyLabel] = {id(doc): DeweyLabel(())}
    stack: list[tuple[Node, tuple[int, ...]]] = [(doc, ())]
    while stack:
        node, path = stack.pop()
        position = 0
        if isinstance(node, ElementNode):
            for attr in node.attributes:
                position += 1
                labels[id(attr)] = DeweyLabel(path + (position,))
        for child in node.children:
            position += 1
            child_path = path + (position,)
            labels[id(child)] = DeweyLabel(child_path)
            stack.append((child, child_path))
    return labels
