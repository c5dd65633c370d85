"""TokenStream: a materialized token array with subtree navigation.

The in-memory form of the paper's "array" storage mode: a flat list of
tokens in pre-order.  Because BEGIN/END tokens bracket subtrees, the
stream supports the ``skip()`` operation iterators need — jump from a
BEGIN token to just past its matching END without visiting the
interior — in O(1) once the skip table is built (and O(subtree) the
first time).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.tokens.token import CLOSING, OPENING, Tok, Token


class TokenStream:
    """A materialized, indexable token sequence."""

    __slots__ = ("tokens", "_skip", "_skip_stack", "_scanned")

    def __init__(self, tokens: Iterable[Token] | None = None):
        self.tokens: list[Token] = list(tokens) if tokens is not None else []
        #: opening position → position just past its END, covering the
        #: first ``_scanned`` tokens; grown incrementally so builders
        #: that interleave appends and skips never pay a full rescan
        self._skip: dict[int, int] = {}
        #: positions of still-open opening tokens below ``_scanned``
        self._skip_stack: list[int] = []
        self._scanned = 0

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)

    def __getitem__(self, index):
        return self.tokens[index]

    def append(self, token: Token) -> None:
        self.tokens.append(token)

    def extend(self, tokens: Iterable[Token]) -> None:
        self.tokens.extend(tokens)

    # -- structure ----------------------------------------------------------

    def _skip_table(self) -> dict[int, int]:
        """position of each opening token → position just past its END."""
        tokens = self.tokens
        n = len(tokens)
        if self._scanned > n:
            # tokens were mutated behind our back (the list is public):
            # drop the incremental state and rescan from the start
            self._skip = {}
            self._skip_stack = []
            self._scanned = 0
        if self._scanned < n:
            table = self._skip
            stack = self._skip_stack
            for i in range(self._scanned, n):
                kind = tokens[i].kind
                if kind in OPENING:
                    stack.append(i)
                elif kind in CLOSING:
                    if stack:
                        table[stack.pop()] = i + 1
            self._scanned = n
        return self._skip

    def skip_from(self, position: int) -> int:
        """Index just past the subtree starting at ``position``.

        For non-opening tokens this is simply ``position + 1``.
        """
        token = self.tokens[position]
        if token.kind in OPENING:
            return self._skip_table()[position]
        return position + 1

    def subtree(self, position: int) -> "TokenStream":
        """The token slice for the subtree rooted at ``position``."""
        return TokenStream(self.tokens[position: self.skip_from(position)])

    def depth_profile(self) -> list[int]:
        """Nesting depth at each token (diagnostics / tests)."""
        depth = 0
        out: list[int] = []
        for token in self.tokens:
            if token.kind in CLOSING:
                depth -= 1
            out.append(depth)
            if token.kind in OPENING:
                depth += 1
        return out

    def count(self, kind: Tok) -> int:
        return sum(1 for t in self.tokens if t.kind == kind)

    def __repr__(self) -> str:
        return f"TokenStream({len(self.tokens)} tokens)"
