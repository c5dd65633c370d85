"""``engine_stats`` counters: semantics and diaries.

Every counter a query bumps (``DynamicContext.count``) is one of two
kinds, and the split is defined here, once:

- **Semantics** — what the *query* made happen, whatever plan ran it:
  an index operator degrading to navigation on a foreign binding
  (``access_path.fallback_navigation``, ``twig.fallback_navigation``),
  nodes built (``elements_constructed``), ``fn:trace`` labels.  Two
  plans of one query — and the generated code and the closure
  interpreter running one plan — must report them byte-identically.
- **Diaries** — work the *plan* chose to do: document-order sorts
  (``ddo_sorts``), access-path rows and probes (``access_path.*``), the
  twig joins' scan counters (``twig.*``).  A better plan does less of
  it, so these may fall — an invariant hoisted out of a loop sorts
  once, a hash lane probes instead of re-scanning.

Anything not named a diary is semantic: a new counter is compared
exactly until it is deliberately listed here.
"""

from __future__ import annotations

#: counters whose name alone makes them diaries
_DIARY_NAMES = ("ddo_sorts",)
#: counter families that are diaries, but for their ``fallback_navigation``
_DIARY_FAMILIES = ("access_path.", "twig.")


def is_diary(key: str) -> bool:
    """Does ``key`` record work the plan chose to do (may fall)?"""
    if key in _DIARY_NAMES:
        return True
    return key.startswith(_DIARY_FAMILIES) \
        and not key.endswith(".fallback_navigation")


def split_counters(stats: dict) -> tuple[dict, dict]:
    """``(semantics, diaries)`` of one ``engine_stats`` mapping."""
    semantics: dict = {}
    diaries: dict = {}
    for key, value in stats.items():
        (diaries if is_diary(key) else semantics)[key] = value
    return semantics, diaries
