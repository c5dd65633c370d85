"""Storage modes and node labeling.

The tutorial's "Possible XML Storage Modes" slide, implemented:

- :class:`TextStore` — plain UNICODE text; must re-parse per query
  ("not an option for XQuery processing" — E8 quantifies why);
- :class:`TreeStore` — materialized XDM trees ("good support of
  navigation; difficult to use in streaming");
- :class:`TokenStore` — the binary pooled TokenStream on (simulated)
  disk ("low overhead: separate indexes from data");

plus the **(pre, post, level) + Dewey labeling** scheme
(:mod:`repro.storage.labels`) and inverted element/value indexes
(:mod:`repro.storage.indexes`) that the structural-join algorithms of
:mod:`repro.joins` run on.

A store only holds one form of a document.  The catalog handle
(:class:`repro.catalog.StoredDocument`) is the one owner of what is
derived from it: the pinned tree, the statistics and the indexes.
"""

from repro.storage.labels import DeweyLabel, Label, label_document
from repro.storage.indexes import ElementIndex, Posting, ValueIndex, normalize_value
from repro.storage.stats import DocumentStats, collect_stats
from repro.storage.stores import BaseStore, TextStore, TokenStore, TreeStore

__all__ = [
    "Label",
    "DeweyLabel",
    "label_document",
    "ElementIndex",
    "ValueIndex",
    "Posting",
    "normalize_value",
    "DocumentStats",
    "collect_stats",
    "BaseStore",
    "TextStore",
    "TreeStore",
    "TokenStore",
]
