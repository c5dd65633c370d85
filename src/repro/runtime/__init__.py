"""The runtime: lazy, pull-based evaluation.

"Goals: lazy evaluation of XQuery expressions; stream-based
processing.  Approach: iterator model of execution."  Sequences flow
through the engine as Python iterators; variables bind to
:class:`~repro.runtime.iterators.BufferedSequence` objects (the
paper's buffer-iterator-factory for multiple consumers); operators
consume on demand, so ``(//a)[1]`` stops after the first hit and
``some $x in endlessOnes() satisfies $x eq 1`` terminates.
"""

from repro.runtime.dynamic import DynamicContext
from repro.runtime.iterators import BufferedSequence, materialize

__all__ = ["DynamicContext", "BufferedSequence", "materialize"]
