"""The compiler: normalization, analysis, rewriting, code generation.

"Major compilation steps: 1. Parsing 2. Normalization 3. Type checking
4. Optimization 5. Code Generation."  The pipeline here follows the
paper's BEA architecture:

    text --parse--> expression tree --normalize--> core tree
         --analyze--> annotated tree --rewrite--> optimized tree
         --emit--> generated Python

- :mod:`repro.compiler.context` — the static context;
- :mod:`repro.compiler.lift` — literal lifting: texts that differ only
  in a literal share one plan;
- :mod:`repro.compiler.normalize` — sugar → core (FLWOR lowering, DDO
  insertion, function inlining);
- :mod:`repro.compiler.sequencetype` — runtime-checkable sequence types;
- :mod:`repro.compiler.analysis` — the dataflow questions of the
  "Xquery expression analysis" slide (uses counts, node creation,
  doc-order/distinct guarantees, ...);
- :mod:`repro.compiler.typecheck` — static type inference;
- :mod:`repro.compiler.rewriter` + :mod:`repro.compiler.rules` — the
  rewrite-rule library with the paper's contract
  (type(e2) ⊆ type(e1), freeVars(e2) ⊆ freeVars(e1));
- :mod:`repro.compiler.planner` — access paths and twig joins over a
  catalog's indexes;
- :mod:`repro.compiler.pysource` — core tree → one generated Python
  module per query (the executor);
- :mod:`repro.compiler.reference` — the closure interpreter, the
  differential oracle the generated code is held to.
"""

from repro.compiler.context import StaticContext
from repro.compiler.normalize import normalize_module
from repro.compiler.rewriter import RewriteEngine, default_rules

__all__ = [
    "StaticContext",
    "normalize_module",
    "RewriteEngine",
    "default_rules",
]
