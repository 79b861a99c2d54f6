"""The interprocedural analysis layer under ``repro.lint``.

Per-file checkers see one module; the invariants this reproduction's
correctness proofs rest on do not stop at module boundaries — a
wall-clock read wrapped in a helper, an unseeded RNG handed through
three calls, or an illegal VFC ``SAFETY`` transition written from
another package all slip past a per-file pass.  This package builds a
whole-program view once per lint run and shares it across the
``flow-*`` checkers:

* :mod:`repro.lint.flow.summary` — one JSON-serializable summary per
  module (imports, functions, calls, raises, handlers, taint sources),
  extracted from the AST;
* :mod:`repro.lint.flow.cache` — the on-disk summary cache keyed by
  content hash, so the cached whole-program pass stays fast;
* :mod:`repro.lint.flow.graph` — the project call graph + import graph
  with conservative method-resolution heuristics, plus the taint and
  reachability fixpoints the checkers query;
* :mod:`repro.lint.flow.statetables` — the declared state-machine
  transition tables (VFC, migration, channel rekey epoch) the
  type-state checker verifies code against.

Soundness stance (documented in docs/STATIC_ANALYSIS.md): resolution
is conservative-but-bounded — unresolvable dynamic dispatch is dropped
rather than exploded, so the layer under-approximates reachability in
exchange for a finding list humans will actually read.
"""

from repro.lint.flow.graph import project_graph  # noqa: F401
