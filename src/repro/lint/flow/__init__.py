"""Whole-program analysis layer for ``repro lint``.

Some rules need only one :class:`~repro.lint.context.FileContext` at a
time.  That is enough for the determinism rules, but the paper's §III
fencing discipline is an *interprocedural* property — a ``fence()`` or
a ``read_remote_log()`` hidden in a helper escapes any per-function
check.

This package lifts the analysis to the project level:

* :mod:`repro.lint.flow.project` — the :class:`ProjectContext`: every
  linted file's AST indexed by module, class and function.
* :mod:`repro.lint.flow.callgraph` — a static call graph (bare names,
  imports, ``self.``/``super().`` dispatch over a static MRO).
* :mod:`repro.lint.flow.dataflow` — per-function statement-level CFGs
  with dominance.
* :mod:`repro.lint.flow.summaries` — fence-discipline function
  summaries (``establishes_fence`` / escaping unfenced reads) computed
  to a fixpoint over the call graph; feeds rule FENCE002.

Rules that need this layer subclass
:class:`repro.lint.registry.ProjectRule`; the engine builds one
:class:`ProjectContext` per run and hands it to every rule.
"""
