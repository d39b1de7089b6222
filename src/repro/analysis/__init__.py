"""Project-invariant static analysis and runtime race validation.

This package machine-checks the concurrency disciplines the engine's
correctness rests on (see ``docs/analysis.md``):

* ``repro check`` — an AST-based static analyzer running the five rules
  of :data:`repro.analysis.rules.RULES` (single-writer dispatch, lock
  ordering, shared-memory lifecycle, metrics coherence, annotation
  coverage);
* :mod:`repro.analysis.lockdep` — a lockdep-style instrumented lock
  that records the *actual* acquisition order while the test suite runs
  (``REPRO_LOCKDEP=1``) and asserts it against the static graph.

Import surface is deliberately small: the engine's hot modules import
only :func:`repro.analysis.lockdep.make_lock` /
:func:`~repro.analysis.lockdep.make_condition`, which are plain
``threading`` factories unless lockdep is enabled.
"""

from __future__ import annotations

__all__ = ["__doc__"]
