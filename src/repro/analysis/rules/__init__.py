"""The static rules ``repro check`` runs, as one explicit tuple.

Each rule module defines one small :class:`~repro.analysis.base.Rule`
subclass guarding one project invariant — see ``docs/analysis.md`` for
the catalogue.  :data:`RULES` is the whole rule set: ``run_check`` and
``--list-rules`` read it, so a rule runs if and only if it is listed.
"""

from ..base import Rule
from .annotations import AnnotationsRule
from .lock_order import LockOrderRule
from .metrics_coherence import MetricsCoherenceRule
from .shm_lifecycle import ShmLifecycleRule
from .single_writer import SingleWriterRule

__all__ = ["RULES"]

RULES: tuple[Rule, ...] = (
    SingleWriterRule(),
    LockOrderRule(),
    ShmLifecycleRule(),
    MetricsCoherenceRule(),
    AnnotationsRule(),
)
