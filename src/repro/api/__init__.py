"""The public streaming API: fluent Stream DSL + long-lived sessions.

This package is the one supported way to express and run queries:

* :class:`Stream` — immutable fluent builder compiling to the engine's
  operator graph with build-time validation and schema inference;
* :mod:`~repro.api.agg` — aggregate constructors (``agg.sum("cpu")``);
* :class:`SaberSession` — context-managed session: register streams
  once, submit builder plans or CQL (:meth:`SaberSession.sql`), run
  incrementally over the ``sim`` or ``threads`` backend, stream results
  per query, stop/drain.

A hand-built ``Query`` stays the escape hatch for custom operators the
builder does not express; see ``docs/api.md``.
"""

from . import agg
from .builder import Stream, col
from .session import QueryHandle, SaberSession

__all__ = ["Stream", "col", "agg", "QueryHandle", "SaberSession"]
