"""Compatibility stub: composed operators already run in one pass.

``FilteredWindows`` and ``ProjectedWindows`` (:mod:`repro.operators.compose`)
are the single-pass kernel, so there is nothing left to compile.  The only
reader is ``benchmarks/saberbench/tracing.py``, which calls
:func:`fuse_operator` on each query and then runs
``Query.execution_operator``; delete both when that file is next edited.
"""

from __future__ import annotations


def fuse_operator(operator: object) -> None:
    """Nothing to compile: the query runs ``query.operator`` as it is."""
    return None
