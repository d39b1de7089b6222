"""Pytest configuration: make the package and test helpers importable.

The ``src/`` layout means a plain checkout cannot import ``repro``
without ``pip install -e .``; inserting ``src`` here lets
``python -m pytest`` work either way.

With ``REPRO_LOCKDEP=1`` in the environment, every engine lock is a
tracked wrapper (see ``repro.analysis.lockdep``); a session-scoped
fixture below verifies at the end of the run that the observed
acquisition order is acyclic and fully declared in the static lock
graph, and writes a JSON report (``REPRO_LOCKDEP_OUT``, default
``lockdep_report.json``).

Two hypothesis profiles set the property tests' seed policy and budget:
``ci`` (the default — derandomised, so a run is reproducible from the
commit alone) and ``nightly`` (a random seed and ten times the
examples; ``--hypothesis-profile nightly``).  The differential kernel
tests take both from the profile.
"""

import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("ci", max_examples=120, deadline=None, derandomize=True)
settings.register_profile("nightly", max_examples=1200, deadline=None, derandomize=False)
# Loaded before pytest_configure, where --hypothesis-profile overrides it.
settings.load_profile("ci")

_HERE = Path(__file__).resolve().parent
for _path in (_HERE, _HERE.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))


@pytest.fixture(scope="session", autouse=True)
def _lockdep_guard():
    """Assert runtime lock-acquisition order against the static graph."""
    from repro.analysis import lockdep

    if not lockdep.enabled():
        yield
        return
    lockdep.REGISTRY.reset()
    yield
    from repro.analysis.base import DEFAULT_CONFIG
    from repro.analysis.locks import build_lock_graph
    from repro.analysis.project import Project

    project = Project.load([_HERE.parent / "src"])
    graph = build_lock_graph(project, DEFAULT_CONFIG)
    report = lockdep.verify(
        lockdep.REGISTRY.edge_counts(),
        graph.edge_pairs(),
        lockdep.REGISTRY.acquisition_counts(),
    )
    out = Path(os.environ.get("REPRO_LOCKDEP_OUT", "lockdep_report.json"))
    out.write_text(report.to_json(), encoding="utf-8")
    sys.stderr.write(f"\n{report.summary()} (report: {out})\n")
    assert report.ok, report.summary()
