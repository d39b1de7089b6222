"""Static-rule tests: each rule gets a violating fixture tree and a
near-miss that must stay clean.

Fixture trees are written to ``tmp_path`` and parsed with
:class:`repro.analysis.project.Project` — nothing is imported or
executed, so the fixtures are free to model violations (raw locks,
leaked segments, unannotated code) that the real tree bans.
"""

import textwrap
from pathlib import Path

from repro.analysis.base import AnalysisConfig, DeclaredEdge
from repro.analysis.cli import run_check
from repro.analysis.project import Project
from repro.analysis.rules.annotations import AnnotationsRule
from repro.analysis.rules.lock_order import LockOrderRule
from repro.analysis.rules.metrics_coherence import MetricsCoherenceRule
from repro.analysis.rules.shm_lifecycle import ShmLifecycleRule
from repro.analysis.rules.single_writer import SingleWriterRule


def make_project(tmp_path: Path, files: dict, docs: "dict | None" = None) -> Project:
    root = tmp_path / "proj"
    for rel, text in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text), encoding="utf-8")
    docs_dir = None
    if docs is not None:
        docs_dir = tmp_path / "docs"
        docs_dir.mkdir(exist_ok=True)
        for rel, text in docs.items():
            (docs_dir / rel).write_text(textwrap.dedent(text), encoding="utf-8")
    return Project.load([root], docs_dir=docs_dir)


# ---------------------------------------------------------------------------
# single-writer
# ---------------------------------------------------------------------------

_SW_CONFIG = AnalysisConfig(
    single_writer_buffer_modules=("buffer",),
    single_writer_dispatch_modules=("dispatcher",),
)

_BUFFER_SRC = """
    class CircularTupleBuffer:
        def __init__(self):
            self.head = 0
            self.tail = 0

        def insert(self, batch):
            self.tail += 1

        def release(self, count):
            self.head += count
    """


class TestSingleWriter:
    def test_pointer_store_outside_buffer_module(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "buffer.py": _BUFFER_SRC,
                "rogue.py": """
                    def poke(buf):
                        buf.head = 7
                    """,
            },
        )
        findings = SingleWriterRule().check(project, _SW_CONFIG)
        assert len(findings) == 1
        assert findings[0].symbol == "head"
        assert "single-writer" in findings[0].message

    def test_mutator_call_and_construction_outside_writer_layer(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "buffer.py": _BUFFER_SRC,
                "rogue.py": """
                    from buffer import CircularTupleBuffer

                    def build():
                        buf = CircularTupleBuffer()
                        buf.release(1)
                    """,
            },
        )
        findings = SingleWriterRule().check(project, _SW_CONFIG)
        messages = [f.message for f in findings]
        assert any("constructed outside" in m for m in messages)
        assert any("buffer mutator .release()" in m for m in messages)

    def test_dispatcher_layer_is_allowed(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "buffer.py": _BUFFER_SRC,
                "dispatcher.py": """
                    from buffer import CircularTupleBuffer

                    def feed():
                        buf = CircularTupleBuffer()
                        buf.insert(1)
                    """,
            },
        )
        assert SingleWriterRule().check(project, _SW_CONFIG) == []

    def test_near_miss_reads_and_other_attrs_stay_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "buffer.py": _BUFFER_SRC,
                "reader.py": """
                    def watch(buf):
                        snapshot = buf.head
                        buf.header = snapshot
                        return snapshot
                    """,
            },
        )
        assert SingleWriterRule().check(project, _SW_CONFIG) == []

    def test_inline_suppression_moves_finding_to_suppressed(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "buffer.py": _BUFFER_SRC,
                "rogue.py": """
                    def poke(buf):
                        # repro: allow(single-writer) -- fixture exercising suppression
                        buf.head = 7
                    """,
            },
        )
        result = run_check(project, _SW_CONFIG, rule_names=["single-writer"])
        assert result.findings == []
        assert len(result.suppressed) == 1


# ---------------------------------------------------------------------------
# lock-order
# ---------------------------------------------------------------------------


class TestLockOrder:
    def test_raw_threading_lock_in_scope_is_flagged(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "app.py": """
                    import threading

                    class Broken:
                        def __init__(self):
                            self._lock = threading.Lock()
                    """,
            },
        )
        config = AnalysisConfig(lock_modules=("app",))
        findings = LockOrderRule().check(project, config)
        assert len(findings) == 1
        assert "raw threading primitives" in findings[0].message

    def test_wrong_lock_class_name_is_flagged(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "app.py": """
                    from repro.analysis.lockdep import make_lock

                    class Named:
                        def __init__(self):
                            self._lock = make_lock("app.WRONG")
                    """,
            },
        )
        config = AnalysisConfig(lock_modules=("app",))
        findings = LockOrderRule().check(project, config)
        assert len(findings) == 1
        assert "'app.Named._lock'" in findings[0].message

    def test_non_literal_lock_name_is_flagged(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "app.py": """
                    from repro.analysis.lockdep import make_lock

                    class Named:
                        def __init__(self, name):
                            self._lock = make_lock(name)
                    """,
            },
        )
        config = AnalysisConfig(lock_modules=("app",))
        findings = LockOrderRule().check(project, config)
        assert len(findings) == 1
        assert "literal lock-class name" in findings[0].message

    def test_cycle_between_module_locks_is_flagged(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "app.py": """
                    from repro.analysis.lockdep import make_lock

                    LOCK_A = make_lock("app.LOCK_A")
                    LOCK_B = make_lock("app.LOCK_B")

                    def ab():
                        with LOCK_A:
                            with LOCK_B:
                                pass

                    def ba():
                        with LOCK_B:
                            with LOCK_A:
                                pass
                    """,
            },
        )
        config = AnalysisConfig(
            lock_modules=("app",), lock_order=("app.LOCK_A", "app.LOCK_B")
        )
        findings = LockOrderRule().check(project, config)
        assert any("lock-order cycle" in f.message for f in findings)

    def test_consistent_nesting_stays_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "app.py": """
                    from repro.analysis.lockdep import make_lock

                    LOCK_A = make_lock("app.LOCK_A")
                    LOCK_B = make_lock("app.LOCK_B")

                    def ab():
                        with LOCK_A:
                            with LOCK_B:
                                pass
                    """,
            },
        )
        config = AnalysisConfig(
            lock_modules=("app",), lock_order=("app.LOCK_A", "app.LOCK_B")
        )
        assert LockOrderRule().check(project, config) == []

    def test_interprocedural_edge_contradicting_ranking(self, tmp_path):
        # outer() holds LOCK_A while calling helper(), which takes
        # LOCK_B — the edge must be discovered through the call graph.
        project = make_project(
            tmp_path,
            {
                "app.py": """
                    from repro.analysis.lockdep import make_lock

                    LOCK_A = make_lock("app.LOCK_A")
                    LOCK_B = make_lock("app.LOCK_B")

                    def outer():
                        with LOCK_A:
                            helper()

                    def helper():
                        with LOCK_B:
                            pass
                    """,
            },
        )
        reversed_rank = AnalysisConfig(
            lock_modules=("app",), lock_order=("app.LOCK_B", "app.LOCK_A")
        )
        findings = LockOrderRule().check(project, reversed_rank)
        assert any("contradicts the documented lock ranking" in f.message for f in findings)
        straight_rank = AnalysisConfig(
            lock_modules=("app",), lock_order=("app.LOCK_A", "app.LOCK_B")
        )
        assert LockOrderRule().check(project, straight_rank) == []

    def test_condition_aliasing_owner_lock_stays_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "app.py": """
                    from repro.analysis.lockdep import make_condition, make_lock

                    class Worker:
                        def __init__(self):
                            self._mutex = make_lock("app.Worker._mutex")
                            self._cond = make_condition("app.Worker._mutex", lock=self._mutex)
                    """,
            },
        )
        config = AnalysisConfig(lock_modules=("app",), lock_order=("app.Worker._mutex",))
        assert LockOrderRule().check(project, config) == []

    def test_undocumented_lock_is_flagged(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "app.py": """
                    from repro.analysis.lockdep import make_lock

                    class Worker:
                        def __init__(self):
                            self._mutex = make_lock("app.Worker._mutex")
                    """,
            },
        )
        config = AnalysisConfig(lock_modules=("app",), lock_order=("app.Other._lock",))
        findings = LockOrderRule().check(project, config)
        assert len(findings) == 1
        assert "not in the documented lock ranking" in findings[0].message

    def test_declared_edge_closes_cycle(self, tmp_path):
        # A statically visible B -> A edge plus a declared A -> B edge
        # must still be reported as a cycle.
        project = make_project(
            tmp_path,
            {
                "app.py": """
                    from repro.analysis.lockdep import make_lock

                    LOCK_A = make_lock("app.LOCK_A")
                    LOCK_B = make_lock("app.LOCK_B")

                    def ba():
                        with LOCK_B:
                            with LOCK_A:
                                pass
                    """,
            },
        )
        config = AnalysisConfig(
            lock_modules=("app",),
            declared_edges=(
                DeclaredEdge("app.LOCK_A", "app.LOCK_B", "dynamic hook for the test"),
            ),
        )
        findings = LockOrderRule().check(project, config)
        assert any("lock-order cycle" in f.message for f in findings)


# ---------------------------------------------------------------------------
# shm-lifecycle
# ---------------------------------------------------------------------------


class TestShmLifecycle:
    def test_attribute_without_release_path_is_flagged(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "shm.py": """
                    from multiprocessing import shared_memory

                    class Leaky:
                        def __init__(self):
                            self.seg = shared_memory.SharedMemory(create=True, size=64)
                    """,
            },
        )
        findings = ShmLifecycleRule().check(project, AnalysisConfig())
        assert len(findings) == 1
        assert "no close/shutdown" in findings[0].message

    def test_close_method_touching_attribute_is_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "shm.py": """
                    from multiprocessing import shared_memory

                    class Clean:
                        def __init__(self):
                            self.seg = shared_memory.SharedMemory(create=True, size=64)

                        def close(self):
                            self.seg.close()
                            self.seg.unlink()
                    """,
            },
        )
        assert ShmLifecycleRule().check(project, AnalysisConfig()) == []

    def test_transitive_release_through_self_call_is_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "shm.py": """
                    from multiprocessing import shared_memory

                    class Indirect:
                        def __init__(self):
                            self.seg = shared_memory.SharedMemory(create=True, size=64)

                        def _drop(self):
                            self.seg.close()

                        def shutdown(self):
                            self._drop()
                    """,
            },
        )
        assert ShmLifecycleRule().check(project, AnalysisConfig()) == []

    def test_unbound_creation_is_flagged(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "shm.py": """
                    from multiprocessing import shared_memory

                    def orphan():
                        shared_memory.SharedMemory(create=True, size=64)
                    """,
            },
        )
        findings = ShmLifecycleRule().check(project, AnalysisConfig())
        assert len(findings) == 1
        assert "without binding" in findings[0].message

    def test_local_closed_or_returned_is_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "shm.py": """
                    from multiprocessing import shared_memory

                    def scoped():
                        seg = shared_memory.SharedMemory(create=True, size=64)
                        seg.close()

                    def factory():
                        seg = shared_memory.SharedMemory(create=True, size=64)
                        return seg
                    """,
            },
        )
        assert ShmLifecycleRule().check(project, AnalysisConfig()) == []

    def test_factory_call_site_is_checked(self, tmp_path):
        # factory() returns a creation, so its *call sites* inherit the
        # lifecycle obligation.
        project = make_project(
            tmp_path,
            {
                "shm.py": """
                    from multiprocessing import shared_memory

                    def factory():
                        seg = shared_memory.SharedMemory(create=True, size=64)
                        return seg

                    def leaker():
                        seg = factory()
                        return seg.name
                    """,
            },
        )
        findings = ShmLifecycleRule().check(project, AnalysisConfig())
        assert len(findings) == 1
        assert findings[0].symbol == "shm.leaker"


# ---------------------------------------------------------------------------
# metrics-coherence
# ---------------------------------------------------------------------------


class TestMetricsCoherence:
    def _project(self, tmp_path):
        return make_project(
            tmp_path,
            {
                "metrics_app.py": """
                    class Instruments:
                        def __init__(self, registry):
                            self.good = registry.counter("saber_good_total", "ok")
                            self.dead = registry.counter("saber_dead_total", "never written")

                        def hit(self):
                            self.good.inc()
                    """,
            },
            docs={
                "ops.md": """
                    | series | type |
                    | --- | --- |
                    | `saber_good_total` | counter |
                    | `saber_ghost_total` | counter |
                    """,
            },
        )

    def test_dead_undocumented_and_ghost_series(self, tmp_path):
        config = AnalysisConfig(
            metrics_modules=("metrics_app",), metrics_catalogue="ops.md"
        )
        findings = MetricsCoherenceRule().check(self._project(tmp_path), config)
        messages = [f.message for f in findings]
        assert any(
            "'saber_dead_total' is registered but never" in m for m in messages
        )
        assert any(
            "'saber_dead_total' is missing from the catalogue" in m for m in messages
        )
        assert any(
            "'saber_ghost_total'" in m and "no such series is registered" in m
            for m in messages
        )
        assert all("saber_good_total" not in f.symbol for f in findings)

    def test_chained_write_counts(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "metrics_app.py": """
                    def bump(registry):
                        registry.counter("saber_chain_total", "chained").inc()
                    """,
            },
            docs={"ops.md": "| `saber_chain_total` | counter |\n"},
        )
        config = AnalysisConfig(
            metrics_modules=("metrics_app",), metrics_catalogue="ops.md"
        )
        assert MetricsCoherenceRule().check(project, config) == []

    def test_collector_samples_are_registration_and_write_site(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "metrics_app.py": """
                    def helper_samples(owner):
                        yield ("saber_depth", "gauge", "queue depth", {}, owner.depth)

                    class Owner:
                        def __init__(self, registry):
                            registry.register_collector(self._samples)

                        def _samples(self):
                            yield ("saber_pulled_total", "counter", "pulled", {}, 1)
                            yield from helper_samples(self)

                    def orphan_samples():
                        yield ("saber_orphan_total", "counter", "nobody asks", {}, 0)
                        return ("saber_not_a_sample", "text", "wrong kind", {}, 0)
                    """,
            },
            docs={
                "ops.md": """
                    | `saber_pulled_total` | counter |
                    | `saber_depth` | gauge |
                    | `saber_orphan_total` | counter |
                    """,
            },
        )
        config = AnalysisConfig(
            metrics_modules=("metrics_app",), metrics_catalogue="ops.md"
        )
        findings = MetricsCoherenceRule().check(project, config)
        assert [f.symbol for f in findings] == ["saber_orphan_total"]
        assert "reachable from a register_collector call" in findings[0].message

    def test_out_of_scope_registrations_are_ignored(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "elsewhere.py": """
                    def bump(registry):
                        registry.counter("saber_elsewhere_total", "out of scope")
                    """,
            },
        )
        config = AnalysisConfig(metrics_modules=("metrics_app",))
        assert MetricsCoherenceRule().check(project, config) == []


# ---------------------------------------------------------------------------
# annotations
# ---------------------------------------------------------------------------


class TestAnnotations:
    def test_unannotated_params_and_return_are_flagged(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "ann.py": """
                    def bad(x):
                        return x
                    """,
            },
        )
        config = AnalysisConfig(annotation_modules=("ann",))
        findings = AnnotationsRule().check(project, config)
        messages = [f.message for f in findings]
        assert "parameter 'x' is unannotated" in messages
        assert "return type is unannotated" in messages

    def test_annotated_code_and_self_are_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "ann.py": """
                    class Thing:
                        def method(self, y: int) -> int:
                            return y

                    def free(x: int, *args: int, **kwargs: int) -> int:
                        return x
                    """,
            },
        )
        config = AnalysisConfig(annotation_modules=("ann",))
        assert AnnotationsRule().check(project, config) == []

    def test_out_of_scope_module_is_ignored(self, tmp_path):
        project = make_project(tmp_path, {"other.py": "def bad(x):\n    return x\n"})
        config = AnalysisConfig(annotation_modules=("ann",))
        assert AnnotationsRule().check(project, config) == []
