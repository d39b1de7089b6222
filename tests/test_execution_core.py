"""The execution core's seams: one completion path, one layering.

``SaberEngine.complete`` is the only place a finished task is accounted
for, whatever executor ran it — so the accounting must come out the same
under all three ``execution`` values — and the engine / executor / device
split is held in place by an AST guard rather than by convention.
"""

import ast
import dataclasses
import multiprocessing
import pathlib
import re

import pytest

from repro.core.engine import SaberConfig, SaberEngine
from repro.core.scheduler import CPU, GPU, FcfsScheduler, HlsScheduler
from repro.core.task import QueryTask
from repro.hardware.slots import EXECUTIONS
from repro.hardware.specs import HardwareSpec
from repro.workloads.synthetic import TUPLE_SIZE, SyntheticSource, select_query

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
TASKS = 12


def _engine(execution, **kwargs):
    if execution == "processes" and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("processes backend needs POSIX fork")
    return SaberEngine(
        SaberConfig(
            execution=execution,
            task_size_bytes=256 * TUPLE_SIZE,
            cpu_workers=2,
            matrix_refresh_seconds=0.0,  # every completion refreshes the matrix
            **kwargs,
        )
    )


def _run_with_feedback_spy(engine, query, sources):
    """Run ``TASKS`` tasks, recording every HLS feedback call."""
    feedback = []
    task_finished = engine.scheduler.task_finished

    def spy(task, processor, tasks_per_second, now):
        feedback.append((task.task_id, processor, tasks_per_second))
        task_finished(task, processor, tasks_per_second, now)

    engine.scheduler.task_finished = spy
    engine.add_query(query, sources)
    try:
        report = engine.run(tasks_per_query=TASKS)
    finally:
        engine.shutdown()
    return report, feedback


@pytest.mark.parametrize("execute_data", [True, False], ids=["data", "stat-model"])
@pytest.mark.parametrize("execution", EXECUTIONS)
def test_complete_accounts_identically_on_every_execution(execution, execute_data):
    engine = _engine(execution, execute_data=execute_data)
    query = select_query(4, pass_rate=0.5)
    sources = [SyntheticSource(seed=3)] if execute_data else None
    report, feedback = _run_with_feedback_spy(engine, query, sources)
    (run,) = engine.runs
    records = report.measurements.records

    assert len(records) == TASKS
    assert run.tasks_completed == run.tasks_dispatched == TASKS
    assert all(r.query == query.name and r.completed >= r.created for r in records)
    # One latency sample per ordered output chunk; per task when no data ran.
    chunks = len(run.result_stage.emitted) if execute_data else TASKS
    assert chunks > 0
    assert report.measurements.latency.count(query=query.name) == chunks
    # One positive throughput sample per task, for the processor that ran it.
    assert sorted(p for __, p, __ in feedback) == sorted(r.processor for r in records)
    assert sorted(task_id for task_id, __, __ in feedback) == list(range(TASKS))
    assert all(tps > 0 for __, __, tps in feedback)
    processors = {slot.processor for slot in engine.device_slots()}
    assert {r.processor for r in records} <= processors
    if isinstance(engine.scheduler, HlsScheduler):
        # (Worker-clock completion times can arrive out of order on
        # processes, so a straggler's sample may still await a refresh.)
        __, matrix = report.matrix_history[-1]
        assert matrix and set(matrix) <= {(query.name, r.processor) for r in records}


class _CountingFcfs(FcfsScheduler):
    def __init__(self):
        self.selected = 0
        self.finished = 0

    def select(self, queue, processor):
        self.selected += 1
        return super().select(queue, processor)

    def task_finished(self, task, processor, tasks_per_second, now):
        self.finished += 1


@pytest.mark.parametrize("execution", EXECUTIONS)
def test_scheduler_swapped_after_construction_selects_and_gets_feedback(execution):
    """``engine.scheduler`` is an ablation hook
    (``test_paper_shapes.py::test_ablation_line12_fallback_beats_strict_lookahead``
    swaps it on a built engine): the executor must select on the live
    object, the same one ``complete`` feeds."""
    engine = _engine(execution)
    built = engine.scheduler
    built.select = built.task_finished = None  # any use of the old one raises
    engine.scheduler = swapped = _CountingFcfs()
    engine.add_query(select_query(4, pass_rate=0.5), [SyntheticSource(seed=3)])
    try:
        engine.run(tasks_per_query=TASKS)
    finally:
        engine.shutdown()
    assert swapped.selected >= TASKS
    assert swapped.finished == TASKS


@pytest.mark.parametrize("execution", ["sim", "threads"])
def test_every_claim_is_a_select_pick(execution):
    """One queued task that prefers the device, below the line-12
    fallback backlog, nothing in flight and dispatch done: Alg. 1 leaves
    the CPU idle and gives the task to the device, and the executor may
    not hand the head to whichever worker asks first."""
    engine = _engine(execution)
    query = select_query(4, pass_rate=0.5)
    engine.add_query(query, [SyntheticSource(seed=3)])
    matrix = engine.scheduler.matrix
    matrix.observe(query.name, GPU, 2 * matrix.initial)
    matrix.maybe_refresh(1.0)
    assert matrix.preferred(query.name) == GPU
    executor, queued = engine._executor, QueryTask(query, 0, [], 0.0, 1024)
    executor.queue.append(queued)
    try:
        if execution == "threads":
            executor._dispatch_done = True
            with executor._cond:
                assert executor._claim(CPU) is None
                assert executor._claim(GPU) is queued
        else:
            started = []
            executor._start = lambda worker, task: started.append((worker.processor, task))
            for processor in (CPU, GPU):
                executor._worker_try(next(w for w in executor.workers if w.processor == processor))
            assert started == [(GPU, queued)]
    finally:
        engine.shutdown()


# -- layering guard ------------------------------------------------------------


def _parse(relative):
    return ast.parse((SRC / relative).read_text())


def _private_engine_accesses(tree):
    """``engine._x`` / ``<anything>.engine._x`` attribute accesses."""
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        if not node.attr.startswith("_") or node.attr.startswith("__"):
            continue
        owner = node.value
        name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
        if name == "engine":
            hits.append((node.lineno, node.attr))
    return hits


@pytest.mark.parametrize("module", sorted(p.name for p in (SRC / "core").glob("executor*.py")))
def test_executors_touch_the_engine_through_public_names_only(module):
    assert _private_engine_accesses(_parse(f"core/{module}")) == []


def test_guard_sees_private_engine_access():
    tree = ast.parse("def f(self):\n    self.engine._materialise(1)\n    engine._x\n")
    assert sorted(_private_engine_accesses(tree)) == [(2, "_materialise"), (3, "_x")]


def test_engine_holds_no_event_loop_or_cost_model_code():
    tree = _parse("core/engine.py")
    imported = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    }
    assert not imported & {"hardware.cpu", "hardware.gpu", "gpu.pipeline"}
    assert "EventLoop" not in (SRC / "core" / "engine.py").read_text()
    (engine_class,) = [
        n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "SaberEngine"
    ]
    (run,) = [
        n for n in engine_class.body if isinstance(n, ast.FunctionDef) and n.name == "run"
    ]
    # run() hands over to the executor: no branch on config.execution.
    assert not any(
        isinstance(n, ast.Attribute) and n.attr == "execution" for n in ast.walk(run)
    )


def test_only_the_config_reads_the_hybrid_spelling():
    """``execution="hybrid"`` is normalised to ``"threads"`` by
    ``SaberConfig``; no other code may branch on it."""
    sites = []
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value == "hybrid":
                sites.append(str(path.relative_to(SRC)))
    assert sites == ["core/engine.py"]


def test_one_task_record_construction_site():
    sites = []
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "TaskRecord":
                    sites.append(str(path.relative_to(SRC)))
    assert sites == ["core/engine.py"]


# -- metrics layering: one neutral package, read by pull -------------------------


def _imported_modules(path):
    """Absolute dotted names of everything ``path`` imports."""
    package = ["repro", *path.relative_to(SRC).parts[:-1]]
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join([*base, *([node.module] if node.module else [])])
            # ``from . import x`` may name submodules: count each one.
            names.append(module)
            names.extend(f"{module}.{alias.name}" for alias in node.names)
    return names


def _under(name, package):
    return name == package or name.startswith(package + ".")


def test_metrics_package_is_neutral():
    """``repro.metrics`` sits below every layer that reports through it."""
    allowed_repro = ("repro.metrics", "repro.analysis.lockdep")
    stdlib_and_numpy = {
        "__future__", "bisect", "collections", "dataclasses", "logging", "typing", "numpy",
    }
    for path in sorted((SRC / "metrics").glob("*.py")):
        for name in _imported_modules(path):
            if _under(name, "repro"):
                assert any(_under(name, ok) for ok in allowed_repro), (path.name, name)
            else:
                assert name.split(".")[0] in stdlib_and_numpy, (path.name, name)


def test_only_the_serving_entry_points_import_repro_serve():
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative.startswith("serve/") or relative in ("cli.py", "cluster/shards.py"):
            continue
        assert not [n for n in _imported_modules(path) if _under(n, "repro.serve")], relative


def test_guard_resolves_relative_imports():
    path = SRC / "cluster" / "shards.py"
    assert any(_under(n, "repro.serve") for n in _imported_modules(path))
    assert "repro.analysis.lockdep" in _imported_modules(SRC / "metrics" / "registry.py")


def test_no_metrics_hook_attributes_are_assigned():
    """The hook protocol is gone: nothing in ``src/`` stores a callable
    under the three attribute names the old per-task hooks used."""
    hooks = {"on_task", "on_task_cut", "on_metrics"}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    assert not (
                        isinstance(target, ast.Attribute) and target.attr in hooks
                    ), (path.relative_to(SRC).as_posix(), node.lineno, target.attr)
            # A dataclass field of that name is the same thing declared.
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                assert node.target.id not in hooks, path.relative_to(SRC).as_posix()


# -- one kernel path, no dead calibration ---------------------------------------


def test_no_optional_jit_import_and_no_kernel_path_switch():
    """The executable kernels are numpy, unconditionally: nothing imports
    the optional jit, and no ``REPRO_NO_*`` environment switch is named."""
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        assert "numba" not in {n.split(".")[0] for n in _imported_modules(path)}, relative
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert not re.fullmatch(r"REPRO_NO_\w*", node.value), (relative, node.lineno)


def test_every_hardware_spec_field_has_a_reader():
    """A calibration constant nothing reads is not calibration: every
    ``HardwareSpec`` field is loaded as an attribute outside ``specs.py``
    — by a cost model, or by the shape tests that anchor on it
    (``default_cpu_workers`` and ``network_bandwidth`` are read only there)."""
    read = set()
    for path in [*SRC.rglob("*.py"), *pathlib.Path(__file__).parent.glob("test_*.py")]:
        if path != SRC / "hardware" / "specs.py":
            read.update(
                node.attr
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            )
    assert [f.name for f in dataclasses.fields(HardwareSpec) if f.name not in read] == []


# -- composed operators run in one pass: no second path, no knob -------------------


def _names(tree):
    """Every identifier ``tree`` defines, reads, imports or spells as a string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def _fusion_sites(root):
    """{name: sorted modules} for the names of the deleted fusion path."""
    gone = {
        "FusedKernel", "fusion_eligible", "fused_operator",
        "materialized_intermediates", "cpu_materialize",
    }
    stubs = {"fuse_operator", "execution_operator"}
    sites = {}
    for path in sorted(root.rglob("*.py")):
        named = set(_names(ast.parse(path.read_text()))) & (gone | stubs)
        for name in named:
            sites.setdefault(name, []).append(path.relative_to(root).as_posix())
    return sites


def test_composed_operators_have_one_path():
    """``FilteredWindows``/``ProjectedWindows`` are the single-pass
    kernel: the compiled second path, its knob and its cost-model term
    stay gone.  The two benchmark stubs live in their own modules only."""
    sites = _fusion_sites(SRC)
    for name in ("fuse_operator", "execution_operator"):
        assert set(sites.pop(name, [])) <= {"core/fusion.py", "core/query.py"}, name
    assert sites == {}
    assert "fusion" not in {f.name for f in dataclasses.fields(SaberConfig)}


def test_guard_sees_an_execution_operator_read(tmp_path):
    (tmp_path / "engine.py").write_text("operator = query.execution_operator\n")
    (tmp_path / "cpu.py").write_text("cost = spec.cpu_materialize\n")
    assert _fusion_sites(tmp_path) == {
        "execution_operator": ["engine.py"],
        "cpu_materialize": ["cpu.py"],
    }


# -- one aggregation operator ------------------------------------------------------


def _aggregation_sites(root):
    """{name: sorted modules} for the names of the deleted ungrouped path:
    its operator, payload and range aggregators, imports of its modules,
    the scalar ``Accumulator`` with its ``AggregateSpec.finalize``, and
    the per-window grouped payload that boundary runs replaced."""
    gone = {
        "Aggregation", "WindowAccumulator", "PrefixRangeAggregator", "SparseTableRangeAggregator",
        "Accumulator", "GroupedWindowAccumulator",
    }
    sites = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        named = set(_names(tree)) & gone
        named |= {
            node.module.rsplit(".", 1)[-1]
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
        } & {"aggregation", "panes"}
        named |= {
            f"AggregateSpec.{item.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == "AggregateSpec"
            for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name == "finalize"
        }
        for name in named:
            sites.setdefault(name, []).append(path.relative_to(root).as_posix())
    return sites


def test_aggregation_is_one_operator():
    """Ungrouped aggregation is ``GroupedAggregation`` over zero keys: the
    second operator, its dict payload and the range aggregators stay gone,
    and grouped boundary partials leave a task as one run, never as one
    payload object per window."""
    assert _aggregation_sites(SRC) == {}
    assert not (SRC / "operators" / "aggregation.py").exists()
    assert not (SRC / "windows" / "panes.py").exists()


def test_guard_sees_an_aggregation_use(tmp_path):
    (tmp_path / "builder.py").write_text(
        "from .operators.aggregation import X\nop = Aggregation(schema, specs)\n"
    )
    (tmp_path / "window.py").write_text(
        "from ..windows import panes\nt = panes.SparseTableRangeAggregator\n"
    )
    (tmp_path / "functions.py").write_text(
        "class AggregateSpec:\n    def finalize(self, acc: Accumulator): pass\n"
    )
    assert _aggregation_sites(tmp_path) == {
        "aggregation": ["builder.py"],
        "Aggregation": ["builder.py"],
        "SparseTableRangeAggregator": ["window.py"],
        "Accumulator": ["functions.py"],
        "AggregateSpec.finalize": ["functions.py"],
    }


def test_guard_sees_a_per_window_grouped_payload(tmp_path):
    (tmp_path / "groupby.py").write_text(
        "class GroupedWindowAccumulator:\n    pass\n"
    )
    (tmp_path / "stage.py").write_text(
        "from .groupby import GroupedWindowAccumulator as payload\n"
        "empty = groupby.GroupedWindowAccumulator()\n"
    )
    assert _aggregation_sites(tmp_path) == {
        "GroupedWindowAccumulator": ["groupby.py", "stage.py"],
    }


# -- one columnar run, one readiness rule -----------------------------------------


def _payload_protocol_sites(root):
    """{name: sorted modules} for the names of the retired per-window
    payload protocol: its fold and readiness hooks, the per-task closed
    ids, the three payload classes and the dead emission-order helper."""
    gone = {
        "merge_partials", "finalize_window", "window_ready", "merge_runs",
        "requires_merged_ready", "_merged_ready", "closed_ids",
        "DistinctPartial", "UdfPartial", "JoinPartial", "emit_order",
    }
    sites = {}
    for path in sorted(root.rglob("*.py")):
        for name in set(_names(ast.parse(path.read_text()))) & gone:
            sites.setdefault(name, []).append(path.relative_to(root).as_posix())
    return sites


def test_every_windowed_operator_ships_one_columnar_run():
    """DISTINCT, UDF and the join ship arrays like GROUP-BY does, and the
    result stage decides readiness from the runs' done flags alone: no
    payload object, pairwise fold or per-operator readiness hook is left."""
    assert _payload_protocol_sites(SRC) == {}


def test_guard_sees_the_payload_protocol(tmp_path):
    (tmp_path / "join.py").write_text(
        "class JoinPartial:\n    pass\n"
        "class ThetaJoin:\n    requires_merged_ready = True\n"
        "    def merge_partials(self, a, b): pass\n"
    )
    (tmp_path / "stage.py").write_text(
        "ready = result.closed_ids\nop.window_ready(payload)\nhook = 'merge_runs'\n"
    )
    assert _payload_protocol_sites(tmp_path) == {
        "JoinPartial": ["join.py"],
        "requires_merged_ready": ["join.py"],
        "merge_partials": ["join.py"],
        "closed_ids": ["stage.py"],
        "window_ready": ["stage.py"],
        "merge_runs": ["stage.py"],
    }


# -- one key coder -----------------------------------------------------------------


def _key_coder_sites(root):
    """{name: sorted modules} for the deleted sorting coder ``_encode_keys``,
    and ``key_codes?`` for each keyed operator (``operators/groupby.py``,
    ``operators/join.py``) that does not import and call
    ``operators.base.key_codes``."""
    sites = {}
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text())
        named = set(_names(tree)) & {"_encode_keys"}
        if module in ("operators/groupby.py", "operators/join.py"):
            imported = {
                alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.level, node.module) in ((1, "base"), (0, "repro.operators.base"))
                for alias in node.names
                if alias.name == "key_codes"
            }
            called = {
                node.func.id
                for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            }
            if not imported & called:
                named.add("key_codes?")
        for name in named:
            sites.setdefault(name, []).append(module)
    return sites


def test_keyed_operators_share_one_key_coder():
    """GROUP-BY and the equi-join code keys with ``operators.base.key_codes``;
    the per-module sorting coder stays gone."""
    assert _key_coder_sites(SRC) == {}


def test_guard_sees_a_private_key_coder(tmp_path):
    (tmp_path / "operators").mkdir()
    (tmp_path / "operators" / "groupby.py").write_text(
        "def _encode_keys(keys):\n    return np.unique(keys, return_inverse=True)\n"
    )
    (tmp_path / "operators" / "join.py").write_text(
        "from .base import key_codes\ncodes = np.unique(keys, return_inverse=True)\n"
    )
    (tmp_path / "stage.py").write_text("from .operators.groupby import _encode_keys\n")
    assert _key_coder_sites(tmp_path) == {
        "_encode_keys": ["operators/groupby.py", "stage.py"],
        "key_codes?": ["operators/groupby.py", "operators/join.py"],
    }


# -- one result backlog ------------------------------------------------------------


def _backlog_sites(root):
    """{name: sorted modules} for the deleted second and third chunk
    queues and the hand-written windows-mode setup: their names, and any
    ``force_assembly`` assignment outside the query handle."""
    gone = {"_ResultQueue", "_RESULTS_WAIT", "add_window_sink"}
    sites = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        module = path.relative_to(root).as_posix()
        named = set(_names(tree)) & gone
        if module != "api/session.py" and any(
            isinstance(target, ast.Attribute) and target.attr == "force_assembly"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            for target in node.targets
        ):
            named.add("force_assembly=")
        for name in named:
            sites.setdefault(name, []).append(module)
    return sites


def test_output_chunks_wait_in_one_backlog():
    """``ChunkBacklog`` is the one queue downstream of the result stage,
    and windowed delivery is one handle call."""
    assert _backlog_sites(SRC) == {}


def test_guard_sees_a_second_backlog(tmp_path):
    (tmp_path / "tenants.py").write_text(
        "_RESULTS_WAIT = 0.05\nclass _ResultQueue: pass\n"
    )
    (tmp_path / "shards.py").write_text(
        "handle.query.force_assembly = True\nhandle.add_window_sink(sink)\n"
    )
    assert _backlog_sites(tmp_path) == {
        "_RESULTS_WAIT": ["tenants.py"],
        "_ResultQueue": ["tenants.py"],
        "force_assembly=": ["shards.py"],
        "add_window_sink": ["shards.py"],
    }


# -- rows move as bytes: one rule, one owner --------------------------------------


def _opaque_row_spellings(tree):
    """Line numbers where ``tree`` spells an opaque-row dtype (``np.void``,
    ``"V32"``, ``f"V{n}"``, ``"V{}".format``) on its own."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "void":
            lines.append(node.lineno)
        elif isinstance(node, ast.JoinedStr):
            head = node.values[0] if node.values else None
            if isinstance(head, ast.Constant) and head.value == "V" and len(node.values) > 1:
                lines.append(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"\|?V(\d+|\{.*\}|%d)", node.value):
                lines.append(node.lineno)
    return lines


def _fieldwise_batch_copies(tree):
    """Line numbers of ``np.copy(...)`` and ``<x>.data.copy()`` calls."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        target = node.func.value
        if node.func.attr == "copy" and (
            (isinstance(target, ast.Name) and target.id in ("np", "numpy"))
            or (isinstance(target, ast.Attribute) and target.attr == "data")
        ):
            lines.append(node.lineno)
    return lines


def test_schema_alone_spells_the_opaque_row_dtype():
    """Whole rows move through ``Schema.row_dtype``: no other module
    builds its own opaque-row dtype, and outside ``relational/`` nothing
    copies a batch's structured array field by field."""
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text())
        if relative != "relational/schema.py":
            assert _opaque_row_spellings(tree) == [], relative
        if not relative.startswith("relational/"):
            assert _fieldwise_batch_copies(tree) == [], relative


def test_guard_sees_a_private_row_dtype_and_a_fieldwise_copy():
    tree = ast.parse(
        'self._row_bytes = np.dtype(f"V{schema.tuple_size}")\n'
        'other = np.dtype("V32"), np.dtype((np.void, 8))\n'
        "staged = np.copy(batch.data)\n"
        "kept = batch.data.copy()\n"
    )
    assert _opaque_row_spellings(tree) == [1, 2, 2]
    assert _fieldwise_batch_copies(tree) == [3, 4]
    assert _opaque_row_spellings(ast.parse("zero.copy(); x = 'V'; y = f'{v}V'")) == []


# -- the GPGPU slot runs the operator itself ----------------------------------------


def _gpu_shim_sites(root):
    """{name: sorted modules} for the deleted GPGPU kernel dispatch and
    device description: their names, the engine's per-slot dispatch
    attribute, the device's unread members, and imports of the two
    deleted modules (``gpu.kernels``, ``gpu.device``)."""
    gone = {
        "gpu_kernel", "gpu_selection", "_gpu_device", "GpuDeviceSpec", "DEFAULT_GPU",
        "streaming_multiprocessors", "work_group_size", "cores_per_sm",
    }
    sites = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        named = set(_names(tree)) & gone
        named |= {
            f"import {node.module}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module
            and node.module.rsplit(".", 1)[-1] in ("kernels", "device")
        }
        for name in named:
            sites.setdefault(name, []).append(path.relative_to(root).as_posix())
    return sites


def test_the_gpgpu_slot_runs_the_operator_itself():
    """Every slot calls ``operator.process_batch`` — through the
    accelerator's transfer stage on a real substrate — and the device is
    described once, by ``HardwareSpec``: no kernel dispatch or device
    class is left."""
    assert _gpu_shim_sites(SRC) == {}
    assert not (SRC / "gpu" / "kernels.py").exists()
    assert not (SRC / "gpu" / "device.py").exists()


def test_guard_sees_a_gpu_kernel_dispatch(tmp_path):
    (tmp_path / "engine.py").write_text(
        "from ..gpu.kernels import gpu_kernel\n"
        "self._gpu_device = accelerator.execute if accelerator else gpu_kernel\n"
    )
    (tmp_path / "gpu.py").write_text(
        "from ..gpu.device import DEFAULT_GPU\nlanes = spec.cores_per_sm\n"
    )
    assert _gpu_shim_sites(tmp_path) == {
        "import gpu.kernels": ["engine.py"],
        "gpu_kernel": ["engine.py"],
        "_gpu_device": ["engine.py"],
        "import gpu.device": ["gpu.py"],
        "DEFAULT_GPU": ["gpu.py"],
        "cores_per_sm": ["gpu.py"],
    }


# -- grouped assembly adds tables, never re-codes stacked rows ---------------------


def _stacked_assembly_sites(root):
    """{name: sorted modules} for the retired stacked-row assembly: the
    per-row ``GroupBlock``, a ``concat`` on a group table, and — inside
    any ``assemble_windows`` — a ``_Cells`` re-binning or a ``key_codes``
    call on a table's ``.keys`` (every stacked row's key)."""
    sites = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        named = set(_names(tree)) & {"GroupBlock"}
        named |= {
            f"{node.name}.concat"
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name.startswith("Group")
            for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name == "concat"
        }
        for function in ast.walk(tree):
            if not (isinstance(function, ast.FunctionDef) and function.name == "assemble_windows"):
                continue
            for node in ast.walk(function):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                    continue
                if node.func.id == "_Cells":
                    named.add("assemble_windows: _Cells")
                if node.func.id == "key_codes" and any(
                    isinstance(arg, ast.Attribute) and arg.attr == "keys" for arg in node.args
                ):
                    named.add("assemble_windows: key_codes(.keys)")
        for name in named:
            sites.setdefault(name, []).append(path.relative_to(root).as_posix())
    return sites


def test_grouped_assembly_adds_tables_and_codes_only_their_keys():
    """A grouped run ships a ``GroupTable``, and assembly maps the runs'
    few key rows into their union and adds cells into one accumulator:
    no per-row block, table concatenation or re-coding of stacked rows."""
    assert _stacked_assembly_sites(SRC) == {}


def test_guard_sees_a_stacked_row_assembly(tmp_path):
    (tmp_path / "groupby.py").write_text(
        "class GroupBlock:\n"
        "    @classmethod\n    def concat(cls, blocks): pass\n"
        "class GroupTable:\n"
        "    def concat(self, other): pass\n"
        "class GroupedAggregation:\n"
        "    def assemble_windows(self, ready, runs):\n"
        "        stacked = GroupBlock.concat(blocks)\n"
        "        distinct, codes = key_codes(stacked.keys)\n"
        "        cells = _Cells(window, codes, len(ready), len(distinct))\n"
    )
    (tmp_path / "reader.py").write_text(
        "def assemble_windows(ready, runs):\n"
        "    return key_codes(np.concatenate(key_sets))\n"
    )
    assert _stacked_assembly_sites(tmp_path) == {
        "GroupBlock": ["groupby.py"],
        "GroupBlock.concat": ["groupby.py"],
        "GroupTable.concat": ["groupby.py"],
        "assemble_windows: _Cells": ["groupby.py"],
        "assemble_windows: key_codes(.keys)": ["groupby.py"],
    }
