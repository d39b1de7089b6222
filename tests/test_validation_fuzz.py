"""Every entry point fails typed: a boundary-value fuzzer.

Hypothesis draws the boundary values below into every field of the four
configs, the arguments of ``WindowDefinition`` and the sources, and every
numeric and choice flag of the ``run``, ``replay``, ``record``,
``cluster`` and ``serve`` subcommands.  Each draw must do one of two
things:

* raise a :class:`~repro.errors.SaberError` subclass at construction —
  on the CLI, ``error: …`` on stderr and exit 2, before anything binds,
  forks or spawns;
* construct, then finish a tiny ``threads`` run within a deadline.  For
  ``serve`` and ``cluster`` constructing the config is enough: their
  start is replaced by a stub.

The found-bug tests at the end pin the cases the fuzzer was built to
catch; each failed before the rule table existed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import threading

import pytest
from hypothesis import example, given, strategies as st

from repro.api import SaberSession
from repro.cli import _build_parser, main
from repro.cluster import ClusterConfig
from repro.cluster.session import ClusterSession
from repro.core.engine import SaberConfig, SaberEngine
from repro.errors import (
    RULE,
    BufferError_,
    SaberError,
    SessionError,
    SimulationError,
    ValidationError,
    WindowError,
    boolean,
    choice,
    non_negative_finite,
    non_negative_int,
    optional,
    port,
    positive_finite,
    positive_int,
    tuple_rate,
    wait_seconds,
)
from repro.io import FileReplaySource, PushSource, write_batch
from repro.serve import SaberServer, ServeConfig, TenantQuotas
from repro.windows.definition import WindowDefinition, WindowMode
from repro.workloads.cluster_monitoring import ClusterMonitoringSource
from repro.workloads.linearroad import LinearRoadSource
from repro.workloads.smartgrid import SmartGridSource
from repro.workloads.synthetic import SYNTHETIC_SCHEMA, SyntheticSource, agg_query, select_query

NAN, INF = float("nan"), float("inf")
#: the values every target is fuzzed with.
BOUNDARY = [0, -1, NAN, INF, -INF, 2**63, 2.5, True, "x", None]
values = st.sampled_from(BOUNDARY)

#: each config and the error class its bad values raise.
CONFIGS = {
    SaberConfig: SimulationError,
    ClusterConfig: ValidationError,
    TenantQuotas: ValidationError,
    ServeConfig: ValidationError,
}

#: a run small enough to finish in well under a second.
TINY = dict(
    execution="threads", cpu_workers=2, task_size_bytes=4096,
    queue_capacity=4, buffer_capacity_tasks=8,
)
DEADLINE = 30.0
#: how long a tiny run may take before it is stopped instead.
RUN_SECONDS = 5.0


def _within_deadline(body):
    """Run ``body`` on a daemon thread; fail if it outlives the deadline."""
    outcome = {}

    def target():
        try:
            outcome["value"] = body()
        except BaseException as exc:  # re-raised on the test thread
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(DEADLINE)
    assert not thread.is_alive(), f"did not finish within {DEADLINE} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("value")


def _finish_or_stop(session, handle, tasks=4):
    """Run ``tasks`` tasks per query.  A run its own settings make slow (an
    ingest cap of a few bytes a second) is stopped instead: it must have
    made progress and must answer the stop."""
    session.start(tasks_per_query=tasks)
    if session.wait(timeout=RUN_SECONDS) is None:
        session.stop()
        assert handle.tasks_completed > 0, "stopped without progress"


def _tiny_run(config=None, query=None):
    def body():
        with SaberSession(config or SaberConfig(**TINY)) as session:
            handle = session.submit(query or select_query(1), sources=[SyntheticSource(seed=1)])
            _finish_or_stop(session, handle)

    _within_deadline(body)


# -- the rules ------------------------------------------------------------------------

RULES = [
    (positive_int, []),
    (non_negative_int, [0]),
    (port, [0]),
    (positive_finite, [2**63, 2.5]),
    (non_negative_finite, [0, 2**63, 2.5]),
    (wait_seconds, [2.5]),
    (tuple_rate, [2.5]),
    (boolean, [True]),
    (optional(positive_int), [None]),
    (choice(("x", "y")), ["x"]),
]


@pytest.mark.parametrize("rule,accepted", RULES)
def test_each_rule_accepts_exactly_its_boundary_values(rule, accepted):
    for value in BOUNDARY:
        if any(value is ok or value == ok and type(value) is type(ok) for ok in accepted):
            assert rule(value, "f", WindowError) is value
        else:
            with pytest.raises(WindowError, match=r"^f must be "):
                rule(value, "f", WindowError)


@pytest.mark.parametrize("cls", list(CONFIGS))
def test_every_config_field_declares_a_rule(cls):
    """A new field cannot skip validation."""
    assert [f.name for f in dataclasses.fields(cls) if RULE not in f.metadata] == []


# -- configs -----------------------------------------------------------------------------


def _field_draws(cls):
    names = [f.name for f in dataclasses.fields(cls)]
    return st.dictionaries(st.sampled_from(names), values, min_size=1, max_size=2)


@pytest.mark.parametrize("cls", list(CONFIGS))
@given(data=st.data())
def test_config_fields_fail_typed_or_run(cls, data):
    fields = data.draw(_field_draws(cls))
    base = TINY if cls is SaberConfig else {}
    try:
        config = cls(**{**base, **fields})
    except SaberError as exc:
        assert isinstance(exc, CONFIGS[cls]), exc
        assert str(exc).startswith(tuple(f"{cls.__name__}.{name} " for name in fields)), exc
        return
    if cls is SaberConfig:
        _tiny_run(config)


# -- constructors ------------------------------------------------------------------------

WINDOWS = {
    "rows(size)": lambda v: WindowDefinition.rows(v),
    "rows(4, slide)": lambda v: WindowDefinition.rows(4, v),
    "time(size)": lambda v: WindowDefinition.time(v),
    "time(4, slide)": lambda v: WindowDefinition.time(4, v),
    "mode": lambda v: WindowDefinition(v, 4, 4),
}


@given(target=st.sampled_from(sorted(WINDOWS)), value=values)
def test_window_arguments_fail_typed_or_run(target, value):
    try:
        window = WINDOWS[target](value)
    except WindowError:
        return
    _tiny_run(query=agg_query("sum", window=window))


GENERATORS = [SyntheticSource, ClusterMonitoringSource, SmartGridSource, LinearRoadSource]


@given(
    source=st.sampled_from(GENERATORS),
    argument=st.sampled_from(["seed", "tuples_per_second", "limit"]),
    value=values,
)
def test_source_arguments_fail_typed_or_run(source, argument, value):
    try:
        generator = source(**{argument: value})
    except ValidationError:
        return

    def body():
        with SaberSession(**TINY) as session:
            stream = generator.schema.name
            session.register_stream(stream, generator)
            handle = session.sql(f"select timestamp from {stream} [rows 64]", name="q")
            _finish_or_stop(session, handle)

    _within_deadline(body)


@given(argument=st.sampled_from(["capacity_tuples", "policy"]), value=values)
def test_push_source_arguments_fail_typed_or_run(argument, value):
    try:
        source = PushSource(SYNTHETIC_SCHEMA, **{argument: value})
    except ValidationError:
        return

    def body():
        with SaberSession(**TINY) as session:
            handle = session.submit(select_query(1), sources=[source])
            source.push(SyntheticSource(seed=1).next_tuples(min(source.capacity_tuples, 512)))
            source.close()
            _finish_or_stop(session, handle, 1 << 20)

    _within_deadline(body)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A scratch directory holding a two-tuple recording of ``cluster``."""
    root = tmp_path_factory.mktemp("fuzz")
    write_batch(root / "trace.jsonl", ClusterMonitoringSource(seed=1).next_tuples(2))
    return root


@given(argument=st.sampled_from(["format", "rate"]), value=values)
def test_file_replay_arguments_fail_typed_or_run(workdir, argument, value):
    schema = ClusterMonitoringSource(seed=1).schema
    try:
        source = FileReplaySource(workdir / "trace.jsonl", schema, **{argument: value})
    except ValidationError:
        return

    def body():
        with SaberSession(**TINY) as session:
            session.register_stream(schema.name, source)
            handle = session.sql(f"select timestamp from {schema.name} [rows 64]", name="q")
            _finish_or_stop(session, handle, 1 << 20)

    _within_deadline(body)


# -- the CLI ---------------------------------------------------------------------------

#: per subcommand, an argv that finishes a tiny run (or reaches the stub).
CLI_BASE = {
    "run": ["run", "CM1", "--tasks", "2", "--task-size", "16384", "--workers", "2",
            "--execution", "threads", "--show-rows", "0"],
    "replay": ["replay", "{dir}/trace.jsonl", "CM1", "--task-size", "16384",
               "--workers", "2", "--show-rows", "0"],
    "record": ["record", "cluster", "{dir}/out.jsonl", "--tuples", "16"],
    "cluster": ["cluster", "--tuples", "4096"],
    "serve": ["serve", "--port", "0"],
}


def _numeric_and_choice_flags(command):
    """The parser's own list, so a new flag is fuzzed without edits."""
    parser = _build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        action.option_strings[-1]
        for action in subparsers.choices[command]._actions
        if action.option_strings and (action.type in (int, float) or action.choices)
    ]


CLI_FLAGS = [(command, flag) for command in CLI_BASE for flag in _numeric_and_choice_flags(command)]


class _Started(Exception):
    """The stubbed ``serve``/``cluster`` start: the config constructed."""


def _started(*args, **kwargs):
    raise _Started


def _main(argv):
    """(exit code or "started", stderr) of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SaberServer, "start", _started)
            patch.setattr(ClusterSession, "start", _started)
            try:
                code = _within_deadline(lambda: main(argv))
            except _Started:
                code = "started"
            except SystemExit as exc:  # argparse: usage + error, exit 2
                code = exc.code
    return code, err.getvalue()


def test_every_subcommand_has_numeric_or_choice_flags():
    assert {command for command, __ in CLI_FLAGS} == set(CLI_BASE)


@given(target=st.sampled_from(CLI_FLAGS), value=values, rejected=st.just(False))
# The former tests/test_cli.py::*::test_invalid_arguments_exit_2 cases.
@example(target=("run", "--task-size"), value="0", rejected=True)
@example(target=("run", "--tasks"), value="0", rejected=True)
@example(target=("run", "--workers"), value="0", rejected=True)
@example(target=("run", "--cql"), value="select timestamp from", rejected=True)
@example(target=("replay", "--task-size"), value="0", rejected=True)
@example(target=("replay", "--workers"), value="0", rejected=True)
@example(target=("replay", "--cql"), value="select timestamp from", rejected=True)
@example(target=("cluster", "--kill-shard"), value="-1", rejected=True)
@example(target=("cluster", "--kill-shard 2 --shards"), value="2", rejected=True)
@example(target=("cluster", "--shards"), value="0", rejected=True)
@example(target=("cluster", "--workers"), value="0", rejected=True)
def test_cli_flags_fail_typed_or_run(workdir, target, value, rejected):
    command, flag = target
    argv = [a.format(dir=workdir) for a in CLI_BASE[command]] + flag.split() + [str(value)]
    code, err = _main(argv)
    if code == 2:
        assert "error: " in err, err
    else:
        assert not rejected, f"{argv} was accepted"
        assert code in (0, "started"), (argv, code, err)


# -- found bugs ------------------------------------------------------------------------


class TestFoundBugs:
    """Each of these failed before the rule table."""

    def test_nan_queue_capacity_is_refused_instead_of_hanging_threads(self):
        with pytest.raises(SimulationError, match="queue_capacity"):
            SaberConfig(execution="threads", queue_capacity=NAN)

    def test_nan_buffer_capacity_is_typed(self):
        with pytest.raises(SimulationError, match="buffer_capacity_tasks"):
            SaberConfig(buffer_capacity_tasks=NAN)

    def test_nan_push_capacity_is_typed(self):
        with pytest.raises(ValidationError, match="capacity_tuples"):
            PushSource(SYNTHETIC_SCHEMA, capacity_tuples=NAN)

    @pytest.mark.parametrize("tasks", [NAN, 2.5])
    def test_session_run_refuses_non_integer_task_counts(self, tasks):
        with SaberSession(**TINY) as session:
            session.submit(select_query(1), sources=[SyntheticSource(seed=1)])
            with pytest.raises(SessionError, match="tasks_per_query"):
                session.run(tasks_per_query=tasks)
            with pytest.raises(SessionError, match="tasks_per_query"):
                session.start(tasks_per_query=tasks)

    def test_engine_run_refuses_non_integer_task_counts(self):
        engine = SaberEngine(SaberConfig(**TINY))
        engine.add_query(select_query(1), [SyntheticSource(seed=1)])
        try:
            with pytest.raises(SimulationError, match="tasks_per_query"):
                engine.run(tasks_per_query=2.5)
        finally:
            engine.shutdown()

    def test_stop_interrupts_a_slow_ingest_cap(self):
        # The dispatcher slept out the whole pacing delay (1 600 s here)
        # before it looked at the stop request.
        config = SaberConfig(**{**TINY, "ingest_bandwidth": 2.5})

        def body():
            with SaberSession(config) as session:
                session.submit(select_query(1), sources=[SyntheticSource(seed=1)])
                session.start(tasks_per_query=4)
                assert session.wait(timeout=0.5) is None
                session.stop()

        _within_deadline(body)

    def test_bool_worker_count_is_refused(self):
        with pytest.raises(SimulationError, match="cpu_workers"):
            SaberConfig(cpu_workers=True)

    def test_switch_threshold_zero_is_refused_by_the_config(self):
        # The HLS scheduler always refused it; the config used to pass it on.
        with pytest.raises(SimulationError, match="switch_threshold"):
            SaberConfig(switch_threshold=0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ClusterConfig(liveness_interval=NAN),
            lambda: SyntheticSource(tuples_per_second=NAN),
            lambda: SyntheticSource(tuples_per_second=2**63),
            lambda: SyntheticSource(seed=-1),
            lambda: ServeConfig(max_sessions=0),
            lambda: ServeConfig(port=-5),
            lambda: ServeConfig(execution="bogus"),
            lambda: ServeConfig(drain_timeout=1e12),
        ],
        ids=[
            "liveness-nan", "rate-nan", "rate-2**63", "seed-negative",
            "max-sessions-0", "port-negative", "execution-bogus", "drain-beyond-timeout-max",
        ],
    )
    def test_values_once_accepted_are_refused(self, make):
        with pytest.raises(ValidationError):
            make()

    def test_nan_replay_rate_is_refused(self, workdir):
        schema = ClusterMonitoringSource(seed=1).schema
        with pytest.raises(ValidationError, match="rate"):
            FileReplaySource(workdir / "trace.jsonl", schema, rate=NAN)

    @pytest.mark.parametrize("size", [NAN, 2.5])
    def test_non_integer_window_is_refused(self, size):
        with pytest.raises(WindowError, match="size"):
            WindowDefinition.rows(size)

    def test_window_mode_is_checked(self):
        with pytest.raises(WindowError, match="mode"):
            WindowDefinition("rows", 4, 4)
        assert WindowDefinition(WindowMode.ROW, 4, 4).is_count_based

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--workers", "0"],
            ["serve", "--port", "70000"],
            ["serve", "--stats", "0"],
            ["serve", "--tenant-idle-timeout", "0"],
        ],
    )
    def test_serve_refuses_before_binding(self, argv):
        # --stats 0 and --tenant-idle-timeout 0 used to switch the
        # feature off silently; None is the documented "off".
        code, err = _main(argv)
        assert code == 2 and err.startswith("error: "), (code, err)

    def test_huge_task_size_fails_typed_at_add_query(self):
        engine = SaberEngine(SaberConfig(execution="threads", task_size_bytes=2**40))
        try:
            with pytest.raises(BufferError_, match="cannot allocate"):
                engine.add_query(select_query(1), [SyntheticSource(seed=1)])
        finally:
            engine.shutdown()

    def test_task_size_beyond_an_addressable_ring_is_refused(self):
        with pytest.raises(SimulationError, match="task_size_bytes"):
            SaberConfig(task_size_bytes=2**62)

    def test_more_workers_than_result_slots_is_refused(self):
        with pytest.raises(SimulationError, match="cpu_workers"):
            SaberConfig(cpu_workers=10**6)

    def test_register_frame_capacity_is_typed(self):
        from repro.metrics import MetricsRegistry
        from repro.serve.protocol import ProtocolError
        from repro.serve.tenants import Tenant

        tenant = Tenant("t", TenantQuotas(), MetricsRegistry())
        try:
            for capacity in (0, "x", NAN):
                with pytest.raises(ProtocolError, match="capacity"):
                    tenant.register("s", "timestamp:long, v:int", capacity=capacity)
        finally:
            tenant.shutdown(drain=False)
