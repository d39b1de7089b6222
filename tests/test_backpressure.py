"""Backpressure policies and eager source validation.

The buffer-overflow ``ExecutionError``/``BufferError_`` of the pre-SPI
data plane is replaced by a configurable policy: ``block`` (lossless,
default), ``error`` (typed :class:`~repro.errors.BackpressureError`),
``drop_oldest`` (ingress load shedding).  Sources are validated at
``register_stream``/``submit`` time with a ``ValidationError`` naming
the stream.
"""

import pytest

from repro.api import SaberSession
from repro.core.engine import SaberConfig, SaberEngine
from repro.errors import (
    BackpressureError,
    SimulationError,
    ValidationError,
)
from repro.relational.schema import Schema
from repro.workloads.cluster_monitoring import ClusterMonitoringSource, cm1_query
from repro.workloads.synthetic import SyntheticSource, select_query

TASK_BYTES = 16 << 10


def config(execution, backpressure, buffer_tasks, **kw):
    return SaberConfig(
        execution=execution,
        task_size_bytes=TASK_BYTES,
        cpu_workers=2,
        queue_capacity=4,
        backpressure=backpressure,
        buffer_capacity_tasks=buffer_tasks,
        **kw,
    )


class TestEnginePolicies:
    @pytest.mark.parametrize("execution", ["sim", "threads"])
    def test_block_policy_completes_with_tiny_buffers(self, execution):
        """Buffers one task deep force dispatch to wait on every release;
        the run must still finish losslessly."""
        with SaberSession(config(execution, "block", buffer_tasks=1)) as session:
            handle = session.submit(
                select_query(2, pass_rate=1.0), sources=[SyntheticSource(seed=3)]
            )
            session.run(tasks_per_query=6)
            assert handle.tasks_completed == 6
            assert session.engine.runs[0].dispatcher.shed_tuples == 0

    def test_error_policy_raises_typed_backpressure_sim(self):
        with SaberSession(config("sim", "error", buffer_tasks=1)) as session:
            session.submit(
                select_query(2, pass_rate=1.0), sources=[SyntheticSource(seed=3)]
            )
            with pytest.raises(BackpressureError):
                session.run(tasks_per_query=6)

    def test_error_policy_raises_typed_backpressure_threads(self):
        with SaberSession(config("threads", "error", buffer_tasks=1)) as session:
            session.submit(
                select_query(2, pass_rate=1.0), sources=[SyntheticSource(seed=3)]
            )
            with pytest.raises(BackpressureError):
                # Tiny buffers + repeated attempts: the dispatcher will
                # observe a full buffer before a worker releases it.
                for __ in range(20):
                    session.run(tasks_per_query=6)

    @pytest.mark.parametrize("execution", ["sim", "threads"])
    def test_drop_oldest_policy_sheds_and_completes(self, execution):
        with SaberSession(
            config(execution, "drop_oldest", buffer_tasks=1)
        ) as session:
            handle = session.submit(
                select_query(2, pass_rate=1.0), sources=[SyntheticSource(seed=3)]
            )
            session.run(tasks_per_query=4)
            run = session.engine.runs[0]
            assert handle.tasks_completed == 4
            # Shedding is load-dependent; what must hold is bookkeeping
            # consistency: shed tuples never appear in any task.
            assert run.dispatcher.shed_tuples >= 0

    def test_unknown_policy_rejected_at_config_time(self):
        with pytest.raises(SimulationError, match="backpressure"):
            SaberConfig(backpressure="yolo")

    def test_buffer_capacity_must_be_positive(self):
        with pytest.raises(SimulationError, match="buffer_capacity_tasks"):
            SaberConfig(buffer_capacity_tasks=0)


class TestSourceValidation:
    def test_register_stream_rejects_schemaless_source(self):
        with SaberSession() as session:
            with pytest.raises(ValidationError, match="'Orders'"):
                session.register_stream("Orders", object())

    def test_register_stream_rejects_missing_next_tuples(self):
        class SchemaOnly:
            schema = Schema.parse("timestamp:long, v:int")

        with SaberSession() as session:
            with pytest.raises(ValidationError, match="next_tuples"):
                session.register_stream("Orders", SchemaOnly())

    def test_register_stream_rejects_non_schema_schema(self):
        class WrongSchema:
            schema = {"timestamp": "long"}

            def next_tuples(self, count):  # pragma: no cover - never pulled
                raise NotImplementedError

        with SaberSession() as session:
            with pytest.raises(ValidationError, match="not a repro Schema"):
                session.register_stream("Orders", WrongSchema())

    def test_validation_error_is_a_session_error(self):
        """Callers catching the pre-SPI SessionError keep working."""
        from repro.errors import SessionError

        assert issubclass(ValidationError, SessionError)

    def test_submit_validates_explicit_sources_by_stream_name(self):
        with SaberSession() as session:
            with pytest.raises(ValidationError, match="TaskEvents"):
                session.submit(cm1_query(), sources=[object()])

    def test_valid_source_registers_fine(self):
        with SaberSession() as session:
            session.register_stream("TaskEvents", ClusterMonitoringSource())


class TestBufferOverflowTyping:
    def test_raw_engine_overflow_is_backpressure_error(self):
        """Bypassing the policy check (direct engine misuse) still
        surfaces the typed error, which remains a BufferError_."""
        from repro.errors import BufferError_

        assert issubclass(BackpressureError, BufferError_)
        engine = SaberEngine(
            SaberConfig(
                task_size_bytes=TASK_BYTES,
                cpu_workers=2,
                queue_capacity=4,
                buffer_capacity_tasks=2,
            )
        )
        engine.add_query(select_query(1), [SyntheticSource(seed=1)])
        dispatcher = engine.runs[0].dispatcher
        dispatcher.create_task(0.0)
        dispatcher.create_task(0.0)
        with pytest.raises(BackpressureError):
            dispatcher.create_task(0.0)
