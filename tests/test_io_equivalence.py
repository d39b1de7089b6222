"""Acceptance gate for the connector SPI redesign.

* A Table-1 workload (CM1) replayed from a JSONL file through the
  connector path produces **byte-identical** results to the in-memory
  generator path, on both execution backends.
* A finite source completes its ``QueryHandle`` (no hang) on both
  backends, including the end-of-stream window flush.
* The direct ``next_tuples`` wiring keeps working for bare legacy
  objects (the dispatcher duck-types).
"""

import multiprocessing
import threading
import time

import pytest

from repro.api import SaberSession
from repro.core.engine import SaberConfig
from repro.io import FileReplaySource, FileSink, MemorySink, MemorySource
from repro.io import write_batch
from repro.workloads.cluster_monitoring import (
    TASK_EVENTS_SCHEMA,
    ClusterMonitoringSource,
    cm1_query,
)

SEED = 7
RATE = 64           # tuples per logical second: windows close in-run
TASK_BYTES = 48 << 10
TUPLES_PER_TASK = TASK_BYTES // TASK_EVENTS_SCHEMA.tuple_size
TASKS = 8
TOTAL_TUPLES = TASKS * TUPLES_PER_TASK

BACKENDS = (
    "sim",
    "threads",
    pytest.param(
        "processes",
        marks=pytest.mark.skipif(
            "fork" not in multiprocessing.get_all_start_methods(),
            reason="processes backend needs POSIX fork",
        ),
    ),
)


def config(execution):
    return SaberConfig(
        execution=execution,
        task_size_bytes=TASK_BYTES,
        cpu_workers=4,
        queue_capacity=8,
        collect_output=True,
    )


def generator():
    return ClusterMonitoringSource(seed=SEED, tuples_per_second=RATE)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """The generator's first TOTAL_TUPLES tuples, plus their JSONL file.

    Recorded in task-sized pulls: the generator draws randomness per
    ``next_tuples`` call, so byte-identical replay requires recording at
    the same pull granularity the dispatcher uses.
    """
    source = generator()
    from repro.relational.tuples import TupleBatch

    batch = TupleBatch.concat(
        [source.next_tuples(TUPLES_PER_TASK) for __ in range(TASKS)]
    )
    path = tmp_path_factory.mktemp("replay") / "cm.jsonl"
    write_batch(path, batch)
    return batch, path


def run_query(source, execution, tasks=TASKS, drain=False):
    with SaberSession(config(execution)) as session:
        handle = session.submit(cm1_query(), sources=[source])
        session.run(tasks_per_query=tasks)
        if drain:
            session.stop(drain=True)
        return handle.output(), handle


def assert_identical(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert a.data.tobytes() == b.data.tobytes()


class TestReplayEquivalence:
    @pytest.mark.parametrize("execution", BACKENDS)
    def test_jsonl_replay_matches_generator_path(self, recorded, execution):
        __, path = recorded
        from_generator, __ = run_query(generator(), execution)
        from_file, __ = run_query(
            FileReplaySource(path, TASK_EVENTS_SCHEMA), execution
        )
        assert from_generator is not None and len(from_generator) > 0
        assert_identical(from_generator, from_file)

    @pytest.mark.parametrize("execution", BACKENDS)
    def test_memory_connector_matches_generator_path(self, recorded, execution):
        batch, __ = recorded
        from_generator, __ = run_query(generator(), execution)
        from_memory, __ = run_query(
            MemorySource(TASK_EVENTS_SCHEMA, batch), execution
        )
        assert_identical(from_generator, from_memory)

    @pytest.mark.parametrize("execution", BACKENDS)
    def test_eos_flush_matches_explicit_drain(self, recorded, execution):
        """A finite source's automatic end-of-stream flush emits exactly
        what an explicit drain of the unbounded path emits."""
        __, path = recorded
        drained, __ = run_query(generator(), execution, drain=True)
        finite, handle = run_query(
            FileReplaySource(path, TASK_EVENTS_SCHEMA),
            execution,
            tasks=TASKS * 4,  # budget beyond EOS: must not hang
        )
        assert handle.done
        assert_identical(drained, finite)


class TestFiniteStreamsComplete:
    @pytest.mark.parametrize("execution", BACKENDS)
    def test_finite_generator_completes_handle(self, execution):
        source = ClusterMonitoringSource(
            seed=SEED, tuples_per_second=RATE, limit=3 * TUPLES_PER_TASK
        )
        with SaberSession(config(execution)) as session:
            handle = session.submit(cm1_query(), sources=[source])
            session.run(tasks_per_query=1 << 20)  # far beyond the data
            assert handle.done
            assert handle.tasks_completed == 3
            assert handle.output_rows > 0

    @pytest.mark.parametrize("execution", BACKENDS)
    def test_short_final_task_carries_the_remainder(self, execution):
        limit = 2 * TUPLES_PER_TASK + 100  # EOS mid-task
        source = ClusterMonitoringSource(
            seed=SEED, tuples_per_second=RATE, limit=limit
        )
        with SaberSession(config(execution)) as session:
            handle = session.submit(cm1_query(), sources=[source])
            session.run(tasks_per_query=1 << 20)
            assert handle.done
            assert handle.tasks_completed == 3  # 2 full + 1 short

    def test_finite_background_run_completes(self):
        """start() with no budget ends by itself at end-of-stream."""
        source = ClusterMonitoringSource(
            seed=SEED, tuples_per_second=RATE, limit=2 * TUPLES_PER_TASK
        )
        with SaberSession(config("threads")) as session:
            handle = session.submit(cm1_query(), sources=[source])
            session.start()
            deadline = time.monotonic() + 30
            while session.is_running and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not session.is_running, "finite stream did not end the run"
            session.stop()
            assert handle.done

    def test_results_iterator_terminates_on_finite_stream(self):
        source = ClusterMonitoringSource(
            seed=SEED, tuples_per_second=RATE, limit=2 * TUPLES_PER_TASK
        )
        with SaberSession(config("threads")) as session:
            handle = session.submit(cm1_query(), sources=[source])
            session.run(tasks_per_query=1 << 20)
            chunks = list(handle.results())
            assert sum(len(c) for c in chunks) == handle.output_rows

    def test_done_is_false_for_unbounded_streams(self):
        with SaberSession(config("sim")) as session:
            handle = session.submit(cm1_query(), sources=[generator()])
            session.run(tasks_per_query=2)
            assert not handle.done

    @pytest.mark.parametrize("execution", BACKENDS)
    def test_uneven_join_inputs_complete(self, execution):
        """One side of a join ending first still finishes the query:
        the final short task carries the shorter side's remainder."""
        from repro.io import MemorySource
        from repro.workloads.synthetic import (
            SYNTHETIC_SCHEMA,
            TUPLE_SIZE,
            SyntheticSource,
            join_query,
        )

        per_input = (8192 // TUPLE_SIZE) // 2
        left_gen = SyntheticSource(seed=1, groups=8)
        right_gen = SyntheticSource(seed=2, groups=8)
        left = MemorySource(SYNTHETIC_SCHEMA, left_gen.next_tuples(per_input * 3))
        right = MemorySource(
            SYNTHETIC_SCHEMA, right_gen.next_tuples(per_input * 2 + 40)
        )
        cfg = SaberConfig(
            execution=execution,
            task_size_bytes=8192,
            cpu_workers=2,
            queue_capacity=4,
            collect_output=True,
        )
        with SaberSession(cfg) as session:
            handle = session.submit(join_query(1), sources=[left, right])
            session.run(tasks_per_query=1 << 20)
            assert handle.done
            assert handle.tasks_completed == 3

    def test_stop_during_blocked_push_pull_is_lossless(self):
        """A stop that interrupts a blocking ingress pull loses nothing:
        the pulled-but-unconsumed data stays staged and the next run
        resumes the stream exactly where it left off."""
        from repro.io import PushSource

        push = PushSource(TASK_EVENTS_SCHEMA, capacity_tuples=1 << 16)
        batch = generator().next_tuples(2 * TUPLES_PER_TASK)
        with SaberSession(config("threads")) as session:
            session.register_stream("TaskEvents", push)
            handle = session.submit(cm1_query())
            # Half a task: the dispatcher will block waiting for more.
            session.push("TaskEvents", batch.slice(0, TUPLES_PER_TASK // 2))
            session.start()
            time.sleep(0.2)     # let the dispatcher block on the pull
            session.stop()      # interrupts the pull; data stays staged
            assert handle.tasks_completed == 0
            session.push("TaskEvents", batch.slice(TUPLES_PER_TASK // 2, len(batch)))
            session.close_stream("TaskEvents")
            session.run(tasks_per_query=1 << 20)
            assert handle.done
            assert handle.tasks_completed == 2
            resumed_output = handle.output()
        expected, __ = run_query(
            MemorySource(TASK_EVENTS_SCHEMA, batch), "threads", tasks=4
        )
        assert_identical(expected, resumed_output)


class TestPushIngestion:
    def test_push_stream_through_session_threads(self, recorded):
        batch, __ = recorded
        from repro.io import PushSource

        push = PushSource(TASK_EVENTS_SCHEMA, capacity_tuples=4 * TUPLES_PER_TASK)
        with SaberSession(config("threads")) as session:
            session.register_stream("TaskEvents", push)
            handle = session.submit(cm1_query())
            session.start()

            def produce():
                step = 1000
                for i in range(0, len(batch), step):
                    session.push("TaskEvents", batch.slice(i, i + step))
                session.close_stream("TaskEvents")

            producer = threading.Thread(target=produce)
            producer.start()
            producer.join(timeout=30)
            deadline = time.monotonic() + 30
            while session.is_running and time.monotonic() < deadline:
                time.sleep(0.02)
            session.stop()
            assert handle.done
            pushed_output = handle.output()
        generated, __ = run_query(generator(), "threads", tasks=TASKS, drain=True)
        assert_identical(generated, pushed_output)

    def test_push_handle_rows_roundtrip(self):
        from repro.io import PushSource
        from repro.io.records import batch_to_rows

        push = PushSource(TASK_EVENTS_SCHEMA, capacity_tuples=1 << 16)
        rows = batch_to_rows(generator().next_tuples(TUPLES_PER_TASK))
        with SaberSession(config("sim")) as session:
            session.register_stream("TaskEvents", push)
            handle = session.submit(cm1_query())
            with session.push_handle("TaskEvents") as producer:
                producer.push(rows)
            session.run(tasks_per_query=4)
            assert handle.done
            assert handle.tasks_completed == 1


class TestLegacyWiring:
    class BareLegacySource:
        """The pre-SPI protocol: schema + next_tuples, nothing else."""

        def __init__(self):
            self._inner = generator()
            self.schema = self._inner.schema

        def next_tuples(self, count):
            return self._inner.next_tuples(count)

    @pytest.mark.parametrize("execution", BACKENDS)
    def test_bare_next_tuples_object_still_works(self, execution):
        from_generator, __ = run_query(generator(), execution)
        from_legacy, handle = run_query(self.BareLegacySource(), execution)
        assert_identical(from_generator, from_legacy)
        assert not handle.done  # unbounded: never completes


class TestSinkConnectors:
    def test_file_sink_receives_full_output(self, recorded, tmp_path):
        batch, __ = recorded
        out_path = tmp_path / "out.jsonl"
        with SaberSession(config("sim")) as session:
            handle = session.submit(
                cm1_query(),
                sources=[MemorySource(TASK_EVENTS_SCHEMA, batch)],
                sink=FileSink(out_path),
            )
            session.run(tasks_per_query=1 << 20)
            rows = handle.output_rows
        from repro.errors import EndOfStream

        replayed = FileReplaySource(out_path, cm1_query().output_schema)
        total = 0
        while True:
            try:
                total += len(replayed.next_tuples(1024))
            except EndOfStream as eos:
                if eos.remainder is not None:
                    total += len(eos.remainder)
                break
        assert rows > 0 and total == rows

    def test_memory_sink_equals_engine_output(self, recorded):
        batch, __ = recorded
        sink = MemorySink()
        with SaberSession(config("sim")) as session:
            handle = session.submit(
                cm1_query(),
                sources=[MemorySource(TASK_EVENTS_SCHEMA, batch)],
                sink=sink,
            )
            session.run(tasks_per_query=1 << 20)
            expected = handle.output()
        assert sink.schema is not None
        assert_identical(expected, sink.output())
        assert sink.closed  # session close closes connector sinks
