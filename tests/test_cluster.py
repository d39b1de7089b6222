"""Key-partitioned cluster tests (`repro.cluster`).

The anchor invariant throughout: the merged cluster output is
*byte-identical* to a single-engine run over the same materialised
dataset — across shard counts, shard backends, the serve transport,
pre-ingest rebalances, and a mid-stream shard kill with resubmit.
"""

import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.cluster import (
    CLUSTER_WORKLOADS,
    ClusterConfig,
    ClusterSession,
    HashPartitioner,
    MergeStage,
    materialise,
    reference_output,
    run_cluster,
)
from repro.cluster.shards import ProcessShard
from repro.errors import (
    ExecutionError,
    SaberError,
    SessionError,
    ValidationError,
)
from repro.io import MemorySource, PushSource
from repro.relational.schema import Schema
from repro.relational.tuples import TupleBatch
from repro.workloads.synthetic import SyntheticSource

GROUP_BY = CLUSTER_WORKLOADS["GROUP-BY"]
CM1 = CLUSTER_WORKLOADS["CM1"]

#: small enough for tier-1, large enough for several windows per shard.
GROUP_BY_TUPLES = 1 << 15  # 32 seconds of stream -> 8 tumbling windows
CM1_TUPLES = 1 << 13


def assert_byte_identical(merged, reference):
    """The cluster contract: merged bytes == single-engine bytes."""
    assert reference is not None, "reference run produced no output"
    assert merged is not None, "cluster run produced no output"
    assert merged.data.dtype == reference.data.dtype
    assert merged.data.tobytes() == reference.data.tobytes()


@pytest.fixture(scope="module")
def groupby_data():
    return materialise(GROUP_BY, GROUP_BY_TUPLES)


@pytest.fixture(scope="module")
def groupby_reference(groupby_data):
    return reference_output(GROUP_BY, groupby_data)


@pytest.fixture(scope="module")
def cm1_data():
    return materialise(CM1, CM1_TUPLES)


@pytest.fixture(scope="module")
def cm1_reference(cm1_data):
    return reference_output(CM1, cm1_data)


# -- partitioner ---------------------------------------------------------------

KEYED = Schema.parse("timestamp:long, k:int, x:float", name="Keyed")


def keyed_batch(n, start=0, key_mod=16):
    return TupleBatch.from_columns(
        KEYED,
        timestamp=np.arange(start, start + n, dtype=np.int64),
        k=(np.arange(start, start + n, dtype=np.int32) % key_mod),
        x=(np.arange(start, start + n) * 0.25).astype(np.float32),
    )


class TestHashPartitioner:
    def test_bucket_map_is_stable_across_instances(self):
        keys = np.arange(1000, dtype=np.int64)
        a = HashPartitioner(3, buckets=64).bucket_of(keys)
        b = HashPartitioner(5, buckets=64).bucket_of(keys)
        assert np.array_equal(a, b)  # hash never depends on shard count
        assert a.min() >= 0 and a.max() < 64

    def test_partition_is_disjoint_and_covering(self):
        part = HashPartitioner(4)
        b = keyed_batch(500)
        parts = part.partition(b, "k")
        assert sum(len(p) for p in parts if p is not None) == len(b)
        owners = {}
        for shard, p in enumerate(parts):
            if p is None:
                continue
            for key in np.unique(p.column("k")):
                assert key not in owners, "one key straddles two shards"
                owners[key] = shard

    def test_partition_preserves_input_order_within_shard(self):
        part = HashPartitioner(3)
        b = keyed_batch(300)
        for p in part.partition(b, "k"):
            if p is not None and len(p) > 1:
                assert np.all(np.diff(p.timestamps) >= 0)

    def test_partition_is_deterministic_for_replay(self):
        part = HashPartitioner(2)
        b = keyed_batch(200)
        first = part.partition(b, "k")
        second = part.partition(b, "k")
        for p, q in zip(first, second):
            assert (p is None) == (q is None)
            if p is not None:
                assert p.data.tobytes() == q.data.tobytes()

    def test_reassign_moves_bucket(self):
        part = HashPartitioner(2, buckets=8)
        assert part.assignment[3] == 1  # round-robin start
        part.reassign(3, 0)
        assert part.assignment[3] == 0
        assert np.count_nonzero(part.assignment == 0) == 5

    def test_reassign_rejects_out_of_range_bucket(self):
        with pytest.raises(ValidationError):
            HashPartitioner(2, buckets=8).reassign(8, 0)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValidationError):
            HashPartitioner(0)
        with pytest.raises(ValidationError):
            HashPartitioner(4, buckets=2)  # fewer buckets than shards


# -- merge stage ---------------------------------------------------------------

OUT = Schema.parse("timestamp:long, k:int, total:float", name="Out")


def window_rows(ts, keys, totals):
    return TupleBatch.from_columns(
        OUT,
        timestamp=np.full(len(keys), ts, dtype=np.int64),
        k=np.asarray(keys, dtype=np.int32),
        total=np.asarray(totals, dtype=np.float32),
    )


class TestMergeStage:
    def test_emission_gated_on_slowest_frontier(self):
        merge = MergeStage(2, ["k"])
        merge.on_window(0, 0, 0, window_rows(3, [0, 2], [1.0, 2.0]))
        merge.on_window(0, 0, 1, window_rows(7, [0], [3.0]))
        assert merge.stats()["merged_windows"] == 0  # shard 1 not heard
        merge.on_window(1, 0, 0, window_rows(3, [1], [4.0]))
        assert merge.stats()["merged_windows"] == 1  # window 0 released
        out = merge.output()
        assert list(out.column("k")) == [0, 1, 2]  # re-sorted by key

    def test_merged_window_timestamp_is_shard_max(self):
        merge = MergeStage(2, ["k"])
        merge.on_window(0, 0, 0, window_rows(3, [0], [1.0]))
        merge.on_window(1, 0, 0, window_rows(5, [1], [2.0]))
        out = merge.output()
        assert list(out.timestamps) == [5, 5]  # the window's last tuple

    def test_duplicate_report_raises(self):
        merge = MergeStage(2, ["k"])
        merge.on_window(0, 0, 0, window_rows(1, [0], [1.0]))
        with pytest.raises(ExecutionError, match="twice"):
            merge.on_window(0, 0, 0, window_rows(1, [0], [1.0]))

    def test_stale_epoch_report_is_discarded(self):
        merge = MergeStage(2, ["k"])
        new_epoch = merge.reset_shard(0)
        assert new_epoch == 1
        merge.on_window(0, 0, 0, window_rows(1, [0], [1.0]))  # dead epoch
        assert merge.backlog_windows() == 0
        merge.on_window(0, new_epoch, 0, window_rows(1, [0], [1.0]))
        assert merge.backlog_windows() == 1

    def test_reset_preserves_settled_prefix_and_skips_replay(self):
        merge = MergeStage(2, ["k"])
        merge.on_window(0, 0, 0, window_rows(2, [0], [1.0]))
        merge.on_window(1, 0, 0, window_rows(2, [1], [2.0]))
        assert merge.stats()["settled"] == 0
        before = merge.output().data.tobytes()
        # Shard 0 dies with window 1 in flight; its replacement replays.
        merge.on_window(0, 0, 1, window_rows(6, [0], [3.0]))
        epoch = merge.reset_shard(0)
        merge.on_window(0, epoch, 0, window_rows(2, [0], [1.0]))  # settled
        merge.on_window(0, epoch, 1, window_rows(6, [0], [3.0]))
        merge.on_window(1, 0, 1, window_rows(6, [1], [4.0]))
        assert merge.output().data.tobytes()[: len(before)] == before
        assert merge.stats()["merged_windows"] == 2

    def test_all_shards_closed_marks_done(self):
        merge = MergeStage(2, ["k"])
        merge.on_window(0, 0, 0, window_rows(1, [0], [1.0]))
        merge.close_shard(0, 0)
        assert not merge.done  # shard 1 still open gates the tail
        merge.close_shard(1, 0)
        assert merge.done
        assert merge.stats()["merged_windows"] == 1  # tail flushed
        assert merge.wait_done(timeout=1.0)

    def test_rejects_zero_shards(self):
        with pytest.raises(ExecutionError):
            MergeStage(0, ["k"])


# -- session eligibility -------------------------------------------------------


def cluster(**kwargs):
    session = ClusterSession(shards=2, **kwargs)
    session.register_stream("Syn", SyntheticSource(seed=1, limit=1024))
    return session


class TestEligibility:
    def test_count_window_is_refused(self):
        with pytest.raises(ValidationError, match="time-based"):
            cluster().sql(
                "select timestamp, a2, sum(a1) as total "
                "from Syn [rows 64 slide 64] group by a2"
            )

    def test_non_groupby_is_refused(self):
        with pytest.raises(ValidationError, match="GROUP-BY"):
            cluster().sql(
                "select timestamp, sum(a1) as total from Syn [range 4 slide 4]"
            )

    def test_where_prefilter_commutes_and_is_accepted(self):
        session = cluster()
        assert session.sql(
            "select timestamp, a2, sum(a1) as total from Syn "
            "[range 4 slide 4] where a3 > 2 group by a2"
        ) is session
        # The partition key is always the first group column.
        assert session.stats()["config"]["partition_key"] == "a2"

    def test_second_stream_is_refused(self):
        with pytest.raises(ValidationError, match="one input stream"):
            cluster().register_stream("Other", SyntheticSource(seed=2, limit=16))

    def test_start_before_submit_is_refused(self):
        with pytest.raises(ValidationError, match="sql"):
            cluster().start()

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            ClusterSession(shards=0)
        with pytest.raises(ValidationError):
            ClusterSession(transport="carrier-pigeon")
        with pytest.raises(ValidationError):
            ClusterSession(execution="fibers")
        with pytest.raises(ValidationError, match="not both"):
            ClusterSession(ClusterConfig(), shards=2)

    @pytest.mark.parametrize(
        "field", ["cpu_workers", "liveness_interval", "completion_timeout"]
    )
    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_sizes_and_intervals_are_refused(self, field, value):
        with pytest.raises(ValidationError, match=field):
            ClusterConfig(**{field: value})

    def test_session_refuses_second_query(self):
        with ClusterSession(shards=2) as session:
            session.register_stream("Syn", SyntheticSource(seed=1, limit=64))
            session.sql(GROUP_BY.cql, name="first")
            with pytest.raises(SessionError, match="already has a query"):
                session.sql(GROUP_BY.cql, name="second")

    def test_session_is_closed_for_good(self):
        session = cluster()
        session.close()
        session.close()  # idempotent
        with pytest.raises(SessionError, match="closed"):
            session.sql(GROUP_BY.cql)

    def test_query_readers_before_sql_raise_session_error(self):
        session = cluster()
        assert session.done is False
        for read in (session.wait, session.output, session.results):
            with pytest.raises(SessionError, match="no query"):
                read()

    def test_kill_shard_refuses_bad_slots_and_unstarted_clusters(self):
        session = cluster()
        session.sql(GROUP_BY.cql)
        for slot in (-1, 2):
            with pytest.raises(ValidationError, match="out of range"):
                session.kill_shard(slot)
        with pytest.raises(ValidationError, match="start"):
            session.kill_shard(0)

    def test_run_cluster_refuses_bad_kill_slot_before_start(self, groupby_data):
        for slot in (-1, 2):
            with pytest.raises(ValidationError, match="out of range"):
                run_cluster(GROUP_BY, groupby_data, shards=2, kill_slot=slot)


# -- equivalence: merged bytes == single-engine bytes --------------------------


class TestClusterEquivalence:
    def test_groupby_two_shards_threads(self, groupby_data, groupby_reference):
        merged, stats = run_cluster(GROUP_BY, groupby_data, shards=2)
        assert_byte_identical(merged, groupby_reference)
        assert stats["resubmits"] == 0

    def test_groupby_four_shards(self, groupby_data, groupby_reference):
        merged, stats = run_cluster(GROUP_BY, groupby_data, shards=4)
        assert_byte_identical(merged, groupby_reference)
        assert stats["resubmits"] == 0

    def test_groupby_processes_backend(self, groupby_data, groupby_reference):
        merged, stats = run_cluster(
            GROUP_BY, groupby_data, shards=2, execution="processes"
        )
        assert_byte_identical(merged, groupby_reference)
        assert stats["resubmits"] == 0

    def test_cm1_two_shards(self, cm1_data, cm1_reference):
        merged, stats = run_cluster(CM1, cm1_data, shards=2)
        assert_byte_identical(merged, cm1_reference)
        assert stats["resubmits"] == 0

    def test_rebalanced_plan_stays_exact(self, groupby_data, groupby_reference):
        with ClusterSession(shards=2) as session:
            session.register_stream(
                GROUP_BY.stream, MemorySource(groupby_data.schema, groupby_data)
            )
            session.sql(GROUP_BY.cql, name=GROUP_BY.name)
            # Skew the plan before ingest: shard 1 takes most buckets.
            for bucket in range(0, 48):
                session.rebalance(bucket, 1)
            session.start()
            with pytest.raises(ValidationError, match="rebalance"):
                session.rebalance(0, 0)  # plan frozen once started
            session.wait(120.0)
            assert_byte_identical(session.output(), groupby_reference)

    @pytest.mark.slow
    def test_groupby_serve_transport(self, groupby_data, groupby_reference):
        merged, stats = run_cluster(
            GROUP_BY, groupby_data, shards=2, transport="serve"
        )
        assert_byte_identical(merged, groupby_reference)
        assert stats["resubmits"] == 0


# -- shard failure and resubmit ------------------------------------------------


class TestShardFailureRecovery:
    def _await_merged(self, session, windows, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            merge = session.stats().get("merge") or {}
            if merge.get("merged_windows", 0) >= windows:
                return
            time.sleep(0.01)
        raise AssertionError(f"never merged {windows} windows")

    def test_kill_and_resubmit_midstream_stays_exact(
        self, groupby_data, groupby_reference
    ):
        """Push half, kill a shard with settled AND in-flight windows,
        push the rest: the resubmitted key range must reproduce the
        single-engine bytes exactly."""
        source = PushSource(groupby_data.schema, capacity_tuples=1 << 16)
        half = len(groupby_data) // 2
        first = groupby_data.take(np.arange(half))
        rest = groupby_data.take(np.arange(half, len(groupby_data)))
        with ClusterSession(shards=2, liveness_interval=0.05) as session:
            session.register_stream(GROUP_BY.stream, source)
            session.sql(GROUP_BY.cql, name=GROUP_BY.name)
            session.start()
            session.push(GROUP_BY.stream, first)
            self._await_merged(session, 2)
            session.kill_shard(0)
            session.push(GROUP_BY.stream, rest)
            session.close_stream(GROUP_BY.stream)
            session.wait(120.0)
            stats = session.stats()
            assert_byte_identical(session.output(), groupby_reference)
        assert stats["resubmits"] >= 1

    @pytest.mark.slow
    def test_serve_transport_kill_and_resubmit(
        self, groupby_data, groupby_reference
    ):
        merged, stats = run_cluster(
            GROUP_BY,
            groupby_data,
            shards=2,
            transport="serve",
            kill_slot=0,
            liveness_interval=0.05,
        )
        assert_byte_identical(merged, groupby_reference)
        assert stats["resubmits"] >= 1


class TestDoneMeansComplete:
    """``done`` and ``wait`` report a fully merged run only: closing the
    cluster early or failing it wakes consumers without claiming it."""

    def started(self, groupby_data):
        session = ClusterSession(shards=2)
        session.register_stream(
            GROUP_BY.stream, PushSource(groupby_data.schema, capacity_tuples=1 << 16)
        )
        session.sql(GROUP_BY.cql, name=GROUP_BY.name)
        session.start()
        session.push(GROUP_BY.stream, groupby_data.slice(0, len(groupby_data) // 2))
        deadline = time.monotonic() + 60.0
        while session.stats()["merge"]["merged_windows"] < 1:
            assert time.monotonic() < deadline, "no window merged"
            time.sleep(0.01)
        return session

    def test_a_cluster_closed_early_is_not_done(self, groupby_data, groupby_reference):
        session = self.started(groupby_data)
        session.close()
        merged = session.stats()["merge"]["merged_windows"]
        assert 0 < merged < 8  # 8 windows in the whole stream
        assert session.done is False
        assert session.wait(0.1) is False
        # The woken backlog hands over what merged, then ends.
        assert len(list(session.results())) == merged
        assert len(session.output()) < len(groupby_reference)

    def test_a_failed_cluster_is_not_done(self, groupby_data):
        session = self.started(groupby_data)
        try:
            session._fail("injected failure")
            assert session.done is False
            with pytest.raises(ExecutionError, match="injected failure"):
                session.wait(5.0)
        finally:
            session.close()


class TestCompletionTimeout:
    def test_timeout_shorter_than_the_replay_drain_ends_the_run(self):
        """A completion budget shorter than a replacement's re-drain of
        the retained log used to resubmit the slot forever; now the run
        finishes exact or fails naming the slot, after at most one
        timeout resubmit per slot."""
        data = materialise(CM1, 1 << 18)
        reference = reference_output(CM1, data)
        began = time.monotonic()
        with ClusterSession(
            shards=2, liveness_interval=0.01, completion_timeout=0.01
        ) as session:
            session.register_stream(CM1.stream, MemorySource(data.schema, data))
            session.sql(CM1.cql, name=CM1.name)
            session.start()
            try:
                finished = session.wait(30.0)
            except ExecutionError as exc:
                assert "completion_timeout=0.01" in str(exc)
                assert "shard " in str(exc)
            else:
                assert finished, "the run neither completed nor failed"
                assert_byte_identical(session.output(), reference)
            stats = session.stats()
        assert time.monotonic() - began < 30.0
        assert stats["resubmits"] <= 2


class TestProcessShardStartup:
    @pytest.fixture
    def spawn(self, monkeypatch, groupby_data):
        """``spawn(script, spawn_timeout)`` starts a ``ProcessShard`` whose
        child runs ``script`` instead of ``repro serve``; ``spawn.children``
        holds every process started."""
        popen = subprocess.Popen
        children = []

        def spawn(script, spawn_timeout):
            def scripted_child(argv, **kwargs):
                children.append(popen([sys.executable, "-c", script], **kwargs))
                return children[-1]

            monkeypatch.setattr(subprocess, "Popen", scripted_child)
            return ProcessShard(
                3, GROUP_BY.stream, groupby_data.schema, GROUP_BY.cql,
                GROUP_BY.name, lambda wid, rows: None, lambda: None,
                spawn_timeout=spawn_timeout,
            )

        spawn.children = children
        return spawn

    def test_silent_child_hits_spawn_timeout_and_is_reaped(self, spawn):
        """A serve child that never prints its banner: a typed error at
        the deadline, and nothing — child, pipe, thread — left behind."""
        threads_before = set(threading.enumerate())
        raised = []

        def start_shard():
            try:
                spawn("import time; time.sleep(60)", spawn_timeout=0.5)
            except SaberError as exc:
                raised.append(exc)

        # The guard: a start-up that ignores its deadline blocks on the
        # child's stdout for the full 60 s, so it runs beside the test.
        began = time.monotonic()
        starter = threading.Thread(target=start_shard, daemon=True)
        starter.start()
        starter.join(10.0)
        elapsed = time.monotonic() - began
        (child,) = spawn.children
        if starter.is_alive():
            child.kill()  # EOF on the pipe releases the stuck reader
            starter.join(5.0)
            pytest.fail("ProcessShard start-up ignored spawn_timeout and hung")
        assert elapsed < 3.0
        assert len(raised) == 1
        assert "shard 3" in str(raised[0]) and "0.5 s" in str(raised[0])
        assert child.poll() is not None  # killed *and* waited for
        assert child.stdout.closed
        assert set(threading.enumerate()) - threads_before == set()

    def test_bad_banner_reaps_the_child(self, spawn):
        script = "import time; print('nope', flush=True); time.sleep(60)"
        with pytest.raises(SaberError, match="failed to start .*nope"):
            spawn(script, spawn_timeout=10.0)
        (child,) = spawn.children
        assert child.poll() is not None and child.stdout.closed


# -- cluster metrics -----------------------------------------------------------


class TestClusterMetrics:
    def test_counters_reconcile_with_stats(self, groupby_data, groupby_reference):
        with ClusterSession(shards=2) as session:
            session.register_stream(
                GROUP_BY.stream, MemorySource(groupby_data.schema, groupby_data)
            )
            session.sql(GROUP_BY.cql, name=GROUP_BY.name)
            session.start()
            session.wait(120.0)
            registry = session.registry
            stats = session.stats()
            assert_byte_identical(session.output(), groupby_reference)
            pushed = registry.total("saber_cluster_tuples_pushed_total")
            assert pushed == len(groupby_data)  # no resubmits: no replays
            merged = stats["merge"]["merged_windows"]
            assert merged > 0
            assert registry.total("saber_cluster_windows_merged_total") == merged
            assert registry.total("saber_cluster_rows_merged_total") == len(
                session.output()
            )
            assert registry.total("saber_cluster_resubmits_total") == 0
            assert registry.total("saber_cluster_merge_backlog_windows") == 0
            assert set(registry.snapshot()["saber_cluster_shard_lag_windows"]) == {
                (("shard", "0"),),
                (("shard", "1"),),
            }
