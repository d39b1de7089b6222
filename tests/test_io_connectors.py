"""Unit tests for the data-plane connector SPI (`repro.io`)."""

import threading
import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from reference import ATTRIBUTE_TYPES, rows_to_batch_by_row

from repro.errors import (
    BackpressureError,
    EndOfStream,
    IngestInterrupted,
    ValidationError,
)
from repro.io import (
    BackpressurePolicy,
    CallbackSink,
    FileReplaySource,
    FileSink,
    MemorySink,
    MemorySource,
    PushHandle,
    PushSource,
    ReplayClock,
    SocketSink,
    SocketSource,
    write_batch,
)
from repro.io.records import as_batch, batch_to_rows, rows_to_batch
from repro.relational.schema import Schema
from repro.relational.tuples import TupleBatch

SCHEMA = Schema.parse("timestamp:long, v:int, x:float", name="S")


def batch(n, start=0):
    return TupleBatch.from_columns(
        SCHEMA,
        timestamp=np.arange(start, start + n, dtype=np.int64),
        v=np.arange(start, start + n, dtype=np.int32),
        x=(np.arange(start, start + n) * 0.5).astype(np.float32),
    )


_PAIR = Schema.parse("a0:long, a1:int", name="S")
#: values every attribute type converts.
_CLEAN = st.one_of(st.integers(-(2**31), 2**31 - 1), st.floats(-1e6, 1e6))
#: values some or all attribute types reject (or convert surprisingly).
_DIRTY = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.none(),
    st.booleans(),
    st.sampled_from(["5", "-7", "1.5", "x", "nan", "", " 2 ", "1e5"]),
    st.just([1]),
)


@st.composite
def rows_and_schema(draw):
    """A 1–4 attribute schema and up to six rows under it: tuples, lists
    or dicts (sometimes mixed), clean or with dirty values, and now and
    then a row one value short or long (a missing key, for a dict)."""
    types = draw(st.lists(st.sampled_from(ATTRIBUTE_TYPES), min_size=1, max_size=4))
    schema = Schema.parse(", ".join(f"a{i}:{t}" for i, t in enumerate(types)), name="S")
    clean = draw(st.booleans())
    values = _CLEAN if clean else st.one_of(_CLEAN, _DIRTY)
    shape = draw(st.sampled_from(["tuple", "list", "dict", "mixed"]))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["tuple", "list", "dict"])) if shape == "mixed" else shape
        row = [draw(values) for _ in types]
        if not clean and draw(st.integers(0, 7)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + [0]
        if kind == "dict":
            rows.append(dict(zip(schema.attribute_names, row)))
        else:
            rows.append(tuple(row) if kind == "tuple" else row)
    return schema, rows


class TestRecords:
    def test_rows_to_batch_roundtrip_dicts(self):
        b = batch(5)
        rows = batch_to_rows(b)
        again = rows_to_batch(SCHEMA, rows)
        assert np.array_equal(b.data, again.data)

    def test_rows_to_batch_accepts_sequences(self):
        b = rows_to_batch(SCHEMA, [(0, 1, 0.5), (1, 2, 1.5)])
        assert list(b.column("v")) == [1, 2]

    def test_missing_attribute_raises(self):
        with pytest.raises(ValidationError, match="missing attribute"):
            rows_to_batch(SCHEMA, [{"timestamp": 0, "v": 1}])

    def test_wrong_arity_sequence_raises(self):
        with pytest.raises(ValidationError, match="3 attributes"):
            rows_to_batch(SCHEMA, [(1, 2)])

    def test_as_batch_rejects_wrong_schema(self):
        other = Schema.parse("timestamp:long, y:int", name="T")
        wrong = TupleBatch.from_columns(
            other,
            timestamp=np.zeros(1, dtype=np.int64),
            y=np.zeros(1, dtype=np.int32),
        )
        with pytest.raises(ValidationError, match="expects"):
            as_batch(SCHEMA, wrong)

    def test_as_batch_rejects_text(self):
        with pytest.raises(ValidationError, match="rows/batches"):
            as_batch(SCHEMA, "1,2,3")

    def test_unconvertible_value_is_typed(self):
        with pytest.raises(ValidationError, match="'v'.*int"):
            rows_to_batch(SCHEMA, [{"timestamp": 0, "v": "oops", "x": 1.0}])

    def test_bad_csv_value_is_typed(self):
        from repro.io.records import csv_to_rows

        with pytest.raises(ValidationError, match="not a valid int"):
            csv_to_rows(SCHEMA, ["1,notanint,0.5"])

    @given(rows_and_schema())
    @example((_PAIR, [(1, 2**31)]))  # int32 overflow, tuples
    @example((_PAIR, [[2**63, 1]]))  # int64 overflow, lists
    @example((_PAIR, [{"a0": float("nan"), "a1": 1}]))  # NaN into an int
    @example((_PAIR, [{"a0": 1, "a1": None}]))  # None into an int
    @example((_PAIR, [{"a0": 1}]))  # a missing key
    @example((_PAIR, [(1, 2), (1, 2, 3)]))  # a wrong width
    @example((_PAIR, [("5", "x")]))  # strings
    def test_bulk_pack_matches_the_row_loop(self, case):
        """The one-call pack builds the same bytes as the row-at-a-time
        oracle, or fails with the same error type and message."""
        schema, rows = case
        try:
            expected = rows_to_batch_by_row(schema, rows)
        except Exception as exc:  # noqa: BLE001 - compared below
            with pytest.raises(type(exc)) as err:
                rows_to_batch(schema, rows)
            assert str(err.value) == str(exc)
        else:
            got = rows_to_batch(schema, rows)
            assert got.data.dtype == expected.data.dtype
            assert got.data.tobytes() == expected.data.tobytes()

    def test_an_iterator_of_rows_is_accepted(self):
        rows = batch_to_rows(batch(4))
        assert rows_to_batch(SCHEMA, iter(rows)).data.tobytes() == batch(4).data.tobytes()


class TestMemorySource:
    def test_exact_pulls_then_eos(self):
        src = MemorySource(SCHEMA, batch(10))
        assert len(src.next_tuples(4)) == 4
        assert len(src.next_tuples(4)) == 4
        with pytest.raises(EndOfStream) as exc:
            src.next_tuples(4)
        assert len(exc.value.remainder) == 2

    def test_eos_with_no_remainder(self):
        src = MemorySource(SCHEMA, batch(4))
        src.next_tuples(4)
        with pytest.raises(EndOfStream) as exc:
            src.next_tuples(4)
        assert exc.value.remainder is None

    def test_slices_match_source_data(self):
        b = batch(8)
        src = MemorySource(SCHEMA, b)
        out = src.next_tuples(8)
        assert np.array_equal(out.data, b.data)


class TestPushSource:
    def test_push_then_pull_exact(self):
        src = PushSource(SCHEMA, capacity_tuples=64)
        src.push(batch(6))
        out = src.next_tuples(4)
        assert list(out.column("v")) == [0, 1, 2, 3]
        assert src.queued_tuples == 2

    def test_push_copies_at_the_ingress_boundary(self):
        """A producer reusing its push buffer must not corrupt queued
        tuples: the queue owns a copy, never a view."""
        src = PushSource(SCHEMA, capacity_tuples=64)
        buf = batch(4)
        src.push(buf)
        buf.data["v"][:] = 999  # producer reuses its buffer
        out = src.next_tuples(4)
        assert list(out.column("v")) == [0, 1, 2, 3]

    def test_pull_blocks_until_pushed(self):
        src = PushSource(SCHEMA, capacity_tuples=64)
        got = []

        def consume():
            got.append(src.next_tuples(4))

        t = threading.Thread(target=consume)
        t.start()
        time.sleep(0.05)
        assert not got
        src.push(batch(4))
        t.join(timeout=5)
        assert len(got) == 1 and len(got[0]) == 4

    def test_close_turns_tail_into_eos(self):
        src = PushSource(SCHEMA, capacity_tuples=64)
        src.push(batch(3))
        src.close()
        with pytest.raises(EndOfStream) as exc:
            src.next_tuples(8)
        assert len(exc.value.remainder) == 3

    def test_push_after_close_raises(self):
        src = PushSource(SCHEMA, capacity_tuples=64)
        src.close()
        with pytest.raises(ValidationError, match="closed"):
            src.push(batch(1))

    def test_error_policy_raises_backpressure(self):
        src = PushSource(SCHEMA, capacity_tuples=4, policy="error")
        src.push(batch(4))
        with pytest.raises(BackpressureError):
            src.push(batch(1))

    def test_drop_oldest_policy_evicts(self):
        src = PushSource(
            SCHEMA, capacity_tuples=4, policy=BackpressurePolicy.DROP_OLDEST
        )
        src.push(batch(4, start=0))
        src.push(batch(2, start=4))
        assert src.dropped_tuples == 4  # whole oldest segment evicted
        src.close()
        with pytest.raises(EndOfStream) as exc:
            src.next_tuples(8)
        assert list(exc.value.remainder.column("v")) == [4, 5]

    def test_block_policy_waits_for_drain(self):
        src = PushSource(SCHEMA, capacity_tuples=4, policy="block")
        src.push(batch(4))
        done = []

        def produce():
            src.push(batch(2, start=4))
            done.append(True)

        t = threading.Thread(target=produce)
        t.start()
        time.sleep(0.05)
        assert not done  # blocked on backpressure
        src.next_tuples(4)  # drain
        t.join(timeout=5)
        assert done

    def test_stop_check_interrupts_blocked_pull(self):
        src = PushSource(SCHEMA, capacity_tuples=64)
        src.bind_stop(lambda: True)
        with pytest.raises(IngestInterrupted):
            src.next_tuples(4)

    def test_handle_wraps_push_and_close(self):
        src = PushSource(SCHEMA, capacity_tuples=64)
        with PushHandle(src) as handle:
            assert handle.push(batch(2)) == 2
        assert src.closed

    def test_multi_producer_total_tuple_count(self):
        src = PushSource(SCHEMA, capacity_tuples=1 << 16)
        threads = [
            threading.Thread(target=lambda k=k: src.push(batch(100, start=k * 100)))
            for k in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        src.close()
        out = src.next_tuples(800)
        assert len(out) == 800
        assert sorted(out.column("v").tolist()) == list(range(800))


class TestFileConnectors:
    @pytest.mark.parametrize("format", ["jsonl", "csv"])
    def test_roundtrip_is_byte_identical(self, tmp_path, format):
        b = batch(100)
        path = tmp_path / f"data.{format}"
        write_batch(path, b)
        src = FileReplaySource(path, SCHEMA)
        out = src.next_tuples(60)
        with pytest.raises(EndOfStream) as exc:
            src.next_tuples(60)
        full = TupleBatch.concat([out, exc.value.remainder])
        assert np.array_equal(full.data, b.data)

    def test_float_fidelity_through_jsonl(self, tmp_path):
        rng = np.random.default_rng(3)
        b = TupleBatch.from_columns(
            SCHEMA,
            timestamp=np.arange(64, dtype=np.int64),
            v=rng.integers(-(2**31), 2**31, 64, dtype=np.int64).astype(np.int32),
            x=rng.random(64, dtype=np.float32),
        )
        path = write_batch(tmp_path / "f.jsonl", b)
        out = FileReplaySource(path, SCHEMA).next_tuples(64)
        assert out.data.tobytes() == b.data.tobytes()

    def test_missing_file_raises_validation_eagerly(self, tmp_path):
        with pytest.raises(ValidationError, match="does not exist"):
            FileReplaySource(tmp_path / "nope.jsonl", SCHEMA)

    def test_format_inference_rejects_unknown(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot infer"):
            FileReplaySource(tmp_path / "data.bin", SCHEMA)

    def test_file_sink_writes_csv_header(self, tmp_path):
        path = tmp_path / "out.csv"
        sink = FileSink(path)
        sink.open(SCHEMA)
        sink.write(batch(2))
        sink.close()
        lines = path.read_text().splitlines()
        assert lines[0] == "timestamp,v,x"
        assert len(lines) == 3

    def test_file_sink_jsonl_replayable(self, tmp_path):
        path = tmp_path / "out.jsonl"
        sink = FileSink(path)
        sink.write(batch(5))
        sink.write(batch(5, start=5))
        sink.close()
        out = FileReplaySource(path, SCHEMA).next_tuples(10)
        assert np.array_equal(out.data, batch(10).data)


class TestReplayClock:
    def test_paces_to_rate_with_fake_time(self):
        now = [0.0]
        sleeps = []

        def fake_sleep(s):
            sleeps.append(s)
            now[0] += s

        clock = ReplayClock(rate=100.0, now=lambda: now[0], sleep=fake_sleep)
        clock.pace(50)  # 50 tuples at 100/s -> due at 0.5s
        assert now[0] == pytest.approx(0.5, abs=0.05)

    def test_interrupts_on_stop(self):
        clock = ReplayClock(rate=1.0)  # absurdly slow: must interrupt
        clock.pace(0)
        with pytest.raises(IngestInterrupted):
            clock.pace(1000, stop_check=lambda: True)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValidationError):
            ReplayClock(rate=0)


class TestSockets:
    def test_line_protocol_roundtrip(self):
        src = SocketSource(SCHEMA, capacity_tuples=4096)
        host, port = src.address
        sink = SocketSink(host, port)
        b = batch(300)
        sink.write(b)
        sink.close()
        out = src.next_tuples(200)
        with pytest.raises(EndOfStream) as exc:
            src.next_tuples(200)
        full = TupleBatch.concat([out, exc.value.remainder])
        assert np.array_equal(full.data, b.data)

    def test_disconnect_is_end_of_stream(self):
        src = SocketSource(SCHEMA)
        host, port = src.address
        sink = SocketSink(host, port)
        sink.open()
        sink.close()  # connect then immediately disconnect
        with pytest.raises(EndOfStream):
            src.next_tuples(1)

    def test_rejects_unknown_format(self):
        with pytest.raises(ValidationError):
            SocketSource(SCHEMA, format="xml")


class TestTerminalClose:
    """close() is terminal for every connector: the next pull observes
    end-of-stream — never a rewind or a silent restart."""

    def test_file_replay_close_mid_stream_does_not_rewind(self, tmp_path):
        path = write_batch(tmp_path / "d.jsonl", batch(100))
        src = FileReplaySource(path, SCHEMA)
        src.next_tuples(40)
        src.close()
        with pytest.raises(EndOfStream) as exc:
            src.next_tuples(40)
        assert exc.value.remainder is None  # no replayed duplicates

    def test_generator_close_ends_unbounded_stream(self):
        from repro.workloads.synthetic import SyntheticSource

        src = SyntheticSource(seed=1)  # unbounded
        src.next_tuples(64)
        src.close()
        with pytest.raises(EndOfStream):
            src.next_tuples(1)

    def test_memory_close_ends_stream(self):
        src = MemorySource(SCHEMA, batch(10))
        src.next_tuples(4)
        src.close()
        with pytest.raises(EndOfStream):
            src.next_tuples(1)


class TestOversizedBlockPush:
    def test_push_larger_than_capacity_admits_progressively(self):
        src = PushSource(SCHEMA, capacity_tuples=50, policy="block")
        received = []

        def consume():
            while True:
                try:
                    received.append(src.next_tuples(25))
                except EndOfStream as eos:
                    if eos.remainder is not None:
                        received.append(eos.remainder)
                    return

        consumer = threading.Thread(target=consume)
        consumer.start()
        assert src.push(batch(250)) == 250  # 5x capacity: must not hang
        src.close()
        consumer.join(timeout=10)
        assert not consumer.is_alive()
        total = TupleBatch.concat(received)
        assert np.array_equal(total.data, batch(250).data)


class TestSocketCorruption:
    def test_malformed_line_surfaces_as_error_not_eos(self):
        import socket as socketlib

        src = SocketSource(SCHEMA, capacity_tuples=1024)
        host, port = src.address
        with socketlib.create_connection((host, port)) as conn:
            conn.sendall(b'{"timestamp": 0, "v": 1, "x": 0.5}\n')
            conn.sendall(b"this is not json\n")
        with pytest.raises(ValidationError, match="not valid JSON"):
            # The good tuple alone cannot satisfy the pull; the stream
            # ends corrupt, which must not masquerade as a clean EOS.
            src.next_tuples(8)

    def test_unconvertible_value_surfaces_as_error_not_eos(self):
        import socket as socketlib

        src = SocketSource(SCHEMA, capacity_tuples=1024, format="csv")
        host, port = src.address
        with socketlib.create_connection((host, port)) as conn:
            conn.sendall(b"1,notanint,0.5\n")
        with pytest.raises(ValidationError, match="not a valid int"):
            src.next_tuples(8)


class TestSessionClosesSources:
    def test_session_close_releases_registered_sources(self, tmp_path):
        from repro.api import SaberSession
        from repro.workloads.cluster_monitoring import TASK_EVENTS_SCHEMA

        sock_src = SocketSource(TASK_EVENTS_SCHEMA)
        file_src = FileReplaySource(
            write_batch(tmp_path / "x.jsonl", batch(10)), SCHEMA
        )
        file_src.open()
        with SaberSession() as session:
            session.register_stream("TaskEvents", sock_src)
            session.register_stream("Files", file_src)
        assert sock_src._queue.closed
        assert file_src._file is None  # handle released, stream terminal
        with pytest.raises(EndOfStream):
            file_src.next_tuples(1)


class TestSinks:
    def test_memory_sink_concatenates(self):
        sink = MemorySink()
        sink.open(SCHEMA)
        sink.write(batch(3))
        sink.write(batch(3, start=3))
        assert sink.rows_written == 6
        assert np.array_equal(sink.output().data, batch(6).data)

    def test_callback_sink_delegates(self):
        seen = []
        sink = CallbackSink(seen.append)
        sink.write(batch(2))
        assert len(seen) == 1 and len(seen[0]) == 2

    def test_callback_sink_rejects_non_callable(self):
        with pytest.raises(ValidationError):
            CallbackSink(42)


class TestSocketFailurePaths:
    """Socket connector failure semantics: abrupt peer death, fragmented
    frames, and the terminality of end-of-stream across reconnects."""

    def test_peer_disconnect_mid_stream_delivers_prefix_then_eos(self):
        import socket as socketlib

        src = SocketSource(SCHEMA, capacity_tuples=1024)
        host, port = src.address
        b = batch(10)
        lines = "".join(
            '{"timestamp": %d, "v": %d, "x": %s}\n' % (r["timestamp"], r["v"], r["x"])
            for r in batch_to_rows(b)
        )
        with socketlib.create_connection((host, port)) as conn:
            conn.sendall(lines.encode("utf-8"))
        # The producer died mid-stream (no framing epilogue): everything
        # it managed to send is delivered, then a clean end-of-stream —
        # never a hang and never invented data.
        out = src.next_tuples(6)
        assert len(out) == 6
        with pytest.raises(EndOfStream) as exc:
            src.next_tuples(100)
        full = TupleBatch.concat([out, exc.value.remainder])
        assert np.array_equal(full.data, b.data)

    def test_partial_line_frames_reassemble_across_segments(self):
        import socket as socketlib

        src = SocketSource(SCHEMA, capacity_tuples=1024)
        host, port = src.address
        line = b'{"timestamp": 1, "v": 2, "x": 0.5}\n'
        with socketlib.create_connection((host, port)) as conn:
            # One record fragmented across three TCP segments, plus a
            # final record whose newline never arrives (EOF terminates
            # it): both must parse as exactly one tuple each.
            for chunk in (line[:9], line[9:21], line[21:]):
                conn.sendall(chunk)
                time.sleep(0.02)
            conn.sendall(b'{"timestamp": 2, "v": 3, "x": 1.5}')
        out = src.next_tuples(1)
        with pytest.raises(EndOfStream) as exc:
            src.next_tuples(10)
        full = TupleBatch.concat([out, exc.value.remainder])
        assert list(full.timestamps) == [1, 2]
        assert list(full.column("v")) == [2, 3]

    def test_reconnect_after_eof_does_not_resurrect_stream(self):
        import socket as socketlib

        src = SocketSource(SCHEMA)
        host, port = src.address
        sink = SocketSink(host, port)
        sink.write(batch(5))
        sink.close()  # first producer done: stream is terminally ended
        with pytest.raises(EndOfStream) as exc:
            src.next_tuples(100)
        assert len(exc.value.remainder) == 5
        # A second producer must not reopen the stream.  Depending on
        # how far the reader's teardown has run, the connect is either
        # refused outright or accepted-and-ignored — in both cases the
        # source stays terminal and delivers nothing new.
        try:
            conn = socketlib.create_connection((host, port), timeout=0.5)
        except OSError:
            pass  # listener already closed
        else:
            with conn:
                try:
                    conn.sendall(b'{"timestamp": 9, "v": 9, "x": 9.0}\n')
                except OSError:
                    pass
        with pytest.raises(EndOfStream) as late:
            src.next_tuples(1)
        assert late.value.remainder is None
