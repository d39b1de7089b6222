"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.operators.aggregate_functions import Accumulator
from repro.relational.buffer import CircularTupleBuffer
from repro.relational.schema import Schema
from repro.relational.tuples import TupleBatch
from repro.windows.assigner import FragmentState, assign_count_windows, assign_time_windows
from repro.windows.definition import WindowDefinition

SCHEMA = Schema.parse("timestamp:long, v:int")

window_defs = st.tuples(
    st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=64)
).map(lambda t: WindowDefinition.rows(max(t), min(t)))

batch_edges = st.lists(
    st.integers(min_value=1, max_value=50), min_size=1, max_size=12
).map(lambda gaps: np.cumsum([0] + gaps))


class TestWindowAssignerProperties:
    @given(window=window_defs, edges=batch_edges)
    @settings(max_examples=150, deadline=None)
    def test_fragments_partition_each_window(self, window, edges):
        """Across consecutive batches, each window's fragments are a
        disjoint, in-order, complete cover of the window's rows."""
        total = int(edges[-1])
        coverage: dict[int, list[int]] = {}
        closed: set[int] = set()
        for b0, b1 in zip(edges, edges[1:]):
            ws = assign_count_windows(window, int(b0), int(b1))
            for wid, s, e, state in zip(ws.window_ids, ws.starts, ws.ends, ws.states):
                rows = coverage.setdefault(int(wid), [])
                new = list(range(int(b0 + s), int(b0 + e)))
                if rows and new:
                    assert new[0] == rows[-1] + 1  # in order, no gaps/overlap
                rows.extend(new)
                if FragmentState(state) in (FragmentState.COMPLETE, FragmentState.CLOSING):
                    closed.add(int(wid))
        for wid, rows in coverage.items():
            start = wid * window.slide
            expected = list(range(start, min(start + window.size, total)))
            assert rows == expected
            if start + window.size <= total:
                assert wid in closed

    @given(window=window_defs, edges=batch_edges)
    @settings(max_examples=100, deadline=None)
    def test_exactly_one_close_per_window(self, window, edges):
        closes: dict[int, int] = {}
        for b0, b1 in zip(edges, edges[1:]):
            ws = assign_count_windows(window, int(b0), int(b1))
            for wid in ws.closing_ids():
                closes[int(wid)] = closes.get(int(wid), 0) + 1
        assert all(v == 1 for v in closes.values())

    @given(
        window=st.tuples(
            st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30)
        ).map(lambda t: WindowDefinition.time(max(t), min(t))),
        deltas=st.lists(st.integers(min_value=0, max_value=5), min_size=4, max_size=40),
        split=st.integers(min_value=1, max_value=38),
    )
    @settings(max_examples=100, deadline=None)
    def test_time_fragments_cover_window_tuples(self, window, deltas, split):
        ts = np.cumsum(deltas).astype(np.int64)
        split = min(split, len(ts) - 1)
        first, second = ts[:split], ts[split:]
        coverage: dict[int, list[int]] = {}
        for chunk, prev in ((first, None), (second, int(first[-1]))):
            if len(chunk) == 0:
                continue
            ws = assign_time_windows(window, chunk, prev)
            base = 0 if prev is None else split
            for wid, s, e in zip(ws.window_ids, ws.starts, ws.ends):
                coverage.setdefault(int(wid), []).extend(
                    range(base + int(s), base + int(e))
                )
        for wid, rows in coverage.items():
            lo, hi = wid * window.slide, wid * window.slide + window.size
            expected = [i for i, t in enumerate(ts) if lo <= t < hi]
            assert rows == expected


class TestAccumulatorProperties:
    values = st.lists(
        st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=30
    )

    @given(values, values, values)
    @settings(max_examples=100, deadline=None)
    def test_merge_associative(self, a, b, c):
        xa, xb, xc = (Accumulator.of(np.asarray(v)) for v in (a, b, c))
        left = xa.merge(xb).merge(xc)
        right = xa.merge(xb.merge(xc))
        assert left.count == right.count
        assert abs(left.total - right.total) < 1e-6
        assert left.minimum == right.minimum
        assert left.maximum == right.maximum

    @given(values, values)
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_whole(self, a, b):
        merged = Accumulator.of(np.asarray(a)).merge(Accumulator.of(np.asarray(b)))
        whole = Accumulator.of(np.asarray(a + b))
        assert merged.count == whole.count
        assert abs(merged.total - whole.total) < 1e-6
        assert merged.minimum == whole.minimum
        assert merged.maximum == whole.maximum


class TestBufferProperties:
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=1, max_value=5)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_fifo_under_interleaved_insert_release(self, ops):
        buf = CircularTupleBuffer(SCHEMA, 32)
        inserted = 0
        released = 0
        mirror: list[int] = []
        for is_insert, count in ops:
            if is_insert and buf.free_slots >= count:
                data = list(range(inserted, inserted + count))
                batch = TupleBatch.from_columns(
                    SCHEMA,
                    timestamp=np.asarray(data, dtype=np.int64),
                    v=np.asarray(data, dtype=np.int32),
                )
                buf.insert(batch)
                mirror.extend(data)
                inserted += count
            elif not is_insert and released + count <= inserted:
                released += count
                buf.release(released)
            if inserted > released:
                out = buf.read(released, inserted)
                assert list(out.column("v")) == mirror[released:inserted]
