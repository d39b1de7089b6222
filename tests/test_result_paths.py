"""One query, every result path, the same bytes.

Output chunks wait for a consumer in one place, the query handle's
:class:`~repro.api.session.ChunkBacklog`; every way out of it — the
handle's ``results()`` and ``drain``, a serve tenant's ``results``
frames on the JSON and the binary codec, windowed delivery through
``window_results``, and the cluster merge on both transports — must
hand over exactly the rows a single engine emits.
"""

import time

import pytest

from repro.api import SaberSession
from repro.cluster import CLUSTER_WORKLOADS, materialise, reference_output, run_cluster
from repro.io import MemorySource
from repro.io.records import batch_to_rows, rows_to_batch
from repro.relational.schema import Schema
from repro.relational.tuples import TupleBatch
from repro.serve import SaberServer, ServeClient, ServeConfig
from test_serve_wire import JsonClient

WORKLOAD = CLUSTER_WORKLOADS["GROUP-BY"]
TUPLES = 1 << 15  # 8 tumbling windows
PUSH_ROWS = 4096


@pytest.fixture(scope="module")
def data():
    return materialise(WORKLOAD, TUPLES)


@pytest.fixture(scope="module")
def reference(data):
    return reference_output(WORKLOAD, data)


def concat(batches):
    batches = [b for b in batches if len(b)]
    return TupleBatch.concat(batches) if batches else None


def local(data, consume, windows=False):
    """Run the workload in one session; ``consume(handle)`` reads its
    backlog while the background run is live."""
    with SaberSession(
        execution="threads", cpu_workers=2, use_gpu=False, task_size_bytes=64 << 10
    ) as session:
        session.register_stream(WORKLOAD.stream, MemorySource(data.schema, data))
        handle = session.sql(WORKLOAD.cql, name=WORKLOAD.name)
        if windows:
            handle.deliver_windows()
        session.start()
        out = consume(handle)
        session.wait()
        return out


def drain_handle(handle):
    chunks = []
    while batch := handle.drain(16, timeout=None):
        chunks.extend(batch)
    return chunks


def served(data, client_cls, windows):
    """Run the workload in a serve tenant; every chunk of its backlog as
    ``(window, batch)`` pairs, through ``results`` frames."""
    binary = client_cls is ServeClient
    with SaberServer(ServeConfig(port=0, stats_interval=None)) as server:
        with client_cls(*server.address, tenant="t") as client:
            client.register(WORKLOAD.stream, data.schema.spec)
            spec = client.submit(WORKLOAD.cql, name="q", windows=windows)["schema"]
            schema = Schema.parse(spec, name="q")
            for start in range(0, len(data), PUSH_ROWS):
                part = data.slice(start, min(start + PUSH_ROWS, len(data)))
                client.push(WORKLOAD.stream, part if binary else batch_to_rows(part))
            client.close_stream(WORKLOAD.stream)
            chunks, done, deadline = [], False, time.monotonic() + 60.0
            while not done:
                assert time.monotonic() < deadline, "query did not complete"
                if windows:
                    more, done = client.window_results("q", timeout=2.0)
                else:
                    rows, done = client.results("q", timeout=2.0)
                    more = [(None, rows_to_batch(schema, r)) for r in rows]
                chunks.extend(more)
    return chunks


def windows_in_order(chunks):
    wids = [int(w) for w, _ in chunks]
    assert wids == sorted(set(wids)), "windows out of order or repeated"
    return concat(b for _, b in chunks)


PATHS = {
    "handle-results": lambda data: local(data, lambda h: concat(h.results())),
    "handle-drain": lambda data: local(
        data, lambda h: concat(b for w, b in drain_handle(h) if w is None)
    ),
    "handle-windows": lambda data: windows_in_order(
        local(data, drain_handle, windows=True)
    ),
    "serve-binary": lambda data: concat(b for _, b in served(data, ServeClient, False)),
    "serve-json": lambda data: concat(b for _, b in served(data, JsonClient, False)),
    "window-results-binary": lambda data: windows_in_order(served(data, ServeClient, True)),
    "window-results-json": lambda data: windows_in_order(served(data, JsonClient, True)),
    "cluster-local": lambda data: run_cluster(WORKLOAD, data, shards=2)[0],
    "cluster-serve": pytest.param(
        lambda data: run_cluster(WORKLOAD, data, shards=2, transport="serve")[0],
        marks=pytest.mark.slow,
    ),
}


@pytest.mark.parametrize("path", PATHS.values(), ids=PATHS.keys())
def test_every_path_hands_over_the_single_engine_bytes(path, data, reference):
    out = path(data)
    assert reference is not None and out is not None
    assert out.data.dtype == reference.data.dtype
    assert out.data.tobytes() == reference.data.tobytes()
