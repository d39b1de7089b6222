"""File connectors: JSONL/CSV replay sources and file sinks.

:class:`FileReplaySource` replays a recorded stream through the pull
SPI, optionally paced by a :class:`ReplayClock` so a trace recorded at
production rates can be re-ingested at a controlled tuples-per-second
rate (or as fast as the dispatcher pulls, the default).

Replay is *exact*: values round-trip through text encodings without
loss (see :mod:`repro.io.records`), so a workload replayed from a file
produces byte-identical query results to the same data served from
memory — the acceptance property the equivalence tests pin.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable

from ..errors import EndOfStream, IngestInterrupted, ValidationError, choice, positive_finite
from ..relational.schema import Schema
from ..relational.tuples import TupleBatch
from .base import SourceConnector, SinkConnector
from .records import batch_to_csv, batch_to_jsonl, csv_to_rows, jsonl_to_rows, rows_to_batch

__all__ = [
    "ReplayClock",
    "FileReplaySource",
    "FileSink",
    "detect_format",
    "write_batch",
]

#: the line formats files and sockets speak.
FORMATS = ("jsonl", "csv")
#: sleep quantum while pacing, so stop requests interrupt promptly.
_SLEEP_QUANTUM = 0.02


def detect_format(path: "str | Path", format: "str | None") -> str:
    """Resolve an explicit or suffix-derived line format."""
    if format is not None:
        return choice(FORMATS)(format, "format")
    suffix = Path(path).suffix.lower()
    if suffix in (".jsonl", ".ndjson", ".json"):
        return "jsonl"
    if suffix == ".csv":
        return "csv"
    raise ValidationError(
        f"cannot infer format from {Path(path).name!r}; pass format='jsonl' "
        "or format='csv'"
    )


class ReplayClock:
    """Token-bucket pacing for replayed streams.

    ``rate`` is tuples per wall-clock second.  ``pace(n)`` blocks until
    the bucket admits ``n`` more tuples, polling ``stop_check`` so an
    engine stop interrupts a paced replay.  Injectable time functions
    keep tests fast.
    """

    def __init__(
        self,
        rate: float,
        now: "Callable[[], float]" = time.monotonic,
        sleep: "Callable[[float], None]" = time.sleep,
    ) -> None:
        self.rate = float(positive_finite(rate, "rate"))
        self._now = now
        self._sleep = sleep
        self._start: "float | None" = None
        self._released = 0

    def pace(self, tuples: int, stop_check: "Callable[[], bool] | None" = None) -> None:
        if self._start is None:
            self._start = self._now()
        self._released += tuples
        due = self._start + self._released / self.rate
        while True:
            delay = due - self._now()
            if delay <= 0:
                return
            if stop_check is not None and stop_check():
                raise IngestInterrupted("paced replay interrupted by engine stop")
            self._sleep(min(delay, _SLEEP_QUANTUM))


class FileReplaySource(SourceConnector):
    """Replays a JSONL/CSV file as a finite stream.

    Lines are parsed lazily in ``next_tuples``-sized gulps; end of file
    raises :class:`~repro.errors.EndOfStream` with the final short
    batch.  ``rate`` (tuples/second) enables paced replay via a
    :class:`ReplayClock`; pass ``clock`` to share or fake the pacer.
    """

    def __init__(
        self,
        path: "str | Path",
        schema: Schema,
        format: "str | None" = None,
        rate: "float | None" = None,
        clock: "ReplayClock | None" = None,
    ) -> None:
        self.path = Path(path)
        self.schema = schema
        self.format = detect_format(path, format)
        if not self.path.exists():
            # Eager, like source validation: a typo'd path must fail at
            # construction, not deep inside dispatch on the first pull.
            raise ValidationError(f"replay file {str(self.path)!r} does not exist")
        if clock is None and rate is not None:
            clock = ReplayClock(rate)
        self._clock = clock
        self._file = None
        self._exhausted = False

    def open(self) -> None:
        if self._file is None:
            self._file = self.path.open("r", encoding="utf-8")

    def close(self) -> None:
        """End the stream and release the file.

        Closing mid-replay is terminal (the next pull sees end-of-stream)
        — a half-consumed replay must not silently rewind to line 0.
        """
        self._exhausted = True
        self._release_file()

    def _release_file(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def _read_rows(self, count: int) -> "list[dict]":
        """Parse up to ``count`` rows from the file (skipping blanks)."""
        parse = jsonl_to_rows if self.format == "jsonl" else csv_to_rows
        rows: "list[dict]" = []
        while len(rows) < count:
            lines = []
            while len(lines) < count - len(rows):
                line = self._file.readline()
                if not line:
                    break
                lines.append(line)
            if not lines:
                break
            rows.extend(parse(self.schema, lines))
        return rows

    def next_tuples(self, count: int) -> TupleBatch:
        if self._exhausted:
            raise EndOfStream(None)
        self.open()
        rows = self._read_rows(count)
        if self._clock is not None and rows:
            self._clock.pace(len(rows), stop_check=self._stop_requested)
        if len(rows) == count:
            return rows_to_batch(self.schema, rows)
        self._exhausted = True
        self._release_file()
        tail = rows_to_batch(self.schema, rows) if rows else None
        raise EndOfStream(tail)


class FileSink(SinkConnector):
    """Appends query output chunks to a JSONL or CSV file.

    CSV files start with a header row naming the output attributes;
    JSONL rows are self-describing.  The file handle opens lazily on
    attach and flushes per chunk, so a replayed pipeline's output is
    tail-able while it runs.
    """

    def __init__(self, path: "str | Path", format: "str | None" = None) -> None:
        self.path = Path(path)
        self.format = detect_format(path, format)
        self.schema: "Schema | None" = None
        self._file = None
        self.rows_written = 0

    def open(self, schema: Schema) -> None:
        self.schema = schema
        if self._file is None:
            self._file = self.path.open("w", encoding="utf-8")
            if self.format == "csv":
                self._file.write(",".join(schema.attribute_names) + "\n")

    def write(self, batch: TupleBatch) -> None:
        if self._file is None:
            self.open(batch.schema)
        encode = batch_to_jsonl if self.format == "jsonl" else batch_to_csv
        self._file.write(encode(batch))
        self._file.flush()
        self.rows_written += len(batch)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


def write_batch(path: "str | Path", batch: TupleBatch, format: "str | None" = None) -> Path:
    """Record a batch to a JSONL/CSV file (the replay-side inverse)."""
    path = Path(path)
    resolved = detect_format(path, format)
    with path.open("w", encoding="utf-8") as f:
        if resolved == "csv":
            f.write(batch_to_csv(batch, header=True))
        else:
            f.write(batch_to_jsonl(batch))
    return path
