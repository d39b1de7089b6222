"""Record conversion: Python rows ↔ packed tuple batches ↔ text lines.

Connectors speak three dialects of the same data:

* **batches** — the engine's packed :class:`TupleBatch`;
* **rows** — Python dicts (by attribute name) or sequences (in schema
  order), the shape ``session.push`` and file/socket lines carry;
* **lines** — the JSONL / CSV text encodings used by the file-replay
  and TCP line-protocol connectors.

Numeric fidelity matters for the replay-equivalence guarantee: values
are converted through Python floats (IEEE-754 doubles), which represent
every ``float32`` exactly and round-trip exactly through ``repr`` — so
a batch written to JSONL/CSV and replayed is *byte-identical* to the
original.
"""

from __future__ import annotations

import csv
import io
import json
from operator import itemgetter
from typing import Any, Iterable, Sequence

import numpy as np

from ..errors import ValidationError
from ..relational.schema import Schema
from ..relational.tuples import TupleBatch

__all__ = [
    "as_batch",
    "rows_to_batch",
    "batch_to_rows",
    "batch_to_jsonl",
    "batch_to_csv",
    "jsonl_to_rows",
    "csv_to_rows",
]


def as_batch(schema: Schema, records: Any) -> TupleBatch:
    """Coerce pushable records into a :class:`TupleBatch`.

    Accepts a batch (schema-checked), a numpy structured array, or an
    iterable of rows (dicts keyed by attribute name, or sequences in
    schema order).
    """
    if isinstance(records, TupleBatch):
        if records.schema.dtype != schema.dtype:
            raise ValidationError(
                f"pushed batch has schema {records.schema.name!r}, "
                f"stream expects {schema.name!r}"
            )
        return records
    if isinstance(records, np.ndarray):
        return TupleBatch(schema, records)
    if isinstance(records, (str, bytes)):
        raise ValidationError(
            "push records as rows/batches, not raw text; use the file or "
            "socket connectors for encoded data"
        )
    return rows_to_batch(schema, records)


def rows_to_batch(schema: Schema, rows: Iterable[Any]) -> TupleBatch:
    """Build a batch from dict rows (by name) or sequence rows (by order).

    Rows that are all tuples, all lists or all dicts are packed by one
    ``np.array`` call; anything that call rejects takes the row-by-row
    path, which converts column by column (numpy applies the same
    per-value conversions either way) and names the offending row or
    attribute in its :class:`ValidationError`.
    """
    rows = rows if isinstance(rows, list) else list(rows)
    kinds = set(map(type, rows))
    if len(kinds) == 1 and kinds <= {tuple, list, dict}:
        try:
            data = np.array(_as_tuples(schema, rows, kinds.pop()), dtype=schema.dtype)
        except (ValueError, TypeError, OverflowError, KeyError):
            pass
        else:
            return TupleBatch(schema, data)
    return _rows_to_batch_by_row(schema, rows)


def _as_tuples(schema: Schema, rows: "list[Any]", kind: type) -> "list[tuple]":
    """Homogeneous rows as the tuples a structured ``np.array`` takes."""
    if kind is tuple:
        return rows
    if kind is list:
        return list(map(tuple, rows))
    names = schema.attribute_names
    if len(names) == 1:
        return [(row[names[0]],) for row in rows]
    return list(map(itemgetter(*names), rows))


def _rows_to_batch_by_row(schema: Schema, rows: "list[Any]") -> TupleBatch:
    """Row-at-a-time validation and column-wise conversion."""
    names = schema.attribute_names
    columns: "dict[str, list]" = {n: [] for n in names}
    count = 0
    for row in rows:
        count += 1
        if isinstance(row, dict):
            try:
                for n in names:
                    columns[n].append(row[n])
            except KeyError as exc:
                raise ValidationError(
                    f"row {count} is missing attribute {exc.args[0]!r} of "
                    f"schema {schema.name!r}"
                ) from None
        elif isinstance(row, Sequence) and not isinstance(row, (str, bytes)):
            if len(row) != len(names):
                raise ValidationError(
                    f"row {count} has {len(row)} values; schema "
                    f"{schema.name!r} has {len(names)} attributes"
                )
            for n, value in zip(names, row):
                columns[n].append(value)
        else:
            raise ValidationError(
                f"row {count} is a {type(row).__name__}; expected a dict or "
                "a sequence of attribute values"
            )
    data = np.empty(count, dtype=schema.dtype)
    for attr in schema.attributes:
        try:
            data[attr.name] = np.asarray(columns[attr.name], dtype=attr.dtype)
        except (ValueError, TypeError, OverflowError) as exc:
            # Typed so connector threads surface corruption instead of
            # dying on a bare ValueError (read as a clean end-of-stream).
            raise ValidationError(
                f"attribute {attr.name!r} of schema {schema.name!r} cannot "
                f"be converted to {attr.type_name}: {exc}"
            ) from None
    return TupleBatch(schema, data)


def batch_to_rows(batch: TupleBatch) -> "list[dict[str, Any]]":
    """Materialise a batch as dict rows of plain Python scalars."""
    names = batch.schema.attribute_names
    columns = [batch.data[n].tolist() for n in names]
    return [dict(zip(names, values)) for values in zip(*columns)]


# -- text encodings ----------------------------------------------------------


def batch_to_jsonl(batch: TupleBatch) -> str:
    """One JSON object per line, keyed by attribute name."""
    return "".join(
        json.dumps(row, separators=(",", ":")) + "\n"
        for row in batch_to_rows(batch)
    )


def batch_to_csv(batch: TupleBatch, header: bool = False) -> str:
    """CSV lines with values in schema order (header optional)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if header:
        writer.writerow(batch.schema.attribute_names)
    names = batch.schema.attribute_names
    columns = [batch.data[n].tolist() for n in names]
    writer.writerows(zip(*columns))
    return out.getvalue()


def jsonl_to_rows(schema: Schema, lines: Iterable[str]) -> "list[dict]":
    """Parse JSONL lines into dict rows (blank lines skipped)."""
    rows = []
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"line {i + 1} is not valid JSON for stream "
                f"{schema.name!r}: {exc}"
            ) from None
        if not isinstance(row, dict):
            raise ValidationError(
                f"line {i + 1}: expected a JSON object, got "
                f"{type(row).__name__}"
            )
        rows.append(row)
    return rows


def csv_to_rows(schema: Schema, lines: Iterable[str]) -> "list[dict]":
    """Parse CSV lines (values in schema order; header auto-skipped)."""
    names = schema.attribute_names
    rows = []
    for values in csv.reader(lines):
        if not values:
            continue
        if tuple(values) == names:  # header line
            continue
        if len(values) != len(names):
            raise ValidationError(
                f"CSV row has {len(values)} values; schema {schema.name!r} "
                f"has {len(names)} attributes"
            )
        row = {}
        for attr, text in zip(schema.attributes, values):
            kind = attr.dtype.kind
            try:
                row[attr.name] = int(text) if kind == "i" else float(text)
            except ValueError:
                raise ValidationError(
                    f"CSV value {text!r} is not a valid {attr.type_name} "
                    f"for attribute {attr.name!r} of schema {schema.name!r}"
                ) from None
        rows.append(row)
    return rows
