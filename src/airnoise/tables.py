r"""The one format of every table the pipeline writes, and its reader.

A table is a header and rows of plain Python values, with hours already
formatted by ``hour``. ``write`` stores it in the format that the suffix
of its path names:

- csv: the ``csv`` module's dialect, with minimal quoting and ``\n`` line ends:
  only a cell that holds a comma, a quote or a line end is quoted. None is an
  empty field (an absent value is never 0 or NaN), a float is its ``repr``, the
  shortest text that reads back to the same float, and anything else its ``str``.
- json: an array of records, one object per row keyed by the header, with
  sorted keys and an indent of 1.

Every file goes to a temporary file beside its path, which then replaces the
path, so a reader never sees a partly written artifact. A write that fails
removes its temporary file and leaves the old artifact as it was.

The module also declares the few values that the command line and the layers
share: the operations of flights.csv, the tract-to-terminal mappings and the
default retention cut. They live here, with no numpy import, so that the
command line can declare its settings without loading a layer.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import os
from datetime import datetime
from itertools import chain
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Sequence

from .errors import MalformedRow

DEFAULT_RETENTION_DBA = 60.0

MAPPING_CONTAINING = "containing"
MAPPING_NEAREST_CENTROID = "nearest"


class Operation(enum.Enum):
    DEPARTURE = "DEPARTURE"
    ARRIVAL = "ARRIVAL"


def hour(ts: datetime) -> str:
    """An hour as a table cell: ISO 8601 to the minute."""
    return ts.isoformat(timespec="minutes")


def write_atomic(path, write) -> None:
    """``write(fh)`` into a temporary file beside ``path``, which then
    replaces ``path``; if anything fails, the temporary file is removed."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    write_atomic(path, lambda fh: fh.write(text))


def write_json(path, doc) -> None:
    write_text(path, json.dumps(doc, sort_keys=True, indent=1))


def write(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write the table ``header`` + ``rows`` to ``path``, as json if its
    suffix is ``.json`` and as csv otherwise, the same rule ``read`` uses."""
    if Path(path).suffix == ".json":
        write_json(path, [dict(zip(header, row)) for row in rows])
        return
    rows = chain([header], rows)
    write_atomic(path, lambda fh: csv_writer(lambda line: fh.write(line + "\n")).writerows(rows))


def csv_writer(write):
    r"""A ``csv.writer`` that passes each row, without its line end, to
    ``write``. Rows end in "\r\n" inside it, so that it quotes a "\r" as it
    does a "\n": the csv module of Python 3.11 quotes only its line end's."""
    return csv.writer(SimpleNamespace(write=lambda line: write(line[:-2])), lineterminator="\r\n")


def read(path, header: Sequence[str | None]) -> tuple[list[str], list[list]]:
    """The header and rows of a table that ``write`` wrote to ``path``, in
    the format its suffix names. ``header`` is the columns the table must
    have, in order; in csv, a column given as None may have any name. A csv
    cell is the str written; a json cell is the value written.

    A torn or foreign table raises MalformedRow: a wrong header, a row
    without its fields, a stray quote, or a last csv row with no line end.
    """
    path = Path(path)
    text = path.read_bytes().decode("utf-8")  # a "\r" in a quoted cell stays
    if path.suffix == ".json":
        return list(header), _records(text, header)
    if not text.endswith("\n"):
        raise MalformedRow(text.count("\n") + 1, "row cut short: no line end")
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    try:
        names = next(reader, [])
        if len(names) != len(header) or any(want is not None and want != got for want, got in zip(header, names)):
            raise MalformedRow(1, "expected header " + ",".join(want or "*" for want in header))
        rows = []
        for fields in reader:
            if len(fields) != len(names):
                raise MalformedRow(reader.line_num, f"expected {len(names)} fields, got {len(fields)}")
            rows.append(fields)
    except csv.Error as exc:
        raise MalformedRow(reader.line_num, str(exc)) from None
    return names, rows


def _records(text: str, header: Sequence[str]) -> list[list]:
    """The rows of a json table, in ``header`` order."""
    try:
        records = json.loads(text)
    except ValueError:
        raise MalformedRow(1, "not a JSON document") from None
    if not isinstance(records, list):
        raise MalformedRow(1, "expected an array of records")
    keys = set(header)
    for number, record in enumerate(records, start=1):
        if not isinstance(record, dict) or set(record) != keys:
            raise MalformedRow(number, "record keys differ from the header")
    return [[record[name] for name in header] for record in records]
