"""The SPL stream in columns, and the fast path of its parser.

The SPL stream (one reading every 3 s per terminal) is the only input that
grows with the data, so it is held in columns, not as one object per
reading: ``SplColumns`` keeps a terminal code per sample (indexing the
sorted terminal ids), a ``datetime64[us]`` timestamp and a float64 level,
each column read-only. It is the stream's only type: the parser returns it,
and the writer, the validator and the LAeq stage take it.

``parse_chunk`` is the fast path of ``ingest.parse_spl``: it turns one chunk
of canonical rows into columns with array operations, or returns None when
any row needs the row parser (see ``ingest`` for the fallback rule).
``SplBuilder`` joins the chunks of both paths into one ``SplColumns``.
"""

from __future__ import annotations

from collections.abc import Sequence
from datetime import datetime, timedelta

import numpy as np

LEVEL_MIN_DBA = 0.0
LEVEL_MAX_DBA = 140.0

_US_PER_HOUR = 3_600_000_000

# the canonical timestamp YYYY-MM-DDTHH:MM:SS: where its separators sit, and
# its digits
_TS_SEPARATOR_AT = [4, 7, 10, 13, 16]
_TS_SEPARATORS = np.frombuffer(b"--T::", np.uint8)
_TS_DIGIT_AT = [i for i in range(19) if i not in _TS_SEPARATOR_AT]


class SplColumns:
    """A read-only SPL stream held in columns.

    ``names`` are the distinct terminal ids in sorted order and ``codes``
    index into them; ``times`` are ``datetime64[us]``, the resolution of
    ``datetime``; ``levels`` are float64. ``len`` is the number of samples.
    """

    __slots__ = ("names", "codes", "times", "levels")

    def __init__(self, names: Sequence[str], codes: np.ndarray, times: np.ndarray, levels: np.ndarray):
        self.names = tuple(names)
        self.codes = codes
        self.times = times
        self.levels = levels
        for column in (codes, times, levels):
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.levels)

    def __repr__(self) -> str:
        return f"SplColumns({len(self)} samples at {', '.join(self.names)})"

    def hour_groups(self) -> tuple[np.ndarray, np.ndarray, list[tuple[str, datetime]]]:
        """Group the samples by (terminal, hour start) with one stable sort.

        Returns the sorting permutation, the start of each group in it, and
        the groups' keys, sorted by terminal id and then hour.
        """
        if not len(self):
            return np.zeros(0, np.intp), np.zeros(0, np.intp), []
        hours = self.times.view(np.int64) // _US_PER_HOUR
        first = int(hours.min())
        span = int(hours.max()) - first + 1
        key = self.codes.astype(np.int64) * span + (hours - first)
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        epoch = datetime(1970, 1, 1)
        keys = [
            (self.names[k // span], epoch + timedelta(hours=first + k % span))
            for k in key[starts].tolist()
        ]
        return order, starts, keys


def parse_chunk(text: str, n: int):
    """(terminal ids, microseconds since 1970, levels) of the ``n`` rows in
    ``text``, or None when any row needs the row parser: a blank line, a
    row without exactly 3 fields, a timestamp other than the canonical
    ``YYYY-MM-DDTHH:MM:SS``, a non-ASCII character, or a level that
    ``float()`` rejects or that lies outside [0, 140]."""
    if not text.endswith("\n"):
        text += "\n"  # the last line of the file
    try:
        buf = np.frombuffer(text.encode("ascii"), np.uint8)
    except UnicodeEncodeError:
        return None
    # n newlines, each the third separator of its row: exactly 3 fields a row
    seps = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    if seps.size != 3 * n:
        return None
    seps = seps.reshape(n, 3)
    if (buf[seps[:, 2]] != ord("\n")).any():
        return None

    ts_at = seps[:, 0] + 1
    if (seps[:, 1] - ts_at != 19).any():
        return None
    ts = buf[ts_at[:, None] + np.arange(19)]
    digits = ts[:, _TS_DIGIT_AT] - ord("0")  # uint8: a non-digit wraps above 9
    if (ts[:, _TS_SEPARATOR_AT] != _TS_SEPARATORS).any() or (digits > 9).any():
        return None
    d = digits.astype(np.int64)
    year = d[:, 0] * 1000 + d[:, 1] * 100 + d[:, 2] * 10 + d[:, 3]
    month, day, hour, minute, second = (d[:, k] * 10 + d[:, k + 1] for k in range(4, 14, 2))
    months = (year - 1970) * 12 + month - 1
    first_day = months.astype("datetime64[M]").astype("datetime64[D]").view(np.int64)
    month_days = (months + 1).astype("datetime64[M]").astype("datetime64[D]").view(np.int64) - first_day
    valid = ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
             & (hour <= 23) & (minute <= 59) & (second <= 59))
    if not valid.all():
        return None
    seconds = (first_day + day - 1) * 86400 + hour * 3600 + minute * 60 + second

    fields = text.replace("\n", ",").split(",")  # 3n fields and a last empty one
    try:
        levels = np.fromiter(map(float, fields[2::3]), np.float64, n)
    except ValueError:
        return None
    if not ((levels >= LEVEL_MIN_DBA) & (levels <= LEVEL_MAX_DBA)).all():
        return None
    return fields[0:-1:3], seconds * 1_000_000, levels


class SplBuilder:
    """Collects SPL columns chunk by chunk; terminal codes are renumbered to
    the sorted terminal ids at the end."""

    def __init__(self):
        self.code_of: dict[str, int] = {}
        self.codes: list[np.ndarray] = []
        self.micros: list[np.ndarray] = []
        self.levels: list[np.ndarray] = []

    def add(self, ids: list[str], micros: np.ndarray, levels: np.ndarray) -> None:
        for name in set(ids).difference(self.code_of):
            self.code_of[name] = len(self.code_of)
        self.codes.append(np.fromiter(map(self.code_of.__getitem__, ids), np.int32, len(ids)))
        self.micros.append(micros)
        self.levels.append(levels)

    def build(self) -> SplColumns:
        names = sorted(self.code_of)
        rank = {name: i for i, name in enumerate(names)}
        renumber = np.array([rank[name] for name in self.code_of], dtype=np.int32)
        return SplColumns(
            names,
            renumber[np.concatenate(self.codes)] if self.codes else np.zeros(0, np.int32),
            np.concatenate(self.micros or [np.zeros(0, np.int64)]).view("datetime64[us]"),
            np.concatenate(self.levels or [np.zeros(0)]),
        )
