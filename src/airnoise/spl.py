"""The SPL stream in columns, and the fast path of its parser.

The SPL stream (one reading every 3 s per terminal) is the only input that
grows with the data, so it is held in columns, not as one object per
reading: ``SplColumns`` keeps a terminal code per sample (indexing the
sorted terminal ids), a ``datetime64[us]`` timestamp and a float64 level,
each column read-only. It is the stream's only type: the parser returns it,
and the writer, the validator and the LAeq stage take it.

``parse_block`` is the fast path of ``ingest.parse_spl``: it turns one block
of the file's bytes into columns with array operations, reading each level
exactly by Clinger's fast path, or returns None when any row needs the row
parser (see ``ingest`` for the fallback rule). ``SplBuilder`` joins the
blocks of both paths into one ``SplColumns``.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from datetime import datetime, timedelta

import numpy as np

LEVEL_MIN_DBA = 0.0
LEVEL_MAX_DBA = 140.0

_US_PER_HOUR = 3_600_000_000

# bytes of a row of spl.csv
_COMMA, _NEWLINE, _DOT, _ZERO = b",\n.0"
# zero bytes after a block: the words read for a row with a level shorter
# than the block's widest reach up to 21 bytes past the row's end
_PAD = 24

# the canonical timestamp YYYY-MM-DDTHH:MM:SS: its bytes less each
# position's lowest allowed byte must not exceed the position's range
_TS_ZERO = np.frombuffer(b"0000-00-00T00:00:00", np.uint8)
_TS_MAX = np.array([0 if c in b"-T:" else 9 for c in _TS_ZERO.tobytes()], np.uint8)
_TS_DIGIT_AT = np.flatnonzero(_TS_MAX)

# levels of at most this many digits are read on the fast path; 10^k for
# their k <= 14 fraction digits, each exact as a double
_LEVEL_DIGITS_MAX = 15
_POW10 = (10 ** np.arange(_LEVEL_DIGITS_MAX)).astype(np.float64)
_COLUMN = np.arange(_LEVEL_DIGITS_MAX + 1)


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


def parse_block(block: bytes):
    """(terminal ids, codes into them, microseconds since 1970, levels) of
    the rows of ``block``, or None when any row needs the row parser.

    ``block`` holds whole rows, with no quote character or carriage return (the
    caller checks these, as they decide how much of the file the row parser
    takes); a last row may lack its line end. A non-ASCII byte, or an id over
    the csv module's field size limit, gives None. A row takes this path when
    it has exactly 3 fields, the canonical timestamp ``YYYY-MM-DDTHH:MM:SS`` of
    a real calendar date, and a level in [0, 140] of the form ``D+`` or
    ``D+.D+`` with at most 15 digits. Any other level form (a sign, an
    exponent, ``_``, a space, a leading or trailing dot, 16 digits or more)
    goes to the row parser, whose ``float()`` decides it.

    Such a level is read exactly (Clinger, "How to read floating point
    numbers accurately", PLDI 1990; the fast path of Lemire, "Number parsing
    at a gigabyte per second", arXiv:2101.11408). Its digits, the dot
    dropped, form an integer w < 10^15 < 2^53, and its k fraction digits
    number at most 14, since at least one digit precedes the dot. Horner's
    rule in doubles gets w exactly, as every partial value is an integer
    below 10^15. So w and 10^k <= 10^14 are both doubles exactly, and the
    one IEEE division w / 10^k is the double nearest to the exact quotient,
    which is the decimal the level spells, with ties to even. ``float()``
    also returns the double nearest to that decimal with ties to even (it
    is correctly rounded), so the two are the same double, bit for bit;
    with no sign there is no -0.0.

    The work is a fixed number of array passes: the separators are found
    once in the whole block; each row's timestamp and level are read as
    8-byte words at its own offset (one gather per word) and taken apart
    per character column, the level by Horner's rule over its width; and
    each terminal id is packed from its bytes, with its length, into
    integer words. Equal packings are equal ids and only they, so ids of
    any length, ids that are prefixes of each other and ids holding a NUL
    byte all get their own code. Only runs of equal ids are compared
    further, and only each distinct id becomes a Python string.
    """
    if not block.isascii():
        return None
    if not block.endswith(b"\n"):
        block += b"\n"  # the last line of the file
    size = len(block)
    buf = np.frombuffer(block + bytes(_PAD), np.uint8)
    words = np.ndarray((size + _PAD - 7,), "<u8", buf, 0, (1,))  # the 8-byte word at each offset

    # n line ends, 3n separators, each row's third one a line end: so the
    # other two are commas, and every line has exactly 3 fields
    head = buf[:size]
    line_ends = head == _NEWLINE
    seps = np.flatnonzero((head == _COMMA) | line_ends)
    n = np.count_nonzero(line_ends)
    if len(seps) != 3 * n:
        return None
    id_end, ts_end, line_end = seps.reshape(n, 3).T
    if (buf[line_end] != _NEWLINE).any():
        return None
    ts_at = id_end + 1
    widths = line_end - ts_end - 1  # of the level
    if (ts_end - ts_at != 19).any() or widths.min() < 1 or widths.max() > _LEVEL_DIGITS_MAX + 1:
        return None

    # the bytes from each timestamp to its line end, byte q of every row in
    # row q: one gather per 8-byte word, then a transposing copy
    width = int(widths.max())
    tail = np.empty((-(-(20 + width) // 8), n), "<u8")
    for j in range(len(tail)):
        tail[j] = words[ts_at + 8 * j]
    chars = tail.view(np.uint8).reshape(len(tail), n, 8).transpose(0, 2, 1).reshape(-1, n)

    # the timestamp: every digit and separator in place, a real date
    ts = chars[:19] - _TS_ZERO[:, None]  # uint8: a digit's value; 0 at a separator
    if (ts > _TS_MAX[:, None]).any():
        return None
    d = ts[_TS_DIGIT_AT].astype(np.int32)
    year = d[0] * 1000 + d[1] * 100 + d[2] * 10 + d[3]
    month, day, hour, minute, second = (d[k] * 10 + d[k + 1] for k in range(4, 14, 2))
    # the first day of each month from the block's first to its last
    months = (year - 1970) * 12 + month - 1
    low = int(months.min())
    first_days = np.arange(low, int(months.max()) + 2).astype("datetime64[M]").astype("datetime64[D]").view(np.int64)
    months -= low
    first_day = first_days[months]
    valid = ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= first_days[months + 1] - first_day)
             & (hour <= 23) & (minute <= 59) & (second <= 59))
    if not valid.all():
        return None
    seconds = (first_day + day - 1) * 86400 + hour * 3600 + minute * 60 + second

    # the level: digits and at most one dot, a digit first and last, at
    # most 15 digits; then Horner's rule over its width
    chars = chars[20:20 + width]
    inside = _COLUMN[:width, None] < widths
    digit = ((chars - _ZERO) <= 9) & inside
    dot = (chars == _DOT) & inside
    if np.count_nonzero(digit) + np.count_nonzero(dot) != widths.sum():
        return None
    dot_at = (dot * _COLUMN[:width, None]).sum(axis=0)
    has_dot = dot_at > 0  # a leading dot sums to 0 too, so fails the dot count
    if np.count_nonzero(dot) != np.count_nonzero(has_dot) or (has_dot & (dot_at == widths - 1)).any() \
            or (widths - has_dot > _LEVEL_DIGITS_MAX).any():
        return None
    w = np.zeros(n)
    for j in range(width):
        w = np.where(digit[j], w * 10 + (chars[j] - _ZERO), w)
    levels = w / _POW10[np.where(has_dot, widths - 1 - dot_at, 0)]
    if (levels > LEVEL_MAX_DBA).any():
        return None

    # the terminal ids: each packed, with its length, into 8-byte words;
    # runs of equal packings, then the distinct ones among the runs
    starts = np.empty(n, np.intp)
    starts[0] = 0
    starts[1:] = line_end[:-1] + 1
    lengths = id_end - starts
    if lengths.max() > csv.field_size_limit():  # the row parser's error
        return None
    packs = [lengths.astype(np.uint64)]
    for j in range(0, int(lengths.max()), 8):
        drop = (8 * (8 - np.clip(lengths - j, 0, 8))).astype(np.uint64)  # bits past the id's end
        packs.append((words[np.minimum(starts + j, len(words) - 1)] << drop) >> drop)
    new_run = np.zeros(n, bool)
    new_run[0] = True
    for pack in packs:
        new_run[1:] |= pack[1:] != pack[:-1]
    run_at = np.flatnonzero(new_run)
    packed = np.stack([pack[run_at] for pack in packs], axis=1).view(np.dtype((np.void, 8 * len(packs))))
    _, first, run_code = np.unique(packed.ravel(), return_index=True, return_inverse=True)
    names = [block[starts[i]:id_end[i]].decode("ascii") for i in run_at[first].tolist()]
    codes = np.repeat(run_code.ravel(), np.diff(np.r_[run_at, n]))
    return names, codes, seconds * 1_000_000, levels


class SplBuilder:
    """Collects SPL columns chunk by chunk; terminal codes are renumbered to
    the sorted terminal ids at the end."""

    def __init__(self):
        self.code_of: dict[str, int] = {}
        self.codes: list[np.ndarray] = []
        self.micros: list[np.ndarray] = []
        self.levels: list[np.ndarray] = []

    def add(self, names: list[str], codes: np.ndarray, micros: np.ndarray, levels: np.ndarray) -> None:
        """Append a chunk whose row i is at terminal ``names[codes[i]]``."""
        own = [self.code_of.setdefault(name, len(self.code_of)) for name in names]
        self.codes.append(np.array(own, np.int32)[codes])
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
