"""Hourly equivalent continuous sound levels from 3-second samples.

The pipeline keeps only samples strictly above the retention threshold
(default 60 dBA, the level at which aircraft noise starts to interfere with
speech), then energy-averages the retained levels per terminal-hour. Hours
whose samples all fall at or below the threshold carry an explicitly absent
level: 0 dBA is a valid physical reading, so absence is never encoded as a
number.

``hourly_series`` works on the columnar SPL stream (``spl.SplColumns``):
one stable sort on a (terminal, hour) key groups the samples, and each
group's retained levels go through ``laeq``. Only the grouping is
vectorised. Each power stays Python's ``10.0 ** ((lv - peak) / 10.0)``,
summed with ``math.fsum``: ``np.power`` may take a SIMD code path whose last
bit differs from the C library's ``pow`` (on one AVX-512 machine it did for
14,706 of 288,000 powers), and that would move the bytes of
``hourly_laeq.csv`` and of everything computed from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyInput, MalformedRow
from .ingest import SAMPLES_PER_HOUR_NOMINAL
from .spl import SplColumns, SplSample

DEFAULT_RETENTION_DBA = 60.0


@dataclass(frozen=True, slots=True)
class HourlyLaeq:
    nmt_id: str
    hour_start: datetime
    laeq: float | None
    n_retained: int
    completeness: float


def retain_above(samples: Sequence[SplSample], threshold: float) -> list[SplSample]:
    """Samples with level strictly greater than ``threshold``, order preserved.

    ``float("-inf")`` is the documented sentinel for "retention disabled":
    every sample passes. NaN thresholds are rejected.
    """
    if math.isnan(threshold):
        raise ValueError("retention threshold must not be NaN")
    return [s for s in samples if s.level > threshold]


def laeq(levels: Sequence[float]) -> float:
    """Energy mean 10*log10(mean(10**(L/10))) of a non-empty level list.

    Summation happens in linear power units relative to the maximum level, so
    a constant input returns that constant exactly and wide dynamic ranges do
    not overflow. math.fsum makes the reduction exactly rounded and therefore
    independent of chunking or sample order.
    """
    if len(levels) == 0:
        raise EmptyInput("laeq of an empty level list")
    peak = max(levels)
    if not math.isfinite(peak):
        raise ValueError("levels must be finite")
    total = math.fsum(10.0 ** ((lv - peak) / 10.0) for lv in levels)
    return peak + 10.0 * math.log10(total / len(levels))


def hourly_series(
    samples: Iterable[SplSample],
    retention: float = DEFAULT_RETENTION_DBA,
) -> list[HourlyLaeq]:
    """Per (terminal, hour) LAeq over retained samples.

    Every (terminal, hour) that appears in ``samples`` yields a record; hours
    with zero retained samples get ``laeq=None`` and ``n_retained=0``.
    Completeness counts all samples, retained or not, against the nominal
    1200 per hour. Output is sorted by (terminal, hour).
    """
    columns = SplColumns.from_samples(samples)
    order, starts, keys = columns.hour_groups()
    levels = columns.levels[order]
    ends = np.r_[starts[1:], len(levels)].tolist()
    out = []
    for (nmt_id, hour), start, end in zip(keys, starts.tolist(), ends):
        group = levels[start:end]
        retained = group[group > retention].tolist()
        out.append(HourlyLaeq(
            nmt_id=nmt_id,
            hour_start=hour,
            laeq=laeq(retained) if retained else None,
            n_retained=len(retained),
            completeness=(end - start) / SAMPLES_PER_HOUR_NOMINAL,
        ))
    return out


HOURLY_LAEQ_HEADER = "nmt_id,hour_start,laeq_dba,n_retained,completeness"


def write_hourly_laeq(series: Iterable[HourlyLaeq], dest) -> None:
    """Emit hourly_laeq.csv; an absent LAeq is an empty field."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_hourly_laeq(series, fh)
        return
    dest.write(HOURLY_LAEQ_HEADER + "\n")
    for h in series:
        level = "" if h.laeq is None else repr(h.laeq)
        dest.write(f"{h.nmt_id},{h.hour_start.isoformat(timespec='minutes')},{level},{h.n_retained},{h.completeness!r}\n")


def read_hourly_laeq(source) -> list[HourlyLaeq]:
    """Inverse of write_hourly_laeq.

    A torn file raises MalformedRow: a wrong header, a row without its five
    fields, or a last row without its line end.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            return read_hourly_laeq(fh)
    text = source.read()
    lines = text.splitlines()
    if not lines or lines[0] != HOURLY_LAEQ_HEADER:
        raise MalformedRow(1, f"expected header {HOURLY_LAEQ_HEADER}")
    if not text.endswith("\n"):
        raise MalformedRow(len(lines), "row cut short: no line end")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 5:
            raise MalformedRow(lineno, f"expected 5 fields, got {len(fields)}")
        nmt_id, hour, level, n_ret, comp = fields
        out.append(HourlyLaeq(
            nmt_id=nmt_id,
            hour_start=datetime.fromisoformat(hour),
            laeq=None if level == "" else float(level),
            n_retained=int(n_ret),
            completeness=float(comp),
        ))
    return out
