"""Hourly equivalent continuous sound levels from 3-second samples.

The pipeline keeps only samples strictly above the retention threshold
(default 60 dBA, the level at which aircraft noise starts to interfere with
speech), then energy-averages the retained levels per terminal-hour. Hours
whose samples all fall at or below the threshold carry an explicitly absent
level: 0 dBA is a valid physical reading, so absence is never encoded as a
number.

``hourly_series`` takes the SPL stream in its only form, ``spl.SplColumns``:
its one stable sort by (terminal, time) groups the samples by hour, and each
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

import numpy as np

from . import tables
from .errors import EmptyInput
from .ingest import SAMPLES_PER_HOUR_NOMINAL
from .spl import SplColumns
from .tables import DEFAULT_RETENTION_DBA


@dataclass(frozen=True, slots=True)
class HourlyLaeq:
    nmt_id: str
    hour_start: datetime
    laeq: float | None
    n_retained: int
    completeness: float


def laeq(levels: list[float]) -> float:
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
    samples: SplColumns,
    retention: float = DEFAULT_RETENTION_DBA,
) -> list[HourlyLaeq]:
    """Per (terminal, hour) LAeq over the samples strictly above ``retention``.

    ``float("-inf")`` retains every sample. Every (terminal, hour) that
    appears in ``samples`` yields a record; hours with zero retained samples
    get ``laeq=None`` and ``n_retained=0``. Completeness counts all samples,
    retained or not, against the nominal 1200 per hour. Output is sorted by
    (terminal, hour).
    """
    order, starts, keys, _ = samples.hour_groups()
    levels = samples.levels[order]
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


HOURLY_LAEQ_HEADER = ("nmt_id", "hour_start", "laeq_dba", "n_retained", "completeness")


def write_hourly_laeq(series: list[HourlyLaeq], path) -> None:
    """hourly_laeq.csv; an absent LAeq is an empty field."""
    tables.write(path, HOURLY_LAEQ_HEADER, (
        (h.nmt_id, tables.hour(h.hour_start), h.laeq, h.n_retained, h.completeness) for h in series
    ))


def read_hourly_laeq(path) -> list[HourlyLaeq]:
    """Inverse of write_hourly_laeq; a torn file raises MalformedRow."""
    _, rows = tables.read(path, HOURLY_LAEQ_HEADER)
    return [
        HourlyLaeq(nmt_id, datetime.fromisoformat(hour), None if level == "" else float(level), int(n), float(c))
        for nmt_id, hour, level, n, c in rows
    ]
