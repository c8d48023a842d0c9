"""Cross-dataset validation utilities: district aggregation, agreement
coefficients, hour-over-hour changes and diurnal-profile classification.

Counts are plain values: a tract's or a district's counts are a mapping from
hour to count, in which a missing hour is an unknown count, never 0.
"""

from __future__ import annotations

import enum
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    LengthMismatch,
    NonPositiveValue,
    UnmappedTract,
    WrongLength,
    ZeroVariance,
)


def aggregate_to_district(
    by_tract: Mapping[str, Mapping[object, float]],
    district_of: Mapping[str, str],
) -> dict[str, dict[object, float]]:
    """Sum tract counts into district counts, hour by hour: ``{district:
    {hour: total}}``, districts and hours sorted.

    Every district of ``district_of`` is in the result, and has an hour only
    when each of its tracts has a count at that hour: a missing count is
    unknown, not 0. Every tract of ``by_tract`` must be mapped.
    """
    for tract in sorted(by_tract):
        if tract not in district_of:
            raise UnmappedTract(f"tract {tract!r} has no district")
    members: dict[str, list[str]] = {}
    for tract, district in sorted(district_of.items()):
        members.setdefault(district, []).append(tract)
    out = {}
    for district, tracts in sorted(members.items()):
        hours = set.intersection(*(set(by_tract.get(t, ())) for t in tracts))
        out[district] = {h: sum(by_tract[t][h] for t in tracts) for h in sorted(hours)}
    return out


def r_squared(a: Sequence[float], b: Sequence[float]) -> float:
    """Squared Pearson correlation between two equally long series.

    This is the symmetric agreement measure for two providers' counts (not a
    regression R^2 against a fitted line); it is invariant to positive affine
    rescaling of either series.
    """
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise LengthMismatch(f"series lengths differ: {x.size} vs {y.size}")
    if x.size < 2:
        raise LengthMismatch("need at least 2 points")
    dx = x - x.mean()
    dy = y - y.mean()
    vx = float(np.dot(dx, dx))
    vy = float(np.dot(dy, dy))
    if vx == 0.0 or vy == 0.0:
        raise ZeroVariance("a constant series has no correlation")
    r = float(np.dot(dx, dy)) / np.sqrt(vx * vy)
    return float(min(r * r, 1.0))


def pct_change(values: Sequence[float]) -> list[float]:
    """Percentage change from the previous value: (v_t - v_{t-1}) / v_{t-1} * 100."""
    if len(values) < 2:
        raise LengthMismatch("need at least 2 values")
    if any(v <= 0 for v in values):
        raise NonPositiveValue("pct_change requires strictly positive values")
    return [(b - a) / a * 100.0 for a, b in zip(values, values[1:])]


class DiurnalClass(enum.Enum):
    DAYTIME_PEAK = "DAYTIME_PEAK"
    NIGHTTIME_PEAK = "NIGHTTIME_PEAK"
    FLAT = "FLAT"


DAY_WINDOW = tuple(range(8, 18))                      # 08:00-18:00
NIGHT_WINDOW = tuple(list(range(20, 24)) + list(range(0, 6)))  # 20:00-06:00


def classify_diurnal(values: Sequence[float | None]) -> DiurnalClass | None:
    """Label a 24-hour profile by where its population mass sits.

    DAYTIME_PEAK when the 08:00-18:00 mean exceeds the 20:00-06:00 mean by
    more than 10 % (relative), NIGHTTIME_PEAK for the reverse, FLAT
    otherwise. None when an hour of either window has no value (None); the
    hours outside both are not read.
    """
    if len(values) != 24:
        raise WrongLength(f"need 24 hourly values, got {len(values)}")
    if any(values[h] is None for h in DAY_WINDOW + NIGHT_WINDOW):
        return None
    day = float(np.mean([values[h] for h in DAY_WINDOW]))
    night = float(np.mean([values[h] for h in NIGHT_WINDOW]))
    if day > night * 1.1:
        return DiurnalClass.DAYTIME_PEAK
    if night > day * 1.1:
        return DiurnalClass.NIGHTTIME_PEAK
    return DiurnalClass.FLAT
