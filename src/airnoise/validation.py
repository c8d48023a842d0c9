"""Cross-dataset validation utilities: district aggregation, agreement
coefficients, hour-over-hour changes and diurnal-profile classification.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    LengthMismatch,
    NonPositiveValue,
    UnmappedTract,
    WrongLength,
    ZeroVariance,
)


@dataclass(frozen=True)
class HourlySeries:
    """An ordered (hour, value) series keyed by tract or district id."""

    key: str
    points: list[tuple[object, float]]

    def __post_init__(self):
        hours = [h for h, _ in self.points]
        if any(b <= a for a, b in zip(hours, hours[1:])):
            raise ValueError(f"hours of series {self.key!r} must be strictly increasing")

    def values(self) -> list[float]:
        return [v for _, v in self.points]


def aggregate_to_district(
    series: Sequence[HourlySeries],
    district_of: Mapping[str, str],
) -> list[HourlySeries]:
    """Sum tract series into per-district series (hour by hour).

    Every input key must be mapped; totals are conserved per hour.
    """
    sums: dict[str, dict[object, float]] = {}
    for s in series:
        if s.key not in district_of:
            raise UnmappedTract(f"tract {s.key!r} has no district")
        acc = sums.setdefault(district_of[s.key], {})
        for hour, value in s.points:
            acc[hour] = acc.get(hour, 0.0) + value
    return [
        HourlySeries(key=district, points=sorted(acc.items()))
        for district, acc in sorted(sums.items())
    ]


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
