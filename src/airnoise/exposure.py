"""Threshold exposure, spatial inequality and rotation diagnostics.

A tract-hour counts as exposed when its measured level strictly exceeds the
threshold; an absent level counts as not exposed (hours below the retention
cut carry no measured burden). Inequality across tracts is summarized per
hour with the Gini coefficient, which is undefined (and serialized as null)
whenever mean exposure is zero. A matrix holds the counts of one threshold on
one population basis; a Gini series is a plain list, one entry per hour.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime
from typing import Iterable, Sequence

import numpy as np

from . import tables
from .acoustics import HourlyLaeq
from .errors import GridMismatch, NegativeValue
from .fusion import TractHourRecord

BASIS_DEFACTO = "defacto"
BASIS_RESIDENTIAL = "residential"


@dataclass(frozen=True)
class ExposureMatrix:
    """Tract x hour grid of exposed-person counts for one threshold."""

    theta: float
    tract_ids: list[str]
    hours: list[datetime]
    cells: np.ndarray  # shape (len(tract_ids), len(hours))


@dataclass(frozen=True, slots=True)
class GiniEntry:
    hour: datetime
    gini: float | None
    exposed_total: float
    mean_exposure: float


def exposed(record: TractHourRecord, theta: float, basis: str = BASIS_DEFACTO) -> float:
    """Persons exposed in one tract-hour: its ``basis`` population if L > theta, else 0."""
    if record.laeq is not None and record.laeq > theta:
        return record.population_defacto if basis == BASIS_DEFACTO else record.population_resident
    return 0.0


def exposure_matrix(
    records: Sequence[TractHourRecord],
    theta: float,
    basis: str = BASIS_DEFACTO,
) -> ExposureMatrix:
    """Exposure over the full tract x hour grid spanned by ``records``.

    ``basis`` selects the population column: de facto (default) or the static
    residential count, for comparisons against census-style assessments.
    """
    tract_ids = sorted({r.tract_id for r in records})
    hours = sorted({r.hour_start for r in records})
    t_index = {t: i for i, t in enumerate(tract_ids)}
    h_index = {h: j for j, h in enumerate(hours)}
    cells = np.zeros((len(tract_ids), len(hours)))
    for r in records:
        cells[t_index[r.tract_id], h_index[r.hour_start]] = exposed(r, theta, basis)
    return ExposureMatrix(theta=theta, tract_ids=tract_ids, hours=hours, cells=cells)


def exposure_matrices(
    records: Sequence[TractHourRecord],
    thetas: Iterable[float],
    basis: str = BASIS_DEFACTO,
) -> dict[float, ExposureMatrix]:
    """One matrix per distinct threshold, in ascending order; each threshold
    is its own pass over the records."""
    return {theta: exposure_matrix(records, theta, basis) for theta in sorted(set(thetas))}


def gini(values: Sequence[float]) -> float | None:
    """Gini coefficient of a non-negative vector; None when the mean is zero.

    Implemented with the O(D log D) sorted identity

        G = (2 * sum_i i * x_(i) - (D + 1) * sum_i x_i) / (D * sum_i x_i)

    (i is the 1-based rank), which equals the pairwise definition
    sum_ij |x_i - x_j| / (2 D^2 mu) to within accumulation error.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return None
    if np.any(v < 0):
        raise NegativeValue("gini requires non-negative values")
    total = float(np.sum(v))
    if total == 0.0:
        return None
    v = np.sort(v)
    n = v.size
    ranked = float(np.sum(np.arange(1, n + 1, dtype=np.float64) * v))
    return (2.0 * ranked - (n + 1) * total) / (n * total)


def gini_pairwise(values: Sequence[float]) -> float | None:
    """Definitional O(D^2) Gini, kept as the independent cross-check."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return None
    if np.any(v < 0):
        raise NegativeValue("gini requires non-negative values")
    total = float(np.sum(v))  # not the mean, which underflows to 0 for [0, 5e-324]
    if total == 0.0:
        return None
    return float(np.abs(v[:, None] - v[None, :]).sum()) / (2.0 * v.size * total)


def gini_series(matrix: ExposureMatrix) -> list[GiniEntry]:
    """Per-hour Gini over the tract dimension plus exposure totals, one entry
    per hour of ``matrix``."""
    entries = []
    for j, hour in enumerate(matrix.hours):
        column = matrix.cells[:, j]
        total = float(np.sum(column))
        mu = total / len(matrix.tract_ids) if matrix.tract_ids else 0.0
        entries.append(GiniEntry(
            hour=hour,
            gini=gini(column) if mu > 0 else None,
            exposed_total=total,
            mean_exposure=mu,
        ))
    return entries


def compare_bases(defacto: ExposureMatrix, residential: ExposureMatrix) -> list[dict]:
    """Hourly exposed totals on both population bases and their difference.

    delta is de facto minus residential; positive values mark hours when the
    people actually present exceed the registered residents.
    """
    if (defacto.tract_ids != residential.tract_ids
            or defacto.hours != residential.hours
            or defacto.theta != residential.theta):
        raise GridMismatch("matrices cover different grids or thresholds")
    out = []
    for j, hour in enumerate(defacto.hours):
        d = float(np.sum(defacto.cells[:, j]))
        r = float(np.sum(residential.cells[:, j]))
        out.append({"hour": hour, "defacto_total": d, "residential_total": r, "delta": d - r})
    return out


def _block_id(hour: datetime, block_hours: int) -> tuple[date, int]:
    return (hour.date(), hour.hour // block_hours)


def rotation_contrast(
    hourly: Sequence[HourlyLaeq],
    block_hours: int = 3,
) -> dict[tuple[str, str], float | None]:
    """Pearson correlation of block-mean LAeq between every terminal pair.

    Blocks align with the calendar day (hour 0 starts block 0), matching a
    rotation schedule that alternates runway roles every ``block_hours``.
    Strongly negative correlation between two terminals means one side's loud
    blocks are the other's relief. Pairs are keyed (smaller id, larger id).
    A pair with fewer than 2 shared blocks, or whose block means are constant
    on either side, has no correlation: its value is None.
    """
    if block_hours <= 0 or 24 % block_hours != 0:
        raise ValueError("block_hours must divide 24")
    by_nmt: dict[str, dict[tuple[date, int], list[float]]] = {}
    for h in hourly:
        if h.laeq is None:
            continue
        by_nmt.setdefault(h.nmt_id, {}).setdefault(_block_id(h.hour_start, block_hours), []).append(h.laeq)

    block_means = {
        nmt: {block: sum(vals) / len(vals) for block, vals in blocks.items()}
        for nmt, blocks in by_nmt.items()
    }

    nmts = sorted(block_means)
    out: dict[tuple[str, str], float | None] = {}
    for i, a in enumerate(nmts):
        for b in nmts[i + 1:]:
            shared = sorted(set(block_means[a]) & set(block_means[b]))
            out[(a, b)] = None
            if len(shared) < 2:
                continue
            xs = np.array([block_means[a][k] for k in shared])
            ys = np.array([block_means[b][k] for k in shared])
            sx, sy = xs.std(), ys.std()
            if sx != 0.0 and sy != 0.0:
                out[(a, b)] = float(np.mean((xs - xs.mean()) * (ys - ys.mean())) / (sx * sy))
    return out


# ---------------------------------------------------------------------------
# file outputs

def theta_tag(theta: float) -> str:
    return str(int(theta)) if float(theta).is_integer() else repr(float(theta)).replace(".", "p")


def write_exposure_matrix(matrix: ExposureMatrix, path) -> None:
    """exposure_{theta}: one row per tract, one column per hour."""
    tables.write(path, ["tract_id", *map(tables.hour, matrix.hours)],
                 ([tract, *cells] for tract, cells in zip(matrix.tract_ids, matrix.cells.tolist())))


def write_gini_series(entries: Sequence[GiniEntry], path) -> None:
    """gini_{theta}; an undefined Gini is an empty field (null), never 0 or NaN."""
    tables.write(path, ("hour_start", "gini", "exposed_total", "mean_exposure"), (
        (tables.hour(e.hour), e.gini, e.exposed_total, e.mean_exposure) for e in entries
    ))


def write_comparison(comparisons: dict[float, list[dict]], path) -> None:
    """The theta column holds each threshold as a number (65.0), not as its
    theta_tag: it is a value, not part of a file name."""
    tables.write(path, ("theta", "hour_start", "defacto_total", "residential_total", "delta"), (
        (theta, tables.hour(r["hour"]), r["defacto_total"], r["residential_total"], r["delta"])
        for theta in sorted(comparisons) for r in comparisons[theta]
    ))


def write_rotation(correlations: dict[tuple[str, str], float | None], path) -> None:
    """rotation: one row per terminal pair; an undefined correlation is an
    empty field (null)."""
    tables.write(path, ("nmt_a", "nmt_b", "block_mean_correlation"),
                 ((a, b, r) for (a, b), r in sorted(correlations.items())))
