"""Join population, hourly LAeq, weather and flight activity at tract x hour.

Each monitoring terminal's hourly level stands in for the whole census tract
that contains it. The feature table carries exactly 22 numeric columns per
(terminal, hour, operation) row:

    hour_of_day, day_of_week, nmt_lat, nmt_lon,
    temperature_c, wind_speed_kt, wind_deviation_deg, cloud_cover_tenths,
    departures_total, arrivals_total,
    combo_<name> x 12   (hourly flight counts of the 12 most frequent
                         aircraft+engine combinations over the window;
                         less frequent combos are pooled into the totals only)

Combo counts cover both operations within the hour, so a departure row and an
arrival row of the same hour see the same fleet mix. Terminals differ only in
their location, so the other 20 columns are built once per (hour, operation).
The one target, the terminal's hourly LAeq, is held once in memory; the
take-off model trains on departure rows against it and the landing model on
arrival rows. ``features.csv`` writes it into both takeoff_laeq and
landing_laeq, because the file's bytes are pinned. Hours with no retained
samples have an absent target and never enter training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import tables
from .acoustics import HourlyLaeq
from .errors import AmbiguousMapping, MissingPopulation, MissingWeather, UnknownTract
from .ingest import FlightEvent, NmtMeta, PopulationRecord, TractMeta, WeatherHour
from .tables import MAPPING_CONTAINING, MAPPING_NEAREST_CENTROID, Operation

N_FEATURES = 22
N_COMBO_FEATURES = 12

# the operation order of a terminal-hour's two feature rows
OPERATIONS = (Operation.ARRIVAL, Operation.DEPARTURE)


@dataclass(frozen=True, slots=True)
class TractHourRecord:
    tract_id: str
    hour_start: datetime
    population_defacto: float
    population_resident: float
    laeq: float | None
    source_nmt: str


@dataclass(frozen=True)
class FeatureTable:
    """Model inputs: row keys, 22 named feature columns, one target.

    ``matrix`` has shape (n_rows, 22); an absent ``laeq`` is NaN.
    """

    keys: list[tuple[str, datetime, Operation]]
    feature_names: list[str]
    matrix: np.ndarray
    laeq: np.ndarray

    def __post_init__(self):
        if len(self.feature_names) != N_FEATURES:
            raise ValueError(f"feature table must have exactly {N_FEATURES} columns")


def great_circle_km(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Haversine distance between two (lat, lon) pairs in kilometres."""
    lat1, lon1, lat2, lon2 = map(math.radians, (a[0], a[1], b[0], b[1]))
    s = math.sin((lat2 - lat1) / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2
    return 2 * 6371.0 * math.asin(math.sqrt(s))


def map_tracts(
    nmts: Sequence[NmtMeta],
    tracts: Sequence[TractMeta],
    mode: str = MAPPING_CONTAINING,
) -> dict[str, str]:
    """Map tract ids to the terminal that proxies their noise level.

    containing: only tracts that contain a terminal are mapped; two terminals
    in one tract is an error. nearest: every tract maps to the terminal with
    the smallest great-circle centroid distance, ties to the lexicographically
    smaller terminal id; with no terminal, no tract is mapped.
    """
    tract_by_id = {t.tract_id: t for t in tracts}
    for n in nmts:
        if n.tract_id not in tract_by_id:
            raise UnknownTract(f"NMT {n.nmt_id} references unknown tract {n.tract_id}")

    if mode == MAPPING_CONTAINING:
        mapping: dict[str, str] = {}
        for n in nmts:
            if n.tract_id in mapping:
                raise AmbiguousMapping(
                    f"tract {n.tract_id} contains both {mapping[n.tract_id]} and {n.nmt_id}"
                )
            mapping[n.tract_id] = n.nmt_id
        return mapping

    if mode == MAPPING_NEAREST_CENTROID:
        mapping = {}
        for t in tracts if nmts else ():
            best = min(nmts, key=lambda n: (great_circle_km(t.centroid, n.location), n.nmt_id))
            mapping[t.tract_id] = best.nmt_id
        return mapping

    raise ValueError(f"unknown mapping mode {mode!r}")


def fuse(
    population: Sequence[PopulationRecord],
    hourly_laeq: Sequence[HourlyLaeq],
    mapping: Mapping[str, str],
    tracts: Sequence[TractMeta],
    hours: Sequence[datetime],
) -> list[TractHourRecord]:
    """One record per mapped tract per window hour, sorted by (tract, hour).

    The terminal's LAeq is copied verbatim; an absent level propagates as
    absent. A missing population record is an error that names every missing
    (tract, hour) pair.
    """
    pop = {(p.tract_id, p.hour_start): p.defacto_count for p in population}
    levels = {(h.nmt_id, h.hour_start): h.laeq for h in hourly_laeq}
    residents = {t.tract_id: t.resident_count for t in tracts}

    missing = [
        (tract, tables.hour(hour))
        for tract in sorted(mapping) for hour in hours
        if (tract, hour) not in pop
    ]
    if missing:
        raise MissingPopulation(missing)

    out = []
    for tract in sorted(mapping):
        nmt = mapping[tract]
        for hour in hours:
            out.append(TractHourRecord(
                tract_id=tract,
                hour_start=hour,
                population_defacto=pop[(tract, hour)],
                population_resident=residents[tract],
                laeq=levels.get((nmt, hour)),
                source_nmt=nmt,
            ))
    return out


def wind_deviation(wind_direction: float, runway_heading: float) -> float:
    """Minimal angular distance between two bearings, in degrees [0, 180]."""
    d = abs(wind_direction - runway_heading) % 360.0
    return min(d, 360.0 - d)


def runway_heading(runway: str) -> float:
    """Heading in degrees from a runway designator ("32L" -> 320)."""
    digits = "".join(ch for ch in runway if ch.isdecimal())
    if not digits:
        raise ValueError(f"runway {runway!r} has no numeric designator")
    return (int(digits) * 10.0) % 360.0


def rank_combos(flights: Sequence[FlightEvent], top: int = N_COMBO_FEATURES) -> list[str]:
    """The ``top`` most frequent "aircraft+engine" combos among ``flights``,
    which ``build_features`` gives as the window's flights.

    Ranked once over all of them, ties broken by name so the feature layout
    is stable for a given dataset.
    """
    counts: dict[str, int] = {}
    for f in flights:
        name = f"{f.aircraft_type}+{f.engine_type}"
        counts[name] = counts.get(name, 0) + 1
    ranked = sorted(counts, key=lambda name: (-counts[name], name))
    return ranked[:top]


def active_runways(
    flights: Sequence[FlightEvent],
    hours: Sequence[datetime],
) -> dict[tuple[datetime, Operation], str]:
    """Active runway per (hour, operation).

    The majority runway among that hour's operations wins, ties to the
    runway whose first use that hour is earliest. Hours without flights of
    an operation inherit the previous hour's assignment (or the first
    following one at the window edge).
    """
    by_hour: dict[tuple[datetime, Operation], list[FlightEvent]] = {}
    for f in flights:
        hour = f.timestamp.replace(minute=0, second=0, microsecond=0)
        by_hour.setdefault((hour, f.operation), []).append(f)

    out: dict[tuple[datetime, Operation], str] = {}
    for op in Operation:
        last: str | None = None
        pending: list[datetime] = []
        for hour in hours:
            events = by_hour.get((hour, op))
            if events:
                counts: dict[str, int] = {}
                first_use: dict[str, datetime] = {}
                for e in events:
                    counts[e.runway] = counts.get(e.runway, 0) + 1
                    if e.runway not in first_use or e.timestamp < first_use[e.runway]:
                        first_use[e.runway] = e.timestamp
                last = min(counts, key=lambda r: (-counts[r], first_use[r]))
                for h in pending:
                    out[(h, op)] = last
                pending.clear()
            if last is None:
                pending.append(hour)
            else:
                out[(hour, op)] = last
        for h in pending:  # no flights of this operation anywhere
            out[(h, op)] = ""
    return out


def build_features(
    flights: Sequence[FlightEvent],
    weather: Sequence[WeatherHour],
    nmts: Sequence[NmtMeta],
    hourly_laeq: Sequence[HourlyLaeq],
    hours: Sequence[datetime],
) -> FeatureTable:
    """Assemble the 22-column feature table over every (terminal, hour, operation).

    Row order is sorted by (terminal, hour, operation name); row count is
    |terminals| x |hours| x 2 regardless of flight activity. Only the flights
    of the window ``hours`` count.
    """
    weather_by_hour = {w.hour_start: w for w in weather}
    for hour in hours:
        if hour not in weather_by_hour:
            raise MissingWeather(tables.hour(hour))
    window = set(hours)
    flights = [f for f in flights if f.timestamp.replace(minute=0, second=0, microsecond=0) in window]

    combos = rank_combos(flights)
    combo_index = {name: i for i, name in enumerate(combos)}
    combo_columns = [f"combo_{name}" for name in combos]
    # datasets with fewer than 12 distinct combos keep the 22-column layout
    # through all-zero placeholder columns
    combo_columns += [f"combo_unused_{k}" for k in range(len(combos), N_COMBO_FEATURES)]
    feature_names = [
        "hour_of_day", "day_of_week", "nmt_lat", "nmt_lon",
        "temperature_c", "wind_speed_kt", "wind_deviation_deg", "cloud_cover_tenths",
        "departures_total", "arrivals_total",
    ] + combo_columns

    # hourly flight statistics (combo counts pool both operations)
    dep_total: dict[datetime, int] = {}
    arr_total: dict[datetime, int] = {}
    combo_counts: dict[datetime, list[int]] = {}
    for f in flights:
        hour = f.timestamp.replace(minute=0, second=0, microsecond=0)
        if f.operation is Operation.DEPARTURE:
            dep_total[hour] = dep_total.get(hour, 0) + 1
        else:
            arr_total[hour] = arr_total.get(hour, 0) + 1
        idx = combo_index.get(f"{f.aircraft_type}+{f.engine_type}")
        if idx is not None:
            counts = combo_counts.get(hour)
            if counts is None:
                counts = combo_counts[hour] = [0] * N_COMBO_FEATURES
            counts[idx] += 1

    # the (hour, operation) block every terminal shares; columns 2 and 3 are
    # the terminal's own location, filled in below
    active = active_runways(flights, hours)
    zero_combos = [0] * N_COMBO_FEATURES
    rows = []
    for hour in hours:
        w = weather_by_hour[hour]
        for op in OPERATIONS:
            rw = active.get((hour, op), "")
            dev = wind_deviation(w.wind_direction, runway_heading(rw)) if rw else 0.0
            rows.append((hour.hour, hour.weekday(), 0.0, 0.0, w.temperature, w.wind_speed, dev, w.cloud_cover,
                          dep_total.get(hour, 0), arr_total.get(hour, 0), *combo_counts.get(hour, zero_combos)))
    block = np.array(rows, dtype=float).reshape(-1, N_FEATURES)

    ordered = sorted(nmts, key=lambda n: n.nmt_id)
    matrix = np.tile(block, (len(ordered), 1))
    matrix[:, 2:4] = np.repeat(np.reshape([n.location for n in ordered], (-1, 2)), len(block), axis=0)
    levels = {(h.nmt_id, h.hour_start): math.nan if h.laeq is None else h.laeq for h in hourly_laeq}
    return FeatureTable(
        keys=[(n.nmt_id, hour, op) for n in ordered for hour in hours for op in OPERATIONS],
        feature_names=feature_names,
        matrix=matrix,
        laeq=np.repeat([levels.get((n.nmt_id, hour), math.nan) for n in ordered for hour in hours], len(OPERATIONS)),
    )


# ---------------------------------------------------------------------------
# file outputs

FUSED_HEADER = ("tract_id", "hour_start", "population_defacto", "population_resident", "laeq_dba", "source_nmt")
# the 22 feature names vary with the data, so the reader takes any
FEATURES_HEADER = ("nmt_id", "hour_start", "operation", *(None,) * N_FEATURES, "takeoff_laeq", "landing_laeq")


def write_fused(records: Iterable[TractHourRecord], path) -> None:
    """fused.csv; an absent level is an empty field."""
    tables.write(path, FUSED_HEADER, (
        (r.tract_id, tables.hour(r.hour_start), r.population_defacto, r.population_resident, r.laeq, r.source_nmt)
        for r in records
    ))


def write_features(table: FeatureTable, path) -> None:
    """features.csv; the target fills both target columns, empty when absent."""
    header = (*FEATURES_HEADER[:3], *table.feature_names, *FEATURES_HEADER[-2:])
    tables.write(path, header, (
        (nmt, tables.hour(hour), op.value, *row, *(None if math.isnan(t) else t,) * 2)
        for (nmt, hour, op), row, t in zip(table.keys, table.matrix.tolist(), table.laeq.tolist())
    ))


def read_fused(path) -> list[TractHourRecord]:
    """Inverse of write_fused (floats round-trip exactly via repr); a torn
    file raises MalformedRow."""
    _, rows = tables.read(path, FUSED_HEADER)
    return [
        TractHourRecord(tract, datetime.fromisoformat(hour), float(pop_d), float(pop_r),
                        None if level == "" else float(level), nmt)
        for tract, hour, pop_d, pop_r, level, nmt in rows
    ]


def read_features(path) -> FeatureTable:
    """Inverse of write_features (from its first target column); a torn file raises MalformedRow."""
    header, rows = tables.read(path, FEATURES_HEADER)
    return FeatureTable(
        keys=[(nmt, datetime.fromisoformat(hour), Operation(op)) for nmt, hour, op, *_ in rows],
        feature_names=header[3:-2],
        matrix=np.array([[float(v) for v in row[3:-2]] for row in rows]) if rows else np.empty((0, N_FEATURES)),
        laeq=np.array([math.nan if row[-2] == "" else float(row[-2]) for row in rows]),
    )
