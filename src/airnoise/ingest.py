"""Parsers, serializers and cross-stream validation for the six input schemas.

All inputs are UTF-8 comma-separated text with a mandatory header row and "."
as the decimal separator. Timestamps are local civil time without a timezone
suffix. Parsing is pure and order-preserving; parsed datasets are immutable
and safe to share between threads.

Schemas (header row shown):

    spl.csv:        nmt_id,timestamp,level_dba
    flights.csv:    timestamp,operation,runway,aircraft_type,engine_type,airline
    weather.csv:    hour_start,temperature_c,wind_speed_kt,wind_direction_deg,cloud_cover_tenths
    population.csv: tract_id,hour_start,defacto_count
    tracts.csv:     tract_id,district_id,centroid_lat,centroid_lon,resident_count,land_use
    nmts.csv:       nmt_id,tract_id,lat,lon

A line may end with ``\n``, ``\r\n`` or ``\r``, as in text mode. A byte
that is not UTF-8, or a field over the csv module's size limit, is a
``MalformedRow`` naming its line; a row's line is the last it spans.

The SPL stream, the only input that grows with the data, parses into
columns (``spl.SplColumns``), its only form, not one object per reading.
``parse_spl`` reads the file's bytes in blocks of ``SPL_BLOCK_BYTES``, cut
at the last line end (the rest carries over to the next block). Each block
is checked and parsed from its bytes with array operations
(``spl.parse_block``); a level is read exactly, as ``float()`` would. No
text is decoded and no Python object is made per row. A block falls back to
the row parser (``csv.reader``, one row at a time, which also builds the
error) if it holds anything unusual: a quote character or a carriage return
that does not end a line (then the row parser takes the rest of the file,
since a quoted field may span lines), a non-ASCII byte, a blank line, an id
over the csv field size limit, a row without exactly 3 fields, a timestamp
other than the canonical 19-character ``YYYY-MM-DDTHH:MM:SS`` of a real
date, or a level outside [0, 140] or of any form but ``D+`` or ``D+.D+``
with at most 15 digits. So every accepted input parses to the same values
as the row parser, and every rejected one raises the same exception with
the same line number. A block's temporaries peak at about 11 times its size
(6 MB for 512 KiB, by tracemalloc). Parsing the benchmark's 288,000-row
dense file then peaks at 12.4 MB, mostly the columns, against 11.9 MB for
the text parser this one replaced; 1 MiB blocks would peak at 19 MB and
parse no faster.
"""

from __future__ import annotations

import csv
import enum
import io
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import tables
from .errors import DuplicateKey, MalformedRow, RangeViolation
from .spl import LEVEL_MAX_DBA, LEVEL_MIN_DBA, SplBuilder, SplColumns, parse_block

# Nominal 3-second samples in one hour; completeness is reported against this,
# never imputed.
SAMPLES_PER_HOUR_NOMINAL = 1200

# rows of spl.csv formatted and written at a time
SPL_WRITE_ROWS = 1 << 13


class Operation(enum.Enum):
    DEPARTURE = "DEPARTURE"
    ARRIVAL = "ARRIVAL"


class LandUse(enum.Enum):
    COMMERCIAL = "COMMERCIAL"
    RESIDENTIAL = "RESIDENTIAL"
    MIXED = "MIXED"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True, slots=True)
class FlightEvent:
    timestamp: datetime
    operation: Operation
    runway: str
    aircraft_type: str
    engine_type: str
    airline: str


@dataclass(frozen=True, slots=True)
class WeatherHour:
    hour_start: datetime
    temperature: float
    wind_speed: float
    wind_direction: float
    cloud_cover: int


@dataclass(frozen=True, slots=True)
class PopulationRecord:
    tract_id: str
    hour_start: datetime
    defacto_count: float


@dataclass(frozen=True, slots=True)
class TractMeta:
    tract_id: str
    district_id: str
    centroid: tuple[float, float]
    resident_count: float
    land_use: LandUse


@dataclass(frozen=True, slots=True)
class NmtMeta:
    nmt_id: str
    tract_id: str
    location: tuple[float, float]


@dataclass(frozen=True)
class Bundle:
    """All six parsed datasets for one run."""

    spl: SplColumns
    flights: list[FlightEvent]
    weather: list[WeatherHour]
    population: list[PopulationRecord]
    tracts: list[TractMeta]
    nmts: list[NmtMeta]


# ---------------------------------------------------------------------------
# low-level helpers

def _blocks(source):
    """``source`` as byte blocks of whole lines: a Path, raw bytes, CSV text,
    or such blocks (returned as they are)."""
    if isinstance(source, Path):
        return [source.read_bytes()]
    if isinstance(source, str):
        return [source.encode("utf-8")]
    return [source] if isinstance(source, (bytes, bytearray)) else source


def _lines(blocks, lineno: int):
    """The lines of byte blocks of whole lines, the first being line ``lineno``,
    as text ending in ``\n``, where a line ends at ``\n``, ``\r\n`` or ``\r``.
    A line that is not UTF-8 raises ``MalformedRow`` when it is reached."""
    for block in blocks:
        if b"\r" in block:  # no block ends between the two bytes of \r\n
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        for line in io.BytesIO(block):
            try:
                yield line.decode("utf-8")
            except UnicodeDecodeError:
                raise MalformedRow(lineno, "not UTF-8 text") from None
            lineno += 1


def _csv_rows(blocks, lineno: int):
    """(line number, fields) of each CSV row in byte blocks of whole lines,
    the first being line ``lineno``. A row's number is that of its last line,
    as a quoted field may span lines. A row the csv module rejects (a field
    over its size limit) raises ``MalformedRow``."""
    reader = csv.reader(_lines(blocks, lineno))
    try:
        for fields in reader:
            yield lineno - 1 + reader.line_num, fields
    except csv.Error as exc:
        raise MalformedRow(lineno - 1 + reader.line_num, str(exc)) from None


def _rows(source, expected_header: Sequence[str]):
    """Yield (line_number, fields) for each data row, checking the header."""
    rows = _csv_rows(_blocks(source), 1)
    header = next(rows, None)
    if header is None:
        return  # empty file: no header required, no rows
    _check_header(header[1], expected_header)
    yield from _records(rows, len(expected_header))


def _check_header(header: list[str], expected: Sequence[str]) -> None:
    if [h.strip() for h in header] != list(expected):
        raise MalformedRow(1, f"expected header {','.join(expected)}")


def _records(rows, n_fields: int):
    for lineno, fields in rows:
        if not fields:
            continue
        if len(fields) != n_fields:
            raise MalformedRow(lineno, f"expected {n_fields} fields, got {len(fields)}")
        yield lineno, fields


def _float(value: str, lineno: int, name: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise MalformedRow(lineno, f"{name} not numeric") from None


def _int(value: str, lineno: int, name: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise MalformedRow(lineno, f"{name} not an integer") from None


def _datetime(value: str, lineno: int, name: str) -> datetime:
    try:
        ts = datetime.fromisoformat(value)
    except ValueError:
        raise MalformedRow(lineno, f"{name} not an ISO timestamp") from None
    if ts.tzinfo is not None:
        raise MalformedRow(lineno, f"{name} must be local civil time without timezone")
    return ts


def _hour(value: str, lineno: int, name: str) -> datetime:
    ts = _datetime(value, lineno, name)
    if ts.minute or ts.second or ts.microsecond:
        raise MalformedRow(lineno, f"{name} must be on the hour")
    return ts


def _enum(cls, value: str, lineno: int, name: str):
    try:
        return cls(value)
    except ValueError:
        allowed = "/".join(m.value for m in cls)
        raise MalformedRow(lineno, f"{name} must be one of {allowed}") from None


# ---------------------------------------------------------------------------
# parsers

SPL_HEADER = ("nmt_id", "timestamp", "level_dba")
FLIGHTS_HEADER = ("timestamp", "operation", "runway", "aircraft_type", "engine_type", "airline")
WEATHER_HEADER = ("hour_start", "temperature_c", "wind_speed_kt", "wind_direction_deg", "cloud_cover_tenths")
POPULATION_HEADER = ("tract_id", "hour_start", "defacto_count")
TRACTS_HEADER = ("tract_id", "district_id", "centroid_lat", "centroid_lon", "resident_count", "land_use")
NMTS_HEADER = ("nmt_id", "tract_id", "lat", "lon")

# spl.csv is read this many bytes at a time, cut at the last line end (see
# the module docstring for the memory this costs)
SPL_BLOCK_BYTES = 1 << 19


def parse_spl(source) -> SplColumns:
    """Parse spl.csv rows in file order, validating the level band [0, 140] dBA.

    ``source`` is a Path, or the file's bytes or text. The result, or the
    error, is the row parser's; see the module docstring for the byte-level
    fast path and its fallback.
    """
    if isinstance(source, Path):
        with open(source, "rb") as fh:
            return _parse_spl_stream(fh, SPL_BLOCK_BYTES)
    if isinstance(source, str):
        source = source.encode("utf-8")
    return _parse_spl_stream(io.BytesIO(source), SPL_BLOCK_BYTES)


def _parse_spl_rows(source) -> SplColumns:
    """The row parser: one ``csv.reader`` row at a time."""
    columns = SplBuilder()
    columns.add(*_spl_fields(_rows(source, SPL_HEADER)))
    return columns.build()


def _spl_fields(rows) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """The terminal ids, codes into them, microseconds since 1970 and levels
    of spl.csv rows: the arguments of ``SplBuilder.add``."""
    code_of: dict[str, int] = {}
    codes, stamps, levels = [], [], []
    for lineno, (nmt_id, ts, level) in rows:
        lv = _float(level, lineno, "level")
        if not LEVEL_MIN_DBA <= lv <= LEVEL_MAX_DBA:
            raise RangeViolation(lineno, "level_dba", lv, f"[{LEVEL_MIN_DBA}, {LEVEL_MAX_DBA}]")
        codes.append(code_of.setdefault(nmt_id, len(code_of)))
        stamps.append(_datetime(ts, lineno, "timestamp"))
        levels.append(lv)
    return (list(code_of), np.array(codes, np.intp),
            np.array(stamps, dtype="datetime64[us]").view(np.int64), np.array(levels))


def _spl_blocks(fh, block_bytes: int):
    """The rest of a binary stream in blocks of whole lines, read
    ``block_bytes`` at a time; the last block may lack its line end."""
    carry = b""
    while data := fh.read(block_bytes):
        cut = data.rfind(b"\n") + 1
        if cut:
            block, carry = carry + data[:cut], data[cut:]
            yield block
        else:
            carry += data  # a line longer than a block
    if carry:
        yield carry


def _parse_spl_stream(fh, block_bytes: int) -> SplColumns:
    """``parse_spl`` of a binary stream, read ``block_bytes`` at a time."""
    first = fh.readline().replace(b"\r\n", b"\n")
    if b'"' in first or b"\r" in first:
        return _parse_spl_rows(chain([first], fh))
    columns = SplBuilder()
    if first:
        _check_header(next(_csv_rows([first], 1))[1], SPL_HEADER)
    lineno = 2
    blocks = _spl_blocks(fh, block_bytes)
    for block in blocks:
        if b"\r" in block:
            block = block.replace(b"\r\n", b"\n")  # a line end, as for the row parser
        if b'"' in block or b"\r" in block:
            # a quoted field may span blocks: the row parser takes the rest
            columns.add(*_spl_fields(_records(_csv_rows(chain([block], blocks), lineno), 3)))
            break
        chunk = parse_block(block)
        if chunk is None:
            chunk = _spl_fields(_records(_csv_rows([block], lineno), 3))
            lineno += block.count(b"\n")
        else:
            lineno += len(chunk[3])  # a row a line
        columns.add(*chunk)
    return columns.build()


def parse_flights(source) -> list[FlightEvent]:
    out = []
    for lineno, (ts, op, runway, actype, engine, airline) in _rows(source, FLIGHTS_HEADER):
        out.append(FlightEvent(
            _datetime(ts, lineno, "timestamp"),
            _enum(Operation, op, lineno, "operation"),
            runway, actype, engine, airline,
        ))
    return out


def parse_weather(source) -> list[WeatherHour]:
    out = []
    seen: set[datetime] = set()
    for lineno, (hour, temp, wind, wdir, cloud) in _rows(source, WEATHER_HEADER):
        hs = _hour(hour, lineno, "hour_start")
        if hs in seen:
            raise DuplicateKey(lineno, tables.hour(hs))
        seen.add(hs)
        ws = _float(wind, lineno, "wind_speed")
        if ws < 0:
            raise RangeViolation(lineno, "wind_speed_kt", ws, "[0, inf)")
        wd = _float(wdir, lineno, "wind_direction")
        if not 0 <= wd < 360:
            raise RangeViolation(lineno, "wind_direction_deg", wd, "[0, 360)")
        cc = _int(cloud, lineno, "cloud_cover")
        if not 0 <= cc <= 10:
            raise RangeViolation(lineno, "cloud_cover_tenths", cc, "[0, 10]")
        out.append(WeatherHour(hs, _float(temp, lineno, "temperature"), ws, wd, cc))
    return out


def parse_population(source) -> list[PopulationRecord]:
    out = []
    seen: set[tuple[str, datetime]] = set()
    for lineno, (tract, hour, count) in _rows(source, POPULATION_HEADER):
        hs = _hour(hour, lineno, "hour_start")
        key = (tract, hs)
        if key in seen:
            raise DuplicateKey(lineno, (tract, tables.hour(hs)))
        seen.add(key)
        n = _float(count, lineno, "defacto_count")
        if n < 0:
            raise RangeViolation(lineno, "defacto_count", n, "[0, inf)")
        out.append(PopulationRecord(tract, hs, n))
    return out


def parse_tracts(source) -> list[TractMeta]:
    out = []
    seen: set[str] = set()
    for lineno, (tract, district, lat, lon, residents, land_use) in _rows(source, TRACTS_HEADER):
        if tract in seen:
            raise DuplicateKey(lineno, tract)
        seen.add(tract)
        res = _float(residents, lineno, "resident_count")
        if res < 0:
            raise RangeViolation(lineno, "resident_count", res, "[0, inf)")
        out.append(TractMeta(
            tract, district,
            (_float(lat, lineno, "centroid_lat"), _float(lon, lineno, "centroid_lon")),
            res, _enum(LandUse, land_use, lineno, "land_use"),
        ))
    return out


def parse_nmts(source) -> list[NmtMeta]:
    out = []
    seen: set[str] = set()
    for lineno, (nmt, tract, lat, lon) in _rows(source, NMTS_HEADER):
        if nmt in seen:
            raise DuplicateKey(lineno, nmt)
        seen.add(nmt)
        out.append(NmtMeta(nmt, tract, (_float(lat, lineno, "lat"), _float(lon, lineno, "lon"))))
    return out


def parse_bundle(directory) -> Bundle:
    """Parse the six canonical files from ``directory``."""
    d = Path(directory)
    return Bundle(
        spl=parse_spl(d / "spl.csv"),
        flights=parse_flights(d / "flights.csv"),
        weather=parse_weather(d / "weather.csv"),
        population=parse_population(d / "population.csv"),
        tracts=parse_tracts(d / "tracts.csv"),
        nmts=parse_nmts(d / "nmts.csv"),
    )


# ---------------------------------------------------------------------------
# serializers
#
# serialize(parse(x)) reproduces x up to canonical number formatting: floats
# are written with repr() (shortest round-trip form), hours with minute
# precision, timestamps with second precision. Every stream but spl.csv is
# written by tables.write.

def write_spl(columns: SplColumns, dest) -> None:
    """Write the stream from its columns.

    Each distinct whole-second timestamp is formatted once for the stream,
    and each distinct level (by bit pattern, so -0.0 keeps its sign) once per
    chunk of ``SPL_WRITE_ROWS`` rows; a chunk's rows gather their strings by
    index and are written as one string. Chunks keep the temporaries small,
    so memory grows with the stream only by the formatted timestamps.
    """
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_spl(columns, fh)
        return
    # the distinct whole seconds (datetime64 floors, as isoformat(timespec=
    # "seconds") drops the microseconds); not np.unique, which on a plain
    # array hashes, slower here, and imports numpy.ma
    stamps = np.sort(columns.times.astype("datetime64[s]"))
    distinct = np.ones(len(stamps), bool)
    distinct[1:] = stamps[1:] != stamps[:-1]
    stamps = stamps[distinct]
    text = list(chain.from_iterable(
        np.datetime_as_string(stamps[lo:lo + SPL_WRITE_ROWS]).tolist()
        for lo in range(0, len(stamps), SPL_WRITE_ROWS)
    ))
    dest.write(",".join(SPL_HEADER) + "\n")
    for lo in range(0, len(columns), SPL_WRITE_ROWS):
        rows = slice(lo, lo + SPL_WRITE_ROWS)
        stamp_at = np.searchsorted(stamps, columns.times[rows].astype("datetime64[s]"))
        levels, level_at = np.unique(columns.levels[rows].view(np.int64), return_inverse=True)
        levels = list(map(repr, levels.view(np.float64).tolist()))
        dest.write("\n".join(map(",".join, zip(
            map(columns.names.__getitem__, columns.codes[rows].tolist()),
            map(text.__getitem__, stamp_at.tolist()),
            map(levels.__getitem__, level_at.tolist()),
        ))) + "\n")


def write_flights(flights: Iterable[FlightEvent], path) -> None:
    tables.write(path, FLIGHTS_HEADER, (
        (f.timestamp.isoformat(timespec="seconds"), f.operation.value, f.runway,
         f.aircraft_type, f.engine_type, f.airline)
        for f in flights
    ))


def write_weather(hours: Iterable[WeatherHour], path) -> None:
    tables.write(path, WEATHER_HEADER, (
        (tables.hour(w.hour_start), float(w.temperature), float(w.wind_speed), float(w.wind_direction),
         int(w.cloud_cover))
        for w in hours
    ))


def write_population(records: Iterable[PopulationRecord], path) -> None:
    tables.write(path, POPULATION_HEADER, (
        (p.tract_id, tables.hour(p.hour_start), float(p.defacto_count)) for p in records
    ))


def write_tracts(tracts: Iterable[TractMeta], path) -> None:
    tables.write(path, TRACTS_HEADER, (
        (t.tract_id, t.district_id, float(t.centroid[0]), float(t.centroid[1]), float(t.resident_count),
         t.land_use.value)
        for t in tracts
    ))


def write_nmts(nmts: Iterable[NmtMeta], path) -> None:
    tables.write(path, NMTS_HEADER, (
        (n.nmt_id, n.tract_id, float(n.location[0]), float(n.location[1])) for n in nmts
    ))


def write_bundle(bundle: Bundle, directory) -> None:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    write_spl(bundle.spl, d / "spl.csv")
    write_flights(bundle.flights, d / "flights.csv")
    write_weather(bundle.weather, d / "weather.csv")
    write_population(bundle.population, d / "population.csv")
    write_tracts(bundle.tracts, d / "tracts.csv")
    write_nmts(bundle.nmts, d / "nmts.csv")


# ---------------------------------------------------------------------------
# cross-stream validation (report-only; never raises on findings)

SEVERITY_ERROR = "error"

COVERAGE_GAP = "COVERAGE_GAP"
DUPLICATE_KEY = "DUPLICATE_KEY"
DANGLING_REFERENCE = "DANGLING_REFERENCE"
OUT_OF_WINDOW = "OUT_OF_WINDOW"


@dataclass(frozen=True, slots=True)
class Finding:
    stream: str
    kind: str
    key: str
    detail: str
    severity: str = SEVERITY_ERROR


@dataclass
class ValidationReport:
    findings: list[Finding] = field(default_factory=list)
    # (nmt_id, hour_start) -> sample count / 1200
    completeness: dict[tuple[str, datetime], float] = field(default_factory=dict)

    @property
    def error_count(self) -> int:
        return sum(1 for f in self.findings if f.severity == SEVERITY_ERROR)


def window_hours(window: tuple[datetime, datetime]) -> list[datetime]:
    """Hour starts in the closed-open window [start, end)."""
    start, end = window
    hours = []
    t = start
    while t < end:
        hours.append(t)
        t += timedelta(hours=1)
    return hours


def validate_bundle(bundle: Bundle, window: tuple[datetime, datetime]) -> ValidationReport:
    """Check coverage, duplicates and references across streams."""
    report = ValidationReport()
    hours = window_hours(window)
    add = report.findings.append
    spl = bundle.spl

    # -- window membership
    def in_window(ts: datetime) -> bool:
        return window[0] <= ts < window[1]

    outside = (spl.times < np.datetime64(window[0], "us")) | (spl.times >= np.datetime64(window[1], "us"))
    for i in np.flatnonzero(outside).tolist():
        add(Finding("spl", OUT_OF_WINDOW, spl.times[i].item().isoformat(), f"sample at {spl.names[spl.codes[i]]}"))
    for f in bundle.flights:
        if not in_window(f.timestamp):
            add(Finding("flights", OUT_OF_WINDOW, f.timestamp.isoformat(), f.runway))
    for w in bundle.weather:
        if not in_window(w.hour_start):
            add(Finding("weather", OUT_OF_WINDOW, tables.hour(w.hour_start), ""))
    for p in bundle.population:
        if not in_window(p.hour_start):
            add(Finding("population", OUT_OF_WINDOW, tables.hour(p.hour_start), p.tract_id))

    # -- weather coverage: exactly one record per window hour
    weather_hours = {w.hour_start for w in bundle.weather}
    for h in hours:
        if h not in weather_hours:
            add(Finding("weather", COVERAGE_GAP, tables.hour(h), "no weather record"))

    # -- population coverage per tract
    pop_keys = {(p.tract_id, p.hour_start) for p in bundle.population}
    tract_ids = {t.tract_id for t in bundle.tracts}
    for t in sorted(tract_ids):
        for h in hours:
            if (t, h) not in pop_keys:
                add(Finding("population", COVERAGE_GAP, f"{t}@{tables.hour(h)}", "no population record"))

    # -- SPL duplicates (every repeat of a (terminal, timestamp), in file
    #    order), coverage and per-NMT-hour completeness
    order = np.lexsort((spl.times, spl.codes))  # stable: a key's first sample sorts first
    codes, times = spl.codes[order], spl.times[order]
    repeat = (codes[1:] == codes[:-1]) & (times[1:] == times[:-1])
    for i in np.sort(order[1:][repeat]).tolist():
        add(Finding("spl", DUPLICATE_KEY, f"{spl.names[spl.codes[i]]}@{spl.times[i].item().isoformat()}",
                    "duplicate sample"))
    _, starts, keys = spl.hour_groups()
    counts = dict(zip(keys, np.diff(np.r_[starts, len(spl)]).tolist()))
    nmt_ids = {n.nmt_id for n in bundle.nmts}
    for n in sorted(nmt_ids):
        for h in hours:
            c = counts.get((n, h), 0)
            report.completeness[(n, h)] = c / SAMPLES_PER_HOUR_NOMINAL
            if c == 0:
                add(Finding("spl", COVERAGE_GAP, f"{n}@{tables.hour(h)}", "no samples"))

    # -- dangling references
    for n in bundle.nmts:
        if n.tract_id not in tract_ids:
            add(Finding("nmts", DANGLING_REFERENCE, n.nmt_id, f"unknown tract {n.tract_id}"))
    for p in sorted({p.tract_id for p in bundle.population} - tract_ids):
        add(Finding("population", DANGLING_REFERENCE, p, "unknown tract"))
    for s in sorted(set(spl.names) - nmt_ids):
        add(Finding("spl", DANGLING_REFERENCE, s, "unknown nmt"))

    return report
