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

A line may end with ``\n``, ``\r\n`` or ``\r``, as in text mode. The csv
module reads strictly: a byte that is not UTF-8, a field over its size limit,
text after a closing quote (``"N"1``) and a quote still open at the end of the
file are each a ``MalformedRow`` naming its line; a row's line is the last it
spans. A quote inside an unquoted field (``N"1``) is a plain character.

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
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import tables
from .errors import DuplicateKey, MalformedRow, RangeViolation
from .spl import LEVEL_MAX_DBA, LEVEL_MIN_DBA, SplColumns, join_chunks, parse_block
from .tables import Operation

# Nominal 3-second samples in one hour; completeness is reported against this,
# never imputed.
SAMPLES_PER_HOUR_NOMINAL = 1200

# rows of spl.csv formatted and written at a time
SPL_WRITE_ROWS = 1 << 13


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
    as a quoted field may span lines. A row the strict csv module rejects
    (see the module docstring) raises ``MalformedRow``."""
    reader = csv.reader(_lines(blocks, lineno), strict=True)
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


def _finite(value: str, lineno: int, column: str, low: float = -math.inf, high: float = math.inf) -> float:
    """``value`` as a float that is finite and in [low, high), or else a
    ``RangeViolation`` naming the line and the column; NaN fails every bound."""
    x = _float(value, lineno, column)
    if not (math.isfinite(x) and low <= x < high):
        raise RangeViolation(lineno, column, x, f"{'[' if math.isfinite(low) else '('}{low:g}, {high:g})")
    return x


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
    return join_chunks([_spl_fields(_rows(source, SPL_HEADER))])


def _spl_fields(rows) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """The terminal ids, codes into them, microseconds since 1970 and levels
    of spl.csv rows: a chunk of ``spl.join_chunks``."""
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
    chunks = []
    if first:
        _check_header(next(_csv_rows([first], 1))[1], SPL_HEADER)
    lineno = 2
    blocks = _spl_blocks(fh, block_bytes)
    for block in blocks:
        if b"\r" in block:
            block = block.replace(b"\r\n", b"\n")  # a line end, as for the row parser
        if b'"' in block or b"\r" in block:
            # a quoted field may span blocks: the row parser takes the rest
            chunks.append(_spl_fields(_records(_csv_rows(chain([block], blocks), lineno), 3)))
            break
        chunk = parse_block(block)
        if chunk is None:
            chunk = _spl_fields(_records(_csv_rows([block], lineno), 3))
            lineno += block.count(b"\n")
        else:
            lineno += len(chunk[3])  # a row a line
        chunks.append(chunk)
    return join_chunks(chunks)


def parse_flights(source) -> list[FlightEvent]:
    out = []
    for lineno, (ts, op, runway, actype, engine, airline) in _rows(source, FLIGHTS_HEADER):
        if not any(ch.isdecimal() for ch in runway):  # the rule of fusion.runway_heading
            raise MalformedRow(lineno, f"runway {runway!r} has no numeric designator")
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
        temperature = _finite(temp, lineno, "temperature_c")
        ws = _finite(wind, lineno, "wind_speed_kt", 0)
        wd = _finite(wdir, lineno, "wind_direction_deg", 0, 360)
        cc = _int(cloud, lineno, "cloud_cover")
        if not 0 <= cc <= 10:
            raise RangeViolation(lineno, "cloud_cover_tenths", cc, "[0, 10]")
        out.append(WeatherHour(hs, temperature, ws, wd, cc))
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
        out.append(PopulationRecord(tract, hs, _finite(count, lineno, "defacto_count", 0)))
    return out


def parse_tracts(source) -> list[TractMeta]:
    out = []
    seen: set[str] = set()
    for lineno, (tract, district, lat, lon, residents, land_use) in _rows(source, TRACTS_HEADER):
        if tract in seen:
            raise DuplicateKey(lineno, tract)
        seen.add(tract)
        out.append(TractMeta(
            tract, district,
            (_finite(lat, lineno, "centroid_lat"), _finite(lon, lineno, "centroid_lon")),
            _finite(residents, lineno, "resident_count", 0), _enum(LandUse, land_use, lineno, "land_use"),
        ))
    return out


def parse_nmts(source) -> list[NmtMeta]:
    out = []
    seen: set[str] = set()
    for lineno, (nmt, tract, lat, lon) in _rows(source, NMTS_HEADER):
        if nmt in seen:
            raise DuplicateKey(lineno, nmt)
        seen.add(nmt)
        out.append(NmtMeta(nmt, tract, (_finite(lat, lineno, "lat"), _finite(lon, lineno, "lon"))))
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
# written by tables.write; spl.csv, the one that grows with the data, is
# written from its columns as byte arrays by write_spl, through
# tables.write_atomic.

# "00" to "99", each as the little-endian number of its two bytes
_TWO_DIGITS = np.frombuffer("".join(f"{k:02d}" for k in range(100)).encode(), "<u2").astype(np.uint64)
# the colons of "HH:MM:SS" in a little-endian 8-byte word
_COLONS = ord(":") << 16 | ord(":") << 40


def _cells(texts: list[bytes]) -> np.ndarray:
    """``texts`` as equal-width void items, each padded with 0xFF bytes, a
    byte that UTF-8 never holds."""
    lengths = np.array([len(text) for text in texts])
    width = int(lengths.max())
    rows = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(len(texts), width).copy()
    rows[np.arange(width) >= lengths[:, None]] = 0xFF
    return rows.view(f"V{width}").ravel()


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct ``values``, ascending: a sort and a neighbour mask, not
    np.unique, whose first call in a process hashes and imports numpy.ma."""
    values = np.sort(values)
    return values[np.r_[True, values[1:] != values[:-1]]]


def write_spl(columns: SplColumns, fh) -> None:
    """Write the stream from its columns to the text stream ``fh``.

    A row is four fixed-width byte fields: the terminal id as a csv cell (by
    ``tables.csv_writer``) and its comma; the date and "T"; "HH:MM:SS"; and
    a comma, the level's ``repr`` and the line end. Each distinct id and each
    distinct level (by bit pattern, so -0.0 keeps its sign) is formatted and
    encoded once for the stream, padded with 0xFF bytes to its field's width.
    Each block of ``SPL_WRITE_ROWS`` rows is one array of such rows, filled
    a field at a time by gathers: the ids by code, the levels by their rank
    among the distinct ones (found for the block's rows in sorted order, where
    ``np.searchsorted`` is fast), the dates from ``np.datetime_as_string`` of
    the block's distinct days (which matches ``isoformat`` for years 1-9999)
    and the time from a table of the day's seconds, the microseconds dropped
    as ``isoformat(timespec="seconds")`` drops them. The block's bytes less
    the padding are decoded and written at once. No Python object is made
    per row, and the work memory is a block's, beside the distinct levels.
    """
    fh.write(",".join(SPL_HEADER) + "\n")
    if not len(columns):
        return
    names = []
    tables.csv_writer(names.append).writerows((name,) for name in columns.names)
    ids = _cells([name.encode() + b"," for name in names])
    bits = _distinct(columns.levels.view(np.int64))
    ends = _cells([f",{level!r}\n".encode() for level in bits.view(np.float64).tolist()])
    # "HH:MM:SS" of each second of a day
    clock = (_TWO_DIGITS[:24, None, None] | _TWO_DIGITS[:60, None] << 24 | _TWO_DIGITS[:60] << 48 | _COLONS).ravel()
    row = np.dtype({"names": ["id", "date", "time", "level"], "formats": [ids.dtype, "V11", "<u8", ends.dtype],
                    "offsets": [0, ids.itemsize, ids.itemsize + 11, ids.itemsize + 19],
                    "itemsize": ids.itemsize + 19 + ends.itemsize})
    for lo in range(0, len(columns), SPL_WRITE_ROWS):
        rows = slice(lo, lo + SPL_WRITE_ROWS)
        levels = columns.levels[rows].view(np.int64)
        days, seconds = np.divmod(columns.times[rows].astype("datetime64[s]").view(np.int64), 86400)
        day_list = _distinct(days)
        dates = _cells([f"{day}T".encode() for day in np.datetime_as_string(day_list.astype("datetime64[D]"))])
        out = np.empty(len(levels), row)
        out["id"] = ids[columns.codes[rows]]
        out["date"] = dates[np.searchsorted(day_list, days)]
        out["time"] = clock[seconds]
        order = levels.argsort()
        out["level"][order] = ends[np.searchsorted(bits, levels[order])]
        fh.write(out.tobytes().replace(b"\xff", b"").decode())


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
    tables.write_atomic(d / "spl.csv", lambda fh: write_spl(bundle.spl, fh))
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
    """Check coverage, duplicates and references across streams. The SPL
    stream is put in order once, by ``SplColumns.hour_groups``."""
    report = ValidationReport()
    hours = window_hours(window)
    add = report.findings.append
    spl = bundle.spl

    # -- window membership
    start, end = window
    outside = (spl.times < np.datetime64(start, "us")) | (spl.times >= np.datetime64(end, "us"))
    for i in np.flatnonzero(outside).tolist():
        add(Finding("spl", OUT_OF_WINDOW, spl.times[i].item().isoformat(), f"sample at {spl.names[spl.codes[i]]}"))
    for f in bundle.flights:
        if not start <= f.timestamp < end:
            add(Finding("flights", OUT_OF_WINDOW, f.timestamp.isoformat(), f.runway))
    for w in bundle.weather:
        if not start <= w.hour_start < end:
            add(Finding("weather", OUT_OF_WINDOW, tables.hour(w.hour_start), ""))
    for p in bundle.population:
        if not start <= p.hour_start < end:
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
    _, starts, keys, repeats = spl.hour_groups()
    for i in repeats.tolist():
        add(Finding("spl", DUPLICATE_KEY, f"{spl.names[spl.codes[i]]}@{spl.times[i].item().isoformat()}",
                    "duplicate sample"))
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
