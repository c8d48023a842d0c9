import csv
import io
from dataclasses import replace
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import spl_columns, spl_rows

from airnoise import ingest, spl
from airnoise.errors import AirnoiseError, DuplicateKey, MalformedRow, RangeViolation
from airnoise.ingest import (
    Bundle,
    LandUse,
    NmtMeta,
    Operation,
    TractMeta,
    parse_flights,
    parse_nmts,
    parse_population,
    parse_spl,
    parse_tracts,
    parse_weather,
    validate_bundle,
    window_hours,
    write_spl,
)

SPL_HEADER = "nmt_id,timestamp,level_dba\n"


def test_parse_spl_row():
    out = parse_spl(SPL_HEADER + "NMT1,2023-01-05T09:00:03,72.4\n")
    assert len(out) == 1
    assert spl_rows(out) == [("NMT1", datetime(2023, 1, 5, 9, 0, 3), 72.4)]
    for column in (out.codes, out.times, out.levels):
        with pytest.raises(ValueError):
            column[0] = column[0]


def test_parse_spl_rejects_non_numeric_level():
    with pytest.raises(MalformedRow) as exc:
        parse_spl(SPL_HEADER + "NMT1,2023-01-05T09:00:03,abc\n")
    assert exc.value.line == 2
    assert "level" in exc.value.reason


def test_parse_spl_rejects_out_of_band_level():
    with pytest.raises(RangeViolation) as exc:
        parse_spl(SPL_HEADER + "NMT1,2023-01-05T09:00:03,141.0\n")
    assert exc.value.line == 2


def test_parse_spl_rejects_wrong_field_count():
    with pytest.raises(MalformedRow) as exc:
        parse_spl(SPL_HEADER + "NMT1,2023-01-05T09:00:03\n")
    assert exc.value.line == 2


def test_parse_spl_order_preserved_full_hour():
    hour = datetime(2023, 1, 5, 9)
    rows = "".join(
        f"NMT1,{(hour + timedelta(seconds=3 * k)).isoformat()},{60 + (k % 20)}\n"
        for k in range(1200)
    )
    out = parse_spl(SPL_HEADER + rows)
    assert len(out) == 1200
    assert out.times.tolist() == sorted(out.times.tolist())


def test_empty_file_gives_empty_list():
    assert spl_rows(parse_spl("")) == []
    assert parse_flights("") == []
    assert parse_weather("") == []


def test_header_only_gives_empty_list():
    assert spl_rows(parse_spl(SPL_HEADER)) == []


def test_wrong_header_is_line_1_error():
    with pytest.raises(MalformedRow) as exc:
        parse_spl("a,b,c\nNMT1,2023-01-05T09:00:03,72.4\n")
    assert exc.value.line == 1


def test_parse_weather_cloud_cover_bound():
    head = "hour_start,temperature_c,wind_speed_kt,wind_direction_deg,cloud_cover_tenths\n"
    with pytest.raises(RangeViolation):
        parse_weather(head + "2023-01-05T09:00,1.5,10.0,180.0,11\n")
    ok = parse_weather(head + "2023-01-05T09:00,1.5,10.0,180.0,10\n")
    assert ok[0].cloud_cover == 10


def test_parse_weather_duplicate_hour():
    head = "hour_start,temperature_c,wind_speed_kt,wind_direction_deg,cloud_cover_tenths\n"
    with pytest.raises(DuplicateKey):
        parse_weather(
            head
            + "2023-01-05T09:00,1.5,10.0,180.0,3\n"
            + "2023-01-05T09:00,1.6,10.0,180.0,4\n"
        )


def test_parse_population_duplicate_tract_hour():
    head = "tract_id,hour_start,defacto_count\n"
    with pytest.raises(DuplicateKey) as exc:
        parse_population(head + "T1,2023-01-05T09:00,10\nT1,2023-01-05T09:00,11\n")
    assert exc.value.line == 3


def test_parse_flights_operation_enum():
    head = "timestamp,operation,runway,aircraft_type,engine_type,airline\n"
    out = parse_flights(head + "2023-01-05T09:12:00,DEPARTURE,32L,B737-800,CFM56-7B,KE\n")
    assert out[0].operation is Operation.DEPARTURE
    with pytest.raises(MalformedRow):
        parse_flights(head + "2023-01-05T09:12:00,TAKEOFF,32L,B737-800,CFM56-7B,KE\n")


def test_parse_tracts_land_use_and_duplicates():
    head = "tract_id,district_id,centroid_lat,centroid_lon,resident_count,land_use\n"
    out = parse_tracts(head + "T1,D1,37.5,127.0,1200,COMMERCIAL\n")
    assert out[0].land_use is LandUse.COMMERCIAL
    with pytest.raises(DuplicateKey):
        parse_tracts(
            head + "T1,D1,37.5,127.0,1200,COMMERCIAL\nT1,D1,37.5,127.0,1200,MIXED\n"
        )


def test_timezone_suffix_rejected():
    with pytest.raises(MalformedRow):
        parse_spl(SPL_HEADER + "NMT1,2023-01-05T09:00:03+09:00,72.4\n")


# --- round-trips --------------------------------------------------------------

def test_spl_round_trip_exact():
    text = (
        SPL_HEADER
        + "NMT1,2023-01-05T09:00:03,72.4\n"
        + "NMT2,2023-01-05T09:00:06,61.25\n"
    )
    buf = io.StringIO()
    write_spl(parse_spl(text), buf)
    assert buf.getvalue() == text


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["NMT1", "NMT2", "NMT3"]),
            st.integers(min_value=0, max_value=3599),
            st.floats(min_value=0, max_value=140, allow_nan=False).map(lambda x: round(x, 2)),
        ),
        max_size=30,
    )
)
def test_spl_parse_serialize_fixpoint(rows):
    base = datetime(2023, 1, 5, 9)
    samples = [(nmt, base + timedelta(seconds=sec), level) for nmt, sec, level in rows]
    buf = io.StringIO()
    write_spl(spl_columns(samples), buf)
    parsed = parse_spl(buf.getvalue())
    assert spl_rows(parsed) == samples
    buf2 = io.StringIO()
    write_spl(parsed, buf2)
    assert buf2.getvalue() == buf.getvalue()


def test_parsing_is_pure():
    text = SPL_HEADER + "NMT1,2023-01-05T09:00:03,72.4\n"
    assert spl_rows(parse_spl(text)) == spl_rows(parse_spl(text))


# --- validate_bundle ------------------------------------------------------------

def _tiny_bundle(window_start):
    hours = [window_start + timedelta(hours=k) for k in range(2)]
    tracts = [TractMeta("T1", "D1", (37.5, 127.0), 100, LandUse.RESIDENTIAL)]
    nmts = [NmtMeta("N1", "T1", (37.5, 127.0))]
    spl = [("N1", h + timedelta(seconds=3 * k), 70.0) for h in hours for k in range(3)]
    weather = [ingest.WeatherHour(h, 1.0, 5.0, 180.0, 3) for h in hours]
    population = [ingest.PopulationRecord("T1", h, 50.0) for h in hours]
    return Bundle(spl=spl_columns(spl), flights=[], weather=weather, population=population, tracts=tracts,
                  nmts=nmts)


def test_validate_clean_bundle_no_findings():
    start = datetime(2023, 1, 5)
    bundle = _tiny_bundle(start)
    report = validate_bundle(bundle, (start, start + timedelta(hours=2)))
    assert report.error_count == 0
    assert report.completeness[("N1", start)] == 3 / 1200


def test_validate_weather_gap():
    start = datetime(2023, 1, 5)
    bundle = _tiny_bundle(start)
    bundle = Bundle(
        spl=bundle.spl, flights=[], weather=bundle.weather[:1],
        population=bundle.population, tracts=bundle.tracts, nmts=bundle.nmts,
    )
    report = validate_bundle(bundle, (start, start + timedelta(hours=2)))
    gaps = [f for f in report.findings if f.kind == ingest.COVERAGE_GAP and f.stream == "weather"]
    assert len(gaps) == 1


def test_validate_dangling_nmt():
    start = datetime(2023, 1, 5)
    bundle = _tiny_bundle(start)
    bundle.nmts.append(NmtMeta("N9", "NO_SUCH_TRACT", (0.0, 0.0)))
    report = validate_bundle(bundle, (start, start + timedelta(hours=2)))
    dangles = [f for f in report.findings if f.kind == ingest.DANGLING_REFERENCE and f.stream == "nmts"]
    assert len(dangles) == 1
    assert dangles[0].key == "N9"


def test_validate_out_of_window():
    start = datetime(2023, 1, 5)
    bundle = _tiny_bundle(start)
    bundle = replace(bundle, spl=spl_columns(spl_rows(bundle.spl) + [("N1", start - timedelta(hours=1), 70.0)]))
    report = validate_bundle(bundle, (start, start + timedelta(hours=2)))
    assert any(f.kind == ingest.OUT_OF_WINDOW for f in report.findings)


def test_window_hours_closed_open():
    start = datetime(2023, 1, 5)
    hours = window_hours((start, start + timedelta(hours=3)))
    assert hours == [start, start + timedelta(hours=1), start + timedelta(hours=2)]


# --- columnar SPL parse: equal to the row parser -----------------------------

def _spl_outcome(parse):
    try:
        columns = parse()
    except AirnoiseError as exc:
        return type(exc), str(exc)
    return "ok", spl_rows(columns), columns.levels.view(np.int64).tolist()  # -0.0 is not 0.0


_BASE = datetime(2023, 1, 5, 9)
_GOOD_TS = st.integers(min_value=0, max_value=3 * 3600).map(
    lambda sec: (_BASE + timedelta(seconds=sec)).isoformat()
)
_ODD_TS = st.one_of(
    _GOOD_TS.map(lambda ts: ts.replace("T", " ")),                     # space separator
    st.tuples(_GOOD_TS, st.integers(1, 999999)).map(lambda p: f"{p[0]}.{p[1]:06d}"),
    _GOOD_TS.map(lambda ts: ts + ".5"),
    _GOOD_TS.map(lambda ts: ts[:16]),                                  # no seconds
)
_BAD_TS = st.sampled_from([
    "nope", "2023-02-30T00:00:00", "2023-01-05T24:00:00", "2023-01-05T09:60:00",
    "2023-13-01T00:00:00", "0000-01-05T09:00:00", "2023-01-05T09:00:03+09:00", "",
])
_GOOD_LEVEL = st.floats(min_value=0, max_value=140, allow_nan=False).map(lambda x: repr(round(x, 2)))
_BAD_LEVEL = st.sampled_from(["abc", "141.0", "-0.5", "nan", "inf", "", "1e3"])
# levels float() takes that the byte path hands to the row parser (0072.50
# it reads itself), and the widest it reads
_ODD_LEVEL = st.sampled_from([
    "+5", " 5", "5 ", "1_0", "5.", ".5", "-0.0", "0072.50", "1e1", "72.40000000000001",
    "140.0000000000000001", "140.00000000000", "0.0000000000001", "139.999999999999",
])
_NMT = st.sampled_from(["NMT1", "NMT2", "N3", "Nö4"])
# ids of 0, 1, 8, 9 and 20 bytes, prefixes of each other, and one with a NUL
_ID = st.sampled_from(["", "N", "N1", "N10", "NMT12345", "NMT123456", "NMT-0123456789ABCDEF", "N\x00", "N\x001"])


@st.composite
def _spl_text(draw):
    rows = draw(st.lists(st.tuples(st.one_of(_NMT, _ID), _GOOD_TS, _GOOD_LEVEL), min_size=0, max_size=40))
    lines = [",".join(r) + "\n" for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        nmt, ts, level = rows[i]
        lines[i] = draw(st.sampled_from([
            f'"{nmt}",{ts},{level}\n',                 # quoted field
            f'"{nmt},x",{ts},{level}\n',               # quoted comma
            f'"{nmt}\nB",{ts},{level}\n',              # quoted line end
            f"{nmt},{ts},{level}\r\n",                 # CRLF
            f"{nmt},{ts},{level}\n\n",                 # blank line after
            f"{nmt},{draw(_ODD_TS)},{level}\n",        # non-canonical timestamp
            f"{nmt},{draw(_BAD_TS)},{level}\n",        # bad timestamp
            f"{nmt},{ts},{draw(_BAD_LEVEL)}\n",        # bad level
            f"{nmt},{ts},{draw(_ODD_LEVEL)}\n",        # level for float()
            f"{nmt},{ts}\n",                           # 2 fields
            f"{nmt},{ts},{level},x\n",                 # 4 fields
            f" {nmt},{ts}, {level}\n",                 # padded fields
            f"{nmt},{ts}\n{level}\n",                  # level wrapped onto a line
            f"{nmt}\n{ts}\n{level}\n",                 # a line a field
        ]))
    text = SPL_HEADER + "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\n")                       # no line end after the last row
    return text


@given(_spl_text(), st.integers(min_value=1, max_value=300))
def test_parse_spl_equals_row_parser(text, block_bytes):
    expected = _spl_outcome(lambda: ingest._parse_spl_rows(text))
    # small blocks put the unusual row at a random line of a multi-block file
    data = text.encode("utf-8")
    assert _spl_outcome(lambda: ingest._parse_spl_stream(io.BytesIO(data), block_bytes)) == expected
    assert _spl_outcome(lambda: parse_spl(text)) == expected
    assert _spl_outcome(lambda: parse_spl(data)) == expected


def test_parse_spl_path_equals_row_parser(tmp_path):
    n = 20_000  # about 600 kB: more than one block
    rows = "".join(
        f"NMT{k % 3},{(_BASE + timedelta(seconds=3 * k)).isoformat()},{40 + (k % 700) / 10}\n"
        for k in range(n)
    )
    assert len(rows) > ingest.SPL_BLOCK_BYTES
    path = tmp_path / "spl.csv"
    path.write_text(SPL_HEADER + rows + "NMT1,2023-01-05T09:00:03,140.5\n", encoding="utf-8")
    with pytest.raises(RangeViolation) as exc:
        parse_spl(path)
    assert exc.value.line == n + 2
    path.write_text(SPL_HEADER + rows.replace("\n", "\r\n"), encoding="utf-8")
    out = parse_spl(path)
    assert spl_rows(out) == spl_rows(ingest._parse_spl_rows(path))
    assert out.names == ("NMT0", "NMT1", "NMT2")


def test_spl_block_fast_path_and_fallback():
    ok = b"NMT1,2023-01-05T09:00:03,72.4\nNMT2,2023-01-05T09:00:06,61.25\nNMT1,2023-01-05T09:00:06,0"
    names, codes, micros, levels = spl.parse_block(ok)
    assert [names[c] for c in codes] == ["NMT1", "NMT2", "NMT1"]
    assert levels.tolist() == [72.4, 61.25, 0.0]
    assert micros.view("datetime64[us]").tolist() == [
        datetime(2023, 1, 5, 9, 0, 3), datetime(2023, 1, 5, 9, 0, 6), datetime(2023, 1, 5, 9, 0, 6)]
    for unusual in (
        b"NMT1,2023-01-05T09:00:03,72.4\n\n",           # blank line
        b"NMT1,2023-01-05T09:00:03\n",                  # 2 fields
        b"NMT1,2023-01-05T09:00:03,72.4,1\n",           # 4 fields
        b"N1,2023-01-05T09:00:03\n50\n",                # level wrapped onto a line
        b"N1\n2023-01-05T09:00:03\n50\n",               # a line a field
        b"N1\n2023-01-05T09:00:03,50\n",                # id on a line of its own
        b"NMT1,2023-01-05 09:00:03,72.4\n",             # space separator
        b"NMT1,2023-01-05T09:00:03.5,72.4\n",           # fractional seconds
        b"NMT1,2023-02-29T09:00:03,72.4\n",             # no such day
        b"NMT1,0000-01-05T09:00:03,72.4\n",             # no year 0
        b"NMT1,2023-01-05T09:00:03,abc\n",              # not a number
        b"NMT1,2023-01-05T09:00:03,140.01\n",           # above the band
        "NMTé,2023-01-05T09:00:03,72.4\n".encode(),    # non-ASCII
        *(f"NMT1,2023-01-05T09:00:03,{level}\n".encode() for level in (
            "+5", " 5", "5 ", "1_0", "5.", ".5", "-0.0", "1e1", "72.40000000000001", "1.2.3", "",
        )),
    ):
        assert spl.parse_block(unusual) is None, unusual


def test_spl_block_ids_get_distinct_codes():
    ids = ["", "N", "N1", "N10", "NMT12345", "NMT123456", "NMT-0123456789ABCDEF", "N\x00", "N\x001", "N1", ""]
    block = "".join(f"{nmt},2023-01-05T09:00:03,1\n" for nmt in ids).encode()
    names, codes, _, _ = spl.parse_block(block)
    assert [names[c] for c in codes] == ids
    assert sorted(names) == sorted(set(ids))


@given(st.integers(0, 140), st.text("0123456789", max_size=14), st.integers(0, 3))
def test_spl_block_level_is_float(whole, fraction, zeros):
    # D+ or D+.D+ with at most 15 digits: the double float() gives, bit for bit
    level = "0" * zeros + str(whole)
    if fraction:
        level += "." + fraction
    if len(level.replace(".", "")) > 15 or float(level) > 140:
        return
    chunk = spl.parse_block(f"NMT1,2023-01-05T09:00:03,{level}\n".encode())
    assert chunk is not None, level
    assert chunk[3].view(np.int64).tolist() == [np.float64(float(level)).view(np.int64)], level


@pytest.mark.parametrize("block_bytes", [64, ingest.SPL_BLOCK_BYTES])
def test_non_utf8_spl_byte_is_a_malformed_row(block_bytes):
    rows = [f"NMT1,2023-01-05T09:00:{s:02d},72.4\n".encode() for s in range(0, 60, 3)]
    for bad, line in (
        (b"NMT\xff,2023-01-05T09:00:03,72.4\n", 5),       # in a block the byte path would take
        (b'"NMT1",2023-01-05T09:00:03,72\xff\n', 7),      # after a quote: the row parser's
    ):
        data = SPL_HEADER.encode() + b"".join(rows[:line - 2]) + bad + b"".join(rows[line - 2:])
        for parse in (lambda: ingest._parse_spl_stream(io.BytesIO(data), block_bytes),
                      lambda: ingest._parse_spl_rows(data)):
            with pytest.raises(MalformedRow) as exc:
                parse()
            assert exc.value.line == line
    quoted = SPL_HEADER.encode() + b'"NMT1",2023-01-05T09:00:03,72.4\n' + b"".join(rows[:3]) + b"N\xfe,x,y\n"
    with pytest.raises(MalformedRow) as exc:
        ingest._parse_spl_stream(io.BytesIO(quoted), block_bytes)
    assert exc.value.line == 6


def test_non_utf8_csv_byte_is_a_malformed_row(tmp_path):
    path = tmp_path / "weather.csv"
    path.write_bytes(b"hour_start,temperature_c,wind_speed_kt,wind_direction_deg,cloud_cover_tenths\n"
                     b"2023-01-05T09:00,1.0,2.0,30.0,3\n"
                     b"2023-01-05T10:00,1.0,2.0,30.0,3\xfe\n")
    with pytest.raises(MalformedRow) as exc:
        parse_weather(path)
    assert exc.value.line == 3


# --- validate_bundle: SPL findings in file order ------------------------------

def test_validate_findings_order():
    start = datetime(2023, 1, 5)
    window = (start, start + timedelta(hours=2))
    t = start + timedelta(minutes=5)
    u = start + timedelta(hours=1, seconds=30)
    spl = spl_columns([
        ("N1", t, 70.0),
        ("N2", start + timedelta(hours=2), 71.0),     # out of window (end is open)
        ("N2", t, 70.0),
        ("N1", t, 72.0),                              # duplicate of row 1
        ("N1", start - timedelta(seconds=3), 70.0),   # out of window
        ("N1", u, 70.0),
        ("N2", t, 60.0),                              # duplicate of row 3
        ("N1", t, 61.0),                              # duplicate of row 1 again
        ("N9", u, 61.0),                              # unknown terminal
        ("N8", u, 61.0),                              # unknown terminal
    ])
    bundle = _tiny_bundle(start)
    nmts = bundle.nmts + [NmtMeta("N2", "T1", (37.5, 127.0)), NmtMeta("N3", "T1", (37.5, 127.0))]
    population = bundle.population + [ingest.PopulationRecord(t, start, 1.0) for t in ("X3", "X1", "X2")]
    bundle = Bundle(spl=spl, flights=[], weather=bundle.weather, population=population,
                    tracts=bundle.tracts, nmts=nmts)
    expected = [
        ("spl", ingest.OUT_OF_WINDOW, "2023-01-05T02:00:00", "sample at N2"),
        ("spl", ingest.OUT_OF_WINDOW, "2023-01-04T23:59:57", "sample at N1"),
        ("spl", ingest.DUPLICATE_KEY, "N1@2023-01-05T00:05:00", "duplicate sample"),
        ("spl", ingest.DUPLICATE_KEY, "N2@2023-01-05T00:05:00", "duplicate sample"),
        ("spl", ingest.DUPLICATE_KEY, "N1@2023-01-05T00:05:00", "duplicate sample"),
        ("spl", ingest.COVERAGE_GAP, "N2@2023-01-05T01:00", "no samples"),
        ("spl", ingest.COVERAGE_GAP, "N3@2023-01-05T00:00", "no samples"),
        ("spl", ingest.COVERAGE_GAP, "N3@2023-01-05T01:00", "no samples"),
        ("population", ingest.DANGLING_REFERENCE, "X1", "unknown tract"),
        ("population", ingest.DANGLING_REFERENCE, "X2", "unknown tract"),
        ("population", ingest.DANGLING_REFERENCE, "X3", "unknown tract"),
        ("spl", ingest.DANGLING_REFERENCE, "N8", "unknown nmt"),
        ("spl", ingest.DANGLING_REFERENCE, "N9", "unknown nmt"),
    ]
    for spl_stream in (spl, parse_spl(_spl_csv(spl))):
        bundle = Bundle(spl=spl_stream, flights=bundle.flights, weather=bundle.weather,
                        population=bundle.population, tracts=bundle.tracts, nmts=bundle.nmts)
        report = validate_bundle(bundle, window)
        assert [(f.stream, f.kind, f.key, f.detail) for f in report.findings] == expected
        assert report.completeness[("N1", start)] == 3 / 1200
        assert report.completeness[("N1", start + timedelta(hours=1))] == 1 / 1200
        assert report.completeness[("N3", start)] == 0.0


def _spl_csv(samples) -> str:
    buf = io.StringIO()
    write_spl(samples, buf)
    return buf.getvalue()


# --- write_spl: the columnar writer against the row writer ------------------------

def _write_spl_rows(samples) -> str:
    """The reference writer: one formatted row per (terminal, timestamp, level) row."""
    buf = io.StringIO()
    buf.write(SPL_HEADER)
    for nmt, ts, level in samples:
        buf.write(f"{nmt},{ts.isoformat(timespec='seconds')},{float(level)!r}\n")
    return buf.getvalue()


_stamps = st.one_of(
    st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)),
    # a small pool, so timestamps repeat across rows and terminals
    st.sampled_from([datetime(2023, 1, 5, 9, 0, 3), datetime(2023, 1, 5, 9, 0, 3, 999_999),
                     datetime(1969, 12, 31, 23, 59, 59, 500_000), datetime(5, 3, 1, 0, 0, 7)]),
)
_levels = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=0, max_value=140).map(lambda x: round(x, 2)),
    st.sampled_from([0.0, -0.0, 0.1 + 0.2, 1 / 3, 72.4]),
)


@given(st.lists(st.tuples(st.sampled_from(["NMT1", "NMT10", "NMT2", "B"]), _stamps, _levels), max_size=40),
       st.integers(min_value=1, max_value=7))
def test_write_spl_equals_row_writer(rows, chunk_rows):
    expected = _write_spl_rows(rows)
    assert _spl_csv(spl_columns(rows)) == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "SPL_WRITE_ROWS", chunk_rows)
        assert _spl_csv(spl_columns(rows)) == expected


def test_write_spl_path_and_empty(tmp_path):
    sample = ("N1", datetime(2023, 1, 5, 9, 0, 3, 250_000), 61.25)
    write_spl(spl_columns([sample]), tmp_path / "spl.csv")
    assert (tmp_path / "spl.csv").read_text(encoding="utf-8") == _write_spl_rows([sample])
    assert _spl_csv(spl_columns([])) == SPL_HEADER


# --- errors the csv module raises, and the lines errors name -------------------

WEATHER_HEAD = "hour_start,temperature_c,wind_speed_kt,wind_direction_deg,cloud_cover_tenths\n"


@pytest.mark.parametrize("parse,data,line", [
    (parse_nmts, 'nmt_id,tract_id,lat,lon\nN1,"' + "T" * 200_000 + '",37.5,127.0\n', 2),
    (parse_nmts, '"' + "n" * 200_000 + '",tract_id,lat,lon\n', 1),
    (parse_spl, SPL_HEADER + "N" * 200_000 + ",2023-01-05T09:00:03,50\n", 2),    # the byte path's block
    (parse_spl, SPL_HEADER + "N" * 200_000 + ",2023-01-05T09:00:03,+50\n", 2),   # the row parser's
    (ingest._parse_spl_rows, SPL_HEADER + "N" * 200_000 + ",2023-01-05T09:00:03,50\n", 2),
], ids=["nmts-field", "nmts-header", "spl-fast", "spl-fallback", "spl-rows"])
def test_field_over_the_csv_size_limit_is_a_malformed_row(parse, data, line):
    for source in (data, data.encode()):
        with pytest.raises(MalformedRow) as exc:
            parse(source)
        assert exc.value.line == line and "field larger than field limit" in exc.value.reason


def test_spl_block_rejects_an_id_over_the_csv_size_limit():
    row = ",2023-01-05T09:00:03,50\n"
    limit = csv.field_size_limit()
    assert spl.parse_block(("N" * limit + row).encode()) is not None
    assert spl.parse_block(("N" * (limit + 1) + row).encode()) is None


@pytest.mark.parametrize("parse,data,error,line", [
    (parse_spl, SPL_HEADER.encode() + b"N1,2023-01-05T09:00:03,50\rN\xff1,2023-01-05T09:00:06,50\r", MalformedRow, 3),
    (parse_weather, (WEATHER_HEAD + "2023-01-05T09:00,1.0,2.0,30.0,3\r").encode()
     + b"2023-01-05T10:00,1.0,2.0,30.0,3\xfe\r", MalformedRow, 3),
    (parse_spl, SPL_HEADER + '"N\n1",2023-01-01T00:00:00,50\nN1,2023-01-01T00:00:03,500\n', RangeViolation, 4),
    (parse_weather, WEATHER_HEAD + '2023-01-05T09:00,"1.0\n",2.0,30.0,3\n2023-01-05T10:00,1.0,-2.0,30.0,3\n',
     RangeViolation, 4),
    (parse_spl, '"nmt_id",timestamp,level_dba\nN1,2023-01-05T09:00:03,50\nN1,x,50\n', MalformedRow, 3),
], ids=["spl-cr", "weather-cr", "spl-quoted-line-end", "weather-quoted-line-end", "spl-quoted-header"])
def test_error_names_its_physical_line(tmp_path, parse, data, error, line):
    path = tmp_path / "input.csv"
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    for source in (data, path):
        with pytest.raises(error) as exc:
            parse(source)
        assert exc.value.line == line


def test_spl_quoted_header_goes_to_the_row_parser():
    out = parse_spl('"nmt_id",timestamp,level_dba\nN1,2023-01-05T09:00:03,50\nN2,2023-01-05T09:00:03,5e1\n')
    assert spl_rows(out) == [("N1", datetime(2023, 1, 5, 9, 0, 3), 50.0), ("N2", datetime(2023, 1, 5, 9, 0, 3), 50.0)]


def test_spl_block_with_a_comma_for_a_line_end_falls_back():
    # 6 separators on 2 lines, but the first line's third one is the second's comma
    assert spl.parse_block(b"N1,2023-01-05T09:00:03\nN1,2023-01-05T09:00:06,50,x\n") is None


@pytest.mark.parametrize("parse,head,rows,error,reason", [
    (parse_weather, WEATHER_HEAD, ["2023-01-05T09:00,1.0,2.0,30.0,3.5"], MalformedRow, "cloud_cover not an integer"),
    (parse_weather, WEATHER_HEAD, ["2023-01-05T09:30,1.0,2.0,30.0,3"], MalformedRow, "hour_start must be on the hour"),
    (parse_weather, WEATHER_HEAD, ["2023-01-05T09:00,1.0,-2.0,30.0,3"], RangeViolation, "wind_speed_kt=-2.0"),
    (parse_weather, WEATHER_HEAD, ["2023-01-05T09:00,1.0,2.0,360,3"], RangeViolation, "wind_direction_deg=360.0"),
    (parse_population, "tract_id,hour_start,defacto_count\n", ["T1,2023-01-05T09:00,-1"], RangeViolation,
     "defacto_count=-1.0"),
    (parse_tracts, "tract_id,district_id,centroid_lat,centroid_lon,resident_count,land_use\n",
     ["T1,D1,37.5,127.0,-5,MIXED"], RangeViolation, "resident_count=-5.0"),
    (parse_nmts, "nmt_id,tract_id,lat,lon\n", ["N1,T1,37.5,127.0", "N1,T2,37.5,127.0"], DuplicateKey, "'N1'"),
], ids=["cloud-cover", "off-hour", "wind-speed", "wind-direction", "defacto-count", "resident-count", "nmt-id"])
def test_parser_rejects_a_row(parse, head, rows, error, reason):
    with pytest.raises(error) as exc:
        parse(head + "\n".join(rows) + "\n")
    assert exc.value.line == len(rows) + 1
    assert reason in str(exc.value)


def test_validate_out_of_window_and_population_gap_findings():
    start = datetime(2023, 1, 5)
    bundle = _tiny_bundle(start)
    before = start - timedelta(hours=1)
    bundle = replace(
        bundle,
        flights=[ingest.FlightEvent(start + timedelta(hours=2), Operation.ARRIVAL, "32L", "A321", "V2500", "KE")],
        weather=bundle.weather + [ingest.WeatherHour(before, 1.0, 5.0, 180.0, 3)],
        population=bundle.population[1:] + [ingest.PopulationRecord("T1", before, 50.0)],
    )
    report = validate_bundle(bundle, (start, start + timedelta(hours=2)))
    assert [(f.stream, f.kind, f.key, f.detail) for f in report.findings] == [
        ("flights", ingest.OUT_OF_WINDOW, "2023-01-05T02:00:00", "32L"),
        ("weather", ingest.OUT_OF_WINDOW, "2023-01-04T23:00", ""),
        ("population", ingest.OUT_OF_WINDOW, "2023-01-04T23:00", "T1"),
        ("population", ingest.COVERAGE_GAP, "T1@2023-01-05T00:00", "no population record"),
    ]
