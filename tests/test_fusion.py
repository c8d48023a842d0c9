from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, strategies as st

from airnoise.acoustics import HourlyLaeq
from airnoise.errors import AmbiguousMapping, MissingPopulation, MissingWeather
from airnoise.fusion import (
    MAPPING_NEAREST_CENTROID,
    active_runways,
    build_features,
    fuse,
    map_tracts,
    rank_combos,
    runway_heading,
    wind_deviation,
)
from airnoise.ingest import (
    FlightEvent,
    LandUse,
    NmtMeta,
    Operation,
    PopulationRecord,
    TractMeta,
    WeatherHour,
)

H0 = datetime(2023, 1, 5)


def _tract(tid, lat=37.5, lon=127.0, district="D1", residents=100.0):
    return TractMeta(tid, district, (lat, lon), residents, LandUse.RESIDENTIAL)


def _nmt(nid, tid, lat=37.5, lon=127.0):
    return NmtMeta(nid, tid, (lat, lon))


# --- mapping ---------------------------------------------------------------------

def test_containing_maps_five_nmts():
    tracts = [_tract(f"T{i}") for i in range(1, 6)] + [_tract("T9")]
    nmts = [_nmt(f"N{i}", f"T{i}") for i in range(1, 6)]
    mapping = map_tracts(nmts, tracts)
    assert mapping == {f"T{i}": f"N{i}" for i in range(1, 6)}
    assert "T9" not in mapping


def test_containing_ambiguous():
    tracts = [_tract("T1")]
    nmts = [_nmt("N1", "T1"), _nmt("N2", "T1")]
    with pytest.raises(AmbiguousMapping):
        map_tracts(nmts, tracts)


def test_nearest_maps_every_tract():
    tracts = [_tract("T1", lat=0.0, lon=0.0), _tract("T2", lat=0.0, lon=1.0)]
    nmts = [_nmt("N1", "T1", lat=0.0, lon=0.0)]
    mapping = map_tracts(nmts, tracts, MAPPING_NEAREST_CENTROID)
    assert mapping == {"T1": "N1", "T2": "N1"}


def test_nearest_tie_breaks_lexicographically():
    tracts = [_tract("T1", lat=0.0, lon=0.0)]
    nmts = [
        _nmt("N2", "T1", lat=0.0, lon=1.0),
        _nmt("N1", "T1", lat=0.0, lon=-1.0),
    ]
    mapping = map_tracts(nmts, tracts, MAPPING_NEAREST_CENTROID)
    assert mapping == {"T1": "N1"}


def test_mapping_unknown_tract_rejected():
    with pytest.raises(KeyError):
        map_tracts([_nmt("N1", "TX")], [_tract("T1")])


# --- fuse -------------------------------------------------------------------------

def _hourly(nmt, offset, laeq):
    return HourlyLaeq(nmt, H0 + timedelta(hours=offset), laeq, 100 if laeq is not None else 0, 0.5)


def test_fuse_cardinality():
    hours = [H0 + timedelta(hours=k) for k in range(24)]
    tracts = [_tract(f"T{i}") for i in range(5)]
    mapping = {f"T{i}": f"N{i}" for i in range(5)}
    population = [PopulationRecord(t.tract_id, h, 10.0 * i) for i, t in enumerate(tracts) for h in hours]
    laeq = [_hourly(f"N{i}", k, 70.0) for i in range(5) for k in range(24)]
    records = fuse(population, laeq, mapping, tracts, hours)
    assert len(records) == 120
    assert records[0].tract_id == "T0"


def test_fuse_absent_laeq_propagates():
    hours = [H0]
    tracts = [_tract("T1", residents=77.0)]
    population = [PopulationRecord("T1", H0, 50.0)]
    records = fuse(population, [_hourly("N1", 0, None)], {"T1": "N1"}, tracts, hours)
    assert records[0].laeq is None
    assert records[0].population_defacto == 50.0
    assert records[0].population_resident == 77.0


def test_fuse_missing_laeq_record_is_absent():
    hours = [H0]
    records = fuse([PopulationRecord("T1", H0, 5.0)], [], {"T1": "N1"}, [_tract("T1")], hours)
    assert records[0].laeq is None


def test_fuse_missing_population_named():
    hours = [H0, H0 + timedelta(hours=1)]
    population = [PopulationRecord("T1", H0, 50.0)]
    with pytest.raises(MissingPopulation) as exc:
        fuse(population, [], {"T1": "N1"}, [_tract("T1")], hours)
    assert exc.value.pairs == [("T1", "2023-01-05T01:00")]


def test_fuse_population_conserving():
    hours = [H0 + timedelta(hours=k) for k in range(3)]
    tracts = [_tract("T1"), _tract("T2")]
    mapping = {"T1": "N1", "T2": "N2"}
    rng = np.random.default_rng(0)
    population = [
        PopulationRecord(t.tract_id, h, float(rng.uniform(0, 100)))
        for t in tracts for h in hours
    ]
    records = fuse(population, [], mapping, tracts, hours)
    for h in hours:
        total_in = sum(p.defacto_count for p in population if p.hour_start == h)
        total_out = sum(r.population_defacto for r in records if r.hour_start == h)
        assert total_out == pytest.approx(total_in, abs=1e-9)


# --- wind deviation ------------------------------------------------------------------

def test_wind_deviation_spec_example():
    assert wind_deviation(140.0, 320.0) == 180.0


def test_wind_deviation_zero():
    assert wind_deviation(320.0, 320.0) == 0.0


@given(st.floats(min_value=0, max_value=359.999), st.floats(min_value=0, max_value=359.999))
def test_wind_deviation_bounds_and_symmetry(a, b):
    d = wind_deviation(a, b)
    assert 0.0 <= d <= 180.0
    assert d == pytest.approx(wind_deviation(b, a), abs=1e-9)


def test_runway_heading_parse():
    assert runway_heading("32L") == 320.0
    assert runway_heading("05") == 50.0
    with pytest.raises(ValueError):
        runway_heading("XX")


# --- feature table --------------------------------------------------------------------

def _weather(offset, wind_direction=140.0, cloud=3):
    return WeatherHour(H0 + timedelta(hours=offset), 2.0, 10.0, wind_direction, cloud)


def _flight(offset_min, op, combo=("B737-800", "CFM56-7B"), runway="32L"):
    return FlightEvent(
        H0 + timedelta(minutes=offset_min), op, runway, combo[0], combo[1], "KE"
    )


def test_build_features_combo_count():
    hours = [H0]
    flights = [
        _flight(5, Operation.DEPARTURE),
        _flight(15, Operation.DEPARTURE),
        _flight(25, Operation.DEPARTURE),
        _flight(35, Operation.ARRIVAL, combo=("A320", "V2500-A5")),
    ]
    nmts = [_nmt("N1", "T1")]
    table = build_features(flights, [_weather(0)], nmts, [_hourly("N1", 0, 70.0)], hours)
    assert len(table.keys) == 2  # one NMT-hour x two operations
    j = table.feature_names.index("combo_B737-800+CFM56-7B")
    assert table.matrix[:, j].tolist() == [3.0, 3.0]
    dep = table.feature_names.index("departures_total")
    arr = table.feature_names.index("arrivals_total")
    assert table.matrix[0, dep] == 3.0
    assert table.matrix[0, arr] == 1.0


def test_build_features_wind_deviation_from_majority_runway():
    hours = [H0]
    flights = [_flight(5, Operation.DEPARTURE, runway="32L")]
    table = build_features(flights, [_weather(0, wind_direction=140.0)],
                           [_nmt("N1", "T1")], [], hours)
    j = table.feature_names.index("wind_deviation_deg")
    dep_row = [i for i, k in enumerate(table.keys) if k[2] is Operation.DEPARTURE][0]
    assert table.matrix[dep_row, j] == 180.0


def test_build_features_zero_flight_hour_retained():
    hours = [H0, H0 + timedelta(hours=1)]
    flights = [_flight(5, Operation.DEPARTURE)]
    table = build_features(flights, [_weather(0), _weather(1)],
                           [_nmt("N1", "T1")], [_hourly("N1", 0, 70.0)], hours)
    assert len(table.keys) == 4
    # second hour rows: zero totals, zero combos, absent target
    rows2 = [i for i, k in enumerate(table.keys) if k[1] == hours[1]]
    dep = table.feature_names.index("departures_total")
    for i in rows2:
        assert table.matrix[i, dep] == 0.0
        assert np.isnan(table.laeq[i])


def test_build_features_row_count_invariant():
    hours = [H0 + timedelta(hours=k) for k in range(5)]
    nmts = [_nmt("N1", "T1"), _nmt("N2", "T2")]
    table = build_features([], [_weather(k) for k in range(5)], nmts, [], hours)
    assert len(table.keys) == len(nmts) * len(hours) * 2
    assert table.matrix.shape == (20, 22)


def test_build_features_missing_weather():
    with pytest.raises(MissingWeather):
        build_features([], [_weather(0)], [_nmt("N1", "T1")], [],
                       [H0, H0 + timedelta(hours=1)])


def test_build_features_targets_duplicated_per_operation():
    hours = [H0]
    table = build_features([_flight(5, Operation.DEPARTURE)], [_weather(0)],
                           [_nmt("N1", "T1")], [_hourly("N1", 0, 68.5)], hours)
    assert table.laeq.tolist() == [68.5, 68.5]


def test_build_features_sub_window_rows_equal_full_window_rows():
    # flights in every hour of both operations, so no hour inherits a runway
    # across the sub-window's edges; the flights outside it stay in the input
    hours = [H0 + timedelta(hours=k) for k in range(8)]
    combos = [("B737-800", "CFM56-7B"), ("A320", "V2500-A5"), ("B777-300ER", "GE90-115B")]
    flights = [
        _flight(60 * k + 7 * j, op, combo=combos[(k + j) % 3], runway=("32L", "14R", "33")[(k + j) % 3])
        for k in range(8) for op in Operation for j in range(1 + (k * 5 + len(op.value)) % 4)
    ]
    weather = [_weather(k, wind_direction=40.0 * k, cloud=k) for k in range(8)]
    nmts = [_nmt("N3", "T3", 37.3, 127.3), _nmt("N1", "T1", 37.1, 127.1), _nmt("N2", "T2", 37.2, 127.2)]
    levels = [_hourly(n.nmt_id, k, 60.0 + k + i / 4 if (k + i) % 5 else None)
              for i, n in enumerate(nmts) for k in range(8)]
    full = build_features(flights, weather, nmts, levels, hours)
    sub = build_features(flights, weather, nmts, levels, hours[1:6])
    row_of = {key: i for i, key in enumerate(full.keys)}
    rows = [row_of[key] for key in sub.keys]
    assert len(rows) == 3 * 5 * 2
    # each window ranks the combos of its own flights, so columns match by name
    assert sorted(sub.feature_names) == sorted(full.feature_names)
    columns = [full.feature_names.index(name) for name in sub.feature_names]
    assert sub.matrix.tolist() == full.matrix[np.ix_(rows, columns)].tolist()
    in_window = [f for f in flights if hours[1] <= f.timestamp < hours[6]]
    assert sub.feature_names[10:13] == [f"combo_{name}" for name in rank_combos(in_window)]
    assert np.array_equal(sub.laeq, full.laeq[rows], equal_nan=True)
    location = {n.nmt_id: list(n.location) for n in nmts}
    assert [row[2:4] for row in full.matrix.tolist()] == [location[k[0]] for k in full.keys]
    assert full.matrix[:, 0].tolist() == [k[1].hour for k in full.keys]


def test_features_csv_writes_the_target_into_both_columns(tmp_path):
    from airnoise.fusion import write_features

    hours = [H0, H0 + timedelta(hours=1)]
    table = build_features([_flight(5, Operation.DEPARTURE)], [_weather(0), _weather(1)],
                           [_nmt("N1", "T1")], [_hourly("N1", 0, 68.5)], hours)
    write_features(table, tmp_path / "features.csv")
    header, *rows = [line.split(",") for line in (tmp_path / "features.csv").read_text().splitlines()]
    assert header[-2:] == ["takeoff_laeq", "landing_laeq"]
    assert [row[-2:] for row in rows] == [["68.5", "68.5"]] * 2 + [["", ""]] * 2


def test_active_runway_before_the_first_flight_is_the_first_one():
    hours = [H0 + timedelta(hours=k) for k in range(2, 6)]
    flights = [_flight(110, Operation.DEPARTURE, runway="14R"),  # before the window
               _flight(250, Operation.DEPARTURE, runway="32L"),
               _flight(260, Operation.DEPARTURE, runway="14R"),
               _flight(270, Operation.DEPARTURE, runway="14R")]
    active = active_runways(flights, hours)
    assert [active[(h, Operation.DEPARTURE)] for h in hours] == ["14R"] * 4
    assert [active[(h, Operation.ARRIVAL)] for h in hours] == [""] * 4
    active = active_runways(flights[:2], hours)
    assert [active[(h, Operation.DEPARTURE)] for h in hours] == ["32L"] * 4


def test_rank_combos_by_frequency_then_name():
    flights = (
        [_flight(k, Operation.DEPARTURE, combo=("A", "x")) for k in range(3)]
        + [_flight(k, Operation.DEPARTURE, combo=("B", "y")) for k in range(3)]
        + [_flight(k, Operation.DEPARTURE, combo=("C", "z")) for k in range(1)]
    )
    assert rank_combos(flights, top=2) == ["A+x", "B+y"]


# --- intermediate round-trips ------------------------------------------------------

def test_fused_round_trip(tmp_path):
    from airnoise.fusion import read_fused, write_fused

    hours = [H0, H0 + timedelta(hours=1)]
    records = fuse(
        [PopulationRecord("T1", h, 12.375 + i) for i, h in enumerate(hours)],
        [_hourly("N1", 0, 70.125), _hourly("N1", 1, None)],
        {"T1": "N1"}, [_tract("T1", residents=9.5)], hours,
    )
    path = tmp_path / "fused.csv"
    write_fused(records, path)
    assert read_fused(path) == records


def test_features_round_trip(tmp_path):
    from airnoise.fusion import read_features, write_features

    hours = [H0, H0 + timedelta(hours=1)]
    table = build_features(
        [_flight(5, Operation.DEPARTURE)], [_weather(0), _weather(1)],
        [_nmt("N1", "T1")], [_hourly("N1", 0, 68.5)], hours,
    )
    path = tmp_path / "features.csv"
    write_features(table, path)
    back = read_features(path)
    assert back.keys == table.keys
    assert back.feature_names == table.feature_names
    assert back.matrix.tolist() == table.matrix.tolist()
    assert np.array_equal(back.laeq, table.laeq, equal_nan=True)


def test_torn_fused_and_features_raise_malformed_row(tmp_path, torn):
    from airnoise.errors import MalformedRow
    from airnoise.fusion import read_features, read_fused, write_features, write_fused

    hours = [H0, H0 + timedelta(hours=1)]
    records = fuse(
        [PopulationRecord("T1", h, 12.375 + i) for i, h in enumerate(hours)],
        [_hourly("N1", 0, 70.125), _hourly("N1", 1, 71.5)],
        {"T1": "N1"}, [_tract("T1", residents=9.5)], hours,
    )
    table = build_features(
        [_flight(5, Operation.DEPARTURE)], [_weather(0), _weather(1)],
        [_nmt("N1", "T1")], [_hourly("N1", 0, 68.5), _hourly("N1", 1, 69.25)], hours,
    )
    for write, read, value in ((write_fused, read_fused, records), (write_features, read_features, table)):
        path = tmp_path / "table.csv"
        write(value, path)
        path.write_text(torn(path.read_text(encoding="utf-8")), encoding="utf-8")
        with pytest.raises(MalformedRow):
            read(path)
