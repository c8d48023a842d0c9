import hashlib
import math
from dataclasses import replace
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import spl_rows

from airnoise import synth
from airnoise.acoustics import hourly_series
from airnoise.errors import InvalidConfig
from airnoise.exposure import rotation_contrast
from airnoise.ingest import validate_bundle, write_bundle
from airnoise.rng import substream
from airnoise.synth import (
    JITTER_DB,
    LEVEL_CEILING,
    LEVEL_FLOOR,
    RUNWAY_EAST,
    RUNWAY_WEST,
    GroundTruth,
    ScenarioConfig,
    commuter_wave,
    generate,
    landing_runway,
    write_scenario,
)
from airnoise.validation import DiurnalClass, classify_diurnal

SMALL = ScenarioConfig(seed=5, days=4, samples_per_hour=60)


@pytest.fixture(scope="module")
def small_scenario():
    return generate(SMALL)


def test_config_validation():
    with pytest.raises(InvalidConfig):
        ScenarioConfig(days=0)
    with pytest.raises(InvalidConfig):
        ScenarioConfig(flights_per_hour=(1,) * 23)
    with pytest.raises(InvalidConfig):
        ScenarioConfig(near_32l_tracts=0)
    with pytest.raises(InvalidConfig):
        ScenarioConfig(samples_per_hour=0)


def _listed(bundle):
    """``bundle`` with its SPL columns listed, so that bundles compare by value."""
    return replace(bundle, spl=spl_rows(bundle.spl))


def test_same_seed_identical_bundle(tmp_path):
    b1, t1 = generate(SMALL)
    b2, t2 = generate(SMALL)
    assert _listed(b1) == _listed(b2)
    assert t1.to_dict() == t2.to_dict()
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_bundle(b1, d1)
    write_bundle(b2, d2)
    for name in ("spl.csv", "flights.csv", "weather.csv", "population.csv", "tracts.csv", "nmts.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_different_seed_differs():
    b1, _ = generate(SMALL)
    b2, _ = generate(ScenarioConfig(seed=6, days=4, samples_per_hour=60))
    assert _listed(b1) != _listed(b2)


def test_bundle_passes_validation(small_scenario):
    bundle, truth = small_scenario
    report = validate_bundle(bundle, (truth.window_start, truth.window_end))
    assert report.error_count == 0


def test_block_roles_alternate_eight_times_a_day():
    hours = [landing_runway(datetime(2023, 1, 1, h), 3) for h in range(24)]
    changes = sum(1 for a, b in zip(hours, hours[1:] + hours[:1]) if a != b)
    assert changes == 8
    # the published pattern: 09:00-11:59 lands on the east runway, the next
    # block swaps roles
    assert landing_runway(datetime(2023, 1, 1, 9), 3) == RUNWAY_EAST
    assert landing_runway(datetime(2023, 1, 1, 12), 3) == RUNWAY_WEST


def test_flights_follow_schedule(small_scenario):
    bundle, truth = small_scenario
    for f in bundle.flights:
        lands = landing_runway(f.timestamp, truth.block_hours)
        if f.operation.value == "ARRIVAL":
            assert f.runway == lands
        else:
            assert f.runway != lands


def test_recomputed_laeq_matches_intended(small_scenario):
    bundle, truth = small_scenario
    series = hourly_series(bundle.spl, 60.0)
    diffs = []
    for h in series:
        key = f"{h.nmt_id}|{h.hour_start.isoformat(timespec='minutes')}"
        if h.laeq is None:
            assert key not in truth.intended_level
        else:
            diffs.append(abs(h.laeq - truth.intended_level[key]))
    assert max(diffs) < 0.2


def test_quiet_hours_have_no_measured_level(small_scenario):
    bundle, truth = small_scenario
    series = hourly_series(bundle.spl, 60.0)
    for h in series:
        if h.hour_start.hour in truth.quiet_hours:
            assert h.laeq is None
            assert h.n_retained == 0


def test_sub_threshold_fraction_present(small_scenario):
    bundle, truth = small_scenario
    non_quiet = [level for _, ts, level in spl_rows(bundle.spl) if ts.hour not in truth.quiet_hours]
    below = sum(1 for level in non_quiet if level <= 60.0)
    assert below / len(non_quiet) == pytest.approx(SMALL.sub_threshold_fraction, abs=0.02)


def test_antiphase_block_means(small_scenario):
    bundle, truth = small_scenario
    series = hourly_series(bundle.spl, 60.0)
    corr = rotation_contrast(series, truth.block_hours)
    for (a, b), r in corr.items():
        if truth.nmt_side[a] == truth.nmt_side[b]:
            assert r > 0.5
        else:
            assert r < -0.5


def test_population_total_conserved_per_hour(small_scenario):
    bundle, _ = small_scenario
    totals = {}
    for p in bundle.population:
        totals.setdefault(p.hour_start, 0.0)
        totals[p.hour_start] += p.defacto_count
    values = list(totals.values())
    assert max(values) - min(values) < 0.01


def test_diurnal_labels_hold(small_scenario):
    bundle, truth = small_scenario
    by_tract = {}
    for p in bundle.population:
        by_tract.setdefault(p.tract_id, {})[p.hour_start] = p.defacto_count
    start = truth.window_start
    for tract, label in truth.diurnal.items():
        # average weekday profile over the window
        profile = []
        for h in range(24):
            vals = [
                v for hs, v in by_tract[tract].items()
                if hs.hour == h and hs.weekday() < 5
            ]
            profile.append(float(np.mean(vals)))
        assert classify_diurnal(profile) is DiurnalClass[label]


def test_commuter_wave_shape():
    assert commuter_wave(2) == 0.0
    assert commuter_wave(13) > commuter_wave(8) > 0.0
    assert commuter_wave(22) == 0.0


def test_intended_levels_within_bounds(small_scenario):
    _, truth = small_scenario
    for v in truth.intended_level.values():
        assert LEVEL_FLOOR <= v <= LEVEL_CEILING


def test_bundle_write_parse_round_trip(small_scenario, tmp_path):
    from airnoise.ingest import parse_bundle

    bundle, _ = small_scenario
    write_bundle(bundle, tmp_path)
    back = parse_bundle(tmp_path)
    assert spl_rows(back.spl) == spl_rows(bundle.spl)
    assert back.flights == bundle.flights
    assert back.weather == bundle.weather
    assert back.population == bundle.population
    assert back.tracts == bundle.tracts
    assert back.nmts == bundle.nmts


# --- byte identity ------------------------------------------------------------

# sha256 of every file write_scenario writes, recorded from the per-sample
# generator and row writer; key (seed, days, samples_per_hour)
GOLDEN = {
    (3, 2, 60): {
        "flights.csv": "b369712a157b3ed06727851638032a8d658dfc2a451eead9786e78b7daa6270a",
        "ground_truth.json": "63758607fe6d75da812b90ec2fe4a7a89a1739adce9618f48d2c3b27eb54dccd",
        "nmts.csv": "9c0a922c2b4635f706e3d56823d61a2a28cc2906bbcb6dcabdc22e2a4d19f1e6",
        "population.csv": "863916870cd7ebc6abc9e0a87b8521568951f81bd3444792cd4d9acfef6555cd",
        "spl.csv": "03a1d43f51157309beb82e9460ea9fa562b3164f247b7c2a6268f8b4c22ce28b",
        "tracts.csv": "fd4f0797a6fdd8e9b10d6e303200cd33a032f27dd4fabb93b95b21409060c77b",
        "weather.csv": "4158430889383f8b56b5fa55f2065ab6931b2ea75e30df3ba5cec3dc30d3d0d5",
    },
    (5, 1, 60): {
        "flights.csv": "92dc2f7226771e4c61fc8931c1e9b63f94ad3b13dfb5feab6ed2d1262fd08210",
        "ground_truth.json": "56db3283ad01ced793f3395781877673b83a01ea4c6ab167d43f082fc57b4007",
        "nmts.csv": "9c0a922c2b4635f706e3d56823d61a2a28cc2906bbcb6dcabdc22e2a4d19f1e6",
        "population.csv": "abcd1fd17a9199a0028a870e90e67f59cd30f06dc52cda03a9778967a6049d72",
        "spl.csv": "0d4daad8e82af234943c1bc2a665fd3f0c090c11260f1f917a49692a609c4077",
        "tracts.csv": "fd4f0797a6fdd8e9b10d6e303200cd33a032f27dd4fabb93b95b21409060c77b",
        "weather.csv": "3c824fd065be8db3a533e4bd0b93f47c6075df0301730085b336060bcd6f4987",
    },
    (11, 2, 300): {
        "flights.csv": "d9b8be04fdd169592cdebb70e9204914f03f816064731e074f34d8435c7f0965",
        "ground_truth.json": "8273e200a975fa64b3e8ce56011ebd43de0fb9cc1ed88ef75174a56ae8b12870",
        "nmts.csv": "9c0a922c2b4635f706e3d56823d61a2a28cc2906bbcb6dcabdc22e2a4d19f1e6",
        "population.csv": "863916870cd7ebc6abc9e0a87b8521568951f81bd3444792cd4d9acfef6555cd",
        "spl.csv": "c3a4fca5bf98d90a88ffd58a73b5127c7e0caf8bfd43d02bdf6fc702ceddebc6",
        "tracts.csv": "fd4f0797a6fdd8e9b10d6e303200cd33a032f27dd4fabb93b95b21409060c77b",
        "weather.csv": "780bc92e54a27176bbfbf2c12835796e0569a35f2bac23eb1c03b6fbffe27a5a",
    },
    (23, 1, 1200): {
        "flights.csv": "570f304b5742a794d0cee0df5c40106b07ecd45e9c3783df534cf4c475471db7",
        "ground_truth.json": "85b603491b3bb13ce37bebfae84b78c118579f437d7f21dff8157aa820be9b16",
        "nmts.csv": "9c0a922c2b4635f706e3d56823d61a2a28cc2906bbcb6dcabdc22e2a4d19f1e6",
        "population.csv": "abcd1fd17a9199a0028a870e90e67f59cd30f06dc52cda03a9778967a6049d72",
        "spl.csv": "3a340ad75da1c28a0b4aec0ea914541d9a3ffb62194d5dfdf2bbde0ca2c6c656",
        "tracts.csv": "fd4f0797a6fdd8e9b10d6e303200cd33a032f27dd4fabb93b95b21409060c77b",
        "weather.csv": "7a431bcc4e2aeee8d6bb7560f94757398cf0d7ee2c4a5f2b9c466a4b5438c228",
    },
    (42, 1, 300): {
        "flights.csv": "396ec457cd4cb1c71aec12e04ee4a2bfa51e1f27bb3ecdb39f0e13f7804b3ddc",
        "ground_truth.json": "1c096ae1b27d1b97697e100b115a412c568a6e0980b0bd0aefc804460ec4c1f1",
        "nmts.csv": "9c0a922c2b4635f706e3d56823d61a2a28cc2906bbcb6dcabdc22e2a4d19f1e6",
        "population.csv": "abcd1fd17a9199a0028a870e90e67f59cd30f06dc52cda03a9778967a6049d72",
        "spl.csv": "d217a27278bb4e0ce3da9070a96513a40a1ab5a657afcb26dfe39f887db664f6",
        "tracts.csv": "fd4f0797a6fdd8e9b10d6e303200cd33a032f27dd4fabb93b95b21409060c77b",
        "weather.csv": "d09885f63eaae5a3a45b228da6a194828421a516345466e4164e823fee2d5e5e",
    },
    (101, 2, 1200): {
        "flights.csv": "4a7f4dc3973cf68d4b857178ede63f5a83c5e3ee2790167cc56624e2c7b0d91e",
        "ground_truth.json": "26fcbef343d54caa9a3c2e1c78974c9cda33eb29a1f41a531efcac426b3558e1",
        "nmts.csv": "9c0a922c2b4635f706e3d56823d61a2a28cc2906bbcb6dcabdc22e2a4d19f1e6",
        "population.csv": "863916870cd7ebc6abc9e0a87b8521568951f81bd3444792cd4d9acfef6555cd",
        "spl.csv": "33f3ed52fe4aee142cf7a1995b0f75dcaf1716aa1524346e33095a5667e31ecb",
        "tracts.csv": "fd4f0797a6fdd8e9b10d6e303200cd33a032f27dd4fabb93b95b21409060c77b",
        "weather.csv": "e7a7b3cfaa7ae65e973d419206def7580bfd2f4b10685b64a87a0836779fcb3b",
    },
}


@pytest.mark.parametrize("seed,days,samples_per_hour", sorted(GOLDEN))
def test_write_scenario_bytes_pinned(tmp_path, seed, days, samples_per_hour):
    write_scenario(ScenarioConfig(seed=seed, days=days, samples_per_hour=samples_per_hour), tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == GOLDEN[(seed, days, samples_per_hour)]


def _reference_spl(config: ScenarioConfig, truth: GroundTruth) -> list[tuple]:
    """The SPL stream as the per-sample generator built it, one sample at a
    time, from the intended levels of ``truth``."""
    rng_spl = substream(config.seed, "synth.jitter")
    n_samples = config.samples_per_hour
    n_low = int(round(config.sub_threshold_fraction * n_samples))
    slots = [i * 1200 // n_samples for i in range(n_samples)]
    low_positions = sorted({j * n_samples // n_low for j in range(n_low)}) if n_low else []
    low_index = np.array(low_positions, dtype=int)
    retained_index = np.array([i for i in range(n_samples) if i not in set(low_positions)], dtype=int)
    hours = [truth.window_start + timedelta(hours=k) for k in range(config.days * 24)]
    spl = []
    for nmt_id in truth.nmt_side:
        for h in hours:
            key = f"{nmt_id}|{h.isoformat(timespec='minutes')}"
            quiet = config.flights_per_hour[h.hour] == 0
            ambient = 50.0 + 6.0 * rng_spl.random(n_samples)
            if quiet:
                levels = ambient
            else:
                jitter = JITTER_DB * (2.0 * rng_spl.random(retained_index.size) - 1.0)
                energy_offset = 10.0 * math.log10(np.mean(10.0 ** (jitter / 10.0)))
                levels = np.empty(n_samples)
                levels[retained_index] = truth.intended_level[key] + jitter - energy_offset
                if low_index.size:
                    levels[low_index] = ambient[low_index]
            for i, slot in enumerate(slots):
                spl.append((nmt_id, h + timedelta(seconds=3 * slot), round(float(levels[i]), 2)))
    return spl


@pytest.mark.parametrize("config", [
    SMALL,
    ScenarioConfig(seed=8, days=1, samples_per_hour=7, sub_threshold_fraction=0.0),
    ScenarioConfig(seed=9, days=1, samples_per_hour=120, near_32l_tracts=6, near_32r_tracts=5),
    ScenarioConfig(seed=10, days=2, samples_per_hour=3, flights_per_hour=(0,) * 24),
])
def test_generated_spl_equals_per_sample_reference(config):
    bundle, truth = generate(config)
    assert bundle.spl.names == tuple(sorted(truth.nmt_side))
    assert spl_rows(bundle.spl) == _reference_spl(config, truth)


# --- level rounding -------------------------------------------------------------

def _assert_rounds_like_python(values):
    values = np.array(values, dtype=np.float64)
    expected = np.array([round(v, 2) for v in values.tolist()], dtype=np.float64)
    got = synth._round2(values)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@settings(max_examples=300)
@given(st.lists(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=-200.0, max_value=200.0),
        st.integers(min_value=-(10 ** 9), max_value=10 ** 9).map(lambda k: (k + 0.5) / 100),
    ),
    max_size=50,
))
def test_round2_equals_python_round(values):
    _assert_rounds_like_python(values)


def _near_ties():
    """(k + 1/2) / 100 and the doubles up to four steps either side of it."""
    ks = [*range(-3000, 3000), *(10 ** e + d for e in range(4, 16) for d in (-1, 0, 1)),
          2 ** 40, 2 ** 51 + 1, 2 ** 52 - 1, 2 ** 52]
    for k in ks:
        for sign in (1.0, -1.0):
            v = sign * (k + 0.5) / 100
            yield v
            up = down = v
            for _ in range(4):
                up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
                yield up
                yield down


def test_round2_constructed_cases():
    exact_ties = [m / 8 for m in range(-801, 802, 2)]  # 100 * m/8 is a half-integer
    specials = [0.0, -0.0, -0.001, 0.004, -0.005, 0.005, 2.675, -2.675, 5e-324, -5e-324,
                math.inf, -math.inf, math.nan, -math.nan, 1.7976931348623157e308, -1.7976931348623157e308,
                2.0 ** 40 / 100, 2.0 ** 52 / 100, (2.0 ** 52 - 1) / 100, 2.0 ** 33, 2.0 ** 53, 1e16 + 2]
    values = [*exact_ties, *specials, *_near_ties()]
    assert len(values) > 2 * synth._ROUND_BLOCK  # several blocks
    _assert_rounds_like_python(values)


def test_round2_falls_back_near_a_tie(monkeypatch):
    calls = []

    def counting_round(v, ndigits):
        calls.append(v)
        return round(v, ndigits)

    monkeypatch.setattr(synth, "round", counting_round, raising=False)
    # the double 2.675 lies just below the decimal 2.675, so round gives 2.67,
    # but fl(100 * 2.675) is 267.5 and rint alone would give 2.68
    assert synth._round2(np.array([2.67, 2.675, 70.31])).tolist() == [2.67, 2.67, 70.31]
    assert calls == [2.675]
