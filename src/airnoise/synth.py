"""Deterministic synthetic month: flights, weather, SPL streams, population.

The generated bundle is internally consistent (it passes ingest validation
with zero findings) and every structural pattern is known ground truth:

* runway roles swap every 3-hour block, so terminals on opposite
  approach paths see anti-phase loud/quiet blocks;
* each terminal-hour's equivalent level is an additive function of the model
  features (monotone temperature response, cloud-cover step, per-combo flight
  counts, terminal base level, rotation term) plus Gaussian noise;
* 3-second SPL samples are jittered around that level with an exact energy
  correction, so re-aggregating them reproduces the intended level to within
  CSV rounding, and a controlled fraction of sub-threshold samples exercises
  the retention rule;
* population follows commuter waves: commercial tracts fill up by day,
  the donor tracts by night, with the hourly city total conserved.

Hours whose flight count is zero emit only ambient (sub-threshold) samples:
no traffic, no measured aircraft noise, an absent hourly level, and no
training target.

The SPL stream is built in columns (``spl.SplColumns``), with no Python loop
over samples. Each random stream is drawn in one batched call, in the order
a per-sample loop would draw it: terminal, then hour, then a group's ambient
block before its jitter block. A batched ``standard_normal(k)`` of these
generators yields the same numbers as k scalar calls, and ``random(a + b)``
the same as ``random(a)`` then ``random(b)``, so each sample gets the draws
a per-sample loop would give it. The arithmetic on the draws is elementwise;
each (terminal, hour) group's energy offset is ``math.log10(np.mean(...))``
of its own 1-D jitter row. Levels are rounded to 2 decimals by ``_round2``,
which gives Python's ``round(x, 2)`` bit for bit: it computes rint(100 x) / 100
in blocks, where its docstring proves that exact, and hands the few values
whose fl(100 x) is a half-integer, and any non-finite or huge one, to
``round`` itself. The stream, and every file ``write_scenario`` writes, are
therefore bit-identical to a per-sample loop's, which ``tests/test_synth.py``
keeps as the reference.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Mapping

import numpy as np

from . import tables
from .errors import InvalidConfig
from .ingest import (
    Bundle,
    FlightEvent,
    LandUse,
    NmtMeta,
    Operation,
    PopulationRecord,
    TractMeta,
    WeatherHour,
    write_bundle,
)
from .rng import substream
from .spl import SplColumns

RUNWAY_EAST = "32R"
RUNWAY_WEST = "32L"

# (aircraft, engine) -> sampling weight; names follow the common fleet around
# a mid-size international airport.
DEFAULT_FLEET: tuple[tuple[str, str, float], ...] = (
    ("B737-800", "CFM56-7B", 0.17),
    ("A320", "V2500-A5", 0.14),
    ("B737-8MAX", "LEAP-1B", 0.10),
    ("A320neo", "PW1100G", 0.09),
    ("A330-300", "PW4170", 0.08),
    ("A220-300", "PW1500G", 0.08),
    ("B767-300", "CF6-80C2", 0.07),
    ("A321", "V2500-A5", 0.06),
    ("B747-400F", "CF6-80C2", 0.05),
    ("B777-300", "GE90-115B", 0.04),
    ("B787-9", "GEnx-1B", 0.03),
    ("A350-900", "TrentXWB", 0.03),
    ("ATR72", "PW127", 0.03),
    ("E190", "CF34-10E", 0.03),
)

# dB added per hourly movement of the combo (newer engines are quieter).
# Weighted by fleet share these cancel to ~0, so the overall traffic level
# does not leak a diurnal component into every terminal's series.
COMBO_COEFFS: Mapping[str, float] = {
    "B737-800+CFM56-7B": 0.155,
    "A320+V2500-A5": 0.125,
    "B767-300+CF6-80C2": 0.14,
    "B747-400F+CF6-80C2": 0.175,
    "B777-300+GE90-115B": 0.085,
    "A321+V2500-A5": 0.07,
    "B737-8MAX+LEAP-1B": -0.25,
    "A320neo+PW1100G": -0.195,
    "A330-300+PW4170": -0.195,
    "A220-300+PW1500G": -0.10,
    "B787-9+GEnx-1B": -0.085,
}

AIRLINES = ("KE", "OZ", "7C", "BX", "TW", "ZE")

# Hours with zero movements become ambient-only hours. Movements are
# block-constant (the schedule rotates runway roles in the same 3-hour blocks)
# with a day-shaped envelope.
DEFAULT_FLIGHTS_PER_HOUR = (5, 5, 0, 0, 7, 7, 11, 11, 11, 17, 17, 17, 12, 12, 12, 18, 18, 18, 14, 14, 14, 10, 10, 10)

START = datetime(2023, 1, 1)
# tract layout: near-runway tracts carry the terminals, commercial tracts
# carry one terminal each on the east side, residential tracts have none
COMMERCIAL_TRACTS = 1
RESIDENTIAL_TRACTS = 2
BLOCK_HOURS = 3
# ground-truth noise function: the monotone met response is a step at the
# reference temperature plus a mild slope, so it stays monotone while a
# tree model can represent the bulk of it with a single split
BASE_LEVEL = 77.0
BASE_SPREAD = 0.8
ROTATION_AMPLITUDE = 4.2
TEMPERATURE_REF = 2.0
TEMPERATURE_STD = 4.0
TEMPERATURE_STEP_DB = 2.6
TEMPERATURE_COEFF = 0.12
CLOUD_THRESHOLD = 5
CLOUD_STEP = 1.2
NOISE_STD = 1.5
LEVEL_FLOOR = 62.0
LEVEL_CEILING = 100.0
# population waves
COMMERCIAL_BASE = 500.0
COMMERCIAL_RESIDENTS = 1200.0
RESIDENTIAL_BASE = 2300.0
RESIDENTIAL_RESIDENTS = 2300.0
COMMUTER_INFLOW = 3400.0
WEEKEND_FACTOR = 0.8
# SPL stream shape: the uniform jitter of a retained sample, in dB
JITTER_DB = 1.5


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    days: int = 31
    near_32l_tracts: int = 2
    near_32r_tracts: int = 2
    flights_per_hour: tuple[int, ...] = DEFAULT_FLIGHTS_PER_HOUR
    # SPL stream shape
    samples_per_hour: int = 300
    sub_threshold_fraction: float = 0.1

    def __post_init__(self):
        if self.days < 1:
            raise InvalidConfig("days must be positive")
        for name in ("near_32l_tracts", "near_32r_tracts"):
            if getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must be positive")
        if len(self.flights_per_hour) != 24 or any(n < 0 for n in self.flights_per_hour):
            raise InvalidConfig("flights_per_hour must list 24 non-negative counts")
        if not 1 <= self.samples_per_hour <= 1200:
            raise InvalidConfig("samples_per_hour must lie in [1, 1200]")
        if not 0 <= self.sub_threshold_fraction < 1:
            raise InvalidConfig("sub_threshold_fraction must lie in [0, 1)")


@dataclass
class GroundTruth:
    """Everything the generator knows that the pipeline must rediscover."""

    seed: int
    window_start: datetime
    window_end: datetime
    block_hours: int
    landing_runway_by_parity: dict[int, str]
    quiet_hours: list[int]
    nmt_side: dict[str, str]             # nmt_id -> runway whose approach it sits under
    nmt_base: dict[str, float]
    tract_of_nmt: dict[str, str]
    diurnal: dict[str, str]              # tract_id -> DAYTIME_PEAK / NIGHTTIME_PEAK
    dominant_feature: str
    threshold_feature: str
    threshold_value: float
    coefficients: dict
    noise_std: float
    clean_level: dict[str, float]        # "nmt|hour" -> additive function value
    intended_level: dict[str, float]     # "nmt|hour" -> clean + noise (clamped)

    def irreducible_mae(self) -> float:
        """Mean |intended - clean| over all measured hours."""
        diffs = [abs(self.intended_level[k] - self.clean_level[k]) for k in self.intended_level]
        return float(np.mean(diffs))

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "window_start": tables.hour(self.window_start),
            "window_end": tables.hour(self.window_end),
            "landing_runway_by_parity": {str(k): v for k, v in self.landing_runway_by_parity.items()},
        }


def landing_runway(hour: datetime, block_hours: int) -> str:
    """Runway on landing duty this hour: roles swap every block.

    Odd blocks land on the east runway (block 3, 09:00-11:59, lands 32R),
    even blocks on the west one; departures use the other runway.
    """
    parity = (hour.hour // block_hours) % 2
    return RUNWAY_EAST if parity == 1 else RUNWAY_WEST


def commuter_wave(hour: int) -> float:
    """Fraction of the commuter pool present downtown at this hour (0..1)."""
    if hour < 6 or hour > 20:
        return 0.0
    return math.sin(math.pi * (hour - 6) / 15.0) ** 2


# _round2 works in blocks of this many values, so its temporaries stay small.
_ROUND_BLOCK = 1 << 15
# Below this |k|, k and k +- 1/2 are all doubles.
_ROUND_EXACT_BELOW = 2.0 ** 52


def _round2(values: np.ndarray) -> np.ndarray:
    """``[round(v, 2) for v in values]`` as a new float64 array, bit for bit.

    For each v: s = fl(100 v), k = rint(s), and the result is fl(k / 100).
    A v is instead rounded by Python's ``round(v, 2)`` when
    ``|s - k| >= 1/2`` (s is a half-integer) or ``|k| >= 2**52``; that takes
    in every NaN and infinity (the comparisons are false).

    Why the rest is exact. Python's ``round(v, 2)`` rounds the exact binary
    value of v to the nearest multiple of 1/100 (ties to even) as a decimal
    string, then reads that string back as the nearest double.

    * Rounding to a double is monotone, and for |k| < 2**52 the bounds
      k - 1/2 and k + 1/2 are doubles, so each rounds to itself. If the
      exact 100 v were at or beyond one of them, fl(100 v) and then
      fl(s - k) would be too; so |s - k| < 1/2 gives |100 v - k| < 1/2:
      k is the integer nearest the exact 100 v, and 100 v is no tie. The
      decimal Python reads back is therefore exactly k / 100.
    * k is an integer below 2**53, so it is exact in a double, and IEEE
      division is correctly rounded: fl(k / 100) is the double nearest
      k / 100, the one Python's string-to-double gives.
    * Signs of zero agree: rint keeps the sign of s, so a negative v that
      rounds to zero gives -0.0 / 100 = -0.0, as ``round`` does.

    The values are taken in blocks of ``_ROUND_BLOCK`` and k is computed in
    the output itself, so the only float temporary is one block of s (256 KB),
    whatever the input size: a fresh array for each step raised the peak
    RSS of a process that generates scenarios by about 1 MB.
    """
    values = values.ravel()
    out = np.empty(values.size)
    for lo in range(0, values.size, _ROUND_BLOCK):
        v = values[lo:lo + _ROUND_BLOCK]
        k = out[lo:lo + v.size]
        with np.errstate(over="ignore", invalid="ignore"):
            s = v * 100.0
            np.rint(s, out=k)
            exact = np.abs(np.subtract(s, k, out=s), out=s) < 0.5
            exact &= np.abs(k, out=s) < _ROUND_EXACT_BELOW
        np.divide(k, 100.0, out=k)
        for i in np.flatnonzero(~exact).tolist():
            out[lo + i] = round(float(v[i]), 2)
    return out


def generate(config: ScenarioConfig) -> tuple[Bundle, GroundTruth]:
    """Build the full six-schema bundle plus its ground truth record."""
    window_start = START
    window_end = window_start + timedelta(days=config.days)
    hours = [window_start + timedelta(hours=k) for k in range(config.days * 24)]

    rng_weather = substream(config.seed, "synth.weather")
    rng_flights = substream(config.seed, "synth.flights")
    rng_noise = substream(config.seed, "synth.noise")
    rng_spl = substream(config.seed, "synth.jitter")

    # --- layout -----------------------------------------------------------
    # one row per group of tracts, in tract order: id prefix, count, district,
    # first centroid, centroid step, residents, land use, and the runway side
    # of the terminal that each tract of the group carries (None: none)
    layout = (
        ("R", config.near_32r_tracts, "perimeter", (40.00, 10.02), (0.005, 0.01),
         RESIDENTIAL_RESIDENTS, LandUse.RESIDENTIAL, RUNWAY_EAST),
        ("L", config.near_32l_tracts, "perimeter", (40.00, 9.97), (0.005, -0.01),
         RESIDENTIAL_RESIDENTS, LandUse.RESIDENTIAL, RUNWAY_WEST),
        ("C", COMMERCIAL_TRACTS, "downtown", (40.01, 10.05), (0.005, 0.01),
         COMMERCIAL_RESIDENTS, LandUse.COMMERCIAL, RUNWAY_EAST),
        ("S", RESIDENTIAL_TRACTS, "perimeter", (39.95, 10.00), (-0.005, 0.02),
         RESIDENTIAL_RESIDENTS, LandUse.RESIDENTIAL, None),
    )
    tracts: list[TractMeta] = []
    nmts: list[NmtMeta] = []
    nmt_side: dict[str, str] = {}
    for prefix, count, district, (lat, lon), (dlat, dlon), residents, land_use, side in layout:
        for i in range(count):
            tid = f"{prefix}{i + 1:02d}"
            centroid = (lat + dlat * i, lon + dlon * i)
            tracts.append(TractMeta(tid, district, centroid, residents, land_use))
            if side is not None:
                nmt_id = f"NMT{len(nmts) + 1}"
                nmts.append(NmtMeta(nmt_id, tid, centroid))
                nmt_side[nmt_id] = side
    commercial = {t.tract_id for t in tracts if t.land_use is LandUse.COMMERCIAL}
    diurnal = {t.tract_id: "DAYTIME_PEAK" if t.tract_id in commercial else "NIGHTTIME_PEAK" for t in tracts}

    n_nmts = len(nmts)
    bases = np.linspace(BASE_LEVEL - BASE_SPREAD, BASE_LEVEL + BASE_SPREAD, n_nmts)
    nmt_base = {nmts[k].nmt_id: round(float(bases[k]), 3) for k in range(n_nmts)}
    tract_of_nmt = {n.nmt_id: n.tract_id for n in nmts}

    # --- weather ------------------------------------------------------------
    weather: list[WeatherHour] = []
    for h in hours:
        weather.append(WeatherHour(
            hour_start=h,
            temperature=round(TEMPERATURE_REF + TEMPERATURE_STD * float(rng_weather.standard_normal()), 2),
            wind_speed=round(min(abs(float(rng_weather.normal(9.0, 4.0))), 30.0), 1),
            wind_direction=float(rng_weather.integers(0, 360)),
            cloud_cover=int(rng_weather.integers(0, 11)),
        ))
    weather_by_hour = {w.hour_start: w for w in weather}

    # --- flights -------------------------------------------------------------
    fleet_names = [f"{a}+{e}" for a, e, _ in DEFAULT_FLEET]
    fleet_probs = np.array([w for _, _, w in DEFAULT_FLEET])
    fleet_probs = fleet_probs / fleet_probs.sum()
    flights: list[FlightEvent] = []
    combo_counts: dict[datetime, dict[str, int]] = {}
    for h in hours:
        n = config.flights_per_hour[h.hour]
        if n == 0:
            continue
        lands = landing_runway(h, BLOCK_HOURS)
        departs = RUNWAY_WEST if lands == RUNWAY_EAST else RUNWAY_EAST
        picks = rng_flights.choice(len(fleet_names), size=n, p=fleet_probs)
        airline_picks = rng_flights.integers(0, len(AIRLINES), size=n)
        counts = combo_counts.setdefault(h, {})
        for k in range(n):
            op = Operation.ARRIVAL if k % 2 == 0 else Operation.DEPARTURE
            combo = fleet_names[int(picks[k])]
            counts[combo] = counts.get(combo, 0) + 1
            aircraft, engine = combo.split("+")
            flights.append(FlightEvent(
                timestamp=h + timedelta(seconds=int((k + 0.5) * 3600 / n)),
                operation=op,
                runway=lands if op is Operation.ARRIVAL else departs,
                aircraft_type=aircraft,
                engine_type=engine,
                airline=AIRLINES[int(airline_picks[k])],
            ))

    # --- population -------------------------------------------------------------
    population: list[PopulationRecord] = []
    for h in hours:
        day_factor = WEEKEND_FACTOR if h.weekday() >= 5 else 1.0
        inflow = COMMUTER_INFLOW * commuter_wave(h.hour) * day_factor
        outflow_each = inflow * len(commercial) / (len(tracts) - len(commercial))
        for t in tracts:
            if t.tract_id in commercial:
                count = COMMERCIAL_BASE + inflow
            else:
                count = RESIDENTIAL_BASE - outflow_each
            population.append(PopulationRecord(t.tract_id, h, round(count, 4)))

    # --- intended hourly levels and SPL streams ---------------------------------
    # One group of samples per (terminal, hour), terminal-major. rng_noise
    # gives one normal per non-quiet group; rng_spl gives each group an
    # ambient block and then, if it is not quiet, a jitter block.
    clean_level: dict[str, float] = {}
    intended_level: dict[str, float] = {}

    n_samples = config.samples_per_hour
    n_low = int(round(config.sub_threshold_fraction * n_samples))
    slots = np.arange(n_samples) * 1200 // n_samples
    low_positions = sorted({j * n_samples // n_low for j in range(n_low)}) if n_low else []
    retained_index = np.array([i for i in range(n_samples) if i not in set(low_positions)], dtype=int)
    quiet = np.array([config.flights_per_hour[h.hour] == 0 for h in hours] * n_nmts)

    keys: list[str] = []
    clean: list[float] = []
    for nmt in nmts:
        side = nmt_side[nmt.nmt_id]
        base = nmt_base[nmt.nmt_id]
        for h in hours:
            if config.flights_per_hour[h.hour] == 0:
                continue
            w = weather_by_hour[h]
            rot = ROTATION_AMPLITUDE if landing_runway(h, BLOCK_HOURS) == side else -ROTATION_AMPLITUDE
            level = base + rot
            dev = w.temperature - TEMPERATURE_REF
            level += TEMPERATURE_STEP_DB * math.copysign(1.0, dev) + TEMPERATURE_COEFF * dev
            if w.cloud_cover > CLOUD_THRESHOLD:
                level += CLOUD_STEP
            for combo, count in combo_counts.get(h, {}).items():
                level += COMBO_COEFFS.get(combo, 0.0) * count
            key = f"{nmt.nmt_id}|{tables.hour(h)}"
            keys.append(key)
            clean.append(level)
            clean_level[key] = round(level, 6)
    for key, level, z in zip(keys, clean, rng_noise.standard_normal(len(keys)).tolist()):
        noisy = level + NOISE_STD * z
        intended_level[key] = round(min(max(noisy, LEVEL_FLOOR), LEVEL_CEILING), 6)

    sizes = np.where(quiet, n_samples, n_samples + retained_index.size)
    starts = np.cumsum(sizes) - sizes
    draws = rng_spl.random(int(sizes.sum()))
    # ambient sub-threshold baseline, also used for the low fraction
    levels = 50.0 + 6.0 * draws[starts[:, None] + np.arange(n_samples)]
    # jitter only the retained samples and correct each group's energy mean
    # exactly, so re-aggregation reproduces the intended level
    loud = np.flatnonzero(~quiet)
    jitter = JITTER_DB * (2.0 * draws[starts[loud, None] + n_samples + np.arange(retained_index.size)] - 1.0)
    del draws
    energy_offset = np.array([10.0 * math.log10(np.mean(10.0 ** (row / 10.0))) for row in jitter])
    intended = np.array([intended_level[key] for key in keys])
    levels[np.ix_(loud, retained_index)] = intended[:, None] + jitter - energy_offset[:, None]
    del jitter
    # levels are rounded exactly as Python's round(x, 2) rounds them (see
    # _round2), not by np.round, which can round differently
    levels = _round2(levels)

    names = sorted(nmt_side)
    hour_us = np.array(hours, dtype="datetime64[us]").view(np.int64)
    spl = SplColumns(
        names,
        np.repeat(np.array([names.index(n.nmt_id) for n in nmts], dtype=np.int32), len(hours) * n_samples),
        np.tile((hour_us[:, None] + slots * 3_000_000).ravel(), n_nmts).view("datetime64[us]"),
        levels,
    )

    bundle = Bundle(
        spl=spl, flights=flights, weather=weather,
        population=population, tracts=tracts, nmts=nmts,
    )
    truth = GroundTruth(
        seed=config.seed,
        window_start=window_start,
        window_end=window_end,
        block_hours=BLOCK_HOURS,
        landing_runway_by_parity={0: RUNWAY_WEST, 1: RUNWAY_EAST},
        quiet_hours=[h for h in range(24) if config.flights_per_hour[h] == 0],
        nmt_side=nmt_side,
        nmt_base=nmt_base,
        tract_of_nmt=tract_of_nmt,
        diurnal=diurnal,
        dominant_feature="temperature_c",
        threshold_feature="cloud_cover_tenths",
        threshold_value=float(CLOUD_THRESHOLD),
        coefficients={
            "temperature_step_db": TEMPERATURE_STEP_DB,
            "temperature_coeff": TEMPERATURE_COEFF,
            "temperature_ref": TEMPERATURE_REF,
            "cloud_step": CLOUD_STEP,
            "rotation_amplitude": ROTATION_AMPLITUDE,
            "combo": dict(COMBO_COEFFS),
        },
        noise_std=NOISE_STD,
        clean_level=clean_level,
        intended_level=intended_level,
    )
    return bundle, truth


def write_scenario(config: ScenarioConfig, out_dir) -> tuple[Bundle, GroundTruth]:
    """Generate and write the six CSV schemas plus ground_truth.json."""
    bundle, truth = generate(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_bundle(bundle, out)
    tables.write_json(out / "ground_truth.json", truth.to_dict())
    return bundle, truth

