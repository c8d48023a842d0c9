import math
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import spl_columns

from airnoise.acoustics import hourly_series, laeq
from airnoise.errors import EmptyInput

HOUR = datetime(2023, 1, 5, 9)


def _samples(levels, nmt="N1", start=HOUR):
    """(terminal, timestamp, level) rows 3 s apart from ``start``."""
    return [(nmt, start + timedelta(seconds=3 * k), lv) for k, lv in enumerate(levels)]


def _series(rows, retention):
    return hourly_series(spl_columns(rows), retention)


def oracle_laeq(levels):
    """Direct one-line energy mean, the independent reference."""
    return 10.0 * math.log10(np.mean(10.0 ** (np.asarray(levels) / 10.0)))


# --- retention -----------------------------------------------------------

def test_retain_strictly_above():
    (rec,) = _series(_samples([59.9, 60.0, 60.1]), 60.0)
    assert rec.n_retained == 1
    assert rec.laeq == 60.1


def test_retain_all_below_gives_empty():
    (rec,) = _series(_samples([50.0, 55.0, 60.0]), 60.0)
    assert rec.n_retained == 0
    assert rec.laeq is None


def test_retain_disabled_sentinel():
    levels = [0.0, 59.9, 120.0]
    (rec,) = _series(_samples(levels), float("-inf"))
    assert rec.n_retained == 3
    assert rec.laeq == laeq(levels)


# --- energy mean ----------------------------------------------------------

def test_laeq_constant_exact():
    assert laeq([70.0] * 1200) == 70.0


def test_laeq_two_levels():
    # frozen from the one-line oracle: 10*log10((1e6 + 1e7) / 2)
    assert laeq([60.0, 70.0]) == pytest.approx(67.4036, abs=1e-3)
    assert laeq([60.0, 70.0]) == pytest.approx(oracle_laeq([60.0, 70.0]), abs=1e-12)


def test_laeq_empty_raises():
    with pytest.raises(EmptyInput):
        laeq([])


def test_laeq_between_min_and_max():
    levels = [61.0, 75.5, 68.2, 90.0]
    assert min(levels) <= laeq(levels) <= max(levels)


@given(st.lists(st.floats(min_value=0, max_value=140, allow_nan=False), min_size=1, max_size=400))
def test_laeq_matches_oracle(levels):
    assert laeq(levels) == pytest.approx(oracle_laeq(levels), abs=1e-9)


@given(st.lists(st.floats(min_value=0, max_value=140, allow_nan=False), min_size=1, max_size=100))
def test_laeq_duplication_invariance(levels):
    assert laeq(levels + levels) == pytest.approx(laeq(levels), abs=1e-9)


@given(
    st.lists(st.floats(min_value=0, max_value=140, allow_nan=False), min_size=1, max_size=100),
    st.randoms(use_true_random=False),
)
def test_laeq_permutation_invariance(levels, rnd):
    shuffled = list(levels)
    rnd.shuffle(shuffled)
    assert laeq(shuffled) == pytest.approx(laeq(levels), abs=1e-9)


@given(
    st.lists(st.floats(min_value=0, max_value=139, allow_nan=False), min_size=1, max_size=60),
    st.integers(min_value=0, max_value=59),
    st.floats(min_value=0.001, max_value=1.0),
)
def test_laeq_monotone_in_each_level(levels, idx, bump):
    idx = idx % len(levels)
    raised = list(levels)
    raised[idx] = raised[idx] + bump
    assert laeq(raised) >= laeq(levels) - 1e-9


@given(st.lists(st.floats(min_value=0, max_value=140, allow_nan=False), min_size=1, max_size=100))
def test_laeq_fixed_point_when_adding_own_level(levels):
    value = laeq(levels)
    assert laeq(levels + [value]) == pytest.approx(value, abs=1e-9)


# --- hourly series ----------------------------------------------------------

def test_hourly_series_constant_hour():
    samples = _samples([72.0] * 1200)
    (rec,) = _series(samples, 60.0)
    assert rec.laeq == 72.0
    assert rec.n_retained == 1200
    assert rec.completeness == 1.0


def test_hourly_series_mixed_retention():
    samples = _samples([65.0] * 600 + [55.0] * 600)
    (rec,) = _series(samples, 60.0)
    assert rec.laeq == pytest.approx(65.0, abs=1e-9)
    assert rec.n_retained == 600
    assert rec.completeness == 1.0


def test_hourly_series_all_below_threshold():
    samples = _samples([52.0] * 100)
    (rec,) = _series(samples, 60.0)
    assert rec.laeq is None
    assert rec.n_retained == 0
    assert rec.completeness == pytest.approx(100 / 1200)


def test_hourly_series_groups_and_sorts():
    a = _samples([70.0, 71.0], nmt="N2")
    b = _samples([66.0], nmt="N1")
    c = _samples([68.0], nmt="N1", start=HOUR + timedelta(hours=1))
    out = _series(a + b + c, 60.0)
    assert [(r.nmt_id, r.hour_start) for r in out] == [
        ("N1", HOUR), ("N1", HOUR + timedelta(hours=1)), ("N2", HOUR),
    ]


def test_hourly_laeq_round_trip(tmp_path):
    from airnoise.acoustics import read_hourly_laeq, write_hourly_laeq

    series = _series(_samples([65.0] * 3 + [55.0] * 2) + _samples([50.0], nmt="N2"), 60.0)
    path = tmp_path / "hourly_laeq.csv"
    write_hourly_laeq(series, path)
    assert read_hourly_laeq(path) == series


def test_hourly_series_brute_force_equivalence():
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(1, 120))
        levels = rng.uniform(40, 100, n)
        samples = _samples(list(levels))
        (rec,) = _series(samples, 60.0)
        retained = levels[levels > 60.0]
        if retained.size == 0:
            assert rec.laeq is None
        else:
            assert rec.laeq == pytest.approx(oracle_laeq(retained), abs=1e-9)
        assert rec.n_retained == retained.size


def test_hourly_series_equals_laeq_of_each_group_exactly():
    rng = np.random.default_rng(5)
    n = 12_000
    nmts = rng.choice(["N1", "N2", "N3", "N10"], n)
    seconds = rng.integers(0, 6 * 3600, n)
    levels = np.round(rng.uniform(30, 110, n), 2)
    levels[rng.random(n) < 0.01] = 0.0
    samples = [(str(a), HOUR + timedelta(seconds=int(s)), float(lv))
               for a, s, lv in zip(nmts, seconds, levels)]
    # one hour where nothing is retained
    samples += _samples([40.0] * 7, nmt="N4", start=HOUR + timedelta(hours=3))
    groups = {}
    for nmt, ts, level in samples:
        groups.setdefault((nmt, ts.replace(minute=0, second=0)), []).append(level)

    out = _series(samples, 60.0)
    assert [(r.nmt_id, r.hour_start) for r in out] == sorted(groups)
    for rec in out:
        group = groups[(rec.nmt_id, rec.hour_start)]
        retained = [lv for lv in group if lv > 60.0]
        assert rec.laeq == (laeq(retained) if retained else None)
        assert rec.n_retained == len(retained)
        assert rec.completeness == len(group) / 1200
    assert out[-1].nmt_id == "N4" and out[-1].laeq is None


def test_hourly_series_empty_and_non_finite():
    assert _series([], 60.0) == []
    with pytest.raises(ValueError):
        _series(_samples([70.0, float("inf")]), 60.0)
