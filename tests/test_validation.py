import numpy as np
import pytest
from hypothesis import given, strategies as st

from airnoise.errors import (
    LengthMismatch,
    NonPositiveValue,
    UnmappedTract,
    WrongLength,
    ZeroVariance,
)
from airnoise.validation import (
    DiurnalClass,
    aggregate_to_district,
    classify_diurnal,
    pct_change,
    r_squared,
)


def _series(values):
    """An hour map: hour index -> count."""
    return dict(enumerate(values))


# --- aggregation ---------------------------------------------------------------

def test_aggregate_sums_per_hour():
    out = aggregate_to_district(
        {"T1": _series([10, 20]), "T2": _series([5, 5])},
        {"T1": "D1", "T2": "D1"},
    )
    assert out == {"D1": {0: 15, 1: 25}}


def test_aggregate_single_tract_identity():
    out = aggregate_to_district({"T1": _series([7, 8, 9])}, {"T1": "D9"})
    assert list(out["D9"].values()) == [7, 8, 9]


def test_aggregate_unmapped_tract():
    with pytest.raises(UnmappedTract):
        aggregate_to_district({"T1": _series([1])}, {})


def test_aggregate_conserves_totals():
    rng = np.random.default_rng(5)
    series = {f"T{i}": _series(rng.uniform(0, 100, 24).tolist()) for i in range(6)}
    mapping = {f"T{i}": f"D{i % 2}" for i in range(6)}
    out = aggregate_to_district(series, mapping)
    for h in range(24):
        total_in = sum(s[h] for s in series.values())
        total_out = sum(s[h] for s in out.values())
        assert total_out == pytest.approx(total_in, abs=1e-9)


def test_aggregate_keeps_only_the_hours_every_tract_has():
    """A missing tract count is unknown, not 0: its district lacks that hour,
    and a district with a tract that has no count has no hour at all."""
    out = aggregate_to_district(
        {"T1": _series([1.0, 2.0, 3.0]), "T2": {0: 5.0, 2: 5.0}, "T4": _series([4.0, 4.0, 4.0])},
        {"T1": "D1", "T2": "D1", "T3": "D2", "T4": "D2"},
    )
    assert out == {"D1": {0: 6.0, 2: 8.0}, "D2": {}}


# --- r_squared -------------------------------------------------------------------

def test_r_squared_identity():
    assert r_squared([1, 2, 3], [1, 2, 3]) == 1.0


def test_r_squared_affine_invariance():
    a = [1.0, 2.0, 5.0, 9.0]
    b = [3 * v + 7 for v in a]
    assert r_squared(a, b) == pytest.approx(1.0, abs=1e-12)


def test_r_squared_known_value():
    # Pearson oracle: cov 3, var_a 2, var_b 42/9 -> r2 = 81/84
    assert r_squared([1, 2, 3], [1, 2, 4]) == pytest.approx(81 / 84, abs=1e-4)


def test_r_squared_symmetric():
    a = [1.0, 4.0, 2.0, 8.0]
    b = [2.0, 3.0, 7.0, 5.0]
    assert r_squared(a, b) == pytest.approx(r_squared(b, a), abs=1e-15)


def test_r_squared_returns_python_float():
    assert type(r_squared([1, 2, 3], [1, 2, 4])) is float


def test_r_squared_length_mismatch():
    with pytest.raises(LengthMismatch):
        r_squared([1, 2], [1, 2, 3])


def test_r_squared_zero_variance():
    with pytest.raises(ZeroVariance):
        r_squared([1, 1, 1], [1, 2, 3])


@given(
    st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=3, max_size=30),
    st.floats(min_value=0.1, max_value=10),
    st.floats(min_value=-100, max_value=100),
)
def test_r_squared_affine_property(a, scale, shift):
    if float(np.var(a)) < 1e-6:
        return
    b = [scale * v + shift for v in a]
    if float(np.var(b)) == 0.0:
        return
    assert r_squared(a, b) == pytest.approx(1.0, abs=1e-9)


# --- pct_change ------------------------------------------------------------------

def test_pct_change_basic():
    assert pct_change([100, 110]) == pytest.approx([10.0])


def test_pct_change_constant():
    assert pct_change([5, 5, 5]) == [0.0, 0.0]


def test_pct_change_up_down():
    assert pct_change([100, 110, 99]) == pytest.approx([10.0, -10.0])


def test_pct_change_rejects_nonpositive():
    with pytest.raises(NonPositiveValue):
        pct_change([100, 0, 50])


def test_pct_change_too_short():
    with pytest.raises(LengthMismatch):
        pct_change([100])


@given(
    st.floats(min_value=0.5, max_value=2.0),
    st.floats(min_value=1.0, max_value=100.0),
    st.integers(min_value=2, max_value=20),
)
def test_pct_change_geometric_series(ratio, start, n):
    series = [start * ratio ** k for k in range(n)]
    changes = pct_change(series)
    for c in changes:
        assert c == pytest.approx(100 * (ratio - 1), rel=1e-9)


# --- diurnal ----------------------------------------------------------------------

def test_diurnal_daytime_peak():
    values = [100.0] * 24
    for h in range(8, 18):
        values[h] = 200.0
    assert classify_diurnal(values) is DiurnalClass.DAYTIME_PEAK


def test_diurnal_nighttime_peak():
    values = [200.0] * 24
    for h in range(8, 18):
        values[h] = 100.0
    assert classify_diurnal(values) is DiurnalClass.NIGHTTIME_PEAK


def test_diurnal_flat():
    assert classify_diurnal([100.0] * 24) is DiurnalClass.FLAT


def test_diurnal_margin_boundary():
    values = [100.0] * 24
    for h in range(8, 18):
        values[h] = 109.0  # inside the 10% default margin
    assert classify_diurnal(values) is DiurnalClass.FLAT


def test_diurnal_wrong_length():
    with pytest.raises(WrongLength):
        classify_diurnal([1.0] * 23)


@pytest.mark.parametrize("hour,label", [(3, None), (8, None), (20, None), (6, DiurnalClass.FLAT),
                                        (19, DiurnalClass.FLAT)])
def test_diurnal_without_a_value_at_an_averaged_hour(hour, label):
    """An hour of the day or night window with no value leaves no label; the
    hours outside both are not read."""
    values = [100.0] * 24
    values[hour] = None
    assert classify_diurnal(values) is label
