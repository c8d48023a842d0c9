import sys
from datetime import datetime, timedelta

import pytest
from hypothesis import example, given, settings, strategies as st

from airnoise.acoustics import HourlyLaeq
from airnoise.errors import GridMismatch, NegativeValue
from airnoise.exposure import (
    BASIS_RESIDENTIAL,
    compare_bases,
    exposed,
    exposure_matrices,
    exposure_matrix,
    gini,
    gini_pairwise,
    gini_series,
    rotation_contrast,
)
from airnoise.fusion import TractHourRecord

H0 = datetime(2023, 1, 5)


def _rec(tract, hour_offset, pop, laeq, residents=100.0):
    return TractHourRecord(
        tract_id=tract,
        hour_start=H0 + timedelta(hours=hour_offset),
        population_defacto=pop,
        population_resident=residents,
        laeq=laeq,
        source_nmt="N1",
    )


# --- exposed -----------------------------------------------------------------

def test_exposed_above_threshold():
    assert exposed(_rec("T1", 0, 500.0, 66.2), 65.0) == 500.0


def test_exposed_below_threshold():
    assert exposed(_rec("T1", 0, 500.0, 66.2), 70.0) == 0.0


def test_exposed_absent_laeq():
    assert exposed(_rec("T1", 0, 500.0, None), 0.0) == 0.0


def test_exposed_strict_at_equality():
    assert exposed(_rec("T1", 0, 500.0, 65.0), 65.0) == 0.0


# --- matrices ---------------------------------------------------------------

def _grid_records():
    # two tracts x three hours; T2 is the only hot tract
    recs = []
    for j in range(3):
        recs.append(_rec("T1", j, 100.0, 60.0))
        recs.append(_rec("T2", j, 200.0, 72.0, residents=300.0))
    return recs


def test_matrix_zero_when_all_below():
    m = exposure_matrix(_grid_records(), 80.0)
    assert not m.cells.any()


def test_matrix_single_hot_tract():
    m = exposure_matrix(_grid_records(), 65.0)
    assert m.tract_ids == ["T1", "T2"]
    assert m.cells[0].tolist() == [0.0, 0.0, 0.0]
    assert m.cells[1].tolist() == [200.0, 200.0, 200.0]


def test_matrix_residential_basis():
    m = exposure_matrix(_grid_records(), 65.0, basis=BASIS_RESIDENTIAL)
    assert m.cells[1].tolist() == [300.0, 300.0, 300.0]


def test_matrices_threshold_monotone():
    ms = exposure_matrices(_grid_records(), [70.0, 65.0])
    assert sorted(ms) == [65.0, 70.0]
    assert (ms[65.0].cells >= ms[70.0].cells).all()


def test_cells_bounded_by_population():
    m = exposure_matrix(_grid_records(), 65.0)
    assert (m.cells <= 200.0).all()


# --- gini ----------------------------------------------------------------------

def test_gini_perfect_equality():
    assert gini([5, 5, 5, 5]) == 0.0


def test_gini_maximal_concentration():
    assert gini([0, 0, 0, 123.0]) == pytest.approx(0.75, abs=1e-12)


def test_gini_known_value():
    # frozen from the pairwise definition: sum|vi-vj| = 2000, 2*D^2*mu = 3200
    assert gini([100, 300, 0, 0]) == pytest.approx(0.625, abs=1e-12)
    assert gini_pairwise([100, 300, 0, 0]) == pytest.approx(0.625, abs=1e-12)


def test_gini_zero_mean_undefined():
    assert gini([0.0, 0.0]) is None
    assert gini_pairwise([0.0, 0.0]) is None


def test_gini_negative_rejected():
    with pytest.raises(NegativeValue):
        gini([1.0, -0.1])


@settings(max_examples=200)
@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=60))
@example(values=[0.0, 5e-324])  # a mean of 2.5e-324 rounds to 0.0; the sum does not
def test_gini_matches_pairwise(values):
    fast = gini(values)
    slow = gini_pairwise(values)
    if fast is None:
        assert slow is None
    else:
        assert fast == pytest.approx(slow, abs=1e-12)
        n = len(values)
        assert -1e-12 <= fast <= (n - 1) / n + 1e-12


@given(
    st.lists(st.floats(min_value=0, max_value=1e5, allow_nan=False), min_size=2, max_size=40),
    st.floats(min_value=1e-3, max_value=1e3),
)
@example(values=[0.0, 5e-324], c=0.5)
@example(values=[1.0, 3e-320], c=0.1)
def test_gini_scale_invariance(values, c):
    base = gini(values)
    scaled_values = [c * v for v in values]
    scaled = gini(scaled_values)
    if any(v != 0.0 and c * v < sys.float_info.min for v in values):
        # c * v below the smallest normal double keeps only part of its
        # relative precision (c * 5e-324 with c < 1/2 is 0), so the scaled
        # vector is no scaled copy of the original: check what any vector obeys
        n = len(values)
        assert (scaled is None) == all(s == 0.0 for s in scaled_values)
        assert scaled is None or -1e-12 <= scaled <= (n - 1) / n + 1e-12
    elif base is None:
        assert scaled is None
    else:
        assert scaled == pytest.approx(base, abs=1e-12)


def test_gini_upper_bound_iff_single_nonzero():
    assert gini([0, 7, 0]) == pytest.approx(2 / 3, abs=1e-12)
    assert gini([1, 7, 0]) < 2 / 3


# --- gini series ------------------------------------------------------------------

def test_gini_series_zero_matrix():
    m = exposure_matrix(_grid_records(), 80.0)
    s = gini_series(m)
    assert all(e.gini is None for e in s)
    assert all(e.exposed_total == 0.0 for e in s)


def test_gini_series_single_tract():
    recs = [_rec("T1", j, 100.0, 80.0) for j in range(3)]
    s = gini_series(exposure_matrix(recs, 70.0))
    assert [e.gini for e in s] == [0.0, 0.0, 0.0]


def test_gini_series_permutation_invariant():
    recs = _grid_records()
    s1 = gini_series(exposure_matrix(recs, 65.0))
    s2 = gini_series(exposure_matrix(list(reversed(recs)), 65.0))
    assert [e.gini for e in s1] == [e.gini for e in s2]
    assert [e.exposed_total for e in s1] == [e.exposed_total for e in s2]


# --- compare_bases -------------------------------------------------------------------

def test_compare_identical_matrices():
    m = exposure_matrix(_grid_records(), 65.0)
    rows = compare_bases(m, m)
    assert all(r["delta"] == 0.0 for r in rows)


def test_compare_defacto_vs_residential():
    recs = _grid_records()
    d = exposure_matrix(recs, 65.0)
    r = exposure_matrix(recs, 65.0, basis=BASIS_RESIDENTIAL)
    rows = compare_bases(d, r)
    assert rows[0]["defacto_total"] == 200.0
    assert rows[0]["residential_total"] == 300.0
    assert rows[0]["delta"] == -100.0


def test_compare_grid_mismatch():
    d = exposure_matrix(_grid_records(), 65.0)
    r = exposure_matrix(_grid_records(), 70.0)
    with pytest.raises(GridMismatch):
        compare_bases(d, r)


# --- rotation ---------------------------------------------------------------------

def _block_series(nmt, pattern, n_blocks=10):
    # pattern: value per block parity
    out = []
    for b in range(n_blocks):
        for k in range(3):
            out.append(HourlyLaeq(
                nmt_id=nmt,
                hour_start=H0 + timedelta(hours=3 * b + k),
                laeq=pattern[b % 2] + 0.01 * k,
                n_retained=100,
                completeness=0.5,
            ))
    return out


def test_rotation_antiphase_pair():
    series = _block_series("A", (80.0, 70.0)) + _block_series("B", (70.0, 80.0))
    corr = rotation_contrast(series, 3)
    assert corr[("A", "B")] == pytest.approx(-1.0, abs=1e-6)


def test_rotation_identical_pair():
    series = _block_series("A", (80.0, 70.0)) + _block_series("B", (80.0, 70.0))
    corr = rotation_contrast(series, 3)
    assert corr[("A", "B")] == pytest.approx(1.0, abs=1e-6)


def test_rotation_insufficient_data():
    series = _block_series("A", (80.0, 70.0), n_blocks=1) + _block_series("B", (70.0, 80.0), n_blocks=1)
    assert rotation_contrast(series, 3) == {("A", "B"): None}


def test_rotation_constant_block_means():
    series = _block_series("A", (80.0, 80.0)) + _block_series("B", (70.0, 80.0)) + _block_series("C", (80.0, 70.0))
    assert rotation_contrast(series, 3) == {("A", "B"): None, ("A", "C"): None,
                                            ("B", "C"): pytest.approx(-1.0, abs=1e-6)}


def test_rotation_absent_hours_skipped():
    series = _block_series("A", (80.0, 70.0)) + _block_series("B", (70.0, 80.0))
    series.append(HourlyLaeq("A", H0 + timedelta(hours=100), None, 0, 0.1))
    corr = rotation_contrast(series, 3)
    assert corr[("A", "B")] == pytest.approx(-1.0, abs=1e-6)
