"""Acceptance criteria for the pipeline, one test per criterion.

Each test prints a single PASS line (run with ``pytest -s`` to see them all);
a failing criterion fails its test. Criteria marked with tolerances pin them
here; nothing is deferred to later calibration.
"""

import json
import math
import time
from datetime import datetime

import numpy as np
import pytest

from airnoise.acoustics import hourly_series, laeq
from airnoise.cli import main
from airnoise.exposure import (
    BASIS_RESIDENTIAL,
    exposed,
    exposure_matrix,
    gini,
    gini_pairwise,
    rotation_contrast,
)
from airnoise.fusion import TractHourRecord, build_features
from airnoise.gbm import (
    Ensemble,
    TrainConfig,
    TreeNode,
    evaluate,
    predict_batch,
    split_data,
    to_json,
    train,
)
from airnoise.ingest import LandUse, Operation, window_hours
from airnoise.shapley import (
    dependence,
    shapley_batch,
    shapley_bruteforce,
    shapley_fast,
    summary,
)
from airnoise.synth import ScenarioConfig, generate

SEED = 0

# pipeline operating point for the synthetic-month models (learning rate and
# the 90/10 split are fixed; the rest is the documented default tuning)
MODEL_CONFIG = dict(rounds_max=1000, max_depth=5, lambda_=8.0,
                    min_child_weight=10.0, early_stopping_patience=60)


def _report(criterion, started, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({time.time() - started:.1f}s) {detail}")


# --- shared synthetic month -----------------------------------------------------

@pytest.fixture(scope="module")
def month():
    bundle, truth = generate(ScenarioConfig(seed=SEED))
    return bundle, truth


@pytest.fixture(scope="module")
def month_series(month):
    bundle, _ = month
    return hourly_series(bundle.spl, 60.0)


@pytest.fixture(scope="module")
def month_records(month, month_series):
    from airnoise.fusion import fuse, map_tracts

    bundle, truth = month
    hours = window_hours((truth.window_start, truth.window_end))
    mapping = map_tracts(bundle.nmts, bundle.tracts)
    population = bundle.population
    return fuse(population, month_series, mapping, bundle.tracts, hours)


@pytest.fixture(scope="module")
def month_model(month, month_series):
    """Take-off model trained on the synthetic month, with its test rows."""
    bundle, truth = month
    hours = window_hours((truth.window_start, truth.window_end))
    table = build_features(bundle.flights, bundle.weather, bundle.nmts, month_series, hours)
    train_part, test_part = split_data(table, 0.9, seed=SEED)

    def rows(part):
        keep = np.array([k[2] is Operation.DEPARTURE for k in part.keys]) & ~np.isnan(part.laeq)
        keys = [k for k, kp in zip(part.keys, keep) if kp]
        return part.matrix[keep], part.laeq[keep], keys

    X_train, y_train, _ = rows(train_part)
    X_test, y_test, test_keys = rows(test_part)
    cfg = TrainConfig(seed=SEED, **MODEL_CONFIG)
    ensemble, history = train(X_train, y_train, X_test, y_test, cfg, table.feature_names)
    return ensemble, history, X_test, y_test, test_keys, table


# --- criterion 1: LAeq oracle equivalence ------------------------------------------

def test_criterion_1_laeq_oracle():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 120))
        levels = rng.uniform(20.0, 110.0, n)
        mine = laeq(levels.tolist())
        oracle = 10.0 * math.log10(float(np.mean(10.0 ** (levels / 10.0))))
        worst = max(worst, abs(mine - oracle))
    assert worst <= 1e-9
    assert laeq([70.0] * 1200) == 70.0          # constant-input identity, exact
    assert laeq([33.3] * 7) == 33.3
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(1, t0, f"10k vectors, worst |diff| {worst:.2e} dB")


# --- criterion 2: Gini correctness ---------------------------------------------------

def test_criterion_2_gini():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 501))
        values = rng.uniform(0.0, 1000.0, d)
        if rng.random() < 0.2:
            values[rng.random(d) < 0.5] = 0.0
        fast = gini(values)
        slow = gini_pairwise(values)
        if fast is None:
            assert slow is None
            continue
        worst = max(worst, abs(fast - slow))
        assert -1e-12 <= fast <= (d - 1) / d + 1e-12
    assert worst <= 1e-12

    assert gini([100, 300, 0, 0]) == pytest.approx(0.625, abs=1e-12)

    values = rng.uniform(0.0, 100.0, 50)
    for c in (1e-3, 3.7, 1e3):
        assert gini(c * values) == pytest.approx(gini(values), abs=1e-12)

    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(2, t0, f"1000 vectors, worst |fast - pairwise| {worst:.2e}")


# --- criterion 3: exposure monotonicity and bounds ------------------------------------

def test_criterion_3_exposure_monotonicity(month_records):
    t0 = time.time()
    m65 = exposure_matrix(month_records, 65.0)
    m70 = exposure_matrix(month_records, 70.0)
    assert m65.tract_ids == m70.tract_ids and m65.hours == m70.hours
    assert (m65.cells >= m70.cells).all()

    population = {(r.tract_id, r.hour_start): r.population_defacto for r in month_records}
    for i, tract in enumerate(m65.tract_ids):
        for j, hour in enumerate(m65.hours):
            assert m65.cells[i, j] <= population[(tract, hour)]

    # strict threshold at L = theta exactly
    at_threshold = TractHourRecord(
        tract_id="X", hour_start=datetime(2023, 1, 1), population_defacto=500.0,
        population_resident=100.0, laeq=65.0, source_nmt="N",
    )
    assert exposed(at_threshold, 65.0) == 0.0
    just_above = TractHourRecord(
        tract_id="X", hour_start=datetime(2023, 1, 1), population_defacto=500.0,
        population_resident=100.0, laeq=65.0 + 1e-9, source_nmt="N",
    )
    assert exposed(just_above, 65.0) == 500.0

    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(3, t0, f"{m65.cells.size} cells checked at thresholds 65/70")


# --- criterion 4: GBM sanity -----------------------------------------------------------

def test_criterion_4_gbm(month, month_model):
    t0 = time.time()
    _, truth = month

    # (a) per-round train RMSE non-increasing over 200 rounds at gamma=0
    rng = np.random.default_rng(404)
    Xa = rng.normal(0.0, 1.0, (300, 6))
    ya = Xa[:, 0] * 2.0 - Xa[:, 1] + 0.3 * Xa[:, 2] ** 2 + rng.normal(0.0, 0.5, 300)
    cfg_a = TrainConfig(rounds_max=200, gamma=0.0, early_stopping_patience=200, seed=SEED)
    _, history_a = train(Xa, ya, Xa, ya, cfg_a, [f"f{i}" for i in range(6)])
    assert len(history_a) == 200
    rmses = [h["train_rmse"] for h in history_a]
    assert all(b <= a + 1e-12 for a, b in zip(rmses, rmses[1:]))

    # (b) two-row hand-computed Newton step reproduced exactly
    Xb = np.array([[0.0], [1.0]])
    yb = np.array([0.0, 10.0])
    cfg_b = TrainConfig(rounds_max=10, max_depth=1, lambda_=0.0, gamma=0.0,
                        learning_rate=1.0, min_child_weight=0.0, seed=SEED)
    ens_b, _ = train(Xb, yb, Xb, yb, cfg_b, ["x"])
    assert ens_b.base_score == 5.0
    assert len(ens_b.trees) == 1
    assert ens_b.trees[0].left.weight == -5.0
    assert ens_b.trees[0].right.weight == 5.0
    assert predict_batch(ens_b, Xb).tolist() == [0.0, 10.0]

    # (c) synthetic-month model accuracy against the generator's noise floor
    ensemble, history, X_test, y_test, _, table = month_model
    metrics = evaluate(ensemble, X_test, y_test)
    irreducible = truth.irreducible_mae()
    assert metrics["mae"] <= 2.0
    assert metrics["mae"] <= 1.3 * irreducible

    # (d) same seed -> byte-identical serialized model
    train_part, test_part = split_data(table, 0.9, seed=SEED)
    keep_tr = np.array([k[2] is Operation.DEPARTURE for k in train_part.keys]) & ~np.isnan(train_part.laeq)
    keep_te = np.array([k[2] is Operation.DEPARTURE for k in test_part.keys]) & ~np.isnan(test_part.laeq)
    cfg_d = TrainConfig(rounds_max=60, max_depth=5, lambda_=8.0, min_child_weight=10.0,
                        early_stopping_patience=60, seed=SEED)

    def run_once():
        ens, hist = train(
            train_part.matrix[keep_tr], train_part.laeq[keep_tr],
            test_part.matrix[keep_te], test_part.laeq[keep_te],
            cfg_d, table.feature_names,
        )
        return to_json(ens, cfg_d, hist).encode()

    assert run_once() == run_once()

    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(4, t0, f"test MAE {metrics['mae']:.3f} vs noise floor {irreducible:.3f} "
                   f"(ratio {metrics['mae'] / irreducible:.2f})")


# --- criterion 5: Shapley correctness -----------------------------------------------------

def _random_ensemble(rng):
    m = int(rng.integers(1, 11))

    def build(depth):
        if depth == 0 or rng.random() < 0.3:
            return TreeNode(weight=float(rng.normal(0.0, 2.0)))
        c = float(rng.uniform(0.05, 0.95))
        return TreeNode(
            feature_index=int(rng.integers(0, m)),
            split_value=float(rng.normal(0.0, 1.0)),
            cover_left=c, cover_right=1.0 - c,
            left=build(depth - 1), right=build(depth - 1),
        )

    trees = []
    for _ in range(int(rng.integers(1, 4))):
        t = build(3)
        if t.is_leaf:
            c = float(rng.uniform(0.05, 0.95))
            t = TreeNode(feature_index=int(rng.integers(0, m)), split_value=0.0,
                         cover_left=c, cover_right=1.0 - c,
                         left=TreeNode(weight=float(rng.normal(0.0, 2.0))), right=t)
        trees.append(t)
    return Ensemble(
        base_score=float(rng.normal(0.0, 1.0)),
        learning_rate=float(rng.uniform(0.05, 1.0)),
        trees=trees,
        feature_names=[f"f{i}" for i in range(m)],
    ), m


def test_criterion_5_shapley(month, month_model):
    t0 = time.time()
    _, truth = month
    ensemble, _, X_test, _, test_keys, _ = month_model

    # local accuracy on every attributed row of the synthetic model
    atts = shapley_batch(ensemble, X_test, test_keys)
    predictions = predict_batch(ensemble, X_test)
    worst_local = max(abs(a.prediction() - p) for a, p in zip(atts, predictions))
    assert worst_local <= 1e-6

    # oracle equivalence on 200 random small ensembles
    rng = np.random.default_rng(505)
    worst_pair = 0.0
    dummy_checked = 0
    for _ in range(200):
        ens, m = _random_ensemble(rng)
        row = rng.normal(0.0, 1.0, m)
        brute = shapley_bruteforce(ens, row)
        fast = shapley_fast(ens, row)
        worst_pair = max(worst_pair, float(np.max(np.abs(brute.phis - fast.phis))),
                         abs(brute.phi0 - fast.phi0))
        used = set()

        def collect(node):
            if not node.is_leaf:
                used.add(node.feature_index)
                collect(node.left)
                collect(node.right)

        for tree in ens.trees:
            collect(tree)
        for j in range(m):
            if j not in used:
                assert fast.phis[j] == 0.0
                assert brute.phis[j] == 0.0
                dummy_checked += 1
    assert worst_pair <= 1e-8

    # generator's dominant feature ranks first in mean |phi|
    ranking = summary(atts)
    assert ranking[0][0] == truth.dominant_feature

    # threshold feature's dependence changes sign within +/- 1 of the threshold
    pairs = dependence(atts, truth.threshold_feature)
    by_value = {}
    for v, phi in pairs:
        by_value.setdefault(v, []).append(phi)
    means = {v: float(np.mean(phis)) for v, phis in by_value.items()}
    negative = [v for v, m_ in sorted(means.items()) if m_ < 0]
    positive = [v for v, m_ in sorted(means.items()) if m_ > 0]
    crossing_low = max(negative)
    crossing_high = min(v for v in positive if v > crossing_low)
    assert truth.threshold_value - 1 <= crossing_low <= truth.threshold_value + 1
    assert truth.threshold_value - 1 <= crossing_high <= truth.threshold_value + 1

    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(5, t0, f"local {worst_local:.1e}, oracle {worst_pair:.1e}, "
                   f"{dummy_checked} dummies exact, top={ranking[0][0]}, "
                   f"crossing ({crossing_low},{crossing_high})")


# --- criterion 6: rotation / respite ---------------------------------------------------------

def test_criterion_6_rotation(month, month_series):
    t0 = time.time()
    _, truth = month
    correlations = rotation_contrast(month_series, truth.block_hours)
    cross = {k: v for k, v in correlations.items() if truth.nmt_side[k[0]] != truth.nmt_side[k[1]]}
    same = {k: v for k, v in correlations.items() if truth.nmt_side[k[0]] == truth.nmt_side[k[1]]}
    assert cross and same
    assert all(v < -0.5 for v in cross.values()), cross
    assert all(v > 0.5 for v in same.values()), same

    # independent oracle: recompute block means directly and correlate
    acc = {}
    for h in month_series:
        if h.laeq is None:
            continue
        block = (h.hour_start.date(), h.hour_start.hour // truth.block_hours)
        acc.setdefault((h.nmt_id, block), []).append(h.laeq)
    means = {}
    for (nmt, block), vals in acc.items():
        means.setdefault(nmt, {})[block] = sum(vals) / len(vals)
    (a, b), expected = next(iter(cross.items()))
    shared = sorted(set(means[a]) & set(means[b]))
    xs = np.array([means[a][k] for k in shared])
    ys = np.array([means[b][k] for k in shared])
    oracle = float(np.corrcoef(xs, ys)[0, 1])
    assert expected == pytest.approx(oracle, abs=1e-9)

    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(6, t0, f"cross max {max(cross.values()):+.3f}, same min {min(same.values()):+.3f}")


# --- criterion 7: population-basis divergence ---------------------------------------------------

def test_criterion_7_population_basis(month, month_records):
    t0 = time.time()
    bundle, _ = month
    commercial = [t.tract_id for t in bundle.tracts if t.land_use is LandUse.COMMERCIAL]
    assert commercial
    tract = commercial[0]

    defacto = exposure_matrix(month_records, 65.0)
    residential = exposure_matrix(month_records, 65.0, basis=BASIS_RESIDENTIAL)
    i = defacto.tract_ids.index(tract)

    daytime = [j for j, h in enumerate(defacto.hours) if 8 <= h.hour < 18]
    overnight = [j for j, h in enumerate(defacto.hours) if h.hour < 6]

    day_exceeds = [
        j for j in daytime
        if defacto.cells[i, j] > residential.cells[i, j] and residential.cells[i, j] > 0
    ]
    night_lower = [
        j for j in overnight
        if 0 < defacto.cells[i, j] < residential.cells[i, j]
    ]
    assert day_exceeds, "no daytime hour with de facto exposure above residential"
    assert night_lower, "no overnight hour with de facto exposure below residential"

    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(7, t0, f"tract {tract}: {len(day_exceeds)} daytime hours above, "
                   f"{len(night_lower)} overnight hours below")


# --- criterion 8: validation utilities -----------------------------------------------------------

def test_criterion_8_validation(month):
    t0 = time.time()
    from airnoise.validation import aggregate_to_district, r_squared

    bundle, _ = month

    # district aggregation conserves hourly totals exactly (integer case)
    rng = np.random.default_rng(808)
    series = {f"T{i}": {h: float(rng.integers(0, 1000)) for h in range(24)} for i in range(8)}
    mapping = {f"T{i}": f"D{i % 3}" for i in range(8)}
    districts = aggregate_to_district(series, mapping)
    for h in range(24):
        assert sum(s[h] for s in districts.values()) == sum(s[h] for s in series.values())

    # affine agreement
    a = [float(v) for v in rng.uniform(10.0, 100.0, 48)]
    b = [3.0 * v + 7.0 for v in a]
    assert r_squared(a, b) == pytest.approx(1.0, abs=1e-12)

    # two providers differing by 2% multiplicative noise
    by_tract = {}
    for p in bundle.population:
        by_tract.setdefault(p.tract_id, []).append(p.defacto_count)
    provider_a = np.array(sorted(by_tract.items())[0][1])
    noise = 1.0 + 0.02 * rng.standard_normal(provider_a.size)
    provider_b = provider_a * noise
    r2 = r_squared(provider_a.tolist(), provider_b.tolist())
    assert r2 >= 0.98

    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(8, t0, f"provider agreement R^2 {r2:.4f}")


# --- criterion 9: end-to-end determinism ---------------------------------------------------------

def test_criterion_9_end_to_end_determinism(tmp_path):
    t0 = time.time()
    outputs = []
    for run in ("one", "two"):
        data = tmp_path / run / "data"
        out = tmp_path / run / "out"
        assert main(["synth", "--seed", str(SEED), "--out", str(data)]) == 0
        assert main(["report", "--in", str(data), "--out", str(out), "--seed", str(SEED)]) == 0
        outputs.append((out / "report.json").read_bytes())
    assert outputs[0] == outputs[1]

    doc = json.loads(outputs[0])
    text = outputs[0].decode()
    assert "NaN" not in text and "Infinity" not in text
    null_hours = [e for series in doc["gini"].values() for e in series if e["gini"] is None]
    assert null_hours, "expected null Gini entries for zero-exposure hours"
    for entry in null_hours:
        assert entry["mean_exposure"] == 0.0

    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(9, t0, f"two full runs in {elapsed:.0f}s, {len(null_hours)} null-Gini hours")
