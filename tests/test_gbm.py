import json
import math
from datetime import datetime, timedelta

import numpy as np
import pytest

from airnoise.errors import (
    EmptyInput,
    InvalidConfig,
    MissingFeature,
    NonFiniteFeature,
    NonFiniteTarget,
    TooFewRows,
)
from airnoise.fusion import FeatureTable
from airnoise.gbm import (
    Ensemble,
    TrainConfig,
    TreeNode,
    evaluate,
    from_json,
    predict_batch,
    split_data,
    to_json,
    train,
    train_models,
    tree_predict,
)
from airnoise.ingest import Operation


def _table(n):
    rng = np.random.default_rng(1)
    hours = [datetime(2023, 1, 1) + timedelta(hours=k) for k in range(n)]
    X = rng.normal(0, 1, (n, 22))
    y = X[:, 0] * 2 + rng.normal(0, 0.1, n)
    return FeatureTable(
        keys=[("N1", h, Operation.DEPARTURE) for h in hours],
        feature_names=[f"f{i}" for i in range(22)],
        matrix=X,
        laeq=y,
    )


# --- split ---------------------------------------------------------------------

def test_split_90_10():
    tr, te = split_data(_table(100), 0.9, seed=3)
    assert len(tr.keys) == 90
    assert len(te.keys) == 10
    assert set(k[1] for k in tr.keys).isdisjoint(k[1] for k in te.keys)


def test_split_deterministic():
    a1, b1 = split_data(_table(50), 0.9, seed=3)
    a2, b2 = split_data(_table(50), 0.9, seed=3)
    assert a1.keys == a2.keys and b1.keys == b2.keys
    a3, _ = split_data(_table(50), 0.9, seed=4)
    assert a1.keys != a3.keys


def test_split_too_few_rows():
    with pytest.raises(TooFewRows):
        split_data(_table(9), 0.9, seed=0)


def test_split_rejects_empty_part():
    with pytest.raises(InvalidConfig):
        split_data(_table(100), 1.0, seed=0)
    with pytest.raises(InvalidConfig):
        split_data(_table(100), 0.0, seed=0)


# --- config ----------------------------------------------------------------------

def test_rounds_band_enforced():
    with pytest.raises(InvalidConfig):
        TrainConfig(rounds_max=5)
    with pytest.raises(InvalidConfig):
        TrainConfig(rounds_max=1001)
    TrainConfig(rounds_max=10)
    TrainConfig(rounds_max=1000)


# --- training ----------------------------------------------------------------------

def test_constant_targets_fixed_point():
    X = np.arange(20, dtype=float).reshape(-1, 1)
    y = np.full(20, 7.5)
    cfg = TrainConfig(rounds_max=10, lambda_=0.0, learning_rate=1.0, early_stopping_patience=25, seed=0)
    ens, _ = train(X, y, X, y, cfg, ["x"])
    assert predict_batch(ens, X).tolist() == [7.5] * 20
    assert ens.base_score == 7.5


def test_two_row_newton_step_exact():
    # base 5; gradients [5, -5]; one stump with leaves -5 and +5
    X = np.array([[0.0], [1.0]])
    y = np.array([0.0, 10.0])
    cfg = TrainConfig(rounds_max=10, max_depth=1, lambda_=0.0, gamma=0.0,
                      learning_rate=1.0, min_child_weight=0.0, seed=0)
    ens, history = train(X, y, X, y, cfg, ["x"])
    assert ens.base_score == 5.0
    assert len(ens.trees) == 1  # best round is the exact fit
    root = ens.trees[0]
    assert root.feature_index == 0
    assert root.split_value == 0.5
    assert root.left.weight == -5.0
    assert root.right.weight == 5.0
    assert predict_batch(ens, X).tolist() == [0.0, 10.0]


def test_split_between_adjacent_doubles_separates_them():
    # (1 + nextafter(1)) / 2 rounds to 1.0, which `x < split` would send right
    X = np.array([[1.0], [math.nextafter(1.0, 2.0)]])
    y = np.array([0.0, 10.0])
    cfg = TrainConfig(rounds_max=10, max_depth=1, lambda_=0.0, gamma=0.0,
                      learning_rate=1.0, min_child_weight=0.0, seed=0)
    ens, history = train(X, y, X, y, cfg, ["x"])
    assert predict_batch(ens, X).tolist() == [0.0, 10.0]
    assert history[0]["train_rmse"] == 0.0


def test_train_rmse_non_increasing():
    rng = np.random.default_rng(9)
    X = rng.normal(0, 1, (200, 5))
    y = X[:, 0] + 0.5 * X[:, 1] ** 2 + rng.normal(0, 0.3, 200)
    cfg = TrainConfig(rounds_max=200, gamma=0.0, early_stopping_patience=200, seed=0)
    _, history = train(X, y, X, y, cfg, [f"f{i}" for i in range(5)])
    rmses = [h["train_rmse"] for h in history]
    assert all(b <= a + 1e-12 for a, b in zip(rmses, rmses[1:]))


def test_stump_matches_exhaustive_search():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(5, 50))
        x = rng.normal(0, 1, n)
        y = rng.normal(0, 1, n)
        cfg = TrainConfig(rounds_max=10, max_depth=1, lambda_=0.0, learning_rate=1.0,
                          min_child_weight=0.0, seed=0)
        ens, _ = train(x.reshape(-1, 1), y, x.reshape(-1, 1), y, cfg, ["x"])
        if not ens.trees or ens.trees[0].is_leaf:
            continue
        got = ens.trees[0].split_value

        # O(n^2) oracle: evaluate squared-error reduction at every midpoint
        base = y.mean()
        g = base - y
        best = (-1.0, None)
        xs = np.sort(np.unique(x))
        for a, b in zip(xs[:-1], xs[1:]):
            cut = (a + b) / 2
            L = y[x < cut]
            R = y[x >= cut]
            gl, gr = (base - L).sum(), (base - R).sum()
            gain = gl * gl / len(L) + gr * gr / len(R) - g.sum() ** 2 / n
            if gain > best[0]:
                best = (gain, cut)
        assert got == pytest.approx(best[1])


def test_leaf_weight_identity():
    rng = np.random.default_rng(8)
    X = rng.normal(0, 1, (100, 3))
    y = rng.normal(0, 1, 100)
    lam = 1.7
    cfg = TrainConfig(rounds_max=10, max_depth=3, lambda_=lam, learning_rate=0.3,
                      early_stopping_patience=25, seed=0)
    ens, _ = train(X, y, X, y, cfg, ["a", "b", "c"])
    tree = ens.trees[0]
    base = ens.base_score
    g = base - y  # gradients entering round 1

    def check(node, rows):
        if node.is_leaf:
            G = g[rows].sum()
            H = len(rows)
            assert node.weight * (H + lam) + G == pytest.approx(0.0, abs=1e-9)
            return
        left = rows[X[rows, node.feature_index] < node.split_value]
        right = rows[X[rows, node.feature_index] >= node.split_value]
        assert node.cover_left + node.cover_right == pytest.approx(1.0, abs=1e-12)
        assert node.cover_left == pytest.approx(len(left) / len(rows), abs=1e-12)
        check(node.left, left)
        check(node.right, right)

    check(tree, np.arange(100))


# --- the level-wise grower against the recursive reference ------------------------

def _reference_grow(X, g, rows, depth, cfg):
    """The sort-based recursive exact-greedy grower the level-wise one replaced."""
    g_node = g[rows]
    G = float(g_node.sum())
    H = float(rows.size)
    n = rows.size
    if depth >= cfg.max_depth or n < 2:
        return TreeNode(weight=-(G / (H + cfg.lambda_)) + 0.0)
    X_node = X[rows]
    order = np.argsort(X_node, axis=0, kind="stable")
    xs = np.take_along_axis(X_node, order, axis=0)
    gl = np.cumsum(g_node[order], axis=0)[:-1]
    hl = np.cumsum(np.ones_like(g_node)[order], axis=0)[:-1]
    gr = G - gl
    hr = H - hl
    lam = cfg.lambda_
    with np.errstate(invalid="ignore", divide="ignore"):
        gains = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - G * G / (H + lam)) - cfg.gamma
    valid = (xs[:-1] < xs[1:]) & (hl >= cfg.min_child_weight) & (hr >= cfg.min_child_weight)
    gains[~valid] = -math.inf
    j, pos = divmod(int(np.argmax(gains.T)), n - 1)
    if not float(gains[pos, j]) > 0.0:
        return TreeNode(weight=-(G / (H + cfg.lambda_)) + 0.0)
    hl_sum = float(hl[pos, j])
    return TreeNode(
        feature_index=j,
        split_value=(float(xs[pos, j]) + float(xs[pos + 1, j])) / 2.0,
        cover_left=hl_sum / H,
        cover_right=(H - hl_sum) / H,
        left=_reference_grow(X, g, rows[order[:pos + 1, j]], depth + 1, cfg),
        right=_reference_grow(X, g, rows[order[pos + 1:, j]], depth + 1, cfg),
    )


def _reference_train(X, y, cfg):
    """Boosting with the reference grower, validating on the training rows."""
    pred = np.full(y.size, float(np.mean(y)))
    trees, best_rmse, best_round, stale = [], math.sqrt(np.mean((pred - y) ** 2)), 0, 0
    for rnd in range(1, cfg.rounds_max + 1):
        tree = _reference_grow(X, pred - y, np.arange(y.size), 0, cfg)
        trees.append(tree)
        pred = pred + cfg.learning_rate * tree_predict(tree, X)
        rmse = math.sqrt(np.mean((pred - y) ** 2))
        if rmse < best_rmse:
            best_rmse, best_round, stale = rmse, rnd, 0
        else:
            stale += 1
            if stale >= cfg.early_stopping_patience:
                break
    return Ensemble(float(np.mean(y)), cfg.learning_rate, trees[:best_round], ["f"] * X.shape[1])


@pytest.mark.parametrize("n", [2, 3, 40, 150])
@pytest.mark.parametrize("max_depth", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("lambda_,gamma,min_child_weight", [
    (0.0, 0.0, 0.0), (8.0, 0.0, 10.0), (1.0, 0.05, 1.0), (0.0, 0.5, 10.0),
])
def test_level_wise_matches_recursive_reference(n, max_depth, lambda_, gamma, min_child_weight):
    rng = np.random.default_rng(n * 100 + max_depth)
    X = rng.normal(0, 1, (n, 4))
    y = X[:, 0] + np.sin(2 * X[:, 1]) + rng.normal(0, 0.2, n)
    cfg = TrainConfig(rounds_max=20, max_depth=max_depth, lambda_=lambda_, gamma=gamma,
                      min_child_weight=min_child_weight, learning_rate=0.3,
                      early_stopping_patience=20, seed=0)
    ens, history = train(X, y, X, y, cfg, list("abcd"))
    ref = _reference_train(X, y, cfg)
    assert np.abs(predict_batch(ens, X) - predict_batch(ref, X)).max() <= 1e-9
    if ens.trees:
        refit = evaluate(ens, X, y)
        assert refit["rmse"] == pytest.approx(history[len(ens.trees) - 1]["train_rmse"], abs=1e-9)
        assert refit["mae"] == pytest.approx(history[len(ens.trees) - 1]["valid_mae"], abs=1e-9)


def _leaf_weights(node):
    return [node.weight] if node.is_leaf else _leaf_weights(node.left) + _leaf_weights(node.right)


def _splits(node):
    return None if node.is_leaf else (node.feature_index, node.split_value, _splits(node.left), _splits(node.right))


@pytest.mark.parametrize("seed", [1, 13, 74])
def test_equivalent_split_keeps_the_parents_row_order(seed):
    """Column 1 is column 0 plus jitter under half a step, so each of its
    splits between the integers partitions as one of column 0's. When the
    tie rule takes column 0 over the argmax column 1, rows with equal column-0
    values must stay in the parent's order (as a sort-based search visits
    them), not column 1's, for the leaf sums to match that search bit for bit."""
    rng = np.random.default_rng(seed)
    n = 120
    x0 = rng.integers(0, 10, n)
    x1 = x0 + rng.uniform(-0.4, 0.4, n)
    x2 = rng.normal(size=n)
    y = np.sin(x0) + rng.normal(0, 0.3, n)
    X = np.column_stack([x0, x1, x2]).astype(float)
    cfg = TrainConfig(rounds_max=10, max_depth=3, lambda_=1.0, min_child_weight=1.0, learning_rate=0.3,
                      early_stopping_patience=10)
    ens, _ = train(X, y, X, y, cfg, list("abc"))
    ref = _reference_grow(X, np.full(n, float(np.mean(y))) - y, np.arange(n), 0, cfg)
    assert _splits(ens.trees[0]) == _splits(ref)
    assert _leaf_weights(ens.trees[0]) == _leaf_weights(ref)


def test_models_trained_together_match_each_trained_alone():
    """Three models of different sizes and noise, grown as roots of the same
    levels, stop at different rounds (the last at rounds_max); each gets the
    trees, history and model bytes that training it alone gives."""
    rng = np.random.default_rng(5)
    models = []
    for n, noise in ((60, 2.0), (120, 0.5), (200, 0.05)):
        X, X_valid = np.round(rng.normal(0, 1, (n, 5)), 1), np.round(rng.normal(0, 1, (n // 3, 5)), 1)
        y, y_valid = (x[:, 0] + np.sin(2 * x[:, 1]) + rng.normal(0, noise, len(x)) for x in (X, X_valid))
        models.append((X, y, X_valid, y_valid))
    cfg = TrainConfig(rounds_max=80, max_depth=3, learning_rate=0.3, early_stopping_patience=5, seed=0)
    together = train_models(models, cfg, list("abcde"))
    assert sorted({len(history) for _, history in together}) == [6, 17, 80]
    for model, (ens, history) in zip(models, together):
        alone, alone_history = train(*model, cfg, list("abcde"))
        assert ens.trees == alone.trees and history == alone_history
        assert to_json(ens, cfg, history) == to_json(alone, cfg, alone_history)


def _split_features(ens):
    counts = {}

    def walk(node):
        if not node.is_leaf:
            counts[node.feature_index] = counts.get(node.feature_index, 0) + 1
            walk(node.left)
            walk(node.right)

    for tree in ens.trees:
        walk(tree)
    return counts


def test_equivalent_splits_take_the_lowest_feature():
    # columns 1-3 are a duplicate, a negated and an affine copy of column 0,
    # so each of their splits sends exactly the rows of a column-0 split left
    # or right; column 4 is independent noise
    rng = np.random.default_rng(3)
    x0 = rng.integers(0, 12, 300).astype(float)
    X = np.column_stack([x0, x0, -x0, 2 * x0 + 3, rng.normal(size=300)])
    y = np.sin(x0) + rng.normal(0, 0.1, 300)
    cfg = TrainConfig(rounds_max=100, max_depth=4, early_stopping_patience=100, seed=0)
    ens, _ = train(X, y, X, y, cfg, list("abcde"))
    counts = _split_features(ens)
    assert set(counts) == {0, 4}
    # reversed, the noise is column 0 and the affine copy is the lowest of the four
    ens_rev, _ = train(X[:, ::-1], y, X[:, ::-1], y, cfg, list("edcba"))
    assert set(_split_features(ens_rev)) == {0, 1}


def test_non_finite_inputs_rejected():
    X = np.ones((20, 2))
    y = np.ones(20)
    cfg = TrainConfig(rounds_max=10, seed=0)
    bad_X = X.copy()
    bad_X[3, 1] = np.nan
    with pytest.raises(NonFiniteFeature):
        train(bad_X, y, X, y, cfg, ["a", "b"])
    bad_y = y.copy()
    bad_y[0] = np.inf
    with pytest.raises(NonFiniteTarget):
        train(X, bad_y, X, y, cfg, ["a", "b"])


# --- prediction ------------------------------------------------------------------

def _stump(feature=0, split=0.0, left=-1.0, right=1.0):
    return TreeNode(feature_index=feature, split_value=split, cover_left=0.5,
                    cover_right=0.5, left=TreeNode(weight=left), right=TreeNode(weight=right))


def test_predict_empty_ensemble_is_base():
    ens = Ensemble(base_score=42.0, learning_rate=0.1, trees=[], feature_names=["x"])
    assert predict_batch(ens, [[5.0]]).tolist() == [42.0]


def test_predict_additive_over_copies():
    tree = _stump()
    for k in (1, 2, 5):
        ens = Ensemble(base_score=10.0, learning_rate=0.1, trees=[tree] * k, feature_names=["x"])
        assert predict_batch(ens, [[1.0]])[0] == pytest.approx(10.0 + 0.1 * k, abs=1e-12)


def test_predict_missing_feature():
    ens = Ensemble(base_score=0.0, learning_rate=0.1, trees=[_stump()], feature_names=["x"])
    with pytest.raises(MissingFeature):
        predict_batch(ens, [[1.0, 2.0]])
    with pytest.raises(NonFiniteFeature):
        predict_batch(ens, [[float("nan")]])


def test_fitted_values_match_history():
    rng = np.random.default_rng(2)
    X = rng.normal(0, 1, (80, 4))
    y = X[:, 0] * 3 + rng.normal(0, 0.2, 80)
    cfg = TrainConfig(rounds_max=60, early_stopping_patience=60, seed=0)
    ens, history = train(X, y, X, y, cfg, list("abcd"))
    refit = evaluate(ens, X, y)
    at_selection = history[len(ens.trees) - 1]
    assert refit["rmse"] == pytest.approx(at_selection["train_rmse"], abs=1e-9)
    assert refit["mae"] == pytest.approx(at_selection["train_mae"], abs=1e-9)


# --- evaluate -----------------------------------------------------------------------

def test_evaluate_exact_predictions():
    ens = Ensemble(base_score=3.0, learning_rate=0.1, trees=[], feature_names=["x"])
    out = evaluate(ens, np.zeros((4, 1)), np.full(4, 3.0))
    assert out == {"mae": 0.0, "rmse": 0.0}


def test_evaluate_unit_residuals():
    ens = Ensemble(base_score=0.0, learning_rate=0.1, trees=[], feature_names=["x"])
    out = evaluate(ens, np.zeros((2, 1)), np.array([1.0, -1.0]))
    assert out["mae"] == 1.0
    assert out["rmse"] == 1.0


def test_evaluate_empty():
    ens = Ensemble(base_score=0.0, learning_rate=0.1, trees=[], feature_names=["x"])
    with pytest.raises(EmptyInput):
        evaluate(ens, np.zeros((0, 1)), np.zeros(0))


@pytest.mark.parametrize("empty", ["train", "valid"])
def test_train_models_refuses_a_model_with_no_rows(empty):
    """A model with no training or no validation row cannot be fitted, so the
    CLI leaves it unfitted; ``train_models`` refuses it."""
    X, y = np.zeros((12, 1)), np.arange(12.0)
    fit = (X[:0], y[:0]) if empty == "train" else (X, y)
    held_out = (X[:0], y[:0]) if empty == "valid" else (X, y)
    with pytest.raises(EmptyInput):
        train_models([(X, y, X, y), (*fit, *held_out)], TrainConfig(rounds_max=10), ["x"])


# --- serialization -----------------------------------------------------------------

def test_round_trip_preserves_predictions():
    rng = np.random.default_rng(6)
    X = rng.normal(0, 1, (60, 3))
    y = X[:, 1] + rng.normal(0, 0.1, 60)
    cfg = TrainConfig(rounds_max=30, early_stopping_patience=30, seed=0)
    ens, history = train(X, y, X, y, cfg, list("abc"))
    text = to_json(ens, cfg, history)
    back, cfg_doc, hist_back = from_json(text)
    assert predict_batch(back, X).tolist() == predict_batch(ens, X).tolist()
    assert cfg_doc["lambda"] == cfg.lambda_
    assert hist_back == history


def test_serialization_deterministic():
    rng = np.random.default_rng(6)
    X = rng.normal(0, 1, (60, 3))
    y = X[:, 1] + rng.normal(0, 0.1, 60)
    cfg = TrainConfig(rounds_max=30, early_stopping_patience=30, seed=5)

    def run():
        ens, history = train(X, y, X, y, cfg, list("abc"))
        return to_json(ens, cfg, history)

    assert run() == run()


@pytest.mark.parametrize("edit,message", [
    (lambda doc: {**doc, "format": "other"}, "not an airnoise model document"),
    (lambda doc: {**doc, "trees": [doc["trees"][0] + [{"leaf": 0.0}]]}, "trailing nodes in serialized tree"),
], ids=["foreign-format", "trailing-node"])
def test_from_json_rejects_a_foreign_document_or_a_tree_with_trailing_nodes(edit, message):
    ens = Ensemble(base_score=1.0, learning_rate=0.05, trees=[_stump()], feature_names=["x"])
    text = json.dumps(edit(json.loads(to_json(ens))))
    with pytest.raises(InvalidConfig, match=message):
        from_json(text)


def test_serialized_document_shape():
    ens = Ensemble(base_score=1.0, learning_rate=0.05, trees=[_stump()], feature_names=["x"])
    doc = json.loads(to_json(ens))
    assert doc["format"] == "airnoise-gbm"
    assert doc["trees"] == [[
        {"feature": 0, "split": 0.0, "cover_left": 0.5, "cover_right": 0.5},
        {"leaf": -1.0},
        {"leaf": 1.0},
    ]]


def _reference_json(ens, cfg=None, history=None):
    def nodes(node, out):
        if node.is_leaf:
            out.append({"leaf": node.weight})
            return out
        out.append({"feature": node.feature_index, "split": node.split_value,
                    "cover_left": node.cover_left, "cover_right": node.cover_right})
        nodes(node.left, out)
        nodes(node.right, out)
        return out

    doc = json.loads(to_json(Ensemble(ens.base_score, ens.learning_rate, [], ens.feature_names), cfg))
    doc["trees"] = [nodes(t, []) for t in ens.trees]
    doc["history"] = history or []
    return json.dumps(doc, sort_keys=True, indent=1)


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return TreeNode(weight=float(rng.choice([rng.normal(), 0.0, -0.0, 1e300, 3])))
    return TreeNode(feature_index=int(rng.integers(0, 5)), split_value=float(rng.normal() * 10.0 ** rng.integers(-8, 8)),
                    cover_left=float(rng.random()), cover_right=float(rng.random()),
                    left=_random_tree(rng, depth - 1), right=_random_tree(rng, depth - 1))


def test_to_json_bytes_match_the_json_module():
    rng = np.random.default_rng(12)
    names = ["a", "b\"q", "c\u00e9", "inf", 'd"\n']
    cfg = TrainConfig(rounds_max=30, seed=5)
    for k in range(30):
        ens = Ensemble(float(rng.normal()), 0.05, [_random_tree(rng, 6) for _ in range(k % 5)], names)
        history = [{"round": r, "train_mae": float(rng.random()), "valid_rmse": float("nan") if r == 2 else 1.0}
                   for r in range(k % 4)]
        for args in ((), (cfg,), (cfg, history), (None, history)):
            assert to_json(ens, *args) == _reference_json(ens, *args)
    special = Ensemble(0.0, 0.1, [TreeNode(weight=math.inf), _stump(split=-math.inf, left=math.nan)], ["x"])
    assert to_json(special) == _reference_json(special)

    X = rng.normal(0, 1, (120, 5))
    y = X[:, 0] + rng.normal(0, 0.1, 120)
    ens, history = train(X, y, X, y, cfg, names)
    assert to_json(ens, cfg, history) == _reference_json(ens, cfg, history)


def test_tree_predict_routing():
    tree = _stump(split=0.5)
    X = np.array([[0.0], [1.0], [0.5]])
    assert tree_predict(tree, X).tolist() == [-1.0, 1.0, 1.0]
