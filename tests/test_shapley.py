import tracemalloc

import numpy as np
import pytest

from airnoise.errors import EmptyInput, TooManyFeatures, UnknownFeature
from airnoise.gbm import Ensemble, TreeNode
from airnoise.shapley import (
    Attribution,
    coalition_value,
    dependence,
    shapley_batch,
    shapley_bruteforce,
    shapley_fast,
    summary,
)


def _stump(feature=0, split=0.5, left=2.0, right=6.0, cover_left=0.5):
    return TreeNode(
        feature_index=feature, split_value=split,
        cover_left=cover_left, cover_right=1.0 - cover_left,
        left=TreeNode(weight=left), right=TreeNode(weight=right),
    )


def _ens(trees, m=2, base=0.0, eta=1.0):
    return Ensemble(base_score=base, learning_rate=eta, trees=trees,
                    feature_names=[f"f{i}" for i in range(m)])


def _random_ensemble(rng, m, n_trees=3, depth=3, p_leaf=0.3):
    def build(d):
        if d == 0 or rng.random() < p_leaf:
            return TreeNode(weight=float(rng.normal(0, 2)))
        c = float(rng.uniform(0.05, 0.95))
        return TreeNode(
            feature_index=int(rng.integers(0, m)),
            split_value=float(rng.normal(0, 1)),
            cover_left=c, cover_right=1.0 - c,
            left=build(d - 1), right=build(d - 1),
        )
    trees = []
    for _ in range(n_trees):
        t = build(depth)
        if t.is_leaf:
            c = float(rng.uniform(0.05, 0.95))
            t = TreeNode(feature_index=int(rng.integers(0, m)), split_value=0.0,
                         cover_left=c, cover_right=1.0 - c,
                         left=TreeNode(weight=float(rng.normal(0, 2))), right=t)
        trees.append(t)
    return _ens(trees, m=m, base=float(rng.normal(0, 1)), eta=float(rng.uniform(0.05, 1.0)))


# --- coalition_value ------------------------------------------------------------

def test_full_subset_equals_prediction():
    ens = _ens([_stump()], m=2)
    row = np.array([1.0, 3.0])
    assert coalition_value(ens, row, ["f0", "f1"]) == 6.0


def test_empty_subset_is_cover_average():
    ens = _ens([_stump()], m=2, base=1.0, eta=0.5)
    row = np.array([1.0, 0.0])
    # cover-weighted leaf average is 4; base + eta*4
    assert coalition_value(ens, row, []) == pytest.approx(1.0 + 0.5 * 4.0)


def test_empty_ensemble_any_subset():
    ens = _ens([], m=3, base=9.0)
    row = np.zeros(3)
    for subset in ([], ["f0"], ["f0", "f1", "f2"]):
        assert coalition_value(ens, row, subset) == 9.0


def test_unknown_feature_rejected():
    ens = _ens([_stump()], m=2)
    with pytest.raises(UnknownFeature):
        coalition_value(ens, np.zeros(2), ["nope"])


# --- brute force ----------------------------------------------------------------

def test_bruteforce_stump_example():
    # spec worked example: stump on f0, leaves 2/6, even covers, row reaches 6
    ens = _ens([_stump()], m=2)
    att = shapley_bruteforce(ens, np.array([1.0, 0.0]))
    assert att.phi0 == pytest.approx(4.0)
    assert att.phis[0] == pytest.approx(2.0)
    assert att.phis[1] == 0.0


def test_bruteforce_constant_model():
    ens = _ens([], m=4, base=5.5)
    att = shapley_bruteforce(ens, np.zeros(4))
    assert att.phi0 == 5.5
    assert att.phis.tolist() == [0.0] * 4


def test_bruteforce_symmetry_of_duplicated_features():
    # two trees indistinguishable up to the feature they split on
    ens = _ens([_stump(feature=0), _stump(feature=1)], m=2)
    att = shapley_bruteforce(ens, np.array([1.0, 1.0]))
    assert att.phis[0] == pytest.approx(att.phis[1], abs=1e-12)


def test_bruteforce_feature_cap():
    ens = _ens([], m=16)
    with pytest.raises(TooManyFeatures):
        shapley_bruteforce(ens, np.zeros(16))


# --- fast path ------------------------------------------------------------------

def test_fast_equals_bruteforce_random_cases():
    rng = np.random.default_rng(42)
    for _ in range(50):
        m = int(rng.integers(1, 11))
        ens = _random_ensemble(rng, m, n_trees=int(rng.integers(1, 4)))
        row = rng.normal(0, 1, m)
        a = shapley_bruteforce(ens, row)
        b = shapley_fast(ens, row)
        assert abs(a.phi0 - b.phi0) < 1e-8
        assert np.max(np.abs(a.phis - b.phis)) < 1e-8


def test_local_accuracy():
    rng = np.random.default_rng(17)
    ens = _random_ensemble(rng, 6, n_trees=5, depth=4)
    X = rng.normal(0, 1, (40, 6))
    for att in shapley_batch(ens, X):
        full = coalition_value(ens, att.row, ens.feature_names)
        assert att.prediction() == pytest.approx(full, abs=1e-6)


def test_dummy_feature_exactly_zero():
    # feature f2 never appears in any tree
    ens = _ens([_stump(feature=0), _stump(feature=1)], m=3)
    att = shapley_fast(ens, np.array([1.0, 0.0, 5.0]))
    assert att.phis[2] == 0.0


def test_additivity_over_trees():
    rng = np.random.default_rng(23)
    t1 = _random_ensemble(rng, 4, n_trees=1)
    t2 = _random_ensemble(rng, 4, n_trees=1)
    both = Ensemble(base_score=t1.base_score + t2.base_score, learning_rate=1.0,
                    trees=[], feature_names=t1.feature_names)
    # rescale: put eta inside by using eta=1 ensembles
    a1 = Ensemble(base_score=0.0, learning_rate=t1.learning_rate, trees=t1.trees, feature_names=t1.feature_names)
    a2 = Ensemble(base_score=0.0, learning_rate=t2.learning_rate, trees=t2.trees, feature_names=t2.feature_names)
    row = rng.normal(0, 1, 4)
    phis_sum = shapley_fast(a1, row).phis + shapley_fast(a2, row).phis
    # an ensemble holding both trees with eta folded into leaf weights
    def scale(node, eta):
        if node.is_leaf:
            return TreeNode(weight=node.weight * eta)
        return TreeNode(feature_index=node.feature_index, split_value=node.split_value,
                        cover_left=node.cover_left, cover_right=node.cover_right,
                        left=scale(node.left, eta), right=scale(node.right, eta))
    merged = Ensemble(base_score=0.0, learning_rate=1.0,
                      trees=[scale(t, a1.learning_rate) for t in a1.trees]
                            + [scale(t, a2.learning_rate) for t in a2.trees],
                      feature_names=t1.feature_names)
    merged_phis = shapley_fast(merged, row).phis
    assert np.allclose(merged_phis, phis_sum, atol=1e-10)


def test_batch_matches_single():
    # enough leaves and rows to span several leaf blocks and row tiles
    rng = np.random.default_rng(31)
    ens = _random_ensemble(rng, 8, n_trees=60, depth=6, p_leaf=0.1)
    X = rng.normal(0, 1, (150, 8))
    batch = shapley_batch(ens, X)
    again = shapley_batch(ens, X)
    for i in (0, 1, 63, 64, 100, 149):
        single = shapley_fast(ens, X[i])
        assert batch[i].phis.tobytes() == single.phis.tobytes()
        assert batch[i].phi0 == single.phi0
    for a, b in zip(batch, again):
        assert a.phis.tobytes() == b.phis.tobytes()
        assert a.phi0 == b.phi0


def test_batch_phi0_is_python_float():
    rng = np.random.default_rng(3)
    ens = _random_ensemble(rng, 4)
    att = shapley_batch(ens, rng.normal(0, 1, (2, 4)))[0]
    assert type(att.phi0) is float


def test_batch_dummy_features_exactly_zero():
    rng = np.random.default_rng(5)
    used = _random_ensemble(rng, 4, n_trees=20, depth=5)
    ens = _ens(used.trees, m=7, base=used.base_score, eta=used.learning_rate)
    X = rng.normal(0, 1, (50, 7))
    for att in shapley_batch(ens, X):
        assert att.phis[4:].tolist() == [0.0, 0.0, 0.0]


def test_single_leaf_trees():
    only_leaf = _ens([TreeNode(weight=3.0)], m=2, base=1.0, eta=0.5)
    att = shapley_fast(only_leaf, np.array([0.3, -1.0]))
    assert att.phi0 == 1.0 + 0.5 * 3.0
    assert att.phis.tolist() == [0.0, 0.0]
    mixed = _ens([TreeNode(weight=3.0), _stump(), TreeNode(weight=-1.0)], m=2, base=1.0, eta=0.5)
    for row in ([0.0, 0.0], [1.0, 2.0]):
        a = shapley_bruteforce(mixed, np.array(row))
        b = shapley_fast(mixed, np.array(row))
        assert b.phi0 == pytest.approx(a.phi0, abs=1e-12)
        assert np.max(np.abs(a.phis - b.phis)) < 1e-12


def test_feature_repeated_on_one_path():
    # f0 < 1, then f0 >= -1, then f1 < 0: f0's conditions collapse to [-1, 1)
    inner = TreeNode(feature_index=1, split_value=0.0, cover_left=0.4, cover_right=0.6,
                     left=TreeNode(weight=5.0), right=TreeNode(weight=-2.0))
    mid = TreeNode(feature_index=0, split_value=-1.0, cover_left=0.3, cover_right=0.7,
                   left=TreeNode(weight=1.0), right=inner)
    root = TreeNode(feature_index=0, split_value=1.0, cover_left=0.8, cover_right=0.2,
                    left=mid, right=TreeNode(weight=4.0))
    ens = _ens([root], m=3)
    # rows inside, below, above and exactly on each split (x == split goes right)
    X = np.array([[0.0, -1.0, 0.0], [-2.0, 1.0, 0.0], [2.0, -1.0, 0.0],
                  [-1.0, 0.0, 0.0], [1.0, -0.5, 0.0], [np.nextafter(1.0, 0.0), 0.0, 0.0]])
    for att in shapley_batch(ens, X):
        oracle = shapley_bruteforce(ens, att.row)
        assert np.max(np.abs(att.phis - oracle.phis)) < 1e-12
        assert att.phis[2] == 0.0


def test_zero_rows():
    rng = np.random.default_rng(9)
    ens = _random_ensemble(rng, 3)
    assert shapley_batch(ens, np.empty((0, 3))) == []


def test_nan_and_infinite_rows():
    rng = np.random.default_rng(13)
    ens = _random_ensemble(rng, 4, n_trees=6, depth=4)
    # hand-made nodes that split on infinities and NaN
    odd = [
        TreeNode(feature_index=0, split_value=split, cover_left=0.25, cover_right=0.75,
                 left=TreeNode(weight=3.0),
                 right=TreeNode(feature_index=0, split_value=0.5, cover_left=0.5, cover_right=0.5,
                                left=TreeNode(weight=-1.0), right=TreeNode(weight=2.0)))
        for split in (np.inf, -np.inf, np.nan)
    ]
    ens = _ens(ens.trees + odd, m=4, base=ens.base_score, eta=ens.learning_rate)
    specials = [np.nan, np.inf, -np.inf, 0.5]
    X = np.array([[a, b, c, d] for a in specials for b in specials
                  for c in (np.nan, 0.0) for d in (-np.inf, 0.1)])
    for att in shapley_batch(ens, X):
        full = coalition_value(ens, att.row, ens.feature_names)
        assert att.prediction() == pytest.approx(full, abs=1e-6)
        oracle = shapley_bruteforce(ens, att.row)
        assert np.max(np.abs(att.phis - oracle.phis)) < 1e-8


def test_batch_memory_bounded():
    rng = np.random.default_rng(19)
    ens = _random_ensemble(rng, 22, n_trees=300, depth=6, p_leaf=0.0)
    X = rng.normal(0, 1, (400, 22))
    tracemalloc.start()
    try:
        shapley_batch(ens, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 1024 * 1024


# --- summary / dependence ----------------------------------------------------------

def _att(phis, row=None, names=None):
    phis = np.asarray(phis, dtype=float)
    names = names or [f"f{i}" for i in range(phis.size)]
    row = np.asarray(row if row is not None else np.zeros(phis.size), dtype=float)
    return Attribution(key=None, row=row, phi0=0.0, phis=phis, feature_names=list(names))


def test_summary_single_attribution():
    ranking = summary([_att([1.0, -3.0, 2.0])])
    assert ranking == [("f1", 3.0), ("f2", 2.0), ("f0", 1.0)]


def test_summary_all_zero_keeps_index_order():
    ranking = summary([_att([0.0, 0.0, 0.0])])
    assert ranking == [("f0", 0.0), ("f1", 0.0), ("f2", 0.0)]


def test_summary_empty():
    with pytest.raises(EmptyInput):
        summary([])


def test_dependence_sorted_pairs():
    atts = [
        _att([1.0, 0.5], row=[3.0, 0.0]),
        _att([-1.0, 0.5], row=[1.0, 0.0]),
        _att([0.0, 0.5], row=[2.0, 0.0]),
    ]
    pairs = dependence(atts, "f0")
    assert pairs == [(1.0, -1.0), (2.0, 0.0), (3.0, 1.0)]


def test_dependence_unknown_feature():
    with pytest.raises(UnknownFeature):
        dependence([_att([0.0])], "zzz")


def test_dependence_dummy_feature_zero():
    ens = _ens([_stump(feature=0)], m=2)
    X = np.array([[0.0, 1.0], [1.0, 2.0]])
    atts = shapley_batch(ens, X)
    pairs = dependence(atts, "f1")
    assert [p for _, p in pairs] == [0.0, 0.0]
