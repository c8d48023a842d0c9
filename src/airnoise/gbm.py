"""Second-order gradient-boosted regression trees for hourly noise levels.

Squared-error loss only: per-row gradient g = prediction - target, hessian
h = 1, so a node's H is its row count. Trees are grown by exact greedy
search (the exact greedy algorithm of XGBoost, Chen & Guestrin 2016,
arXiv:1603.02754): the candidate splits of a node are the midpoints between
consecutive distinct values of each feature among the node's rows (the
upper value where the midpoint of two adjacent doubles rounds onto the
lower one), and the chosen one maximizes

    gain = 1/2 * [ G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda)
                   - (G_L+G_R)^2/(H_L+H_R+lambda) ] - gamma

over candidates that leave at least min_child_weight (and one row) on each
side. A node is a leaf at max_depth or when no candidate has a positive
gain; its weight is -G/(H+lambda).

Growth is level-wise and reads G_L and H_L from histograms, as LightGBM
does (Ke et al., NeurIPS 2017). Each `train` call codes every training
column once by the rank of its value among the column's distinct values.
Per level, a bincount over the live rows gives every node's G per code (the
row counts come from the level above, where they also decide ties), and
running sums over each feature's codes, started from zero, give G_L and H_L
at every code. A code that none of a node's rows holds adds nothing and is
no candidate, so the candidates are exactly those of a search that sorts
the node's rows: binning approximates nothing. A level costs about
rows x features + codes x nodes, so few distinct values per feature suit
it; a continuous column has as many codes as rows. Training and validation
rows are routed through the levels as they are grown, so a round needs no
separate prediction pass.

What is exact: the candidate set, the row partitions, the covers, the
leaf weights and the tie rule below. Each node keeps its rows in the order a
sort-based search visits them (stably sorted by each split feature on its
path), and its G is their pairwise sum in that order, so a leaf weight is
that search's bit for bit. G_L comes from per-code sums, so a gain can
differ from that search's in the last bits, and a choice between two splits
whose gains lie within rounding of each other may differ.

Ties: the first maximum in feature-major order wins, so equal gains resolve
to the lowest feature index, then the lowest split value. Candidates of two
features that induce the same partition have mathematically equal gains
that rounding can tell apart (a negated copy of a column sums the same rows
in the opposite order), so that rule is enforced on partitions: when
another feature's candidate sends exactly the same rows left, or exactly
the same rows right, as the maximum, the lowest such feature wins, and a
mirrored choice swaps the children. This is decided from row counts, with
no tolerance, so a training run is bit-for-bit reproducible anywhere. Each
internal node records the fraction of its training rows routed left/right;
the attribution module uses these covers as the branch weights for
unconditioned features.

The fitted model is base_score + learning_rate * sum(tree outputs); training
runs until rounds_max or until validation RMSE has not improved for
``early_stopping_patience`` rounds, and the returned ensemble is the prefix
of trees up to the best validation round.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    EmptyInput,
    InvalidConfig,
    MissingFeature,
    NonFiniteFeature,
    NonFiniteTarget,
    TooFewRows,
)
from .fusion import FeatureTable
from .rng import substream

ROUNDS_MIN = 10
ROUNDS_MAX = 1000


@dataclass
class TreeNode:
    """Internal node (feature_index/split_value/children/covers) or leaf (weight)."""

    feature_index: int = -1
    split_value: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    cover_left: float = 0.0
    cover_right: float = 0.0
    weight: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class Ensemble:
    base_score: float
    learning_rate: float
    trees: list[TreeNode]
    feature_names: list[str]


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    rounds_max: int = 300
    max_depth: int = 6
    lambda_: float = 1.0
    gamma: float = 0.0
    min_child_weight: float = 1.0
    early_stopping_patience: int = 25
    split_fraction: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if not ROUNDS_MIN <= self.rounds_max <= ROUNDS_MAX:
            raise InvalidConfig(f"rounds_max must lie in [{ROUNDS_MIN}, {ROUNDS_MAX}]")
        if not (self.lambda_ >= 0 and self.gamma >= 0 and self.min_child_weight >= 0):  # NaN fails too
            raise InvalidConfig("lambda, gamma and min_child_weight must be non-negative")
        if self.max_depth < 1:
            raise InvalidConfig("max_depth must be at least 1")


# ---------------------------------------------------------------------------
# data split

def split_data(table: FeatureTable, fraction: float = 0.9, seed: int = 0) -> tuple[FeatureTable, FeatureTable]:
    """Deterministic uniform-random row partition of a feature table.

    The same seed always produces the same partition; both parts must end up
    non-empty, so fractions of 0 or 1 are rejected.
    """
    n = len(table.keys)
    if n < 10:
        raise TooFewRows(f"need at least 10 rows to split, got {n}")
    n_train = int(round(fraction * n))
    if not 1 <= n_train <= n - 1:
        raise InvalidConfig(f"fraction {fraction} leaves an empty part for {n} rows")
    order = substream(seed, "split").permutation(n)
    train_idx = np.sort(order[:n_train])
    test_idx = np.sort(order[n_train:])

    def subset(idx: np.ndarray) -> FeatureTable:
        return FeatureTable(
            keys=[table.keys[i] for i in idx],
            feature_names=list(table.feature_names),
            matrix=table.matrix[idx],
            takeoff_laeq=table.takeoff_laeq[idx],
            landing_laeq=table.landing_laeq[idx],
        )

    return subset(train_idx), subset(test_idx)


# ---------------------------------------------------------------------------
# tree growing

@dataclass
class _Bins:
    """The training columns coded by value rank.

    Codes number the distinct values of every feature, feature after feature
    and ascending within one, so code order is feature-major. Histograms use
    another layout: features are grouped by the power of eight at or above
    their count of distinct values, and each group is a block laid out as
    (rank, feature, node) and padded to its widest feature. One cumulative sum
    down a block gives each of its features' running sums from zero; padding
    at most multiplies a histogram by eight, and there are few blocks.
    """

    codes: np.ndarray      # (rows, features) code of each training value
    values: np.ndarray     # value of each code
    feature: np.ndarray    # feature of each code
    cell: np.ndarray       # histogram cell of each code
    row_cells: np.ndarray  # (rows, features) cell of each training value
    blocks: list[tuple[int, int, int]]   # first cell, ranks, features


def _bin_columns(X: np.ndarray) -> _Bins:
    codes = np.empty(X.shape, dtype=np.intp)
    values = []
    for f in range(X.shape[1]):
        distinct, codes[:, f] = np.unique(X[:, f], return_inverse=True)
        values.append(distinct)
    sizes = np.array([v.size for v in values])
    firsts = np.cumsum(sizes) - sizes
    codes += firsts
    cell = np.empty(sizes.sum(), dtype=np.intp)
    blocks = []
    start = 0
    group = np.ceil(np.log2(sizes) / 3)   # the power of eight at or above the size
    # sorted(set()), not np.unique: np.unique of a plain array imports numpy.ma
    # (about 40 ms) to ask whether it is masked
    for g in sorted(set(group.tolist())):
        members = np.flatnonzero(group == g)
        for j, f in enumerate(members):
            cell[firsts[f]:firsts[f] + sizes[f]] = start + np.arange(sizes[f]) * members.size + j
        width = int(sizes[members].max())
        blocks.append((start, width, members.size))
        start += width * members.size
    return _Bins(codes=codes, values=np.concatenate(values),
                 feature=np.repeat(np.arange(X.shape[1]), sizes),
                 cell=cell, row_cells=cell[codes], blocks=blocks)


def _left_sums(bins: _Bins, cells: np.ndarray, n_nodes: int, weights=None) -> np.ndarray:
    """(codes, nodes) sums of ``weights`` (default 1) over the node's rows whose
    value is at or below the code's, each feature's summed from zero."""
    start, width, count = bins.blocks[-1]
    hist = np.bincount(cells, weights, minlength=(start + width * count) * n_nodes)
    for start, width, count in bins.blocks:
        block = hist[start * n_nodes:(start + width * count) * n_nodes].reshape(width, -1)
        np.add.accumulate(block, 0, out=block)
    return hist.reshape(-1, n_nodes).take(bins.cell, 0)


def _grow(bins: _Bins, X_valid: np.ndarray, g: np.ndarray,
          cfg: TrainConfig) -> tuple[TreeNode, np.ndarray, np.ndarray]:
    """Grow one tree on gradients ``g`` level by level; return it with its
    output on every training and validation row. (Gathers use ``take`` on
    flat arrays: on arrays this small, numpy's call overhead is the cost.)"""
    lam = cfg.lambda_
    # with h = 1, H is a row count, so a side with rows has H >= 1
    least = max(cfg.min_child_weight, 1.0)
    n_features = bins.codes.shape[1]
    codes = bins.codes.ravel()
    valid_values = X_valid.ravel()
    n_codes = bins.values.size
    code_index = np.arange(n_codes)[:, None]
    out_train = np.empty(g.size)
    out_valid = np.empty(X_valid.shape[0])
    root = TreeNode()
    level = [root]
    # each live row carries the slot of its node within the level
    rows = np.arange(g.size)
    slot = np.zeros(g.size, dtype=np.intp)
    vrows = np.arange(X_valid.shape[0])
    vslot = np.zeros(X_valid.shape[0], dtype=np.intp)
    cells = bins.row_cells.ravel()
    hl = _left_sums(bins, cells, 1)
    depth = 0
    while True:
        K = len(level)
        g_rows = g.take(rows)
        H = hl[-1]   # rows at or below the largest value of a feature: all of them
        # rows are grouped by node, so a node's G is the pairwise sum of a slice
        bounds = [0, *H.cumsum().tolist()]
        G = np.array([g_rows[a:b].sum() for a, b in zip(bounds, bounds[1:])])
        weight = -(G / (H + lam)) + 0.0
        # a row that goes on to a child is written again there
        out_train[rows] = weight.take(slot)
        out_valid[vrows] = weight.take(vslot)
        parents = np.empty(0, dtype=np.intp)
        if depth < cfg.max_depth:
            gl = _left_sums(bins, cells, K, g_rows.repeat(n_features))
            gr = G - gl
            hr = H - hl
            gains = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - G * G / (H + lam)) - cfg.gamma
            # An empty code repeats the gain of the present code before it, so
            # the first maximum in code order is a present value: the lowest
            # feature, then the lowest value.
            gains[~((hl >= least) & (hr >= least))] = -math.inf
            best = gains.argmax(0)
            split = gains.ravel().take(best * K + np.arange(K)) > 0.0
            parents = split.nonzero()[0]
        if parents.size == 0:
            for node, w in zip(level, weight.tolist()):
                node.weight = w
            return root, out_train, out_valid

        # Route the training rows of splitting nodes to their children, in the
        # order a sort-based grower visits them: the parent's order, stably
        # sorted by the split feature. A node's sum then adds the same numbers
        # in the same order, so leaf weights match that grower bit for bit.
        n_split = parents.size
        rank = split.cumsum() - 1
        argmax_best = best.take(parents)
        keep = split.take(slot)
        rows, slot = rows[keep], rank.take(slot[keep])
        row_best = argmax_best.take(slot)
        row_code = codes.take(rows * n_features + bins.feature.take(row_best))
        slot = 2 * slot + (row_code > row_best)
        order = (slot * n_codes + row_code).argsort(kind="stable")
        rows, slot = rows.take(order), slot.take(order)
        # count the children's rows at or below each code
        cells = (bins.row_cells.take(rows, 0) * (2 * n_split) + slot[:, None]).ravel()
        parent_hl = hl.take(parents, 1)
        hl = _left_sums(bins, cells, 2 * n_split)

        # Equivalent splits: a lower feature whose candidate sends exactly the
        # same rows left, or exactly the same rows right, wins. Per code, left
        # minus right rows at or below it is n_left only for the same
        # partition and -n_right only for the mirrored one.
        below = hl[:, 0::2] - hl[:, 1::2]
        split_index = np.arange(n_split)
        n_left = below.ravel().take(argmax_best * n_split + split_index)
        best = ((below == n_left) | (below == n_left - H.take(parents))).argmax(0)
        at_best = best * n_split + split_index
        feature = bins.feature.take(best)
        if True in (best != argmax_best).tolist():
            # the left child of a mirrored split is the old right child
            flip = below.ravel().take(at_best) != n_left
            swap = np.arange(2 * n_split).reshape(n_split, 2)
            swap[flip] = swap[flip, ::-1]
            swap = swap.ravel()
            hl = hl.take(swap, 1)
            slot = swap.take(slot)
            order = (slot * n_codes + codes.take(rows * n_features + feature.take(slot >> 1))).argsort(kind="stable")
            rows, slot = rows.take(order), slot.take(order)
            cells = (bins.row_cells.take(rows, 0) * (2 * n_split) + slot[:, None]).ravel()
        n_left = parent_hl.ravel().take(at_best)
        # The threshold is the midpoint to the next value present in the node,
        # or that value where the midpoint rounds onto the lower one (adjacent
        # doubles) or overflows, so that `x < threshold` splits as the codes do.
        lower = bins.values.take(best)
        upper = bins.values.take(((code_index > best) & (parent_hl > n_left)).argmax(0))
        threshold = (lower + upper) / 2.0
        threshold = np.where((lower < threshold) & (threshold <= upper), threshold, upper)

        vkeep = split.take(vslot)
        vrows, vslot = vrows[vkeep], rank.take(vslot[vkeep])
        vright = valid_values.take(vrows * n_features + feature.take(vslot)) >= threshold.take(vslot)
        vslot = 2 * vslot + vright

        next_level = []
        children = zip(feature.tolist(), threshold.tolist(), n_left.tolist(), H.take(parents).tolist())
        for node, s, w in zip(level, split.tolist(), weight.tolist()):
            if not s:
                node.weight = w
                continue
            f, t, nl, h = next(children)
            node.feature_index = f
            node.split_value = t
            node.cover_left = nl / h
            node.cover_right = (h - nl) / h
            node.left = TreeNode()
            node.right = TreeNode()
            next_level += (node.left, node.right)
        level = next_level
        depth += 1


def _tree_predict(node: TreeNode, X: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    if node.is_leaf:
        out[rows] = node.weight
        return
    go_left = X[rows, node.feature_index] < node.split_value
    _tree_predict(node.left, X, rows[go_left], out)
    _tree_predict(node.right, X, rows[~go_left], out)


def tree_predict(node: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0])
    _tree_predict(node, X, np.arange(X.shape[0]), out)
    return out


# ---------------------------------------------------------------------------
# training

def _check_matrix(X: np.ndarray) -> None:
    if X.ndim != 2 or X.shape[1] < 1:
        raise InvalidConfig("feature matrix must be 2-D with at least one column")
    if not np.isfinite(X).all():
        raise NonFiniteFeature("feature matrix contains NaN or infinity")


def train(
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_valid: np.ndarray,
    y_valid: np.ndarray,
    config: TrainConfig,
    feature_names: Sequence[str],
) -> tuple[Ensemble, list[dict]]:
    """Boost trees on (X_train, y_train), early-stopping on (X_valid, y_valid).

    Returns the selected ensemble (prefix of trees up to the best validation
    round) and the per-round history of train/valid MAE and RMSE for every
    round actually run.
    """
    X_train = np.asarray(X_train, dtype=np.float64)
    X_valid = np.ascontiguousarray(X_valid, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.float64)
    y_valid = np.asarray(y_valid, dtype=np.float64)
    _check_matrix(X_train)
    _check_matrix(X_valid)
    if y_train.size == 0 or y_valid.size == 0:
        raise EmptyInput("training and validation targets must be non-empty")
    if not (np.isfinite(y_train).all() and np.isfinite(y_valid).all()):
        raise NonFiniteTarget("targets contain NaN or infinity")

    base = float(np.mean(y_train))
    pred_train = np.full(y_train.size, base)
    pred_valid = np.full(y_valid.size, base)
    bins = _bin_columns(X_train)

    trees: list[TreeNode] = []
    history: list[dict] = []
    best_rmse = _rmse(pred_valid, y_valid)
    best_round = 0
    stale = 0
    for rnd in range(1, config.rounds_max + 1):
        grad = pred_train - y_train
        # with lambda = 0, a code with no row on one side of it divides 0 by 0;
        # such a code is no candidate
        with np.errstate(invalid="ignore", divide="ignore"):
            tree, out_train, out_valid = _grow(bins, X_valid, grad, config)
        trees.append(tree)
        pred_train += config.learning_rate * out_train
        pred_valid += config.learning_rate * out_valid
        valid_rmse = _rmse(pred_valid, y_valid)
        history.append({
            "round": rnd,
            "train_mae": _mae(pred_train, y_train),
            "train_rmse": _rmse(pred_train, y_train),
            "valid_mae": _mae(pred_valid, y_valid),
            "valid_rmse": valid_rmse,
        })
        if valid_rmse < best_rmse:
            best_rmse = valid_rmse
            best_round = rnd
            stale = 0
        else:
            stale += 1
            if stale >= config.early_stopping_patience:
                break

    ensemble = Ensemble(
        base_score=base,
        learning_rate=config.learning_rate,
        trees=trees[:best_round],
        feature_names=list(feature_names),
    )
    return ensemble, history


def _mae(pred: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(np.abs(pred - y)))


def _rmse(pred: np.ndarray, y: np.ndarray) -> float:
    return float(math.sqrt(np.mean((pred - y) ** 2)))


# ---------------------------------------------------------------------------
# prediction and evaluation

def predict_batch(ensemble: Ensemble, X: np.ndarray) -> np.ndarray:
    """Predictions for the rows of ``X``: one finite value per trained feature."""
    X = np.asarray(X, dtype=np.float64)
    _check_matrix(X)
    if X.shape[1] != len(ensemble.feature_names):
        raise MissingFeature(f"expected {len(ensemble.feature_names)} features, got {X.shape[1]}")
    out = np.full(X.shape[0], ensemble.base_score)
    for tree in ensemble.trees:
        out += ensemble.learning_rate * tree_predict(tree, X)
    return out


def evaluate(ensemble: Ensemble, X: np.ndarray, y: np.ndarray) -> dict[str, float]:
    y = np.asarray(y, dtype=np.float64)
    if y.size == 0:
        raise EmptyInput("no rows to evaluate")
    pred = predict_batch(ensemble, X)
    return {"mae": _mae(pred, y), "rmse": _rmse(pred, y)}


# ---------------------------------------------------------------------------
# serialization: self-describing JSON, stable byte-for-byte for a given model

def _node_from_list(nodes: list[dict], pos: int) -> tuple[TreeNode, int]:
    spec = nodes[pos]
    if "leaf" in spec:
        return TreeNode(weight=spec["leaf"]), pos + 1
    left, pos = _node_from_list(nodes, pos + 1)
    right, pos = _node_from_list(nodes, pos)
    return TreeNode(
        feature_index=spec["feature"],
        split_value=spec["split"],
        cover_left=spec["cover_left"],
        cover_right=spec["cover_right"],
        left=left,
        right=right,
    ), pos


_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_scalar(value) -> str:
    """``value`` as ``json.dumps`` writes it."""
    if type(value) is float:
        text = float.__repr__(value)
        return _JSON_SPECIAL.get(text, text)
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value)


_LEAF_JSON = '   {\n    "leaf": %s\n   }'
_SPLIT_JSON = ('   {\n    "cover_left": %s,\n    "cover_right": %s,\n'
               '    "feature": %s,\n    "split": %s\n   }')


def _tree_json(tree: TreeNode) -> str:
    """One tree's pre-order node list, indented as the third level of a
    ``json.dumps(..., sort_keys=True, indent=1)`` document. Node fields hold
    Python numbers, which ``repr`` writes as ``json`` does when finite."""
    templates = []
    values = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.left is None:
            templates.append(_LEAF_JSON)
            values.append(node.weight)
        else:
            templates.append(_SPLIT_JSON)
            values += (node.cover_left, node.cover_right, node.feature_index, node.split_value)
            stack += (node.right, node.left)
    texts = list(map(repr, values))
    if not all(map(math.isfinite, values)):
        texts = [_JSON_SPECIAL.get(t, t) for t in texts]
    return "  [\n" + ",\n".join(templates) % tuple(texts) + "\n  ]"


def _record_json(record: dict) -> str:
    """A flat record (scalar values), indented as the second level."""
    if not record:
        return "  {}"
    fields = ",\n".join(f"   {json.dumps(key)}: {_json_scalar(record[key])}" for key in sorted(record))
    return "  {\n" + fields + "\n  }"


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n ]" if items else "[]"


def to_json(ensemble: Ensemble, config: TrainConfig | None = None, history: list[dict] | None = None) -> str:
    """The model as ``json.dumps(doc, sort_keys=True, indent=1)`` of its
    document, byte for byte; the trees and the history (flat records) are
    written directly, without building per-node dicts."""
    doc = {
        "format": "airnoise-gbm",
        "version": 1,
        "base_score": ensemble.base_score,
        "learning_rate": ensemble.learning_rate,
        "feature_names": ensemble.feature_names,
        "trees": [],
        "config": None if config is None else {
            "learning_rate": config.learning_rate,
            "rounds_max": config.rounds_max,
            "max_depth": config.max_depth,
            "lambda": config.lambda_,
            "gamma": config.gamma,
            "min_child_weight": config.min_child_weight,
            "early_stopping_patience": config.early_stopping_patience,
            "split_fraction": config.split_fraction,
            "seed": config.seed,
        },
        "history": [],
    }
    # the two empty lists are top-level keys, one space in; no string in the
    # document can hold a raw line end, so each marker occurs once
    text = json.dumps(doc, sort_keys=True, indent=1)
    text = text.replace('\n "history": []', '\n "history": ' + _json_list([_record_json(r) for r in history or []]), 1)
    return text.replace('\n "trees": []', '\n "trees": ' + _json_list([_tree_json(t) for t in ensemble.trees]), 1)


def from_json(text: str) -> tuple[Ensemble, dict | None, list[dict]]:
    doc = json.loads(text)
    if doc.get("format") != "airnoise-gbm":
        raise InvalidConfig("not an airnoise model document")
    trees = []
    for nodes in doc["trees"]:
        tree, pos = _node_from_list(nodes, 0)
        if pos != len(nodes):
            raise InvalidConfig("trailing nodes in serialized tree")
        trees.append(tree)
    ensemble = Ensemble(
        base_score=doc["base_score"],
        learning_rate=doc["learning_rate"],
        trees=trees,
        feature_names=list(doc["feature_names"]),
    )
    return ensemble, doc.get("config"), doc.get("history", [])
