"""Binary threshold-split decision trees with three from-scratch learners.

All learners share one representation: an internal node tests a single
numeric attribute against a threshold (<= goes left, > goes right) and a
leaf carries the per-class training weight it received.

* ``gainratio`` grows by gain ratio with the C4.5 mean-gain attribute
  filter, then prunes by subtree replacement using a pessimistic binomial
  upper-confidence error estimate.
* ``randomsubset`` examines a random subset of attributes at each node
  (extending past the subset until a positive-gain attribute turns up),
  splits on the best information gain, and never prunes.
* ``reducederror`` grows on part of the data by information gain and
  prunes bottom-up against the held-out remainder.

The learners share one split kernel, one grower and one pruner, all run
on one explicit-stack walker (``walk``) so trees of any depth work.  They
differ only in the grower's two hooks (which attributes a node scores,
how it picks the split) and in the pruner's error estimate.

Missing attribute values are distributed fractionally across both
branches while training and routed to the heavier branch while
predicting, so every input receives a definite class.

Tie-breaking is pinned everywhere: lowest attribute index first, then
smallest threshold, and class ties resolve to the earliest class-domain
entry.  Training is a deterministic function of (dataset, params); all
randomness flows from streams derived from ``params.seed``.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple, Union

from scipy.special import betaincinv

from .dataset import Dataset

#: Tolerance used when comparing gains and ratios; candidates within this
#: band count as tied and the earlier candidate in pinned order wins.
EPS = 1e-12

#: Each learner's parameters, in the order model files list them.
PARAM_FIELDS = {
    "gainratio": ("min_leaf", "confidence_factor", "prune", "seed"),
    "randomsubset": ("k", "seed"),
    "reducederror": ("min_leaf", "prune_folds", "seed"),
}

ALGORITHMS = tuple(PARAM_FIELDS)

_log2 = math.log2


class UndefinedSplitError(ValueError):
    """A candidate threshold puts all weight on one side of the split."""


@dataclass(frozen=True)
class TrainParams:
    """Hyperparameters for the three learners.

    ``min_leaf`` and ``prune``/``confidence_factor`` apply to gainratio,
    ``min_leaf`` and ``prune_folds`` to reducederror, and ``k`` (None
    resolves to max(1, ceil(log2(n_attrs)) + 1)) to randomsubset, which
    always uses min_leaf 1 and no pruning.
    """

    algorithm: str
    min_leaf: int = 2
    confidence_factor: float = 0.25
    prune: bool = True
    k: Optional[int] = None
    prune_folds: int = 3
    seed: int = 1

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be at least 1")
        if not 0.0 < self.confidence_factor < 1.0:
            raise ValueError("confidence_factor must be in (0, 1)")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be at least 1")
        if self.prune_folds < 2:
            raise ValueError("prune_folds must be at least 2")
        if not self.prune and self.algorithm != "gainratio":
            raise ValueError("prune=False applies only to gainratio")

    def resolved_k(self, n_attributes: int) -> int:
        if self.k is not None:
            return self.k
        if n_attributes <= 1:
            return 1
        return max(1, math.ceil(_log2(n_attributes)) + 1)


@dataclass(frozen=True)
class Leaf:
    """Per-class training weight; predicts the heaviest class."""

    counts: Tuple[float, ...]

    @cached_property
    def weight(self) -> float:
        return sum(self.counts)

    @cached_property
    def predicted_index(self) -> int:
        best = 0
        for i, c in enumerate(self.counts):
            if c > self.counts[best]:
                best = i
        return best


@dataclass(frozen=True)
class Internal:
    attribute: int
    threshold: float
    left: "Node"
    right: "Node"
    weight: float = field(init=False, repr=False, compare=False)
    counts: Tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Children are built first, so reading their totals never recurses.
        object.__setattr__(self, "weight", self.left.weight + self.right.weight)
        object.__setattr__(self, "counts", tuple(
            a + b for a, b in zip(self.left.counts, self.right.counts)))


Node = Union[Leaf, Internal]


@dataclass(frozen=True)
class DecisionTree:
    """A trained tree plus the attribute and class vocabularies."""

    root: Node
    attribute_names: Tuple[str, ...]
    class_domain: Tuple[str, ...]
    params: TrainParams


@dataclass(frozen=True)
class Prediction:
    predicted_class: str
    distribution: Tuple[float, ...]


def walk(task, expand: Callable, join: Callable):
    """Evaluate a binary tree of tasks depth-first on an explicit stack.

    ``expand(task)`` returns ``(value, None)`` for a leaf task, or ``(key,
    (left_task, right_task))``: ``join(key, left, right)`` then combines
    the results, and the left subtree is done before the right starts.
    """
    done: list = []
    stack = [(False, task)]
    while stack:
        is_join, item = stack.pop()
        if is_join:
            done[-2:] = [join(item, *done[-2:])]
            continue
        key, children = expand(item)
        if children is None:
            done.append(key)
        else:
            stack += ((True, key), (False, children[1]), (False, children[0]))
    return done[0]


def entropy(class_counts: Sequence[float]) -> float:
    """Shannon entropy in bits of a nonnegative count vector."""
    total = 0.0
    for c in class_counts:
        if c < 0:
            raise ValueError("class counts must be nonnegative")
        total += c
    if total <= 0:
        raise ValueError("entropy needs at least one positive count")
    h = 0.0
    for c in class_counts:
        if c > 0.0:
            p = c / total
            h -= p * _log2(p)
    return h


def _dataset_rows(dataset: Dataset):
    index = {c: i for i, c in enumerate(dataset.class_domain)}
    return [(inst.features, index[inst.label], inst.weight)
            for inst in dataset.instances]


def _dataset_candidates(dataset: Dataset, attribute_index: int):
    """Every threshold of one attribute over the whole dataset, unfiltered."""
    _best, cands = _attribute_candidates(
        _dataset_rows(dataset), attribute_index, len(dataset.class_domain), 0)
    return cands


def split_candidates(dataset: Dataset, attribute_index: int) -> List[float]:
    """Midpoints between consecutive distinct non-missing values.

    Empty when the attribute has fewer than two distinct values.
    """
    return [t for t, _gain, _ratio in _dataset_candidates(dataset, attribute_index)]


def _split_at(dataset: Dataset, attribute_index: int, threshold: float):
    """(gain, ratio) of the candidate that partitions like ``threshold``."""
    values = sorted({inst.features[attribute_index]
                     for inst in dataset.instances
                     if inst.features[attribute_index] is not None})
    i = bisect.bisect_right(values, threshold)
    if i == 0 or i == len(values):
        raise UndefinedSplitError(
            f"threshold {threshold} puts all weight on one side of "
            f"attribute {attribute_index}")
    return _dataset_candidates(dataset, attribute_index)[i - 1][1:]


def info_gain(dataset: Dataset, attribute_index: int, threshold: float) -> float:
    """Entropy reduction of a binary split; missing values weighted in."""
    return _split_at(dataset, attribute_index, threshold)[0]


def gain_ratio(dataset: Dataset, attribute_index: int, threshold: float) -> float:
    """Information gain over split information.

    Raises UndefinedSplitError when the split information is zero (the
    candidate must then be skipped, not treated as ratio 0).
    """
    return _split_at(dataset, attribute_index, threshold)[1]


# ---------------------------------------------------------------------------
# Training internals.  Rows are (features, class_index, weight) triples;
# weights become fractional below nodes that split on an attribute some
# instance is missing.

def _class_counts(rows, n_classes: int) -> List[float]:
    counts = [0.0] * n_classes
    for _feats, cls, w in rows:
        counts[cls] += w
    return counts


def _is_pure(counts) -> bool:
    seen = False
    for c in counts:
        if c > 0.0:
            if seen:
                return False
            seen = True
    return True


def _attribute_candidates(rows, attr: int, n_classes: int, min_leaf: float):
    """All admissible thresholds for one attribute at one node.

    Returns (best_gain, [(threshold, gain, ratio), ...]) with thresholds
    strictly increasing.  A candidate is admissible when both fractional
    branch weights reach min_leaf.
    """
    present = []
    miss_counts = [0.0] * n_classes
    miss_w = 0.0
    for feats, cls, w in rows:
        v = feats[attr]
        if v is None:
            miss_counts[cls] += w
            miss_w += w
        else:
            present.append((v, cls, w))
    if len(present) < 2:
        return 0.0, []
    present.sort(key=lambda r: r[0])

    total_counts = list(miss_counts)
    for _v, cls, w in present:
        total_counts[cls] += w
    active = [c for c in range(n_classes) if total_counts[c] > 0.0]
    total_w = sum(total_counts)
    known_w = total_w - miss_w
    parent_h = 0.0
    for c in active:
        p = total_counts[c] / total_w
        parent_h -= p * _log2(p)

    left_counts = [0.0] * n_classes
    left_known = 0.0
    best_gain = 0.0
    out = []
    i = 0
    n = len(present)
    while i < n:
        v = present[i][0]
        while i < n and present[i][0] == v:
            left_counts[present[i][1]] += present[i][2]
            left_known += present[i][2]
            i += 1
        if i == n:
            break
        threshold = (v + present[i][0]) / 2.0
        right_known = known_w - left_known
        frac = left_known / known_w
        lw = left_known + miss_w * frac
        rw = right_known + miss_w * (1.0 - frac)
        if lw + EPS < min_leaf or rw + EPS < min_leaf:
            continue
        hl = 0.0
        hr = 0.0
        for c in active:
            lc = left_counts[c] + miss_counts[c] * frac
            if lc > 0.0:
                p = lc / lw
                hl -= p * _log2(p)
            rc = total_counts[c] - left_counts[c] - miss_counts[c] * frac
            if rc > 0.0:
                p = rc / rw
                hr -= p * _log2(p)
        gain = parent_h - (lw * hl + rw * hr) / total_w
        if gain < 0.0:
            gain = 0.0
        pl = lw / total_w
        pr = rw / total_w
        ratio = gain / -(pl * _log2(pl) + pr * _log2(pr))
        if gain > best_gain:
            best_gain = gain
        out.append((threshold, gain, ratio))
    return best_gain, out


def _partition(rows, attr: int, threshold: float):
    left, right, missing = [], [], []
    lw = rw = 0.0
    for row in rows:
        v = row[0][attr]
        if v is None:
            missing.append(row)
        elif v <= threshold:
            left.append(row)
            lw += row[2]
        else:
            right.append(row)
            rw += row[2]
    if missing:
        frac = lw / (lw + rw)
        for feats, cls, w in missing:
            if frac > 0.0:
                left.append((feats, cls, w * frac))
            if frac < 1.0:
                right.append((feats, cls, w * (1.0 - frac)))
    return left, right


def _score_all(n_attrs: int, n_classes: int, min_leaf: int):
    def score(rows, _path):
        return [_attribute_candidates(rows, a, n_classes, min_leaf)
                for a in range(n_attrs)]
    return score


def _score_random_subset(n_attrs: int, n_classes: int, k: int, seed: int):
    def score(rows, path):
        # The node-local stream depends only on (seed, position in the tree),
        # so sibling subtrees are independent of evaluation order.
        order = list(range(n_attrs))
        random.Random(f"{seed}:{path}").shuffle(order)
        evals = [(0.0, [])] * n_attrs
        found = False
        for j, a in enumerate(order):
            if j >= k and found:
                break
            evals[a] = _attribute_candidates(rows, a, n_classes, 1)
            if evals[a][0] > EPS:
                found = True
        return evals
    return score


def _choose_by_gain_ratio(evals) -> Optional[Tuple[int, float]]:
    """Best gain ratio among attributes whose gain reaches the mean."""
    positive = [g for g, _cands in evals if g > EPS]
    if not positive:
        return None
    floor = sum(positive) / len(positive) - EPS
    best_ratio = 0.0
    choice = None
    for a, (g, cands) in enumerate(evals):
        if g > EPS and g >= floor:
            for threshold, _gain, ratio in cands:
                if ratio > best_ratio + EPS:
                    best_ratio = ratio
                    choice = (a, threshold)
    return choice


def _choose_by_gain(evals) -> Optional[Tuple[int, float]]:
    """Best information gain over every scored candidate."""
    best_gain = 0.0
    choice = None
    for a, (_g, cands) in enumerate(evals):
        for threshold, gain, _ratio in cands:
            if gain > best_gain + EPS:
                best_gain = gain
                choice = (a, threshold)
    return choice


def _grow(rows, n_classes: int, score, choose) -> Node:
    """Grow a tree depth-first on ``walk``.

    ``score(rows, path)`` gives each attribute's (best_gain, candidates),
    (0.0, []) if unexamined; ``path`` is the node's L/R steps from the
    root.  ``choose(evals)`` picks the (attribute, threshold) or None.
    """
    def expand(task):
        rows, path = task
        counts = _class_counts(rows, n_classes)
        choice = None
        if not _is_pure(counts):
            evals = score(rows, path)
            choice = choose(evals)
            if choice is None:
                # No informative split; still separate the node so
                # consistent data always trains to purity.
                choice = next(((a, cands[0][0])
                               for a, (_g, cands) in enumerate(evals) if cands),
                              None)
        if choice is None:
            return Leaf(tuple(counts)), None
        left_rows, right_rows = _partition(rows, *choice)
        return choice, ((left_rows, path + "L"), (right_rows, path + "R"))

    return walk((rows, ""), expand,
                lambda choice, left, right: Internal(*choice, left, right))


def _grow_max_gain(rows, n_attrs: int, n_classes: int, min_leaf: int) -> Node:
    return _grow(rows, n_classes, _score_all(n_attrs, n_classes, min_leaf),
                 _choose_by_gain)


def _upper_error_estimate(counts, confidence_factor: float) -> float:
    """Pessimistic error count: weight times the binomial upper bound.

    The bound U solves P[Binomial(n, U) <= e] = CF, evaluated through the
    regularized incomplete beta inverse, which also covers fractional
    counts from missing-value weighting.
    """
    n = sum(counts)
    if n <= 0.0:
        return 0.0
    e = n - max(counts)
    if e < 0.0:
        e = 0.0
    if e >= n:
        return n
    return n * float(betaincinv(e + 1.0, n - e, 1.0 - confidence_factor))


def _prune(root: Node, cost, route, ctx):
    """Bottom-up subtree replacement; returns (node, its cost).

    ``cost(leaf, ctx)`` estimates a leaf's errors on the rows ``ctx``
    stands for; ``route(node, ctx)`` splits ``ctx`` between the children.
    A subtree whose replacement leaf costs no more becomes that leaf, so
    on a holdout the pruned tree's error never exceeds the grown tree's.
    """
    def expand(task):
        node, ctx = task
        if isinstance(node, Leaf):
            return (node, cost(node, ctx)), None
        left_ctx, right_ctx = route(node, ctx)
        return task, ((node.left, left_ctx), (node.right, right_ctx))

    def join(task, left_result, right_result):
        node, ctx = task
        (left, cost_left), (right, cost_right) = left_result, right_result
        if left is not node.left or right is not node.right:
            node = Internal(node.attribute, node.threshold, left, right)
        leaf = Leaf(node.counts)
        leaf_cost = cost(leaf, ctx)
        if leaf_cost <= cost_left + cost_right + 1e-9:
            return leaf, leaf_cost
        return node, cost_left + cost_right

    return walk((root, ctx), expand, join)


def _holdout_errors(leaf: Leaf, hold_rows) -> float:
    return sum(w for _feats, cls, w in hold_rows if cls != leaf.predicted_index)


def _route_holdout(node: Internal, hold_rows):
    left, right = [], []
    left_on_missing = node.left.weight >= node.right.weight
    for row in hold_rows:
        v = row[0][node.attribute]
        if v is None:
            (left if left_on_missing else right).append(row)
        elif v <= node.threshold:
            left.append(row)
        else:
            right.append(row)
    return left, right


def _reduced_error_prune(node: Node, hold_rows):
    return _prune(node, _holdout_errors, _route_holdout, hold_rows)


def _train_reduced_error(rows, n_attrs: int, n_classes: int,
                         params: TrainParams) -> Node:
    order = list(range(len(rows)))
    random.Random(params.seed).shuffle(order)
    hold_n = len(rows) // params.prune_folds
    grow_rows = [rows[i] for i in order[:len(rows) - hold_n]]
    hold_rows = [rows[i] for i in order[len(rows) - hold_n:]]
    root = _grow_max_gain(grow_rows, n_attrs, n_classes, params.min_leaf)
    root, _err = _reduced_error_prune(root, hold_rows)
    return root


def train(dataset: Dataset, params: TrainParams) -> DecisionTree:
    """Train a tree; deterministic for a fixed (dataset, params) pair."""
    if not dataset.instances:
        raise ValueError("training dataset is empty")
    n_attrs = len(dataset.attribute_names)
    n_classes = len(dataset.class_domain)
    rows = _dataset_rows(dataset)
    if params.algorithm == "gainratio":
        root = _grow(rows, n_classes,
                     _score_all(n_attrs, n_classes, params.min_leaf),
                     _choose_by_gain_ratio)
        if params.prune:
            cf = params.confidence_factor
            root, _estimate = _prune(
                root, lambda leaf, _ctx: _upper_error_estimate(leaf.counts, cf),
                lambda _node, _ctx: (None, None), None)
    elif params.algorithm == "randomsubset":
        k = params.resolved_k(n_attrs)
        if k > n_attrs:
            raise ValueError(
                f"k={k} exceeds the {n_attrs} available attributes")
        root = _grow(rows, n_classes,
                     _score_random_subset(n_attrs, n_classes, k, params.seed),
                     _choose_by_gain)
    else:
        root = _train_reduced_error(rows, n_attrs, n_classes, params)
    return DecisionTree(root, tuple(dataset.attribute_names),
                        tuple(dataset.class_domain), params)


def predict(tree: DecisionTree, features: Sequence[Optional[float]]) -> Prediction:
    """Route a feature vector to a leaf and normalize its distribution.

    A missing attribute follows the branch with the larger training
    weight (ties go left); a value equal to the threshold goes left.
    """
    if len(features) != len(tree.attribute_names):
        raise ValueError(
            f"expected {len(tree.attribute_names)} features, got {len(features)}")
    node = tree.root
    while isinstance(node, Internal):
        v = features[node.attribute]
        if v is None:
            node = node.left if node.left.weight >= node.right.weight else node.right
        elif v <= node.threshold:
            node = node.left
        else:
            node = node.right
    total = node.weight
    if total > 0.0:
        distribution = tuple(c / total for c in node.counts)
    else:
        uniform = 1.0 / len(tree.class_domain)
        distribution = tuple(uniform for _ in tree.class_domain)
    return Prediction(tree.class_domain[node.predicted_index], distribution)


def tree_size(tree: Union[DecisionTree, Node]) -> int:
    """Total node count, internal nodes plus leaves."""
    node = tree.root if isinstance(tree, DecisionTree) else tree
    return walk(node,
                lambda n: (1, None) if isinstance(n, Leaf) else (1, (n.left, n.right)),
                lambda one, left, right: one + left + right)
