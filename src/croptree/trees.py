"""Binary threshold-split decision trees with three from-scratch learners.

All learners share one representation: an internal node tests a single
numeric attribute against a threshold (<= goes left, > goes right) and a
leaf carries the per-class training weight it received.

* ``gainratio`` (J48) grows by gain ratio with the C4.5 mean-gain
  attribute filter, then prunes by subtree replacement using a pessimistic
  binomial upper-confidence error estimate.
* ``randomsubset`` (RandomTree) examines a random subset of attributes at
  each node (extending past the subset until a positive-gain attribute
  turns up), splits on the best information gain, and never prunes.
* ``reducederror`` (REPTree) grows on part of the data by information gain
  and prunes bottom-up against the held-out remainder.

The learners share one split kernel, one grower and one pruner.  They
differ only in the grower's two hooks (which attributes a node scores,
how it picks the split) and in the pruner's error estimate, which starts
from ``Leaf.errors``.  A scorer yields one candidate list per attribute,
[(threshold, gain, ratio), ...], whose largest gain is the attribute's
best gain.  Every whole-tree traversal (growing, pruning, sizing,
equality, hashing, saving, loading, routing rows) runs on ``walk``, one
explicit-stack walker, so trees of any depth work.

Training reads the columns a ``Dataset`` derives once: feature tuples,
class indices and an n×A matrix (NaN if missing), which only a node of
more than ``_SMALL_NODE`` rows builds.  Every node, pruning holdout and
cross-validation fold is a list of (row index, class index, weight)
triples into the dataset, counted and partitioned in Python.  A node of
more than ``_SMALL_NODE`` rows has all its split candidates scored at
once in numpy; smaller ones are scored in Python, where numpy's cost per
call outweighs the work.  Both kernels choose the same splits.  The
last bits of a sum of weights depend on the order of its additions, so
every such sum is sequential, left to right in node order (``np.cumsum``
and ``np.bincount`` in the kernel, never pairwise like ``np.sum``, and
``_sum`` in Python, never the builtin ``sum``, which compensates from
Python 3.12), and models stay byte-identical.

Missing attribute values (None; NaN and ±inf are errors) are distributed
fractionally across both branches while training.  A trained tree routes
them by one rule, ``_goes_left``, to the heavier branch, in prediction and
pruning alike, so every input receives a definite class.

``predict`` routes one feature vector.  ``predict_rows`` routes a whole
n×A matrix (NaN marks a missing value there) on ``walk``: a task is a node
and the indices of the rows that reach it, an internal node splits them
by its test and ``_goes_left``, and a leaf writes its class for them, so
each row gets ``predict``'s class and no subtree is entered without rows.

Tie-breaking is pinned everywhere: lowest attribute index first, then
smallest threshold, and class ties resolve to the earliest class-domain
entry.  Training is a deterministic function of (dataset, params); all
randomness flows from streams derived from ``params.seed``.
"""

from __future__ import annotations

import bisect
import math
import numbers
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ._beta import _beta_upper_quantile
from .dataset import Dataset, _check_finite, _integer

#: Tolerance used when comparing gains and ratios; candidates within this
#: band count as tied and the earlier candidate in pinned order wins.
EPS = 1e-12


def _sum(values) -> float:
    """The float sum of ``values`` added left to right, as the builtin
    ``sum`` adds floats up to Python 3.11; from 3.12 it compensates."""
    total = 0.0
    for value in values:
        total += value
    return total


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
    always uses min_leaf 1 and no pruning.  Fields are stored as Python
    ``int``, ``bool`` and ``float``, so a saved model's params load back.
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
        for name in ("min_leaf", "k", "prune_folds", "seed"):
            value = getattr(self, name)
            if value is not None or name != "k":
                object.__setattr__(self, name, _integer(name, value))
        if not isinstance(self.prune, (bool, np.bool_)):
            raise ValueError(f"prune must be a bool, got {self.prune!r}")
        if not isinstance(self.confidence_factor, numbers.Real):
            raise ValueError("confidence_factor must be a real number, "
                             f"got {self.confidence_factor!r}")
        object.__setattr__(self, "prune", bool(self.prune))
        object.__setattr__(self, "confidence_factor", float(self.confidence_factor))
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
        return _sum(self.counts)

    @cached_property
    def predicted_index(self) -> int:
        best = 0
        for i, c in enumerate(self.counts):
            if c > self.counts[best]:
                best = i
        return best

    @cached_property
    def errors(self) -> float:
        """Training weight outside the predicted class."""
        return max(self.weight - max(self.counts), 0.0) if self.counts else 0.0


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

    # Depth-safe: equality and hashing run on ``walk``; repr does not descend.

    def __eq__(self, other):
        if not isinstance(other, Internal):
            return NotImplemented

        def expand(pair):
            a, b = pair
            if a is b:
                return True, None
            if not (isinstance(a, Internal) and isinstance(b, Internal)):
                return a == b, None
            if a.attribute != b.attribute or a.threshold != b.threshold:
                return False, None
            return None, ((a.left, b.left), (a.right, b.right))
        return walk((self, other), expand, lambda _, left, right: left and right)

    def __hash__(self):
        return walk(self, lambda n: (hash(n), None) if isinstance(n, Leaf) else
                    ((n.attribute, n.threshold), (n.left, n.right)),
                    lambda test, left, right: hash((test, left, right)))

    def __repr__(self):
        def brief(child):
            return "Internal(...)" if isinstance(child, Internal) else repr(child)
        return (f"Internal(attribute={self.attribute!r}, "
                f"threshold={self.threshold!r}, left={brief(self.left)}, "
                f"right={brief(self.right)})")


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
        p = c / total
        if p > 0.0:
            h -= p * _log2(p)
    return h


def _midpoint(lo: float, hi: float) -> float:
    """A threshold between two values lo < hi: ``v <= threshold`` holds
    for lo and fails for hi.  Their midpoint, or lo where the midpoint
    rounds onto hi (adjacent doubles) or overflows to ±inf."""
    mid = (lo + hi) / 2.0
    return mid if lo <= mid < hi else lo


def _dataset_candidates(dataset: Dataset, attribute_index: int):
    """Every threshold of one attribute over the whole dataset, unfiltered."""
    n_attrs = len(dataset.attribute_names)
    if not 0 <= _integer("attribute_index", attribute_index) < n_attrs:
        raise ValueError(f"attribute_index {attribute_index!r} is outside "
                         f"0..{n_attrs - 1}")
    node = _root(dataset)
    n_classes = len(dataset.class_domain)
    if len(node) <= _SMALL_NODE:
        return _small_candidates(dataset.features, node, attribute_index,
                                 n_classes, 0)
    scores = _block_scores(dataset, node, [attribute_index], n_classes, 0)
    return list(zip(scores.threshold.tolist(), scores.gain.tolist(),
                    scores.ratio.tolist()))


def split_candidates(dataset: Dataset, attribute_index: int) -> List[float]:
    """Midpoints between consecutive distinct non-missing values, each
    strictly below the upper value (``_midpoint``).

    Empty when the attribute has fewer than two distinct values, or when
    its present weight rounds away against its missing weight; a midpoint
    that leaves one side a share of the total weight that rounds to 0 is
    left out.
    """
    return [t for t, _gain, _ratio in _dataset_candidates(dataset, attribute_index)]


def _split_at(dataset: Dataset, attribute_index: int, threshold: float):
    """(gain, ratio) of the candidate that partitions like ``threshold``."""
    scored = {t: (gain, ratio)
              for t, gain, ratio in _dataset_candidates(dataset, attribute_index)}
    values = sorted({row[attribute_index] for row in dataset.features
                     if row[attribute_index] is not None})
    i = bisect.bisect_right(values, threshold)
    midpoint = _midpoint(values[i - 1], values[i]) if 0 < i < len(values) else None
    if midpoint not in scored:
        raise UndefinedSplitError(
            f"threshold {threshold} puts all weight on one side of "
            f"attribute {attribute_index}")
    return scored[midpoint]


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
# Training internals.  Each function takes a dataset, whose columns it
# reads, and a node: (row index, class index, weight) triples into the
# dataset in node order, ``_root`` giving all its rows.  Weights become
# fractional below splits on an attribute some instance is missing.  Only
# nodes of more than _SMALL_NODE rows are scored in numpy, and sums of
# weights stay sequential (see the module docstring).

#: Nodes of at most this many rows are scored in pure Python, where
#: numpy's fixed cost per call would outweigh the work.
_SMALL_NODE = 16

#: Rows × attributes, and split candidates, scored together at a node.
_BLOCK_CELLS = 2048


class _Scores(NamedTuple):
    """A node's admissible split candidates, by column, then threshold."""

    col: np.ndarray
    row: np.ndarray  # the sorted row that ends the candidate's left side
    threshold: np.ndarray
    gain: np.ndarray
    ratio: np.ndarray


def _root(dataset: Dataset):
    """The node of every row of ``dataset``, in order."""
    return list(zip(range(len(dataset)), dataset.classes,
                    [inst.weight for inst in dataset.instances]))


def _class_counts(node, n_classes: int) -> List[float]:
    counts = [0.0] * n_classes
    for _i, cls, w in node:
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


def _small_candidates(features, node, attr: int, n_classes: int, min_leaf: float):
    """All admissible thresholds for one attribute at one node.

    Returns [(threshold, gain, ratio), ...] with thresholds strictly
    increasing, scored one candidate at a time.  A candidate is admissible
    when both fractional branch weights reach min_leaf and neither one's
    share of the node's weight rounds to 0.
    """
    present = []
    miss_counts = [0.0] * n_classes
    miss_w = 0.0
    for i, cls, w in node:
        v = features[i][attr]
        if v is None:
            miss_counts[cls] += w
            miss_w += w
        else:
            present.append((v, cls, w))
    present.sort(key=lambda r: r[0])

    total_counts = list(miss_counts)
    for _v, cls, w in present:
        total_counts[cls] += w
    active = [c for c in range(n_classes) if total_counts[c] > 0.0]
    total_w = _sum(total_counts)
    known_w = total_w - miss_w
    # None without two present rows, or when their weight rounds away.
    if len(present) < 2 or known_w <= 0.0:
        return []
    parent_h = 0.0
    for c in active:
        p = total_counts[c] / total_w
        if p > 0.0:  # a share of a far larger total can underflow to 0
            parent_h -= p * _log2(p)

    left_counts = [0.0] * n_classes
    left_known = 0.0
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
        threshold = _midpoint(v, present[i][0])
        right_known = known_w - left_known
        frac = left_known / known_w
        lw = left_known + miss_w * frac
        rw = right_known + miss_w * (1.0 - frac)
        pl = lw / total_w
        pr = rw / total_w
        if lw + EPS < min_leaf or rw + EPS < min_leaf or pl <= 0.0 or pr <= 0.0:
            continue
        hl = 0.0
        hr = 0.0
        for c in active:
            p = (left_counts[c] + miss_counts[c] * frac) / lw
            if p > 0.0:
                hl -= p * _log2(p)
            p = (total_counts[c] - left_counts[c] - miss_counts[c] * frac) / rw
            if p > 0.0:
                hr -= p * _log2(p)
        gain = parent_h - (lw * hl + rw * hr) / total_w
        if gain < 0.0:
            gain = 0.0
        ratio = gain / -(pl * _log2(pl) + pr * _log2(pr))
        out.append((threshold, gain, ratio))
    return out


def _column_sums(rows):
    """Sums down the first axis, adding one row after another."""
    total = np.zeros(rows.shape[1:])
    for row in rows:
        total += row
    return total


def _entropies(counts, totals):
    """Entropy of each column of ``counts / totals``; shares <= 0 add nothing."""
    p = counts / totals
    terms = np.where(p > 0.0, p, 1.0)
    np.log2(terms, out=terms)
    terms *= p
    return 0.0 - _column_sums(terms)


def _block_scores(dataset: Dataset, node, attrs, n_classes: int,
                  min_leaf: float) -> _Scores:
    """Every admissible candidate of the columns ``attrs`` at one node.

    The same arithmetic as ``_small_candidates``, for all candidates of
    as many columns at once as fit in _BLOCK_CELLS rows × columns, so
    memory stays bounded on large nodes.  Only the logarithms may differ
    in the last bit, and gains and ratios are only ever compared within
    EPS.
    """
    attrs = np.asarray(attrs, dtype=np.intp)
    rows, classes, weights = map(np.array, zip(*node))
    active = np.flatnonzero(np.bincount(classes, minlength=n_classes))
    code = np.searchsorted(active, classes)
    step = max(1, _BLOCK_CELLS // len(rows))
    firsts = range(0, max(len(attrs), 1), step)
    parts = [_group_scores(dataset.values[rows, attrs[first:first + step, None]],
                           weights, code, len(active), min_leaf)
             for first in firsts]
    for first, part in zip(firsts, parts):
        part.col[:] += first
    return parts[0] if len(parts) == 1 else _Scores(*map(np.concatenate,
                                                        zip(*parts)))


def _group_scores(values, weights, code, k: int, min_leaf: float):
    """``_block_scores`` for the few columns of ``values`` (columns × node
    rows); arrays run column by sorted row, or class by candidate."""
    n_attrs, n = values.shape
    order = values.argsort(axis=1, kind="stable")  # NaN last; ties keep node order
    by_attr = np.arange(n_attrs)[:, None]
    v = values[by_attr, order]
    w = weights[order]
    code = code[order]
    present = ~np.isnan(v)
    missing = ~present

    # Per column, class totals add the missing rows in node order, then
    # the present rows by value; ``cell`` is an entry's (column, class).
    cell = code + k * by_attr
    miss_counts = np.bincount(cell[missing], w[missing], n_attrs * k)
    total_counts = np.bincount(
        np.concatenate((cell[missing], cell[present])),
        np.concatenate((w[missing], w[present])), n_attrs * k)
    miss_counts = miss_counts.reshape(n_attrs, k).T
    total_counts = total_counts.reshape(n_attrs, k).T
    miss_w = np.bincount(missing.nonzero()[0], w[missing], n_attrs)
    total_w = _column_sums(total_counts)
    known_w = total_w - miss_w

    # A run of equal present values ends at sorted row ``row`` of ``col``;
    # a column whose known weight rounded away to 0 has no candidate.
    col, row = (present[:, 1:] & (v[:, 1:] != v[:, :-1])
                & (known_w > 0.0)[:, None]).nonzero()
    left_known = w.cumsum(axis=1)[col, row]
    known, miss = known_w[col], miss_w[col]
    frac = left_known / known
    lw = left_known + miss * frac
    rw = (known - left_known) + miss * (1.0 - frac)
    # Neither side's share of the total weight may round to 0.
    ok = ((lw + EPS >= min_leaf) & (rw + EPS >= min_leaf)
          & (np.minimum(lw, rw) / total_w[col] > 0.0))
    col, row, frac, lw, rw = col[ok], row[ok], frac[ok], lw[ok], rw[ok]

    # Class counts left of each run end are running sums per column and
    # class; the (class × candidate) blocks go a slice at a time.
    cum = (code == np.arange(k)[:, None, None]) * w
    cum = cum.cumsum(axis=2, out=cum)
    hl, hr = np.empty(len(col)), np.empty(len(col))
    for lo in range(0, len(col), _BLOCK_CELLS):
        part = slice(lo, lo + _BLOCK_CELLS)
        c = col[part]
        left = cum[:, c, row[part]]
        shared = miss_counts[:, c] * frac[part]
        h = _entropies(
            np.concatenate((left + shared, total_counts[:, c] - left - shared),
                           axis=1),
            np.concatenate((lw[part], rw[part])))
        hl[part], hr[part] = h[:len(c)], h[len(c):]
    total = total_w[col]
    gain = _entropies(total_counts, total_w)[col] - (lw * hl + rw * hr) / total
    gain[gain < 0.0] = 0.0
    pl, pr = lw / total, rw / total
    ratio = gain / -(pl * np.log2(pl) + pr * np.log2(pr))
    lo, hi = v[col, row], v[col, row + 1]
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    threshold = np.where((lo <= mid) & (mid < hi), mid, lo)  # as _midpoint
    return _Scores(col, row, threshold, gain, ratio)


def _evaluate(dataset: Dataset, node, attrs, n_classes: int, min_leaf: float):
    """Each attribute's candidate list at ``node``, in ``attrs`` order.

    A small node yields them lazily.  A larger node lists only the
    candidates a chooser can take: above every earlier candidate of the
    same attribute in gain or in gain ratio (so its first one is kept).
    """
    if len(node) <= _SMALL_NODE:
        return (_small_candidates(dataset.features, node, a, n_classes, min_leaf)
                for a in attrs)
    scores = _block_scores(dataset, node, attrs, n_classes, min_leaf)
    col, row = scores.col, scores.row
    keep = np.zeros(len(col), dtype=bool)
    for key in (scores.gain, scores.ratio):
        prefix = np.full((len(attrs), len(node)), -np.inf)
        prefix[col, row + 1] = key
        keep |= key > np.maximum.accumulate(prefix, axis=1)[col, row]
    cands = list(zip(scores.threshold[keep].tolist(), scores.gain[keep].tolist(),
                     scores.ratio[keep].tolist()))
    ends = np.searchsorted(col[keep], np.arange(len(attrs) + 1)).tolist()
    return [cands[ends[j]:ends[j + 1]] for j in range(len(attrs))]


def _partition(features, node, attr: int, threshold: float):
    """The children of ``node`` split at ``attr <= threshold``.

    Each child has its present rows in node order, then the rows missing
    ``attr``, their weight scaled by the child's share of present weight.
    """
    left, right, missing = [], [], []
    lw = rw = 0.0
    for row in node:
        v = features[row[0]][attr]
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
        for i, cls, w in missing:
            if frac > 0.0:
                left.append((i, cls, w * frac))
            if frac < 1.0:
                right.append((i, cls, w * (1.0 - frac)))
    return left, right


def _score_all(n_attrs: int, n_classes: int, min_leaf: int):
    def score(dataset, node, _path):
        return list(_evaluate(dataset, node, range(n_attrs), n_classes, min_leaf))
    return score


def _score_random_subset(n_attrs: int, n_classes: int, k: int, seed: int):
    def score(dataset, node, path):
        # The node-local stream depends only on (seed, position in the tree),
        # so sibling subtrees are independent of evaluation order.
        order = list(range(n_attrs))
        random.Random(f"{seed}:{path}").shuffle(order)
        evals = [[]] * n_attrs
        head = list(_evaluate(dataset, node, order[:k], n_classes, 1))
        for a, cands in zip(order[:k], head):
            evals[a] = cands
        if not any(_best_gain(cands) > EPS for cands in head):
            # Go on past the subset, in the node's order, up to the first
            # attribute with a positive gain.
            for a, cands in zip(order[k:], _evaluate(dataset, node, order[k:],
                                                     n_classes, 1)):
                evals[a] = cands
                if _best_gain(cands) > EPS:
                    break
        return evals
    return score


def _best_gain(cands) -> float:
    """An attribute's largest candidate gain, 0.0 without candidates."""
    best = 0.0
    for _threshold, gain, _ratio in cands:
        if gain > best:
            best = gain
    return best


def _choose_by_gain_ratio(evals) -> Optional[Tuple[int, float]]:
    """Best gain ratio among attributes whose gain reaches the mean."""
    gains = [_best_gain(cands) for cands in evals]
    positive = [g for g in gains if g > EPS]
    if not positive:
        return None
    floor = _sum(positive) / len(positive) - EPS
    best_ratio = 0.0
    choice = None
    for a, (g, cands) in enumerate(zip(gains, evals)):
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
    for a, cands in enumerate(evals):
        for threshold, gain, _ratio in cands:
            if gain > best_gain + EPS:
                best_gain = gain
                choice = (a, threshold)
    return choice


def _grow(dataset: Dataset, root, n_classes: int, score, choose) -> Node:
    """Grow a tree depth-first on ``walk`` from the node ``root``.

    ``score(dataset, node, path)`` gives each attribute's candidate list,
    [] if unexamined; ``path`` is the node's L/R steps from the root.
    ``choose(evals)`` picks the (attribute, threshold) or None.
    """
    def expand(task):
        node, path = task
        counts = _class_counts(node, n_classes)
        choice = None
        if not _is_pure(counts):
            evals = score(dataset, node, path)
            choice = choose(evals)
            if choice is None:
                # No informative split; still separate the node so
                # consistent data always trains to purity.
                choice = next(((a, cands[0][0])
                               for a, cands in enumerate(evals) if cands), None)
        if choice is None:
            return Leaf(tuple(counts)), None
        left, right = _partition(dataset.features, node, *choice)
        return choice, ((left, path + "L"), (right, path + "R"))

    return walk((root, ""), expand,
                lambda choice, left, right: Internal(*choice, left, right))


def _upper_error_estimate(leaf: Leaf, confidence_factor: float) -> float:
    """Pessimistic error count: weight times the binomial upper bound.

    The bound U solves P[Binomial(n, U) <= e] = CF: it is the upper-CF
    quantile of Beta(e + 1, n - e), which also covers fractional counts
    from missing-value weighting; ``croptree._beta`` computes it.  Against
    40-digit values at the 2,380 points of
    tests/golden/upper_bounds.csv (n from 1e-3 to 4e307, e from 0 to
    n - 1e-3, CF from 0.01 to 0.9) it is off by at most 10 ulps (1.4e-15
    relative), and by 1 ulp in the median over the benchmark's pruning
    calls, which take about 17 µs each (2 CPUs, Python 3.11).
    """
    n = leaf.weight
    if n <= 0.0:
        return 0.0
    e = leaf.errors
    if e >= n:
        return n
    return n * _beta_upper_quantile(e + 1.0, n - e, confidence_factor)


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


def _goes_left(node: Internal, value: Optional[float]) -> bool:
    """A missing value follows the heavier child (ties go left); a value
    equal to the threshold goes left."""
    if value is None:
        return node.left.weight >= node.right.weight
    return value <= node.threshold


def _reduced_error_prune(dataset: Dataset, hold, root: Node):
    """Prune ``root`` against the holdout node ``hold``; (node, its errors)."""
    def errors(leaf: Leaf, hold) -> float:
        return _sum(w for _i, cls, w in hold if cls != leaf.predicted_index)

    def route(node: Internal, hold):
        left, right = [], []
        for row in hold:
            value = dataset.features[row[0]][node.attribute]
            (left if _goes_left(node, value) else right).append(row)
        return left, right
    return _prune(root, errors, route, hold)


def _train(dataset: Dataset, node, params: TrainParams) -> DecisionTree:
    """``train`` on the rows ``node`` of ``dataset``; ``node`` is left as it is."""
    if not node:
        raise ValueError("training dataset is empty")
    n_attrs = len(dataset.attribute_names)
    n_classes = len(dataset.class_domain)
    if params.algorithm == "gainratio":
        root = _grow(dataset, node, n_classes,
                     _score_all(n_attrs, n_classes, params.min_leaf),
                     _choose_by_gain_ratio)
        if params.prune:
            cf = params.confidence_factor
            root, _estimate = _prune(
                root, lambda leaf, _ctx: _upper_error_estimate(leaf, cf),
                lambda _node, _ctx: (None, None), None)
    elif params.algorithm == "randomsubset":
        k = params.resolved_k(n_attrs)
        if k > n_attrs:
            raise ValueError(
                f"k={k} exceeds the {n_attrs} available attributes")
        root = _grow(dataset, node, n_classes,
                     _score_random_subset(n_attrs, n_classes, k, params.seed),
                     _choose_by_gain)
    else:
        node = list(node)
        random.Random(params.seed).shuffle(node)
        cut = len(node) - len(node) // params.prune_folds
        root = _grow(dataset, node[:cut], n_classes,
                     _score_all(n_attrs, n_classes, params.min_leaf),
                     _choose_by_gain)
        root, _errors = _reduced_error_prune(dataset, node[cut:], root)
    return DecisionTree(root, tuple(dataset.attribute_names),
                        tuple(dataset.class_domain), params)


def train(dataset: Dataset, params: TrainParams) -> DecisionTree:
    """Train a tree; deterministic for a fixed (dataset, params) pair."""
    return _train(dataset, _root(dataset), params)


def predict(tree: DecisionTree, features: Sequence[Optional[float]]) -> Prediction:
    """Route a feature vector to a leaf and normalize its distribution.

    Routing follows ``_goes_left``.  None marks a missing value; NaN or
    ±inf raises ValueError, as in training.
    """
    if len(features) != len(tree.attribute_names):
        raise ValueError(
            f"expected {len(tree.attribute_names)} features, got {len(features)}")
    _check_finite(features, "the feature vector")
    node = tree.root
    while isinstance(node, Internal):
        node = node.left if _goes_left(node, features[node.attribute]) else node.right
    total = node.weight
    if total > 0.0:
        distribution = tuple(c / total for c in node.counts)
    else:
        uniform = 1.0 / len(tree.class_domain)
        distribution = tuple(uniform for _ in tree.class_domain)
    return Prediction(tree.class_domain[node.predicted_index], distribution)


def predict_rows(tree: DecisionTree, features) -> np.ndarray:
    """The class-domain index ``predict`` gives each row of an n×A matrix.

    NaN marks a missing value; ±inf raises ValueError.  The rows go down
    the tree together on ``walk``: each node splits the indices of the
    rows that reach it between its children, and a leaf writes its class.
    """
    values = np.asarray(features, dtype=np.float64)
    width = len(tree.attribute_names)
    if values.ndim != 2 or values.shape[1] != width:
        raise ValueError(f"expected an n×{width} feature matrix, "
                         f"got shape {values.shape}")
    if np.isinf(values).any():
        raise ValueError("the feature matrix has an infinite value; "
                         "NaN marks a missing value")
    classes = np.zeros(len(values), dtype=np.intp)

    def expand(task):
        node, rows = task
        if isinstance(node, Leaf):
            classes[rows] = node.predicted_index
            return None, None
        if not rows.size:
            return None, None
        value = values[rows, node.attribute]
        left = value <= node.threshold
        left[np.isnan(value)] = _goes_left(node, None)
        return None, ((node.left, rows[left]), (node.right, rows[~left]))

    walk((tree.root, np.arange(len(values))), expand, lambda *_: None)
    return classes


def tree_size(tree: Union[DecisionTree, Node]) -> int:
    """Total node count, internal nodes plus leaves."""
    node = tree.root if isinstance(tree, DecisionTree) else tree
    return walk(node,
                lambda n: (1, None) if isinstance(n, Leaf) else (1, (n.left, n.right)),
                lambda one, left, right: one + left + right)
