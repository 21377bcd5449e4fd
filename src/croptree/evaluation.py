"""Classifier evaluation: confusion matrices, the five comparison
indicators, stratified cross-validation, and holdout testing.

Cross-validation trains its folds in forked worker processes, one per
usable CPU, which share the dataset with the parent copy-on-write and
send back only each fold's predictions; ``compare`` runs every learner's
folds in one pool.  It stays serial, in the calling process, on one
usable CPU, where the platform cannot fork, inside a daemonic process
(which may not start any), and for a dataset of at most
``trees._SMALL_NODE`` rows, where starting a pool costs more than the
work.  Either way the reports are the same, bit for bit.

The probabilistic errors average over every (instance, class) cell, so a
dataset of N instances over C classes contributes N*C absolute or squared
deviations between the predicted distribution and the one-hot truth.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from .dataset import Dataset, _integer, stratified_folds
from .trees import (_SMALL_NODE, DecisionTree, Prediction, TrainParams, _root,
                    _train, predict, train, tree_size)

INDICATOR_ROWS = (
    "Classification Accuracy (%)",
    "Kappa",
    "Mean absolute error",
    "Root mean square error",
    "Number of tree",
)


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts indexed by (actual class, predicted class)."""

    class_domain: Tuple[str, ...]
    counts: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.class_domain)
        if len(self.counts) != n or any(len(row) != n for row in self.counts):
            raise ValueError("confusion matrix must be square over the class domain")

    @classmethod
    def from_pairs(cls, class_domain: Sequence[str],
                   pairs: Sequence[Tuple[int, int]]) -> "ConfusionMatrix":
        n = len(class_domain)
        grid = [[0] * n for _ in range(n)]
        for actual, predicted in pairs:
            grid[actual][predicted] += 1
        return cls(tuple(class_domain), tuple(tuple(row) for row in grid))

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    @property
    def trace(self) -> int:
        return sum(self.counts[i][i] for i in range(len(self.class_domain)))

    @property
    def row_sums(self) -> Tuple[int, ...]:
        return tuple(sum(row) for row in self.counts)

    @property
    def col_sums(self) -> Tuple[int, ...]:
        n = len(self.class_domain)
        return tuple(sum(self.counts[i][j] for i in range(n)) for j in range(n))


def accuracy(confusion: ConfusionMatrix) -> float:
    """Percentage of instances on the diagonal."""
    total = confusion.total
    if total == 0:
        raise ValueError("cannot compute accuracy of an empty matrix")
    return 100.0 * confusion.trace / total


def kappa(confusion: ConfusionMatrix) -> Optional[float]:
    """Cohen's kappa; None when chance agreement is total but observed
    agreement is not (the undefined case)."""
    total = confusion.total
    if total == 0:
        raise ValueError("cannot compute kappa of an empty matrix")
    p_observed = confusion.trace / total
    p_expected = sum(r * c for r, c in zip(confusion.row_sums, confusion.col_sums))
    p_expected /= total * total
    if p_expected >= 1.0 - 1e-12:
        return 1.0 if p_observed >= 1.0 - 1e-12 else None
    return (p_observed - p_expected) / (1.0 - p_expected)


def probabilistic_errors(predictions: Sequence[Prediction],
                         actual_indices: Sequence[int]) -> Tuple[float, float]:
    """(mean absolute error, root mean squared error) of the predicted
    distributions against one-hot actuals, averaged over N*C cells."""
    if len(predictions) != len(actual_indices):
        raise ValueError("predictions and actuals differ in length")
    if not predictions:
        raise ValueError("no predictions to score")
    abs_sum = 0.0
    sq_sum = 0.0
    n_classes = len(predictions[0].distribution)
    for pred, actual in zip(predictions, actual_indices):
        for j, p in enumerate(pred.distribution):
            d = p - (1.0 if j == actual else 0.0)
            abs_sum += abs(d)
            sq_sum += d * d
    cells = len(predictions) * n_classes
    return abs_sum / cells, math.sqrt(sq_sum / cells)


@dataclass(frozen=True)
class EvaluationReport:
    """The five indicators plus the underlying confusion matrix."""

    accuracy_pct: float
    kappa: Optional[float]
    mean_absolute_error: float
    root_mean_squared_error: float
    tree_size: int
    confusion: ConfusionMatrix


def _score(predictions: Sequence[Prediction], dataset: Dataset,
           size: int) -> EvaluationReport:
    """The report for one prediction per instance of ``dataset``."""
    pairs = [(a, dataset.class_index(p.predicted_class))
             for a, p in zip(dataset.classes, predictions)]
    confusion = ConfusionMatrix.from_pairs(dataset.class_domain, pairs)
    mae, rmse = probabilistic_errors(predictions, dataset.classes)
    return EvaluationReport(accuracy(confusion), kappa(confusion), mae, rmse,
                            size, confusion)


def evaluate_holdout(model: DecisionTree, test: Dataset) -> EvaluationReport:
    """Score a trained model on a held-out dataset."""
    if tuple(model.class_domain) != tuple(test.class_domain):
        raise ValueError("model and test class domains differ")
    if tuple(model.attribute_names) != tuple(test.attribute_names):
        raise ValueError("model and test attribute lists differ")
    if not test.instances:
        raise ValueError("test dataset is empty")
    predictions = [predict(model, features) for features in test.features]
    return _score(predictions, test, tree_size(model))


def cross_validate(dataset: Dataset, params: TrainParams, k: int,
                   seed: int = 1) -> EvaluationReport:
    """Stratified k-fold cross-validation.

    Each instance is predicted once by a model trained on the other folds'
    row indices into the dataset; the confusion matrix and errors pool
    across folds, while the tree size is a final model's, trained on all data.
    Folds train in forked worker processes, one per usable CPU, and serially
    on one CPU, where the platform cannot fork, inside a daemonic process,
    or for a dataset of at most 16 rows; the report does not depend on which.
    ValueError unless ``k`` and ``seed`` are integers (not bools): each
    fold's learner takes a seed derived from ``seed``.
    """
    return _cross_validate(dataset, [params], k, seed)[0]


#: A pool worker's cross-validation: (dataset, root node, folds, learners,
#: seed).  Set in each worker by the pool's initializer, and read by
#: ``_fold_task``, so no task pickles the dataset or a tree.
_fold_state = None


def _set_fold_state(state) -> None:
    global _fold_state
    _fold_state = state


def _fold_task(task) -> List[Prediction]:
    return _fold_predictions(_fold_state, *task)


def _fold_predictions(state, learner_no: int, fold_no: int) -> List[Prediction]:
    """Train learner ``learner_no`` without fold ``fold_no``; predict that fold."""
    dataset, node, folds, learners, seed = state
    held = set(folds[fold_no])
    params = replace(learners[learner_no], seed=seed * 1_000_003 + fold_no)
    model = _train(dataset, [row for row in node if row[0] not in held], params)
    return [predict(model, dataset.features[i]) for i in folds[fold_no]]


def _fold_pool(dataset: Dataset, tasks: int, state):
    """An executor of forked workers for ``tasks`` fold trainings, each
    worker holding ``state``; None where they should run serially."""
    if (len(dataset) <= _SMALL_NODE or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity")):
        return None
    # Imported here: at module level they would lengthen every command's start.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    workers = min(len(os.sched_getaffinity(0)), tasks)
    # A daemonic process, such as another pool's worker, may not fork.
    if workers < 2 or multiprocessing.current_process().daemon:
        return None
    return ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               _set_fold_state, (state,))


def _cross_validate(dataset: Dataset, learners: Sequence[TrainParams], k: int,
                    seed: int) -> List[EvaluationReport]:
    """``cross_validate`` of each learner on the same folds.

    One pool of forked workers trains every (learner, fold) pair while
    this process trains each learner's final model.  Results are read in
    task order, so a failing fold raises what the serial run would raise
    first, and the workers have ended when this returns or raises.  A
    worker that dies raises ``BrokenProcessPool``.
    """
    seed = _integer("seed", seed)
    folds = stratified_folds(dataset, k, seed)
    state = (dataset, _root(dataset), folds, learners, seed)
    tasks = [(l, f) for l in range(len(learners)) for f in range(len(folds))]
    pool = _fold_pool(dataset, len(tasks), state)
    if pool is None:
        return _reports(dataset, learners, folds,
                        (_fold_predictions(state, *task) for task in tasks))
    try:
        return _reports(dataset, learners, folds, pool.map(_fold_task, tasks))
    finally:
        # Waits for the workers to exit; after an error, tasks not yet
        # started are dropped.
        pool.shutdown(cancel_futures=True)


def _reports(dataset: Dataset, learners: Sequence[TrainParams], folds,
             fold_predictions) -> List[EvaluationReport]:
    """One report per learner from its folds' predictions, in task order."""
    reports = []
    for params in learners:
        predictions: List[Optional[Prediction]] = [None] * len(dataset)
        for fold in folds:
            for i, prediction in zip(fold, next(fold_predictions)):
                predictions[i] = prediction
        reports.append(_score(predictions, dataset,
                              tree_size(train(dataset, params))))
    return reports


@dataclass(frozen=True)
class ComparisonTable:
    """One column per algorithm, the five indicator rows each."""

    algorithms: Tuple[str, ...]
    reports: Tuple[EvaluationReport, ...]


def compare(algorithms: Sequence[TrainParams], train_data: Dataset,
            test: Optional[Dataset] = None, k: int = 10, seed: int = 1,
            resubstitution: bool = False) -> ComparisonTable:
    """Evaluate several learners on the same data.

    With a test set, each learner trains on all of train_data and is
    scored on the test set; otherwise stratified k-fold cross-validation
    is used (or plain resubstitution when requested).
    """
    scored = test if test is not None else (train_data if resubstitution else None)
    if scored is None:
        reports = _cross_validate(train_data, algorithms, k, seed)
    else:
        reports = [evaluate_holdout(train(train_data, params), scored)
                   for params in algorithms]
    return ComparisonTable(tuple(p.algorithm for p in algorithms), tuple(reports))
