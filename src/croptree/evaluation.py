"""Classifier evaluation: confusion matrices, the five comparison
indicators, stratified cross-validation, and holdout testing.

The probabilistic errors average over every (instance, class) cell, so a
dataset of N instances over C classes contributes N*C absolute or squared
deviations between the predicted distribution and the one-hot truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from .dataset import Dataset, stratified_folds
from .trees import (DecisionTree, Prediction, TrainParams, _root, _train,
                    predict, train, tree_size)

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
    """
    folds = stratified_folds(dataset, k, seed)
    node = _root(dataset)
    predictions: List[Optional[Prediction]] = [None] * len(dataset)
    for fold_no, fold in enumerate(folds):
        held = set(fold)
        fold_params = replace(params, seed=seed * 1_000_003 + fold_no)
        model = _train(dataset, [row for row in node if row[0] not in held],
                       fold_params)
        for i in fold:
            predictions[i] = predict(model, dataset.features[i])
    return _score(predictions, dataset, tree_size(train(dataset, params)))


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
    reports = []
    for params in algorithms:
        if scored is None:
            reports.append(cross_validate(train_data, params, k, seed))
        else:
            reports.append(evaluate_holdout(train(train_data, params), scored))
    return ComparisonTable(tuple(p.algorithm for p in algorithms), tuple(reports))
