"""Oldeman climate typing, cropping recommendations, and decision-tree
learners for monthly rainfall data."""

from .climate import (CLASS_DOMAIN, MONTH_NAMES, ClimateType, CroppingPattern,
                      DEFAULT_B3_PATTERN, MissingPolicy, MonthCategory,
                      RowError, RunSummary, categorize_month, classify_oldeman,
                      classify_rows, cropping_pattern, pattern_for_label,
                      run_summary)
from .dataset import (CountTable, Dataset, LabeledInstance, RainfallTable,
                      StationYear, complete_subset, count_by_type_region,
                      dataset_from_pairs, dataset_from_table,
                      label_dataset, label_records, label_table,
                      parse_labeled_file, parse_rainfall_file, parse_table,
                      stratified_folds, write_rainfall_file)
from .errors import DataError, MissingMonthError, ModelFormatError
from .evaluation import (ComparisonTable, ConfusionMatrix, EvaluationReport,
                         INDICATOR_ROWS, accuracy, compare, cross_validate,
                         evaluate_holdout, kappa, probabilistic_errors)
from .model_io import load_model, save_model
from .trees import (ALGORITHMS, DecisionTree, Internal, Leaf, Prediction,
                    TrainParams, UndefinedSplitError, entropy, gain_ratio,
                    info_gain, predict, predict_rows, split_candidates, train,
                    tree_size)

__version__ = "0.1.0"
