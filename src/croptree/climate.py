"""Oldeman agro-climate typing and cropping-pattern recommendation rules.

The Oldeman method classifies a station-year from the longest consecutive
runs of wet and dry months.  A month is wet at >= 200 mm rainfall, dry
below 100 mm, moist in between.  The letter (A..E) follows the wet run,
the subtype digit (1..4) the dry run, by this table (in code,
_LETTER_BY_WET_RUN and _SUBTYPE_BY_DRY_RUN, indexed by run length):

    wet run   >=9 -> A   7-8 -> B   5-6 -> C   3-4 -> D   0-2 -> E
    dry run   0-1 -> 1   2-3 -> 2   4-6 -> 3   >=7 -> 4

E subtypes are conventionally collapsed to a single "E" class in reports,
which is also how the 14-entry class domain used by the dataset layer is
built (see CLASS_DOMAIN).

``classify_rows`` labels a whole n×12 matrix at once: wet and dry masks,
then the longest run of each per row in 12 column steps, read through
the table above.  ``classify_oldeman`` is its one-row case and
``run_summary`` uses the same run counter, so the rules live in one
place.  A missing month is marked by its own mask, never by the value
in its cell, so a NaN handed in as rainfall stays an invalid value.

Everything in this module is a pure function over immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import DataError, MissingMonthError

#: Monthly rainfall at or above this is a wet month (mm).
WET_THRESHOLD_MM = 200.0
#: Monthly rainfall below this is a dry month (mm).
DRY_THRESHOLD_MM = 100.0

MONTH_NAMES = ("jan", "feb", "mar", "apr", "may", "jun",
               "jul", "aug", "sep", "oct", "nov", "dec")

#: Fixed class domain used for labeled datasets, model files and reports.
#: E subtypes collapse into the single trailing "E" entry.
CLASS_DOMAIN = ("A1", "A2", "B1", "B2", "B3", "C1", "C2", "C3", "C4",
                "D1", "D2", "D3", "D4", "E")
_DOMAIN_LABELS = {label: label for label in CLASS_DOMAIN}


class MonthCategory(Enum):
    DRY = "dry"
    MOIST = "moist"
    WET = "wet"


class MissingPolicy(Enum):
    """How classification treats missing monthly values.

    ZERO_FILL treats a missing month as 0 mm (a dry month).  SKIP_STATION
    refuses the record so callers can drop it.  ERROR rejects the input.
    """

    ZERO_FILL = "zerofill"
    SKIP_STATION = "skip"
    ERROR = "error"


class CroppingPattern(Enum):
    """The six cropping recommendations; values are the display texts.

    PS is a paddy cropping period, PL a palawija (CGPRT) period.
    """

    THREE_SHORT_PADDY_OR_TWO_PADDY_ONE_CGPRT = "3 short-period PS or 2 PS + 1 PL"
    TWO_PADDY_ONE_CGPRT = "2 PS + 1 PL"
    ONE_PADDY_TWO_CGPRT = "1 PS + 2 PL"
    ONE_PADDY_ONE_CGPRT = "1 PS + 1 PL"
    ONE_PADDY_OR_ONE_CGPRT = "1 PS or 1 PL"
    ONE_CGPRT = "1 PL"

    @property
    def display(self) -> str:
        return self.value


class RunSummary(NamedTuple):
    longest_wet_run: int
    longest_dry_run: int


@dataclass(frozen=True)
class ClimateType:
    """An Oldeman type: letter A..E plus subtype digit 1..4."""

    letter: str
    subtype: int

    def __post_init__(self):
        if self.letter not in "ABCDE":
            raise ValueError(f"invalid climate letter {self.letter!r}")
        if not 1 <= self.subtype <= 4:
            raise ValueError(f"invalid climate subtype {self.subtype!r}")

    @property
    def code(self) -> str:
        """Full code such as 'B2' or 'E4'."""
        return f"{self.letter}{self.subtype}"

    @property
    def label(self) -> str:
        """Report/class-domain code; E subtypes collapse to plain 'E'.  A
        code in CLASS_DOMAIN is returned as that very string, so that a
        column of labels shares 14 strings."""
        code = "E" if self.letter == "E" else self.code
        return _DOMAIN_LABELS.get(code, code)

    def __str__(self) -> str:
        return self.code


def categorize_month(rainfall: float) -> MonthCategory:
    """Map one month's rainfall (mm) to wet / moist / dry."""
    if not math.isfinite(rainfall):
        raise DataError(f"rainfall must be finite, got {rainfall!r}")
    if rainfall < 0:
        raise DataError(f"rainfall must be nonnegative, got {rainfall!r}")
    if rainfall >= WET_THRESHOLD_MM:
        return MonthCategory.WET
    if rainfall < DRY_THRESHOLD_MM:
        return MonthCategory.DRY
    return MonthCategory.MOIST


def _longest_runs(months: np.ndarray) -> np.ndarray:
    """Per row of an n×12 boolean matrix, its longest run of True months.

    Runs do not wrap from December back into January.
    """
    run = np.zeros(len(months), dtype=np.intp)
    longest = np.zeros_like(run)
    for column in months.T:
        run += 1
        run *= column
        np.maximum(longest, run, out=longest)
    return longest


def run_summary(categories: Sequence[MonthCategory]) -> RunSummary:
    """Longest consecutive wet and dry runs over a 12-month sequence.

    Runs do not wrap from December back into January; moist months break
    both kinds of run.
    """
    if len(categories) != 12:
        raise ValueError(f"expected 12 month categories, got {len(categories)}")
    wet, dry = _longest_runs(np.array([
        [cat is MonthCategory.WET for cat in categories],
        [cat is MonthCategory.DRY for cat in categories]])).tolist()
    return RunSummary(wet, dry)


#: Oldeman's table (module docstring), indexed by the longest run, 0..12.
_LETTER_BY_WET_RUN = "EEEDDCCBBAAAA"
_SUBTYPE_BY_DRY_RUN = (1, 1, 2, 2, 3, 3, 3, 4, 4, 4, 4, 4, 4)

#: The ClimateType of each (longest wet run, longest dry run) pair.
_TYPE_BY_RUNS = np.array([[ClimateType(letter, subtype)
                           for subtype in _SUBTYPE_BY_DRY_RUN]
                          for letter in _LETTER_BY_WET_RUN], dtype=object)


class RowError(DataError):
    """The first row of a batch that cannot be classified.

    ``row`` indexes it; ``reason`` is what ``classify_oldeman`` raises for
    that row alone, and the message is the reason's.
    """

    def __init__(self, row: int, reason: DataError):
        super().__init__(str(reason))
        self.row = row
        self.reason = reason


def rainfall_matrix(rows: Sequence[Sequence[Optional[float]]]
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """(n×12 float64 rainfall, n×12 missing mask) of rows of 12 values.

    None marks a missing month.  Every other value is kept as it is, so a
    NaN or a negative value reaches ``classify_rows`` as an invalid one.
    """
    missing = np.array([[v is None for v in row] for row in rows], dtype=bool)
    return (np.array(rows, dtype=np.float64).reshape(-1, 12),
            missing.reshape(-1, 12))


def classify_rows(
    rainfall: np.ndarray,
    missing: np.ndarray,
    policy: MissingPolicy = MissingPolicy.ZERO_FILL,
) -> List[Optional[ClimateType]]:
    """The Oldeman type of each row of an n×12 rainfall matrix (mm).

    ``missing`` marks the missing months; their cells are not read.
    ZERO_FILL counts a missing month as 0 mm, SKIP_STATION gives its row
    None.  Each row is checked in month order, and RowError names the
    first row that fails: an invalid value (not finite, or negative)
    before any missing month, or, under ERROR, any missing month.
    ValueError unless ``rainfall`` is n×12 and ``missing`` has its shape.
    """
    shape = np.shape(rainfall)
    if len(shape) != 2 or shape[1] != 12 or np.shape(missing) != shape:
        raise ValueError(f"expected an n×12 rainfall matrix and a missing mask "
                         f"of its shape, got {shape} and {np.shape(missing)}")
    invalid = ~(missing | ((rainfall >= 0) & (rainfall < math.inf)))
    problem = invalid if policy is MissingPolicy.ZERO_FILL else invalid | missing
    rows = np.flatnonzero(problem.any(axis=1))
    if rows.size:
        months = problem[rows].argmax(axis=1)
        refused = missing[rows, months]  # dropped under SKIP_STATION
        fatal = np.ones_like(refused) if policy is MissingPolicy.ERROR else ~refused
        if fatal.any():
            k = int(fatal.argmax())
            row, month = int(rows[k]), int(months[k])
            if missing[row, month]:
                reason = MissingMonthError(
                    month, f"missing rainfall for {MONTH_NAMES[month]}")
            else:
                try:
                    categorize_month(float(rainfall[row, month]))
                except DataError as exc:
                    reason = DataError(f"{MONTH_NAMES[month]}: {exc}")
            raise RowError(row, reason)
    values = np.where(missing, 0.0, rainfall)
    # Wet rows, then dry rows: one pass of 12 column steps counts both.
    runs = _longest_runs(np.concatenate((values >= WET_THRESHOLD_MM,
                                         values < DRY_THRESHOLD_MM)))
    types = _TYPE_BY_RUNS[runs[:len(values)], runs[len(values):]]
    types[rows] = None  # refused by SKIP_STATION; no rows under the others
    return types.tolist()


def classify_oldeman(
    rainfall: Sequence[Optional[float]],
    policy: MissingPolicy = MissingPolicy.ZERO_FILL,
) -> ClimateType:
    """Classify 12 monthly rainfall values (mm, possibly missing).

    Missing slots follow `policy`; SKIP_STATION and ERROR both raise
    MissingMonthError here, callers decide whether to drop or fail.
    """
    if len(rainfall) != 12:
        raise ValueError(f"expected 12 monthly values, got {len(rainfall)}")
    # One row: SKIP_STATION refuses it by raising, as ERROR does.
    if policy is MissingPolicy.SKIP_STATION:
        policy = MissingPolicy.ERROR
    try:
        [climate] = classify_rows(*rainfall_matrix([rainfall]), policy)
    except RowError as exc:
        raise exc.reason from None
    return climate


_BASE_PATTERNS = {
    "A1": CroppingPattern.THREE_SHORT_PADDY_OR_TWO_PADDY_ONE_CGPRT,
    "A2": CroppingPattern.THREE_SHORT_PADDY_OR_TWO_PADDY_ONE_CGPRT,
    "B1": CroppingPattern.THREE_SHORT_PADDY_OR_TWO_PADDY_ONE_CGPRT,
    "B2": CroppingPattern.TWO_PADDY_ONE_CGPRT,
    "C1": CroppingPattern.ONE_PADDY_TWO_CGPRT,
    "C2": CroppingPattern.ONE_PADDY_ONE_CGPRT,
    "C3": CroppingPattern.ONE_PADDY_ONE_CGPRT,
    "C4": CroppingPattern.ONE_PADDY_ONE_CGPRT,
    "D1": CroppingPattern.ONE_PADDY_ONE_CGPRT,
    "D2": CroppingPattern.ONE_PADDY_OR_ONE_CGPRT,
    "D3": CroppingPattern.ONE_PADDY_OR_ONE_CGPRT,
    "D4": CroppingPattern.ONE_PADDY_OR_ONE_CGPRT,
    "E": CroppingPattern.ONE_CGPRT,
}

#: B3 has no classical recommendation row; default to B2's, overridable.
DEFAULT_B3_PATTERN = CroppingPattern.TWO_PADDY_ONE_CGPRT


def pattern_for_label(
    label: str,
    b3_pattern: CroppingPattern = DEFAULT_B3_PATTERN,
) -> CroppingPattern:
    """Cropping pattern for a class-domain code ('A1'..'D4', 'E')."""
    if label == "B3":
        return b3_pattern
    try:
        return _BASE_PATTERNS[label]
    except KeyError:
        raise ValueError(f"unknown climate class {label!r}") from None


def cropping_pattern(
    climate: ClimateType,
    b3_pattern: CroppingPattern = DEFAULT_B3_PATTERN,
) -> CroppingPattern:
    """Cropping recommendation for a climate type (total function)."""
    return pattern_for_label(climate.label, b3_pattern)
