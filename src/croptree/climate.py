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

Everything in this module is a pure function over immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Sequence

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
        """Report/class-domain code; E subtypes collapse to plain 'E'."""
        return "E" if self.letter == "E" else self.code

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


def run_summary(categories: Sequence[MonthCategory]) -> RunSummary:
    """Longest consecutive wet and dry runs over a 12-month sequence.

    Runs do not wrap from December back into January; moist months break
    both kinds of run.
    """
    if len(categories) != 12:
        raise ValueError(f"expected 12 month categories, got {len(categories)}")
    wet, dry = MonthCategory.WET, MonthCategory.DRY
    longest_wet = longest_dry = current = 0
    previous: Optional[MonthCategory] = None
    for cat in categories:
        current = current + 1 if cat is previous else 1
        previous = cat
        if cat is wet and current > longest_wet:
            longest_wet = current
        elif cat is dry and current > longest_dry:
            longest_dry = current
    return RunSummary(longest_wet, longest_dry)


#: Oldeman's table (module docstring), indexed by the longest run, 0..12.
_LETTER_BY_WET_RUN = "EEEDDCCBBAAAA"
_SUBTYPE_BY_DRY_RUN = (1, 1, 2, 2, 3, 3, 3, 4, 4, 4, 4, 4, 4)


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
    categories = []
    for month, value in enumerate(rainfall):
        if value is None:
            if policy is not MissingPolicy.ZERO_FILL:
                raise MissingMonthError(
                    month, f"missing rainfall for {MONTH_NAMES[month]}")
            value = 0.0
        try:
            categories.append(categorize_month(value))
        except DataError as exc:
            raise DataError(f"{MONTH_NAMES[month]}: {exc}") from None
    runs = run_summary(categories)
    return ClimateType(_LETTER_BY_WET_RUN[runs.longest_wet_run],
                       _SUBTYPE_BY_DRY_RUN[runs.longest_dry_run])


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
