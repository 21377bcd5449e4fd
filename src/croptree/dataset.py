"""Rainfall station files, Oldeman labeling, and dataset utilities.

File grammar (UTF-8, comma separated, LF or CRLF line ends):

    station,region,year,jan,feb,mar,apr,may,jun,jul,aug,sep,oct,nov,dec
    Halim,DKI Jakarta,2013,300,280,,150,...

Empty rainfall cells are missing values.  Lines starting with '#' are
comments.  A labeled file appends a trailing `climate_class` column.

A file is parsed once into a `RainfallTable`: station, region, year and
line-number columns, an n×12 float64 matrix with NaN for a missing month,
and the label column of a labeled file.  Lines are checked one at a time;
the rainfall cells of up to `_CHUNK_ROWS` rows are converted together
with Python's `float`, and the first error in file order is raised.
`parse_rainfall_file`, `parse_labeled_file`, `StationYear` and `Dataset`
are views built from the table, whose values reach them as Python floats.
Instance rules (finite features, a positive finite weight) are checked
when a `LabeledInstance` is built and set rules (width, labels, finite
total weight) by `Dataset`, so training never checks an instance again.

Labeling attaches an Oldeman class to every station-year: `label_table`
labels a table's whole matrix at once (`climate.classify_rows`), and
`label_records` does the same for a list of records.  Features keep their
missing slots as missing even when the label was computed under the
zero-fill policy; the tree learners route missing values explicitly.
The labeling functions alone reject input with nothing to label.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import IO, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .climate import (CLASS_DOMAIN, MONTH_NAMES, ClimateType, MissingPolicy,
                      RowError, classify_rows, rainfall_matrix)
# Not called here: perfbench/spans.py wraps this name in this module.
from .climate import classify_oldeman  # noqa: F401
from .errors import DataError

RAINFALL_HEADER = "station,region,year," + ",".join(MONTH_NAMES)
LABELED_HEADER = RAINFALL_HEADER + ",climate_class"


def format_number(x: float) -> str:
    """Shortest decimal text that parses back to the same float.

    Whole numbers drop the trailing '.0'.
    """
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


@dataclass(frozen=True)
class StationYear:
    """One station's 12 monthly rainfall values for one year."""

    station_id: str
    region: str
    year: int
    rainfall: Tuple[Optional[float], ...]

    def __post_init__(self):
        if not self.station_id:
            raise ValueError("station id must be nonempty")
        if len(self.rainfall) != 12:
            raise ValueError("rainfall must have 12 slots")

    @property
    def complete(self) -> bool:
        return all(v is not None for v in self.rainfall)


def _check_finite(features, owner: str) -> None:
    """None marks a missing value; NaN or ±inf raises ValueError."""
    if not all(v is None or math.isfinite(v) for v in features):
        raise ValueError(f"{owner} has a NaN or infinite feature value; "
                         "None marks a missing value")


@dataclass(frozen=True)
class LabeledInstance:
    """Features (finite, or None if missing), label and a positive finite weight."""

    features: Tuple[Optional[float], ...]
    label: str
    weight: float = 1.0
    provenance_id: str = ""
    region: str = ""

    def __post_init__(self):
        _check_finite(self.features, "instance")
        if not 0 < self.weight < math.inf:
            raise ValueError("instance weight must be positive and finite")


@dataclass(frozen=True)
class Dataset:
    """An ordered, immutable set of labeled instances.

    The class domain is fixed up front (all 14 Oldeman codes for the
    rainfall pipeline) so models and confusion matrices stay comparable
    even when the data covers fewer types.  Every instance has one feature
    per attribute and a label in the domain; their weights add up finitely.
    """

    attribute_names: Tuple[str, ...]
    class_domain: Tuple[str, ...]
    instances: Tuple[LabeledInstance, ...]

    def __post_init__(self):
        domain = set(self.class_domain)
        width = len(self.attribute_names)
        for inst in self.instances:
            if len(inst.features) != width:
                raise ValueError(f"instance has {len(inst.features)} features, "
                                 f"expected {width}")
            if inst.label not in domain:
                raise ValueError(f"label {inst.label!r} not in class domain")
        if sum(inst.weight for inst in self.instances) == math.inf:
            raise ValueError("instance weights add up to infinity")

    def __len__(self) -> int:
        return len(self.instances)

    def class_index(self, label: str) -> int:
        return self.class_domain.index(label)


def _read_text(source: Union[str, bytes, IO]) -> str:
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, (bytes, bytearray)):
        try:
            return source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"input is not valid UTF-8: {exc}") from None
    return source


#: Rows whose rainfall cells are converted together.  It bounds the cell
#: strings alive at once; a bad cell is found within its chunk.
_CHUNK_ROWS = 4096


@dataclass(frozen=True, eq=False)
class RainfallTable:
    """A parsed rainfall file: one column per field, one row per station-year.

    ``rainfall`` is an n×12 float64 matrix with NaN for a missing month;
    every other value is finite and nonnegative.  ``lines`` holds each
    row's line number in the file, and ``labels`` the climate_class
    column of a labeled file (None for a raw one).
    """

    stations: List[str]
    regions: List[str]
    years: List[int]
    lines: List[int]
    rainfall: np.ndarray
    labels: Optional[List[str]] = None

    def __len__(self) -> int:
        return len(self.stations)

    @property
    def complete(self) -> np.ndarray:
        """Per row, True when no month is missing."""
        return ~np.isnan(self.rainfall).any(axis=1)

    def features(self) -> List[Tuple[Optional[float], ...]]:
        """Each row's 12 values as Python floats, None for a missing month."""
        rows = self.rainfall.tolist()
        for i in np.flatnonzero(~self.complete).tolist():
            rows[i] = [None if math.isnan(v) else v for v in rows[i]]
        return [tuple(row) for row in rows]

    def records(self) -> List[StationYear]:
        """The rows as StationYear records."""
        return list(map(StationYear, self.stations, self.regions, self.years,
                        self.features()))


def _cell_values(cells: List[str]) -> List[float]:
    return [float(text) if (text := cell.strip()) else math.nan for cell in cells]


def _rainfall_block(cells: List[str], first_row: int, lines: List[int],
                    stations: List[str]) -> np.ndarray:
    """The rainfall of the rows whose month cells ``cells`` holds, 12 a
    row from row ``first_row`` on, NaN for an empty cell.

    DataError for the first bad cell in file order: text that is not a
    number, or a number below zero or not finite.
    """
    def error(i: int, what: str) -> DataError:
        row, month = divmod(i, 12)
        return DataError(f"line {lines[first_row + row]}: {what} for station "
                         f"{stations[first_row + row]!r} month {MONTH_NAMES[month]}")

    end = len(cells)
    try:
        values = _cell_values(cells)
    except ValueError:
        for end, cell in enumerate(cells):
            try:
                float(cell.strip() or "0")
            except ValueError:
                break
        values = _cell_values(cells[:end])
    block = np.array(values, dtype=np.float64)
    # NaN from an empty cell or from the text 'nan', or a value out of
    # range: only an empty cell is not an error.
    for i in np.flatnonzero(~((block >= 0) & (block < math.inf))).tolist():
        if cells[i].strip():
            raise error(i, f"negative or non-finite rainfall {cells[i].strip()}")
    if end < len(cells):
        raise error(end, f"non-numeric rainfall {cells[end].strip()!r}")
    return block.reshape(-1, 12)


def _content_lines(text: str):
    """(line number, line without its CR) of each non-blank, non-comment line."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if line.strip() and not line.lstrip().startswith("#"):
            yield lineno, line


def _row_key(fields: List[str], n_fields: int, lineno: int, seen: dict):
    """(station, region, year) of one line's fields.  DataError for, in
    this order, the field count, the station, the year or a station-year
    seen on an earlier line."""
    if len(fields) != n_fields:
        raise DataError(
            f"line {lineno}: expected {n_fields} fields, got {len(fields)}")
    station = fields[0].strip()
    if not station:
        raise DataError(f"line {lineno}: empty station id")
    try:
        year = int(fields[2].strip())
    except ValueError:
        raise DataError(
            f"line {lineno}: non-integer year {fields[2].strip()!r}") from None
    key = (station, year)
    if key in seen:
        raise DataError(
            f"line {lineno}: duplicate station-year {station!r}/{year} "
            f"(first seen on line {seen[key]})")
    seen[key] = lineno
    return station, fields[1].strip(), year


def _parse_table(text: str, labeled: bool) -> RainfallTable:
    """The file's rows, checked line by line and converted a chunk at a
    time.  The first error in file order is raised; within a line the
    order is fields, station, year, duplicate, cells by month, label."""
    expected = LABELED_HEADER if labeled else RAINFALL_HEADER
    n_fields = 16 if labeled else 15
    lines = _content_lines(text)
    lineno, header = next(lines, (0, None))
    if header is None:
        raise DataError("missing header line")
    if header.strip() != expected:
        raise DataError(
            f"line {lineno}: malformed header, expected {expected!r}")
    stations: List[str] = []
    regions: List[str] = []
    years: List[int] = []
    linenos: List[int] = []
    labels: Optional[List[str]] = [] if labeled else None
    seen: dict = {}
    blocks = []
    cells: List[str] = []  # month cells of the rows not yet converted

    def convert() -> np.ndarray:
        return _rainfall_block(cells, len(blocks) * _CHUNK_ROWS, linenos, stations)

    for lineno, line in lines:
        fields = line.split(",")
        try:
            station, region, year = _row_key(fields, n_fields, lineno, seen)
            stations.append(station)
            regions.append(region)
            years.append(year)
            linenos.append(lineno)
            cells += fields[3:15]
            if labeled:
                label = fields[15].strip()
                if label not in CLASS_DOMAIN:
                    raise DataError(
                        f"line {lineno}: unknown climate class {label!r}")
                labels.append(label)
        except DataError:
            # A bad cell on an earlier line, or earlier on this one, comes first.
            convert()
            raise
        if len(cells) == 12 * _CHUNK_ROWS:
            blocks.append(convert())
            cells = []
    blocks.append(convert())
    return RainfallTable(stations, regions, years, linenos,
                         np.concatenate(blocks), labels)


def parse_table(source: Union[str, bytes, IO]) -> RainfallTable:
    """Parse a rainfall file, raw or labeled (its header says which)."""
    text = _read_text(source)
    return _parse_table(text, sniff_labeled(text))


def parse_rainfall_file(source: Union[str, bytes, IO]) -> List[StationYear]:
    """Parse a raw rainfall file into StationYear records."""
    return _parse_table(_read_text(source), labeled=False).records()


def parse_labeled_file(source: Union[str, bytes, IO]) -> List[Tuple[StationYear, str]]:
    """Parse a rainfall file carrying a trailing climate_class column."""
    table = _parse_table(_read_text(source), labeled=True)
    return list(zip(table.records(), table.labels))


def sniff_labeled(source: Union[str, bytes, IO]) -> bool:
    """True when the first content line is the labeled-file header."""
    _lineno, header = next(_content_lines(_read_text(source)), (0, ""))
    return header.strip() == LABELED_HEADER


def write_rainfall_file(records: Iterable[StationYear]) -> str:
    """Serialize records back into the rainfall file grammar.

    ValueError, naming the station, for a record that would not read back
    the same: a comma, line feed or surrounding whitespace in the station
    or region, a station id starting with '#', rainfall below zero or not
    finite, or a (station, year) written before.  An inner CR is kept.
    """
    lines = [RAINFALL_HEADER]
    seen = set()
    for rec in records:
        if (rec.station_id, rec.year) in seen:
            raise ValueError(f"station {rec.station_id!r} year {rec.year}: "
                             "duplicate station-year")
        seen.add((rec.station_id, rec.year))
        if rec.station_id.startswith("#") or any(
                "," in text or "\n" in text or text != text.strip()
                for text in (rec.station_id, rec.region)):
            raise ValueError(f"station {rec.station_id!r}: station or region "
                             "text would not read back the same")
        if not all(v is None or (math.isfinite(v) and v >= 0) for v in rec.rainfall):
            raise ValueError(f"station {rec.station_id!r}: rainfall must be "
                             "nonnegative and finite")
        cells = [rec.station_id, rec.region, str(rec.year)]
        cells += ["" if v is None else format_number(v) for v in rec.rainfall]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _label_rows(rainfall: np.ndarray, missing: np.ndarray, policy: MissingPolicy,
                stations: Sequence[str], years: Sequence[int]):
    """(kept row indices, their ClimateTypes); errors name the station."""
    if not stations:
        raise DataError("no station records to label")
    try:
        types = classify_rows(rainfall, missing, policy)
    except RowError as exc:
        raise DataError(f"station {stations[exc.row]!r} year "
                        f"{years[exc.row]}: {exc}") from None
    rows = [i for i, climate in enumerate(types) if climate is not None]
    if not rows:
        raise DataError("all stations were skipped by the missing-data policy")
    return rows, [types[i] for i in rows]


def label_table(
    table: RainfallTable,
    policy: MissingPolicy = MissingPolicy.ZERO_FILL,
) -> Tuple[List[int], List[ClimateType]]:
    """(row indices, Oldeman types) of the rows the policy keeps, in file
    order.  Raises DataError as label_records does."""
    return _label_rows(table.rainfall, np.isnan(table.rainfall), policy,
                       table.stations, table.years)


def label_records(
    records: Sequence[StationYear],
    policy: MissingPolicy = MissingPolicy.ZERO_FILL,
) -> List[Tuple[StationYear, ClimateType]]:
    """Classify each record, applying the missing-data policy.

    SKIP_STATION drops records with missing months; ERROR raises a
    DataError naming the station and month.  No records, or none left
    after skipping, is a DataError.
    """
    rows, types = _label_rows(
        *rainfall_matrix([rec.rainfall for rec in records]), policy,
        [rec.station_id for rec in records], [rec.year for rec in records])
    return [(records[i], climate) for i, climate in zip(rows, types)]


def label_dataset(
    records: Sequence[StationYear],
    policy: MissingPolicy = MissingPolicy.ZERO_FILL,
) -> Dataset:
    """Build a labeled dataset over the fixed 14-class Oldeman domain.

    Features keep missing slots; only the label computation applies the
    missing-data policy.  Raises DataError as label_records does.
    """
    return dataset_from_pairs([(rec, climate.label)
                               for rec, climate in label_records(records, policy)])


def dataset_from_pairs(pairs: Sequence[Tuple[StationYear, str]]) -> Dataset:
    """Dataset from pre-labeled (record, class code) pairs."""
    if not pairs:
        raise DataError("no labeled records")
    instances = tuple(
        LabeledInstance(
            features=rec.rainfall,
            label=label,
            weight=1.0,
            provenance_id=f"{rec.station_id}:{rec.year}",
            region=rec.region,
        )
        for rec, label in pairs)
    return Dataset(MONTH_NAMES, CLASS_DOMAIN, instances)


def dataset_from_table(
    table: RainfallTable,
    policy: MissingPolicy = MissingPolicy.ZERO_FILL,
) -> Dataset:
    """The table's rows as a Dataset: its labels when it has them, else
    the Oldeman labels of the rows the policy keeps (label_table)."""
    records = table.records()
    if table.labels is not None:
        return dataset_from_pairs(list(zip(records, table.labels)))
    rows, types = label_table(table, policy)
    return dataset_from_pairs([(records[i], climate.label)
                               for i, climate in zip(rows, types)])


def complete_subset(dataset: Dataset) -> Dataset:
    """The instances whose features have no missing slots."""
    kept = tuple(inst for inst in dataset.instances
                 if all(v is not None for v in inst.features))
    return Dataset(dataset.attribute_names, dataset.class_domain, kept)


def stratified_folds(dataset: Dataset, k: int, seed: int) -> List[List[int]]:
    """Partition instance indices into k folds, stratified by class.

    Per-class counts across folds differ by at most one; the result is a
    deterministic function of (dataset, k, seed).
    """
    n = len(dataset.instances)
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    if k > n:
        raise ValueError(f"cannot make {k} folds from {n} instances")
    rng = random.Random(seed)
    folds: List[List[int]] = [[] for _ in range(k)]
    offset = 0
    for cls in dataset.class_domain:
        members = [i for i, inst in enumerate(dataset.instances)
                   if inst.label == cls]
        rng.shuffle(members)
        for j, idx in enumerate(members):
            folds[(offset + j) % k].append(idx)
        offset = (offset + len(members)) % k
    return [sorted(fold) for fold in folds]


@dataclass(frozen=True)
class CountTable:
    """Counts of instances per (climate class, region)."""

    classes: Tuple[str, ...]
    regions: Tuple[str, ...]
    counts: Tuple[Tuple[int, ...], ...]  # [class][region]

    @property
    def class_totals(self) -> Tuple[int, ...]:
        return tuple(sum(row) for row in self.counts)

    @property
    def region_totals(self) -> Tuple[int, ...]:
        return tuple(sum(row[j] for row in self.counts)
                     for j in range(len(self.regions)))

    @property
    def total(self) -> int:
        return sum(self.class_totals)


def count_table(labels: Sequence[str], regions: Sequence[str],
                classes: Sequence[str] = CLASS_DOMAIN) -> CountTable:
    """Class-by-region counts of parallel label and region columns,
    regions in order of first appearance, zero-filled for absent classes."""
    order = tuple(dict.fromkeys(regions))
    tally = Counter(zip(labels, regions))
    return CountTable(tuple(classes), order,
                      tuple(tuple(tally[cls, region] for region in order)
                            for cls in classes))


def count_by_type_region(dataset: Dataset) -> CountTable:
    """Full class-by-region count table, zero-filled for absent classes."""
    return count_table([inst.label for inst in dataset.instances],
                       [inst.region for inst in dataset.instances],
                       dataset.class_domain)
