"""Rainfall station files, Oldeman labeling, and dataset utilities.

File grammar (UTF-8, comma separated, LF or CRLF line ends):

    station,region,year,jan,feb,mar,apr,may,jun,jul,aug,sep,oct,nov,dec
    Halim,DKI Jakarta,2013,300,280,,150,...

Empty rainfall cells are missing values.  Lines starting with '#' are
comments.  A labeled file appends a trailing `climate_class` column.

Labeling attaches an Oldeman class to every station-year.  Features keep
their missing slots as missing even when the label was computed under the
zero-fill policy; the tree learners route missing values explicitly.
`label_records` alone rejects input with nothing to label.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import IO, Iterable, List, Optional, Sequence, Tuple, Union

from .climate import (CLASS_DOMAIN, MONTH_NAMES, ClimateType, MissingPolicy,
                      classify_oldeman)
from .errors import DataError, MissingMonthError

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


@dataclass(frozen=True)
class LabeledInstance:
    features: Tuple[Optional[float], ...]
    label: str
    weight: float = 1.0
    provenance_id: str = ""
    region: str = ""


@dataclass(frozen=True)
class Dataset:
    """An ordered, immutable set of labeled instances.

    The class domain is fixed up front (all 14 Oldeman codes for the
    rainfall pipeline) so models and confusion matrices stay comparable
    even when the data covers fewer types.
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
            if not 0 < inst.weight < math.inf:
                raise ValueError("instance weight must be positive and finite")

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


def _parse_cell(cell: str, lineno: int, station: str, month: int) -> Optional[float]:
    cell = cell.strip()
    if not cell:
        return None
    try:
        value = float(cell)
    except ValueError:
        raise DataError(
            f"line {lineno}: non-numeric rainfall {cell!r} for station "
            f"{station!r} month {MONTH_NAMES[month]}") from None
    if not (math.isfinite(value) and value >= 0):
        raise DataError(
            f"line {lineno}: negative or non-finite rainfall {cell} for "
            f"station {station!r} month {MONTH_NAMES[month]}")
    return value


def _content_lines(text: str):
    """(line number, line without its CR) of each non-blank, non-comment line."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if line.strip() and not line.lstrip().startswith("#"):
            yield lineno, line


def _parse_rows(text: str, labeled: bool):
    expected = LABELED_HEADER if labeled else RAINFALL_HEADER
    n_cols = 16 if labeled else 15
    lines = _content_lines(text)
    lineno, header = next(lines, (0, None))
    if header is None:
        raise DataError("missing header line")
    if header.strip() != expected:
        raise DataError(
            f"line {lineno}: malformed header, expected {expected!r}")
    seen: dict = {}
    out = []
    for lineno, line in lines:
        cells = line.split(",")
        if len(cells) != n_cols:
            raise DataError(
                f"line {lineno}: expected {n_cols} fields, got {len(cells)}")
        station = cells[0].strip()
        region = cells[1].strip()
        if not station:
            raise DataError(f"line {lineno}: empty station id")
        try:
            year = int(cells[2].strip())
        except ValueError:
            raise DataError(
                f"line {lineno}: non-integer year {cells[2].strip()!r}") from None
        key = (station, year)
        if key in seen:
            raise DataError(
                f"line {lineno}: duplicate station-year {station!r}/{year} "
                f"(first seen on line {seen[key]})")
        seen[key] = lineno
        rainfall = tuple(_parse_cell(cells[3 + m], lineno, station, m)
                         for m in range(12))
        record = StationYear(station, region, year, rainfall)
        if labeled:
            label = cells[15].strip()
            if label not in CLASS_DOMAIN:
                raise DataError(
                    f"line {lineno}: unknown climate class {label!r}")
            out.append((record, label))
        else:
            out.append(record)
    return out


def parse_rainfall_file(source: Union[str, bytes, IO]) -> List[StationYear]:
    """Parse a raw rainfall file into StationYear records."""
    return _parse_rows(_read_text(source), labeled=False)


def parse_labeled_file(source: Union[str, bytes, IO]) -> List[Tuple[StationYear, str]]:
    """Parse a rainfall file carrying a trailing climate_class column."""
    return _parse_rows(_read_text(source), labeled=True)


def sniff_labeled(source: Union[str, bytes, IO]) -> bool:
    """True when the first content line is the labeled-file header."""
    _lineno, header = next(_content_lines(_read_text(source)), (0, ""))
    return header.strip() == LABELED_HEADER


def write_rainfall_file(records: Iterable[StationYear]) -> str:
    """Serialize records back into the rainfall file grammar.

    ValueError, naming the station, for a record that would not read back
    the same: a comma, line feed or surrounding whitespace in the station
    or region, a station id starting with '#', or rainfall below zero or
    not finite.  An inner CR is kept.
    """
    lines = [RAINFALL_HEADER]
    for rec in records:
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


def label_records(
    records: Sequence[StationYear],
    policy: MissingPolicy = MissingPolicy.ZERO_FILL,
) -> List[Tuple[StationYear, ClimateType]]:
    """Classify each record, applying the missing-data policy.

    SKIP_STATION drops records with missing months; ERROR raises a
    DataError naming the station and month.  No records, or none left
    after skipping, is a DataError.
    """
    if not records:
        raise DataError("no station records to label")
    out = []
    for rec in records:
        try:
            climate = classify_oldeman(rec.rainfall, policy)
        except DataError as exc:
            if (isinstance(exc, MissingMonthError)
                    and policy is MissingPolicy.SKIP_STATION):
                continue
            raise DataError(
                f"station {rec.station_id!r} year {rec.year}: {exc}") from None
        out.append((rec, climate))
    if not out:
        raise DataError("all stations were skipped by the missing-data policy")
    return out


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


def count_by_type_region(dataset: Dataset) -> CountTable:
    """Full class-by-region count table, zero-filled for absent classes."""
    regions: List[str] = []
    for inst in dataset.instances:
        if inst.region not in regions:
            regions.append(inst.region)
    index = {r: j for j, r in enumerate(regions)}
    grid = [[0] * len(regions) for _ in dataset.class_domain]
    cls_index = {c: i for i, c in enumerate(dataset.class_domain)}
    for inst in dataset.instances:
        grid[cls_index[inst.label]][index[inst.region]] += 1
    return CountTable(dataset.class_domain, tuple(regions),
                      tuple(tuple(row) for row in grid))
