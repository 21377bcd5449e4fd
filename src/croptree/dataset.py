"""Rainfall station files, Oldeman labeling, and dataset utilities.

File grammar (UTF-8, comma separated, LF or CRLF line ends):

    station,region,year,jan,feb,mar,apr,may,jun,jul,aug,sep,oct,nov,dec
    Halim,DKI Jakarta,2013,300,280,,150,...

Empty rainfall cells are missing values.  Lines starting with '#' are
comments.  A labeled file appends a trailing `climate_class` column.

A file is parsed once into a `RainfallTable`: station, region, year and
line-number columns, an n×12 float64 matrix with NaN for a missing month,
and the label column of a labeled file.  Bytes are read in blocks of
`_BLOCK_BYTES` through an incremental UTF-8 decoder, twice: the first
pass checks the whole file and counts its line feeds and commas, which
size the matrix, so invalid UTF-8 is raised before any parse error; the
second hands the parse one block of text at a time.  Beside that block,
the table and the stations seen per year for the duplicate check, the
parse holds one chunk of cells: lines are checked as they come, equal
station, region and year values share one object, and the rainfall cells
of up to `_CHUNK_ROWS` rows are converted together with Python's `float`
into the matrix, which is allocated once.  The first error in file order
is raised.
`parse_rainfall_file`, `parse_labeled_file`, `StationYear` and `Dataset`
are views built from the table, whose values reach them as Python floats.
Instance rules (finite features, a positive finite weight) are checked
when a `LabeledInstance` is built and set rules (distinct class names,
width, labels, finite total weight) by `Dataset`, whose derived columns
are all that training reads, so training never checks an instance again.

Labeling attaches an Oldeman class to every station-year: `label_table`
labels a table's matrix `_LABEL_ROWS` rows at a time
(`climate.classify_rows`), and `label_records` does the same for a list
of records; the first row that fails is reported.  Features keep their
missing slots as missing even when the label was computed under the
zero-fill policy; the tree learners route missing values explicitly.
The labeling functions alone reject input with nothing to label.
"""

from __future__ import annotations

import codecs
import io
import itertools
import math
import operator
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import (IO, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

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
    return repr(float(x))


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


def _integer(name: str, value) -> int:
    """``value`` as a Python int; ValueError unless it is an integer other
    than a bool (numpy's integers are integers)."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return int(operator.index(value))
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


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
    even when the data covers fewer types; it names no class twice.  Every
    instance has one feature per attribute and a label in the domain;
    their weights add up finitely, with room for the total times log2 of
    the class count.  The derived columns are built once, on first use,
    and take no part in equality or hashing.
    """

    attribute_names: Tuple[str, ...]
    class_domain: Tuple[str, ...]
    instances: Tuple[LabeledInstance, ...]

    def __post_init__(self):
        domain = set(self.class_domain)
        if len(domain) != len(self.class_domain):
            raise ValueError("class domain repeats a class name")
        width = len(self.attribute_names)
        for inst in self.instances:
            if len(inst.features) != width:
                raise ValueError(f"instance has {len(inst.features)} features, "
                                 f"expected {width}")
            if inst.label not in domain:
                raise ValueError(f"label {inst.label!r} not in class domain")
        # Training weighs each side's entropy (at most log2 of the class
        # count) by the side's weight, and that sum must stay finite.
        total = sum(inst.weight for inst in self.instances)
        if not math.isfinite(total * math.log2(max(2, len(self.class_domain)))):
            raise ValueError("instance weights add up to infinity, or so near "
                             "it that training's entropy sums overflow")

    def __len__(self) -> int:
        return len(self.instances)

    @cached_property
    def features(self) -> Tuple[Tuple[Optional[float], ...], ...]:
        """Each instance's feature tuple."""
        return tuple(inst.features for inst in self.instances)

    @cached_property
    def values(self) -> np.ndarray:
        """The n×A float64 feature matrix, NaN for a missing value."""
        values = np.array(self.features, dtype=np.float64).reshape(
            len(self), len(self.attribute_names))
        values.flags.writeable = False
        return values

    @cached_property
    def classes(self) -> Tuple[int, ...]:
        """Each instance's class-domain index."""
        index = {c: i for i, c in enumerate(self.class_domain)}
        return tuple(index[inst.label] for inst in self.instances)

    def class_index(self, label: str) -> int:
        return self.class_domain.index(label)


#: Bytes of a file read and decoded at a time.  The parse holds one
#: block of the file's bytes and text, never all of either.
_BLOCK_BYTES = 1 << 20


def _utf8_error(exc: UnicodeDecodeError, start: int) -> DataError:
    """DataError for a decoder's ``exc`` on input that began ``start``
    bytes into the file, with the text bytes.decode gives for the file."""
    if exc.end - exc.start == 1:
        where = f"byte 0x{exc.object[exc.start]:02x} in position {start + exc.start}"
    else:
        where = f"bytes in position {start + exc.start}-{start + exc.end - 1}"
    return DataError(f"input is not valid UTF-8: '{exc.encoding}' codec "
                     f"can't decode {where}: {exc.reason}")


def _decoded(blocks: Iterable) -> Iterator[Tuple[bytes, str]]:
    """(block, its text) of consecutive nonempty UTF-8 byte blocks, then
    (b"", ""); a character split between blocks is the later one's text.
    DataError for the first invalid or unfinished sequence."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    fed = start = 0  # bytes given to the decoder; offset of those it holds
    for block in itertools.chain(blocks, [b""]):
        try:
            text = decoder.decode(block, final=not block)
        except UnicodeDecodeError as exc:
            raise _utf8_error(exc, start) from None
        fed += len(block)
        start = fed - len(decoder.getstate()[0])
        yield block, text


def _read(source: Union[str, bytes, IO]) -> Tuple[int, int, Iterator[str]]:
    """(line feeds, commas, text blocks) of the source's text.

    A str is one block.  Bytes, through a memoryview, and a binary stream
    that can seek are read twice in blocks of _BLOCK_BYTES: the first pass
    counts the raw bytes and decodes them, keeping no text, so invalid
    UTF-8 raises DataError before any line is parsed; the second decodes
    again as the blocks are taken.  Any other stream is read whole first.
    """
    if hasattr(source, "read") and not (
            isinstance(source, (io.RawIOBase, io.BufferedIOBase)) and source.seekable()):
        source = source.read()
    if isinstance(source, str):
        return source.count("\n"), source.count(","), iter([source])
    if hasattr(source, "read"):
        first = source.tell()

        def blocks():
            source.seek(first)
            while block := source.read(_BLOCK_BYTES):
                yield block
    else:
        view = memoryview(source)

        def blocks():
            for start in range(0, len(view), _BLOCK_BYTES):
                yield view[start:start + _BLOCK_BYTES]
    line_feeds = commas = 0
    for block, _text in _decoded(blocks()):
        # Neither byte occurs inside a multi-byte UTF-8 character.
        codes = np.frombuffer(block, dtype=np.uint8)
        line_feeds += int(np.count_nonzero(codes == ord("\n")))
        commas += int(np.count_nonzero(codes == ord(",")))
    return line_feeds, commas, (text for _block, text in _decoded(blocks()))


#: Rows whose rainfall cells are converted together.  It bounds the cell
#: strings and floats alive at once, about 1.1 kB a row; a bad cell is
#: found within its chunk.
_CHUNK_ROWS = 1024


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


def _fill_rainfall(out: np.ndarray, first_row: int, cells: List[str],
                   lines: List[int], stations: List[str]) -> None:
    """Write the rainfall of the rows whose month cells ``cells`` holds, 12
    a row, into ``out`` from row ``first_row`` on, NaN for an empty cell.

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
    out[first_row:first_row + len(block) // 12] = block.reshape(-1, 12)


def _content_lines(blocks: Iterable[str]):
    """(line number, line) of each non-blank, non-comment line of the text
    that ``blocks`` hold in order, without a leading byte order mark, which
    Excel's "CSV UTF-8" export writes.  Lines are cut from one block at a
    time; the start of a line that a block ends with is carried into the
    next."""
    lineno, head = 0, []  # the pieces of a line begun in earlier blocks
    # A line feed after the last block ends a last line that has none; a
    # blank line after one that has is not yielded.
    for text in itertools.chain(blocks, ["\n"]):
        start = 0
        while (stop := text.find("\n", start)) >= 0:
            line = text[start:stop]
            if head:
                head.append(line)
                line, head = "".join(head), []
            start = stop + 1
            lineno += 1
            if lineno == 1:
                line = line.removeprefix("\ufeff")
            stripped = line.lstrip()
            if stripped and stripped[0] != "#":
                yield lineno, line
        if start < len(text):
            head.append(text[start:])


def _row_key(fields: List[str], n_fields: int, lineno: int,
             seen: Dict[int, Dict[str, int]], shared: dict):
    """(station, region, year) of one line's fields, each the first equal
    object met in the file (``shared``).  ``seen`` maps year to station to
    line number: a file has few years, and often one year per station.
    DataError for, in this order, the field count, the station, the year
    or a station-year seen on an earlier line."""
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
    station = shared.setdefault(station, station)
    year = shared.setdefault(year, year)
    in_year = seen.get(year)
    if in_year is None:
        in_year = seen[year] = {}
    elif station in in_year:
        raise DataError(
            f"line {lineno}: duplicate station-year {station!r}/{year} "
            f"(first seen on line {in_year[station]})")
    in_year[station] = lineno
    region = fields[1].strip()
    return station, shared.setdefault(region, region), year


def _parse_table(source: Union[str, bytes, IO],
                 labeled: Optional[bool] = None) -> RainfallTable:
    """The file's rows, checked line by line and converted a chunk at a
    time; raw or labeled as ``labeled`` says, or as the header says when
    it is None.  Invalid UTF-8 anywhere is raised first, then the first
    error in file order; within a line the order is fields, station,
    year, duplicate, cells by month, label."""
    line_feeds, commas, blocks = _read(source)
    lines = _content_lines(blocks)
    lineno, header = next(lines, (0, None))
    if header is None:
        raise DataError("missing header line")
    if labeled is None:
        labeled = header.strip() == LABELED_HEADER
    expected = LABELED_HEADER if labeled else RAINFALL_HEADER
    n_fields = 16 if labeled else 15
    if header.strip() != expected:
        raise DataError(
            f"line {lineno}: malformed header, expected {expected!r}")
    # Each row follows a line feed and holds at least the header's 14
    # commas, which bounds the rows and sizes the matrix once.
    rainfall = np.empty((min(line_feeds, commas // 14 - 1), 12))
    stations: List[str] = []
    regions: List[str] = []
    years: List[int] = []
    linenos: List[int] = []
    labels: Optional[List[str]] = [] if labeled else None
    seen: Dict[int, Dict[str, int]] = {}
    shared: dict = {}
    converted = 0  # rows whose cells are in the matrix
    cells: List[str] = []  # month cells of the rows not yet converted

    for lineno, line in lines:
        fields = line.split(",")
        try:
            station, region, year = _row_key(fields, n_fields, lineno, seen, shared)
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
            _fill_rainfall(rainfall, converted, cells, linenos, stations)
            raise
        if len(cells) == 12 * _CHUNK_ROWS:
            _fill_rainfall(rainfall, converted, cells, linenos, stations)
            converted += _CHUNK_ROWS
            cells = []
    _fill_rainfall(rainfall, converted, cells, linenos, stations)
    return RainfallTable(stations, regions, years, linenos,
                         rainfall[:len(stations)], labels)


def parse_table(source: Union[str, bytes, IO]) -> RainfallTable:
    """Parse a rainfall file, raw or labeled (its header says which)."""
    return _parse_table(source)


def parse_rainfall_file(source: Union[str, bytes, IO]) -> List[StationYear]:
    """Parse a raw rainfall file into StationYear records."""
    return _parse_table(source, labeled=False).records()


def parse_labeled_file(source: Union[str, bytes, IO]) -> List[Tuple[StationYear, str]]:
    """Parse a rainfall file carrying a trailing climate_class column."""
    table = _parse_table(source, labeled=True)
    return list(zip(table.records(), table.labels))


def sniff_labeled(source: Union[str, bytes, IO]) -> bool:
    """True when the first content line is the labeled-file header."""
    _line_feeds, _commas, blocks = _read(source)
    _lineno, header = next(_content_lines(blocks), (0, ""))
    return header.strip() == LABELED_HEADER


def write_rainfall_file(records: Iterable[StationYear]) -> str:
    """Serialize records back into the rainfall file grammar.

    ValueError, naming the station, for a record that would not read back
    the same: a comma, line feed or surrounding whitespace in the station
    or region, a station id starting with '#', a year that is not an
    integer (a bool is not one), rainfall below zero or not finite, or a
    (station, year) written before.  An inner CR is kept.
    """
    lines = [RAINFALL_HEADER]
    seen = set()
    for rec in records:
        year = _integer(f"station {rec.station_id!r}: year", rec.year)
        if (rec.station_id, year) in seen:
            raise ValueError(f"station {rec.station_id!r} year {year}: "
                             "duplicate station-year")
        seen.add((rec.station_id, year))
        if rec.station_id.startswith("#") or any(
                "," in text or "\n" in text or text != text.strip()
                for text in (rec.station_id, rec.region)):
            raise ValueError(f"station {rec.station_id!r}: station or region "
                             "text would not read back the same")
        if not all(v is None or (math.isfinite(v) and v >= 0) for v in rec.rainfall):
            raise ValueError(f"station {rec.station_id!r}: rainfall must be "
                             "nonnegative and finite")
        cells = [rec.station_id, rec.region, str(year)]
        cells += ["" if v is None else format_number(v) for v in rec.rainfall]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


#: Rows classified together.  It bounds classify_rows' copy of the
#: rainfall and its masks, about 200 bytes a row, to one block of rows.
_LABEL_ROWS = 4096


def _label_rows(rainfall: np.ndarray, missing: Optional[np.ndarray],
                policy: MissingPolicy, stations: Sequence[str],
                years: Sequence[int]):
    """(kept row indices, their ClimateTypes); errors name the station.

    ``missing`` marks the missing months, or is None when NaN marks
    them.  Blocks of _LABEL_ROWS rows are classified in file order, so
    the first row that fails is the one reported.
    """
    if not stations:
        raise DataError("no station records to label")
    rows: List[int] = []
    types: List[ClimateType] = []
    for first in range(0, len(rainfall), _LABEL_ROWS):
        block = rainfall[first:first + _LABEL_ROWS]
        try:
            found = classify_rows(block, np.isnan(block) if missing is None
                                  else missing[first:first + _LABEL_ROWS], policy)
        except RowError as exc:
            row = first + exc.row
            raise DataError(f"station {stations[row]!r} year "
                            f"{years[row]}: {exc}") from None
        # None marks a row the policy skips; every ClimateType is true.
        rows += itertools.compress(range(first, first + len(found)), found)
        types += filter(None, found)
    if not rows:
        raise DataError("all stations were skipped by the missing-data policy")
    return rows, types


def label_table(
    table: RainfallTable,
    policy: MissingPolicy = MissingPolicy.ZERO_FILL,
) -> Tuple[List[int], List[ClimateType]]:
    """(row indices, Oldeman types) of the rows the policy keeps, in file
    order.  Raises DataError as label_records does."""
    return _label_rows(table.rainfall, None, policy, table.stations, table.years)


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
    deterministic function of (dataset, k, seed).  ValueError unless k is
    an integer from 2 to the instance count.
    """
    n = len(dataset.instances)
    k = _integer("k", k)
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    if k > n:
        raise ValueError(f"cannot make {k} folds from {n} instances")
    rng = random.Random(seed)
    folds: List[List[int]] = [[] for _ in range(k)]
    offset = 0
    for cls in range(len(dataset.class_domain)):
        members = [i for i, c in enumerate(dataset.classes) if c == cls]
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
