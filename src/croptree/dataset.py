"""Rainfall station files, Oldeman labeling, and dataset utilities.

File grammar (UTF-8, comma separated, LF or CRLF line ends):

    station,region,year,jan,feb,mar,apr,may,jun,jul,aug,sep,oct,nov,dec
    Halim,DKI Jakarta,2013,300,280,,150,...

Empty rainfall cells are missing values.  Lines starting with '#' are
comments.  A labeled file appends a trailing `climate_class` column.

A file is parsed once, by one loop, into blocks of at most `_LABEL_ROWS`
rows, each a `RainfallTable`: station, region and year columns, line
numbers as 8-byte integers, an n×12 float64 matrix with NaN for a
missing month, and the label column of a labeled file.  `parse_blocks`
hands the blocks on one at a time; `parse_table` copies them into one
table.  Every source is read as one binary stream, twice: the first pass
decodes it in blocks of `_BLOCK_BYTES` through an incremental UTF-8
decoder, checking the whole file and counting its line feeds and commas,
which size `parse_table`'s matrix, so invalid UTF-8 is raised before any
parse error; the second reads it line by line and decodes each line
alone.  Beside that line, the parse holds one block and the stations
seen in each year: lines are checked as they come, equal station, region
and year values share one object, and a block's rainfall cells are
converted together with Python's `float` into its matrix when the block
ends.  The first error in file order is raised when its block is parsed;
a duplicate station-year finds the line it was first seen on by reading
the stream again.
`parse_rainfall_file`, `parse_labeled_file`, `StationYear` and `Dataset`
are views built from the table, whose values reach them as Python floats.
Instance rules (finite features, a positive finite weight) are checked
when a `LabeledInstance` is built and set rules (distinct class names,
width, labels, finite total weight) by `Dataset`, whose derived columns
are all that training reads, so training never checks an instance again.

Labeling attaches an Oldeman class to every station-year: `label_table`
labels a table's matrix in one `climate.classify_rows` call, and
`label_records` does the same for a list of records; the first row that
fails is reported.  The kept rows are a `range` when the policy keeps
them all, else a list of indices.  `dataset_from_table` builds its
instances straight from the table's columns.
Features keep their missing slots as missing even when the label was
computed under the zero-fill policy; the tree learners route missing
values explicitly.  The labeling functions alone reject input with
nothing to label (`_check_labeled`, which a caller labeling block by
block runs once, on the whole input).
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


#: Bytes of a file read and decoded at a time while its UTF-8 is checked
#: and its lines counted; no text is kept.
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


def _read(source: Union[str, bytes, IO]) -> Tuple[int, int, IO[bytes]]:
    """(line feeds, commas, stream) of the source as one seekable
    buffered binary stream, which is never wrapped: an io wrapper closes
    the file it wraps when it is collected.

    Such a stream is read from where it stands.  Bytes become an
    io.BytesIO, and so do a str's UTF-8 bytes ("surrogatepass") and what
    any other stream holds, read whole; a raw stream is one, as io would
    read its lines a byte at a time.  The stream is read in blocks of
    _BLOCK_BYTES through an incremental decoder that keeps no text, and
    its bytes are counted, so invalid UTF-8 (in a str, a lone surrogate)
    raises DataError before any line is parsed; then it is sought back
    to where it stood.
    """
    if not (isinstance(source, io.BufferedIOBase) and source.seekable()):
        if hasattr(source, "read"):
            source = source.read()
        if isinstance(source, str):
            source = source.encode("utf-8", "surrogatepass")
        source = io.BytesIO(source)
    first = source.tell()
    decoder = codecs.getincrementaldecoder("utf-8")()
    line_feeds = commas = fed = 0  # fed: bytes given to the decoder
    for block in itertools.chain(iter(lambda: source.read(_BLOCK_BYTES), b""), [b""]):
        try:
            decoder.decode(block, final=not block)
        except UnicodeDecodeError as exc:
            # The decoder began on the bytes it held from earlier blocks.
            raise _utf8_error(exc, fed - len(decoder.getstate()[0])) from None
        fed += len(block)
        # Neither byte occurs inside a multi-byte UTF-8 character.
        codes = np.frombuffer(block, dtype=np.uint8)
        line_feeds += int(np.count_nonzero(codes == ord("\n")))
        commas += int(np.count_nonzero(codes == ord(",")))
    source.seek(first)
    return line_feeds, commas, source


#: Rows a parse hands on together, which oldeman labels and recommend
#: routes as one block.  It bounds the rows a streamed command holds: the
#: block's rainfall cell strings, alive until the block is converted
#: (about 1.1 kB a row), and classify_rows' copy of its rainfall and
#: masks (about 200 bytes a row).
_LABEL_ROWS = 1024

@dataclass(frozen=True, eq=False)
class RainfallTable:
    """A parsed rainfall file: one column per field, one row per station-year.

    ``rainfall`` is an n×12 float64 matrix with NaN for a missing month;
    every other value is finite and nonnegative.  ``lines`` holds each
    row's line number in the file, and ``labels`` the climate_class
    column of a labeled file (None for a raw one).  A parsed table's
    ``lines`` is a read-only memoryview of 8-byte integers, which holds no
    int object a row; like a list, it gives Python ints and compares by
    value with ``==``.
    """

    stations: List[str]
    regions: List[str]
    years: List[int]
    lines: Sequence[int]
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


def _block_rainfall(cells: List[str], lines: Sequence[int],
                    stations: List[str]) -> np.ndarray:
    """The n×12 rainfall matrix of the rows whose month cells ``cells``
    holds, 12 a row, NaN for an empty cell.

    DataError for the first bad cell in file order: text that is not a
    number, or a number below zero or not finite.
    """
    def error(i: int, what: str) -> DataError:
        row, month = divmod(i, 12)
        return DataError(f"line {lines[row]}: {what} for station "
                         f"{stations[row]!r} month {MONTH_NAMES[month]}")

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


def _content_lines(stream: IO[bytes]):
    """(line number, line) of each non-blank, non-comment line of a
    stream of valid UTF-8, without a leading byte order mark, which
    Excel's "CSV UTF-8" export writes.  ``io`` splits the lines on line
    feeds, and each is decoded alone: no multi-byte character holds the
    byte 0x0A.  A line keeps its line feed, and a CR before it."""
    for lineno, data in enumerate(stream, 1):
        line = data.decode()
        if lineno == 1:
            line = line.removeprefix("\ufeff")
        stripped = line.lstrip()
        if stripped and stripped[0] != "#":
            yield lineno, line


def _row_key(fields: List[str], n_fields: int, lineno: int, shared: dict):
    """(station, region, year) of one line's fields, each the first equal
    object met in the file (``shared``).  DataError for, in this order,
    the field count, the station or the year."""
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
    region = fields[1].strip()
    return (shared.setdefault(station, station), shared.setdefault(region, region),
            shared.setdefault(year, year))


def _first_seen(stream: IO[bytes], start: int, station: str, year: int) -> int:
    """The line of the first row of ``station`` in ``year``, found by
    reading the stream again from ``start``, where its header begins: the
    parse holds the rows of one block, and this runs only when a
    duplicate is reported."""
    stream.seek(start)
    lines = _content_lines(stream)
    next(lines)  # the header
    # Every line before the duplicate passed _row_key.
    return next(lineno for lineno, line in lines
                if (fields := line.split(","))[0].strip() == station
                and int(fields[2].strip()) == year)


def _blocks(stream: IO[bytes], labeled: Optional[bool]) -> Iterator[RainfallTable]:
    """The rows of a stream from _read, checked line by line, as tables of
    at most _LABEL_ROWS rows in file order, each converted whole when it
    ends; a file without rows gives one empty table.  Raw or labeled as
    ``labeled`` says, or as the header says when it is None.  The first
    error in file order is raised when its block is parsed; within a line
    the order is fields, station, year, duplicate, cells by month, label."""
    start = stream.tell()
    lines = _content_lines(stream)
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
    # The stations of each year, for duplicates: the keys of a dict, which
    # stays smaller than a set as it grows (a set quadruples its table).
    seen: Dict[int, Dict[str, None]] = {}
    shared: dict = {}
    for n_blocks in itertools.count():
        linenos: List[int] = []
        stations: List[str] = []
        regions: List[str] = []
        years: List[int] = []
        labels: Optional[List[str]] = [] if labeled else None
        cells: List[str] = []  # month cells, 12 a row
        for lineno, line in itertools.islice(lines, _LABEL_ROWS):
            fields = line.split(",")
            try:
                station, region, year = _row_key(fields, n_fields, lineno, shared)
                # A file has few years, and often one year per station.
                in_year = seen.get(year)
                if in_year is None:
                    in_year = seen[year] = {}
                elif station in in_year:
                    first = _first_seen(stream, start, station, year)
                    raise DataError(f"line {lineno}: duplicate station-year "
                                    f"{station!r}/{year} (first seen on line {first})")
                in_year[station] = None
                linenos.append(lineno)
                stations.append(station)
                regions.append(region)
                years.append(year)
                cells += fields[3:15]
                if labeled:
                    label = fields[15].strip()
                    if label not in CLASS_DOMAIN:
                        raise DataError(
                            f"line {lineno}: unknown climate class {label!r}")
                    labels.append(label)
            except DataError:
                # A bad cell on an earlier line, or earlier on this one, comes first.
                _block_rainfall(cells, linenos, stations)
                raise
        rainfall = _block_rainfall(cells, linenos, stations)
        del cells  # freed before the block is handed on
        n_rows = len(stations)
        if n_rows or not n_blocks:
            yield RainfallTable(
                stations, regions, years,
                memoryview(np.array(linenos, dtype=np.int64)).toreadonly(),
                rainfall, labels)
        if n_rows < _LABEL_ROWS:
            return
        # A consumer that lets a block go frees it before the next is made.
        del rainfall, linenos, stations, regions, years, labels


def parse_blocks(source: Union[str, bytes, IO]) -> Iterator[RainfallTable]:
    """A rainfall file, raw or labeled (its header says which), as tables
    of at most _LABEL_ROWS rows in file order, the next parsed as the last
    is handed on; a file without rows gives one empty table.  The source's
    UTF-8 is checked, whole, when this is called; each other error is
    raised, as parse_table raises it, when the block that holds it is
    reached."""
    _line_feeds, _commas, stream = _read(source)
    return _blocks(stream, None)


def _parse_table(source: Union[str, bytes, IO],
                 labeled: Optional[bool] = None) -> RainfallTable:
    """The file's blocks, copied into one table.  Invalid UTF-8 anywhere
    is raised first, then the first error in file order."""
    line_feeds, commas, stream = _read(source)
    # Each row follows a line feed and holds at least the header's 14
    # commas, which bounds the rows and sizes the matrix and the line
    # numbers once.
    size = max(0, min(line_feeds, commas // 14 - 1))
    rainfall = np.empty((size, 12))
    linenos = np.empty(size, dtype=np.int64)
    stations: List[str] = []
    regions: List[str] = []
    years: List[int] = []
    labels: List[str] = []
    for block in _blocks(stream, labeled):
        rows = slice(len(stations), len(stations) + len(block))
        rainfall[rows] = block.rainfall
        linenos[rows] = block.lines
        stations += block.stations
        regions += block.regions
        years += block.years
        has_labels = block.labels is not None
        labels += block.labels or ()
        del block  # freed before the next block is made
    linenos.flags.writeable = False
    return RainfallTable(stations, regions, years, memoryview(linenos[:len(stations)]),
                         rainfall[:len(stations)], labels if has_labels else None)


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
    """True when the first content line is the labeled-file header.  A
    seekable buffered binary stream is left where it stood."""
    _line_feeds, _commas, stream = _read(source)
    start = stream.tell()
    _lineno, header = next(_content_lines(stream), (0, ""))
    stream.seek(start)
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


def _label_rows(rainfall: np.ndarray, missing: Optional[np.ndarray],
                policy: MissingPolicy, stations: Sequence[str],
                years: Sequence[int]):
    """(kept row indices, their ClimateTypes) of the rows given, a parser
    block or a whole table, in one classify_rows call; the first row that
    fails is reported by station and year.

    The indices are ``range(n)`` when every row is kept, else a list.
    ``missing`` marks the missing months, or is None when NaN marks
    them.  Keeping no row is not an error here: _check_labeled judges the
    whole input.
    """
    try:
        found = classify_rows(rainfall, np.isnan(rainfall) if missing is None
                              else missing, policy)
    except RowError as exc:
        raise DataError(f"station {stations[exc.row]!r} year "
                        f"{years[exc.row]}: {exc}") from None
    # None marks a row the policy skips; every ClimateType is true.
    types = list(filter(None, found))
    rows = range(len(found))
    if len(types) < len(found):
        rows = list(itertools.compress(rows, found))
    return rows, types


def _check_labeled(n_rows: int, n_kept: int) -> None:
    """DataError for input with nothing to label: no rows, or no row the
    missing-data policy keeps."""
    if not n_rows:
        raise DataError("no station records to label")
    if not n_kept:
        raise DataError("all stations were skipped by the missing-data policy")


def label_table(
    table: RainfallTable,
    policy: MissingPolicy = MissingPolicy.ZERO_FILL,
) -> Tuple[Sequence[int], List[ClimateType]]:
    """(row indices, Oldeman types) of the rows the policy keeps, in file
    order: ``range(len(table))`` when it keeps them all, else a list.
    Raises DataError as label_records does."""
    rows, types = _label_rows(table.rainfall, None, policy, table.stations,
                              table.years)
    _check_labeled(len(table), len(types))
    return rows, types


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
    _check_labeled(len(records), len(types))
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


def _dataset(rows: Iterable[tuple]) -> Dataset:
    """Dataset of one instance per (station, region, year, features, class
    code) row, its provenance ``station:year``; DataError for no row."""
    instances = tuple(
        LabeledInstance(features, label, 1.0, f"{station}:{year}", region)
        for station, region, year, features, label in rows)
    if not instances:
        raise DataError("no labeled records")
    return Dataset(MONTH_NAMES, CLASS_DOMAIN, instances)


def dataset_from_pairs(pairs: Sequence[Tuple[StationYear, str]]) -> Dataset:
    """Dataset from pre-labeled (record, class code) pairs."""
    return _dataset((rec.station_id, rec.region, rec.year, rec.rainfall, label)
                    for rec, label in pairs)


def dataset_from_table(
    table: RainfallTable,
    policy: MissingPolicy = MissingPolicy.ZERO_FILL,
) -> Dataset:
    """The table's rows as a Dataset, built from its columns: its labels
    when it has them, else the Oldeman labels of the rows the policy keeps
    (label_table), found before any feature tuple is built."""
    if table.labels is not None:
        return _dataset(zip(table.stations, table.regions, table.years,
                            table.features(), table.labels))
    rows, types = label_table(table, policy)
    features = table.features()
    return _dataset((table.stations[i], table.regions[i], table.years[i],
                     features[i], climate.label) for i, climate in zip(rows, types))


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


def count_table(tally: Counter, classes: Sequence[str] = CLASS_DOMAIN) -> CountTable:
    """Class-by-region counts of a Counter of (class, region) pairs,
    regions in the order the tally first met them, zero-filled for absent
    classes."""
    order = tuple(dict.fromkeys(region for _cls, region in tally))
    return CountTable(tuple(classes), order,
                      tuple(tuple(tally[cls, region] for region in order)
                            for cls in classes))


def count_by_type_region(dataset: Dataset) -> CountTable:
    """Full class-by-region count table, zero-filled for absent classes."""
    return count_table(Counter((inst.label, inst.region) for inst in dataset.instances),
                       dataset.class_domain)
