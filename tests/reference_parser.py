"""Independent pure-Python reference for parsing and labeling rainfall files.

Parses line by line and cell by cell, and labels one record at a time,
the way croptree did before its columnar score path.  Records are
(station, region, year, rainfall) tuples, a missing month is None, and
errors are this module's DataError with croptree's message texts.  It
imports nothing from croptree, so ``tests/test_dataset.py`` can hold the
table parser and the batch labeler to it.
"""

import math

MONTH_NAMES = ("jan", "feb", "mar", "apr", "may", "jun",
               "jul", "aug", "sep", "oct", "nov", "dec")
CLASS_DOMAIN = ("A1", "A2", "B1", "B2", "B3", "C1", "C2", "C3", "C4",
                "D1", "D2", "D3", "D4", "E")
RAINFALL_HEADER = "station,region,year," + ",".join(MONTH_NAMES)
LABELED_HEADER = RAINFALL_HEADER + ",climate_class"

POLICIES = ("zerofill", "skip", "error")


class DataError(Exception):
    pass


class MissingMonthError(DataError):
    pass


def _parse_cell(cell, lineno, station, month):
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


def _content_lines(text):
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if line.strip() and not line.lstrip().startswith("#"):
            yield lineno, line


def parse_rows(text, labeled):
    """Records, or (record, label) pairs when ``labeled``."""
    expected = LABELED_HEADER if labeled else RAINFALL_HEADER
    n_cols = 16 if labeled else 15
    lines = _content_lines(text)
    lineno, header = next(lines, (0, None))
    if header is None:
        raise DataError("missing header line")
    if header.strip() != expected:
        raise DataError(
            f"line {lineno}: malformed header, expected {expected!r}")
    seen = {}
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
        record = (station, region, year, rainfall)
        if labeled:
            label = cells[15].strip()
            if label not in CLASS_DOMAIN:
                raise DataError(
                    f"line {lineno}: unknown climate class {label!r}")
            out.append((record, label))
        else:
            out.append(record)
    return out


def classify(rainfall, policy):
    """Oldeman code ('A1'..'E4') of one record's 12 values."""
    categories = []
    for month, value in enumerate(rainfall):
        if value is None:
            if policy != "zerofill":
                raise MissingMonthError(
                    f"missing rainfall for {MONTH_NAMES[month]}")
            value = 0.0
        if not math.isfinite(value):
            raise DataError(f"{MONTH_NAMES[month]}: rainfall must be "
                            f"finite, got {value!r}")
        if value < 0:
            raise DataError(f"{MONTH_NAMES[month]}: rainfall must be "
                            f"nonnegative, got {value!r}")
        categories.append("wet" if value >= 200.0
                          else "dry" if value < 100.0 else "moist")
    longest = {"wet": 0, "dry": 0, "moist": 0}
    current, previous = 0, None
    for cat in categories:
        current = current + 1 if cat == previous else 1
        previous = cat
        longest[cat] = max(longest[cat], current)
    letter = "EEEDDCCBBAAAA"[longest["wet"]]
    subtype = (1, 1, 2, 2, 3, 3, 3, 4, 4, 4, 4, 4, 4)[longest["dry"]]
    return f"{letter}{subtype}"


def label_records(records, policy="zerofill"):
    """(record, Oldeman code) of each record the policy keeps."""
    if not records:
        raise DataError("no station records to label")
    out = []
    for record in records:
        station, _region, year, rainfall = record
        try:
            code = classify(rainfall, policy)
        except DataError as exc:
            if isinstance(exc, MissingMonthError) and policy == "skip":
                continue
            raise DataError(
                f"station {station!r} year {year}: {exc}") from None
        out.append((record, code))
    if not out:
        raise DataError("all stations were skipped by the missing-data policy")
    return out
