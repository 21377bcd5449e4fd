import io
import math
import random
import re
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from croptree import (CLASS_DOMAIN, DataError, Dataset, LabeledInstance,
                      MONTH_NAMES, MissingPolicy, StationYear, classify_oldeman,
                      complete_subset, count_by_type_region,
                      dataset_from_pairs, label_dataset, label_records,
                      parse_labeled_file, parse_rainfall_file,
                      stratified_folds, write_rainfall_file)
from croptree import dataset as dataset_module
from croptree.dataset import (LABELED_HEADER, RAINFALL_HEADER, dataset_from_table,
                              label_table, parse_table, sniff_labeled)

import reference_parser

HEADER = "station,region,year,jan,feb,mar,apr,may,jun,jul,aug,sep,oct,nov,dec"

SAMPLE = HEADER + """
# comment line
Halim,DKI Jakarta,2013,300,280,310,250,220,180,90,40,60,120,210,260

Karet,DKI Jakarta,2013,310,300,290,255,225,170,80,,55,110,205,250
"""


class TestParsing:
    def test_basic_rows(self):
        records = parse_rainfall_file(SAMPLE)
        assert len(records) == 2
        halim = records[0]
        assert halim.station_id == "Halim"
        assert halim.region == "DKI Jakarta"
        assert halim.year == 2013
        assert halim.rainfall[0] == 300.0
        assert all(v is not None for v in halim.rainfall)

    def test_empty_cell_is_missing(self):
        records = parse_rainfall_file(SAMPLE)
        assert records[1].rainfall[7] is None
        assert not records[1].complete

    def test_accepts_bytes_and_streams_and_crlf(self):
        text = HEADER + "\r\nX,R,2013,1,2,3,4,5,6,7,8,9,10,11,12\r\n"
        for source in (text, text.encode(), io.BytesIO(text.encode())):
            records = parse_rainfall_file(source)
            assert records[0].rainfall == tuple(float(v) for v in range(1, 13))

    def test_negative_value_reports_line(self):
        text = HEADER + "\nX,R,2013,-5,1,1,1,1,1,1,1,1,1,1,1\n"
        with pytest.raises(DataError, match="line 2"):
            parse_rainfall_file(text)

    def test_non_numeric_cell(self):
        text = HEADER + "\nX,R,2013,abc,1,1,1,1,1,1,1,1,1,1,1\n"
        with pytest.raises(DataError, match="non-numeric"):
            parse_rainfall_file(text)

    def test_malformed_header(self):
        with pytest.raises(DataError, match="malformed header"):
            parse_rainfall_file("station,year\nX,2013\n")

    def test_missing_header(self):
        with pytest.raises(DataError, match="missing header"):
            parse_rainfall_file("# only a comment\n")

    def test_duplicate_station_year(self):
        row = "X,R,2013," + ",".join(["1"] * 12)
        text = "\n".join([HEADER, row, row]) + "\n"
        with pytest.raises(DataError, match="duplicate"):
            parse_rainfall_file(text)

    def test_wrong_field_count(self):
        with pytest.raises(DataError, match="expected 15 fields"):
            parse_rainfall_file(HEADER + "\nX,R,2013,1,2,3\n")

    def test_bad_year(self):
        row = "X,R,20x3," + ",".join(["1"] * 12)
        with pytest.raises(DataError, match="year"):
            parse_rainfall_file(HEADER + "\n" + row + "\n")

    def test_invalid_utf8(self):
        with pytest.raises(DataError, match="UTF-8"):
            parse_rainfall_file(b"\xff\xfe" + SAMPLE.encode())

    def test_labeled_file(self):
        text = (HEADER + ",climate_class\n"
                + "X,R,2013," + ",".join(["250"] * 12) + ",A1\n")
        assert sniff_labeled(text)
        assert not sniff_labeled(SAMPLE)
        # The kind comes from the first line that is not blank or a
        # comment, whatever the line ends.
        lead = "# a comment\n\n   \n  # indented comment\n"
        for body in (text, SAMPLE):
            for source in (lead + body, (lead + body).replace("\n", "\r\n")):
                assert sniff_labeled(source) == (body is text)
                assert sniff_labeled(source.encode()) == (body is text)
                assert (parse_table(source).labels is not None) == (body is text)
        assert not sniff_labeled("# only a comment\r\n\r\n")
        pairs = parse_labeled_file(text)
        assert pairs[0][1] == "A1"

    def test_byte_order_mark_is_ignored(self):
        # Excel's "CSV UTF-8" export starts the file with U+FEFF.
        labeled = (HEADER + ",climate_class\n"
                   + "X,R,2013," + ",".join(["250"] * 12) + ",A1\n")
        for text in (SAMPLE, labeled):
            plain = parse_table(text)
            marked = "\ufeff" + text
            for source in (marked, marked.encode()):
                assert sniff_labeled(source) == (text is labeled)
                table = parse_table(source)
                assert table.records() == plain.records()
                assert table.labels == plain.labels
                assert table.lines == plain.lines

    def test_matrix_has_one_row_per_data_line(self):
        # Comment lines with commas and blank lines loosen the bound the
        # matrix is sized by; a last line without a line feed tightens it.
        rows = [f"{name},R,2013," + ",".join([str(v)] * 12)
                for v, name in enumerate("XYZ")]
        text = "\n".join([HEADER, "# a," * 20, "", rows[0], "# ,,,,,,,,,,,,,,,",
                          *rows[1:]])
        table = parse_table(text)
        assert table.rainfall.shape == (3, 12)
        assert table.rainfall[:, 0].tolist() == [0.0, 1.0, 2.0]
        assert table.lines == [4, 6, 7]

    def test_labeled_file_rejects_unknown_class(self):
        text = (HEADER + ",climate_class\n"
                + "X,R,2013," + ",".join(["250"] * 12) + ",Z9\n")
        with pytest.raises(DataError, match="unknown climate class"):
            parse_labeled_file(text)


@pytest.mark.parametrize("names,width,n", [
    (("a", "b"), 1, 4),    # small root: the Python kernel indexes each name
    (("a", "b"), 1, 40),   # large root: numpy shapes an n x names matrix
    (("a",), 2, 4),        # wider rows would train on the first feature only
], ids=["narrow-4-rows", "narrow-40-rows", "wide"])
def test_feature_width_must_match_attribute_names(names, width, n):
    instances = tuple(LabeledInstance((float(i),) * width, "XY"[i % 2])
                      for i in range(n))
    with pytest.raises(ValueError, match=f"{width} features, expected {len(names)}"):
        Dataset(names, ("X", "Y"), instances)


@pytest.mark.parametrize("station, rainfall, message", [
    pytest.param("", (1.0,) * 12, "station id must be nonempty", id="empty-id"),
    pytest.param("A", (1.0,) * 11, "rainfall must have 12 slots", id="11-slots"),
])
def test_station_year_rejects(station, rainfall, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        StationYear(station, "R", 2013, rainfall)


def test_roundtrip_parse_write_parse(stations75):
    with_missing = list(stations75)
    with_missing.append(StationYear("GAPPY", "Banten", 2013,
                                    (None, 120.5, None) + (80.0,) * 9))
    text = write_rainfall_file(with_missing)
    reparsed = parse_rainfall_file(text)
    assert reparsed == with_missing
    assert write_rainfall_file(reparsed) == text


@pytest.mark.parametrize("station, region, december", [
    pytest.param("a,b", "R", 1.0, id="comma-in-station"),
    pytest.param("A", "R,S", 1.0, id="comma-in-region"),
    pytest.param("A\nB", "R", 1.0, id="line-feed-in-station"),
    pytest.param("A", "R\nS", 1.0, id="line-feed-in-region"),
    pytest.param(" A", "R", 1.0, id="leading-space-in-station"),
    pytest.param("A ", "R", 1.0, id="trailing-space-in-station"),
    pytest.param("A\r", "R", 1.0, id="trailing-cr-in-station"),
    pytest.param("A", " R", 1.0, id="leading-space-in-region"),
    pytest.param("A", "R\t", 1.0, id="trailing-tab-in-region"),
    pytest.param("#A", "R", 1.0, id="station-reads-as-comment"),
    pytest.param("A", "R", -5.0, id="negative-rainfall"),
    pytest.param("A", "R", math.inf, id="infinite-rainfall"),
    pytest.param("A", "R", -math.inf, id="minus-infinite-rainfall"),
    pytest.param("A", "R", math.nan, id="nan-rainfall"),
])
def test_write_rejects_embedded_commas(station, region, december):
    # each record would not read back the same, so writing names its station
    record = StationYear(station, region, 2013, (1.0,) * 11 + (december,))
    with pytest.raises(ValueError, match=re.escape(f"station {station!r}")):
        write_rainfall_file([record])


def test_write_reads_back_numpy_values():
    # numpy 2 reprs a float64 as 'np.float64(250.5)', which the parser
    # read as non-numeric rainfall
    row = np.array([250.5, 0.1, 300.0] + [1e-7] * 8 + [12345.678])
    records = [StationYear("A", "R", np.int64(2013), tuple(row)),
               StationYear("B", "R", np.int32(2014),
                           (None,) + tuple(np.float32(0.5) for _ in range(11)))]
    text = write_rainfall_file(records)
    assert "np." not in text
    assert parse_rainfall_file(text) == records
    assert write_rainfall_file(parse_rainfall_file(text)) == text


@pytest.mark.parametrize("year", [2013.5, True, "2013"])
def test_write_rejects_a_year_that_is_not_an_integer(year):
    # each used to be written, and none read back as the same record
    record = StationYear("A", "R", year, (1.0,) * 12)
    with pytest.raises(ValueError, match=re.escape("station 'A': year")):
        write_rainfall_file([record])


def test_write_rejects_a_repeated_station_year():
    # the parser would reject the second record as a duplicate
    records = [StationYear("A", "R", 2013, (1.0,) * 12),
               StationYear("A", "S", 2013, (2.0,) * 12)]
    with pytest.raises(ValueError, match=re.escape("station 'A' year 2013")):
        write_rainfall_file(records)
    assert len(parse_rainfall_file(write_rainfall_file(records[:1]))) == 1


class TestLabeling:
    def test_count_preservation_and_domain(self, stations75, dataset75):
        assert len(dataset75) == len(stations75) == 75
        assert dataset75.class_domain == CLASS_DOMAIN
        assert dataset75.attribute_names == MONTH_NAMES
        assert len(Counter(i.label for i in dataset75.instances)) >= 6

    def test_single_record_a1(self):
        record = StationYear("X", "R", 2013, (250.0,) * 12)
        dataset = label_dataset([record])
        assert len(dataset) == 1
        assert dataset.instances[0].label == "A1"
        assert dataset.instances[0].provenance_id == "X:2013"

    def test_empty_records_rejected(self):
        for label in (label_records, label_dataset):
            with pytest.raises(DataError, match="no station records to label"):
                label([])

    def test_features_keep_missing_slots_under_zero_fill(self):
        rainfall = list((250.0,) * 12)
        rainfall[7] = None
        record = StationYear("X", "R", 2013, tuple(rainfall))
        dataset = label_dataset([record], MissingPolicy.ZERO_FILL)
        assert dataset.instances[0].features[7] is None

    def test_skip_policy_drops_incomplete(self):
        complete = StationYear("A", "R", 2013, (250.0,) * 12)
        gappy = StationYear("B", "R", 2013, (250.0,) * 11 + (None,))
        labeled = label_records([complete, gappy], MissingPolicy.SKIP_STATION)
        assert [rec.station_id for rec, _ in labeled] == ["A"]
        dataset = label_dataset([complete, gappy], MissingPolicy.SKIP_STATION)
        assert len(dataset) == 1

    def test_error_policy_names_station(self):
        gappy = StationYear("Gappy", "R", 2013, (250.0,) * 11 + (None,))
        with pytest.raises(DataError, match="'Gappy'.*dec"):
            label_dataset([gappy], MissingPolicy.ERROR)

    @pytest.mark.parametrize("policy", list(MissingPolicy))
    def test_nan_rainfall_is_invalid_not_missing(self, policy):
        # The table marks a missing month with NaN; a NaN in a record is
        # still an invalid value, under every policy.
        complete = StationYear("A", "R", 2013, (250.0,) * 12)
        nan = StationYear("N", "R", 2013, (250.0,) * 7 + (math.nan,) + (250.0,) * 4)
        message = "aug: rainfall must be finite, got nan"
        with pytest.raises(DataError,
                           match=re.escape(f"station 'N' year 2013: {message}")):
            label_records([complete, nan], policy)
        with pytest.raises(DataError, match=re.escape(message)):
            classify_oldeman(nan.rainfall, policy)
        # A missing month before the NaN comes first: SKIP_STATION drops the row.
        gap_first = StationYear("G", "R", 2013, (None, math.nan) + (250.0,) * 10)
        if policy is MissingPolicy.SKIP_STATION:
            assert label_records([gap_first, complete], policy) == [
                (complete, classify_oldeman(complete.rainfall))]

    def test_all_skipped_is_an_error(self):
        gappy = StationYear("B", "R", 2013, (None,) * 12)
        other = StationYear("C", "R", 2013, (250.0,) * 11 + (None,))
        for label in (label_records, label_dataset):
            with pytest.raises(DataError, match="all stations were skipped"):
                label([gappy, other], MissingPolicy.SKIP_STATION)


def _tiny_dataset(labels, region="R"):
    instances = tuple(
        LabeledInstance((float(i),) * 12, label, region=region,
                        provenance_id=str(i))
        for i, label in enumerate(labels))
    return Dataset(MONTH_NAMES, CLASS_DOMAIN, instances)


class TestStratifiedFolds:
    def test_exact_division(self):
        dataset = _tiny_dataset(["A1"] * 10)
        folds = stratified_folds(dataset, 5, seed=3)
        assert sorted(len(f) for f in folds) == [2] * 5

    def test_two_class_balance(self):
        dataset = _tiny_dataset(["A1"] * 6 + ["B2"] * 4)
        folds = stratified_folds(dataset, 2, seed=3)
        for fold in folds:
            labels = Counter(dataset.instances[i].label for i in fold)
            assert labels == {"A1": 3, "B2": 2}

    def test_partition_and_determinism(self):
        dataset = _tiny_dataset(["A1"] * 7 + ["B2"] * 5 + ["C3"] * 3)
        folds = stratified_folds(dataset, 4, seed=11)
        flat = sorted(i for fold in folds for i in fold)
        assert flat == list(range(15))
        assert folds == stratified_folds(dataset, 4, seed=11)

    def test_contract_errors(self):
        dataset = _tiny_dataset(["A1"] * 3)
        with pytest.raises(ValueError):
            stratified_folds(dataset, 4, seed=1)
        with pytest.raises(ValueError):
            stratified_folds(dataset, 1, seed=1)
        with pytest.raises(ValueError):  # was a TypeError
            stratified_folds(dataset, 2.0, seed=1)


class TestCountTable:
    def test_empty_dataset_all_zero(self):
        table = count_by_type_region(Dataset(MONTH_NAMES, CLASS_DOMAIN, ()))
        assert table.total == 0
        assert table.regions == ()
        assert all(row == () for row in table.counts)

    def test_dki_column(self):
        labels = ["A2"] * 3 + ["B2"] * 6 + ["B3"] * 2
        table = count_by_type_region(_tiny_dataset(labels, region="DKI Jakarta"))
        assert table.regions == ("DKI Jakarta",)
        by_class = dict(zip(table.classes, (row[0] for row in table.counts)))
        assert by_class["A2"] == 3
        assert by_class["B2"] == 6
        assert by_class["B3"] == 2
        assert sum(by_class.values()) == 11
        assert len(table.classes) == 14

    def test_conservation(self, dataset75):
        table = count_by_type_region(dataset75)
        assert table.total == len(dataset75)
        assert sum(table.region_totals) == len(dataset75)
        assert sum(table.class_totals) == len(dataset75)


def test_complete_subset():
    complete = StationYear("A", "R", 2013, (250.0,) * 12)
    gappy = StationYear("B", "R", 2013, (250.0,) * 11 + (None,))
    dataset = label_dataset([complete, gappy])
    subset = complete_subset(dataset)
    assert len(subset) == 1
    assert subset.instances[0].provenance_id == "A:2013"


def test_dataset_rejects_foreign_labels_and_bad_weights():
    with pytest.raises(ValueError):
        Dataset(MONTH_NAMES, CLASS_DOMAIN,
                (LabeledInstance((1.0,) * 12, "Z9"),))
    for weight in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            Dataset(MONTH_NAMES, CLASS_DOMAIN,
                    (LabeledInstance((1.0,) * 12, "A1", weight=weight),))


def test_dataset_rejects_weights_adding_up_to_infinity():
    # Each weight is finite, but their total is not: training would
    # overflow its sums of weights.
    for weight, n in ((1e307, 40), (1e308, 2)):
        instances = tuple(LabeledInstance((float(i),), "XY"[i % 2], weight=weight)
                          for i in range(n))
        with pytest.raises(ValueError, match="infinity"):
            Dataset(("a0",), ("X", "Y"), instances)


def test_dataset_rejects_weights_whose_entropy_sums_overflow():
    # 40 × 4e306 is finite, but times log2 of 3 or 14 classes it is not:
    # training's weighted entropy sums would overflow.
    for classes in (("X", "Y", "Z"), CLASS_DOMAIN):
        instances = tuple(
            LabeledInstance((float(i % 7),), classes[i % len(classes)], weight=4e306)
            for i in range(40))
        with pytest.raises(ValueError, match="infinity"):
            Dataset(("a0",), classes, instances)


def test_dataset_rejects_a_repeated_class_name():
    # With "X" twice, stratified_folds put the X rows in two strata, and
    # its folds overlapped.
    instances = tuple(LabeledInstance((float(i),), "XY"[i % 2]) for i in range(6))
    with pytest.raises(ValueError, match="repeats a class name"):
        Dataset(("a",), ("X", "X", "Y"), instances)


GAPPY_TEXT = write_rainfall_file([
    StationYear("A", "R", 2013, (300.0,) * 12),
    StationYear("B", "R", 2013, (250.0,) * 7 + (None,) + (40.0,) * 4),
    StationYear("C", "S", 2013, (30.0, 120.0) * 6),
    StationYear("D", "S", 2014, (None,) * 12),
    StationYear("E", "R", 2014, (0.0, 250.5, 99.9, 201.0) * 3)])


@pytest.mark.parametrize("labeled", (False, True))
@pytest.mark.parametrize("policy", (MissingPolicy.ZERO_FILL,
                                    MissingPolicy.SKIP_STATION))
def test_dataset_columns_match_the_table(labeled, policy):
    text = GAPPY_TEXT
    if labeled:
        text = (LABELED_HEADER + "\n" + "\n".join(
            f"{line},{CLASS_DOMAIN[i]}"
            for i, line in enumerate(text.splitlines()[1:])) + "\n")
    table = parse_table(text)
    dataset = dataset_from_table(table, policy)
    if labeled:
        rows, labels = list(range(len(table))), table.labels
    else:
        rows, types = label_table(table, policy)
        labels = [climate.label for climate in types]
    # Skipping drops B and D, each missing a month, from the raw file.
    assert len(rows) == (3 if policy is MissingPolicy.SKIP_STATION and not labeled
                         else 5)
    assert np.array_equal(dataset.values, table.rainfall[rows], equal_nan=True)
    assert dataset.values.dtype == np.float64
    assert not dataset.values.flags.writeable
    assert dataset.classes == tuple(CLASS_DOMAIN.index(label) for label in labels)
    assert dataset.features == tuple(inst.features for inst in dataset.instances)


def test_cached_columns_leave_equality_and_hash_alone():
    table = parse_table(GAPPY_TEXT)
    cached, fresh = dataset_from_table(table), dataset_from_table(table)
    assert cached.values.shape == (5, 12) and cached.classes
    assert {"features", "values", "classes"} <= set(vars(cached))
    assert not {"features", "values", "classes"} & set(vars(fresh))
    assert cached == fresh
    assert hash(cached) == hash(fresh)


def test_dataset_from_pairs_round_trips_labels():
    record = StationYear("X", "R", 2014, (250.0,) * 12)
    dataset = dataset_from_pairs([(record, "C3")])
    assert dataset.instances[0].label == "C3"
    assert dataset.instances[0].region == "R"


def test_header_constant_matches_month_names():
    assert RAINFALL_HEADER == HEADER


# A clean file of each kind: a comment, a blank line, a missing cell and
# CRLF line ends among the body lines.
_PLAIN_LINES = SAMPLE.rstrip("\n").split("\n") + [
    "Kemayoran,DKI Jakarta,2014,301.5,,288,200,180,160,95,45,65,125,215,262\r",
]
_LABELED_LINES = [LABELED_HEADER] + [
    f"{line},{label}" for line, label in zip(
        [ln.rstrip("\r") for ln in _PLAIN_LINES[1:] if "," in ln],
        ("C3", "B2", "A1"))
]

_LINE_MUTATIONS = ("drop", "duplicate", "swap", "truncate", "rewrite", "repeat")


def _mutate(data, lines):
    """One to three mutations of a file's lines: a column dropped or
    duplicated (in every line or in one, header included), two characters
    of a line swapped, a line cut short, one cell rewritten, or one line
    repeated over another."""
    lines = list(lines)
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(_LINE_MUTATIONS))
        every_line = kind in ("drop", "duplicate") and data.draw(st.booleans())
        targets = (range(len(lines)) if every_line
                   else [data.draw(st.integers(0, len(lines) - 1))])
        column = data.draw(st.integers(0, 15))
        for k in targets:
            line = lines[k]
            if kind in ("drop", "duplicate", "rewrite"):
                cells = line.split(",")
                j = min(column, len(cells) - 1)
                if kind == "rewrite":
                    cells[j] = data.draw(st.text("0123456789.-+eEinfaAB3_ ",
                                                 max_size=6))
                else:
                    cells[j:j + 1] = [] if kind == "drop" else [cells[j]] * 2
                lines[k] = ",".join(cells)
            elif kind == "swap" and line:
                a = data.draw(st.integers(0, len(line) - 1))
                b = data.draw(st.integers(0, len(line) - 1))
                chars = list(line)
                chars[a], chars[b] = chars[b], chars[a]
                lines[k] = "".join(chars)
            elif kind == "repeat":
                lines[k] = lines[data.draw(st.integers(0, len(lines) - 1))]
            else:
                lines[k] = line[:data.draw(st.integers(0, len(line)))]
    return lines


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_rainfall_csv_parses_or_raises_data_error(data):
    """Mutated rainfall files, plain or labeled, either parse, and then
    label, or raise DataError; never any other exception."""
    labeled = data.draw(st.booleans())
    text = "\n".join(_mutate(data, _LABELED_LINES if labeled else _PLAIN_LINES)) + "\n"
    try:
        if labeled:
            records = [record for record, _label in parse_labeled_file(text)]
        else:
            records = parse_rainfall_file(text)
        label_records(records)
    except DataError:
        pass


def _long_lines(labeled, n_rows):
    """A clean file of n_rows rows, each station once, made from the
    sample rows: complete, missing August, and missing February (with a
    CRLF line end in the raw file)."""
    lines = list(_LABELED_LINES if labeled else _PLAIN_LINES)
    header, rows = lines[0], [ln for ln in lines[1:] if "," in ln]
    out = [header, "# comment line"]
    for k in range(n_rows):
        station, rest = rows[k % len(rows)].split(",", 1)
        out.append(f"{station}{k},{rest}")
        if k % 4 == 1:
            out.append("")
    return out


def _coded(records, labeled_pairs):
    """(record index, Oldeman code) of each labeled record."""
    index = {id(rec): i for i, rec in enumerate(records)}
    return [(index[id(rec)], code) for rec, code in labeled_pairs]


def _outcome(text, labeled, policy):
    """What the library makes of a file under one missing-data policy:
    ((records, labels), Oldeman codes), with a DataError's text in place
    of what raised it.  The table path (parse_table, label_table) must
    give the same."""
    policy = MissingPolicy(policy)
    try:
        if labeled:
            pairs = parse_labeled_file(text)
            records, labels = [rec for rec, _ in pairs], [lab for _, lab in pairs]
        else:
            records, labels = parse_rainfall_file(text), None
    except DataError as exc:
        result = ("error", str(exc)), None
    else:
        assert all(type(v) is float for rec in records for v in rec.rainfall
                   if v is not None)
        try:
            coded = _coded(records, [(rec, climate.code) for rec, climate
                                     in label_records(records, policy)])
        except DataError as exc:
            coded = ("error", str(exc))
        result = ([(r.station_id, r.region, r.year, r.rainfall) for r in records],
                  labels), coded
    if sniff_labeled(text) == labeled:
        assert _table_outcome(text, policy) == result
    return result


def _table_parse(source):
    """(table, its rows and labels) of parse_table, or (None, the
    DataError's text)."""
    try:
        table = parse_table(source)
    except DataError as exc:
        return None, ("error", str(exc))
    return table, (list(zip(table.stations, table.regions, table.years,
                            table.features())), table.labels)


def _table_outcome(text, policy):
    table, parsed = _table_parse(text)
    if table is None:
        return parsed, None
    try:
        rows, types = label_table(table, policy)
        coded = [(i, climate.code) for i, climate in zip(rows, types)]
    except DataError as exc:
        coded = ("error", str(exc))
    return parsed, coded


def _reference_outcome(text, labeled, policy):
    try:
        parsed = reference_parser.parse_rows(text, labeled)
    except reference_parser.DataError as exc:
        return ("error", str(exc)), None
    records = [p[0] for p in parsed] if labeled else parsed
    labels = [p[1] for p in parsed] if labeled else None
    try:
        coded = _coded(records, reference_parser.label_records(records, policy))
    except reference_parser.DataError as exc:
        coded = ("error", str(exc))
    return (records, labels), coded


def _assert_blocks_read_as_decode(data, sources=(bytes, io.BytesIO)):
    """``data`` read in blocks of 1, 2, 7 and _BLOCK_BYTES bytes, through
    each of ``sources``, parses as its decoded text does, or fails with
    the text of bytes.decode's error."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        table, parsed = None, ("error", f"input is not valid UTF-8: {exc}")
    else:
        table, parsed = _table_parse(text)
    for size in (1, 2, 7, dataset_module._BLOCK_BYTES):
        with mock.patch.object(dataset_module, "_BLOCK_BYTES", size):
            for source in sources:
                read, read_parsed = _table_parse(source(data))
                assert read_parsed == parsed, (size, source)
                assert table is None or read.lines == table.lines, (size, source)


def _assert_parses_as_the_reference(text, labeled):
    for policy in reference_parser.POLICIES:
        assert _outcome(text, labeled, policy) == _reference_outcome(
            text, labeled, policy), policy
    _assert_blocks_read_as_decode(text.encode(), sources=(io.BytesIO,))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_table_parser_matches_the_reference_parser(data):
    """Mutated files, some longer than one chunk of rows, give the same
    records, labels and Oldeman codes as the line-by-line reference, or
    the identical DataError text, under each missing-data policy."""
    labeled = data.draw(st.booleans())
    lines = _long_lines(labeled, data.draw(st.integers(1, 9)))
    text = "\n".join(_mutate(data, lines)) + "\n"
    with mock.patch.object(dataset_module, "_CHUNK_ROWS",
                           data.draw(st.sampled_from([1, 2, 3, 4096]))):
        _assert_parses_as_the_reference(text, labeled)


_ROW = "300,280,310,250,220,180,90,40,60,120,210,260"


@pytest.mark.parametrize("chunk", [2, 4096])
@pytest.mark.parametrize("later, message", [
    ("X9,R,2013,1,2,3", "expected 15 fields"),
    (" ,R,2013," + _ROW, "empty station id"),
    ("X9,R,20x3," + _ROW, "non-integer year"),
    ("X0,R,2013," + _ROW, "duplicate station-year"),
])
def test_first_error_in_file_order_wins(chunk, later, message):
    # Line 3 has a bad cell and line 4 a structural error, in the same
    # chunk of rows (4096 a chunk) or in the next one (2 a chunk).
    bad_cell = "X1,R,2013,300,280,abc,-1," + _ROW.split(",", 4)[4]
    head = [HEADER, "X0,R,2013," + _ROW]
    with mock.patch.object(dataset_module, "_CHUNK_ROWS", chunk):
        for lines, expected in (
                (head + [bad_cell, later], "line 3: non-numeric rainfall 'abc'"),
                (head + [later, bad_cell], f"line 3: {message}")):
            text = "\n".join(lines) + "\n"
            with pytest.raises(DataError, match=re.escape(expected)):
                parse_rainfall_file(text)
            _assert_parses_as_the_reference(text, labeled=False)


@pytest.mark.parametrize("label, cells, expected", [
    ("Z9", "300,-5,abc", "line 2: negative or non-finite rainfall -5"),
    ("Z9", "300,nan,abc", "line 2: negative or non-finite rainfall nan"),
    ("Z9", "300,280,abc", "line 2: non-numeric rainfall 'abc'"),
    ("Z9", "300,280,310", "line 2: unknown climate class 'Z9'"),
    ("A1", "300, ,inf", "line 2: negative or non-finite rainfall inf"),
])
def test_within_a_line_cells_go_by_month_then_the_label(label, cells, expected):
    row = f"X,R,2013,{cells},250,220,180,90,40,60,120,210,260,{label}"
    text = LABELED_HEADER + "\n" + row + "\nY,R,2013,1,2\n"
    with pytest.raises(DataError, match=re.escape(expected)):
        parse_labeled_file(text)
    _assert_parses_as_the_reference(text, labeled=True)


@pytest.mark.parametrize("labeled", [False, True])
def test_files_longer_than_a_chunk_match_the_reference(labeled):
    n_rows = dataset_module._CHUNK_ROWS + 5
    lines = _long_lines(labeled, n_rows)
    _assert_parses_as_the_reference("\n".join(lines) + "\n", labeled)
    # A bad cell in the last row of the first chunk, and a field count
    # error on the next line: the cell comes first.
    row_lines = [i for i, line in enumerate(lines) if "," in line][1:]
    at = row_lines[dataset_module._CHUNK_ROWS - 1]
    cells = lines[at].split(",")
    cells[9] = "-1"
    lines[at] = ",".join(cells)
    lines[row_lines[dataset_module._CHUNK_ROWS]] = "Z,R,2013,1"
    text = "\n".join(lines) + "\n"
    with pytest.raises(DataError, match=f"line {at + 1}: negative"):
        (parse_labeled_file if labeled else parse_rainfall_file)(text)
    _assert_parses_as_the_reference(text, labeled)


@pytest.mark.parametrize("text", [
    HEADER + "\r\nX,R,2013," + _ROW + "\r\nY,R,2013," + _ROW + "\r\n",
    # characters of two, three and four bytes
    HEADER + "\nBañten–Cengkareng,Bañten,2013," + _ROW + "\n🌧,R,2013," + _ROW,
    "\ufeff" + HEADER + "\nX,R,2013," + _ROW + "\n",
    "\ufeff# a comment\nX,R,2013\n",
])
def test_blocks_split_lines_and_characters_as_decoding_does(text):
    # Blocks of 1, 2 and 7 bytes split a CRLF, a multi-byte character and
    # the byte order mark (three 1-byte blocks), and every line is longer
    # than such a block.
    _assert_blocks_read_as_decode(text.encode())


@pytest.mark.parametrize("data", [
    # after a line with a parse error, and one with a field count error
    (HEADER + "\nX,R,20x3," + _ROW + "\nY,R,2013,1,2\n").encode()
    + b"Z\xff,R,2013," + _ROW.encode(),
    # a three-byte character cut short at the end of the file
    (HEADER + "\nX,R,2013," + _ROW + "\n").encode() + "–".encode()[:2],
    # a four-byte character whose last byte does not continue it
    (HEADER + "\n").encode() + "🌧".encode()[:3] + b"X,R,2013," + _ROW.encode(),
    b"\xef\xbb\xbf\xfe" + HEADER.encode(),
])
def test_invalid_utf8_is_raised_first_with_bytes_decode_text(data):
    _assert_blocks_read_as_decode(data)
    with pytest.raises(UnicodeDecodeError) as info:
        data.decode("utf-8")
    expected = f"input is not valid UTF-8: {info.value}"
    for size in (1, 7):
        with mock.patch.object(dataset_module, "_BLOCK_BYTES", size):
            for read in (parse_rainfall_file, parse_labeled_file, sniff_labeled):
                with pytest.raises(DataError) as raised:
                    read(io.BytesIO(data))
                assert str(raised.value) == expected


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_block_reader_matches_bytes_decode(data):
    """A file with multi-byte characters, some of its bytes replaced by
    any others: parsed from blocks as its decoded text is, or rejected
    with the text of bytes.decode's error."""
    raw = bytearray((HEADER + "\nBañten–Cengkareng,Bañten,2013," + _ROW
                     + "\n🌧,R,2013," + _ROW + "\r\n").encode())
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(raw)))
        raw[at:at + data.draw(st.integers(0, 3))] = data.draw(st.binary(max_size=3))
    _assert_blocks_read_as_decode(bytes(raw))


class _Unseekable(io.RawIOBase):
    def __init__(self, data):
        self._data = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, buffer):
        return self._data.readinto(buffer)


def test_streams_are_read_from_where_they_stand():
    data = SAMPLE.encode()
    ahead = io.BytesIO(b"#\xff\n" + data)
    ahead.read(3)
    for source in (_Unseekable(data), io.BufferedReader(_Unseekable(data)), ahead):
        assert parse_table(source).records() == parse_rainfall_file(SAMPLE)


@pytest.mark.parametrize("policy", list(MissingPolicy))
def test_label_blocks_report_the_first_failing_row(policy):
    # Two rows a block: C, missing June, and D, -5 mm in February, share
    # the second block, and E, inf in January, is the third.  The error
    # policy fails on C; the others pass C and fail on D, not on E's
    # earlier month.
    wet = (250.0,) * 12
    rainfall = [wet, wet, wet[:5] + (None,) + wet[6:], wet[:1] + (-5.0,) + wet[2:],
                (math.inf,) + wet[1:]]
    records = [StationYear(station, "R", 2013, rain)
               for station, rain in zip("ABCDE", rainfall)]
    table = dataset_module.RainfallTable(
        list("ABCDE"), ["R"] * 5, [2013] * 5, list(range(2, 7)),
        np.array([[math.nan if v is None else v for v in rain] for rain in rainfall]))
    expected = ("station 'C' year 2013: missing rainfall for jun"
                if policy is MissingPolicy.ERROR else
                "station 'D' year 2013: feb: rainfall must be nonnegative, got -5.0")
    with mock.patch.object(dataset_module, "_LABEL_ROWS", 2):
        for label in (lambda: label_records(records, policy),
                      lambda: label_table(table, policy)):
            with pytest.raises(DataError) as raised:
                label()
            assert str(raised.value) == expected
    if policy is not MissingPolicy.ERROR:
        # Without D and E, the kept rows are indexed across blocks.
        head = dataset_module.RainfallTable(list("ABC"), ["R"] * 3, [2013] * 3,
                                            [2, 3, 4], table.rainfall[:3])
        with mock.patch.object(dataset_module, "_LABEL_ROWS", 2):
            rows, types = label_table(head, policy)
        assert (rows, types) == label_table(head, policy)
        assert rows == ([0, 1] if policy is MissingPolicy.SKIP_STATION else [0, 1, 2])


def test_parsed_values_are_python_floats():
    text = write_rainfall_file([
        StationYear("A", "R", 2013, (3.0, None) + (250.5,) * 10),
        StationYear("B", "R", 2013, (0.0,) * 12)])
    records = parse_rainfall_file(text)
    table = parse_table(text)
    labeled = (LABELED_HEADER + "\n"
               + "\n".join(f"{line},E" for line in text.splitlines()[1:]) + "\n")
    pairs = parse_labeled_file(labeled)
    datasets = (label_dataset(records), dataset_from_table(table),
                dataset_from_table(parse_table(labeled)))
    values = [v for rec in records for v in rec.rainfall]
    values += [v for rec, _label in pairs for v in rec.rainfall]
    values += [v for row in table.features() for v in row]
    values += [v for ds in datasets for inst in ds.instances for v in inst.features]
    assert values.count(None) == 6
    assert all(type(v) is float for v in values if v is not None)
    assert repr(records[0].rainfall[:2]) == "(3.0, None)"


# parse_table's peak allocation beyond the text it is given, in bytes per
# row, on 20,000 rows in 16 regions with 2% of months missing: 800
# stations of 25 years, or 20,000 stations of one year.  It measures
# about 260 and 330: the table (165, or 215 when no two rows share a
# station), the stations seen per year (about 35) and one chunk of cells
# (about 60 spread over 20,000 rows).  A parse holding a list of every
# line, a key object per row or a second copy of the matrix took about
# 690 on both.
@pytest.mark.parametrize("n_stations, bound", [(800, 350), (20_000, 420)])
def test_parse_memory_is_the_table_and_one_chunk(n_stations, bound):
    rng = random.Random(0)
    years = 20_000 // n_stations
    lines = [HEADER]
    for s in range(n_stations):
        for y in range(years):
            cells = ["" if rng.random() < 0.02 else f"{rng.uniform(0, 400):.1f}"
                     for _ in range(12)]
            lines.append(f"S{s:05d},R{s % 16:02d},{1971 + y}," + ",".join(cells))
    text = "\n".join(lines) + "\n"
    tracemalloc.start()
    try:
        table = parse_table(text)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 20_000
    assert peak <= bound * len(table), f"{peak / len(table):.0f} B/row"
    # Equal values share one object.
    assert len({id(v) for v in table.stations}) == n_stations
    assert len({id(v) for v in table.regions}) == 16
    assert len({id(v) for v in table.years}) == years
    assert table.rainfall.shape == (20_000, 12)
