import io
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from croptree import (CLASS_DOMAIN, DataError, Dataset, LabeledInstance,
                      MONTH_NAMES, MissingPolicy, StationYear,
                      complete_subset, count_by_type_region,
                      dataset_from_pairs, label_dataset, label_records,
                      parse_labeled_file, parse_rainfall_file,
                      stratified_folds, write_rainfall_file)
from croptree.dataset import LABELED_HEADER, RAINFALL_HEADER, sniff_labeled

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
        pairs = parse_labeled_file(text)
        assert pairs[0][1] == "A1"

    def test_labeled_file_rejects_unknown_class(self):
        text = (HEADER + ",climate_class\n"
                + "X,R,2013," + ",".join(["250"] * 12) + ",Z9\n")
        with pytest.raises(DataError, match="unknown climate class"):
            parse_labeled_file(text)


def test_roundtrip_parse_write_parse(stations75):
    with_missing = list(stations75)
    with_missing.append(StationYear("GAPPY", "Banten", 2013,
                                    (None, 120.5, None) + (80.0,) * 9))
    text = write_rainfall_file(with_missing)
    reparsed = parse_rainfall_file(text)
    assert reparsed == with_missing
    assert write_rainfall_file(reparsed) == text


def test_write_rejects_embedded_commas():
    record = StationYear("a,b", "R", 2013, (1.0,) * 12)
    with pytest.raises(ValueError):
        write_rainfall_file([record])


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
        with pytest.raises(DataError):
            label_dataset([])

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

    def test_all_skipped_is_an_error(self):
        gappy = StationYear("B", "R", 2013, (None,) * 12)
        with pytest.raises(DataError):
            label_dataset([gappy], MissingPolicy.SKIP_STATION)


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
    with pytest.raises(ValueError):
        Dataset(MONTH_NAMES, CLASS_DOMAIN,
                (LabeledInstance((1.0,) * 12, "A1", weight=0.0),))


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

_LINE_MUTATIONS = ("drop", "duplicate", "swap", "truncate", "rewrite")


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_rainfall_csv_parses_or_raises_data_error(data):
    """Rainfall files, plain or labeled, with a column dropped or
    duplicated (in every line or in one, header included), two characters
    of a line swapped, a line cut short, or one cell rewritten, either
    parse, and then label, or raise DataError; never any other exception."""
    labeled = data.draw(st.booleans())
    lines = list(_LABELED_LINES if labeled else _PLAIN_LINES)
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
            else:
                lines[k] = line[:data.draw(st.integers(0, len(line)))]
    text = "\n".join(lines) + "\n"
    try:
        if labeled:
            records = [record for record, _label in parse_labeled_file(text)]
        else:
            records = parse_rainfall_file(text)
        label_records(records)
    except DataError:
        pass
