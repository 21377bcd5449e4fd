import contextlib
import csv
import errno
import functools
import io
import math
import os
import pathlib
import random
import re
import stat
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from croptree import (ALGORITHMS, CLASS_DOMAIN, CroppingPattern, Dataset,
                      LabeledInstance, StationYear, TrainParams, cli,
                      label_dataset, label_records, pattern_for_label,
                      save_model, train, write_rainfall_file)
from croptree.cli import main
from croptree.dataset import LABELED_HEADER, RAINFALL_HEADER
from croptree.evaluation import INDICATOR_ROWS
from support import SRC, make_stations, run_bounded


@pytest.fixture()
def rain_csv(tmp_path, stations75):
    path = tmp_path / "rain.csv"
    path.write_text(write_rainfall_file(stations75), encoding="utf-8")
    return str(path)


@pytest.fixture()
def model_txt(tmp_path, rain_csv):
    path = tmp_path / "model.txt"
    assert main(["train", rain_csv, "-o", str(path),
                 "--algorithm", "gainratio"]) == 0
    return str(path)


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestOldeman:
    def test_writes_rows_and_prints_counts(self, tmp_path, rain_csv, capsys):
        out = tmp_path / "labels.csv"
        assert main(["oldeman", rain_csv, "-o", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["station", "region", "year", "climate_class",
                          "cropping_pattern"]
        assert len(rows) == 75
        counts = capsys.readouterr().out.splitlines()
        assert counts[0].startswith("climate_class,")
        assert counts[-1].startswith("total,")
        assert counts[-1].endswith(",75")
        assert len(counts) == 1 + 14 + 1

    def test_a1_station_row(self, tmp_path):
        record = StationYear("AllWet", "R", 2013, (250.0,) * 12)
        src = tmp_path / "one.csv"
        src.write_text(write_rainfall_file([record]), encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["oldeman", str(src), "-o", str(out)]) == 0
        row = out.read_text(encoding="utf-8").splitlines()[1]
        assert row == 'AllWet,R,2013,A1,"3 short-period PS or 2 PS + 1 PL"'

    def test_data_error_leaves_no_output(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text(
            "station,region,year,jan,feb,mar,apr,may,jun,jul,aug,sep,oct,nov,dec\n"
            "X,R,2013,-5,1,1,1,1,1,1,1,1,1,1,1\n", encoding="utf-8")
        out = tmp_path / "never.csv"
        assert main(["oldeman", str(src), "-o", str(out)]) == 2
        assert not out.exists()
        assert not list(tmp_path.glob("never.csv.*"))

    def test_failed_run_keeps_existing_output(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text(
            "station,region,year,jan,feb,mar,apr,may,jun,jul,aug,sep,oct,nov,dec\n",
            encoding="utf-8")
        out = tmp_path / "labels.csv"
        out.write_text("precious\n", encoding="utf-8")
        assert main(["oldeman", str(src), "-o", str(out)]) == 2
        assert out.read_text(encoding="utf-8") == "precious\n"

    def test_missing_policy_skip(self, tmp_path):
        records = [StationYear("A", "R", 2013, (250.0,) * 12),
                   StationYear("B", "R", 2013, (250.0,) * 11 + (None,))]
        src = tmp_path / "two.csv"
        src.write_text(write_rainfall_file(records), encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["oldeman", str(src), "-o", str(out),
                     "--missing-policy", "skip"]) == 0
        _, rows = _read_csv(out)
        assert [r[0] for r in rows] == ["A"]

    @pytest.mark.parametrize("case", ["all-skipped", "labeled"])
    def test_unusable_input_names_the_file(self, tmp_path, capsys, case):
        records = [StationYear("A", "R", 2013, (250.0,) * 11 + (None,)),
                   StationYear("B", "R", 2013, (None,) * 12)]
        header, *rows = write_rainfall_file(records).splitlines()
        if case == "labeled":
            text = "\n".join([header + ",climate_class"]
                              + [row + ",A1" for row in rows]) + "\n"
            reason = "already labeled; expected a raw rainfall file"
        else:
            text = "\n".join([header] + rows) + "\n"
            reason = "all stations were skipped by the missing-data policy"
        src = tmp_path / "in.csv"
        src.write_text(text, encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["oldeman", str(src), "-o", str(out),
                     "--missing-policy", "skip"]) == 2
        assert capsys.readouterr().err == f"error: {src}: {reason}\n"
        assert not out.exists()
        assert not list(tmp_path.glob("out.csv.*"))

    @pytest.mark.parametrize("kind", ["raw", "labeled"])
    def test_byte_order_mark_is_ignored(self, tmp_path, capsys, rain_csv, kind):
        # Excel's "CSV UTF-8" export starts the file with U+FEFF.  With it,
        # oldeman labels a raw file to the same bytes and refuses a labeled
        # one as already labeled, and train writes the same model.
        plain = pathlib.Path(rain_csv)
        if kind == "labeled":
            labels = tmp_path / "labels.csv"
            assert main(["oldeman", rain_csv, "-o", str(labels)]) == 0
            _, rows = _read_csv(labels)
            header, *lines = plain.read_text(encoding="utf-8").splitlines()
            plain = tmp_path / "labeled.csv"
            plain.write_text("\n".join([header + ",climate_class"] + [
                f"{line},{row[3]}" for line, row in zip(lines, rows)]) + "\n",
                encoding="utf-8")
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())

        def run(src):
            out = tmp_path / f"{src.stem}.out.csv"
            model = tmp_path / f"{src.stem}.model"
            code = main(["oldeman", str(src), "-o", str(out)])
            err = capsys.readouterr().err.replace(str(src), "<input>")
            assert main(["train", str(src), "-o", str(model),
                         "--algorithm", "gainratio"]) == 0
            return (code, err, out.read_bytes() if out.exists() else None,
                    model.read_bytes())

        expected = run(plain)
        assert expected[0] == (0 if kind == "raw" else 2)
        assert run(marked) == expected

    def test_missing_policy_error(self, tmp_path):
        records = [StationYear("B", "R", 2013, (250.0,) * 11 + (None,))]
        src = tmp_path / "two.csv"
        src.write_text(write_rainfall_file(records), encoding="utf-8")
        assert main(["oldeman", str(src), "-o", str(tmp_path / "o.csv"),
                     "--missing-policy", "error"]) == 2


class TestTrain:
    @pytest.mark.parametrize("algorithm", ["gainratio", "randomsubset"])
    def test_deterministic_model_files(self, tmp_path, rain_csv, capsys,
                                       algorithm):
        first = tmp_path / "m1.txt"
        second = tmp_path / "m2.txt"
        argv = [rain_csv, "--algorithm", algorithm, "--seed", "1"]
        assert main(["train"] + argv + ["-o", str(first)]) == 0
        assert main(["train"] + argv + ["-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        out = capsys.readouterr().out
        assert "tree size:" in out and "training accuracy:" in out

    def test_training_accuracy_is_the_resubstitution_accuracy(
            self, tmp_path, stations75, capsys):
        """``train`` scores its model with predict_rows on the dataset's
        matrix, ``compare --resubstitution`` with predict row by row.  One
        month in six is missing and one label in four is noise, so no
        learner fits every row and missing values are routed."""
        rng = random.Random(75)
        lines = [LABELED_HEADER]
        for rec, climate in label_records(stations75):
            line = write_rainfall_file([rec]).splitlines()[1].split(",")
            line[3:] = ["" if rng.random() < 1 / 6 else cell for cell in line[3:]]
            label = rng.choice(CLASS_DOMAIN) if rng.random() < 0.25 else climate.label
            lines.append(",".join(line + [label]))
        noisy = tmp_path / "noisy.csv"
        noisy.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["compare", str(noisy), "--resubstitution"]) == 0
        header, accuracy_row = capsys.readouterr().out.splitlines()[:2]
        assert accuracy_row.startswith(INDICATOR_ROWS[0] + ",")
        expected = dict(zip(header.split(",")[1:], accuracy_row.split(",")[1:]))
        assert set(expected) == set(ALGORITHMS)
        for algorithm in ALGORITHMS:
            assert main(["train", str(noisy), "-o", str(tmp_path / "m.txt"),
                         "--algorithm", algorithm]) == 0
            printed = capsys.readouterr().out.splitlines()
            assert printed[1] == f"training accuracy: {expected[algorithm]}%"

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_no_learner_flags_trains_with_default_params(
            self, tmp_path, rain_csv, monkeypatch, algorithm):
        seen = []

        def spy(dataset, params):
            seen.append(params)
            return train(dataset, params)

        monkeypatch.setattr(cli, "train", spy)
        assert main(["train", rain_csv, "-o", str(tmp_path / "m.txt"),
                     "--algorithm", algorithm]) == 0
        assert seen == [TrainParams(algorithm)]

    def test_one_class_input_gives_single_leaf_model(self, tmp_path):
        records = [StationYear(f"S{i}", "R", 2013,
                               tuple(250.0 + i + j for j in range(12)))
                   for i in range(4)]
        src = tmp_path / "one_class.csv"
        src.write_text(write_rainfall_file(records), encoding="utf-8")
        out = tmp_path / "model.txt"
        assert main(["train", str(src), "-o", str(out),
                     "--algorithm", "gainratio"]) == 0
        body = out.read_text(encoding="utf-8").split("tree:\n", 1)[1]
        assert body == ": A1 (4/0)\n"

    def test_k_exceeding_attributes_is_usage_error(self, tmp_path, rain_csv):
        out = tmp_path / "model.txt"
        code = main(["train", rain_csv, "-o", str(out),
                     "--algorithm", "randomsubset", "--k", "20"])
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("algorithm, flags", [
        ("reducederror", ["--no-prune"]),
        ("gainratio", ["--k", "3"]),
        ("randomsubset", ["--min-leaf", "50"]),
    ])
    def test_flag_of_another_learner_is_usage_error(self, tmp_path, rain_csv,
                                                    capsys, algorithm, flags):
        out = tmp_path / "model.txt"
        argv = ["-o", str(out), "--algorithm", algorithm] + flags
        assert main(["train", rain_csv] + argv) == 1
        assert capsys.readouterr().err == (
            f"error: {flags[0]} does not apply to {algorithm}\n")
        assert not out.exists()
        # checked before the input is read
        assert main(["train", str(tmp_path / "nope.csv")] + argv) == 1

    def test_k_auto_is_the_default(self, tmp_path, rain_csv):
        auto, default = tmp_path / "auto.txt", tmp_path / "default.txt"
        argv = ["train", rain_csv, "--algorithm", "randomsubset", "-o"]
        assert main(argv + [str(auto), "--k", "auto"]) == 0
        assert main(argv + [str(default)]) == 0
        assert auto.read_bytes() == default.read_bytes()

    def test_k_not_a_number_is_usage_error(self, tmp_path, rain_csv, capsys):
        assert main(["train", rain_csv, "-o", str(tmp_path / "m.txt"),
                     "--algorithm", "randomsubset", "--k", "x"]) == 1
        assert "k must be an integer or 'auto', got 'x'" in capsys.readouterr().err

    def test_unknown_algorithm_is_usage_error(self, tmp_path, rain_csv):
        assert main(["train", rain_csv, "-o", str(tmp_path / "m.txt"),
                     "--algorithm", "c5"]) == 1

    def test_missing_policy_error_names_the_file(self, tmp_path, capsys):
        records = [StationYear("A", "R", 2013, (250.0,) * 12),
                   StationYear("B", "R", 2013, (250.0,) * 11 + (None,))]
        src = tmp_path / "gaps.csv"
        src.write_text(write_rainfall_file(records), encoding="utf-8")
        out = tmp_path / "m.txt"
        assert main(["train", str(src), "-o", str(out), "--algorithm",
                     "gainratio", "--missing-policy", "error"]) == 2
        assert capsys.readouterr().err == (
            f"error: {src}: station 'B' year 2013: missing rainfall for dec\n")
        assert not out.exists()

    def test_header_only_labeled_file_is_data_error(self, tmp_path, capsys):
        from croptree.dataset import LABELED_HEADER, RAINFALL_HEADER
        src = tmp_path / "labeled.csv"
        src.write_text(LABELED_HEADER + "\n", encoding="utf-8")
        assert main(["train", str(src), "-o", str(tmp_path / "m.txt"),
                     "--algorithm", "gainratio"]) == 2
        assert capsys.readouterr().err == f"error: {src}: no labeled records\n"

    def test_labeled_input_trains_directly(self, tmp_path, rain_csv):
        labels = tmp_path / "labeled.csv"
        assert main(["oldeman", rain_csv, "-o", str(tmp_path / "x.csv")]) == 0
        # build a labeled training file from the raw one
        raw = (tmp_path / "x.csv").read_text(encoding="utf-8").splitlines()[1:]
        by_station = {line.split(",")[0]: line.split(",")[3] for line in raw}
        rain_lines = pathlib.Path(rain_csv).read_text(encoding="utf-8").splitlines()
        out_lines = [rain_lines[0] + ",climate_class"]
        for line in rain_lines[1:]:
            out_lines.append(line + "," + by_station[line.split(",")[0]])
        labels.write_text("\n".join(out_lines) + "\n", encoding="utf-8")
        model_a = tmp_path / "a.txt"
        model_b = tmp_path / "b.txt"
        assert main(["train", str(labels), "-o", str(model_a),
                     "--algorithm", "gainratio"]) == 0
        assert main(["train", rain_csv, "-o", str(model_b),
                     "--algorithm", "gainratio"]) == 0
        assert model_a.read_bytes() == model_b.read_bytes()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("lo, hi", ((1.0000000000000002, 1.0000000000000004),
                                        (1.6e308, 1.7e308)))
    def test_neighbouring_values_train_within_bounds(self, tmp_path, algorithm,
                                                     lo, hi):
        # Their plain midpoint is no threshold between them (it rounds onto
        # hi, or overflows), and training once looped until memory ran out.
        src = tmp_path / "labeled.csv"
        rows = [f"S{i},R,2013,{jan!r}," + ",".join(["150"] * 11) + f",{label}"
                for i, (jan, label) in enumerate(((lo, "E"), (lo, "E"),
                                                  (hi, "A1"), (hi, "A1")))]
        src.write_text("\n".join([LABELED_HEADER, *rows]) + "\n", encoding="utf-8")
        out = tmp_path / "model.txt"
        done = run_bounded(["-m", "croptree.cli", "train", str(src), "-o",
                            str(out), "--algorithm", algorithm])
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
        assert out.exists()

    def test_train_loads_no_scipy(self, tmp_path, rain_csv):
        # Pruning's bound is computed in croptree itself; a fresh process
        # that trains a pruned tree must not import scipy on the way.
        code = ("import sys\n"
                "from croptree.cli import main\n"
                f"assert main(['train', {rain_csv!r}, '-o', "
                f"{str(tmp_path / 'm.txt')!r}, '--algorithm', 'gainratio']) == 0\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        done = run_bounded(["-c", code])
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_cli_import_leaves_the_lazy_imports_alone(self):
        # statistics (in croptree._beta) and multiprocessing and concurrent
        # (in evaluation._fold_pool) are imported only where they are used,
        # which keeps every command's start-up short.
        code = ("import sys\n"
                "import croptree.cli\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] in "
                "('statistics', 'multiprocessing', 'concurrent')))\n")
        done = run_bounded(["-c", code])
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_no_prune_flag_trains_unpruned_gainratio(self, tmp_path, rain_csv):
        out = tmp_path / "model.txt"
        assert main(["train", rain_csv, "-o", str(out), "--algorithm",
                     "gainratio", "--no-prune"]) == 0
        params = out.read_text(encoding="utf-8").splitlines()[4]
        assert params == "params: min_leaf=2 confidence_factor=0.25 prune=false seed=1"


def _csv_rows(path):
    # read_text() would turn a quoted carriage return into a line feed
    return list(csv.reader(io.StringIO(path.read_bytes().decode("utf-8"))))


class TestCsvQuoting:
    STATION = '"Halim'
    REGION = 'Jakarta "Raya"'

    @pytest.fixture()
    def quoted_csv(self, tmp_path):
        records = [StationYear(self.STATION, self.REGION, 2013, (250.0,) * 12),
                   StationYear("Plain", "R", 2013, (50.0,) * 12),
                   StationYear("Line\rBreak", "R", 2013, (50.0,) * 12)]
        path = tmp_path / "quoted.csv"
        path.write_text(write_rainfall_file(records), encoding="utf-8")
        return str(path)

    def test_oldeman_rows_and_count_header(self, tmp_path, quoted_csv, capsys):
        out = tmp_path / "labels.csv"
        assert main(["oldeman", quoted_csv, "-o", str(out)]) == 0
        rows = _csv_rows(out)
        assert rows[1][:3] == [self.STATION, self.REGION, "2013"]
        assert len(rows[1]) == 5
        assert [row[0] for row in rows[2:]] == ["Plain", "Line\rBreak"]
        counts = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert counts[0] == ["climate_class", self.REGION, "R", "total"]

    def test_recommend_rows(self, tmp_path, rain_csv, quoted_csv):
        model = tmp_path / "model.txt"
        assert main(["train", rain_csv, "-o", str(model),
                     "--algorithm", "gainratio"]) == 0
        out = tmp_path / "recs.csv"
        assert main(["recommend", str(model), quoted_csv, "-o", str(out)]) == 0
        rows = _csv_rows(out)
        assert rows[1][:2] == [self.STATION, self.REGION]
        assert len(rows[1]) == 5
        assert rows[2][:2] == ["Plain", "R"]
        assert rows[3][:2] == ["Line\rBreak", "R"]


class TestCompare:
    def test_table_shape_and_parseback(self, tmp_path, rain_csv):
        out = tmp_path / "table.csv"
        assert main(["compare", rain_csv, "--cv", "5", "-o", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["indicator", "gainratio", "randomsubset",
                          "reducederror"]
        assert [r[0] for r in rows] == list(INDICATOR_ROWS)
        assert all(len(r) == 4 for r in rows)

    def test_separable_data_scores_high(self, tmp_path, rain_csv):
        out = tmp_path / "table.csv"
        assert main(["compare", rain_csv, "--cv", "10", "-o", str(out)]) == 0
        _, rows = _read_csv(out)
        accuracies = [float(v) for v in rows[0][1:]]
        assert all(a >= 90.0 for a in accuracies)

    def test_cv_below_two_is_usage_error(self, rain_csv):
        assert main(["compare", rain_csv, "--cv", "1"]) == 1

    def test_resubstitution_flag(self, rain_csv, capsys):
        assert main(["compare", rain_csv, "--resubstitution",
                     "--algorithms", "gainratio"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "indicator,gainratio"
        assert float(out[1].split(",")[1]) >= 95.0

    def test_unknown_algorithm_rejected(self, rain_csv):
        assert main(["compare", rain_csv, "--algorithms", "gainratio,c5"]) == 1

    def test_no_algorithm_named_is_usage_error(self, rain_csv, capsys):
        assert main(["compare", rain_csv, "--algorithms", ","]) == 1
        assert capsys.readouterr().err == "error: no algorithms requested\n"


class TestRecommend:
    def test_rows_and_pattern_consistency(self, tmp_path, model_txt, capsys):
        test_records = make_stations(n=12, seed=99, year=2014)
        src = tmp_path / "next_year.csv"
        src.write_text(write_rainfall_file(test_records), encoding="utf-8")
        out = tmp_path / "recs.csv"
        assert main(["recommend", model_txt, str(src), "-o", str(out)]) == 0
        text = out.read_text(encoding="utf-8").splitlines()
        assert text[0] == "station,region,climate_class,cropping_pattern,data_status"
        for line in text[1:]:
            prefix, _, rest = line.partition(',"')
            pattern, _, status = rest.partition('",')
            cls = prefix.split(",")[2]
            assert pattern == pattern_for_label(cls).display
            assert status == "complete"

    def test_all_missing_station_flagged_incomplete(self, tmp_path, model_txt):
        records = [StationYear("EMPTY", "Banten", 2014, (None,) * 12)]
        src = tmp_path / "gaps.csv"
        src.write_text(write_rainfall_file(records), encoding="utf-8")
        out = tmp_path / "recs.csv"
        assert main(["recommend", model_txt, str(src), "-o", str(out)]) == 0
        row = out.read_text(encoding="utf-8").splitlines()[1]
        assert row.startswith("EMPTY,Banten,")
        assert row.endswith(",incomplete")

    def test_complete_only_drops_gappy_stations(self, tmp_path, model_txt):
        records = [StationYear("FULL", "R", 2014, (250.0,) * 12),
                   StationYear("GAPPY", "R", 2014, (250.0,) * 11 + (None,))]
        src = tmp_path / "mix.csv"
        src.write_text(write_rainfall_file(records), encoding="utf-8")
        out = tmp_path / "recs.csv"
        assert main(["recommend", model_txt, str(src), "-o", str(out),
                     "--complete-only"]) == 0
        _, rows = _read_csv(out)
        assert [r[0] for r in rows] == ["FULL"]

    @pytest.fixture()
    def gold_csv(self, tmp_path):
        """Ten station-years with their Oldeman labels."""
        records = make_stations(n=10, seed=5, year=2014)
        lines = [write_rainfall_file(records).splitlines()[0] + ",climate_class"]
        from croptree import classify_oldeman
        for rec in records:
            row = write_rainfall_file([rec]).splitlines()[1]
            lines.append(row + "," + classify_oldeman(rec.rainfall).label)
        src = tmp_path / "gold.csv"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(src)

    def test_labeled_input_reports_holdout_accuracy(self, tmp_path, model_txt,
                                                    gold_csv, capsys):
        assert main(["recommend", model_txt, gold_csv,
                     "-o", str(tmp_path / "r.csv")]) == 0
        out = capsys.readouterr().out
        assert "holdout accuracy:" in out

    def test_csv_on_stdout_keeps_the_accuracy_off_it(self, model_txt, gold_csv,
                                                    capsys):
        assert main(["recommend", model_txt, gold_csv]) == 0
        captured = capsys.readouterr()
        rows = list(csv.reader(io.StringIO(captured.out)))
        assert len(rows) == 11
        assert all(len(row) == 5 for row in rows)
        assert re.fullmatch(r"holdout accuracy: \d+\.\d\d% \(\d+/10\)\n",
                            captured.err)

    def test_complete_only_with_every_station_gappy(self, tmp_path, model_txt,
                                                    capsys):
        records = [StationYear("GAPPY", "R", 2014, (250.0,) * 11 + (None,)),
                   StationYear("EMPTY", "R", 2014, (None,) * 12)]
        src = tmp_path / "gaps.csv"
        src.write_text(write_rainfall_file(records), encoding="utf-8")
        out = tmp_path / "recs.csv"
        assert main(["recommend", model_txt, str(src), "-o", str(out),
                     "--complete-only"]) == 2
        assert capsys.readouterr().err == f"error: {src}: no stations to classify\n"
        assert not out.exists()

    def test_foreign_model_domain_is_data_error(self, tmp_path, rain_csv):
        import random as _random

        from croptree import TrainParams, save_model, train
        from support import random_dataset
        ds = random_dataset(_random.Random(1), max_instances=10, n_attrs=2)
        foreign = tmp_path / "foreign.txt"
        foreign.write_bytes(save_model(train(ds, TrainParams("gainratio"))))
        assert main(["recommend", str(foreign), rain_csv]) == 2

    def test_corrupt_model_is_data_error(self, tmp_path, rain_csv, model_txt):
        crippled = tmp_path / "broken.txt"
        crippled.write_bytes(pathlib.Path(model_txt).read_bytes()[:-10])
        assert main(["recommend", str(crippled), rain_csv]) == 2

    def test_bad_model_number_names_the_file_and_line(self, tmp_path, rain_csv,
                                                      model_txt, capsys):
        lines = pathlib.Path(model_txt).read_text(encoding="utf-8").split("\n")
        # line 7 is the root's "<=" branch, whose threshold becomes text
        lines[6], found = re.subn(r"^(\S+ <= )[^\s:]+", r"\1abc", lines[6])
        assert found == 1
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines), encoding="utf-8")
        assert main(["recommend", str(bad), rain_csv]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: line 7: bad threshold 'abc'\n")


class _FullDisk:
    """An output file whose writes after the first fail with ENOSPC."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.fh.write(data)


class TestStreamedOutput:
    """oldeman and recommend write their CSV a block of lines at a time
    (10 lines a block here, so the 75-station file takes several)."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(cli, "_BLOCK_LINES", 10)

    @pytest.mark.parametrize("command", ["oldeman", "recommend"])
    def test_write_error_after_the_first_block(self, tmp_path, rain_csv,
                                               model_txt, monkeypatch, capsys,
                                               command):
        out = tmp_path / "out.csv"
        out.write_bytes(b"precious\n")
        files = []
        fdopen = os.fdopen

        def full_disk(fd, *args, **kwargs):
            files.append(_FullDisk(fdopen(fd, *args, **kwargs)))
            return files[-1]

        monkeypatch.setattr(os, "fdopen", full_disk)
        inputs = [rain_csv] if command == "oldeman" else [model_txt, rain_csv]
        assert main([command, *inputs, "-o", str(out)]) == 2
        assert [f.writes for f in files] == [2]
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n"
        assert out.read_bytes() == b"precious\n"
        assert not list(tmp_path.glob("*.tmp"))

    def test_recommend_prints_the_bytes_it_writes(self, tmp_path, rain_csv,
                                                 model_txt, capsys):
        out = tmp_path / "recs.csv"
        assert main(["recommend", model_txt, rain_csv, "-o", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["recommend", model_txt, rain_csv]) == 0
        printed = capsys.readouterr().out
        assert printed.encode("utf-8") == out.read_bytes()
        assert printed.count("\n") == 76


def _output_argv(command, rain_csv, model_txt, out):
    """argv of ``command`` writing its file output to ``out``."""
    return {"oldeman": ["oldeman", rain_csv],
            "train": ["train", rain_csv, "--algorithm", "gainratio"],
            "recommend": ["recommend", model_txt, rain_csv],
            "compare": ["compare", rain_csv, "--resubstitution"],
            }[command] + ["-o", str(out)]


@pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
@pytest.mark.parametrize("command", ["oldeman", "train", "recommend", "compare"])
class TestOutputModes:
    """An output file gets the mode ``open`` would give it, not the
    private mode of the temporary file it is written through."""

    @pytest.fixture(autouse=True)
    def umask_022(self):
        umask = os.umask(0o022)
        yield
        os.umask(umask)

    def test_new_output_is_0666_less_the_umask(self, tmp_path, rain_csv,
                                               model_txt, capsys, command):
        out = tmp_path / "out"
        assert main(_output_argv(command, rain_csv, model_txt, out)) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o644

    def test_rewritten_output_keeps_its_mode(self, tmp_path, rain_csv,
                                             model_txt, capsys, command):
        out = tmp_path / "out"
        out.write_bytes(b"old\n")
        out.chmod(0o640)
        assert main(_output_argv(command, rain_csv, model_txt, out)) == 0
        assert out.read_bytes() != b"old\n"
        assert stat.S_IMODE(out.stat().st_mode) == 0o640


@pytest.mark.parametrize("lines_read", [0, 1])
def test_closed_stdout_exits_1_without_a_traceback(tmp_path, model_txt,
                                                   lines_read):
    # 20,000 recommendations are far more than a pipe buffer holds, so the
    # command is still writing when its reader leaves.  A reader that leaves
    # at once (``| head -n 0``) leaves the header in stdout's buffer.
    cells = ",".join(["250"] * 12)
    src = tmp_path / "many.csv"
    src.write_text(RAINFALL_HEADER + "\n" + "".join(
        f"S{i},R,2013,{cells}\n" for i in range(20_000)), encoding="utf-8")
    # Without PYTHONUNBUFFERED stdout keeps a buffer, which the interpreter
    # flushes once more at exit, as it does for a user.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "croptree.cli", "recommend", model_txt, str(src)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(env, PYTHONPATH=str(SRC)))
    try:
        for _ in range(lines_read):
            assert proc.stdout.readline().startswith(b"station,region,")
        proc.stdout.close()
        proc.stdout = None  # communicate() reads stderr alone
        _out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (1, b"")


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "oldeman" in capsys.readouterr().out

    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["oldeman", str(tmp_path / "nope.csv"),
                     "-o", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read {tmp_path / 'nope.csv'}: No such file or directory\n")

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_unwritable_output_is_data_error(self, tmp_path, rain_csv, capsys,
                                             command):
        if command == "train":
            out = tmp_path / "a_directory"
            out.mkdir()
            argv = ["train", rain_csv, "--algorithm", "gainratio", "-o", str(out)]
        else:
            out = tmp_path / "missing" / "t.csv"
            argv = ["compare", rain_csv, "--cv", "2", "-o", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        reason = "Is a directory" if command == "train" else "No such file or directory"
        assert err == f"error: cannot write {out}: {reason}\n"
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("*.tmp"))


# ---------------------------------------------------------------------------
# The CLI as a total function: random argv over the four commands, with
# rainfall and model files mutated, always exits 0, 1 or 2 without raising,
# and a failed run leaves neither its output file nor a temporary sibling.

# Finite, nonnegative or missing cells: adjacent doubles (100 and the next
# one up), the two largest finite doubles, an empty cell.
GOOD_CELLS = ("0", "55.5", "150", "250.25", "100", repr(math.nextafter(100.0, 200.0)),
              "1.7976931348623155e308", "1.7976931348623157e308", "")
# Cells no rainfall file may hold, at most a few to a file.
BAD_CELLS = ("nan", "inf", "-inf", "-1", "1.8e308", "1e309", "x", "1,2")

POLICIES = ("zerofill", "skip", "error", "nope")
B3_PATTERNS = tuple(c.value for c in CroppingPattern) + ("nope",)
FLAGS = {
    "oldeman": (("--missing-policy", POLICIES), ("--b3-pattern", B3_PATTERNS)),
    "train": (("--min-leaf", ("1", "2", "0", "x")),
              ("--confidence-factor", ("0.25", "0.5", "0")),
              ("--no-prune", None), ("--k", ("auto", "3", "0", "13")),
              ("--prune-folds", ("3", "2", "1")), ("--seed", ("0", "7", "-3")),
              ("--missing-policy", POLICIES)),
    "compare": (("--algorithms", ("gainratio", "randomsubset,reducederror",
                                  "nope", ",", "gainratio,gainratio")),
                ("--cv", ("2", "3", "10", "0", "1000")),
                ("--resubstitution", None), ("--seed", ("0", "7", "-3")),
                ("--missing-policy", POLICIES)),
    "recommend": (("--complete-only", None), ("--b3-pattern", B3_PATTERNS)),
}
MODEL_EDITS = ("keep",) * 4 + ("cut", "byte", "line", "foreign", "empty", "missing")


@functools.cache
def _models():
    """A rainfall-pipeline model and one over other attributes and classes."""
    own = train(label_dataset(make_stations(n=12, seed=3)),
                TrainParams("gainratio", min_leaf=1))
    other = Dataset(("a0",), ("X", "Y"), (LabeledInstance((1.0,), "X"),
                                          LabeledInstance((2.0,), "Y")))
    return save_model(own), save_model(train(other, TrainParams("gainratio", min_leaf=1)))


@st.composite
def rainfall_texts(draw):
    """A well-formed rainfall file, raw or labeled, then up to three edits."""
    labeled = draw(st.booleans())
    rows = []
    for i in range(draw(st.integers(0, 8))):
        cells = [f"S{i}", draw(st.sampled_from(("R", "Banten"))),
                 draw(st.sampled_from(("2013", "2014")))]
        cells += draw(st.lists(st.sampled_from(GOOD_CELLS), min_size=12, max_size=12))
        if labeled:
            cells.append(draw(st.sampled_from(("A1", "C3", "E"))))
        rows.append(cells)
    lines = [LABELED_HEADER if labeled else RAINFALL_HEADER]
    lines += [",".join(row) for row in rows]
    for _ in range(draw(st.sampled_from((0, 0, 0, 0, 1, 2, 3)))):
        i = draw(st.integers(0, len(lines) - 1))
        cells = lines[i].split(",")
        j = draw(st.integers(0, len(cells) - 1))
        edit = draw(st.sampled_from(("cell", "cell", "drop", "add", "label", "copy")))
        if edit == "cell":
            cells[j] = draw(st.sampled_from(BAD_CELLS + ("", "-0.0", "2013")))
        elif edit == "drop":
            del cells[j]
        elif edit == "add":
            cells.insert(j, draw(st.sampled_from(GOOD_CELLS)))
        elif edit == "label":
            cells[-1] = draw(st.sampled_from(("Z9", "", "climate_class")))
        lines[i] = ",".join(cells)
        if edit == "copy":
            lines.append(lines[i])
    return "\n".join(lines) + "\n"


def _model_bytes(edit, position, char):
    """The pipeline model after ``edit``; None for no file at all."""
    own, foreign = _models()
    if edit == "cut":
        return own[:position % len(own)]
    if edit == "byte":
        i = position % len(own)
        return own[:i] + char + own[i + 1:]
    if edit == "line":
        lines = own.split(b"\n")
        del lines[position % len(lines)]
        return b"\n".join(lines)
    return {"keep": own, "foreign": foreign, "empty": b"", "missing": None}[edit]


MODEL_FILES = st.builds(_model_bytes, st.sampled_from(MODEL_EDITS),
                        st.integers(0, 10**6),
                        st.sampled_from([bytes([c]) for c in b"x:| \n9-"]))


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_cli_exits_0_1_or_2_and_leaves_no_output_on_failure(data):
    command = data.draw(st.sampled_from(sorted(FLAGS)))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        rain = tmp / "rain.csv"
        rain.write_text(data.draw(rainfall_texts()), encoding="utf-8")
        rain = data.draw(st.sampled_from((rain,) * 6 + (tmp / "nope.csv", tmp)))
        argv = [command, str(rain)]
        if command == "recommend":
            model = tmp / "model.txt"
            text = data.draw(MODEL_FILES)
            if text is not None:
                model.write_bytes(text)
            argv.insert(1, str(model))
        if command == "train" and data.draw(st.integers(0, 9)):
            argv += ["--algorithm", data.draw(st.sampled_from(ALGORITHMS + ("nope",)))]
        for flag, values in data.draw(st.lists(st.sampled_from(FLAGS[command]),
                                               max_size=3, unique=True)):
            argv += [flag] if values is None else [flag, data.draw(st.sampled_from(values))]
        out = data.draw(st.sampled_from((tmp / "out.txt",) * 4
                                        + (tmp / "no" / "out.txt", None)))
        if out is not None:
            argv += ["-o", str(out)]

        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), argv
        if out is not None:
            assert out.exists() == (code == 0), argv
        assert not list(tmp.rglob("*.tmp")), argv
