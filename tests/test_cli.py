import csv
import io
import pathlib

import pytest

from croptree import (ALGORITHMS, StationYear, TrainParams, cli,
                      pattern_for_label, train, write_rainfall_file)
from croptree.cli import main
from croptree.evaluation import INDICATOR_ROWS
from support import make_stations


@pytest.fixture()
def rain_csv(tmp_path, stations75):
    path = tmp_path / "rain.csv"
    path.write_text(write_rainfall_file(stations75), encoding="utf-8")
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
        from croptree.dataset import LABELED_HEADER
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
    @pytest.fixture()
    def model_txt(self, tmp_path, rain_csv):
        path = tmp_path / "model.txt"
        assert main(["train", rain_csv, "-o", str(path),
                     "--algorithm", "gainratio"]) == 0
        return str(path)

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

    def test_labeled_input_reports_holdout_accuracy(self, tmp_path, model_txt,
                                                    capsys):
        records = make_stations(n=10, seed=5, year=2014)
        lines = [write_rainfall_file(records).splitlines()[0] + ",climate_class"]
        from croptree import classify_oldeman
        for rec in records:
            row = write_rainfall_file([rec]).splitlines()[1]
            lines.append(row + "," + classify_oldeman(rec.rainfall).label)
        src = tmp_path / "gold.csv"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["recommend", model_txt, str(src),
                     "-o", str(tmp_path / "r.csv")]) == 0
        out = capsys.readouterr().out
        assert "holdout accuracy:" in out

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
