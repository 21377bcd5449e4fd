"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (run
with ``pytest -s`` to see them as they happen).  Property suites run at
least 500 randomized cases each; the oracle-equivalence suite is an
exhaustive enumeration with a 60 second budget.
"""

import contextlib
import itertools
import math
import random
import time

import pytest

import oracle
import reference_data
from croptree import (CLASS_DOMAIN, ConfusionMatrix, Dataset, LabeledInstance,
                      StationYear, TrainParams, accuracy, categorize_month,
                      classify_oldeman, compare, entropy, gain_ratio,
                      info_gain, kappa, load_model, pattern_for_label, predict,
                      probabilistic_errors, run_summary, save_model,
                      split_candidates, stratified_folds, train, tree_size,
                      write_rainfall_file)
from croptree.cli import main
from croptree.trees import (Internal, _columns, _grow_max_gain,
                            _reduced_error_prune)
from support import make_stations, random_dataset, random_feature_vector


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] FAIL {name}")
        raise
    print(f"[acceptance] PASS {name}")


def test_criterion_1_pattern_table_replay():
    with criterion("1 cropping-pattern table replay"):
        start = time.perf_counter()
        for label, expected in reference_data.CANONICAL_PATTERNS.items():
            assert pattern_for_label(label).display == expected
        assert len(reference_data.CANONICAL_PATTERNS) == 14
        assert time.perf_counter() - start < 1.0


def test_criterion_2_reference_recommendations_replay():
    with criterion("2 station recommendation replay (11 DKI + 64 Banten)"):
        start = time.perf_counter()
        table = (reference_data.DKI_RECOMMENDATIONS
                 + reference_data.BANTEN_RECOMMENDATIONS)
        assert len(reference_data.DKI_RECOMMENDATIONS) == 11
        assert len(reference_data.BANTEN_RECOMMENDATIONS) == 64
        for station, label, published in table:
            produced = pattern_for_label(label).display
            assert produced == reference_data.normalize_pattern(published), station
        by_station = dict((s, c) for s, c, _p in table[:11])
        assert by_station["Pakubuwono"] == "A2"
        assert pattern_for_label("A2").display == \
            "3 short-period PS or 2 PS + 1 PL"
        assert pattern_for_label(by_station["Halim"]).display == "2 PS + 1 PL"
        assert time.perf_counter() - start < 1.0


def test_criterion_3_metric_arithmetic():
    with criterion("3 accuracy arithmetic on reported counts"):
        cases = [
            (36, 75, 48.00),
            (13, 75, 17.33),
            (9, 75, 12.00),
            (11, 75, 14.67),
            (13, 51, 25.49),
            (9, 51, 17.65),
            (11, 51, 21.57),
        ]
        for correct, total, expected in cases:
            pairs = [(0, 0)] * correct + [(0, 1)] * (total - correct)
            matrix = ConfusionMatrix.from_pairs(("X", "Y"), pairs)
            assert abs(accuracy(matrix) - expected) <= 0.01 + 1e-9, (correct, total)


def test_criterion_4_historical_indicator_values_out_of_reach():
    with criterion("4 historical indicator values: not reproducible, "
                   "substituted by criteria 5-8"):
        # The kappa/error/size figures reported for the original
        # 75-station network depend on source data and toolkit seeds that
        # are not available, so no equivalence check is possible here.
        # Criteria 5-8 cover the implementation instead.
        pass


def test_criterion_5_exhaustive_bruteforce_equivalence():
    with criterion("5 gain-ratio learner equals brute-force oracle "
                   "(exhaustive, <60s)"):
        start = time.perf_counter()
        values = (0.0, 100.0, 300.0)
        classes = ("X", "Y", "Z")
        types = [(x0, x1, c) for x0 in values for x1 in values
                 for c in range(3)]
        instances = {t: LabeledInstance((t[0], t[1]), classes[t[2]])
                     for t in types}
        params = TrainParams("gainratio", min_leaf=1, prune=False, seed=1)
        checked = 0
        for size in range(1, 6):
            for combo in itertools.combinations_with_replacement(types, size):
                ds = Dataset(("a", "b"), classes,
                             tuple(instances[t] for t in combo))
                model = train(ds, params)
                ref = oracle.grow(combo, 2, 3)
                assert oracle.matches(model.root, ref), \
                    f"{combo}\n{oracle.describe(ref)}"
                checked += 1
        assert checked == 201_375
        assert time.perf_counter() - start < 60.0


# --- criterion 6: property suites, >= 500 randomized cases each ------------

CASES = 500


def test_criterion_6a_entropy_and_gain_bounds():
    with criterion("6a entropy and gain bounds (500 cases)"):
        rng = random.Random(601)
        for _ in range(CASES):
            n_classes = rng.randint(2, 14)
            counts = [rng.uniform(0.0, 10.0) if rng.random() < 0.8 else 0.0
                      for _ in range(n_classes)]
            if sum(counts) > 0:
                h = entropy(counts)
                assert 0.0 <= h <= math.log2(n_classes) + 1e-9
            ds = random_dataset(rng, max_instances=15, n_attrs=2,
                                value_pool=(0.0, 50.0, 150.0, 300.0))
            attr = rng.randrange(2)
            thresholds = split_candidates(ds, attr)
            if not thresholds:
                continue
            threshold = rng.choice(thresholds)
            parent = [0.0] * len(ds.class_domain)
            for inst in ds.instances:
                parent[ds.class_index(inst.label)] += inst.weight
            gain = info_gain(ds, attr, threshold)
            assert 0.0 <= gain <= entropy(parent) + 1e-9
            assert gain_ratio(ds, attr, threshold) >= 0.0


def test_criterion_6b_rmse_at_least_mae():
    with criterion("6b RMSE >= MAE (500 cases)"):
        rng = random.Random(602)
        from croptree import Prediction
        for _ in range(CASES):
            n, c = rng.randint(1, 12), rng.randint(2, 8)
            predictions = []
            for _ in range(n):
                raw = [rng.random() ** 2 for _ in range(c)]
                total = sum(raw) or 1.0
                predictions.append(Prediction("x", tuple(v / total for v in raw)))
            actuals = [rng.randrange(c) for _ in range(n)]
            mae, rmse = probabilistic_errors(predictions, actuals)
            assert rmse >= mae - 1e-12


def test_criterion_6c_kappa_one_iff_diagonal():
    with criterion("6c kappa = 1 iff diagonal (500 cases)"):
        rng = random.Random(603)
        for case in range(CASES):
            n = rng.randint(2, 5)
            if case % 2:
                grid = [[0] * n for _ in range(n)]
                for i in range(n):
                    grid[i][i] = rng.randint(0, 6)
            else:
                grid = [[rng.randint(0, 6) for _ in range(n)]
                        for _ in range(n)]
            total = sum(map(sum, grid))
            if total == 0:
                continue
            matrix = ConfusionMatrix(tuple(f"c{i}" for i in range(n)),
                                     tuple(tuple(row) for row in grid))
            value = kappa(matrix)
            diagonal = all(grid[i][j] == 0
                           for i in range(n) for j in range(n) if i != j)
            if value is None:
                assert not diagonal
            else:
                assert value <= 1.0 + 1e-12
                assert (abs(value - 1.0) < 1e-12) == diagonal


def test_criterion_6d_oldeman_monotonicity():
    with criterion("6d extra rainfall moves types weakly wetter (500 cases)"):
        rng = random.Random(604)
        letters = "ABCDE"
        for _ in range(CASES):
            rain = [rng.uniform(0.0, 450.0) for _ in range(12)]
            month = rng.randrange(12)
            raised = list(rain)
            raised[month] += rng.uniform(0.0, 400.0)
            before_runs = run_summary([categorize_month(v) for v in rain])
            after_runs = run_summary([categorize_month(v) for v in raised])
            assert after_runs.longest_wet_run >= before_runs.longest_wet_run
            assert after_runs.longest_dry_run <= before_runs.longest_dry_run
            before = classify_oldeman(rain)
            after = classify_oldeman(raised)
            assert letters.index(after.letter) <= letters.index(before.letter)
            assert after.subtype <= before.subtype


def test_criterion_6e_stratified_fold_balance():
    with criterion("6e stratified folds balance every class (500 cases)"):
        rng = random.Random(605)
        for _ in range(CASES):
            ds = random_dataset(rng, max_instances=40, n_attrs=1,
                                classes=("P", "Q", "R", "S"))
            if len(ds) < 2:
                continue
            k = rng.randint(2, min(8, len(ds)))
            folds = stratified_folds(ds, k, seed=rng.randint(0, 10**6))
            flat = sorted(i for fold in folds for i in fold)
            assert flat == list(range(len(ds)))
            for cls in ds.class_domain:
                per_fold = [sum(1 for i in fold
                                if ds.instances[i].label == cls)
                            for fold in folds]
                assert max(per_fold) - min(per_fold) <= 1


def test_criterion_6f_reduced_error_pruning_safety():
    with criterion("6f reduced-error pruning never hurts its holdout "
                   "(500 cases)"):
        rng = random.Random(606)

        def holdout_errors(node, batch):
            total = 0.0
            for i, cls, w in batch:
                cursor = node
                while isinstance(cursor, Internal):
                    v = columns.features[i][cursor.attribute]
                    if v is None:
                        cursor = (cursor.left
                                  if cursor.left.weight >= cursor.right.weight
                                  else cursor.right)
                    elif v <= cursor.threshold:
                        cursor = cursor.left
                    else:
                        cursor = cursor.right
                if cursor.predicted_index != cls:
                    total += w
            return total

        for _ in range(CASES):
            ds = random_dataset(rng, max_instances=24, n_attrs=3)
            columns, rows = _columns(ds)
            rng.shuffle(rows)
            cut = max(1, (2 * len(rows)) // 3)
            grown = _grow_max_gain(columns, rows[:cut], 3, len(ds.class_domain), 1)
            hold = rows[cut:]
            pruned, pruned_err = _reduced_error_prune(columns, hold, grown)
            assert pruned_err <= holdout_errors(grown, hold) + 1e-9
            assert pruned_err == pytest.approx(holdout_errors(pruned, hold))
            assert tree_size(pruned) <= tree_size(grown)


def test_criterion_6g_model_round_trip_prediction_equivalence():
    with criterion("6g save/load keeps every prediction identical "
                   "(500 cases)"):
        rng = random.Random(607)
        algorithms = ("gainratio", "randomsubset", "reducederror")
        for case in range(CASES):
            ds = random_dataset(rng, max_instances=18, n_attrs=3)
            params = TrainParams(algorithms[case % 3],
                                 seed=rng.randint(0, 10**6))
            model = train(ds, params)
            blob = save_model(model)
            loaded = load_model(blob)
            assert save_model(loaded) == blob
            for _ in range(8):
                feats = random_feature_vector(rng, 3)
                assert predict(model, feats) == predict(loaded, feats)


def test_criterion_6h_seed_determinism():
    with criterion("6h identical seeds give byte-identical models "
                   "(500 cases)"):
        rng = random.Random(608)
        algorithms = ("gainratio", "randomsubset", "reducederror")
        for case in range(CASES):
            ds = random_dataset(rng, max_instances=18, n_attrs=3)
            params = TrainParams(algorithms[case % 3],
                                 seed=rng.randint(0, 10**6))
            assert save_model(train(ds, params)) == save_model(train(ds, params))


def test_criterion_7_synthetic_end_to_end(dataset75):
    with criterion("7 synthetic 75-station pipeline: all learners >= 90% "
                   "10-fold CV (<10s)"):
        start = time.perf_counter()
        labels = {inst.label for inst in dataset75.instances}
        assert len(dataset75) == 75
        assert len(labels) >= 6
        table = compare([TrainParams(a) for a in
                         ("gainratio", "randomsubset", "reducederror")],
                        dataset75, k=10, seed=1)
        for name, report in zip(table.algorithms, table.reports):
            assert report.accuracy_pct >= 90.0, (name, report.accuracy_pct)
            assert report.tree_size > 1, name
        assert time.perf_counter() - start < 10.0


def test_criterion_8_all_missing_station_behavior(tmp_path, dataset75):
    with criterion("8 all-missing stations get one deterministic class "
                   "and a flagged recommendation row"):
        empty = (None,) * 12
        # Learners may disagree with each other on the empty station; the
        # contract is per-model determinism, before and after a round trip.
        for algorithm in ("gainratio", "randomsubset", "reducederror"):
            model = train(dataset75, TrainParams(algorithm, seed=1))
            first = predict(model, empty)
            again = predict(model, empty)
            assert first == again
            reloaded = load_model(save_model(model))
            assert predict(reloaded, empty) == first
            assert first.predicted_class in CLASS_DOMAIN

        rain = tmp_path / "train.csv"
        rain.write_text(write_rainfall_file(make_stations(75, seed=7)),
                        encoding="utf-8")
        model_path = tmp_path / "model.txt"
        assert main(["train", str(rain), "-o", str(model_path),
                     "--algorithm", "gainratio", "--seed", "1"]) == 0
        test_path = tmp_path / "empty.csv"
        test_path.write_text(write_rainfall_file(
            [StationYear("NoData", "Banten", 2014, empty)]), encoding="utf-8")
        out = tmp_path / "recs.csv"
        assert main(["recommend", str(model_path), str(test_path),
                     "-o", str(out)]) == 0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 1
        assert rows[0].startswith("NoData,Banten,")
        assert rows[0].endswith(",incomplete")
        cls = rows[0].split(",")[2]
        assert f'"{pattern_for_label(cls).display}"' in rows[0]
