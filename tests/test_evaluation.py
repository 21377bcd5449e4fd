import multiprocessing
import os
import random
import threading
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import pytest

from croptree import evaluation
from croptree import (ALGORITHMS, CLASS_DOMAIN, ConfusionMatrix, Dataset,
                      LabeledInstance, MONTH_NAMES, Prediction, TrainParams,
                      accuracy, compare, cross_validate, evaluate_holdout,
                      kappa, probabilistic_errors, save_model,
                      stratified_folds, train)
from croptree.evaluation import INDICATOR_ROWS
from croptree.trees import DecisionTree, Leaf, _root, _train
from support import random_dataset
from test_golden_models import golden_dataset


def _matrix(grid, domain=None):
    domain = domain or tuple(f"c{i}" for i in range(len(grid)))
    return ConfusionMatrix(domain, tuple(tuple(row) for row in grid))


def _n_correct_matrix(correct, total):
    return _matrix([[correct, total - correct], [0, 0]])


class TestAccuracy:
    @pytest.mark.parametrize("correct,total,expected", [
        (36, 75, 48.00),
        (13, 75, 17.33),
        (13, 51, 25.49),
    ])
    def test_reportable_values(self, correct, total, expected):
        value = accuracy(_n_correct_matrix(correct, total))
        assert round(value, 2) == expected

    def test_all_correct(self):
        assert accuracy(_matrix([[5, 0], [0, 7]])) == 100.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(_matrix([[0, 0], [0, 0]]))


class TestKappa:
    def test_perfect_diagonal(self):
        assert kappa(_matrix([[5, 0], [0, 7]])) == 1.0

    def test_hand_computed(self):
        assert kappa(_matrix([[20, 5], [10, 15]])) == pytest.approx(0.4)

    def test_independence_gives_zero(self):
        assert kappa(_matrix([[25, 25], [25, 25]])) == pytest.approx(0.0, abs=1e-9)

    def test_concentrated_diagonal(self):
        # all mass on one class for both raters: chance agreement is total
        # and observed agreement perfect
        assert kappa(_matrix([[9, 0], [0, 0]])) == 1.0

    def test_never_exceeds_one(self):
        rng = random.Random(44)
        for _ in range(200):
            n = rng.randint(2, 4)
            grid = [[rng.randint(0, 9) for _ in range(n)] for _ in range(n)]
            if sum(map(sum, grid)) == 0:
                continue
            value = kappa(_matrix(grid))
            if value is not None:
                assert value <= 1.0 + 1e-12
                diagonal = all(grid[i][j] == 0
                               for i in range(n) for j in range(n) if i != j)
                assert (value == 1.0) == diagonal


class TestProbabilisticErrors:
    def test_perfect_one_hot(self):
        preds = [Prediction("X", (1.0, 0.0)), Prediction("Y", (0.0, 1.0))]
        assert probabilistic_errors(preds, [0, 1]) == (0.0, 0.0)

    def test_hand_case(self):
        preds = [Prediction("X", (0.75, 0.25))]
        mae, rmse = probabilistic_errors(preds, [0])
        assert mae == pytest.approx(0.25)
        assert rmse == pytest.approx(0.25)

    @pytest.mark.parametrize("n_classes", [2, 3, 6, 14])
    def test_uniform_closed_form(self, n_classes):
        dist = tuple(1.0 / n_classes for _ in range(n_classes))
        mae, _ = probabilistic_errors([Prediction("c0", dist)], [0])
        assert mae == pytest.approx(2 * (n_classes - 1) / n_classes ** 2)

    def test_rmse_at_least_mae(self):
        rng = random.Random(9)
        for _ in range(200):
            n, c = rng.randint(1, 8), rng.randint(2, 6)
            preds = []
            for _ in range(n):
                raw = [rng.random() for _ in range(c)]
                total = sum(raw)
                preds.append(Prediction("x", tuple(v / total for v in raw)))
            actuals = [rng.randrange(c) for _ in range(n)]
            mae, rmse = probabilistic_errors(preds, actuals)
            assert rmse >= mae - 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            probabilistic_errors([Prediction("X", (1.0,))], [0, 1])
        with pytest.raises(ValueError):
            probabilistic_errors([], [])


def test_confusion_matrix_conservation():
    pairs = [(0, 0), (0, 1), (1, 1), (2, 1), (2, 2), (2, 2)]
    matrix = ConfusionMatrix.from_pairs(("a", "b", "c"), pairs)
    assert matrix.total == len(pairs)
    assert matrix.row_sums == (2, 1, 3)
    assert matrix.col_sums == (1, 3, 2)
    direct = sum(1 for a, p in pairs if a == p)
    assert accuracy(matrix) == pytest.approx(100.0 * direct / len(pairs))


def _threshold_dataset(n=40):
    """Class is a deterministic threshold function of attribute 0.

    The class bands keep a wide margin around the boundary so any
    training subset learns a threshold inside the gap and every held-out
    instance lands on its correct side.
    """
    rng = random.Random(77)
    instances = []
    for i in range(n):
        if i % 2:
            v = rng.uniform(140.0, 150.0)
        else:
            v = rng.uniform(250.0, 260.0)
        feats = (round(v, 1), round(rng.uniform(0, 400), 1))
        instances.append(LabeledInstance(feats, "X" if v <= 200 else "Y",
                                         provenance_id=str(i)))
    return Dataset(("a0", "a1"), ("X", "Y"), tuple(instances))


class TestCrossValidate:
    def test_separable_data_scores_perfectly(self):
        ds = _threshold_dataset()
        for algorithm in ("gainratio", "reducederror"):
            report = cross_validate(ds, TrainParams(algorithm), 10, seed=1)
            assert report.accuracy_pct == 100.0
            assert report.kappa == 1.0
            assert report.tree_size >= 3

    def test_leave_one_out_two_instances(self):
        instances = (LabeledInstance((1.0,), "X"), LabeledInstance((9.0,), "Y"))
        ds = Dataset(("a0",), ("X", "Y"), instances)
        report = cross_validate(ds, TrainParams("gainratio"), 2, seed=1)
        assert report.accuracy_pct == 0.0

    def test_deterministic(self, dataset75):
        params = TrainParams("randomsubset", seed=4)
        first = cross_validate(dataset75, params, 5, seed=2)
        second = cross_validate(dataset75, params, 5, seed=2)
        assert first == second

    @pytest.mark.parametrize("k, seed, name", [(2.0, 1, "k"), (2, 1.5, "seed"),
                                               (2, True, "seed")])
    def test_k_and_seed_must_be_integers(self, k, seed, name):
        # k=2.0 raised TypeError; seed=1.5 and seed=True trained, on fold
        # seeds derived as seed * 1_000_003 + fold
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            cross_validate(_threshold_dataset(), TrainParams("gainratio"), k,
                           seed=seed)

    def test_every_instance_predicted_once(self):
        # pooled confusion total equals the dataset size
        ds = _threshold_dataset(23)
        report = cross_validate(ds, TrainParams("gainratio"), 4, seed=3)
        assert report.confusion.total == 23


def _weighted_dataset(rng, n):
    """``n`` rows over 4 attributes and 3 classes, with missing cells, tied
    values and fractional weights."""
    instances = []
    for _ in range(n):
        features = tuple(None if rng.random() < 0.15 else
                         rng.choice((50.0, 100.0, round(rng.uniform(0.0, 400.0), 1)))
                         for _ in range(4))
        weight = rng.choice((1.0, 1.0, 0.5, 2.0 / 3.0, rng.uniform(0.1, 3.0)))
        instances.append(LabeledInstance(features, rng.choice("XYZ"), weight))
    return Dataset(("a0", "a1", "a2", "a3"), ("X", "Y", "Z"), tuple(instances))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_fold_rows_train_as_a_copied_dataset(algorithm):
    """A fold trained on row indices into the whole dataset saves the
    bytes of the same fold trained as a Dataset of its own.  At most 16
    rows, the dataset builds no matrix and only the Python kernel runs;
    above, the numpy kernel scores the larger nodes."""
    rng = random.Random(f"fold rows {algorithm}")
    for n in (3, 8, 16, 17, 31, 60):
        dataset = _weighted_dataset(rng, n)
        node = _root(dataset)
        for k in sorted({2, 3, 10, n} & set(range(2, n + 1))):
            for fold_no, fold in enumerate(stratified_folds(dataset, k, seed=n)):
                held = set(fold)
                params = TrainParams(algorithm, seed=fold_no)
                rows = [row for row in node if row[0] not in held]
                kept = list(rows)
                copied = replace(dataset, instances=tuple(
                    inst for i, inst in enumerate(dataset.instances) if i not in held))
                assert (save_model(_train(dataset, rows, params))
                        == save_model(train(copied, params))), (n, k, fold_no)
                assert rows == kept


def test_small_datasets_build_no_matrix():
    """Up to 16 rows every node is scored in Python, so neither training
    nor cross-validation builds the matrix, whose numpy cost would slow
    the many small datasets of the oracle checks."""
    small = _weighted_dataset(random.Random("16 rows"), 16)
    for algorithm in ALGORITHMS:
        train(small, TrainParams(algorithm))
        cross_validate(small, TrainParams(algorithm), 4, seed=1)
    assert "values" not in small.__dict__
    larger = _weighted_dataset(random.Random("17 rows"), 17)
    train(larger, TrainParams("gainratio"))
    assert "values" in larger.__dict__


def test_cross_validate_builds_no_dataset(dataset75, monkeypatch):
    # serial, so that every fold trains where the check can see it
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0})
    checks = []
    original = Dataset.__post_init__

    def counted(self):
        checks.append(self)
        original(self)
    monkeypatch.setattr(Dataset, "__post_init__", counted)
    for algorithm in ALGORITHMS:
        cross_validate(dataset75, TrainParams(algorithm), 5, seed=1)
    assert checks == []


class TestEvaluateHoldout:
    def test_single_leaf_majority_counting(self):
        instances = tuple(
            LabeledInstance((float(i),) * 12, "C3" if i < 36 else "A2",
                            provenance_id=str(i))
            for i in range(75))
        test = Dataset(MONTH_NAMES, CLASS_DOMAIN, instances)
        counts = [0.0] * len(CLASS_DOMAIN)
        counts[CLASS_DOMAIN.index("C3")] = 10.0
        model = DecisionTree(Leaf(tuple(counts)), MONTH_NAMES, CLASS_DOMAIN,
                             TrainParams("gainratio"))
        report = evaluate_holdout(model, test)
        assert report.accuracy_pct == pytest.approx(48.0)
        assert report.tree_size == 1

    def test_domain_mismatch_rejected(self):
        model = DecisionTree(Leaf((1.0, 0.0)), ("a0",), ("X", "Y"),
                             TrainParams("gainratio"))
        other = Dataset(("a0",), ("X", "Z"), (LabeledInstance((1.0,), "X"),))
        with pytest.raises(ValueError):
            evaluate_holdout(model, other)

    def test_attribute_mismatch_and_empty_test_set_rejected(self):
        model = DecisionTree(Leaf((1.0, 0.0)), ("a0",), ("X", "Y"),
                             TrainParams("gainratio"))
        other = Dataset(("a1",), ("X", "Y"), (LabeledInstance((1.0,), "X"),))
        with pytest.raises(ValueError, match="^model and test attribute lists differ$"):
            evaluate_holdout(model, other)
        with pytest.raises(ValueError, match="^test dataset is empty$"):
            evaluate_holdout(model, Dataset(("a0",), ("X", "Y"), ()))

    def test_rmse_bounds_mae_on_real_models(self):
        rng = random.Random(55)
        for _ in range(25):
            ds = random_dataset(rng, max_instances=30, n_attrs=3)
            model = train(ds, TrainParams("gainratio"))
            report = evaluate_holdout(model, ds)
            assert report.root_mean_squared_error >= \
                report.mean_absolute_error - 1e-12


class TestCompare:
    def test_table_shape(self, dataset75):
        algorithms = [TrainParams(a) for a in
                      ("gainratio", "randomsubset", "reducederror")]
        table = compare(algorithms, dataset75, k=5, seed=1)
        assert table.algorithms == ("gainratio", "randomsubset", "reducederror")
        assert len(table.reports) == 3
        assert len(INDICATOR_ROWS) == 5

    def test_holdout_and_resubstitution_paths(self):
        ds = _threshold_dataset(30)
        test = _threshold_dataset(30)
        holdout = compare([TrainParams("gainratio")], ds, test=test)
        assert holdout.reports[0].accuracy_pct == 100.0
        resub = compare([TrainParams("gainratio")], ds, resubstitution=True)
        assert resub.reports[0].accuracy_pct == 100.0

    def test_two_stage_full_vs_complete(self):
        # scoring the full set and its complete-feature subset gives two
        # reports over different instance counts
        from croptree import complete_subset
        base = _threshold_dataset(30)
        gappy = list(base.instances)
        gappy[0] = LabeledInstance((None, None), gappy[0].label)
        full = Dataset(base.attribute_names, base.class_domain, tuple(gappy))
        model = train(base, TrainParams("gainratio"))
        stage1 = evaluate_holdout(model, full)
        stage2 = evaluate_holdout(model, complete_subset(full))
        assert stage1.confusion.total == 30
        assert stage2.confusion.total == 29

    def test_two_stage_75_then_51_instances(self):
        # a model that gets 13 right on 75 stations, all of them complete,
        # scores 17.33% overall and 25.49% on the 51 complete stations
        from croptree import complete_subset
        instances = []
        for i in range(75):
            if i < 13:
                features, label = (float(i),) * 12, "C3"
            elif i < 51:
                features, label = (float(i),) * 12, "A1"
            else:
                features, label = (None,) + (float(i),) * 11, "A1"
            instances.append(LabeledInstance(features, label,
                                             provenance_id=str(i)))
        full = Dataset(MONTH_NAMES, CLASS_DOMAIN, tuple(instances))
        counts = [0.0] * len(CLASS_DOMAIN)
        counts[CLASS_DOMAIN.index("C3")] = 1.0
        model = DecisionTree(Leaf(tuple(counts)), MONTH_NAMES, CLASS_DOMAIN,
                             TrainParams("gainratio"))
        stage1 = evaluate_holdout(model, full)
        stage2 = evaluate_holdout(model, complete_subset(full))
        assert stage1.confusion.total == 75
        assert stage2.confusion.total == 51
        assert round(stage1.accuracy_pct, 2) == 17.33
        assert round(stage2.accuracy_pct, 2) == 25.49


ALL_LEARNERS = [TrainParams(a) for a in ALGORITHMS]


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(n)))


def _compare_in_daemon(dataset):
    return compare(ALL_LEARNERS, dataset, k=5, seed=1)


def _die(*_args):
    os._exit(1)


class TestFoldPool:
    """Cross-validation forks one worker per CPU; its reports, errors and
    clean-up must be those of the serial run."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """The pools started: one entry per ``get_context`` call."""
        started = []
        original = multiprocessing.get_context

        def counted(method=None):
            started.append(method)
            return original(method)
        monkeypatch.setattr(multiprocessing, "get_context", counted)
        return started

    @pytest.mark.parametrize("data,k", [("dataset75", 5), ("golden", 10)])
    def test_one_cpu_gives_the_forked_reports(self, data, k, request,
                                              monkeypatch, pools):
        dataset = (golden_dataset() if data == "golden"
                   else request.getfixturevalue(data))
        _cpus(monkeypatch, 2)
        forked = compare(ALL_LEARNERS, dataset, k=k, seed=1)
        assert pools == ["fork"]
        _cpus(monkeypatch, 1)
        assert compare(ALL_LEARNERS, dataset, k=k, seed=1) == forked
        assert pools == ["fork"]
        assert multiprocessing.active_children() == []

    def test_failing_fold_raises_the_serial_error(self, dataset75,
                                                  monkeypatch, pools):
        learners = [TrainParams("gainratio"), TrainParams("randomsubset", k=13)]
        errors = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            with pytest.raises(ValueError) as info:
                compare(learners, dataset75, k=5, seed=1)
            errors.append((type(info.value), str(info.value)))
            assert multiprocessing.active_children() == []
        assert pools == ["fork"]
        assert errors[0] == errors[1]
        assert "k=13 exceeds the 12 available attributes" in errors[0][1]

    def test_dead_worker_raises_instead_of_waiting(self, dataset75,
                                                   monkeypatch):
        _cpus(monkeypatch, 2)
        monkeypatch.setattr(evaluation, "_fold_predictions", _die)
        raised = []

        def run():
            try:
                compare(ALL_LEARNERS, dataset75, k=5, seed=1)
            except BaseException as exc:  # handed to the test thread
                raised.append(exc)
        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(60)
        assert not runner.is_alive(), "compare still waits for a dead worker"
        assert [type(exc) for exc in raised] == [BrokenProcessPool]
        assert multiprocessing.active_children() == []

    def test_small_dataset_starts_no_pool(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("a pool was started")
        monkeypatch.setattr(multiprocessing, "get_context", refuse)
        _cpus(monkeypatch, 2)
        small = _weighted_dataset(random.Random("16 rows"), 16)
        assert len(compare(ALL_LEARNERS, small, k=4, seed=1).reports) == 3

    def test_runs_serially_inside_a_daemonic_worker(self, dataset75,
                                                    monkeypatch):
        _cpus(monkeypatch, 2)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            inside = pool.apply(_compare_in_daemon, (dataset75,))
            pool.close()
            pool.join()
        assert inside == _compare_in_daemon(dataset75)
        assert multiprocessing.active_children() == []
