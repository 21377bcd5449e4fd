import itertools
import json
import math
import pathlib
import random
import statistics
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from croptree import trees
from croptree import (CLASS_DOMAIN, Dataset, DecisionTree, LabeledInstance,
                      TrainParams, UndefinedSplitError, entropy, gain_ratio,
                      info_gain, load_model, predict, predict_rows, save_model,
                      split_candidates, train, tree_size)
from croptree._beta import _beta_upper_quantile, _ibeta
from croptree.trees import (Internal, Leaf, _choose_by_gain, _grow,
                            _reduced_error_prune, _root, _score_all,
                            _upper_error_estimate, walk)
from support import (kernel_candidates, random_consistent_dataset,
                     random_dataset, run_bounded)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _dataset(rows, n_attrs=2, classes=("X", "Y", "Z")):
    names = tuple(f"a{j}" for j in range(n_attrs))
    instances = tuple(LabeledInstance(tuple(feats), label)
                      for *feats, label in rows)
    return Dataset(names, classes, instances)


class TestEntropy:
    def test_pure(self):
        assert entropy([4, 0]) == 0.0

    def test_uniform_binary(self):
        assert entropy([3, 3]) == 1.0

    def test_nine_five(self):
        assert entropy([9, 5]) == pytest.approx(0.94029, abs=1e-5)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            entropy([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            entropy([2.0, -1.0])


class TestSplitCandidates:
    def test_two_values(self):
        ds = _dataset([(100.0, 0.0, "X"), (200.0, 0.0, "Y")])
        assert split_candidates(ds, 0) == [150.0]

    def test_dedupes_and_sorts(self):
        ds = _dataset([(80.0, 0, "X"), (80.0, 0, "X"),
                       (120.0, 0, "Y"), (200.0, 0, "Y")])
        assert split_candidates(ds, 0) == [100.0, 160.0]

    def test_single_value_unusable(self):
        ds = _dataset([(150.0, 0, "X"), (150.0, 0, "Y")])
        assert split_candidates(ds, 0) == []

    def test_ignores_missing(self):
        ds = _dataset([(100.0, 0, "X"), (None, 0, "X"), (200.0, 0, "Y")])
        assert split_candidates(ds, 0) == [150.0]

    @pytest.mark.parametrize("n", (3, 40))
    @pytest.mark.parametrize("attribute_index", (-1, -3, 2, 7, 1.0, True))
    def test_attribute_index_out_of_range(self, n, attribute_index):
        # -1 used to score the last attribute, 2 raised IndexError, 1.0
        # TypeError, and True scored attribute 1; 3 rows go through the
        # Python kernel, 40 through numpy.
        ds = _dataset([(float(i), float(i % 3), "XY"[i % 2]) for i in range(n)])
        with pytest.raises(ValueError, match="attribute_index"):
            split_candidates(ds, attribute_index)
        for helper in (info_gain, gain_ratio):
            with pytest.raises(ValueError, match="attribute_index"):
                helper(ds, attribute_index, 0.5)

    @pytest.mark.parametrize("lo, hi", ((1.0000000000000002, 1.0000000000000004),
                                        (1.6e308, 1.7e308), (-1.7e308, -1.6e308)))
    def test_threshold_lies_strictly_between_neighbours(self, lo, hi):
        # (lo + hi) / 2 rounds onto hi for adjacent doubles and overflows
        # for huge ones.  Such a threshold sent every row left, and the
        # grower split the same node until memory ran out, so the learners
        # run in a child process under a time and memory bound.  4 rows go
        # through the Python kernel, 20 through numpy.
        code = f"""
import json
from croptree import (ALGORITHMS, Dataset, LabeledInstance, TrainParams,
                      predict, split_candidates, train)
out = {{}}
for n in (4, 20):
    ds = Dataset(("a0",), ("X", "Y"), tuple(
        LabeledInstance(({lo!r},) if i % 2 else ({hi!r},), "X" if i % 2 else "Y")
        for i in range(n)))
    got = out[n] = {{"candidates": split_candidates(ds, 0)}}
    for algorithm in ALGORITHMS:
        tree = train(ds, TrainParams(algorithm, min_leaf=1))
        got[algorithm] = (getattr(tree.root, "threshold", None),
                          predict(tree, ({lo!r},)).predicted_class,
                          predict(tree, ({hi!r},)).predicted_class)
print(json.dumps(out))
"""
        done = run_bounded(["-c", code])
        assert done.returncode == 0, done.stderr
        for n, got in json.loads(done.stdout).items():
            assert got.pop("candidates") == [lo]
            for algorithm, (threshold, left, right) in got.items():
                if algorithm == "reducederror" and n == "4":
                    # grown on 3 rows, pruned on the fourth: may be a leaf
                    assert threshold in (lo, None)
                    continue
                assert (threshold, left, right) == (lo, "X", "Y"), algorithm


class TestGain:
    def test_perfect_split(self):
        ds = _dataset([(1.0, 0, "X"), (2.0, 0, "X"), (3.0, 0, "Y"), (4.0, 0, "Y")])
        assert info_gain(ds, 0, 2.5) == pytest.approx(1.0)
        assert gain_ratio(ds, 0, 2.5) == pytest.approx(1.0)

    def test_pure_parent_zero_gain(self):
        ds = _dataset([(1.0, 0, "X"), (2.0, 0, "X"), (3.0, 0, "X")])
        assert info_gain(ds, 0, 1.5) == 0.0

    def test_one_sided_threshold_is_signaled(self):
        ds = _dataset([(1.0, 0, "X"), (2.0, 0, "Y")])
        with pytest.raises(UndefinedSplitError):
            info_gain(ds, 0, 5.0)
        with pytest.raises(UndefinedSplitError):
            gain_ratio(ds, 0, 0.5)
        # Weights so far apart that the smaller ones round away in a sum:
        # the present weight against the missing one, then the right
        # side's weight against the left's; last, the left side's share
        # of the total rounds to 0.
        for rows, threshold in (([(None, "X", 1e16), (1.0, "Y", 1.0),
                                  (2.0, "X", 1.0)], 1.5),
                                ([(0.0, "X", 1e300), (1.0, "Y", 1e-300)], 0.5),
                                ([(0.0, "Y", 1e-300), (1.0, "X", 1e300)], 0.5)):
            ds = Dataset(("a0",), ("X", "Y"), tuple(
                LabeledInstance((v,), label, weight=w) for v, label, w in rows))
            assert split_candidates(ds, 0) == []
            for helper in (info_gain, gain_ratio):
                with pytest.raises(UndefinedSplitError):
                    helper(ds, 0, threshold)
        # Scored in numpy: the candidates left of 10.5 give the left side a
        # share that rounds to 0, and 10.5 is scored as itself, not as the
        # candidate at its position before them.
        ds = Dataset(("a0",), ("X", "Y"), tuple(
            LabeledInstance((float(i),), "XY"[i % 2],
                            weight=1e-300 if i < 10 else 1e300)
            for i in range(20)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for helper in (info_gain, gain_ratio):
                for threshold in (0.5, 9.5):
                    with pytest.raises(UndefinedSplitError):
                        helper(ds, 0, threshold)
            # left: 1e300 of X; right: 4e300 of X and 5e300 of Y
            gain = 1.0 - 0.9 * entropy([4, 5])
            assert info_gain(ds, 0, 10.5) == pytest.approx(gain)
            assert gain_ratio(ds, 0, 10.5) == pytest.approx(gain / entropy([1, 9]))

    def test_fractional_missing_weighting(self):
        # one instance missing the split attribute splits 50/50 here
        ds = _dataset([(1.0, 0, "X"), (3.0, 0, "Y"), (None, 0, "Y")])
        parent_h = entropy([1, 2])
        left_h = entropy([1.0, 0.5])
        expected = parent_h - (1.5 * left_h + 1.5 * 0.0) / 3.0
        assert info_gain(ds, 0, 2.0) == pytest.approx(expected)
        # both fractional branch weights are 1.5 so split info is 1 bit
        assert gain_ratio(ds, 0, 2.0) == pytest.approx(expected)

    def test_sweep_agrees_with_public_ops(self):
        rng = random.Random(42)
        checked = 0
        for _ in range(150):
            ds = random_dataset(rng, max_instances=20, n_attrs=3,
                                value_pool=(0.0, 50.0, 100.0, 300.0))
            for attr in range(3):
                for cands in kernel_candidates(ds, attr, 1):
                    assert [t for t, _g, _r in cands] == split_candidates(ds, attr)
                    for threshold, gain, ratio in cands:
                        assert gain == pytest.approx(
                            info_gain(ds, attr, threshold), abs=1e-9)
                        assert ratio == pytest.approx(
                            gain_ratio(ds, attr, threshold), abs=1e-9)
                        checked += 1
        assert checked > 500


class TestTrainParams:
    def test_auto_k_resolves_to_five_for_twelve_attributes(self):
        assert TrainParams("randomsubset").resolved_k(12) == 5
        assert TrainParams("randomsubset", k=3).resolved_k(12) == 3

    @pytest.mark.parametrize("kwargs", [
        dict(algorithm="c5"),
        dict(algorithm="gainratio", min_leaf=0),
        dict(algorithm="gainratio", confidence_factor=0.0),
        dict(algorithm="gainratio", confidence_factor=1.0),
        dict(algorithm="randomsubset", k=0),
        dict(algorithm="reducederror", prune_folds=1),
        dict(algorithm="randomsubset", prune=False),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainParams(**kwargs)

    @pytest.mark.parametrize("algorithm, name, bad", [
        ("randomsubset", "seed", "x"),
        ("randomsubset", "seed", 2.0),
        ("randomsubset", "seed", True),
        ("gainratio", "seed", np.True_),
        ("gainratio", "min_leaf", 1.5),
        ("randomsubset", "k", 1.0),
        ("reducederror", "prune_folds", 2.5),
        ("gainratio", "prune", 1),
        ("gainratio", "confidence_factor", "0.3"),
    ])
    def test_field_types(self, algorithm, name, bad):
        # Each of these used to train, and then either crash with a
        # TypeError or save a params line that load_model rejects.
        with pytest.raises(ValueError, match=name):
            TrainParams(algorithm, **{name: bad})

    @pytest.mark.parametrize("kwargs", [
        dict(algorithm="gainratio", min_leaf=np.int64(1),
             confidence_factor=np.float64(0.3), prune=np.True_,
             seed=np.int32(4)),
        dict(algorithm="randomsubset", k=np.int64(3), seed=np.uint8(7)),
        dict(algorithm="reducederror", min_leaf=np.int16(1),
             prune_folds=np.int64(4), seed=np.int64(2)),
    ])
    def test_numpy_values_are_stored_as_python_ones(self, kwargs):
        params = TrainParams(**kwargs)
        for name in ("min_leaf", "k", "prune_folds", "seed"):
            assert type(getattr(params, name)) in (int, type(None))
        assert type(params.prune) is bool
        assert type(params.confidence_factor) is float
        blob = save_model(train(_jun_dataset(), params))
        loaded = load_model(blob)
        assert loaded.params == params
        assert save_model(loaded) == blob


def _jun_dataset():
    """Ten instances whose label is exactly 'jun <= 187.5'."""
    jun_values = [100.0, 120.0, 150.0, 170.0, 175.0,
                  200.0, 250.0, 300.0, 320.0, 340.0]
    rows = []
    for v in jun_values:
        feats = [50.0] * 12
        feats[5] = v
        rows.append(LabeledInstance(tuple(feats), "C3" if v <= 187.5 else "A1"))
    names = tuple(f"m{i}" for i in range(12))
    return Dataset(names, ("A1", "C3"), tuple(rows))


class TestTrain:
    def test_perfect_single_split(self):
        ds = _jun_dataset()
        model = train(ds, TrainParams("gainratio", min_leaf=1, prune=False))
        assert isinstance(model.root, Internal)
        assert model.root.attribute == 5
        assert model.root.threshold == 187.5
        assert isinstance(model.root.left, Leaf)
        assert isinstance(model.root.right, Leaf)
        assert tree_size(model) == 3

    def test_one_class_gives_single_leaf(self):
        ds = _dataset([(1.0, 2.0, "X"), (3.0, 4.0, "X")])
        for algorithm in ("gainratio", "randomsubset", "reducederror"):
            model = train(ds, TrainParams(algorithm))
            assert isinstance(model.root, Leaf)
            assert tree_size(model) == 1
            assert predict(model, (None, None)).predicted_class == "X"

    def test_random_subset_with_all_attributes_matches_gain_ratio_root(self):
        ds = _jun_dataset()
        unpruned = train(ds, TrainParams("gainratio", min_leaf=1, prune=False))
        for seed in (1, 2, 99):
            rs = train(ds, TrainParams("randomsubset", k=12, seed=seed))
            assert isinstance(rs.root, Internal)
            assert rs.root.attribute == unpruned.root.attribute
            assert rs.root.threshold == unpruned.root.threshold

    def test_empty_dataset_rejected(self):
        ds = Dataset(("a",), ("X",), ())
        with pytest.raises(ValueError):
            train(ds, TrainParams("gainratio"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_feature_rejected(self, bad):
        # Read as a present value, NaN or ±inf yields NaN thresholds that
        # split nothing, and growing never ends; None marks a missing value.
        # The instance refuses it, so no dataset given to train or to the
        # split helpers can hold one.
        for n in (12, 40):
            with pytest.raises(ValueError, match="NaN or infinite"):
                _dataset([(float(i) if i % 3 else bad, "XY"[i % 2])
                          for i in range(n)], n_attrs=1)

    def test_huge_finite_total_weight_trains_and_round_trips(self):
        # 40 × 1e306 adds up to 4e307, still finite; missing cells make
        # the weights fractional below the splits.
        instances = tuple(
            LabeledInstance((None if i % 5 == 0 else float(i % 7), float(i)),
                            "XY"[i % 2], weight=1e306)
            for i in range(40))
        ds = Dataset(("a0", "a1"), ("X", "Y"), instances)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for algorithm in ("gainratio", "randomsubset", "reducederror"):
                text = save_model(train(ds, TrainParams(algorithm, min_leaf=1)))
                assert save_model(load_model(text)) == text

    def test_k_larger_than_attribute_count_rejected(self):
        ds = _dataset([(1.0, 2.0, "X"), (3.0, 4.0, "Y")])
        with pytest.raises(ValueError):
            train(ds, TrainParams("randomsubset", k=20))

    def test_determinism_across_runs(self):
        rng = random.Random(5)
        for _ in range(20):
            ds = random_dataset(rng, max_instances=25, n_attrs=4)
            for algorithm in ("gainratio", "randomsubset", "reducederror"):
                params = TrainParams(algorithm, seed=rng.randint(0, 10**6))
                assert train(ds, params) == train(ds, params)

    def test_consistent_data_trains_to_purity(self):
        rng = random.Random(31)
        for _ in range(60):
            ds = random_consistent_dataset(rng)
            for params in (TrainParams("gainratio", min_leaf=1, prune=False),
                           TrainParams("randomsubset", min_leaf=1,
                                       seed=rng.randint(0, 99))):
                model = train(ds, params)
                for inst in ds.instances:
                    assert predict(model, inst.features).predicted_class \
                        == inst.label

    def test_depth_bounded_by_instance_count(self):
        def depth(node):
            if isinstance(node, Leaf):
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        rng = random.Random(8)
        for _ in range(30):
            ds = random_dataset(rng, max_instances=12, n_attrs=3)
            model = train(ds, TrainParams("gainratio", min_leaf=1, prune=False))
            assert depth(model.root) <= len(ds)

    def test_pruned_never_larger_than_unpruned(self):
        rng = random.Random(13)
        for _ in range(40):
            ds = random_dataset(rng, max_instances=30, n_attrs=4)
            unpruned = train(ds, TrainParams("gainratio", prune=False))
            pruned = train(ds, TrainParams("gainratio", prune=True))
            assert tree_size(pruned) <= tree_size(unpruned)


class TestPredict:
    def _tree(self):
        # hand-built: a0 <= 10 -> (3 X); a0 > 10 -> (1 X, 1 Y)
        root = Internal(0, 10.0, Leaf((3.0, 0.0)), Leaf((1.0, 1.0)))
        return DecisionTree(root, ("a0", "a1"), ("X", "Y"),
                            TrainParams("gainratio"))

    def test_boundary_goes_left(self):
        model = self._tree()
        assert predict(model, (10.0, 0.0)).predicted_class == "X"
        assert predict(model, (10.0001, 0.0)).distribution == (0.5, 0.5)

    def test_missing_routes_to_heavier_branch(self):
        model = self._tree()
        pred = predict(model, (None, 0.0))
        assert pred.predicted_class == "X"
        assert pred.distribution == (1.0, 0.0)

    def test_missing_tie_goes_left(self):
        root = Internal(0, 10.0, Leaf((2.0, 0.0)), Leaf((0.0, 2.0)))
        model = DecisionTree(root, ("a0",), ("X", "Y"), TrainParams("gainratio"))
        assert predict(model, (None,)).predicted_class == "X"

    def test_class_tie_breaks_by_domain_order(self):
        model = DecisionTree(Leaf((2.0, 2.0)), ("a0",), ("X", "Y"),
                             TrainParams("gainratio"))
        assert predict(model, (1.0,)).predicted_class == "X"

    def test_zero_weight_leaf_predicts_uniformly(self):
        model = DecisionTree(Leaf((0.0, 0.0)), ("a0",), ("X", "Y"),
                             TrainParams("gainratio"))
        pred = predict(model, (1.0,))
        assert pred.predicted_class == "X"
        assert pred.distribution == (0.5, 0.5)

    def test_distributions_sum_to_one(self):
        rng = random.Random(17)
        for _ in range(40):
            ds = random_dataset(rng, max_instances=25, n_attrs=3)
            model = train(ds, TrainParams("gainratio"))
            feats = tuple(None if rng.random() < 0.3
                          else rng.uniform(0, 400) for _ in range(3))
            pred = predict(model, feats)
            assert sum(pred.distribution) == pytest.approx(1.0, abs=1e-9)
            best = max(range(len(pred.distribution)),
                       key=lambda i: (pred.distribution[i], -i))
            assert pred.predicted_class == model.class_domain[best]

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            predict(self._tree(), (1.0,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_feature_rejected(self, bad):
        # NaN fails every <= test and would silently go right; None is the
        # only missing value, as in training.
        golden = load_model((GOLDEN_DIR / "gainratio.model").read_bytes())
        rows = [(bad,) * 12, (None,) * 11 + (bad,), (bad,) + (250.0,) * 11]
        for features in rows:
            with pytest.raises(ValueError, match="NaN or infinite"):
                predict(golden, features)
        for features in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError, match="NaN or infinite"):
                predict(self._tree(), features)
        assert predict(golden, (None,) * 12).predicted_class in CLASS_DOMAIN


def _predict_each(tree, matrix):
    """``predict``'s class index for each row, NaN read as None."""
    return [tree.class_domain.index(predict(tree, [
        None if math.isnan(v) else v for v in row]).predicted_class)
        for row in np.asarray(matrix).tolist()]


def _thresholds(node):
    """(attribute, threshold) of every internal node."""
    return walk(node, lambda n: ([], None) if isinstance(n, Leaf) else
                ([(n.attribute, n.threshold)], (n.left, n.right)),
                lambda test, left, right: test + left + right)


class TestPredictRows:
    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_DIR.glob("*.model")))
    def test_golden_models_agree_with_predict(self, name):
        tree = load_model((GOLDEN_DIR / name).read_bytes())
        rng = np.random.default_rng(5)
        matrix = rng.uniform(0.0, 450.0, size=(3000, 12))
        # A third of the cells sit on a threshold of their attribute or
        # next to it, and a tenth are missing.
        tests = _thresholds(tree.root)
        assert tests
        for i, j in zip(*np.nonzero(rng.random(matrix.shape) < 0.33)):
            attr, threshold = tests[rng.integers(len(tests))]
            matrix[i, attr] = np.nextafter(threshold, rng.choice([-np.inf, np.inf])) \
                if rng.random() < 0.3 else threshold
        matrix[rng.random(matrix.shape) < 0.1] = np.nan
        assert predict_rows(tree, matrix).tolist() == _predict_each(tree, matrix)

    def test_trained_trees_agree_with_predict(self):
        rng = random.Random(8)
        for algorithm in ("gainratio", "randomsubset", "reducederror"):
            for _ in range(10):
                ds = random_dataset(rng, max_instances=40, n_attrs=3,
                                    value_pool=(0.0, 50.0, 100.0, 150.5))
                tree = train(ds, TrainParams(algorithm))
                matrix = np.array([[rng.choice((math.nan, 0.0, 50.0, 75.0, 100.0,
                                                150.5, 200.0)) for _ in range(3)]
                                   for _ in range(60)])
                assert (predict_rows(tree, matrix).tolist()
                        == _predict_each(tree, matrix))

    @pytest.mark.parametrize("left, right, expected", [
        ((2.0, 0.0), (0.0, 2.0), 0),  # children weigh the same: left
        ((1.0, 0.0), (0.0, 2.0), 1),
        ((0.0, 2.0), (1.5, 1.0), 0),
    ])
    def test_missing_value_follows_the_heavier_child(self, left, right, expected):
        root = Internal(0, 10.0, Leaf(left), Leaf(right))
        tree = DecisionTree(root, ("a0",), ("X", "Y"), TrainParams("gainratio"))
        matrix = [[math.nan], [10.0], [np.nextafter(10.0, 11.0)]]
        assert predict_rows(tree, matrix).tolist() == [
            expected, root.left.predicted_index, root.right.predicted_index]
        assert predict_rows(tree, matrix).tolist() == _predict_each(tree, matrix)

    def test_single_leaf_and_zero_rows(self):
        tree = DecisionTree(Leaf((1.0, 3.0)), ("a0", "a1"), ("X", "Y"),
                            TrainParams("gainratio"))
        assert predict_rows(tree, [[1.0, math.nan], [math.nan] * 2]).tolist() == [1, 1]
        assert predict_rows(tree, np.empty((0, 2))).tolist() == []
        golden = load_model((GOLDEN_DIR / "gainratio.model").read_bytes())
        assert predict_rows(golden, np.empty((0, 12))).tolist() == []

    @pytest.mark.parametrize("matrix", [[[1.0]], [1.0, 2.0], [[1.0, math.inf]],
                                        [[-math.inf, 0.0]]])
    def test_wrong_shape_or_infinite_value_rejected(self, matrix):
        root = Internal(0, 10.0, Leaf((3.0, 0.0)), Leaf((1.0, 1.0)))
        tree = DecisionTree(root, ("a0", "a1"), ("X", "Y"), TrainParams("gainratio"))
        with pytest.raises(ValueError):
            predict_rows(tree, matrix)


def _estimate(n, e, cf):
    """``_upper_error_estimate`` of a leaf of weight n with e errors."""
    return _upper_error_estimate(SimpleNamespace(weight=n, errors=e), cf)


# Total weights log-uniform over all that a Dataset accepts, errors any
# share of them, confidence factors anywhere in (0, 1).
WEIGHTS = st.floats(-300.0, math.log10(1.7e308)).map(lambda x: 10.0 ** x)
SHARES = st.floats(0.0, 1.0, exclude_max=True)
FACTORS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def _reference_bounds():
    """(kind, a, b, cf, scipy's value, exact value) rows of
    golden/upper_bounds.csv; its header says how they were made."""
    lines = (GOLDEN_DIR / "upper_bounds.csv").read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    assert rows[0] == ["kind", "a", "b", "cf", "scipy", "exact"]
    return [(kind, *map(float, values)) for kind, *values in rows[1:]]


def _ulps(got, want):
    return abs(got - want) / math.ulp(want)


class TestIncompleteBeta:
    """The regularized incomplete beta function and the quantile that
    pruning takes from it, against checked-in reference values."""

    @pytest.mark.parametrize("kind", ("grid", "huge", "bench"))
    def test_quantile_within_ulps_of_exact_values(self, kind):
        rows = [r for r in _reference_bounds() if r[0] == kind]
        errors = [_ulps(_beta_upper_quantile(a, b, cf), exact)
                  for _kind, a, b, cf, _scipy, exact in rows]
        # measured: median 0 ulps (grid, huge) and 1 (bench), at most 9
        assert statistics.median(errors) <= 1
        for (_kind, a, b, cf, _scipy, exact), err in zip(rows, errors):
            assert err * math.ulp(exact) <= 1e-14 * exact, (a, b, cf)

    def test_quantile_against_scipy(self):
        # scipy.special.betaincinv, which pruning called before: a few ulps
        # apart in the median.  Where scipy itself is off the exact value
        # (nan near 1e306, up to 8e-13 relative elsewhere: 32 rows), only
        # the exact value is a gate.
        rows = [r for r in _reference_bounds() if math.isfinite(r[4])]
        errors = [_ulps(_beta_upper_quantile(a, b, cf), scipy)
                  for _kind, a, b, cf, scipy, _exact in rows]
        assert statistics.median(errors) <= 4
        for (_kind, a, b, cf, scipy, exact), err in zip(rows, errors):
            if abs(scipy - exact) <= 1e-14 * exact:
                assert err * math.ulp(scipy) <= 1e-13 * scipy, (a, b, cf)

    def test_ibeta_tails_at_exact_quantiles(self):
        # 1 - I_x(a, b) at the exact quantile x, rounded to a double, is cf
        # up to the change that rounding makes: the density times an ulp.
        for _kind, a, b, cf, _scipy, x in _reference_bounds():
            if 0.0 < x < 1.0 and max(a, b) < 1e300:
                _p, q = _ibeta(a, b, x)
                density = math.exp(
                    (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x)
                    + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
                assert abs(q - cf) <= 1e-14 * cf + density * math.ulp(x), (a, b, cf)

    def test_ibeta_closed_forms(self):
        for x in (1e-9, 0.01, 0.3, 0.5, 0.77, 0.999):
            for a in (0.5, 1.0, 2.5, 17.0):
                p, q = _ibeta(a, 1.0, x)  # I_x(a, 1) = x^a
                assert p == pytest.approx(x ** a, rel=1e-14)
                assert p + q == 1.0
                p, q = _ibeta(1.0, a, x)  # I_x(1, b) = 1 - (1 - x)^b
                assert q == pytest.approx((1.0 - x) ** a, rel=1e-14)
            # Student t with 1 and 2 degrees of freedom, t² = 1/x - 1 (1)
            # or 2/x - 2 (2): the two-sided tail I_x(ν/2, 1/2)
            t = math.sqrt(1.0 / x - 1.0)
            assert _ibeta(0.5, 0.5, x)[0] == pytest.approx(
                1.0 - 2.0 / math.pi * math.atan(t), rel=1e-13)
            t = math.sqrt(2.0 / x - 2.0)
            assert _ibeta(1.0, 0.5, x)[0] == pytest.approx(
                1.0 - t / math.sqrt(2.0 + t * t), rel=1e-13)
        for a in (0.5, 3.0, 40.0, 1e5):
            assert _ibeta(a, a, 0.5) == pytest.approx((0.5, 0.5), rel=1e-14)


class TestPruning:
    def test_upper_error_estimate_known_value(self):
        # zero observed errors: 1 - I_U(1, n) = (1 - U)^n = cf, so the
        # bound is n * (1 - cf**(1/n))
        for n in (1e-3, 0.5, 1.0, 2.5, 10.0, 333.3, 1e5, 1e150, 1.7e308):
            for cf in (0.01, 0.1, 0.25, 0.5, 0.9):
                assert _estimate(n, 0.0, cf) == pytest.approx(
                    n * -math.expm1(math.log(cf) / n), rel=1e-14)
        assert _upper_error_estimate(Leaf((10.0, 0.0)), 0.25) == \
            pytest.approx(10.0 * (1.0 - 0.25 ** 0.1), rel=1e-14)
        assert _upper_error_estimate(Leaf((0.0, 0.0)), 0.25) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(n=WEIGHTS, shares=st.tuples(SHARES, SHARES),
           factors=st.tuples(FACTORS, FACTORS))
    def test_estimate_is_monotone_and_bounded(self, n, shares, factors):
        e1, e2 = sorted(n * s for s in shares)
        low, high = sorted(factors)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = {(e, cf): _estimate(n, e, cf)
                   for e in (e1, e2) for cf in (low, high)}
        # Up to rounding: n times a quantile that rounded down may land an
        # ulp or two below e, or below an estimate that is equal in exact
        # arithmetic.
        slack = 1.0 - 1e-15
        for (e, cf), value in est.items():
            assert math.isfinite(value) and 0.0 <= value <= n
            if cf <= 0.5:
                assert value >= e * slack
        # non-decreasing in the errors, non-increasing in the confidence
        for cf in (low, high):
            assert est[e1, cf] * slack <= est[e2, cf]
        for e in (e1, e2):
            assert est[e, high] * slack <= est[e, low]

    def test_estimate_under_a_subnormal_confidence_factor(self):
        # 5e-324 holds one bit, so a root search on the tail itself stops
        # wherever the tail rounds to it: 744.4068 for 0.0031 errors, below
        # the 744.4401 for none.  The values are n times the upper-CF
        # quantile of Gamma(e + 1), the Beta's limit at b = 1e217, to 40
        # digits with mpmath.
        none = _estimate(1e217, 0.0, 5e-324)
        some = _estimate(1e217, 0.0031, 5e-324)
        assert none == pytest.approx(744.44007192138126, rel=1e-14)
        assert some == pytest.approx(744.46235680955159, rel=1e-14)
        assert none < some

    def test_estimate_exceeds_observed_errors(self):
        rng = random.Random(23)
        for _ in range(100):
            good = rng.uniform(0.5, 30)
            bad = rng.uniform(0, good)  # majority stays with `good`
            estimate = _upper_error_estimate(Leaf((good, bad)), 0.25)
            assert estimate >= bad - 1e-9

    def test_bound_computed_once_per_grown_node(self, dataset75, monkeypatch):
        # pruning costs every node of the grown tree as a leaf, each once;
        # many nodes share a (weight, errors) pair, and each prices it anew
        pairs = []

        def counted(leaf, cf):
            pairs.append((leaf.weight, leaf.errors))
            return _upper_error_estimate(leaf, cf)
        grown = tree_size(train(dataset75, TrainParams("gainratio", prune=False)))
        expected = save_model(train(dataset75, TrainParams("gainratio")))
        monkeypatch.setattr(trees, "_upper_error_estimate", counted)
        assert save_model(train(dataset75, TrainParams("gainratio"))) == expected
        assert len(pairs) == grown

    def test_leaf_errors_is_weight_outside_the_predicted_class(self):
        assert Leaf((3.0, 1.5, 0.5)).errors == 2.0
        assert Leaf((0.0, 4.0)).errors == 0.0
        assert Leaf((0.0, 0.0)).errors == 0.0
        assert Leaf(()).errors == 0.0

    def test_noise_collapses_to_single_leaf(self):
        # labels independent of a constant-ish attribute: prune to a leaf
        rng = random.Random(3)
        rows = [(float(i), 0.0, "X" if rng.random() < 0.5 else "Y")
                for i in range(30)]
        ds = _dataset(rows)
        pruned = train(ds, TrainParams("gainratio", prune=True))
        assert tree_size(pruned) < tree_size(
            train(ds, TrainParams("gainratio", prune=False)))

    def test_reduced_error_prune_never_hurts_holdout(self):
        rng = random.Random(29)
        for _ in range(60):
            ds = random_dataset(rng, max_instances=30, n_attrs=3)
            rows = _root(ds)
            rng.shuffle(rows)
            cut = max(1, (2 * len(rows)) // 3)
            n_classes = len(ds.class_domain)
            grown = _grow(ds, rows[:cut], n_classes,
                          _score_all(3, n_classes, 1), _choose_by_gain)
            hold = rows[cut:]
            pruned, pruned_err = _reduced_error_prune(ds, hold, grown)

            def holdout_errors(node, batch):
                total = 0.0
                for i, cls, w in batch:
                    cursor = node
                    while isinstance(cursor, Internal):
                        v = ds.features[i][cursor.attribute]
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

            assert pruned_err <= holdout_errors(grown, hold) + 1e-9
            assert pruned_err == pytest.approx(holdout_errors(pruned, hold))
            assert tree_size(pruned) <= tree_size(grown)


def test_gain_ratio_matches_bruteforce_on_small_datasets():
    """Spot version of the exhaustive acceptance check (sizes 1..3)."""
    values = (0.0, 100.0, 300.0)
    classes = ("X", "Y", "Z")
    types = [(x0, x1, c) for x0 in values for x1 in values for c in range(3)]
    instances = {t: LabeledInstance((t[0], t[1]), classes[t[2]])
                 for t in types}
    params = TrainParams("gainratio", min_leaf=1, prune=False)
    for size in range(1, 4):
        for combo in itertools.combinations_with_replacement(types, size):
            ds = Dataset(("a", "b"), classes,
                         tuple(instances[t] for t in combo))
            model = train(ds, params)
            ref = oracle.grow(combo, 2, 3)
            assert oracle.matches(model.root, ref), oracle.describe(ref)
