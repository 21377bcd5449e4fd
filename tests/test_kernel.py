"""The columnar split kernel against the pure-Python reference.

``reference_kernel.attribute_candidates`` scores one candidate at a time
with plain loops.  The kernel must give exactly the same thresholds and
gains, ratios and best gains within 1e-12 (numpy's log2 may differ from
math.log2 in the last bit).  Nodes run from 2 to 3,000 rows, so both
sides of the small-node cut-over are covered; the exhaustive oracle in
the acceptance suite only reaches five rows.
"""

import random

import pytest

import reference_kernel
from croptree import (Dataset, LabeledInstance, TrainParams, save_model,
                      train)
from croptree import trees
from croptree.trees import (Leaf, _attribute_candidates, _choose_by_gain,
                            _choose_by_gain_ratio, _columns, _evaluate)

TOL = 1e-12

SIZES = (2, 3, 5, 8, 13, 16, 17, 24, 33, 64, 100, 250, 700, 3000)


def _random_rows(rng, n, n_attrs, n_classes):
    """Rows with repeated values, missing values and fractional weights."""
    missing = rng.choice((0.0, 0.05, 0.3, 0.7))
    pool = [round(rng.uniform(0.0, 400.0), 1)
            for _ in range(rng.choice((2, 5, 40, 10 * n)))]
    labels = rng.sample(range(n_classes), rng.randint(1, n_classes))
    fractional = rng.random() < 0.6
    rows = []
    for _ in range(n):
        feats = tuple(None if rng.random() < missing else rng.choice(pool)
                      for _ in range(n_attrs))
        w = rng.choice((1.0, 1.0, rng.uniform(0.01, 3.0), 1.0 / 3.0)) \
            if fractional else 1.0
        rows.append((feats, rng.choice(labels), w))
    return rows


def _rows_dataset(rows, n_attrs, n_classes):
    """The Dataset of (features, class index, weight) rows."""
    names = tuple(f"a{j}" for j in range(n_attrs))
    classes = tuple(f"c{i}" for i in range(n_classes))
    return Dataset(names, classes, tuple(
        LabeledInstance(feats, classes[cls], weight=w) for feats, cls, w in rows))


def _assert_same(got, want):
    best, cands = got
    ref_best, ref_cands = want
    assert [t for t, _g, _r in cands] == [t for t, _g, _r in ref_cands]
    for (_t, gain, ratio), (_rt, ref_gain, ref_ratio) in zip(cands, ref_cands):
        assert gain == pytest.approx(ref_gain, rel=0, abs=TOL)
        assert ratio == pytest.approx(ref_ratio, rel=0, abs=TOL)
    assert best == pytest.approx(ref_best, rel=0, abs=TOL)


@pytest.mark.parametrize("n", SIZES)
def test_kernel_matches_reference(n):
    rng = random.Random(n)
    cases = 3 if n >= 700 else 25
    for _ in range(cases):
        n_classes = rng.randint(1, 14)
        rows = _random_rows(rng, n, 2, n_classes)
        min_leaf = rng.choice((0, 1, 2, 5))
        columns, node = _columns(_rows_dataset(rows, 2, n_classes))
        for attr in range(2):
            _assert_same(
                _attribute_candidates(columns, node, attr, n_classes, min_leaf),
                reference_kernel.attribute_candidates(
                    rows, attr, n_classes, min_leaf))


def test_kernel_matches_reference_past_one_slice():
    """More candidates at one node than one slice of the kernel holds."""
    rng = random.Random(7)
    rows = [((float(i), None if i % 7 == 0 else float(i % 50)),
             rng.randrange(5), rng.choice((1.0, 0.5)))
            for i in range(3 * trees._BLOCK_CELLS)]
    columns, node = _columns(_rows_dataset(rows, 2, 5))
    for attr in range(2):
        _assert_same(_attribute_candidates(columns, node, attr, 5, 2),
                     reference_kernel.attribute_candidates(rows, attr, 5, 2))


@pytest.mark.parametrize("n", SIZES)
def test_block_keeps_every_choice(monkeypatch, n):
    """A columnar node lists only the candidates a chooser can take; the
    choosers and the no-gain fallback must still pick what they pick on
    the full reference lists."""
    monkeypatch.setattr(trees, "_SMALL_NODE", 1)
    rng = random.Random(1000 + n)
    for _ in range(3 if n >= 700 else 20):
        n_attrs = rng.randint(1, 12)
        n_classes = rng.randint(2, 14)
        rows = _random_rows(rng, n, n_attrs, n_classes)
        min_leaf = rng.choice((1, 2, 5))
        evals = list(_evaluate(*_columns(_rows_dataset(rows, n_attrs, n_classes)),
                               range(n_attrs), n_classes, min_leaf))
        ref = [reference_kernel.attribute_candidates(rows, a, n_classes,
                                                     min_leaf)
               for a in range(n_attrs)]
        assert _choose_by_gain_ratio(evals) == _choose_by_gain_ratio(ref)
        assert _choose_by_gain(evals) == _choose_by_gain(ref)
        for (best, cands), (ref_best, ref_cands) in zip(evals, ref):
            assert best == pytest.approx(ref_best, rel=0, abs=TOL)
            kept = [t for t, _g, _r in cands]
            listed = [t for t, _g, _r in ref_cands]
            assert kept[:1] == listed[:1]
            assert set(kept) <= set(listed)


def _extreme_datasets():
    """Weights so far apart that adding the present weights to a missing
    one leaves it unchanged, or that a class's share of a branch
    underflows to 0; a few rows and more than _SMALL_NODE of each."""
    absorbed = [((None,), 0, 1e16), ((1.0,), 1, 1.0), ((2.0,), 0, 1.0)]
    absorbed_many = ([((None,), 0, 1e17)]
                     + [((float(i),), i % 2, 1.0) for i in range(30)])
    tiny = [((1.0,), 0, 1e300), ((1.0,), 1, 1e-300), ((2.0,), 1, 1e290),
            ((3.0,), 0, 1e290)]
    tiny_many = tiny + [((4.0 + i,), i % 2, 1e290) for i in range(20)]
    return [_rows_dataset(rows, 1, 2)
            for rows in (absorbed, absorbed_many, tiny, tiny_many)]


@pytest.mark.parametrize("algorithm", ["gainratio", "randomsubset",
                                       "reducederror"])
def test_columnar_and_pure_python_growers_agree(monkeypatch, algorithm):
    """Whole trees, byte for byte: every node columnar, every node pure
    Python, and the shipped cut-over in between."""
    rng = random.Random(algorithm)
    datasets = [_rows_dataset(_random_rows(rng, rng.choice((40, 120, 400)), 4, 6),
                              4, 6)
                for _ in range(6)]
    for case, ds in enumerate(datasets + _extreme_datasets()):
        params = TrainParams(algorithm, seed=case,
                             **({"min_leaf": 1} if case % 2 else {}))
        shipped = save_model(train(ds, params))
        for cut in (1, 10**9):
            monkeypatch.setattr(trees, "_SMALL_NODE", cut)
            assert save_model(train(ds, params)) == shipped
        monkeypatch.undo()


def test_columnar_node_without_attributes_is_a_leaf():
    instances = tuple(LabeledInstance((), "XY"[i % 2]) for i in range(40))
    ds = Dataset((), ("X", "Y"), instances)
    for algorithm in ("gainratio", "reducederror"):
        assert isinstance(train(ds, TrainParams(algorithm)).root, Leaf)
