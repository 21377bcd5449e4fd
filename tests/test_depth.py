"""Trees of any depth train, prune, size, save, load, predict (one row or
a batch), compare, hash and repr.

One attribute with alternating labels makes every split peel off one
row, so the grown trees are about N_ROWS levels deep, past the default
interpreter recursion limit of 1,000 frames.
"""

import functools
import math

import pytest

from croptree import (CLASS_DOMAIN, MONTH_NAMES, Dataset, LabeledInstance,
                      StationYear, TrainParams, load_model, predict, predict_rows,
                      save_model, train, tree_size, write_rainfall_file)
from croptree.cli import main
from croptree.trees import (Internal, Leaf, _choose_by_gain, _grow, _root,
                            _score_all, walk)

N_ROWS = 1500

LEARNERS = {
    "gainratio": TrainParams("gainratio", min_leaf=1),
    "gainratio_unpruned": TrainParams("gainratio", min_leaf=1, prune=False),
    "randomsubset": TrainParams("randomsubset"),
    "reducederror": TrainParams("reducederror", min_leaf=1),
}


def _alternating_dataset():
    instances = tuple(LabeledInstance((float(i),), "XY"[i % 2])
                      for i in range(N_ROWS))
    return Dataset(("a0",), ("X", "Y"), instances)


def _depth(node):
    """Length of the chain of internal nodes below ``node``."""
    depth = 0
    while isinstance(node, Internal):
        node = node.left if isinstance(node.left, Internal) else node.right
        depth += 1
    return depth


def _count_nodes(node):
    count, stack = 0, [node]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, Internal):
            stack += (node.left, node.right)
    return count


@pytest.fixture(scope="module")
def trained():
    """Each learner's tree, trained on first use and kept for the module."""
    data = _alternating_dataset()
    return functools.cache(lambda name: train(data, LEARNERS[name]))


def test_randomsubset_trains_deep_tree(trained):
    assert _depth(trained("randomsubset").root) >= N_ROWS // 2


@pytest.fixture(scope="module")
def max_gain_root():
    """The reducederror learner's grower, before pruning."""
    data = _alternating_dataset()
    return _grow(data, _root(data), 2, _score_all(1, 2, 1), _choose_by_gain)


def test_max_gain_grower_grows_deep_tree(max_gain_root):
    assert _depth(max_gain_root) >= N_ROWS // 2


@pytest.mark.parametrize("name", sorted(LEARNERS))
def test_deep_tree_size(trained, name):
    tree = trained(name)
    assert tree_size(tree) == _count_nodes(tree.root)


@pytest.mark.parametrize("name", sorted(LEARNERS))
def test_deep_tree_round_trips(trained, name):
    tree = trained(name)
    data = save_model(tree)
    loaded = load_model(data)
    assert save_model(loaded) == data
    assert loaded.root == tree.root
    assert predict(loaded, (None,)) == predict(tree, (None,))


@pytest.mark.parametrize("name", sorted(LEARNERS))
def test_deep_tree_routes_rows_in_batch(trained, name):
    tree = trained(name)
    values = [float(i) for i in range(0, N_ROWS, 7)] + [
        math.nan, -1.0, N_ROWS - 0.5, N_ROWS + 0.5]
    expected = [tree.class_domain.index(predict(
        tree, (None if math.isnan(v) else v,)).predicted_class) for v in values]
    assert predict_rows(tree, [[v] for v in values]).tolist() == expected


def _rebuild(node, changed=None):
    """A separately built copy of ``node``; the node ``changed`` gets one
    more unit of weight in each class (a leaf) or of threshold."""
    def expand(n):
        if isinstance(n, Leaf):
            return Leaf(tuple(c + (n is changed) for c in n.counts)), None
        return n, (n.left, n.right)

    return walk(node, expand, lambda n, left, right: Internal(
        n.attribute, n.threshold + (n is changed), left, right))


def _bottom_leaf(node):
    """A leaf at the end of the chain of internal nodes below ``node``."""
    while isinstance(node, Internal):
        node = node.right if isinstance(node.right, Internal) else node.left
    return node


def _bottom_internal(node):
    """The last internal node of the chain below ``node``."""
    while isinstance(node.left, Internal) or isinstance(node.right, Internal):
        node = node.right if isinstance(node.right, Internal) else node.left
    return node


@pytest.mark.parametrize("name", ["gainratio_unpruned", "max_gain",
                                  "randomsubset"])
def test_deep_tree_compares_hashes_and_reprs(trained, max_gain_root, name):
    root = max_gain_root if name == "max_gain" else trained(name).root
    assert _depth(root) >= N_ROWS // 2
    copy = _rebuild(root)
    assert copy is not root
    assert copy == root
    assert hash(copy) == hash(root)
    assert _rebuild(root, changed=_bottom_leaf(root)) != root
    deep = _bottom_internal(root)
    assert deep is not root and _depth(deep) == 1
    assert _rebuild(root, changed=deep) != root
    assert repr(root).startswith(
        f"Internal(attribute=0, threshold={root.threshold!r}, left=")
    assert repr(root).count("Internal(") <= 3


def _chain_model_lines(depth):
    """A hand-written gainratio model: a chain of ``jan <= d`` tests."""
    lines = ["croptree-model v1", "algorithm: gainratio",
             "attributes: " + ",".join(MONTH_NAMES),
             "classes: " + ",".join(CLASS_DOMAIN),
             "params: min_leaf=2 confidence_factor=0.25 prune=true seed=1",
             "tree:"]
    for d in range(depth):
        indent = "|   " * d
        lines.append(f"{indent}jan <= {d}: A1 (1/0)")
        lines.append(f"{indent}jan > {d}" + (": B1 (1/0)" if d == depth - 1 else ""))
    return lines


def _recommend(tmp_path, model_lines):
    model = tmp_path / "deep.model"
    model.write_text("\n".join(model_lines) + "\n", encoding="utf-8")
    rain = tmp_path / "rain.csv"
    station = StationYear("S", "R", 2014, (600.5,) + (100.0,) * 11)
    rain.write_text(write_rainfall_file([station]), encoding="utf-8")
    out = tmp_path / "out.csv"
    return main(["recommend", str(model), str(rain), "-o", str(out)]), out


def test_recommend_reads_deep_model(tmp_path):
    code, out = _recommend(tmp_path, _chain_model_lines(1200))
    assert code == 0
    # jan=600.5 passes 601 "jan >" tests before its leaf.
    assert out.read_text(encoding="utf-8").splitlines()[1].split(",")[2] == "A1"


def test_recommend_rejects_truncated_deep_model(tmp_path, capsys):
    lines = _chain_model_lines(1200)[:-1]
    code, out = _recommend(tmp_path, lines)
    assert code == 2
    assert not out.exists()
    assert (f"line {len(lines) + 1}: unexpected end of tree body"
            in capsys.readouterr().err)
