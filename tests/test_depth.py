"""Training a very deep tree must not exhaust the interpreter stack."""

from croptree import Dataset, LabeledInstance, TrainParams, train
from croptree.trees import Internal, _dataset_rows, _grow_max_gain

N_ROWS = 1500


def _alternating_dataset():
    # One attribute with alternating labels: every split peels off one
    # row, so the grown tree is about N_ROWS levels deep.
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


def test_randomsubset_trains_deep_tree():
    tree = train(_alternating_dataset(), TrainParams("randomsubset"))
    assert _depth(tree.root) >= N_ROWS // 2


def test_max_gain_grower_grows_deep_tree():
    root = _grow_max_gain(_dataset_rows(_alternating_dataset()), 1, 2, 1)
    assert _depth(root) >= N_ROWS // 2
