import pathlib
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from croptree import (Dataset, LabeledInstance, ModelFormatError, TrainParams,
                      load_model, predict, save_model, train)
from support import random_dataset, random_feature_vector


def _model(algorithm="gainratio", seed=1, rng_seed=12):
    ds = random_dataset(random.Random(rng_seed), max_instances=30, n_attrs=4)
    return train(ds, TrainParams(algorithm, seed=seed))


def _single_leaf_model(attributes, classes, leaf):
    """A hand-written gainratio model whose body is the one ``leaf`` line."""
    return ("croptree-model v1\nalgorithm: gainratio\n"
            f"attributes: {','.join(attributes)}\nclasses: {','.join(classes)}\n"
            "params: min_leaf=2 confidence_factor=0.25 prune=true seed=1\n"
            f"tree:\n{leaf}\n")


class TestSave:
    def test_header_layout(self):
        model = _model()
        text = save_model(model).decode()
        lines = text.split("\n")
        assert lines[0] == "croptree-model v1"
        assert lines[1] == "algorithm: gainratio"
        assert lines[2] == "attributes: a0,a1,a2,a3"
        assert lines[3] == "classes: X,Y,Z"
        assert lines[4] == "params: min_leaf=2 confidence_factor=0.25 prune=true seed=1"
        assert lines[5] == "tree:"
        assert text.endswith("\n")
        assert "\r" not in text

    def test_single_leaf_body_is_one_line(self):
        ds = Dataset(("a0",), ("X", "Y"),
                     (LabeledInstance((1.0,), "X"), LabeledInstance((2.0,), "X")))
        model = train(ds, TrainParams("gainratio"))
        body = save_model(model).decode().split("\n")[6:-1]
        assert body == [": X (2/0)"]

    def test_impure_leaf_carries_distribution(self):
        ds = Dataset(("a0",), ("X", "Y"),
                     (LabeledInstance((1.0,), "X"),
                      LabeledInstance((1.0,), "X"),
                      LabeledInstance((1.0,), "Y")))
        model = train(ds, TrainParams("gainratio"))
        body = save_model(model).decode().split("\n")[6:-1]
        assert body == [": X (3/1) {X:2,Y:1}"]

    def test_branch_lines_nest_with_bar_indentation(self):
        ds = Dataset(("a0", "a1"), ("X", "Y"), tuple(
            LabeledInstance((float(v), float(v % 3)), "X" if v < 3 else "Y")
            for v in range(6)))
        model = train(ds, TrainParams("gainratio", min_leaf=1, prune=False))
        body = save_model(model).decode().split("\n")[6:-1]
        assert body[0].startswith("a0 <= ")
        assert any(line.startswith("a0 > ") for line in body)

    @pytest.mark.parametrize("attributes, classes", [
        pytest.param(("a b", "c"), ("X", "Y"), id="space-in-attribute"),
        pytest.param(("a,b", "c"), ("X", "Y"), id="comma-in-attribute"),
        pytest.param(("a", "c\n"), ("X", "Y"), id="line-feed-in-attribute"),
        pytest.param(("|a", "c"), ("X", "Y"), id="bar-in-attribute"),
        pytest.param((":a", "c"), ("X", "Y"), id="colon-in-attribute"),
        pytest.param(("a", ""), ("X", "Y"), id="empty-attribute"),
        pytest.param(("a", "a"), ("X", "Y"), id="repeated-attribute"),
        pytest.param(("a", "c"), ("X Y", "Z"), id="space-in-class"),
        pytest.param(("a", "c"), ("X", "Y,Z"), id="comma-in-class"),
        pytest.param(("a", "c"), ("X\xa0", "Y"), id="no-break-space-in-class"),
        pytest.param(("a", "c"), ("X:1", "Y"), id="colon-in-class"),
        pytest.param(("a", "c"), ("X", "{Y}"), id="brace-in-class"),
    ])
    def test_names_that_would_not_load_back_are_rejected(self, attributes,
                                                         classes):
        # Both attributes split the tree and one leaf is impure, so each
        # name reaches a branch line or a leaf distribution.
        rows = [((1.0, 5.0), 0), ((2.0, 1.0), 1), ((3.0, 6.0), 0),
                ((4.0, 0.0), 1), ((4.0, 0.0), 0)]
        ds = Dataset(attributes, classes, tuple(
            LabeledInstance(features, classes[cls]) for features, cls in rows))
        model = train(ds, TrainParams("gainratio", min_leaf=1, prune=False))
        with pytest.raises(ValueError, match="cannot be saved|distinct"):
            save_model(model)
        # The same names in a hand-written header: the header is rejected,
        # or (where a comma splits a name) it loads names that save back to
        # the same bytes.  The leaf names the header's last class.
        last = ",".join(classes).split(",")[-1]
        text = _single_leaf_model(attributes, classes, f": {last} (1/0)")
        try:
            loaded = load_model(text)
        except ModelFormatError as exc:
            assert exc.line_number in (3, 4)
        else:
            assert save_model(loaded).decode() == text

    def test_auto_k_is_stored_resolved(self):
        model = _model("randomsubset")
        text = save_model(model).decode()
        assert "params: k=3 seed=1" in text  # ceil(log2(4)) + 1


class TestRoundTrip:
    @pytest.mark.parametrize("algorithm",
                             ["gainratio", "randomsubset", "reducederror"])
    def test_save_load_save_is_byte_identical(self, algorithm):
        for rng_seed in range(8):
            model = _model(algorithm, seed=rng_seed + 1, rng_seed=rng_seed)
            blob = save_model(model)
            again = save_model(load_model(blob))
            assert again == blob

    def test_loaded_params_match(self):
        model = _model("reducederror", seed=9)
        loaded = load_model(save_model(model))
        assert loaded.params == model.params
        assert loaded.attribute_names == model.attribute_names
        assert loaded.class_domain == model.class_domain

    def test_predictions_identical_on_1000_random_vectors(self):
        model = _model(rng_seed=3)
        loaded = load_model(save_model(model))
        rng = random.Random(99)
        for _ in range(1000):
            feats = random_feature_vector(rng, 4)
            assert predict(model, feats) == predict(loaded, feats)

    def test_fractional_weights_round_trip(self):
        # missing values make leaf weights fractional; text must preserve them
        rng = random.Random(21)
        for _ in range(10):
            ds = random_dataset(rng, max_instances=20, n_attrs=3,
                                missing_prob=0.4)
            model = train(ds, TrainParams("gainratio", min_leaf=1, prune=False))
            blob = save_model(model)
            loaded = load_model(blob)
            assert loaded.root == model.root
            assert save_model(loaded) == blob


class TestLoadErrors:
    def _blob(self):
        return save_model(_model())

    def test_truncated_file(self):
        blob = self._blob()
        lines = blob.decode().split("\n")
        truncated = "\n".join(lines[:-3]) + "\n"
        with pytest.raises(ModelFormatError):
            load_model(truncated)

    def test_missing_final_newline(self):
        with pytest.raises(ModelFormatError, match="newline"):
            load_model(self._blob()[:-1])

    def test_crlf_rejected(self):
        with pytest.raises(ModelFormatError, match="LF"):
            load_model(self._blob().replace(b"\n", b"\r\n"))

    def test_bad_magic(self):
        blob = self._blob().replace(b"croptree-model v1", b"other-format v9")
        with pytest.raises(ModelFormatError, match="header"):
            load_model(blob)

    def test_unknown_algorithm(self):
        blob = self._blob().replace(b"algorithm: gainratio", b"algorithm: c5")
        with pytest.raises(ModelFormatError, match="algorithm"):
            load_model(blob)

    def test_bad_params(self):
        blob = self._blob().replace(b"min_leaf=2", b"min_leaf=two")
        with pytest.raises(ModelFormatError, match="params"):
            load_model(blob)

    def test_weight_distribution_mismatch(self):
        text = ("croptree-model v1\nalgorithm: gainratio\n"
                "attributes: a0\nclasses: X,Y\n"
                "params: min_leaf=2 confidence_factor=0.25 prune=true seed=1\n"
                "tree:\n: X (5/1) {X:2,Y:1}\n")
        with pytest.raises(ModelFormatError, match="do not match"):
            load_model(text)

    def test_non_majority_class_rejected(self):
        text = ("croptree-model v1\nalgorithm: gainratio\n"
                "attributes: a0\nclasses: X,Y\n"
                "params: min_leaf=2 confidence_factor=0.25 prune=true seed=1\n"
                "tree:\n: Y (3/1) {X:2,Y:1}\n")
        with pytest.raises(ModelFormatError, match="majority"):
            load_model(text)

    def test_mismatched_branch_pair(self):
        text = ("croptree-model v1\nalgorithm: gainratio\n"
                "attributes: a0,a1\nclasses: X,Y\n"
                "params: min_leaf=2 confidence_factor=0.25 prune=true seed=1\n"
                "tree:\na0 <= 1: X (1/0)\na1 > 1: Y (1/0)\n")
        with pytest.raises(ModelFormatError, match="branch"):
            load_model(text)

    def test_unknown_attribute(self):
        text = ("croptree-model v1\nalgorithm: gainratio\n"
                "attributes: a0\nclasses: X,Y\n"
                "params: min_leaf=2 confidence_factor=0.25 prune=true seed=1\n"
                "tree:\nzz <= 1: X (1/0)\nzz > 1: Y (1/0)\n")
        with pytest.raises(ModelFormatError, match="attribute"):
            load_model(text)

    def test_trailing_garbage(self):
        blob = self._blob() + b": X (1/0)\n"
        with pytest.raises(ModelFormatError):
            load_model(blob)

    @pytest.mark.parametrize("attributes, classes, line", [
        pytest.param(("a", "a"), ("X", "Y"), 3, id="repeated-attribute"),
        pytest.param(("a", "x y"), ("X", "Y"), 3, id="space-in-attribute"),
        pytest.param(("a", ""), ("X", "Y"), 3, id="empty-attribute"),
        pytest.param(("a",), ("X", "Y", "X"), 4, id="repeated-class"),
        pytest.param(("a",), ("X", "x y"), 4, id="space-in-class"),
        pytest.param(("a",), ("X", ""), 4, id="empty-class"),
    ])
    def test_header_names_follow_the_save_rule(self, attributes, classes, line):
        with pytest.raises(ModelFormatError) as info:
            load_model(_single_leaf_model(attributes, classes, ": X (1/0)"))
        assert info.value.line_number == line

    _BODY = "a0 <= 1: X (3/1) {X:2,Y:1}\na0 > 1: Y (2/0)\n"
    _TEXT = ("croptree-model v1\nalgorithm: gainratio\nattributes: a0,a1\n"
             "classes: X,Y\n"
             "params: min_leaf=2 confidence_factor=0.25 prune=true seed=1\n"
             "tree:\n" + _BODY)

    @pytest.mark.parametrize("old, new, line, message", [
        # numbers: the threshold, a leaf's weight and errors, a class count
        ("a0 <= 1:", "a0 <= abc:", 7, "bad threshold 'abc'"),
        ("a0 <= 1:", "a0 <= inf:", 7, "non-finite threshold 'inf'"),
        ("(3/1)", "(x/1)", 7, "bad leaf weight 'x'"),
        ("(3/1)", "(3/e)", 7, "bad leaf error count 'e'"),
        ("{X:2,", "{X:two,", 7, "bad class count 'two'"),
        # leaves
        (": X (3/1)", ": X 3/1", 7, "malformed leaf ': X 3/1 {X:2,Y:1}'"),
        (": X (3/1)", ": Z (3/1)", 7, "unknown class 'Z'"),
        ("{X:2,", "{X2,", 7, "malformed distribution entry 'X2'"),
        ("{X:2,Y:1}", "{Y:1,X:2}", 7,
         "distribution entries must follow class-domain order"),
        ("{X:2,Y:1}", "{X:4,Y:-1}", 7, "negative class count"),
        # file structure; "\udcff" stands for the byte 0xff
        ("X (3/1)", "\udcff (3/1)", 0, "not valid UTF-8: 'utf-8' codec can't "
         "decode byte 0xff in position 145: invalid start byte"),
        ("tree:\n", "tree\n", 6, "expected a 'tree:' line"),
        (_BODY, "", 7, "missing tree body"),
        # params
        ("prune=true", "prune=no", 5, "bad params: bad prune flag 'no'"),
        (" seed=1", "", 5, "expected params min_leaf confidence_factor prune seed"),
        ("seed=1", "sed=1", 5, "expected param 'seed', got 'sed=1'"),
    ])
    def test_message_and_line(self, old, new, line, message):
        load_model(self._TEXT)
        blob = self._TEXT.replace(old, new, 1).encode("utf-8", "surrogateescape")
        with pytest.raises(ModelFormatError) as info:
            load_model(blob)
        assert str(info.value) == f"line {line}: {message}"
        assert info.value.line_number == line

    def test_error_carries_line_number(self):
        with pytest.raises(ModelFormatError) as info:
            load_model("croptree-model v1\nnot-a-header\n")
        assert info.value.line_number == 2

    def test_error_survives_pickle(self):
        # a cross-validation worker process hands its errors back pickled
        with pytest.raises(ModelFormatError) as info:
            load_model("croptree-model v1\nnot-a-header\n")
        copy = pickle.loads(pickle.dumps(info.value))
        assert type(copy) is ModelFormatError
        assert str(copy) == str(info.value) and str(copy).startswith("line 2: ")
        assert copy.line_number == 2


GOLDEN_TEXTS = sorted(path.read_text(encoding="utf-8") for path in
                      (pathlib.Path(__file__).parent / "golden").glob("*.model"))

_MUTATIONS = ("drop", "duplicate", "indent", "dedent", "swap", "repeat name")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_model_is_rejected_or_resaves_canonically(data):
    """Golden files with tree-body lines dropped, duplicated or
    re-indented, a name repeated in the attributes or classes line, or two
    characters of either of those lines or of a body line swapped, either
    fail to load with ModelFormatError or load to a tree that re-saves
    unchanged."""
    lines = data.draw(st.sampled_from(GOLDEN_TEXTS)).split("\n")
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(_MUTATIONS))
        # lines[2:4] are the attributes and classes lines, lines[:6] the
        # whole header, lines[6:-1] the body and lines[-1] the final "".
        if kind == "repeat name":
            k = data.draw(st.integers(2, 3))
        elif kind == "swap":
            k = data.draw(st.sampled_from([2, 3, *range(6, len(lines) - 1)]))
        else:
            k = data.draw(st.integers(6, len(lines) - 2))
        if kind == "repeat name":
            head, _, names = lines[k].partition(": ")
            names = names.split(",")
            names.insert(data.draw(st.integers(0, len(names))),
                         data.draw(st.sampled_from(names)))
            lines[k] = f"{head}: {','.join(names)}"
        elif kind == "drop":
            del lines[k]
        elif kind == "duplicate":
            lines.insert(k, lines[k])
        elif kind == "indent":
            lines[k] = "|   " + lines[k]
        elif kind == "dedent":
            lines[k] = lines[k][4:]
        else:
            chars = list(lines[k])
            a = data.draw(st.integers(0, len(chars) - 1))
            b = data.draw(st.integers(0, len(chars) - 1))
            chars[a], chars[b] = chars[b], chars[a]
            lines[k] = "".join(chars)
    try:
        tree = load_model("\n".join(lines))
    except ModelFormatError:
        return
    saved = save_model(tree)
    assert save_model(load_model(saved)) == saved
