"""Text serialization for trained trees.

The format is line-oriented UTF-8, LF-terminated, and canonical: a file
loads only if it is what ``save_model`` writes for its tree.  A header pins the
format version, algorithm, attribute list, class list and training
parameters; the body is an indented rule dump:

    jun <= 187.5: A1 (5/0)
    jun > 187.5
    |   aug <= 95: C3 (3/1) {B3:1,C3:2}
    |   aug > 95: B2 (2/0)

Leaves print their total training weight and misclassified weight as
``(weight/errors)``.  When errors are nonzero the full per-class
distribution follows in braces (class order, nonzero entries only) so a
loaded tree reproduces not just the predicted classes but the predicted
probability distributions exactly.  A tree that is a single leaf has a
one-line body such as ``: C3 (10/2) {B2:2,C3:8}``.  Saving and loading
run on ``trees.walk``, not recursion, so trees of any depth round-trip.
"""

from __future__ import annotations

import math
import re
from typing import Sequence, Tuple, Union

from .dataset import format_number
from .errors import ModelFormatError
from .trees import (ALGORITHMS, PARAM_FIELDS, DecisionTree, Internal, Leaf,
                    TrainParams, walk)

FORMAT_VERSION = 1

_MAGIC = f"croptree-model v{FORMAT_VERSION}"

_BRANCH_RE = re.compile(
    r"^(?P<attr>\S+) (?P<op><=|>) (?P<thr>[^\s:]+)(?P<leaf>: .+)?$")
_LEAF_RE = re.compile(
    r"^: (?P<cls>\S+) \((?P<w>[^/()]+)/(?P<e>[^/()]+)\)"
    r"(?: \{(?P<dist>[^{}]*)\})?$")


def _params_text(params: TrainParams, n_attributes: int) -> str:
    fields = []
    for name in PARAM_FIELDS[params.algorithm]:
        value = getattr(params, name)
        if name == "k":
            value = params.resolved_k(n_attributes)
        elif name == "prune":
            value = "true" if value else "false"
        elif name == "confidence_factor":
            value = format_number(value)
        fields.append(f"{name}={value}")
    return " ".join(fields)


def _leaf_text(leaf: Leaf, class_domain: Sequence[str]) -> str:
    text = (f": {class_domain[leaf.predicted_index]} "
            f"({format_number(leaf.weight)}/{format_number(leaf.errors)})")
    if leaf.errors > 0.0:
        entries = ",".join(
            f"{cls}:{format_number(count)}"
            for cls, count in zip(class_domain, leaf.counts) if count > 0.0)
        text += " {" + entries + "}"
    return text


#: What the grammar splits on, so no attribute or class name may hold it.
_NAME_BREAK_RE = re.compile(r"[\s,:{}|]")


def _check_names(kind: str, names: Sequence[str]) -> None:
    for name in names:
        if not name or _NAME_BREAK_RE.search(name):
            raise ValueError(f"{kind} name {name!r} cannot be saved or loaded: a "
                             "name is nonempty, without whitespace or any of , : { } |")
    if len(set(names)) != len(names):
        raise ValueError(f"{kind} names must be distinct")


def save_model(tree: DecisionTree) -> bytes:
    """Serialize a trained tree to canonical UTF-8 bytes.

    ValueError for an attribute or class name that would not load back
    the same: an empty or repeated name, or one holding whitespace or any
    of ``, : { } |``.
    """
    _check_names("attribute", tree.attribute_names)
    _check_names("class", tree.class_domain)
    lines = [
        _MAGIC,
        f"algorithm: {tree.params.algorithm}",
        "attributes: " + ",".join(tree.attribute_names),
        "classes: " + ",".join(tree.class_domain),
        "params: " + _params_text(tree.params, len(tree.attribute_names)),
        "tree:",
    ]
    # ``walk`` expands (node, its branch line, its children's depth) in pre-order;
    # the root has no branch line, so a root leaf prints only its leaf text.
    def expand(task):
        node, head, depth = task
        if isinstance(node, Leaf):
            lines.append(head + _leaf_text(node, tree.class_domain))
            return None, None
        if head:
            lines.append(head)
        attr = "|   " * depth + tree.attribute_names[node.attribute]
        threshold = format_number(node.threshold)
        return None, ((node.left, f"{attr} <= {threshold}", depth + 1),
                      (node.right, f"{attr} > {threshold}", depth + 1))

    walk((tree.root, "", 0), expand, lambda *_: None)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _parse_number(text: str, lineno: int, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ModelFormatError(lineno, f"bad {what} {text!r}") from None
    if not math.isfinite(value):
        raise ModelFormatError(lineno, f"non-finite {what} {text!r}")
    return value


def _parse_leaf(text: str, lineno: int, class_domain: Tuple[str, ...]) -> Leaf:
    match = _LEAF_RE.match(text)
    if not match:
        raise ModelFormatError(lineno, f"malformed leaf {text!r}")
    cls = match.group("cls")
    if cls not in class_domain:
        raise ModelFormatError(lineno, f"unknown class {cls!r}")
    weight = _parse_number(match.group("w"), lineno, "leaf weight")
    _parse_number(match.group("e"), lineno, "leaf error count")
    counts = [0.0] * len(class_domain)
    if match.group("dist") is not None:
        for entry in match.group("dist").split(","):
            name, sep, count_text = entry.partition(":")
            if not sep or name not in class_domain:
                raise ModelFormatError(lineno, f"malformed distribution entry {entry!r}")
            counts[class_domain.index(name)] = _parse_number(count_text, lineno, "class count")
    else:
        counts[class_domain.index(cls)] = weight
    leaf = Leaf(tuple(counts))
    if not math.isfinite(leaf.weight):
        raise ModelFormatError(lineno, "class counts add up to infinity")
    return leaf


def load_model(data: Union[bytes, str]) -> DecisionTree:
    """Parse model bytes back into the tree ``save_model`` wrote them from.

    Only what saving the parsed tree gives back byte for byte loads.  An
    error that leaves no tree to save is reported first, even below a line
    that is only non-canonical; otherwise the first line that differs from
    saving's, quoting both.
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFormatError(0, f"not valid UTF-8: {exc}") from None
    if "\r" in data:
        raise ModelFormatError(0, "model files must use LF line endings")
    if not data.endswith("\n"):
        raise ModelFormatError(max(data.count("\n"), 1), "file must end with a newline")
    lines = data.split("\n")[:-1]

    def expect(i: int, prefix: str) -> str:
        if i >= len(lines) or not lines[i].startswith(prefix):
            raise ModelFormatError(i + 1, f"expected a {prefix.rstrip(': ')!r} line")
        return lines[i][len(prefix):]

    if not lines or lines[0] != _MAGIC:
        raise ModelFormatError(1, f"expected header {_MAGIC!r}")
    algorithm = expect(1, "algorithm: ")
    if algorithm not in ALGORITHMS:
        raise ModelFormatError(2, f"unknown algorithm {algorithm!r}")

    def names(i: int, prefix: str, kind: str) -> Tuple[str, ...]:
        found = tuple(expect(i, prefix).split(","))
        try:
            _check_names(kind, found)
        except ValueError as exc:
            raise ModelFormatError(i + 1, str(exc)) from None
        return found

    attribute_names = names(2, "attributes: ", "attribute")
    class_domain = names(3, "classes: ", "class")
    params = _parse_params(expect(4, "params: "), algorithm, 5)
    if lines[5:6] != ["tree:"]:
        raise ModelFormatError(6, "expected a 'tree:' line")
    if len(lines) == 6:
        raise ModelFormatError(7, "missing tree body")
    pos = 6  # cursor into ``lines``; its line number is pos + 1

    def expand(depth):
        # A task is the depth of the branch line at the cursor, or None for
        # the root, which has a line only when it is a leaf.  Results are
        # (the branch's (attribute, threshold) test, node).  A node takes
        # the test of its first branch line; a pair whose operators or
        # tests are not "<=" and ">" of one test saves otherwise, so the
        # canonical comparison below reports the first wrong line of it.
        nonlocal pos
        lineno = pos + 1
        if pos >= len(lines):
            raise ModelFormatError(lineno, "unexpected end of tree body")
        line = lines[pos]
        if depth is None:
            if not line.startswith(":"):
                return None, (0, 0)
            pos += 1
            return (None, _parse_leaf(line, lineno, class_domain)), None
        indent = "|   " * depth
        if not line.startswith(indent) or line[len(indent):len(indent) + 1] in ("", "|", " "):
            raise ModelFormatError(lineno, f"bad indentation at depth {depth}")
        match = _BRANCH_RE.match(line[len(indent):])
        if not match:
            raise ModelFormatError(lineno, f"malformed branch line {line!r}")
        attr = match.group("attr")
        if attr not in attribute_names:
            raise ModelFormatError(lineno, f"unknown attribute {attr!r}")
        test = (attr, _parse_number(match.group("thr"), lineno, "threshold"))
        pos += 1
        if match.group("leaf"):
            return (test, _parse_leaf(match.group("leaf"), lineno, class_domain)), None
        return test, (depth + 1, depth + 1)

    def join(test, left, right):
        attr, threshold = left[0]
        return test, Internal(attribute_names.index(attr), threshold, left[1], right[1])

    _test, root = walk(None, expand, join)
    if pos != len(lines):
        raise ModelFormatError(pos + 1, "unexpected trailing content")
    tree = DecisionTree(root, attribute_names, class_domain, params)
    # Parsing took one line per header field and per node, as saving writes them.
    canonical = save_model(tree).decode("utf-8").split("\n")
    for lineno, (line, saved) in enumerate(zip(lines, canonical), 1):
        if line != saved:
            raise ModelFormatError(
                lineno, f"{line!r} is not in canonical form; saving gives {saved!r}")
    return tree


def _param_value(name: str, text: str):
    """A params field's value; ValueError naming the field and quoting
    text of the wrong kind, in TrainParams' words."""
    if name == "prune":
        if text not in ("true", "false"):
            raise ValueError(f"bad prune flag {text!r}")
        return text == "true"
    real = name == "confidence_factor"
    try:
        return float(text) if real else int(text)
    except ValueError:
        kind = "a real number" if real else "an integer"
        raise ValueError(f"{name} must be {kind}, got {text!r}") from None


def _parse_params(text: str, algorithm: str, lineno: int) -> TrainParams:
    expected = PARAM_FIELDS[algorithm]
    values = {}
    tokens = text.split(" ") if text else []
    if len(tokens) != len(expected):
        raise ModelFormatError(lineno, f"expected params {' '.join(expected)}")
    for token, key in zip(tokens, expected):
        name, sep, value = token.partition("=")
        if not sep or name != key:
            raise ModelFormatError(lineno, f"expected param {key!r}, got {token!r}")
        values[key] = value
    try:
        return TrainParams(algorithm, **{name: _param_value(name, value)
                                         for name, value in values.items()})
    except ValueError as exc:
        raise ModelFormatError(lineno, f"bad params: {exc}") from None
