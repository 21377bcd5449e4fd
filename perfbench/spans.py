"""In-memory spans around calls between croptree's modules.

The benchmark wraps the functions one module calls in another (and the
two evaluation entry points compare -> cross_validate) from outside the
package, so nothing under src/ knows it is traced.  Every span records
(id, parent id, run id, name, start, end, info); spans of one CLI
command share its run id and nest under the command's own span.  Spans
stay in memory and are written out once, after the run.

A layer's ``*_s`` metric is the inclusive time of its spans (SPAN_TIME
names which); ``self_s`` is a span's duration minus that of its direct
children.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time

ALGORITHMS = ("gainratio", "randomsubset", "reducederror")
COMMANDS = ("oldeman", "train", "compare", "recommend")


def _rows(args, result):
    return len(result)


def _skipped(args, result):
    return len(args[0]) - len(result)


def _model(args, result):
    return result


def _saved(args, result):
    return args[0].params.algorithm, len(result)


def _algorithm(args, result):
    return args[1].algorithm


# (module the call is made from, name bound there, span name, info).
# `info(args, result)` runs after the span ends and must be O(1); the
# tree walks behind the node and depth counters happen after the run.
BOUNDARIES = (
    ("cli", "sniff_labeled", "dataset.parse", None),
    ("cli", "parse_rainfall_file", "dataset.parse", _rows),
    ("cli", "parse_labeled_file", "dataset.parse", _rows),
    ("cli", "label_records", "dataset.label", _skipped),
    ("cli", "label_dataset", "dataset.label", _skipped),
    ("cli", "dataset_from_pairs", "dataset.label", None),
    ("cli", "count_by_type_region", "dataset.count", None),
    ("dataset", "classify_oldeman", "climate.classify", None),
    ("cli", "train", "trees.train", _model),
    ("cli", "predict", "trees.predict", None),
    ("cli", "tree_size", "trees.size", None),
    ("cli", "save_model", "model_io.save", _saved),
    ("cli", "load_model", "model_io.load", None),
    ("cli", "compare", "evaluation.compare", None),
    ("evaluation", "cross_validate", "evaluation.cross_validate", _algorithm),
    ("evaluation", "stratified_folds", "dataset.folds", None),
    ("evaluation", "train", "trees.train", _model),
    ("evaluation", "predict", "trees.predict", None),
    ("evaluation", "tree_size", "trees.size", None),
)

ID, PARENT, RUN, NAME, START, END, INFO = range(7)

# Span name -> the per-layer metric its inclusive time adds to; "{}" is
# the learner.  Command spans add to cli.wall_s.<command>.
SPAN_TIME = {
    "dataset.parse": "dataset.parse_s",
    "dataset.label": "dataset.label_s",
    "dataset.count": "dataset.count_s",
    "dataset.folds": "dataset.folds_s",
    "climate.classify": "climate.classify_s",
    "trees.train": "trees.train_s.{}",
    "trees.grow": "trees.grow_s.gainratio",
    "trees.predict": "trees.predict_s",
    "trees.size": "trees.size_s",
    "model_io.save": "model_io.save_s",
    "model_io.load": "model_io.load_s",
    "evaluation.compare": "evaluation.compare_s",
    "evaluation.cross_validate": "evaluation.cross_validate_s.{}",
}


def time_metric(span):
    """The metric a span's inclusive time lands in, or None."""
    name, info = span[NAME], span[INFO]
    if name.startswith("cli."):
        return "cli.wall_s." + name[4:]
    key = SPAN_TIME.get(name)
    if key is not None and "{}" in key:
        # trees.train carries its model, cross_validate its learner; a
        # call that raised carries nothing.
        if info is None:
            return None
        key = key.format(info if isinstance(info, str) else info.params.algorithm)
    return key


class Tracer:
    """Collects spans; `patched()` installs the boundary wrappers."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._run = 0

    @contextlib.contextmanager
    def span(self, name):
        record = [len(self.spans), self._stack[-1] if self._stack else None,
                  self._run, name, 0.0, 0.0, None]
        self.spans.append(record)
        self._stack.append(record[ID])
        record[START] = time.perf_counter()
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def root(self, name):
        """A top-level span with a new run id."""
        self._run += 1
        with self.span(name):
            yield

    def command(self, name):
        """Span of one CLI command."""
        return self.root("cli." + name)

    def _wrap(self, fn, name, info):
        # span() inlined: recommend predicts 100k rows per pass, and a
        # context manager per call would double the tracing overhead.
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else None, self._run,
                      name, 0.0, 0.0, None]
            spans.append(record)
            stack.append(record[ID])
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if info is not None:
                record[INFO] = info(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install wrappers for every boundary; restore them on exit."""
        saved = []
        try:
            for module_name, attr, name, info in BOUNDARIES:
                module = importlib.import_module(f"croptree.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, info))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path):
        """Write the spans as JSON lines, one array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                info = record[INFO]
                if not isinstance(info, (int, str, tuple, type(None))):
                    info = None
                fh.write(json.dumps(record[:INFO] + [info]) + "\n")


def self_times(spans):
    """Per span: its duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def tree_shape(node):
    """(node count, depth in edges) of a croptree tree, without recursion."""
    count = depth = 0
    stack = [(node, 0)]
    while stack:
        node, d = stack.pop()
        count += 1
        depth = max(depth, d)
        if hasattr(node, "left"):
            stack.append((node.left, d + 1))
            stack.append((node.right, d + 1))
    return count, depth


def check_spans(spans, seconds, tolerance=1e-6, clock_slack=5e-3):
    """Problems with the recorded spans, as the per-layer metrics see them.

    Every span must lie inside its parent, after its previous sibling and
    in its parent's run; only command spans and trees.grow may be roots.
    Every span's time must land in a reported metric.  For each command,
    cli.self_s plus the metrics its direct children land in, summed over
    the command's run, must give cli.wall_s: a metric that also collects
    time from deeper spans would count it twice.  `seconds` are the
    command times the benchmark measured itself, in span order; each
    command span must enclose its time with at most `clock_slack` to spare.
    """
    reported = set(layer_metrics([]))
    problems = []
    last_end = {}
    for s in spans:
        label = f"span {s[NAME]} #{s[ID]}"
        parent = s[PARENT]
        if s[END] < s[START]:
            problems.append(f"{label} ends before it starts")
        if parent is None:
            if not s[NAME].startswith("cli.") and s[NAME] != "trees.grow":
                problems.append(f"{label} is outside any command")
        else:
            p = spans[parent]
            if s[RUN] != p[RUN]:
                problems.append(f"{label} is in another run than its parent")
            if s[START] < p[START] or s[END] > p[END]:
                problems.append(f"{label} is not inside its parent")
            if s[START] < last_end.get(parent, p[START]):
                problems.append(f"{label} overlaps its previous sibling")
            last_end[parent] = s[END]
        if time_metric(s) not in reported:
            problems.append(f"{label} lands in no reported metric")
    if problems:
        return problems

    own = self_times(spans)
    per_run = {}
    top = {}
    for s in spans:
        run = per_run.setdefault(s[RUN], {})
        key = time_metric(s)
        run[key] = run.get(key, 0.0) + (s[END] - s[START])
        if s[PARENT] is not None and spans[s[PARENT]][NAME].startswith("cli."):
            top.setdefault(s[PARENT], set()).add(key)
    commands = [s for s in spans if s[NAME].startswith("cli.")]
    if len(commands) != len(seconds):
        problems.append(f"{len(commands)} command spans for "
                        f"{len(seconds)} commands run")
    for s, measured in zip(commands, seconds):
        wall = s[END] - s[START]
        run = per_run[s[RUN]]
        attributed = own[s[ID]] + sum(run[k] for k in top.get(s[ID], ()))
        if abs(attributed - wall) > tolerance:
            problems.append(f"metrics give {s[NAME]} #{s[ID]} {attributed:.6f} s "
                            f"of its {wall:.6f} s")
        if not 0 <= wall - measured <= clock_slack:
            problems.append(f"{s[NAME]} #{s[ID]} spans {wall:.6f} s, the "
                            f"command took {measured:.6f} s")
    return problems


def layer_unit(name):
    """Unit of a per-layer metric, from the part after the layer name."""
    part = name.split(".")[1]
    if part.endswith("_s"):
        return "s"
    if "_us_" in part:
        return "us"
    return "bytes" if part == "bytes" else "count"


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def layer_metrics(spans, grow_tree=None):
    """The per-layer metrics, in seconds, counts, bytes and microseconds.

    Every metric is present on every workload; a layer the workload does
    not reach reads 0.
    """
    own = self_times(spans)
    m = {}
    for cmd in COMMANDS:
        m[f"cli.wall_s.{cmd}"] = 0.0
        m[f"cli.self_s.{cmd}"] = 0.0
    for key in SPAN_TIME.values():
        if "{}" not in key:
            m[key] = 0.0
    m["evaluation.self_s"] = 0.0
    for key in ("dataset.rows_parsed", "dataset.rows_skipped",
                "climate.classify_calls", "trees.predict_calls",
                "trees.nodes_unpruned.gainratio"):
        m[key] = 0
    for alg in ALGORITHMS:
        m[f"trees.train_s.{alg}"] = 0.0
        m[f"trees.train_calls.{alg}"] = 0
        m[f"trees.nodes.{alg}"] = 0
        m[f"trees.depth.{alg}"] = 0
        m[f"model_io.bytes.{alg}"] = 0
        m[f"evaluation.cross_validate_s.{alg}"] = 0.0
    predict_us = []
    for s in spans:
        name, dur, info = s[NAME], s[END] - s[START], s[INFO]
        key = time_metric(s)
        if key in m:  # check_spans names the spans that land nowhere
            m[key] += dur
        if name.startswith("cli."):
            m[f"cli.self_s.{name[4:]}"] += own[s[ID]]
        elif name == "dataset.parse":
            m["dataset.rows_parsed"] += info or 0
        elif name == "dataset.label":
            m["dataset.rows_skipped"] += info or 0
        elif name == "climate.classify":
            m["climate.classify_calls"] += 1
        elif name == "trees.train" and info is not None:
            alg = info.params.algorithm
            nodes, depth = tree_shape(info.root)
            m[f"trees.train_calls.{alg}"] += 1
            m[f"trees.nodes.{alg}"] += nodes
            m[f"trees.depth.{alg}"] = max(m[f"trees.depth.{alg}"], depth)
        elif name == "trees.predict":
            predict_us.append(dur * 1e6)
        elif name == "model_io.save":
            m[f"model_io.bytes.{info[0]}"] += info[1]
        elif name.startswith("evaluation."):
            m["evaluation.self_s"] += own[s[ID]]
    if grow_tree is not None:
        m["trees.nodes_unpruned.gainratio"] = tree_shape(grow_tree.root)[0]
    predict_us.sort()
    m["trees.predict_calls"] = len(predict_us)
    m["trees.predict_us_p50"] = statistics.median(predict_us) if predict_us else 0.0
    m["trees.predict_us_p99"] = _percentile(predict_us, 0.99)
    m["trace.spans"] = len(spans)
    return m
