"""Reference re-computations of the benchmark's outputs.

These checks import nothing from croptree, so they hold for every seed,
including seeds that have no golden hashes.  They re-derive what each
command must have written from its input and the model files:

* Oldeman classes from the longest wet (>= 200 mm) and dry (< 100 mm)
  runs, missing months counted as 0 mm (the CLI's default policy);
* predictions by walking the model file's rule dump, a missing month
  following the heavier branch (ties left);
* the training accuracy `train` prints, from the saved model;
* the shape of the comparison table.
"""

from __future__ import annotations


MONTHS = ("jan", "feb", "mar", "apr", "may", "jun",
          "jul", "aug", "sep", "oct", "nov", "dec")
INDICATORS = ("Classification Accuracy (%)", "Kappa", "Mean absolute error",
              "Root mean square error", "Number of tree")


def oldeman_class(values):
    """Oldeman class code ('A1'..'D4', 'E') of 12 monthly values."""
    wet = dry = run_wet = run_dry = 0
    for v in values:
        v = 0.0 if v is None else v
        run_wet = run_wet + 1 if v >= 200.0 else 0
        run_dry = run_dry + 1 if v < 100.0 else 0
        wet = max(wet, run_wet)
        dry = max(dry, run_dry)
    letter = ("A" if wet >= 9 else "B" if wet >= 7 else "C" if wet >= 5
              else "D" if wet >= 3 else "E")
    if letter == "E":
        return "E"
    return letter + str(1 if dry <= 1 else 2 if dry <= 3 else 3 if dry <= 6 else 4)


def read_input(path):
    """[(station, region, year, values, label or None)] of a rainfall file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        values = [None if c == "" else float(c) for c in cells[3:15]]
        rows.append((cells[0], cells[1], cells[2], values,
                     cells[15] if len(cells) > 15 else None))
    return rows


def read_model(path):
    """(algorithm, root) of a model file.  A leaf is (class, weight), an
    internal node (month index, threshold, left, right, weight)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")[:-1]
    algorithm = lines[1].split(": ", 1)[1]
    body = lines[lines.index("tree:") + 1:]

    def leaf(text):
        cls, rest = text.split(" ", 1)
        return cls, float(rest[1:rest.index("/")])

    if body[0].startswith(": "):
        return algorithm, leaf(body[0][2:])
    # Open internal nodes, innermost last: [month, threshold, left or None].
    frames = []
    for line in body:
        depth = 0
        while line.startswith("|   ", 4 * depth):
            depth += 1
        head, sep, tail = line[4 * depth:].partition(": ")
        month, op, threshold = head.split(" ")
        if op == "<=":
            frames.append([MONTHS.index(month), float(threshold), None])
        # A leaf completes a child; each completed right child closes its node.
        child = leaf(tail) if sep else None
        while child is not None:
            if frames[-1][2] is None:
                frames[-1][2] = child
                break
            m, t, left = frames.pop()
            child = (m, t, left, child, left[-1] + child[-1])
            if not frames:
                return algorithm, child
    raise ValueError(f"{path}: tree body ends early")


def predict(node, values):
    while len(node) == 5:
        month, threshold, left, right, _w = node
        v = values[month]
        if v is None:
            node = left if left[-1] >= right[-1] else right
        else:
            node = left if v <= threshold else right
    return node[0]


def _check_labels(rows, path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "station,region,year,climate_class,cropping_pattern":
        return [f"{path}: bad header"]
    if len(lines) - 1 != len(rows):
        return [f"{path}: {len(lines) - 1} rows for {len(rows)} inputs"]
    for line, (station, region, year, values, _label) in zip(lines[1:], rows):
        cells = line.split(",", 4)
        if cells[:3] != [station, region, year] or cells[3] != oldeman_class(values):
            return [f"{path}: wrong row {line!r}"]
    return []


def _check_recommendations(rows, model_path, path):
    _alg, root = read_model(model_path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "station,region,climate_class,cropping_pattern,data_status":
        return [f"{path}: bad header"]
    if len(lines) - 1 != len(rows):
        return [f"{path}: {len(lines) - 1} rows for {len(rows)} inputs"]
    for line, (station, region, _year, values, _label) in zip(lines[1:], rows):
        cells = line.split(",")
        status = "incomplete" if None in values else "complete"
        if (cells[:3] != [station, region, predict(root, values)]
                or cells[-1] != status):
            return [f"{path}: wrong row {line!r}"]
    return []


def _check_model(rows, algorithm, path, stdout):
    alg, root = read_model(path)
    if alg != algorithm:
        return [f"{path}: algorithm {alg!r}, expected {algorithm!r}"]
    correct = sum(predict(root, values) == (label or oldeman_class(values))
                  for _s, _r, _y, values, label in rows)
    accuracy = f"training accuracy: {100.0 * correct / len(rows):.2f}%"
    if accuracy not in stdout:
        return [f"{path}: train printed {stdout!r}, the model gives {accuracy!r}"]
    return []


def _check_comparison(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "indicator,gainratio,randomsubset,reducederror":
        return [f"{path}: bad header"]
    names = tuple(line.split(",", 1)[0] for line in lines[1:])
    if names != INDICATORS:
        return [f"{path}: rows {names}"]
    accuracy = [float(c) for c in lines[1].rsplit(",", 3)[1:]]
    sizes = [int(c) for c in lines[5].rsplit(",", 3)[1:]]
    if not all(0.0 <= a <= 100.0 for a in accuracy) or min(sizes) < 1:
        return [f"{path}: out-of-range values"]
    return []


def check_outputs(commands, results):
    """Problems found in one pass's outputs.  `commands` and `results`
    are run.commands' and run.run_pass's, in the same order."""
    problems = []
    for cmd, (label, _seconds, code, digest, stdout) in zip(commands, results):
        if code != 0 or digest is None:
            continue  # counted as failed by the caller
        inputs = read_input(cmd.input)
        try:
            if cmd.argv[0] == "train":
                algorithm = cmd.argv[cmd.argv.index("--algorithm") + 1]
                problems += _check_model(inputs, algorithm, cmd.output, stdout)
            elif cmd.argv[0] == "oldeman":
                problems += _check_labels(inputs, cmd.output)
            elif cmd.argv[0] == "recommend":
                problems += _check_recommendations(inputs, cmd.argv[1],
                                                   cmd.output)
            else:
                problems += _check_comparison(cmd.output)
        except (ValueError, IndexError) as exc:
            problems.append(f"{label}: unreadable output: {exc}")
    return problems
