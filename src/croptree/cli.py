"""Command-line surface: oldeman, train, compare, recommend.

Exit codes: 0 success, 1 usage or parameter errors, 2 data errors.  A
reader that closes stdout early (``| head``) ends the command with exit
1 and nothing on stderr.  Commands that write files do so atomically; a
failing run leaves no partial output behind.  A new output file gets
mode 0666 less the umask, and a rewritten one keeps its permission bits.
``recommend`` prints its holdout accuracy on stdout when it writes its
CSV to a file, and on stderr when the CSV goes to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import pathlib
import sys
import tempfile
from typing import Iterable, Iterator, List, Optional

import numpy as np

from .climate import (CLASS_DOMAIN, MONTH_NAMES, CroppingPattern,
                      DEFAULT_B3_PATTERN, MissingPolicy, pattern_for_label)
from .dataset import (CountTable, Dataset, RainfallTable, count_table,
                      dataset_from_table, label_table, parse_table)
# Not called here: perfbench/spans.py wraps these names in this module.
from .dataset import (count_by_type_region, dataset_from_pairs,  # noqa: F401
                      label_dataset, label_records, parse_labeled_file,
                      parse_rainfall_file, sniff_labeled)
from .errors import DataError
from .evaluation import INDICATOR_ROWS, ComparisonTable, compare
from .model_io import load_model, save_model
from .trees import (ALGORITHMS, PARAM_FIELDS, TrainParams, predict_rows, train,
                    tree_size)
# Not called here either; spans.py wraps it as well.
from .trees import predict  # noqa: F401


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default of 2 is reserved for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _k_flag(text: str):
    if text == "auto":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"k must be an integer or 'auto', got {text!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="croptree",
                     description="Oldeman climate labeling and decision-tree "
                                 "cropping-pattern classification")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_policy(p):
        p.add_argument("--missing-policy", default="zerofill",
                       choices=sorted(m.value for m in MissingPolicy),
                       help="how to treat missing months when labeling")

    def add_b3(p):
        p.add_argument("--b3-pattern", choices=sorted(c.value for c in CroppingPattern),
                       default=DEFAULT_B3_PATTERN.value,
                       help="cropping pattern to use for the B3 climate class")

    p = sub.add_parser("oldeman", help="label a rainfall file with Oldeman classes")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    add_policy(p)
    add_b3(p)
    p.set_defaults(func=_cmd_oldeman)

    # Learner flags left out never reach ``args``: TrainParams has the defaults.
    p = sub.add_parser("train", help="train a decision tree on labeled rainfall data",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True, help="model file to write")
    p.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    p.add_argument("--min-leaf", type=int)
    p.add_argument("--confidence-factor", type=float)
    p.add_argument("--no-prune", dest="prune", action="store_false",
                   help="skip pessimistic pruning (gainratio only)")
    p.add_argument("--k", type=_k_flag,
                   help="attribute subset size for randomsubset (default auto)")
    p.add_argument("--prune-folds", type=int)
    p.add_argument("--seed", type=int)
    add_policy(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("compare", help="compare learners on one dataset")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--algorithms", default=",".join(ALGORITHMS),
                   help="comma-separated learner names")
    p.add_argument("--cv", type=int, default=10, help="cross-validation folds")
    p.add_argument("--resubstitution", action="store_true",
                   help="score on the training data instead of cross-validating")
    p.add_argument("--seed", type=int, default=TrainParams.seed)
    add_policy(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("recommend", help="predict classes and cropping patterns")
    p.add_argument("model")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--complete-only", action="store_true",
                   help="drop stations with any missing month")
    add_b3(p)
    p.set_defaults(func=_cmd_recommend)
    return parser


@contextlib.contextmanager
def _naming(path: str, verb: str = "read"):
    """Prefix each DataError raised inside with ``path``; an OSError becomes one."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    except OSError as exc:
        raise DataError(f"cannot {verb} {path}: {exc.strerror or exc}") from None


def _output_mode(path: str) -> int:
    """The permission bits of the file at ``path``, or those that ``open``
    gives a new file: 0666 less the umask."""
    try:
        return os.stat(path).st_mode & 0o777
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _atomic_write(path: str, chunks: Iterable[bytes]) -> None:
    """Write ``chunks``, one after another as they come, into a temporary
    file beside ``path``, which then replaces ``path`` with the mode
    ``_output_mode`` gives.  A failing write leaves ``path`` as it was and
    removes the temporary file."""
    with _naming(path, "write"):
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory,
                                   prefix=os.path.basename(path) + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
            os.chmod(tmp, _output_mode(path))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def _emit(chunks: Iterable[str], path: Optional[str]) -> None:
    """Text chunks to stdout, or UTF-8 encoded to ``path`` (_atomic_write)."""
    if path is None:
        for chunk in chunks:
            sys.stdout.write(chunk)
    else:
        _atomic_write(path, (chunk.encode("utf-8") for chunk in chunks))


#: CSV lines rendered, joined and written together.
_BLOCK_LINES = 4096


def _csv_blocks(header: str, lines: Iterable[str]) -> Iterator[str]:
    """The header line, then ``lines`` joined up to _BLOCK_LINES at a
    time, each line ended by a line feed."""
    yield header + "\n"
    lines = iter(lines)
    while block := list(itertools.islice(lines, _BLOCK_LINES)):
        yield "\n".join(block) + "\n"


def _read_table(path: str) -> RainfallTable:
    """The rainfall file at ``path``, raw or labeled; callers name the file.
    The open file is read in blocks, and neither its bytes nor its text
    are held whole."""
    with open(path, "rb") as fh:
        return parse_table(fh)


def _load_dataset(path: str, policy: MissingPolicy) -> Dataset:
    with _naming(path):
        return dataset_from_table(_read_table(path), policy)


def _csv_field(text: str) -> str:
    """Station or region text as one CSV field, quoted per RFC 4180 if it
    holds a quote or CR (the parser splits rows on commas and LFs)."""
    if '"' in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _render_count_table(table: CountTable) -> str:
    lines = ["climate_class," + ",".join(map(_csv_field, table.regions)) + ",total"]
    for cls, row, total in zip(table.classes, table.counts, table.class_totals):
        lines.append(f"{cls}," + ",".join(str(c) for c in row) + f",{total}")
    lines.append("total," + ",".join(str(t) for t in table.region_totals)
                 + f",{table.total}")
    return "\n".join(lines) + "\n"


def _render_comparison(table: ComparisonTable) -> str:
    def kappa_text(value):
        return "undefined" if value is None else f"{value:.4f}"

    columns = [
        [f"{r.accuracy_pct:.2f}" for r in table.reports],
        [kappa_text(r.kappa) for r in table.reports],
        [f"{r.mean_absolute_error:.4f}" for r in table.reports],
        [f"{r.root_mean_squared_error:.4f}" for r in table.reports],
        [str(r.tree_size) for r in table.reports],
    ]
    lines = ["indicator," + ",".join(table.algorithms)]
    for name, cells in zip(INDICATOR_ROWS, columns):
        lines.append(name + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def _pattern_texts(args) -> dict:
    """Cropping-pattern display text by class code, under ``--b3-pattern``."""
    b3 = CroppingPattern(args.b3_pattern)
    return {label: pattern_for_label(label, b3).display for label in CLASS_DOMAIN}


def _cmd_oldeman(args) -> int:
    with _naming(args.input):
        table = _read_table(args.input)
        if table.labels is not None:
            raise DataError("already labeled; expected a raw rainfall file")
        rows, types = label_table(table, MissingPolicy(args.missing_policy))
    patterns = _pattern_texts(args)
    labels = [climate.label for climate in types]
    regions = [table.regions[i] for i in rows]
    _emit(_csv_blocks("station,region,year,climate_class,cropping_pattern",
                      (f"{_csv_field(table.stations[i])},{_csv_field(region)},"
                       f'{table.years[i]},{label},"{patterns[label]}"'
                       for i, label, region in zip(rows, labels, regions))),
          args.output)
    sys.stdout.write(_render_count_table(count_table(labels, regions)))
    return 0


def _train_params(args) -> TrainParams:
    """The learner flags given, each of which must apply to the algorithm."""
    given = {name: value for name, value in vars(args).items()
             if any(name in fields for fields in PARAM_FIELDS.values())}
    for name in given:
        if name not in PARAM_FIELDS[args.algorithm]:
            flag = "--no-prune" if name == "prune" else "--" + name.replace("_", "-")
            raise ValueError(f"{flag} does not apply to {args.algorithm}")
    return TrainParams(args.algorithm, **given)


def _cmd_train(args) -> int:
    params = _train_params(args)
    dataset = _load_dataset(args.input, MissingPolicy(args.missing_policy))
    model = train(dataset, params)
    _atomic_write(args.output, [save_model(model)])
    correct = np.count_nonzero(predict_rows(model, dataset.values) == dataset.classes)
    print(f"tree size: {tree_size(model)}")
    print(f"training accuracy: {100.0 * correct / len(dataset):.2f}%")
    return 0


def _cmd_compare(args) -> int:
    names = [name.strip() for name in args.algorithms.split(",") if name.strip()]
    if not names:
        raise ValueError("no algorithms requested")
    learners = [TrainParams(name, seed=args.seed) for name in names]
    if not args.resubstitution and args.cv < 2:
        raise ValueError("cross-validation needs at least 2 folds")
    dataset = _load_dataset(args.input, MissingPolicy(args.missing_policy))
    table = compare(learners, dataset, k=args.cv, seed=args.seed,
                    resubstitution=args.resubstitution)
    _emit([_render_comparison(table)], args.output)
    return 0


def _cmd_recommend(args) -> int:
    with _naming(args.model):
        model = load_model(pathlib.Path(args.model).read_bytes())
        if (model.attribute_names != MONTH_NAMES
                or model.class_domain != CLASS_DOMAIN):
            raise DataError("model does not use the rainfall "
                            "pipeline's attribute and class domains")
    with _naming(args.input):
        table = _read_table(args.input)
        complete = table.complete
        if args.complete_only:
            kept = np.flatnonzero(complete)
            rainfall, rows = table.rainfall[kept], kept.tolist()
        else:
            rainfall, rows = table.rainfall, range(len(table))
        if not rows:
            raise DataError("no stations to classify")
    predicted = [model.class_domain[c]
                 for c in predict_rows(model, rainfall).tolist()]
    patterns = _pattern_texts(args)
    status = ("incomplete", "complete")
    complete = complete.tolist()
    _emit(_csv_blocks("station,region,climate_class,cropping_pattern,data_status",
                      (f"{_csv_field(table.stations[i])},{_csv_field(table.regions[i])},"
                       f'{label},"{patterns[label]}",{status[complete[i]]}'
                       for i, label in zip(rows, predicted))),
          args.output)
    if table.labels is not None:
        correct = sum(label == table.labels[i] for i, label in zip(rows, predicted))
        # Beside a CSV on stdout, the line would be a row no CSV reader wants.
        print(f"holdout accuracy: {100.0 * correct / len(rows):.2f}% "
              f"({correct}/{len(rows)})",
              file=sys.stderr if args.output is None else sys.stdout)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # A reader closed stdout early.  Python's flush at exit would raise
        # again, so stdout goes to devnull (the recipe in ``signal``'s docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    run()
