"""Tests of the benchmark itself, at small input sizes.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SMALL = {
    "fit": {"files": 2, "rows": 120, "years": 6, "missing": 0.05},
    "score": {"files": 1, "rows": 150, "years": 5, "missing": 0.05,
              "fixture_rows": 80},
    "cv": {"files": 2, "rows": 60, "years": 5, "missing": 0.0, "labeled": True},
}


@pytest.fixture(autouse=True)
def small_shapes(monkeypatch):
    monkeypatch.setattr(gen, "SHAPES", SMALL)


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _inputs(tmp_path, workload, seed, name):
    directory = tmp_path / name
    directory.mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        gen.write_inputs(workload, seed, str(directory))
    return str(directory)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, workload):
    first = _files(_inputs(tmp_path, workload, 7, "a"))
    again = _files(_inputs(tmp_path, workload, 7, "b"))
    other = _files(_inputs(tmp_path, workload, 8, "c"))
    assert first == again
    name = gen.input_file(1)
    assert first[name] != other[name]
    lines = first[name].decode().splitlines()
    assert len(lines) == SMALL[workload]["rows"] + 1
    assert lines[0].endswith("dec,climate_class" if workload == "cv" else "dec")


def _clean_pass(tmp_path, workload):
    from croptree.cli import main
    work = _inputs(tmp_path, workload, 3, "work")
    results = run.run_pass(main, workload, work)
    assert all(code == 0 for _l, _s, code, _d, _o in results)
    golden = {os.path.basename(cmd.output): r[3]
              for cmd, r in zip(run.commands(workload, work), results)}
    return work, results, golden


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_clean_pass_passes_every_check(tmp_path, workload):
    work, results, golden = _clean_pass(tmp_path, workload)
    assert run.judge(workload, work, [results, results], golden) == (
        2 * len(results), 0, [])


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_one_byte_change_is_a_failure(tmp_path, workload):
    work, results, golden = _clean_pass(tmp_path, workload)
    label, seconds, code, _digest, stdout = results[-1]
    path = run.commands(workload, work)[-1].output
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    # Flip a digit in the last data row: the file keeps its shape.
    at = max(i for i, b in enumerate(data) if chr(b).isdigit())
    data[at] = ord("0") if data[at] != ord("0") else ord("1")
    with open(path, "wb") as fh:
        fh.write(data)
    changed = results[:-1] + [(label, seconds, code, run.sha256(path), stdout)]
    attempted, failed, problems = run.judge(workload, work, [changed], golden)
    assert (attempted, failed) == (len(results), 1)
    assert problems


def test_reference_catches_a_wrong_class(tmp_path):
    work, results, _golden = _clean_pass(tmp_path, "score")
    cmds = run.commands("score", work)
    path = cmds[0].output
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[1].split(",")
    cells[3] = "A1" if cells[3] != "A1" else "E"
    lines[1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert reference.check_outputs(cmds, results)


def _oldeman_spans():
    """A hand-made span list of one oldeman command: [id, parent, run,
    name, start, end, info]."""
    return [[0, None, 1, "cli.oldeman", 0.0, 10.0, None],
            [1, 0, 1, "dataset.parse", 1.0, 3.0, 100],
            [2, 0, 1, "dataset.label", 3.0, 8.0, 0],
            [3, 2, 1, "climate.classify", 4.0, 5.0, None]]


def test_consistent_spans_pass_the_span_check():
    assert spans.check_spans(_oldeman_spans(), [9.999]) == []


@pytest.mark.parametrize("change, message", [
    (lambda s: s.append([4, 0, 1, "dataset.mystery", 8.0, 9.0, None]),
     "lands in no reported metric"),
    (lambda s: s[2].__setitem__(spans.START, 2.5), "overlaps its previous sibling"),
    (lambda s: s[3].__setitem__(spans.END, 8.5), "not inside its parent"),
    (lambda s: s.append([4, None, 1, "trees.predict", 11.0, 12.0, None]),
     "outside any command"),
    # Parse time nested in labeling lands in dataset.parse_s twice.
    (lambda s: s[3].__setitem__(spans.NAME, "dataset.parse"), "metrics give"),
])
def test_inconsistent_spans_fail_the_span_check(change, message):
    records = _oldeman_spans()
    change(records)
    problems = spans.check_spans(records, [9.999])
    assert any(message in p for p in problems), problems


def test_span_check_compares_the_measured_command_time():
    problems = spans.check_spans(_oldeman_spans(), [9.0])
    assert any("the command took" in p for p in problems), problems


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec


@pytest.mark.parametrize("workload", sorted(SMALL))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_is_declared(tmp_path, monkeypatch, workload, trace):
    def prepare(workload, seed, work, env):
        with contextlib.redirect_stdout(io.StringIO()):
            gen.write_inputs(workload, seed, work)

    monkeypatch.setattr(run, "prepare_inputs", prepare)
    monkeypatch.setattr(run, "SETUP_LAUNCHES", 1)
    monkeypatch.setattr(run, "WORK_ROOT", str(tmp_path))
    monkeypatch.setattr(run, "GOLDEN_FILE", str(tmp_path / "no-golden.json"))
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "5",
                         "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    spec = _declared()
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert workload in {w["name"] for w in spec["workloads"]}
