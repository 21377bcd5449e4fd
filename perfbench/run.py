"""croptree benchmark: seeded workloads through `croptree.cli.main`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 20 --trace 0

Set-up generates the workload's input files from the seed in a child
process (gen.py), so this process holds only what the commands use.
After a short untimed warm-up the run repeats passes over the workload's
commands, in process and one after another, for about --seconds.  Every
pass's output files are hashed and must match the golden sha256
(golden.json) when the seed has one, the first pass's otherwise; the
first pass is also checked against reference.py's re-computations.

With --trace 0 the last stdout line is the JSON result with the
end-to-end metrics; with --trace 1 it runs one untraced and one traced
pass and reports the per-layer metrics from the spans (see spans.py).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import reference  # noqa: E402
from spans import (ALGORITHMS, Tracer, check_spans, layer_metrics,  # noqa: E402
                   layer_unit)

GOLDEN_FILE = os.path.join(HERE, "golden.json")
WORK_ROOT = os.path.join(HERE, ".work")
# Launches of a fresh interpreter behind each setup_s median.
SETUP_LAUNCHES = 9
# Seconds of untimed work before the timed passes.
WARM_UP_S = 2.0


class Command(NamedTuple):
    label: str
    argv: list
    input: str

    @property
    def output(self):
        """The file the command writes, its -o argument."""
        return self.argv[self.argv.index("-o") + 1]


def commands(workload, work):
    """The commands of one pass, in order."""
    def path(name):
        return os.path.join(work, name)

    files = [path(gen.input_file(n))
             for n in range(1, gen.SHAPES[workload]["files"] + 1)]
    if workload == "fit":
        return [Command(f"train {alg}", ["train", inp, "-o", path(f"model_{alg}-{n}.txt"),
                                         "--algorithm", alg], inp)
                for n, inp in enumerate(files, start=1) for alg in ALGORITHMS]
    if workload == "score":
        [inp] = files
        return [Command("oldeman", ["oldeman", inp, "-o", path("labels.csv")], inp),
                Command("recommend", ["recommend", path(gen.FIXTURE_MODEL), inp,
                                      "-o", path("recommendations.csv")], inp)]
    return [Command("compare", ["compare", inp, "--cv", "10",
                                "-o", path(f"comparison-{n}.csv")], inp)
            for n, inp in enumerate(files, start=1)]


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_pass(main, workload, work, tracer=None):
    """Run each command once.  Returns [(label, seconds, exit code,
    output sha256 or None, captured stdout)]."""
    results = []
    for cmd in commands(workload, work):
        if os.path.exists(cmd.output):
            os.unlink(cmd.output)
        stdout = io.StringIO()
        span = tracer.command(cmd.argv[0]) if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()), span:
            start = time.perf_counter()
            code = main(cmd.argv)
            seconds = time.perf_counter() - start
        digest = sha256(cmd.output) if os.path.exists(cmd.output) else None
        results.append((cmd.label, seconds, code, digest, stdout.getvalue()))
    return results


def warm_up(main, workload, work):
    """Run the workload's first commands, untimed, for WARM_UP_S: the
    first seconds of work in a process run measurably slower (allocator
    and CPU warm-up)."""
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for cmd in commands(workload, work):
            if time.perf_counter() - start > WARM_UP_S:
                break
            main(cmd.argv)


def load_golden(workload, seed):
    """{output file name: sha256} recorded for this seed, or None."""
    try:
        with open(GOLDEN_FILE, encoding="utf-8") as fh:
            golden = json.load(fh)
    except FileNotFoundError:
        return None
    return golden.get(workload, {}).get(str(seed))


def judge(workload, work, passes, golden):
    """Count attempted and failed commands; list what went wrong.

    A command fails on a non-zero exit, a missing output, or an output
    whose hash differs from the golden one (or, without a golden entry
    for the seed, from the first pass's).  The first pass's outputs are
    also checked against reference re-computations.
    """
    cmds = commands(workload, work)
    names = [os.path.basename(cmd.output) for cmd in cmds]
    expected = golden or {name: r[3] for name, r in zip(names, passes[0])}
    problems = reference.check_outputs(cmds, passes[0])
    failed = 0
    attempted = 0
    for number, results in enumerate(passes, start=1):
        for name, (label, _s, code, digest, _out) in zip(names, results):
            attempted += 1
            if code != 0 or digest is None or digest != expected.get(name):
                failed += 1
                problems.append(f"pass {number}: {label} exited {code}, "
                                f"{name} sha256 {digest}")
    return attempted, failed, problems


def prepare_inputs(workload, seed, work, env):
    """Write the workload's inputs in a child process, so that their
    generation does not count in this process's peak memory."""
    subprocess.run([sys.executable, os.path.join(HERE, "gen.py"),
                    "--workload", workload, "--seed", str(seed), "--out", work],
                   env=env, check=True, stdout=subprocess.DEVNULL)


def measure_setup(env):
    """Seconds from launching a fresh interpreter until croptree.cli is
    imported, one value per launch."""
    probe = ("import time, croptree.cli; "
             "print(time.clock_gettime(time.CLOCK_MONOTONIC))")
    values = []
    for _ in range(SETUP_LAUNCHES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        values.append(float(done.stdout.strip()) - start)
    return values


def grow_unpruned(tracer, work):
    """One extra gainratio training without pruning, on the first input
    file, timed as trees.grow."""
    from croptree.dataset import (dataset_from_pairs, label_dataset,
                                  parse_labeled_file, parse_rainfall_file,
                                  sniff_labeled)
    from croptree.trees import TrainParams, train
    with open(os.path.join(work, gen.input_file(1)), "rb") as fh:
        data = fh.read()
    if sniff_labeled(data):
        dataset = dataset_from_pairs(parse_labeled_file(data))
    else:
        dataset = label_dataset(parse_rainfall_file(data))
    with tracer.root("trees.grow"):
        return train(dataset, TrainParams("gainratio", prune=False))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _report(lines, name, value, unit, note=""):
    lines.append(f"  {name:<36} {value:>14.6g} {unit:<6} {note}")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("fit", "score", "cv"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "croptree", "cli.py")):
        print(f"error: no croptree sources under {src}; run from the root "
              "of a croptree checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return _run(args, env, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, env, src, work):
    lines = [f"croptree benchmark: workload {args.workload}, seed {args.seed}, "
             f"trace {args.trace}"]
    start = time.perf_counter()
    prepare_inputs(args.workload, args.seed, work, env)
    lines.append(f"  inputs generated in {time.perf_counter() - start:.2f} s "
                 "(benchmark set-up, not gated)")
    sys.path.insert(0, src)
    from croptree.cli import main as cli_main

    passes = []
    metrics = {}
    if args.trace:
        warm_up(cli_main, args.workload, work)
        passes.append(run_pass(cli_main, args.workload, work))
        tracer = Tracer()
        with tracer.patched():
            passes.append(run_pass(cli_main, args.workload, work, tracer))
        grown = grow_unpruned(tracer, work) if args.workload != "score" else None
        os.makedirs(WORK_ROOT, exist_ok=True)
        tracer.write(os.path.join(
            WORK_ROOT, f"spans-{args.workload}-{args.seed}.jsonl"))
        problems = check_spans(tracer.spans, [r[1] for r in passes[1]])
        values = layer_metrics(tracer.spans, grown)
        values["trace.overhead_s"] = (sum(r[1] for r in passes[1])
                                      - sum(r[1] for r in passes[0]))
        for name, value in values.items():
            unit = layer_unit(name)
            metrics[name] = _metric(value, unit)
            _report(lines, name, value, unit)
    else:
        setup = measure_setup(env)
        warm_up(cli_main, args.workload, work)
        # The first pass sets how many passes fill --seconds, at least two.
        passes.append(run_pass(cli_main, args.workload, work))
        first = sum(r[1] for r in passes[0])
        for _ in range(max(2, int(args.seconds / first)) - 1):
            passes.append(run_pass(cli_main, args.workload, work))
        # Median over passes of each command, summed over the pass: one
        # slow outlier of one command does not move the pass's time.
        per_command = [statistics.median(results[i][1] for results in passes)
                       for i in range(len(passes[0]))]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "pass_s": _metric(sum(per_command), "s"),
            "peak_rss_mb": _metric(peak_mb, "MB"),
        }
        problems = []
        _report(lines, "setup_s", metrics["setup_s"]["value"], "s",
                f"median of {len(setup)} launches")
        _report(lines, "pass_s", metrics["pass_s"]["value"], "s",
                f"sum of per-command medians over {len(passes)} passes")
        _report(lines, "peak_rss_mb", peak_mb, "MB")
        shape = gen.SHAPES[args.workload]
        for label in dict.fromkeys(r[0] for r in passes[0]):
            times = [sum(r[1] for r in results if r[0] == label)
                     for results in passes]
            median = statistics.median(times)
            lines.append(f"  {label:<20} median {median:9.4f} s per pass over "
                         f"{shape['files']} file(s), {len(times)} passes, "
                         f"{shape['rows'] * shape['files'] / median:,.0f} rows/s")

    golden = load_golden(args.workload, args.seed)
    attempted, failed, more = judge(args.workload, work, passes, golden)
    problems += more
    against = ("golden hashes" if golden
               else "the first pass (no golden hashes for this seed)")
    lines.append(f"  outputs checked against {against}: "
                 f"{failed} of {attempted} commands failed")
    lines += [f"  problem: {p}" for p in problems]
    print("\n".join(lines))
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
