"""Repeat benchmark runs over seeds and summarise them; compare checkouts.

One checkout (the current directory by default) gives the spread of
each metric across seeds:

    python3 perfbench/sweep.py --workloads fit,score,cv --seeds 1-10

Two checkouts run as alternating pairs: for each seed both are measured,
and which goes first alternates from seed to seed.  The same benchmark
files (this directory) drive both, so only the program differs:

    python3 perfbench/sweep.py --workloads fit --seeds 1-10 \\
        --checkout ../parent --checkout .

A comparison takes only seeds with golden hashes (golden.json), so both
checkouts' outputs are held to the same bytes.  Every run lasts
BENCHMARK.json's run_seconds.

Prints, per workload and metric, each checkout's median and quartiles
over the runs, the spread (quartile distance over median) against the
metric's bound, and for two checkouts the share of pairs the second
wins.  A spread above the bound is marked UNRESOLVED: at that noise the
bound cannot tell a regression from the machine.  --out writes every
run and the machine info as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

SPEC_FILE = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _sep, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def _version(module):
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def machine_info(checkouts):
    commits = []
    for checkout in checkouts:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                              capture_output=True, text=True)
        commits.append(done.stdout.strip() if done.returncode == 0 else None)
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": _version("numpy"),
            "scipy": _version("scipy"), "commits": commits}


def run_once(checkout, workload, seed, seconds, trace):
    """The JSON result of one benchmark run in `checkout`."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited "
                         f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarise(spec, workload, runs_by_checkout, trace):
    """Print one workload's table; return its summary rows."""
    metrics = spec["per_layer" if trace else "end_to_end"]
    rows = []
    print(f"\n{workload}: {len(runs_by_checkout[0])} runs per checkout")
    for metric in metrics:
        name, bound = metric["name"], metric.get("bound")
        row = {"metric": name, "unit": metric["unit"],
               "better": metric["better"], "bound": bound, "checkouts": []}
        for runs in runs_by_checkout:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median if median else None
            row["checkouts"].append({"median": median, "q1": q1, "q3": q3,
                                     "spread": spread, "n": len(values)})
        text = "  ".join(
            f"median {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
            + (f" spread {c['spread']:.3f}" if c["spread"] is not None else "")
            for c in row["checkouts"])
        if len(runs_by_checkout) == 2:
            base, change = ([r["metrics"][name]["value"] for r in runs]
                            for runs in runs_by_checkout)
            sign = 1 if metric["better"] == "higher" else -1
            wins = sum(sign * (b - a) > 0 for a, b in zip(base, change))
            row["second_wins"] = wins
            text += f"  second wins {wins}/{len(base)}"
        if bound is not None:
            text += f"  (bound {bound})"
            row["unresolved"] = [c["spread"] is None or c["spread"] > bound
                                 for c in row["checkouts"]]
            if any(row["unresolved"]):
                text += "  UNRESOLVED"
        print(f"  {name:<38} {metric['unit']:<6} {text}")
        rows.append(row)
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="fit,score,cv")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,9")
    parser.add_argument("--checkout", action="append",
                        help="checkout root to measure (repeat for two); "
                             "default: the current directory")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run and the summary here")
    args = parser.parse_args(argv)
    with open(SPEC_FILE, encoding="utf-8") as fh:
        spec = json.load(fh)
    checkouts = [os.path.abspath(c) for c in (args.checkout or ["."])]
    if len(checkouts) > 2:
        parser.error("at most two checkouts")
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    if len(checkouts) == 2:
        missing = [f"{w} {s}" for w in workloads for s in seeds
                   if run.load_golden(w, s) is None]
        if missing:
            parser.error("no golden hashes for " + ", ".join(missing))
    record = {"machine": machine_info(checkouts),
              "checkouts": [os.path.relpath(c) for c in checkouts],
              "seconds": seconds, "trace": args.trace, "seeds": seeds,
              "workloads": {}}
    for workload in workloads:
        runs = [[] for _ in checkouts]
        for i, seed in enumerate(seeds):
            order = list(range(len(checkouts)))
            if i % 2:
                order.reverse()
            for c in order:
                result = run_once(checkouts[c], workload, seed, seconds,
                                  args.trace)
                result["seed"] = seed
                # Sample counts behind this run's medians.
                result["passes"] = result["attempted"] // len(
                    run.commands(workload, ""))
                result["setup_launches"] = run.SETUP_LAUNCHES
                runs[c].append(result)
                print(f"{workload} seed {seed} checkout {c}: correct "
                      f"{result['correct']}, failed {result['failed']} of "
                      f"{result['attempted']}", flush=True)
        summary = summarise(spec, workload, runs, args.trace)
        record["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
