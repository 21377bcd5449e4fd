"""Record golden sha256 hashes of every output file, per workload and seed.

Run from the root of a checkout whose outputs are known to be right:

    python3 perfbench/golden.py --seeds 0-10

Each (workload, seed) runs one pass; its outputs must first pass the
reference checks.  Existing entries for other seeds are kept.  A change
that is meant to alter outputs (a new model format, say) re-records
them and says so.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import run  # noqa: E402
from sweep import parse_seeds  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-20 or 3,5")
    args = parser.parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    from croptree.cli import main as cli_main

    try:
        with open(run.GOLDEN_FILE, encoding="utf-8") as fh:
            golden = json.load(fh)
    except FileNotFoundError:
        golden = {}
    env = dict(os.environ, PYTHONPATH=src)
    for workload in ("fit", "score", "cv"):
        for seed in parse_seeds(args.seeds):
            work = os.path.join(run.WORK_ROOT, f"golden-{workload}-{seed}")
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            try:
                run.prepare_inputs(workload, seed, work, env)
                cmds = run.commands(workload, work)
                results = run.run_pass(cli_main, workload, work)
                problems = reference.check_outputs(cmds, results)
                problems += [f"{r[0]} exited {r[2]}" for r in results if r[2] != 0]
                if problems:
                    raise SystemExit(f"{workload} seed {seed}: {problems}")
                golden.setdefault(workload, {})[str(seed)] = {
                    os.path.basename(cmd.output): r[3]
                    for cmd, r in zip(cmds, results)}
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"{workload} seed {seed} recorded", flush=True)
    with open(run.GOLDEN_FILE, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
