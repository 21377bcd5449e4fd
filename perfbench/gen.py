"""Seeded synthetic rainfall inputs for the benchmark workloads.

Each station gets a cosine seasonal cycle with a random base level,
amplitude and phase, drawn around one of a fixed set of regional
climates, plus Gaussian noise per month and a per-month missing rate.
Output follows the documented rainfall CSV grammar
(``station,region,year,jan..dec``), optionally with the trailing
``climate_class`` column.  The same (workload, seed) always gives the
same bytes: every random stream is derived from them by name.

Run as a script to write one workload's input files into a directory:

    python3 perfbench/gen.py --workload fit --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys

MONTHS = ("jan", "feb", "mar", "apr", "may", "jun",
          "jul", "aug", "sep", "oct", "nov", "dec")
HEADER = "station,region,year," + ",".join(MONTHS)
FIRST_YEAR = 1971

# Regional climates: (region, base mm, amplitude mm, wettest month - 1).
# Sixteen well-separated seasonal cycles give the learners a stable top
# structure, so the amount of training work changes little from seed to
# seed; stations of one climate still differ by their own random draws.
CLIMATES = tuple(
    (f"R{k:02d}", 60.0 + 220.0 * ((5 * k) % 16 + 0.5) / 16,
     20.0 + 200.0 * ((3 * k) % 16 + 0.5) / 16, 12.0 * ((7 * k) % 16 + 0.5) / 16)
    for k in range(16))

# Input shapes per workload: `files` independent station networks of
# `rows` station-years each (stations x `years`); `missing` is the chance
# that any one month is empty.  Several smaller networks instead of one
# large one average out how much work one network's trees happen to need.
# `fixture_rows` is the size of the file the score workload's model is
# trained on during set-up; it does not depend on the seed, as a deployed
# model does not change with the stations it scores.
SHAPES = {
    "fit": {"files": 4, "rows": 2000, "years": 10, "missing": 0.02},
    "score": {"files": 1, "rows": 100000, "years": 25, "missing": 0.02,
              "fixture_rows": 1000},
    "cv": {"files": 4, "rows": 250, "years": 5, "missing": 0.0,
           "labeled": True},
}

FIXTURE_FILE = "fixture.csv"
FIXTURE_MODEL = "fixture_model.txt"


def input_file(number: int) -> str:
    """Name of a workload's input file, numbered from 1."""
    return f"input-{number}.csv"


def station_years(rng: random.Random, rows: int, years: int, missing: float):
    """Yield (station, region, year, 12 values or None) tuples."""
    for s in range(math.ceil(rows / years)):
        region, base, amplitude, phase = CLIMATES[s % len(CLIMATES)]
        base += rng.gauss(0.0, 10.0)
        amplitude += rng.gauss(0.0, 10.0)
        phase += rng.gauss(0.0, 0.3)
        noise = rng.uniform(5.0, 25.0)
        for y in range(min(years, rows - s * years)):
            values = []
            for m in range(12):
                v = base + amplitude * math.cos(2.0 * math.pi * (m - phase) / 12.0)
                v = max(0.0, v + rng.gauss(0.0, noise))
                values.append(None if rng.random() < missing else round(v, 1))
            yield f"S{s:05d}", region, FIRST_YEAR + y, values


def rainfall_csv(rng: random.Random, rows: int, years: int, missing: float,
                 labels=None) -> str:
    """Rainfall file text; `labels(values)` adds a climate_class column."""
    lines = [HEADER + (",climate_class" if labels else "")]
    for station, region, year, values in station_years(rng, rows, years, missing):
        cells = [station, region, str(year)]
        cells += ["" if v is None else f"{v:.1f}" for v in values]
        if labels:
            cells.append(labels(values))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _oldeman_label(values) -> str:
    # The cv file is labeled by the program's own label_records, as a
    # user preparing a pre-labeled dataset would do.
    from croptree.dataset import StationYear, label_records
    record = StationYear("s", "r", 0, tuple(values))
    [(_rec, climate)] = label_records([record])
    return climate.label


def write_inputs(workload: str, seed: int, out_dir: str) -> None:
    """Write the input files of one workload into out_dir."""
    shape = SHAPES[workload]
    labels = _oldeman_label if shape.get("labeled") else None
    for number in range(1, shape["files"] + 1):
        rng = random.Random(f"croptree-bench:{workload}:{seed}:input-{number}")
        text = rainfall_csv(rng, shape["rows"], shape["years"],
                            shape["missing"], labels)
        with open(os.path.join(out_dir, input_file(number)), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
    if "fixture_rows" in shape:
        rng = random.Random(f"croptree-bench:{workload}:fixture")
        fixture = os.path.join(out_dir, FIXTURE_FILE)
        with open(fixture, "w", encoding="utf-8") as fh:
            fh.write(rainfall_csv(rng, shape["fixture_rows"], shape["years"],
                                  shape["missing"]))
        from croptree.cli import main
        code = main(["train", fixture, "-o",
                     os.path.join(out_dir, FIXTURE_MODEL),
                     "--algorithm", "gainratio"])
        if code != 0:
            raise SystemExit(f"fixture model training exited {code}")


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="existing directory")
    args = parser.parse_args(argv)
    write_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    # Run from a checkout root: the program under test lives in ./src.
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    raise SystemExit(_main())
