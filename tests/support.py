"""Shared generators for synthetic rainfall data and random datasets, and
a runner for code that must finish within a time and memory bound."""

import os
import pathlib
import random
import resource
import subprocess
import sys

from croptree import Dataset, LabeledInstance, StationYear
from croptree.dataset import RAINFALL_HEADER
from croptree.trees import _block_scores, _root, _small_candidates

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# Month layouts per climate class: W wet, M moist, D dry.  Each layout's
# wet/dry runs land squarely inside one Oldeman cell, and the sampling
# bands below keep every month far from the 100/200 mm boundaries.
TEMPLATES = {
    "A1": "W" * 12,
    "A2": "W" * 10 + "D" * 2,
    "B2": "W" * 8 + "M" + "D" * 3,
    "B3": "W" * 7 + "D" * 5,
    "C3": "W" * 5 + "M" * 2 + "D" * 5,
    "C4": "W" * 5 + "D" * 7,
}

BANDS = {"W": (260.0, 340.0), "M": (130.0, 170.0), "D": (20.0, 80.0)}


def make_stations(n=75, seed=7, year=2013):
    """Synthetic stations with well-separated rainfall regimes."""
    rng = random.Random(seed)
    types = sorted(TEMPLATES)
    records = []
    for i in range(n):
        shape = TEMPLATES[types[i % len(types)]]
        rainfall = tuple(round(rng.uniform(*BANDS[ch]), 1) for ch in shape)
        region = "DKI Jakarta" if i % 2 else "Banten"
        records.append(StationYear(f"ST{i:03d}", region, year, rainfall))
    return records


def memory_text(n_stations, n_rows=20_000):
    """A raw rainfall file of n_rows rows in 16 regions with 2% of months
    missing: n_stations stations of n_rows / n_stations years each."""
    rng = random.Random(0)
    years = n_rows // n_stations
    lines = [RAINFALL_HEADER]
    for s in range(n_stations):
        for y in range(years):
            cells = ["" if rng.random() < 0.02 else f"{rng.uniform(0, 400):.1f}"
                     for _ in range(12)]
            lines.append(f"S{s:05d},R{s % 16:02d},{1971 + y}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def random_dataset(rng, max_instances=25, n_attrs=4, classes=("X", "Y", "Z"),
                   missing_prob=0.15, value_pool=None):
    """A random labeled dataset; values repeat often so splits get ties."""
    n = rng.randint(1, max_instances)
    names = tuple(f"a{j}" for j in range(n_attrs))
    instances = []
    for i in range(n):
        feats = []
        for _ in range(n_attrs):
            if rng.random() < missing_prob:
                feats.append(None)
            elif value_pool is not None:
                feats.append(rng.choice(value_pool))
            else:
                feats.append(round(rng.uniform(0.0, 400.0), 1))
        instances.append(LabeledInstance(tuple(feats), rng.choice(classes),
                                         provenance_id=f"r{i}"))
    return Dataset(names, tuple(classes), tuple(instances))


def random_consistent_dataset(rng, max_instances=15, n_attrs=3,
                              classes=("X", "Y", "Z")):
    """Random dataset with no missing values and no duplicated feature
    vector carrying two different labels."""
    n = rng.randint(1, max_instances)
    names = tuple(f"a{j}" for j in range(n_attrs))
    seen = {}
    instances = []
    for i in range(n):
        feats = tuple(float(rng.choice((0, 50, 100, 200, 400)))
                      for _ in range(n_attrs))
        label = seen.setdefault(feats, rng.choice(classes))
        instances.append(LabeledInstance(feats, label, provenance_id=f"r{i}"))
    return Dataset(names, tuple(classes), tuple(instances))


def random_feature_vector(rng, n_attrs, missing_prob=0.25):
    return tuple(None if rng.random() < missing_prob
                 else round(rng.uniform(-50.0, 450.0), 2)
                 for _ in range(n_attrs))


def kernel_candidates(dataset, attr, min_leaf):
    """Both split kernels' candidate lists, [(threshold, gain, ratio), ...],
    for one attribute over every row of ``dataset``: (Python, numpy)."""
    node = _root(dataset)
    n_classes = len(dataset.class_domain)
    scores = _block_scores(dataset, node, [attr], n_classes, min_leaf)
    return (_small_candidates(dataset.features, node, attr, n_classes, min_leaf),
            list(zip(scores.threshold.tolist(), scores.gain.tolist(),
                     scores.ratio.tolist())))


def run_bounded(args, timeout=60, memory=1_500_000_000):
    """Run ``python args`` in a fresh interpreter that imports croptree from
    this checkout, within ``timeout`` seconds and ``memory`` bytes of
    address space, a RuntimeWarning being an error: a runaway loop then
    fails the test instead of hanging it or exhausting the machine."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    # numpy's BLAS reserves address space per thread, as many as there are
    # cores; one thread keeps the bound the same on any machine.
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args],
                          capture_output=True, text=True, timeout=timeout,
                          env=env, preexec_fn=limit)
