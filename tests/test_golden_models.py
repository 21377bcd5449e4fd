"""Trained model files must stay byte-identical.

Each learner is trained on one seeded 300-row dataset in which about 8%
of the months are missing, so the models carry fractional weights and
``{...}`` leaf distributions.  The expected bytes live in
``tests/golden/``; re-record them on purpose only, with

    PYTHONPATH=src python tests/test_golden_models.py
"""

import pathlib
import random
import re

import pytest

from croptree import StationYear, TrainParams, label_dataset, save_model, train
from support import make_stations

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

CASES = {
    "gainratio.model": TrainParams("gainratio"),
    "gainratio_unpruned.model": TrainParams("gainratio", prune=False),
    "randomsubset.model": TrainParams("randomsubset", seed=7),
    "reducederror.model": TrainParams("reducederror"),
}


def golden_dataset():
    rng = random.Random(2024)
    records = []
    for rec in make_stations(n=300, seed=11):
        rainfall = tuple(None if rng.random() < 0.08 else v
                         for v in rec.rainfall)
        records.append(StationYear(rec.station_id, rec.region, rec.year,
                                   rainfall))
    return label_dataset(records)


@pytest.fixture(scope="module")
def dataset():
    return golden_dataset()


@pytest.mark.parametrize("name", sorted(CASES))
def test_model_bytes_unchanged(dataset, name):
    expected = (GOLDEN_DIR / name).read_bytes()
    assert save_model(train(dataset, CASES[name])) == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_models_show_fractional_weights(name):
    text = (GOLDEN_DIR / name).read_text()
    leaf_weights = re.findall(r"\(([^/()]+)/", text)
    assert "{" in text
    assert any("." in w for w in leaf_weights)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    data = golden_dataset()
    for name, params in CASES.items():
        (GOLDEN_DIR / name).write_bytes(save_model(train(data, params)))
