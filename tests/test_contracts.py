"""Total contracts of the library API, as a Hypothesis property.

Small datasets over 1-4 attributes, with missing cells, tied values, a
single class, NaN and ±inf features, and weights log-uniform over
[1e-300, 1e300], go through the instance and dataset constructors,
training, prediction, cross-validation and model files.  Each call returns
or raises ValueError or DataError (ModelFormatError is one); anything
else, a RuntimeWarning included, fails the test.  A saved model loads
and saves again to the same bytes.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from croptree import (ALGORITHMS, Dataset, DataError, LabeledInstance,
                      TrainParams, compare, cross_validate, load_model,
                      predict, predict_rows, save_model, train)

TYPED = (ValueError, DataError)

NON_FINITE = (math.nan, math.inf, -math.inf)

# A non-finite cell one time in ten, a missing one three times in ten, and
# otherwise a value from a few shared ones (ties) or any finite float.
CELLS = st.integers(0, 9).flatmap(
    lambda r: st.sampled_from(NON_FINITE) if r == 0 else
    st.none() if r <= 3 else
    st.sampled_from((0.0, 1.0, 2.5, 100.0)) if r <= 6 else
    st.floats(-1e6, 1e6))

WEIGHTS = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


def _typed(call, *args, **kwargs):
    """``call``'s result, or None when it raised a typed error."""
    try:
        return call(*args, **kwargs)
    except TYPED:
        return None


def _params(data, algorithm):
    seed = data.draw(st.integers(0, 5))
    if algorithm == "gainratio":
        return TrainParams(algorithm, min_leaf=data.draw(st.integers(1, 3)),
                           prune=data.draw(st.booleans()), seed=seed)
    if algorithm == "randomsubset":
        return TrainParams(algorithm, k=data.draw(st.none() | st.integers(1, 6)),
                           seed=seed)
    return TrainParams(algorithm, min_leaf=data.draw(st.integers(1, 3)),
                       prune_folds=data.draw(st.integers(2, 4)), seed=seed)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_public_api_returns_or_raises_typed_errors(data):
    n_attrs = data.draw(st.integers(1, 4))
    classes = data.draw(st.sampled_from((("X",), ("X", "Y"), ("X", "Y", "Z"))))
    rows = data.draw(st.lists(
        st.tuples(st.tuples(*[CELLS] * n_attrs), st.sampled_from(classes),
                  WEIGHTS), min_size=1, max_size=30))

    instances = [_typed(LabeledInstance, feats, label, weight=w)
                 for feats, label, w in rows]
    for (feats, _label, _w), inst in zip(rows, instances):
        bad = any(v is not None and not math.isfinite(v) for v in feats)
        assert (inst is None) == bad
    ds = Dataset(tuple(f"a{j}" for j in range(n_attrs)), classes,
                 tuple(inst for inst in instances if inst is not None))

    params = _params(data, data.draw(st.sampled_from(ALGORITHMS)))
    model = _typed(train, ds, params)
    if model is not None:
        for feats, _label, _w in rows:
            _typed(predict, model, feats)
        matrix = np.array([[math.nan if v is None else v for v in feats]
                           for feats, _label, _w in rows]).reshape(len(rows), n_attrs)
        _typed(predict_rows, model, matrix)
        text = save_model(model)
        assert save_model(load_model(text)) == text

    k = data.draw(st.integers(2, len(ds) + 2))
    _typed(cross_validate, ds, params, k, data.draw(st.integers(0, 5)))
    _typed(compare, [params], ds, k=k, resubstitution=data.draw(st.booleans()))
