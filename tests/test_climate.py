import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from croptree import (CLASS_DOMAIN, ClimateType, CroppingPattern, DataError,
                      MissingMonthError, MissingPolicy, MonthCategory,
                      categorize_month, classify_oldeman, classify_rows,
                      cropping_pattern, pattern_for_label, run_summary)

W, M, D = MonthCategory.WET, MonthCategory.MOIST, MonthCategory.DRY


class TestCategorizeMonth:
    @pytest.mark.parametrize("mm,expected", [
        (200.0, W), (199.9, M), (150.0, M), (100.0, M), (99.9, D),
        (0.0, D), (1000.0, W),
    ])
    def test_bands(self, mm, expected):
        assert categorize_month(mm) is expected

    @pytest.mark.parametrize("bad", [-5.0, -0.001, float("nan"), float("inf")])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(DataError):
            categorize_month(bad)


class TestRunSummary:
    def test_all_wet(self):
        assert run_summary([W] * 12) == (12, 0)

    def test_mixed_runs(self):
        cats = [W, W, D, W, W, W, M, D, D, D, D, M]
        assert run_summary(cats) == (3, 4)

    def test_all_moist(self):
        assert run_summary([M] * 12) == (0, 0)

    def test_no_wraparound(self):
        # wet at both ends must not join across the year boundary
        cats = [W, W, D, D, D, D, D, D, D, D, W, W]
        assert run_summary(cats) == (2, 8)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            run_summary([W] * 11)

    def test_order_sensitivity_counterexample(self):
        grouped = [W] * 4 + [D] * 4 + [M] * 4
        interleaved = [W, D, M, W, D, M, W, D, M, W, D, M]
        assert Counter(grouped) == Counter(interleaved)
        assert run_summary(grouped) != run_summary(interleaved)


class TestClassifyOldeman:
    def test_all_wet_is_a1(self):
        assert classify_oldeman([250.0] * 12).code == "A1"

    def test_b2(self):
        rain = [300, 300, 300, 300, 300, 300, 300, 150, 80, 80, 80, 150]
        assert classify_oldeman(rain).code == "B2"

    def test_c3(self):
        rain = [220, 220, 220, 220, 220, 90, 90, 90, 90, 90, 150, 150]
        assert classify_oldeman(rain).code == "C3"

    def test_all_dry_is_e4(self):
        climate = classify_oldeman([50.0] * 12)
        assert climate.code == "E4"
        assert climate.label == "E"

    def test_zero_fill_treats_missing_as_dry(self):
        assert classify_oldeman([None] * 12).code == "E4"
        rain = [250.0] * 7 + [None, None, None, None, 150.0]
        assert classify_oldeman(rain, MissingPolicy.ZERO_FILL).code == "B3"

    @pytest.mark.parametrize("policy",
                             [MissingPolicy.SKIP_STATION, MissingPolicy.ERROR])
    def test_non_fill_policies_refuse_missing(self, policy):
        rain = [250.0] * 12
        rain[7] = None
        with pytest.raises(MissingMonthError) as info:
            classify_oldeman(rain, policy)
        assert info.value.month_index == 7
        assert "aug" in str(info.value)

    def test_missing_month_error_survives_pickle(self):
        # a cross-validation worker process hands its errors back pickled
        rain = [250.0] * 12
        rain[7] = None
        with pytest.raises(MissingMonthError) as info:
            classify_oldeman(rain, MissingPolicy.ERROR)
        copy = pickle.loads(pickle.dumps(info.value))
        assert type(copy) is MissingMonthError
        assert str(copy) == str(info.value)
        assert copy.month_index == 7

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            classify_oldeman([250.0] * 10)

    def test_negative_value_names_month(self):
        rain = [250.0] * 12
        rain[3] = -1.0
        with pytest.raises(DataError, match="apr"):
            classify_oldeman(rain)


def _rainfall_for_runs(wet, dry):
    return [250.0] * wet + [50.0] * dry + [150.0] * (12 - wet - dry)


def _docstring_code(wet, dry):
    """The code the climate module docstring's thresholds give."""
    letter = ("A" if wet >= 9 else "B" if wet >= 7 else "C" if wet >= 5
              else "D" if wet >= 3 else "E")
    subtype = 1 if dry <= 1 else 2 if dry <= 3 else 3 if dry <= 6 else 4
    return f"{letter}{subtype}"


def test_totality_over_all_reachable_run_pairs():
    codes = set()
    for wet in range(13):
        for dry in range(13 - wet):
            climate = classify_oldeman(_rainfall_for_runs(wet, dry))
            assert climate.code == _docstring_code(wet, dry), (wet, dry)
            codes.add(climate.code)
            assert climate.label in CLASS_DOMAIN
            assert isinstance(cropping_pattern(climate), CroppingPattern)
    expected = {"A1", "A2", "B1", "B2", "B3", "C1", "C2", "C3", "C4",
                "D1", "D2", "D3", "D4", "E1", "E2", "E3", "E4"}
    assert codes == expected
    assert {classify_oldeman(_rainfall_for_runs(w, d)).label
            for w in range(13) for d in range(13 - w)} == set(CLASS_DOMAIN)


def test_pattern_table_replay():
    groups = [
        (("A1", "A2"), "3 short-period PS or 2 PS + 1 PL"),
        (("B1",), "3 short-period PS or 2 PS + 1 PL"),
        (("B2",), "2 PS + 1 PL"),
        (("C1",), "1 PS + 2 PL"),
        (("C2", "C3", "C4"), "1 PS + 1 PL"),
        (("D1",), "1 PS + 1 PL"),
        (("D2", "D3", "D4"), "1 PS or 1 PL"),
        (("E",), "1 PL"),
    ]
    for labels, text in groups:
        for label in labels:
            assert pattern_for_label(label).display == text


def test_b3_defaults_to_b2_pattern_and_is_overridable():
    assert pattern_for_label("B3").display == "2 PS + 1 PL"
    assert pattern_for_label("B3", CroppingPattern.ONE_CGPRT).display == "1 PL"
    b3 = ClimateType("B", 3)
    assert cropping_pattern(b3).display == "2 PS + 1 PL"
    override = cropping_pattern(
        b3, CroppingPattern.THREE_SHORT_PADDY_OR_TWO_PADDY_ONE_CGPRT)
    assert override.display == "3 short-period PS or 2 PS + 1 PL"


def test_e_subtypes_share_one_pattern():
    for subtype in range(1, 5):
        assert cropping_pattern(ClimateType("E", subtype)).display == "1 PL"


def test_labels_are_the_class_domain_strings():
    assert ClimateType("B", 2).label is CLASS_DOMAIN[CLASS_DOMAIN.index("B2")]
    for subtype in range(1, 5):
        assert ClimateType("E", subtype).label is CLASS_DOMAIN[CLASS_DOMAIN.index("E")]
    # No Oldeman run pair gives A3, A4 or B4; such a type keeps its code.
    assert ClimateType("A", 3).label == "A3"


def test_pattern_for_unknown_label():
    with pytest.raises(ValueError):
        pattern_for_label("F1")
    with pytest.raises(ValueError):
        pattern_for_label("E2")  # class-domain codes collapse E subtypes


@pytest.mark.parametrize("rain_shape, missing_shape", [
    ((3, 11), (3, 11)),  # used to label every row E4
    ((3, 13), (3, 13)),
    ((3, 12), (1, 12)),  # used to broadcast one mask over every row
    ((3, 12), (3, 11)),
    ((12,), (12,)),  # used to raise numpy's AxisError
    ((2, 3, 12), (2, 3, 12)),
])
def test_classify_rows_rejects_a_matrix_of_the_wrong_shape(rain_shape,
                                                           missing_shape):
    with pytest.raises(ValueError, match="n×12"):
        classify_rows(np.full(rain_shape, 250.0), np.zeros(missing_shape, bool))


def test_climate_type_validation():
    with pytest.raises(ValueError):
        ClimateType("F", 1)
    with pytest.raises(ValueError):
        ClimateType("A", 5)
    assert str(ClimateType("C", 4)) == "C4"


_LETTER_RANK = "ABCDE"


@settings(max_examples=300, deadline=None)
@given(
    rain=st.lists(st.floats(min_value=0.0, max_value=500.0), min_size=12, max_size=12),
    month=st.integers(min_value=0, max_value=11),
    bump=st.floats(min_value=0.0, max_value=400.0),
)
def test_more_rain_never_moves_away_from_wet_types(rain, month, bump):
    before = classify_oldeman(rain)
    raised = list(rain)
    raised[month] += bump
    after = classify_oldeman(raised)
    cats_before = [categorize_month(v) for v in rain]
    cats_after = [categorize_month(v) for v in raised]
    assert run_summary(cats_after).longest_wet_run >= \
        run_summary(cats_before).longest_wet_run
    assert run_summary(cats_after).longest_dry_run <= \
        run_summary(cats_before).longest_dry_run
    assert _LETTER_RANK.index(after.letter) <= _LETTER_RANK.index(before.letter)
    assert after.subtype <= before.subtype
