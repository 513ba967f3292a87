"""Feature extraction: per-factor statistics, schema layout, trend words."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _builders import make_record
from rakelgen.domain import FactorId, series_stack
from rakelgen.errors import ValidationError
from rakelgen.features import (
    DEFAULT_TREND_TOLERANCE,
    DERIVED_FEATURES,
    check_features,
    feature_matrix,
    feature_schema,
    mean_and_slope,
    trend_word,
)

finite_values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def _slope(values) -> float:
    """The slope ``mean_and_slope`` gives one series."""
    return float(mean_and_slope(np.array([values], dtype=float))[1][0])


def _features(record, mode):
    """(schema entry, value) pairs of one record's ``feature_matrix`` row."""
    _, series, _ = record
    row = feature_matrix(series_stack([series]), mode)[0].tolist()
    return list(zip(feature_schema(series.shape[1], mode), row, strict=True))


class TestSlope:
    def test_straight_line(self):
        assert _slope([1.0, 2.0, 3.0, 4.0]) == pytest.approx(1.0)

    def test_constant_series(self):
        assert _slope([5.0, 5.0, 5.0, 5.0]) == 0.0

    def test_hand_computed_value(self):
        # Independently: x = 1..4, y = (2, 1, 4, 3); slope = cov/var = 3/5.
        assert _slope([2.0, 1.0, 4.0, 3.0]) == pytest.approx(0.6, abs=1e-12)

    def test_single_week_is_flat(self):
        assert _slope([7.0]) == 0.0

    @given(st.lists(finite_values, min_size=2, max_size=12))
    def test_reversal_negates(self, values):
        forward = _slope(values)
        backward = _slope(list(reversed(values)))
        assert backward == pytest.approx(-forward, abs=1e-6 * (1 + abs(forward)))

    @given(st.lists(finite_values, min_size=2, max_size=12), finite_values)
    def test_shift_invariant(self, values, offset):
        shifted = [v + offset for v in values]
        assert _slope(shifted) == pytest.approx(
            _slope(values), abs=1e-4 * (1 + abs(offset))
        )


class TestTrendWord:
    def test_zero_is_stable(self):
        assert trend_word(0.0) == "remained stable"

    def test_positive_is_increased(self):
        assert trend_word(0.6) == "increased"

    def test_negative_is_decreased(self):
        assert trend_word(-0.2) == "decreased"

    def test_boundary_is_stable(self):
        assert trend_word(DEFAULT_TREND_TOLERANCE) == "remained stable"
        assert trend_word(-DEFAULT_TREND_TOLERANCE) == "remained stable"

    def test_just_past_boundary(self):
        assert trend_word(DEFAULT_TREND_TOLERANCE + 1e-9) == "increased"

    def test_custom_tolerance(self):
        assert trend_word(0.6, tolerance=1.0) == "remained stable"

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValidationError):
            trend_word(0.1, tolerance=-0.5)

    def test_nan_tolerance_rejected(self):
        with pytest.raises(ValidationError, match="got nan"):
            trend_word(0.0, tolerance=float("nan"))


class TestSchema:
    def test_lengths_by_mode(self):
        weeks = 6
        assert len(feature_schema(weeks, "derived")) == 9 * 5
        assert len(feature_schema(weeks, "raw")) == 9 * weeks
        assert len(feature_schema(weeks, "both")) == 9 * (5 + weeks)

    def test_factor_blocks_in_code_order(self):
        schema = feature_schema(3, "both")
        factors = [factor for factor, _ in schema]
        # Each factor's block is contiguous and blocks follow code order.
        expected = [f for f in FactorId for _ in range(5 + 3)]
        assert factors == expected

    def test_derived_names(self):
        schema = feature_schema(2, "derived")
        names = [name for _, name in schema[:5]]
        assert names == list(DERIVED_FEATURES)

    def test_raw_week_names(self):
        schema = feature_schema(3, "raw")
        names = [name for _, name in schema[:3]]
        assert names == ["week_1", "week_2", "week_3"]

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            feature_schema(3, "all")


class TestExtraction:
    def test_matches_schema_length(self):
        record = make_record(weeks=5)
        for mode in ("derived", "raw", "both"):
            row = feature_matrix(series_stack([record[1]]), mode)[0]
            assert len(row) == len(feature_schema(5, mode))

    def test_derived_statistics_match_brute_force(self):
        marks = [52.0, 61.5, 48.0, 70.0]
        record = make_record(series={FactorId.MARKS: marks})
        block = {
            name: value
            for (factor, name), value in _features(record, "derived")
            if factor is FactorId.MARKS
        }
        assert block["mean"] == pytest.approx(sum(marks) / len(marks))
        assert block["min"] == min(marks)
        assert block["max"] == max(marks)
        assert block["last"] == marks[-1]
        assert block["slope"] == pytest.approx(_slope(marks))

    def test_raw_mode_reproduces_series(self):
        marks = [52.0, 61.5, 48.0, 70.0]
        record = make_record(series={FactorId.MARKS: marks})
        block = [
            value
            for (factor, _), value in _features(record, "raw")
            if factor is FactorId.MARKS
        ]
        assert block == marks

    def test_extraction_is_pure(self):
        record = make_record(series={FactorId.HOURS_STUDIED: [1, 2, 3, 4]})
        assert _features(record, "both") == _features(record, "both")

    @given(st.lists(finite_values, min_size=2, max_size=10))
    def test_every_value_finite(self, marks):
        record = make_record(weeks=len(marks), series={FactorId.MARKS: marks})
        assert all(math.isfinite(v) for _, v in _features(record, "both"))


class TestCheckFeatures:
    """``check_features`` builds features only for records past its overflow
    bound, so the bound must hold: no record within it overflows."""

    @given(st.integers(1, 12), st.lists(st.sampled_from([-1.0, 1.0]), min_size=9 * 12, max_size=9 * 12))
    def test_records_within_the_bound_have_finite_features(self, weeks, signs):
        bound = np.finfo(float).max / (4 * weeks**2)
        S = (np.array(signs[: 9 * weeks]) * bound).reshape(1, 9, weeks)
        for mode in ("derived", "both"):
            assert np.isfinite(feature_matrix(S, mode)).all()
        check_features(S, "both", ["s0"])

    def test_names_the_overflowing_record(self):
        S = np.ones((3, 9, 4))
        S[2, 0] = 1e308
        with pytest.raises(ValidationError, match="^record c: series marks gives non-finite"):
            check_features(S, "both", ["a", "b", "c"])
        check_features(S, "raw", ["a", "b", "c"])  # raw features are the values
