"""Synthetic data: config, correlation structure, units, expert policy."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from _reference_synth import reference_annotate
from rakelgen.domain import FactorId, ReferenceType
from rakelgen.errors import ValidationError
from rakelgen.synth import (
    RULE_ORDER,
    FactorParams,
    PolicyThresholds,
    SCALAR_FIELDS,
    SynthConfig,
    _annotate,
    _factor_templates,
    _rule_picks,
    achieved_correlations,
    build_correlation_matrix,
    config_from_dict,
    config_to_dict,
    default_synth_config,
    generate_dataset,
    load_synth_config,
    pearson,
    save_synth_config,
)

LIKERT_FACTORS = (
    FactorId.UNDERSTANDABILITY,
    FactorId.DIFFICULTY,
    FactorId.DEADLINES,
)
COUNT_FACTORS = (
    FactorId.HEALTH_ISSUES,
    FactorId.PERSONAL_ISSUES,
    FactorId.LECTURES_ATTENDED,
    FactorId.REVISION,
)


class TestConfig:
    def test_default_config_loads(self):
        config = default_synth_config()
        assert config.n_students == 100
        assert config.weeks == 10
        assert set(config.factors) == set(FactorId)
        assert set(config.policy) == set(FactorId)

    def test_overrides(self):
        config = default_synth_config(n_students=37, seed=9)
        assert config.n_students == 37
        assert config.seed == 9

    def test_unknown_override_rejected(self):
        with pytest.raises(ValidationError):
            default_synth_config(n_weeks=5)

    def test_field_validation(self):
        base = default_synth_config()
        with pytest.raises(ValidationError):
            dataclasses.replace(base, n_students=0)
        with pytest.raises(ValidationError):
            dataclasses.replace(base, weeks=1)
        with pytest.raises(ValidationError):
            dataclasses.replace(base, expert_noise=1.0)
        with pytest.raises(ValidationError):
            dataclasses.replace(base, expert_noise=-0.1)
        with pytest.raises(ValidationError):
            dataclasses.replace(base, expert_count=0)
        with pytest.raises(ValidationError, match=r"^seed must be >= 0, got -1$"):
            dataclasses.replace(base, seed=-1)

    def test_missing_factor_rejected(self):
        base = default_synth_config()
        factors = dict(base.factors)
        del factors[FactorId.REVISION]
        with pytest.raises(ValidationError):
            dataclasses.replace(base, factors=factors)

    def test_factor_params_validation(self):
        with pytest.raises(ValidationError):
            FactorParams(mean=1.0, std=0.0, noise_std=0.1, trend_std=0.1)
        with pytest.raises(ValidationError):
            FactorParams(mean=1.0, std=1.0, noise_std=-0.1, trend_std=0.1)

    def test_policy_thresholds_validation(self):
        with pytest.raises(ValidationError):
            PolicyThresholds(
                slope=-1.0, spread=1.0, avg_low=0.0, avg_high=1.0,
                other_low=0.0, other_high=1.0,
            )
        with pytest.raises(ValidationError):
            PolicyThresholds(
                slope=1.0, spread=1.0, avg_low=2.0, avg_high=1.0,
                other_low=0.0, other_high=1.0,
            )

    @pytest.mark.parametrize(
        "section, name",
        [
            ("factors", "mean"),
            ("factors", "std"),
            ("factors", "noise_std"),
            ("factors", "trend_std"),
            ("policy", "slope"),
            ("policy", "spread"),
            ("policy", "avg_high"),
            ("policy", "other_high"),
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameter_names_its_field(self, section, name, value):
        # each of these passes the field's own sign and ordering checks
        data = config_to_dict(default_synth_config())
        data[section]["revision"][name] = value
        with pytest.raises(ValidationError) as caught:
            config_from_dict(data)
        assert str(caught.value) == f"{section} revision: {name} must be finite, got {value}"

    def test_nan_slope_no_longer_disables_the_trend_rule(self):
        base = default_synth_config()
        policy = dict(base.policy)
        policy[FactorId.MARKS] = dataclasses.replace(policy[FactorId.MARKS], slope=math.nan)
        with pytest.raises(ValidationError, match="policy marks: slope must be finite"):
            dataclasses.replace(base, policy=policy)

    def test_round_trip_dict(self):
        config = default_synth_config(n_students=12)
        assert config_from_dict(config_to_dict(config)) == config

    def test_round_trip_file(self, tmp_path):
        config = default_synth_config(seed=3)
        path = tmp_path / "config.json"
        save_synth_config(config, path)
        assert load_synth_config(path) == config

    def test_malformed_dict_rejected(self):
        with pytest.raises(ValidationError, match="malformed"):
            config_from_dict({"n_students": "many"})

    def test_bad_factor_key_wins_over_bad_scalar(self):
        data = config_to_dict(default_synth_config())
        data["n_students"] = "many"
        data["factors"]["attendance"] = data["factors"].pop("marks")
        with pytest.raises(ValidationError, match=r"^unknown factor name: 'attendance'$"):
            config_from_dict(data)

    def test_missing_scalars_take_the_config_defaults(self):
        data = config_to_dict(default_synth_config(n_students=12, seed=3))
        for name in SCALAR_FIELDS:
            del data[name]
        config = config_from_dict(data)
        defaults = {f.name: f.default for f in dataclasses.fields(SynthConfig)}
        for name in SCALAR_FIELDS:
            assert getattr(config, name) == defaults[name]

    def test_missing_file_is_validation_error(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_synth_config(tmp_path / "missing.json")


class TestCorrelationMatrix:
    def test_no_pairs_gives_identity(self):
        matrix = build_correlation_matrix(())
        assert np.array_equal(matrix, np.eye(9))

    def test_pair_sets_symmetric_entries(self):
        pairs = ((FactorId.LECTURES_ATTENDED, FactorId.UNDERSTANDABILITY, 0.6),)
        matrix = build_correlation_matrix(pairs)
        i = FactorId.LECTURES_ATTENDED.value - 1
        j = FactorId.UNDERSTANDABILITY.value - 1
        assert matrix[i, j] == 0.6
        assert matrix[j, i] == 0.6
        assert all(matrix[d, d] == 1.0 for d in range(9))

    def test_duplicate_pair_rejected(self):
        pairs = (
            (FactorId.MARKS, FactorId.REVISION, 0.5),
            (FactorId.REVISION, FactorId.MARKS, 0.2),
        )
        with pytest.raises(ValidationError):
            build_correlation_matrix(pairs)

    def test_self_pair_rejected(self):
        with pytest.raises(ValidationError):
            build_correlation_matrix(((FactorId.MARKS, FactorId.MARKS, 0.5),))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            build_correlation_matrix(((FactorId.MARKS, FactorId.REVISION, 1.0),))

    def test_non_positive_definite_rejected(self):
        pairs = (
            (FactorId.MARKS, FactorId.HOURS_STUDIED, 0.9),
            (FactorId.HOURS_STUDIED, FactorId.UNDERSTANDABILITY, 0.9),
            (FactorId.MARKS, FactorId.UNDERSTANDABILITY, -0.9),
        )
        config = dataclasses.replace(default_synth_config(), correlation_pairs=pairs)
        from rakelgen.domain import default_registry

        with pytest.raises(ValidationError, match="positive definite"):
            generate_dataset(config, default_registry())


class TestGeneration:
    def test_requested_size_and_ids(self, ds37):
        assert len(ds37) == 37
        assert [r.student_id for r in ds37.records] == [
            f"s{i:04d}" for i in range(37)
        ]
        assert None not in ds37.expert_labels

    def test_deterministic(self, registry):
        config = default_synth_config(n_students=10, seed=4)
        a = generate_dataset(config, registry)
        b = generate_dataset(config, registry)
        assert a == b

    def test_seed_changes_series(self, registry):
        a = generate_dataset(default_synth_config(n_students=10, seed=0), registry)
        b = generate_dataset(default_synth_config(n_students=10, seed=1), registry)
        assert a != b

    def test_units_respected(self, ds100):
        for record in ds100.records:
            for value in record.series[FactorId.MARKS - 1]:
                assert 0.0 <= value <= 100.0
                assert value == round(value, 1)
            for value in record.series[FactorId.HOURS_STUDIED - 1]:
                assert value >= 0.0
                assert value == round(value, 1)
            for factor in LIKERT_FACTORS:
                for value in record.series[factor - 1]:
                    assert value in {1.0, 2.0, 3.0, 4.0, 5.0}
            for factor in COUNT_FACTORS:
                for value in record.series[factor - 1]:
                    assert value >= 0.0
                    assert value == int(value)

    def test_noiseless_labels_follow_policy(self, registry):
        config = default_synth_config(n_students=25, seed=0, expert_noise=0.0)
        ds = generate_dataset(config, registry)
        for record in ds.records:
            assert record.expert_labels == reference_annotate(record.series, registry, config)

    def test_at_most_one_template_per_factor(self, ds100, registry):
        for record in ds100.records:
            factors = [registry.get(i).factor for i in record.expert_labels]
            assert len(factors) == len(set(factors))

    def test_expert_count_is_noop_without_noise(self, registry):
        quiet = default_synth_config(n_students=20, seed=2, expert_noise=0.0)
        single = dataclasses.replace(quiet, expert_count=1)
        a = generate_dataset(quiet, registry)
        b = generate_dataset(single, registry)
        assert [r.expert_labels for r in a.records] == [
            r.expert_labels for r in b.records
        ]

    def test_expert_noise_perturbs_some_labels(self, registry):
        base = default_synth_config(n_students=60, seed=2, expert_noise=0.0)
        noisy = dataclasses.replace(base, expert_noise=0.5, expert_count=3)
        a = generate_dataset(base, registry)
        b = generate_dataset(noisy, registry)
        assert np.array_equal(a.series, b.series)
        assert [r.expert_labels for r in a.records] != [
            r.expert_labels for r in b.records
        ]

    def test_noisy_labels_deterministic(self, registry):
        config = default_synth_config(n_students=25, seed=6, expert_noise=0.3)
        a = generate_dataset(config, registry)
        b = generate_dataset(config, registry)
        assert a == b

    def test_label_record_depends_on_record_index(self, registry):
        config = default_synth_config(n_students=8, seed=1, expert_noise=0.9)
        ds = generate_dataset(config, registry)
        templates = _factor_templates(registry)

        def labels_as(index):
            return _annotate(ds.series[:1], templates, config, index)[0]

        a = labels_as(0)
        b = labels_as(3)
        assert a == labels_as(0)
        # Different positions draw from different noise streams; with 90%
        # noise these almost surely disagree for at least one factor.
        assert (a, b) != (b, a) or a == b


def _decide(series, thresholds, available):
    """The reference type the policy picks for one series, None if no rule fires."""
    pick = _rule_picks(np.array([series]), thresholds, available)[0]
    return RULE_ORDER[pick] if pick < len(RULE_ORDER) else None


class TestPolicy:
    THRESHOLDS = PolicyThresholds(
        slope=0.5, spread=4.0, avg_low=2.0, avg_high=8.0,
        other_low=3.0, other_high=7.0,
    )
    ALL = frozenset(ReferenceType)

    def test_trend_fires_first(self):
        series = (1.0, 3.0, 5.0, 7.0)
        assert _decide(series, self.THRESHOLDS, self.ALL) is (
            ReferenceType.TREND
        )

    def test_weeks_fires_when_trend_quiet(self):
        series = (5.0, 10.0, 5.0, 5.0)
        assert (
            _decide(series, self.THRESHOLDS, self.ALL)
            is ReferenceType.WEEKS
        )

    def test_average_fires_outside_band(self):
        series = (1.0, 1.5, 1.0, 1.5)
        assert (
            _decide(series, self.THRESHOLDS, self.ALL)
            is ReferenceType.AVERAGE
        )

    def test_other_fires_on_milder_band(self):
        series = (2.5, 2.5, 2.5, 2.5)
        assert (
            _decide(series, self.THRESHOLDS, self.ALL)
            is ReferenceType.OTHER
        )

    def test_unremarkable_series_gets_nothing(self):
        series = (5.0, 5.2, 5.0, 4.8)
        assert _decide(series, self.THRESHOLDS, self.ALL) is None

    def test_unavailable_reference_falls_through(self):
        series = (5.0, 10.0, 5.0, 5.0)
        available = frozenset({ReferenceType.AVERAGE, ReferenceType.OTHER})
        # Spread would pick weeks, but without a weeks template the decision
        # falls to the next firing rule (none here: mean 6.25 is in band).
        assert _decide(series, self.THRESHOLDS, available) is None

    def test_fallthrough_reaches_other(self):
        series = (1.0, 6.0, 1.0, 1.0)
        available = frozenset({ReferenceType.OTHER})
        # Trend, weeks, and average all fire but only other is available.
        assert (
            _decide(series, self.THRESHOLDS, available)
            is ReferenceType.OTHER
        )


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) == pytest.approx(-1.0)

    def test_hand_computed(self):
        expected = 3.0 / math.sqrt(2.0 * (14.0 / 3.0))
        assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(
            expected, abs=1e-12
        )

    def test_zero_variance_rejected(self):
        with pytest.raises(ValidationError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_achieved_correlations_report(self, ds100):
        config = default_synth_config(n_students=100, seed=7)
        rows = achieved_correlations(ds100, config.correlation_pairs)
        assert len(rows) == 1
        key_a, key_b, target, achieved = rows[0]
        assert {key_a, key_b} == {"lectures_attended", "understandability"}
        assert target == 0.6
        assert -1.0 <= achieved <= 1.0
