"""Differential tests of the batch read path against per-record references.

``feature_matrix`` must equal the per-record feature code bit for bit, and
``predict_batch`` must equal a root-to-leaf walk per tree and record, for
every strategy.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _builders import fit_tree, leaf_label, marks_dataset, marks_record, tiny_registry, train
from _reference_features import reference_features, reference_ols_slope
from _reference_predict import reference_descent, reference_predict_votes
from rakelgen import mlc, tree as tree_module
from rakelgen.domain import Dataset, FactorId, series_stack
from rakelgen.errors import LabelCoverageWarning, ValidationError
from rakelgen.features import FEATURE_MODES, feature_matrix, mean_and_slope
from rakelgen.mlc import (
    RakelConfig,
    gold_matrix,
    predict_batch,
)
from rakelgen.tree import TreeConfig, descend


def _bits(a) -> np.ndarray:
    """Float values as their IEEE bit patterns, so -0.0 != 0.0 and every ulp counts."""
    return np.asarray(a, dtype=float).view(np.uint64)


series_values = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.1, 1 / 3]),
)


@st.composite
def cohorts(draw):
    weeks = draw(st.integers(min_value=1, max_value=20))
    n = draw(st.integers(min_value=1, max_value=2))
    series = st.lists(series_values, min_size=weeks, max_size=weeks).map(tuple)
    return [np.array([draw(series) for _ in FactorId]) for _ in range(n)]


class TestFeatureMatrix:
    @given(cohorts(), st.sampled_from(FEATURE_MODES))
    def test_equals_reference_bitwise(self, cohort, mode):
        X = feature_matrix(series_stack(cohort), mode)
        expected = [reference_features(series, mode) for series in cohort]
        assert X.shape == (len(cohort), len(expected[0]))
        assert (_bits(X) == _bits(expected)).all()

    @pytest.mark.parametrize("mode", FEATURE_MODES)
    def test_single_week(self, mode):
        cohort = [np.array([(float(f) - 4.5,) for f in FactorId]), np.array([(-0.0,)] * 9)]
        X = feature_matrix(series_stack(cohort), mode)
        assert (_bits(X) == _bits([reference_features(s, mode) for s in cohort])).all()

    @pytest.mark.parametrize("mode", FEATURE_MODES)
    def test_signed_zeros(self, mode):
        # builtin min/max keep the first of equal values and sum() starts
        # from +0, so (0.0, -0.0) and (-0.0, 0.0) differ in min, max and slope
        for series in ([(0.0, -0.0)] * 9, [(-0.0, 0.0)] * 9, [(-0.0, -0.0, 0.0)] * 9):
            series = np.array(series)
            X = feature_matrix(series_stack([series]), mode)
            assert (_bits(X[0]) == _bits(reference_features(series, mode))).all()

    @pytest.mark.parametrize("mode", FEATURE_MODES)
    def test_synthetic_cohorts(self, mode, ds37, ds100):
        for ds in (ds37, ds100):
            X = feature_matrix(ds.series, mode)
            expected = [reference_features(series, mode) for series in ds.series]
            assert (_bits(X) == _bits(expected)).all()

    def test_extract_features_is_the_one_row_case(self, ds37):
        for series in ds37.series[:5]:
            values = feature_matrix(series_stack([series]))[0].tolist()
            assert (_bits(values) == _bits(reference_features(series))).all()
            assert all(type(v) is float for v in values)

    def test_week_counts_must_agree(self):
        cohort = [np.array([(1.0, 2.0)] * 9), np.array([(1.0, 2.0, 3.0)] * 9)]
        with pytest.raises(ValidationError, match="week count"):
            series_stack(cohort)

    def test_unknown_mode(self, ds37):
        with pytest.raises(ValidationError, match="feature mode"):
            feature_matrix(ds37.series, "weekly")


class TestOlsSlope:
    """The slope ``mean_and_slope`` gives one series equals the per-call
    left-to-right arithmetic bit for bit."""

    @given(st.integers(1, 29).flatmap(lambda w: st.lists(series_values, min_size=w, max_size=w)))
    def test_equals_reference_bitwise(self, values):
        slope = mean_and_slope(np.array([values]))[1][0]
        assert _bits(slope) == _bits(reference_ols_slope(values))

    def test_synthetic_cohorts(self, ds37, ds100):
        for ds in (ds37, ds100):
            for series in ds.series.reshape(-1, ds.weeks).tolist():
                slope = mean_and_slope(np.array([series]))[1][0]
                assert _bits(slope) == _bits(reference_ols_slope(series))


@st.composite
def tree_data(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    d = draw(st.integers(min_value=1, max_value=4))
    grid = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0])
    X = np.array(draw(st.lists(st.lists(grid, min_size=d, max_size=d), min_size=n, max_size=n)))
    y = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return X, y


class TestTreeRows:
    @given(tree_data(), st.sampled_from([None, 1, 3]))
    def test_equals_per_row_descent(self, data, max_depth):
        X, y = data
        tree = fit_tree(X, y, TreeConfig(max_depth=max_depth))
        # query rows on, between and beyond the training values
        queries = np.vstack([X, X + 0.125, X - 0.125, -X])
        expected = [reference_descent(tree, row) for row in queries]
        assert tree.label[descend(tree, queries)[:, 0]].tolist() == expected
        assert [leaf_label(tree, row) for row in queries] == expected

    def test_width_checked(self):
        tree = fit_tree([[0.0, 1.0], [1.0, 0.0]], [0, 1])
        with pytest.raises(ValidationError, match="features"):
            descend(tree, np.zeros((3, 3)))
        with pytest.raises(ValidationError, match="features"):
            leaf_label(tree, np.zeros(3))

    def test_no_rows(self):
        tree = fit_tree([[0.0], [1.0]], [0, 1])
        assert descend(tree, np.zeros((0, 1))).shape == (0, 1)


def _quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LabelCoverageWarning)
        return fn(*args, **kwargs)


TRAINERS = {
    "br": lambda ds: train("br", ds, tree_config=TreeConfig(max_depth=5)),
    "chain-predicted": lambda ds: train("chain-predicted", ds),
    "chain-real": lambda ds: train("chain-real", ds, chain_order=tuple(range(28, -1, -1))),
    "majority-per-label": lambda ds: train("majority", ds, majority_mode="per-label"),
    "majority-labelset": lambda ds: train("majority", ds, majority_mode="labelset"),
    "lp": lambda ds: train("lp", ds, tree_config=TreeConfig(split_criterion="entropy")),
    "rakel": lambda ds: _quiet(train, "rakel", ds, rakel_config=RakelConfig(k=3, m=20, seed=4)),
    "rakel-threshold-0": lambda ds: _quiet(
        train, "rakel", ds, rakel_config=RakelConfig(k=2, m=12, threshold=0.0)
    ),
    "rakel-threshold-1": lambda ds: _quiet(
        train, "rakel", ds, rakel_config=RakelConfig(k=4, m=12, threshold=1.0)
    ),
}


class TestPredictBatch:
    @pytest.fixture(params=["ds37", "ds100"])
    def ds(self, request):
        return request.getfixturevalue(request.param)

    @pytest.mark.parametrize("name", TRAINERS)
    def test_equals_per_record_reference(self, name, ds, ds37, ds100):
        model = TRAINERS[name](ds)
        records = ds37.records + ds100.records
        both = Dataset(ds.registry, records)
        X = feature_matrix(both.series, model.feature_mode)
        gold = gold_matrix(model, both)
        bits, votes = predict_batch(model, X, gold)
        assert bits.shape == votes.shape == (len(records), model.n_labels)
        for i, row in enumerate(X):
            history = None if gold is None else tuple(gold[i].tolist())
            ref_bits, ref_votes = reference_predict_votes(model, row, history)
            assert tuple(bits[i].tolist()) == ref_bits
            assert (_bits(votes[i]) == _bits(ref_votes)).all()
        for i in (0, len(records) - 1):  # a record alone
            one = Dataset(ds.registry, records[i : i + 1])
            one_bits, one_votes = predict_batch(
                model, feature_matrix(one.series, model.feature_mode), gold_matrix(model, one)
            )
            assert one_bits.tolist() == [bits[i].tolist()]
            assert (_bits(one_votes[0]) == _bits(votes[i])).all()

    @pytest.mark.parametrize("name", ["lp", "chain-predicted", "chain-real"])
    def test_one_tree_per_position_models_stack_nothing(self, name, ds37, monkeypatch):
        """LP and chain prediction descend the trees the model holds; only a
        BR or RAkEL payload stacks its trees, once, when it is built."""
        model = TRAINERS[name](ds37)
        calls = []
        stack_trees = tree_module.stack_trees

        def counting(trees):
            calls.append(len(trees))
            return stack_trees(trees)

        for module in (tree_module, mlc):
            monkeypatch.setattr(module, "stack_trees", counting)
        predict_batch(model, feature_matrix(ds37.series), gold_matrix(model, ds37))
        assert calls == []
        TRAINERS["br"](ds37)
        assert calls == [29]

    @pytest.mark.parametrize("history", ["real", "predicted"])
    def test_chain_reads_its_history_columns(self, history):
        # label 1 is not a function of the features, label 2 copies it: the
        # second chain position can only split on the history column
        registry = tiny_registry(3)
        rows = [(1.0, [1, 2]), (1.0, []), (1.0, [1, 2]), (1.0, []), (1.0, [1, 2]),
                (5.0, [1, 2, 3]), (5.0, [3]), (9.0, [])]
        model = train(f"chain-{history}", marks_dataset(registry, rows))
        records = [marks_record(f"p{i}", v, [1, 2, 3][: i % 4])
                   for i, v in enumerate((1.0, 1.0, 3.0, 5.0, 7.0, 9.0, 1.0, 5.0))]
        cohort = Dataset(registry, records)
        X = feature_matrix(cohort.series)
        gold = gold_matrix(model, cohort)
        bits, _ = predict_batch(model, X, gold)
        for i, row in enumerate(X):
            history_bits = None if gold is None else tuple(gold[i].tolist())
            assert tuple(bits[i].tolist()) == reference_predict_votes(model, row, history_bits)[0]
        if history == "real":
            assert bits[0].tolist() != bits[1].tolist()  # same x, other gold

    def test_real_history_is_the_gold_matrix(self, ds37):
        model = train("chain-real", ds37)
        gold = gold_matrix(model, ds37)
        assert gold.tolist() == [
            [int(ds37.registry.templates[j].id in labels) for j in range(29)]
            for labels in ds37.expert_labels
        ]

    def test_gold_only_for_chain_real(self, ds37):
        X = feature_matrix(ds37.series[:3])
        gold = np.zeros((3, 29), dtype=int)
        for name in ("br", "chain-predicted", "majority-per-label", "lp"):
            model = TRAINERS[name](ds37)
            assert gold_matrix(model, ds37) is None
            with pytest.raises(ValidationError, match="gold"):
                predict_batch(model, X, gold)
        real = TRAINERS["chain-real"](ds37)
        with pytest.raises(ValidationError, match="gold"):
            predict_batch(real, X)
        with pytest.raises(ValidationError, match="gold matrix shape"):
            predict_batch(real, X, gold[:2])
