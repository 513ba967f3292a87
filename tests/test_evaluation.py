"""Evaluation: pooled metrics, fold plans, CV, paired t-tests, report output."""

from __future__ import annotations

import dataclasses
import math
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from _builders import marks_dataset, tiny_registry
from _reference_cv import reference_report
from rakelgen import mlc
from rakelgen.domain import default_registry
from rakelgen.errors import LabelCoverageWarning, ValidationError
from rakelgen.features import FEATURE_MODES
from rakelgen.mlc import DEFAULT_METHODS, MAJORITY_MODES, STRATEGIES, RakelConfig
from rakelgen.evaluation import (
    AGGREGATES,
    METHOD_LABELS,
    EvalOptions,
    comparison_report,
    compute_metrics,
    make_fold_plan,
    paired_t_test,
    regularized_incomplete_beta,
    render_table,
    report_to_json,
    significance_mark,
)
from rakelgen.synth import default_synth_config, generate_dataset
from rakelgen.tree import CRITERIA, TreeConfig


def _matrix(rows):
    return np.array(rows, dtype=int)


def _brute_force_metrics(gold, pred):
    """Independent oracle: count the four confusion cells with plain loops."""
    tp = fp = fn = tn = 0
    for g, p in zip(gold, pred):
        for gb, pb in zip(g, p):
            if gb and pb:
                tp += 1
            elif not gb and pb:
                fp += 1
            elif gb and not pb:
                fn += 1
            else:
                tn += 1
    total = tp + fp + fn + tn
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    if precision + recall == 0:
        f_score = 0.0
    else:
        f_score = 2 * precision * recall / (precision + recall)
    return accuracy, precision, recall, f_score


class TestMetrics:
    def test_worked_example(self):
        gold = _matrix([(1, 0, 1)])
        pred = _matrix([(1, 1, 1)])
        m = compute_metrics(gold, pred)
        assert m.accuracy == pytest.approx(2 / 3)
        assert m.precision == pytest.approx(2 / 3)
        assert m.recall == 1.0
        assert m.f_score == pytest.approx(0.8)

    def test_perfect_prediction(self):
        gold = _matrix([(1, 0), (0, 1), (1, 1)])
        m = compute_metrics(gold, gold)
        assert (m.accuracy, m.precision, m.recall, m.f_score) == (1.0, 1.0, 1.0, 1.0)

    def test_all_zero_empty_denominators(self):
        gold = _matrix([(0, 0, 0)])
        m = compute_metrics(gold, gold)
        assert (m.accuracy, m.precision, m.recall, m.f_score) == (1.0, 1.0, 1.0, 1.0)

    def test_zero_precision_and_recall(self):
        gold = _matrix([(1, 0)])
        pred = _matrix([(0, 1)])
        m = compute_metrics(gold, pred)
        assert m.accuracy == 0.0
        assert m.precision == 0.0
        assert m.recall == 0.0
        assert m.f_score == 0.0

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            width = int(rng.integers(1, 8))
            gold = _matrix(rng.integers(0, 2, size=(n, width)).tolist())
            pred = _matrix(rng.integers(0, 2, size=(n, width)).tolist())
            m = compute_metrics(gold, pred)
            acc, prec, rec, f1 = _brute_force_metrics(gold, pred)
            assert m.accuracy == pytest.approx(acc, abs=1e-12)
            assert m.precision == pytest.approx(prec, abs=1e-12)
            assert m.recall == pytest.approx(rec, abs=1e-12)
            assert m.f_score == pytest.approx(f1, abs=1e-12)

    def test_accuracy_is_one_minus_hamming_distance(self):
        rng = np.random.default_rng(7)
        G = rng.integers(0, 2, size=(9, 5))
        P = rng.integers(0, 2, size=(9, 5))
        m = compute_metrics(G, P)
        assert m.accuracy == pytest.approx(1.0 - np.abs(G - P).mean())

    @given(
        st.integers(0, 2**30 - 1),
    )
    def test_f_score_between_precision_and_recall(self, seed):
        rng = np.random.default_rng(seed)
        G = rng.integers(0, 2, size=(6, 4))
        P = rng.integers(0, 2, size=(6, 4))
        m = compute_metrics(G, P)
        assert min(m.precision, m.recall) - 1e-12 <= m.f_score
        assert m.f_score <= max(m.precision, m.recall) + 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            compute_metrics(_matrix([(1, 0)]), _matrix([(1, 0), (0, 1)]))
        with pytest.raises(ValidationError):
            compute_metrics(_matrix([(1, 0)]), _matrix([(1, 0, 1)]))
        with pytest.raises(ValidationError):
            compute_metrics(np.zeros((0, 3), dtype=int), np.zeros((0, 3), dtype=int))


class TestFoldPlan:
    def test_partition_and_balance(self):
        plan = make_fold_plan(37, 10, seed=0)
        assert len(plan) == 37
        sizes = Counter(plan)
        assert set(sizes) == set(range(10))
        assert max(sizes.values()) - min(sizes.values()) <= 1

    def test_exact_split_when_divisible(self):
        sizes = Counter(make_fold_plan(20, 5, seed=3))
        assert all(count == 4 for count in sizes.values())

    def test_deterministic_per_seed(self):
        assert make_fold_plan(37, 10, 1) == make_fold_plan(37, 10, 1)

    def test_seed_changes_assignment(self):
        assert make_fold_plan(37, 10, 0) != make_fold_plan(37, 10, 1)

    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=0, max_value=1000),
    )
    def test_partition_property(self, n, folds, seed):
        if folds > n:
            with pytest.raises(ValidationError):
                make_fold_plan(n, folds, seed)
            return
        sizes = Counter(make_fold_plan(n, folds, seed))
        assert sum(sizes.values()) == n
        assert max(sizes.values()) - min(sizes.values()) <= 1

    def test_too_few_folds_rejected(self):
        with pytest.raises(ValidationError):
            make_fold_plan(10, 1, 0)


class TestIncompleteBeta:
    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_against_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = float(rng.uniform(0.2, 30))
            b = float(rng.uniform(0.2, 30))
            x = float(rng.uniform(0, 1))
            ours = regularized_incomplete_beta(a, b, x)
            reference = float(scipy.special.betainc(a, b, x))
            assert ours == pytest.approx(reference, abs=1e-12)

    def test_reflection_symmetry(self):
        for a, b, x in [(1.5, 4.0, 0.3), (9.0, 2.0, 0.8), (0.5, 0.5, 0.11)]:
            left = regularized_incomplete_beta(a, b, x)
            right = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert left == pytest.approx(right, abs=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValidationError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValidationError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)


class TestPairedTTest:
    def test_identical_sequences_give_p_one(self):
        scores = [0.5, 0.6, 0.7, 0.8]
        result = paired_t_test(scores, scores)
        assert result.p_value == 1.0
        assert result.statistic == 0.0

    def test_constant_nonzero_difference_gives_p_zero(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0]
        b = [0.0, 1.0, 2.0, 3.0, 4.0]
        assert paired_t_test(a, b).p_value == 0.0

    def test_hand_computed_case(self):
        # Differences (1, 2, 3): t = 2 * sqrt(3), df = 2.
        result = paired_t_test([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert result.statistic == pytest.approx(2 * math.sqrt(3), abs=1e-12)
        assert result.df == 2
        assert result.p_value == pytest.approx(0.07417990022744858, abs=1e-12)

    def test_symmetric_in_argument_order(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 1, size=10).tolist()
        b = rng.uniform(0, 1, size=10).tolist()
        assert paired_t_test(a, b).p_value == pytest.approx(
            paired_t_test(b, a).p_value, abs=1e-15
        )

    def test_against_scipy_on_random_pairs(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            a = rng.uniform(0, 1, size=n)
            b = np.clip(a + rng.normal(0, 0.1, size=n), 0, 1)
            if np.allclose(a - b, (a - b)[0]):
                continue
            ours = paired_t_test(a.tolist(), b.tolist())
            reference = scipy.stats.ttest_rel(a, b)
            assert ours.statistic == pytest.approx(
                float(reference.statistic), abs=1e-9
            )
            assert ours.p_value == pytest.approx(float(reference.pvalue), abs=1e-9)

    def test_p_decreases_as_t_grows(self):
        # With fixed df, a larger |t| must never look more plausible.
        for df in (2, 5, 9, 30):
            previous = 1.0
            for t in np.linspace(0.0, 10.0, 41):
                p = regularized_incomplete_beta(
                    df / 2.0, 0.5, df / (df + float(t) ** 2)
                ) if t else 1.0
                assert p <= previous + 1e-12
                previous = p

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            paired_t_test([1.0], [2.0])
        with pytest.raises(ValidationError):
            paired_t_test([1.0, 2.0], [1.0])

    def test_marks(self):
        assert significance_mark(0.009) == "**"
        assert significance_mark(0.04) == "*"
        assert significance_mark(0.01) == "*"
        assert significance_mark(0.05) == ""
        assert significance_mark(0.9) == ""
        assert significance_mark(None) == ""


def _single_label_rows(n: int = 10, ones: int = 9):
    rows = [(float(i), [1]) for i in range(ones)]
    rows += [(float(50 + i), []) for i in range(n - ones)]
    return rows


def _alone(ds, method, opts):
    """The report row of ``method`` cross-validated on its own."""
    return comparison_report(ds, (method,), method, opts).results[0]


class TestCrossValidation:
    def test_each_record_predicted_once(self):
        registry = tiny_registry(2)
        ds = marks_dataset(
            registry, [(1.0, [1]), (2.0, [1, 2]), (8.0, []), (9.0, [2])]
        )
        opts = EvalOptions(n_folds=2, seed=0)
        result = _alone(ds, "majority", opts)
        assert len(result.fold_accuracies) == 2
        # Two folds of two records each over two labels pool to eight cells;
        # pooled accuracy must be a multiple of 1/8.
        pooled = result.metrics.accuracy
        assert pooled == pytest.approx(round(pooled * 8) / 8)

    def test_majority_on_skewed_single_label(self):
        registry = tiny_registry(1)
        ds = marks_dataset(registry, _single_label_rows())
        result = _alone(ds, "majority", EvalOptions(n_folds=10, seed=0))
        # Training folds always contain at least eight of the nine positive
        # records, so the majority bit stays set and exactly the one negative
        # record is mispredicted.
        assert result.metrics.accuracy == pytest.approx(0.9)
        assert 0.8 <= result.metrics.accuracy <= 1.0

    def test_same_seed_same_folds(self, ds37):
        opts = EvalOptions(n_folds=10, seed=5)
        a = _alone(ds37, "majority", opts)
        b = _alone(ds37, "majority", opts)
        assert a.fold_accuracies == b.fold_accuracies
        assert a.metrics == b.metrics

    def test_fold_mean_aggregate_differs_in_general(self, ds37):
        pooled = _alone(ds37, "majority", EvalOptions(n_folds=10, seed=0, aggregate="pooled"))
        fold_mean = _alone(
            ds37, "majority", EvalOptions(n_folds=10, seed=0, aggregate="fold-mean")
        )
        assert fold_mean.metrics.accuracy == pytest.approx(
            sum(fold_mean.fold_accuracies) / len(fold_mean.fold_accuracies)
        )
        assert pooled.fold_accuracies == fold_mean.fold_accuracies

    def test_too_many_folds_rejected(self):
        registry = tiny_registry(1)
        ds = marks_dataset(registry, [(1.0, [1]), (9.0, [])])
        with pytest.raises(ValidationError):
            _alone(ds, "majority", EvalOptions(n_folds=10, seed=0))

    def test_options_validation(self):
        with pytest.raises(ValidationError):
            EvalOptions(n_folds=1)
        with pytest.raises(ValidationError):
            EvalOptions(aggregate="median")
        for n_jobs in (0, -3):
            with pytest.raises(ValidationError, match=f"n_jobs must be >= 1, got {n_jobs}"):
                EvalOptions(n_jobs=n_jobs)


@pytest.fixture(scope="module")
def small_report():
    registry = tiny_registry(2)
    rows = [
        (1.0, [1, 2]),
        (2.0, [1, 2]),
        (3.0, [1]),
        (4.0, [1, 2]),
        (6.0, []),
        (7.0, [2]),
        (8.0, []),
        (9.0, []),
    ]
    ds = marks_dataset(registry, rows)
    opts = EvalOptions(
        n_folds=4, seed=0, rakel_config=RakelConfig(k=2, m=1, threshold=0.5, seed=0)
    )
    return comparison_report(
        ds, methods=("br", "majority", "rakel"), reference="rakel", opts=opts
    )


class TestComparisonReport:
    def test_reference_row_has_no_mark(self, small_report):
        by_method = {r.method: r for r in small_report.results}
        assert by_method["rakel"].p_vs_reference is None
        assert by_method["rakel"].mark == ""

    def test_marks_follow_p_values(self, small_report):
        for result in small_report.results:
            if result.method == small_report.reference:
                continue
            assert result.mark == significance_mark(result.p_vs_reference)

    def test_identical_methods_not_significant(self):
        # With one label a chain collapses to plain binary relevance, so the
        # two methods score identically and the t-test must return p = 1.
        registry = tiny_registry(1)
        ds = marks_dataset(registry, _single_label_rows())
        report = comparison_report(
            ds,
            methods=("br", "chain-predicted"),
            reference="br",
            opts=EvalOptions(n_folds=5, seed=0),
        )
        chain_row = next(r for r in report.results if r.method == "chain-predicted")
        assert chain_row.p_vs_reference == 1.0
        assert chain_row.mark == ""

    def test_method_validation(self, ds37):
        opts = EvalOptions(n_folds=5, seed=0)
        with pytest.raises(ValidationError):
            comparison_report(ds37, methods=("br", "br"), reference="br", opts=opts)
        with pytest.raises(ValidationError):
            comparison_report(ds37, methods=("br",), reference="rakel", opts=opts)
        with pytest.raises(ValidationError):
            comparison_report(
                ds37, methods=("br", "boosting"), reference="br", opts=opts
            )

    def test_render_table_shape(self, small_report):
        text = render_table(small_report)
        lines = text.splitlines()
        assert lines[0].split() == [
            "Classifier",
            "Accuracy",
            "Precision",
            "Recall",
            "F-score",
        ]
        assert set(lines[1]) == {"-"}
        body = lines[2:]
        assert len(body) == 3
        for line in body:
            assert line.count("%") == 1

    def test_render_table_uses_display_labels(self, small_report):
        text = render_table(small_report)
        assert METHOD_LABELS["br"] in text
        assert METHOD_LABELS["majority"] in text
        assert METHOD_LABELS["rakel"] in text

    def test_json_report_shape(self, small_report):
        data = report_to_json(small_report)
        assert set(data) == {"br", "majority", "rakel"}
        for method, entry in data.items():
            assert set(entry) == {
                "accuracy",
                "precision",
                "recall",
                "f_score",
                "folds",
                "p_vs_reference",
                "mark",
            }
            for key in ("accuracy", "precision", "recall", "f_score"):
                assert 0.0 <= entry[key] <= 1.0
            assert len(entry["folds"]) == 4
        assert data["rakel"]["p_vs_reference"] is None



def _with_warnings(make):
    """What ``make()`` returns, and every warning it raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = make()
    return result, [(w.category, str(w.message)) for w in caught]


REGISTRY = default_registry()


@st.composite
def comparisons(draw):
    """A small synthetic cohort over the packaged registry (29 labels) and one
    comparison request over it."""
    n = draw(st.integers(min_value=6, max_value=24))
    config = default_synth_config(n_students=n, seed=draw(st.integers(0, 2**16)))
    methods = tuple(draw(st.lists(st.sampled_from(STRATEGIES), min_size=1, unique=True)))
    opts = EvalOptions(
        n_folds=draw(st.integers(min_value=2, max_value=5)),
        seed=draw(st.integers(0, 99)),
        feature_mode=draw(st.sampled_from(FEATURE_MODES)),
        aggregate=draw(st.sampled_from(AGGREGATES)),
        tree_config=TreeConfig(
            max_depth=draw(st.none() | st.integers(1, 4)),
            min_samples_leaf=draw(st.integers(1, 3)),
            split_criterion=draw(st.sampled_from(CRITERIA)),
        ),
        rakel_config=RakelConfig(
            k=draw(st.integers(1, 4)),
            m=draw(st.none() | st.integers(1, 8)),
            seed=draw(st.integers(0, 9)),
        ),
        chain_order=draw(st.none() | st.permutations(range(len(REGISTRY))).map(tuple)),
        majority_mode=draw(st.sampled_from(MAJORITY_MODES)),
    )
    return generate_dataset(config, REGISTRY), methods, draw(st.sampled_from(methods)), opts


class TestFoldLoop:
    """The fold-major loop of ``comparison_report`` against the per-method
    reference loop (``_reference_cv``) on one thread: the same report, field
    for field, and the same warnings in the same order."""

    @staticmethod
    def _matches_reference(ds, methods, reference, opts):
        got = _with_warnings(lambda: comparison_report(ds, methods, reference, opts))
        sequential = dataclasses.replace(opts, n_jobs=1)
        want = _with_warnings(lambda: reference_report(ds, methods, reference, sequential))
        assert got == want
        return got[1]

    @settings(max_examples=15)
    @given(comparisons())
    def test_random_cohorts(self, comparison):
        self._matches_reference(*comparison)

    @pytest.mark.parametrize(
        "methods, reference, opts",
        [
            (STRATEGIES, "lp", EvalOptions(n_folds=4, feature_mode="derived")),
            (STRATEGIES, "rakel", EvalOptions(n_folds=3, seed=3, aggregate="fold-mean")),
            (DEFAULT_METHODS, "br", EvalOptions(n_folds=5, feature_mode="raw")),
            (
                ("chain-real", "br", "chain-predicted"),
                "chain-real",
                EvalOptions(
                    n_folds=4,
                    tree_config=TreeConfig(min_samples_leaf=3, split_criterion="entropy"),
                    chain_order=tuple(reversed(range(29))),
                ),
            ),
            *(
                (
                    (*DEFAULT_METHODS, "lp"),
                    "rakel",
                    EvalOptions(n_folds=3, chain_order=(*range(1, 29), 0), n_jobs=n_jobs),
                )
                for n_jobs in (1, 2, 3)
            ),
        ],
        ids=[
            "all-derived", "all-fold-mean", "default-raw", "chains-entropy-order",
            "default-lp-order-1-job", "default-lp-order-2-jobs", "default-lp-order-3-jobs",
        ],
    )
    def test_seeded_cohort(self, ds37, methods, reference, opts):
        assert self._matches_reference(ds37, methods, reference, opts) == []

    def test_uncovered_labels_warn_in_the_same_order(self, ds37):
        opts = EvalOptions(n_folds=3, rakel_config=RakelConfig(k=2, m=5))
        caught = self._matches_reference(ds37, ("br", "rakel", "lp"), "rakel", opts)
        assert {category for category, _ in caught} == {LabelCoverageWarning}
        assert len(caught) == 2 * opts.n_folds  # impossible coverage, then the labels left out


class TestEachModelTrainedOnce:
    """Per fold, ``comparison_report`` grows the trees of every requested
    strategy in one ``train_trees`` call: each model is trained once, and the
    two chain methods share one chain."""

    L, M = 2, 1  # labels, RAkEL members
    D = 9 * (5 + 4)  # features of 4-week records, feature mode "both"

    @pytest.fixture
    def calls(self, monkeypatch):
        """(columns of X, the trees' widths) of each ``train_trees`` call."""
        calls = []
        train_trees = mlc.train_trees

        def counted(X, ys, cfg=TreeConfig(), widths=None, n_jobs=1):
            ys = list(ys)
            calls.append((X.shape[1], sorted([X.shape[1]] * len(ys) if widths is None else widths)))
            return train_trees(X, ys, cfg, widths, n_jobs)

        monkeypatch.setattr(mlc, "train_trees", counted)
        return calls

    @pytest.fixture
    def ds8(self):
        labels = [[1, 2], [1, 2], [1], [1, 2], [], [2], [], []]
        return marks_dataset(tiny_registry(2), [(float(i), y) for i, y in enumerate(labels)])

    def test_default_methods(self, ds8, calls):
        opts = EvalOptions(n_folds=4, rakel_config=RakelConfig(k=2, m=self.M))
        comparison_report(ds8, opts=opts)
        # BR's and RAkEL's trees read the features; chain position p reads p gold bits more
        br, rakel, chain = [self.D] * self.L, [self.D] * self.M, range(self.D, self.D + self.L)
        assert calls == [(self.D + self.L, sorted([*br, *rakel, *chain]))] * 4

    @pytest.mark.parametrize(
        "methods",
        [
            ("chain-predicted",),
            ("chain-real",),
            ("chain-predicted", "chain-real"),
            ("chain-real", "chain-predicted"),
            ("chain-real", "majority", "chain-predicted"),
        ],
    )
    def test_one_chain_per_fold(self, ds8, calls, methods):
        comparison_report(ds8, methods, methods[0], EvalOptions(n_folds=4))
        assert calls == [(self.D + self.L, list(range(self.D, self.D + self.L)))] * 4

    def test_majority_alone_grows_no_tree(self, ds8, calls):
        report = comparison_report(ds8, ("majority",), "majority", EvalOptions(n_folds=4))
        assert calls == []
        assert len(report.results[0].fold_accuracies) == 4
