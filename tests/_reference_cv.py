"""Reference cross-validation: the per-method fold loop that the fold-major
loop of `evaluation.comparison_report` replaced.

Each method walks all the folds on its own. Per fold it takes the training
and test records, trains its model on the training records (each chain method
trains its own chain) and predicts the test records from features extracted
from those records alone. It stays here as the oracle that the fold-major
loop is compared against, field for field.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np

from _builders import dataset_rows
from rakelgen.evaluation import (
    EvalReport,
    MethodResult,
    MetricSet,
    compute_metrics,
    make_fold_plan,
    paired_t_test,
    significance_mark,
    train_method,
)
from rakelgen.features import feature_matrix
from rakelgen.mlc import predict_batch


def reference_cross_validate(ds, method, opts) -> tuple[MetricSet, tuple[float, ...]]:
    """One strategy's headline metrics and per-fold accuracies."""
    plan = make_fold_plan(len(ds), opts.n_folds, opts.seed)
    golds, predictions, fold_metrics = [], [], []
    for fold in range(opts.n_folds):
        train = dataset_rows(ds, [i for i, f in enumerate(plan) if f != fold])
        test = dataset_rows(ds, [i for i, f in enumerate(plan) if f == fold])
        model = train_method(method, train, opts)
        gold = test.label_matrix()
        history = gold if method == "chain-real" else None
        bits, _ = predict_batch(model, feature_matrix(test.series, model.feature_mode), history)
        golds.append(gold)
        predictions.append(bits)
        fold_metrics.append(compute_metrics(gold, bits))
    if opts.aggregate == "pooled":
        metrics = compute_metrics(np.concatenate(golds), np.concatenate(predictions))
    else:
        columns = zip(*(astuple(m) for m in fold_metrics))
        metrics = MetricSet(*(sum(column) / len(column) for column in columns))
    return metrics, tuple(m.accuracy for m in fold_metrics)


def reference_report(ds, methods, reference, opts) -> EvalReport:
    """The comparison report, one method's cross-validation at a time."""
    scores = {method: reference_cross_validate(ds, method, opts) for method in methods}
    reference_folds = scores[reference][1]
    results = []
    for method in methods:
        metrics, folds = scores[method]
        p_value = None if method == reference else paired_t_test(folds, reference_folds).p_value
        results.append(
            MethodResult(
                method=method,
                metrics=metrics,
                fold_accuracies=folds,
                p_vs_reference=p_value,
                mark=significance_mark(p_value),
            )
        )
    return EvalReport(reference=reference, results=tuple(results))
