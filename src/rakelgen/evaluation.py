"""Cross-validated comparison of the classification strategies.

Records are assigned to folds by shuffled round-robin, every strategy is
scored on identical folds, and per-fold accuracies feed a paired two-tailed
t-test against a reference strategy. Micro metrics pool true/false positive
counts over all predictions; an empty denominator counts as a perfect 1.0.

The t-test p-value comes from the regularized incomplete beta function,
evaluated here with a Lentz continued fraction so the package needs no
statistics dependency.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .domain import Dataset
from .errors import ValidationError
from .features import feature_matrix
from .mlc import (
    DEFAULT_METHODS,
    DEFAULT_REFERENCE,
    RakelConfig,
    STRATEGIES,
    TrainedModel,
    fit,
)
from .tree import TreeConfig

AGGREGATES = ("pooled", "fold-mean")

METHOD_LABELS = {
    "majority": "Majority",
    "br": "DT (no history)",
    "chain-predicted": "DT (with predicted history)",
    "chain-real": "DT (with real history)",
    "lp": "MLC - LP (no history)",
    "rakel": "MLC - RAkEL (no history)",
}

TABLE_COLUMNS = ("Classifier", "Accuracy", "Precision", "Recall", "F-score")

@dataclass(frozen=True)
class MetricSet:
    accuracy: float
    precision: float
    recall: float
    f_score: float


@dataclass(frozen=True)
class EvalOptions:
    """Shared knobs for a cross-validated comparison run."""

    n_folds: int = 10
    seed: int = 0
    feature_mode: str = "both"
    aggregate: str = "pooled"
    tree_config: TreeConfig = TreeConfig()
    rakel_config: RakelConfig = RakelConfig()
    chain_order: tuple[int, ...] | None = None
    majority_mode: str = "per-label"
    n_jobs: int = 1

    def __post_init__(self):
        if self.n_folds < 2:
            raise ValidationError("n_folds must be >= 2")
        if self.aggregate not in AGGREGATES:
            raise ValidationError(f"aggregate must be one of {AGGREGATES}")
        if self.n_jobs < 1:
            raise ValidationError(f"n_jobs must be >= 1, got {self.n_jobs}")


@dataclass(frozen=True)
class TTestResult:
    statistic: float
    df: int
    p_value: float


@dataclass(frozen=True)
class MethodResult:
    method: str
    metrics: MetricSet
    fold_accuracies: tuple[float, ...]
    p_vs_reference: float | None
    mark: str


@dataclass(frozen=True)
class EvalReport:
    reference: str
    results: tuple[MethodResult, ...]


def make_fold_plan(n_records: int, n_folds: int, seed: int) -> list[int]:
    """Fold id per record: indices are shuffled, then dealt round-robin, so
    fold sizes differ by at most one."""
    if n_folds < 2:
        raise ValidationError("n_folds must be >= 2")
    if n_records < n_folds:
        raise ValidationError(
            f"need at least {n_folds} records for {n_folds} folds, got {n_records}"
        )
    order = list(range(n_records))
    random.Random(seed).shuffle(order)
    plan = [0] * n_records
    for position, index in enumerate(order):
        plan[index] = position % n_folds
    return plan


def compute_metrics(G: np.ndarray, P: np.ndarray) -> MetricSet:
    """Hamming accuracy over all label cells of gold and predicted 0/1
    matrices G and P (n, L), plus micro-averaged P/R/F.

    A precision or recall whose denominator is zero is taken as 1.0; the
    F-score is the harmonic mean, or 0.0 when both P and R are zero.
    """
    G, P = np.asarray(G), np.asarray(P)
    if G.shape != P.shape:
        raise ValidationError(f"gold {G.shape} and predicted {P.shape} matrices differ in shape")
    if not G.size:
        raise ValidationError("cannot compute metrics over zero predictions")
    tp = int(((G == 1) & (P == 1)).sum())
    fp = int(((G == 0) & (P == 1)).sum())
    fn = int(((G == 1) & (P == 0)).sum())
    accuracy = float((G == P).mean())
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    if precision + recall == 0.0:
        f_score = 0.0
    else:
        f_score = 2.0 * precision * recall / (precision + recall)
    return MetricSet(accuracy, precision, recall, f_score)


def train_method(method: str, ds: Dataset, opts: EvalOptions) -> TrainedModel:
    """Train one strategy on ``ds`` with the options' relevant knobs."""
    if len(ds) == 0:
        raise ValidationError("empty dataset")
    ds.require_labeled()
    X = feature_matrix(ds.series, opts.feature_mode, ds.student_ids)
    (payload,) = _fit(X, ds.label_matrix(), (method,), opts).values()
    return TrainedModel(
        registry_version=ds.registry.version,
        n_labels=len(ds.registry),
        weeks=ds.weeks,
        # a majority model reads no features; its artifact keeps the default mode
        feature_mode="both" if method == "majority" else opts.feature_mode,
        payload=payload,
    )


def _fit(X: np.ndarray, Y: np.ndarray, methods, opts: EvalOptions) -> dict:
    return fit(
        X, Y, methods, opts.tree_config, opts.rakel_config, opts.chain_order,
        opts.majority_mode, opts.n_jobs,
    )


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), accurate to well under 1e-10 over the t-test's range."""
    if a <= 0.0 or b <= 0.0:
        raise ValidationError("beta parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValidationError("x must be in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, by Lentz's method."""
    MAXIT = 300
    EPS = 1e-15
    TINY = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < TINY:
        d = TINY
    d = 1.0 / d
    h = d
    for m in range(1, MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < TINY:
            d = TINY
        c = 1.0 + aa / c
        if abs(c) < TINY:
            c = TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < TINY:
            d = TINY
        c = 1.0 + aa / c
        if abs(c) < TINY:
            c = TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def paired_t_test(xs: Sequence[float], ys: Sequence[float]) -> TTestResult:
    """Two-tailed paired t-test on matched score sequences.

    Zero variance in the differences short-circuits: p is 1.0 when the means
    agree exactly and 0.0 otherwise.
    """
    if len(xs) != len(ys):
        raise ValidationError("paired sequences differ in length")
    n = len(xs)
    if n < 2:
        raise ValidationError("paired t-test needs at least 2 pairs")
    d = [float(x) - float(y) for x, y in zip(xs, ys)]
    mean_d = sum(d) / n
    var_d = sum((v - mean_d) ** 2 for v in d) / (n - 1)
    df = n - 1
    if var_d == 0.0:
        if mean_d == 0.0:
            return TTestResult(statistic=0.0, df=df, p_value=1.0)
        statistic = math.inf if mean_d > 0 else -math.inf
        return TTestResult(statistic=statistic, df=df, p_value=0.0)
    statistic = mean_d / math.sqrt(var_d / n)
    x = df / (df + statistic * statistic)
    p_value = regularized_incomplete_beta(df / 2.0, 0.5, x)
    return TTestResult(statistic=statistic, df=df, p_value=min(1.0, max(0.0, p_value)))


def significance_mark(p_value: float | None) -> str:
    """'**' below 0.01, '*' below 0.05, otherwise empty."""
    if p_value is None:
        return ""
    if p_value < 0.01:
        return "**"
    if p_value < 0.05:
        return "*"
    return ""


def comparison_report(
    ds: Dataset,
    methods: Sequence[str] = DEFAULT_METHODS,
    reference: str = DEFAULT_REFERENCE,
    opts: EvalOptions = EvalOptions(),
) -> EvalReport:
    """Cross-validate each strategy on identical folds and test each one's
    per-fold accuracies against the reference strategy's.

    One loop runs over the folds. Each fold trains every strategy once, in
    one ``fit`` on the other folds' rows of the report's feature and label
    matrices, and predicts its own rows, so every record is predicted
    exactly once. The headline metrics pool all predictions (or average the
    per-fold metrics under ``aggregate="fold-mean"``).
    """
    methods = tuple(methods)
    if not methods:
        raise ValidationError("no methods requested")
    for method in methods:
        if method not in STRATEGIES:
            raise ValidationError(
                f"unknown method {method!r}; expected one of {STRATEGIES}"
            )
    if len(set(methods)) != len(methods):
        raise ValidationError("duplicate method in request")
    if reference not in methods:
        raise ValidationError(f"reference method {reference!r} is not among the methods")
    ds.require_labeled()
    plan = np.array(make_fold_plan(len(ds), opts.n_folds, opts.seed))
    X = feature_matrix(ds.series, opts.feature_mode, ds.student_ids)
    G = ds.label_matrix()
    golds: list[np.ndarray] = []
    predicted: dict[str, list[np.ndarray]] = {m: [] for m in methods}
    for fold in range(opts.n_folds):
        test = plan == fold
        payloads = _fit(X[~test], G[~test], methods, opts)
        golds.append(G[test])
        for method in methods:
            gold = golds[-1] if method == "chain-real" else None
            bits, _ = payloads[method].predict(X[test], G.shape[1], gold)
            predicted[method].append(bits)
    fold_metrics = {
        m: [compute_metrics(gold, bits) for gold, bits in zip(golds, predicted[m])]
        for m in methods
    }
    reference_folds = tuple(f.accuracy for f in fold_metrics[reference])
    results = []
    for method in methods:
        folds = fold_metrics[method]
        if opts.aggregate == "pooled":
            metrics = compute_metrics(np.concatenate(golds), np.concatenate(predicted[method]))
        else:
            metrics = MetricSet(
                accuracy=_mean(f.accuracy for f in folds),
                precision=_mean(f.precision for f in folds),
                recall=_mean(f.recall for f in folds),
                f_score=_mean(f.f_score for f in folds),
            )
        fold_accuracies = tuple(f.accuracy for f in folds)
        p_value = None
        if method != reference:
            p_value = paired_t_test(fold_accuracies, reference_folds).p_value
        results.append(
            MethodResult(
                method=method,
                metrics=metrics,
                fold_accuracies=fold_accuracies,
                p_vs_reference=p_value,
                mark=significance_mark(p_value),
            )
        )
    return EvalReport(reference=reference, results=tuple(results))


def render_table(report: EvalReport) -> str:
    """Plain-text comparison table; accuracy carries the significance mark."""
    rows = [TABLE_COLUMNS]
    for result in report.results:
        m = result.metrics
        rows.append(
            (
                METHOD_LABELS.get(result.method, result.method),
                f"{result.mark}{m.accuracy * 100:.2f}%",
                f"{m.precision * 100:.2f}",
                f"{m.recall * 100:.2f}",
                f"{m.f_score * 100:.2f}",
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(TABLE_COLUMNS))]
    lines = []
    for index, row in enumerate(rows):
        first = row[0].ljust(widths[0])
        rest = "  ".join(cell.rjust(widths[i + 1]) for i, cell in enumerate(row[1:]))
        lines.append(f"{first}  {rest}".rstrip())
        if index == 0:
            lines.append("-" * len(lines[0]))
    return "\n".join(lines)


def report_to_json(report: EvalReport) -> dict:
    """JSON-able mapping of method name to its scores, all as fractions."""
    out = {}
    for result in report.results:
        m = result.metrics
        out[result.method] = {
            "accuracy": m.accuracy,
            "precision": m.precision,
            "recall": m.recall,
            "f_score": m.f_score,
            "folds": list(result.fold_accuracies),
            "p_vs_reference": result.p_vs_reference,
            "mark": result.mark,
        }
    return out
