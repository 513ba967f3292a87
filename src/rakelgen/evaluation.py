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
from dataclasses import dataclass, replace

import numpy as np

from .domain import Dataset, LabelVector
from .errors import ValidationError
from .features import feature_matrix
from .mlc import (
    DEFAULT_METHODS,
    DEFAULT_REFERENCE,
    RakelConfig,
    STRATEGIES,
    TrainedModel,
    predict_batch,
    train_binary_relevance,
    train_chain,
    train_lp,
    train_majority,
    train_rakel,
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

CHAIN_METHODS = ("chain-predicted", "chain-real")


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
class CvOutcome:
    metrics: MetricSet
    fold_metrics: tuple[MetricSet, ...]

    @property
    def fold_accuracies(self) -> tuple[float, ...]:
        return tuple(m.accuracy for m in self.fold_metrics)


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


def compute_metrics(
    gold: Sequence[LabelVector], pred: Sequence[LabelVector]
) -> MetricSet:
    """Hamming accuracy over all label cells plus micro-averaged P/R/F.

    A precision or recall whose denominator is zero is taken as 1.0; the
    F-score is the harmonic mean, or 0.0 when both P and R are zero.
    """
    if len(gold) != len(pred):
        raise ValidationError("gold and predicted sequences differ in length")
    if not gold:
        raise ValidationError("cannot compute metrics over zero predictions")
    G = np.array([v.bits for v in gold], dtype=int)
    P = np.array([v.bits for v in pred], dtype=int)
    if G.shape != P.shape:
        raise ValidationError("gold and predicted label vectors differ in width")
    return _matrix_metrics(G, P)


def _matrix_metrics(G: np.ndarray, P: np.ndarray) -> MetricSet:
    """``compute_metrics`` of gold and predicted 0/1 matrices of one shape."""
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
    if method == "br":
        return train_binary_relevance(ds, opts.tree_config, opts.feature_mode, opts.n_jobs)
    if method in CHAIN_METHODS:
        history = method.removeprefix("chain-")
        return train_chain(ds, opts.tree_config, opts.chain_order, history, opts.feature_mode)
    if method == "majority":
        return train_majority(ds, opts.majority_mode)
    if method == "lp":
        return train_lp(ds, opts.tree_config, opts.feature_mode)
    if method == "rakel":
        return train_rakel(ds, opts.rakel_config, opts.tree_config, opts.feature_mode, opts.n_jobs)
    raise ValidationError(f"unknown method {method!r}; expected one of {STRATEGIES}")


def cross_validate(
    ds: Dataset,
    method: str,
    opts: EvalOptions = EvalOptions(),
    chains: dict[int, TrainedModel] | None = None,
) -> CvOutcome:
    """Score one strategy under k-fold cross-validation.

    Every record is predicted exactly once, by the model trained on the other
    folds; each test fold is predicted as one feature matrix. The headline
    metrics pool all predictions (or average the per-fold metrics under
    ``aggregate="fold-mean"``).

    The two chain methods train identical trees and differ only in how they
    predict. ``chains`` maps a fold to its trained chain: a chain method reuses
    the entry of its fold and records the chains it trains, so a comparison
    of both methods trains each fold's chain once.
    """
    ds.require_labeled()
    plan = make_fold_plan(len(ds), opts.n_folds, opts.seed)
    all_gold: list[np.ndarray] = []
    all_pred: list[np.ndarray] = []
    fold_metrics: list[MetricSet] = []
    for fold in range(opts.n_folds):
        test = ds.take([i for i, f in enumerate(plan) if f == fold])
        shared = chains is not None and method in CHAIN_METHODS
        if shared and fold in chains:
            model = _with_history(chains[fold], method)
        else:
            model = train_method(method, ds.take([i for i, f in enumerate(plan) if f != fold]), opts)
            if shared:
                chains[fold] = model
        gold = test.label_matrix()
        bits, _ = predict_batch(
            model,
            feature_matrix(test.series, model.feature_mode),
            gold if model.strategy == "chain-real" else None,
        )
        fold_metrics.append(_matrix_metrics(gold, bits))
        all_gold.append(gold)
        all_pred.append(bits)
    if opts.aggregate == "pooled":
        metrics = _matrix_metrics(np.concatenate(all_gold), np.concatenate(all_pred))
    else:
        metrics = MetricSet(
            accuracy=_mean(m.accuracy for m in fold_metrics),
            precision=_mean(m.precision for m in fold_metrics),
            recall=_mean(m.recall for m in fold_metrics),
            f_score=_mean(m.f_score for m in fold_metrics),
        )
    return CvOutcome(metrics=metrics, fold_metrics=tuple(fold_metrics))


def _with_history(chain: TrainedModel, method: str) -> TrainedModel:
    """The trained chain as a model of the given chain method."""
    return replace(chain, payload=replace(chain.payload, history=method.removeprefix("chain-")))


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
    per-fold accuracies against the reference strategy's."""
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
    chains: dict[int, TrainedModel] = {}
    outcomes = {m: cross_validate(ds, m, opts, chains) for m in methods}
    reference_folds = outcomes[reference].fold_accuracies
    results = []
    for method in methods:
        outcome = outcomes[method]
        if method == reference:
            p_value, mark = None, ""
        else:
            p_value = paired_t_test(outcome.fold_accuracies, reference_folds).p_value
            mark = significance_mark(p_value)
        results.append(
            MethodResult(
                method=method,
                metrics=outcome.metrics,
                fold_accuracies=outcome.fold_accuracies,
                p_vs_reference=p_value,
                mark=mark,
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
