"""Acceptance gate: ten end-to-end checks, one pass line each.

Each test exercises the full stack at the advertised tolerances and prints
an ACCEPTANCE PASS line on success (visible with pytest -s or in captured
output on failure).
"""

from __future__ import annotations

import json
import math
import re
import time
import warnings

import numpy as np
import pytest
import scipy.stats

from _builders import fit_tree, leaf_label, marks_dataset, marks_record, train
from _reference_features import reference_ols_slope
from rakelgen.cli import main
from rakelgen.domain import default_registry, load_dataset, series_stack
from rakelgen.errors import LabelCoverageWarning
from rakelgen.evaluation import (
    EvalOptions,
    comparison_report,
    compute_metrics,
    paired_t_test,
    render_table,
    report_to_json,
    significance_mark,
)
from rakelgen.features import feature_matrix
from rakelgen.mlc import (
    RakelConfig,
    gold_matrix,
    predict_batch,
)
from rakelgen.nlg import format_number, trend_word
from rakelgen.synth import (
    achieved_correlations,
    default_synth_config,
    generate_dataset,
)
from rakelgen.tree import tree_stats

pytestmark = pytest.mark.filterwarnings(
    "ignore::rakelgen.errors.LabelCoverageWarning"
)

OBSERVED = "observed"


def _predicted_ids(model, registry, value: float) -> frozenset[int]:
    X = feature_matrix(series_stack([marks_record("probe", value, None)[1]]))
    bits, _ = predict_batch(model, X)
    return frozenset(
        registry.templates[j].id for j, bit in enumerate(bits[0]) if bit
    )


def test_criterion_1_structural_report(ds37):
    started = time.monotonic()
    report = comparison_report(ds37, opts=EvalOptions(n_folds=10, seed=0))
    table = render_table(report)
    elapsed = time.monotonic() - started

    lines = table.splitlines()
    assert len(lines) == 2 + 5, "expected header, rule, and five method rows"
    header = lines[0].split()
    assert header == ["Classifier", "Accuracy", "Precision", "Recall", "F-score"]
    for line in lines[2:]:
        # Four numeric columns per row; only accuracy carries % and marks.
        assert re.search(r"(\*{1,2})?\d+\.\d{2}%", line)
        assert len(re.findall(r"\d+\.\d{2}", line)) == 4

    data = report_to_json(report)
    for method, entry in data.items():
        if method == report.reference:
            assert entry["mark"] == ""
            assert entry["p_vs_reference"] is None
        else:
            assert entry["mark"] == significance_mark(entry["p_vs_reference"])

    assert elapsed < 60.0, f"comparison took {elapsed:.1f}s"
    print("ACCEPTANCE PASS: structural report (5 rows, 4 metrics, marks, <60s)")


def test_criterion_2_rakel_degenerates_to_lp(ds37, ds100, registry):
    lp = train("lp", ds37)
    rakel = train("rakel", ds37, rakel_config=RakelConfig(k=29, m=1, threshold=0.5, seed=0))
    X = feature_matrix(np.concatenate((ds100.series, ds37.series)))
    assert predict_batch(rakel, X)[0].tolist() == predict_batch(lp, X)[0].tolist()
    checked = len(X)
    assert checked >= 100
    print(
        "ACCEPTANCE PASS: RAkEL with k=|L|, m=1, t=0.5 is bit-identical to LP "
        f"on {checked} records"
    )


def test_criterion_3_lp_closure_and_br_escape(registry):
    # Part one: when the only observed sets are {A, B} and the empty set,
    # the powerset methods can never emit {A} or {B} alone.
    rows_pair = [(float(v), [1, 2]) for v in (1, 2, 3, 4)] + [
        (float(v), []) for v in (6, 7, 8, 9)
    ]
    ds_pair = marks_dataset(registry, rows_pair)
    lp = train("lp", ds_pair)
    rakel = train("rakel", ds_pair, rakel_config=RakelConfig(k=29, m=1, threshold=0.5, seed=0))
    observed_pair = {frozenset({1, 2}), frozenset()}
    rng = np.random.default_rng(0)
    probes = [round(float(v), 1) for v in rng.uniform(0.0, 10.0, size=200)]
    for value in probes:
        for model in (lp, rakel):
            ids = _predicted_ids(model, registry, value)
            assert ids in observed_pair
            assert ids != frozenset({1})
            assert ids != frozenset({2})

    # Part two: binary relevance ignores label correlation, so a training
    # set holding two identical feature rows with contradictory label sets
    # drives its independent per-label trees to an unobserved combination,
    # while the powerset methods stay inside the observed sets.
    rows_conflict = [
        (1.0, [1, 2]),
        (2.0, [1, 2]),
        (3.0, [1, 2]),
        (5.0, [1, 2]),
        (5.0, [3]),
        (7.0, [3]),
        (8.0, [3]),
        (9.0, [3]),
    ]
    ds_conflict = marks_dataset(registry, rows_conflict)
    br = train("br", ds_conflict)
    lp = train("lp", ds_conflict)
    rakel = train("rakel", ds_conflict, rakel_config=RakelConfig(k=29, m=1, threshold=0.5, seed=0))
    observed_conflict = {frozenset({1, 2}), frozenset({3})}
    probes = [5.0, 4.5, 5.5] + [
        round(float(v), 1) for v in rng.uniform(0.0, 10.0, size=197)
    ]
    br_escaped = False
    for value in probes:
        br_ids = _predicted_ids(br, registry, value)
        if br_ids not in observed_conflict:
            br_escaped = True
        for model in (lp, rakel):
            assert _predicted_ids(model, registry, value) in observed_conflict
    assert br_escaped, "BR never left the observed label sets"
    print(
        "ACCEPTANCE PASS: LP and RAkEL(k=|L|) stay closed over observed label "
        "sets; BR emits an unobserved combination on the conflict dataset"
    )


def test_criterion_4_metrics_against_counting_oracle():
    def oracle(gold, pred):
        tp = fp = fn = tn = 0
        for g, p in zip(gold, pred):
            for gb, pb in zip(g, p):
                tp += gb and pb
                fp += (not gb) and pb
                fn += gb and (not pb)
                tn += (not gb) and (not pb)
        total = tp + fp + fn + tn
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn) if tp + fn else 1.0
        f_score = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        return (tp + tn) / total, precision, recall, f_score

    worked = compute_metrics(np.array([[1, 0, 1]]), np.array([[1, 1, 1]]))
    assert worked.accuracy == 2 / 3
    assert worked.precision == 2 / 3
    assert worked.recall == 1.0
    assert worked.f_score == 0.8

    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(1, 15))
        width = int(rng.integers(1, 9))
        gold = rng.integers(0, 2, (n, width))
        pred = rng.integers(0, 2, (n, width))
        ours = compute_metrics(gold, pred)
        acc, prec, rec, f1 = oracle(gold.tolist(), pred.tolist())
        assert ours.accuracy == acc
        assert ours.precision == prec
        assert ours.recall == rec
        assert ours.f_score == pytest.approx(f1, abs=0)
    print(
        "ACCEPTANCE PASS: pooled metrics match the brute-force counting oracle "
        "on 50 random score matrices plus the worked example"
    )


def test_criterion_5_t_test_against_independent_oracle():
    scores = [0.71, 0.74, 0.69, 0.8, 0.77]
    assert paired_t_test(scores, scores).p_value == 1.0

    rng = np.random.default_rng(99)
    compared = 0
    while compared < 20:
        a = rng.uniform(0.4, 1.0, size=10)
        b = np.clip(a + rng.normal(0.0, 0.05, size=10), 0.0, 1.0)
        diffs = a - b
        if np.allclose(diffs, diffs[0]):
            continue
        ours = paired_t_test(a.tolist(), b.tolist())
        reference = scipy.stats.ttest_rel(a, b)
        assert ours.statistic == pytest.approx(float(reference.statistic), abs=1e-9)
        assert ours.p_value == pytest.approx(float(reference.pvalue), abs=1e-9)
        compared += 1

    # Closed form for differences (1, 2, 3): p = 1 - sqrt(6/7).
    hand = paired_t_test([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    assert hand.p_value == pytest.approx(1.0 - math.sqrt(6.0 / 7.0), abs=1e-12)
    print(
        "ACCEPTANCE PASS: paired t-test matches the independent oracle within "
        "1e-9 on 20 random fold-score pairs and is exactly 1.0 on identical "
        "scores"
    )


def test_criterion_6_tree_memorization():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        X = np.unique(np.round(rng.uniform(0, 10, size=(26, 5)), 2), axis=0)
        y = rng.integers(0, 4, size=len(X))
        tree = fit_tree(X, y)
        assert [leaf_label(tree, row) for row in X] == list(y)

    xor_X = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
    xor_y = [0, 1, 1, 0]
    xor_tree = fit_tree(xor_X, xor_y)
    assert [leaf_label(xor_tree, x) for x in xor_X] == xor_y
    assert tree_stats(xor_tree)["depth"] >= 2
    print(
        "ACCEPTANCE PASS: trees memorize 30 random consistent datasets and "
        "solve XOR at depth >= 2"
    )


def test_criterion_7_chain_real_reproduces_training_gold(ds37, registry):
    model = train("chain-real", ds37)
    X = feature_matrix(ds37.series)
    bits, _ = predict_batch(model, X, gold_matrix(model, ds37))
    assert bits.tolist() == ds37.label_matrix().tolist()
    print(
        "ACCEPTANCE PASS: chain with real history reproduces every training "
        "label set exactly"
    )


def test_criterion_8_synthetic_correlation(registry):
    for seed in range(5):
        config = default_synth_config(n_students=1000, seed=seed)
        ds = generate_dataset(config, registry)
        rows = achieved_correlations(ds, config.correlation_pairs)
        (key_a, key_b, target, achieved) = rows[0]
        assert target == 0.6
        assert abs(achieved - 0.6) <= 0.1, (
            f"seed {seed}: achieved {achieved:.4f} for {key_a}/{key_b}"
        )
    print(
        "ACCEPTANCE PASS: achieved lectures/understandability correlation is "
        "within 0.6 +- 0.1 at n=1000 for five seeds"
    )


def test_criterion_9_end_to_end_feedback(tmp_path, registry, capsys):
    started = time.monotonic()
    data_path = tmp_path / "students.jsonl"
    model_path = tmp_path / "model.json"
    feedback_path = tmp_path / "feedback.json"
    assert main(["generate", "--out", str(data_path), "--count", "37"]) == 0
    assert (
        main(
            [
                "train",
                "--data",
                str(data_path),
                "--method",
                "rakel",
                "--out",
                str(model_path),
                "--seed",
                "0",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "feedback",
                "--data",
                str(data_path),
                "--model",
                str(model_path),
                "--format",
                "json",
                "--out",
                str(feedback_path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    elapsed = time.monotonic() - started

    ds = load_dataset(data_path, registry)
    by_id = dict(zip(ds.student_ids, ds.series))
    payload = json.loads(feedback_path.read_text(encoding="utf-8"))
    assert len(payload) == 37
    for entry in payload:
        record_series = by_id[entry["student_id"]]
        factors = []
        for item in entry["feedback"]:
            template = registry.templates[registry.label_index(item["template_id"])]
            factors.append(template.factor)
            series = record_series[template.factor - 1].tolist()
            slots = {
                "average": format_number(sum(series) / len(series)),
                "trend_word": trend_word(reference_ols_slope(series)),
                "first_week_value": format_number(series[0]),
                "last_week_value": format_number(series[-1]),
                "per_week_list": ", ".join(format_number(v) for v in series),
            }
            assert item["sentence"] == template.surface_text.format(**slots)
            recomputed = {
                slots["average"],
                slots["first_week_value"],
                slots["last_week_value"],
            } | {format_number(v) for v in series}
            for number in re.findall(r"\d+\.\d", item["sentence"]):
                assert number in recomputed
        assert len(factors) == len(set(factors))

    assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"
    print(
        "ACCEPTANCE PASS: generate -> train -> feedback pipeline is faithful "
        f"(37 students, every sentence re-derivable, {elapsed:.1f}s)"
    )


def test_criterion_10_determinism(tmp_path, capsys):
    def run(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    out_a = run(["generate", "--out", str(a), "--count", "14", "--seed", "5"])
    out_b = run(["generate", "--out", str(b), "--count", "14", "--seed", "5"])
    assert a.read_bytes() == b.read_bytes()
    assert out_a.replace(str(a), "X") == out_b.replace(str(b), "X")

    model_seq = tmp_path / "seq.json"
    model_par = tmp_path / "par.json"
    base = ["train", "--data", str(a), "--method", "rakel", "--seed", "0"]
    run(base + ["--out", str(model_seq), "--n-jobs", "1"])
    run(base + ["--out", str(model_par), "--n-jobs", "2"])
    assert model_seq.read_bytes() == model_par.read_bytes()

    report_a = tmp_path / "ra.json"
    report_b = tmp_path / "rb.json"
    eval_base = [
        "evaluate",
        "--data",
        str(a),
        "--methods",
        "br,majority,rakel",
        "--folds",
        "4",
        "--seed",
        "0",
        "--k",
        "2",
        "--m",
        "8",
    ]
    table_a = run(eval_base + ["--json", str(report_a)])
    table_b = run(eval_base + ["--json", str(report_b)])
    assert table_a == table_b
    assert report_a.read_bytes() == report_b.read_bytes()

    feed_a = run(["feedback", "--data", str(a), "--model", str(model_seq)])
    feed_b = run(["feedback", "--data", str(b), "--model", str(model_par)])
    assert feed_a == feed_b
    print(
        "ACCEPTANCE PASS: repeated runs with identical seeds are byte-"
        "identical, including parallel training"
    )
