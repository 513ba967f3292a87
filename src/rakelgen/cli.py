"""Command-line front end.

Subcommands cover the full batch workflow: ``generate`` a synthetic labeled
cohort, ``evaluate`` the strategies against each other under cross-validation,
``train`` one model to an artifact, ``feedback`` to render summaries from an
artifact, and ``inspect-features`` to show the classifier's view of a record.

Exit codes: 0 on success, 2 for validation problems (bad arguments, malformed
files, mismatched registries), 1 for unexpected internal errors. With
``--json-errors`` failures are reported as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import __version__
from .domain import (
    Dataset,
    default_registry,
    load_dataset,
    load_registry,
    save_dataset,
)
from .errors import ValidationError
from .features import FEATURE_MODES, feature_matrix, feature_schema
from .mlc import DEFAULT_METHODS, DEFAULT_REFERENCE, MAJORITY_MODES, STRATEGIES, RakelConfig
from .model_io import load_model, save_model
from .nlg import feedback_for_records, render_text, summary_to_json
from .tree import CRITERIA, TreeConfig

# ``evaluation`` and ``synth`` are imported inside the subcommands that use
# them, so ``feedback`` and ``inspect-features`` neither import nor compile them.

SEED_ENV_VAR = "RAKELGEN_SEED"

#: glibc's ``mallopt`` parameter numbers (``malloc.h``) and the values
#: ``main`` gives them: blocks below glibc's 32 MiB ceiling for its dynamic
#: mmap threshold come from the heap, and freeing keeps up to 1 GiB of its top.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 1 << 30

#: ``evaluation.AGGREGATES``, repeated here so that building the parser does
#: not import ``evaluation``.
AGGREGATES = ("pooled", "fold-mean")


def resolve_seed(value: int | None) -> int:
    """Explicit value, else the RAKELGEN_SEED environment variable, else 0."""
    if value is not None:
        return value
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValidationError(
            f"{SEED_ENV_VAR} must be an integer, got {env!r}"
        ) from None


def _load_registry_arg(args):
    if args.registry is None:
        return default_registry()
    return load_registry(args.registry)


def _load_data(args, registry) -> Dataset:
    ds = load_dataset(args.data, registry)
    if len(ds) == 0:
        raise ValidationError(f"{args.data}: dataset is empty")
    return ds


def _parse_methods(text: str) -> tuple[str, ...]:
    methods = tuple(part.strip() for part in text.split(",") if part.strip())
    if not methods:
        raise ValidationError("no methods given")
    return methods


def _parse_chain_order(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValidationError(
            f"chain order must be comma-separated integers, got {text!r}"
        ) from None


def _eval_options(args, **extra):
    """The training options that ``evaluate`` and ``train`` share, plus ``extra``."""
    from .evaluation import EvalOptions

    seed = resolve_seed(args.seed)
    return EvalOptions(
        seed=seed,
        feature_mode=args.feature_mode,
        tree_config=TreeConfig(
            max_depth=args.max_depth,
            min_samples_leaf=args.min_samples_leaf,
            split_criterion=args.criterion,
        ),
        rakel_config=RakelConfig(k=args.k, m=args.m, threshold=args.threshold, seed=seed),
        chain_order=_parse_chain_order(args.chain_order),
        majority_mode=args.majority_mode,
        **extra,
    )


def _add_registry_arg(parser):
    parser.add_argument(
        "--registry",
        metavar="PATH",
        default=None,
        help="template registry JSON (default: the packaged registry)",
    )


def _add_seed_arg(parser):
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"RNG seed (default: ${SEED_ENV_VAR} if set, else 0)",
    )


def _add_tree_args(parser):
    parser.add_argument("--max-depth", type=int, default=None, help="tree depth cap")
    parser.add_argument(
        "--min-samples-leaf", type=int, default=1, help="minimum samples per leaf"
    )
    parser.add_argument(
        "--criterion", choices=CRITERIA, default="gini", help="split impurity measure"
    )


def _add_strategy_args(parser):
    _add_tree_args(parser)
    parser.add_argument("--k", type=int, default=3, help="labelset size for rakel")
    parser.add_argument(
        "--m", type=int, default=None, help="ensemble size for rakel (default: 2x labels)"
    )
    parser.add_argument(
        "--threshold", type=float, default=0.5, help="vote threshold for rakel"
    )
    parser.add_argument(
        "--feature-mode", choices=FEATURE_MODES, default="both", help="classifier inputs"
    )
    parser.add_argument(
        "--chain-order",
        metavar="CSV",
        default=None,
        help="label index order for chains (default: registry order)",
    )
    parser.add_argument(
        "--majority-mode", choices=MAJORITY_MODES, default="per-label"
    )
    # Read by nothing, so it does not bound evaluate's fold workers either.
    # Kept, hidden and only as 1, because perfbench/run.py still passes --n-jobs 1.
    parser.add_argument("--n-jobs", type=int, choices=(1,), default=1, help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rakelgen",
        description="Select and render feedback templates from weekly student data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--json-errors",
        action="store_true",
        help="report failures as a JSON object on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic labeled cohort")
    p.add_argument("--out", required=True, metavar="PATH", help="output JSON Lines file")
    p.add_argument("--count", type=int, default=None, help="number of students")
    p.add_argument("--weeks", type=int, default=None, help="weeks per series")
    p.add_argument(
        "--expert-noise", type=float, default=None, help="annotation redraw probability"
    )
    p.add_argument("--experts", type=int, default=None, help="number of annotators")
    p.add_argument(
        "--config", metavar="PATH", default=None, help="synth config JSON (default: packaged)"
    )
    _add_registry_arg(p)
    _add_seed_arg(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="compare strategies under cross-validation")
    p.add_argument("--data", required=True, metavar="PATH", help="labeled JSON Lines dataset")
    methods = ",".join(DEFAULT_METHODS)
    p.add_argument(
        "--methods",
        default=methods,
        metavar="CSV",
        help=f"strategies to compare (default: {methods})",
    )
    p.add_argument("--folds", type=int, default=10, help="cross-validation folds")
    p.add_argument(
        "--reference", default=DEFAULT_REFERENCE, help="strategy the others are tested against"
    )
    p.add_argument(
        "--aggregate", choices=AGGREGATES, default="pooled", help="metric aggregation"
    )
    p.add_argument(
        "--json", metavar="PATH", default=None, help="also write the report as JSON"
    )
    _add_registry_arg(p)
    _add_seed_arg(p)
    _add_strategy_args(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("train", help="train one strategy and save the model")
    p.add_argument("--data", required=True, metavar="PATH", help="labeled JSON Lines dataset")
    p.add_argument("--method", required=True, choices=STRATEGIES)
    p.add_argument("--out", required=True, metavar="PATH", help="model artifact path")
    _add_registry_arg(p)
    _add_seed_arg(p)
    _add_strategy_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("feedback", help="render feedback summaries from a model")
    p.add_argument("--data", required=True, metavar="PATH", help="JSON Lines dataset")
    p.add_argument("--model", required=True, metavar="PATH", help="model artifact")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", metavar="PATH", default=None, help="write here instead of stdout")
    p.add_argument(
        "--trend-tolerance",
        type=float,
        default=0.05,
        help="|slope| at or below which a trend reads as stable",
    )
    _add_registry_arg(p)
    p.set_defaults(func=cmd_feedback)

    p = sub.add_parser(
        "inspect-features", help="show the feature vector extracted from records"
    )
    p.add_argument("--data", required=True, metavar="PATH", help="JSON Lines dataset")
    p.add_argument("--student", default=None, help="restrict to one student id")
    p.add_argument("--mode", choices=FEATURE_MODES, default="derived")
    _add_registry_arg(p)
    p.set_defaults(func=cmd_inspect_features)

    return parser


def cmd_generate(args) -> int:
    from .synth import (
        achieved_correlations,
        default_synth_config,
        generate_dataset,
        load_synth_config,
    )

    registry = _load_registry_arg(args)
    if args.config is None:
        config = default_synth_config()
    else:
        config = load_synth_config(args.config)
    given = {
        "n_students": args.count,
        "weeks": args.weeks,
        "expert_noise": args.expert_noise,
        "expert_count": args.experts,
    }
    overrides = {name: value for name, value in given.items() if value is not None}
    if args.seed is not None or os.environ.get(SEED_ENV_VAR) is not None:
        overrides["seed"] = resolve_seed(args.seed)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    ds = generate_dataset(config, registry)
    save_dataset(ds, args.out)
    print(f"wrote {len(ds)} records to {args.out}")
    for a, b, target, achieved in achieved_correlations(ds, config.correlation_pairs):
        shown = "n/a" if achieved is None else f"{achieved:.3f}"
        print(f"correlation {a}/{b}: target {target:g}, achieved {shown}")
    return 0


def cmd_evaluate(args) -> int:
    from .evaluation import comparison_report, render_table, report_to_json

    registry = _load_registry_arg(args)
    ds = _load_data(args, registry)
    opts = _eval_options(args, n_folds=args.folds, aggregate=args.aggregate)
    report = comparison_report(ds, _parse_methods(args.methods), args.reference, opts)
    print(render_table(report))
    if args.json is not None:
        payload = json.dumps(report_to_json(report), indent=2, sort_keys=True) + "\n"
        Path(args.json).write_text(payload, encoding="utf-8")
    return 0


def cmd_train(args) -> int:
    from .evaluation import train_method

    registry = _load_registry_arg(args)
    ds = _load_data(args, registry)
    model = train_method(args.method, ds, _eval_options(args))
    save_model(model, registry, args.out)
    print(f"strategy: {model.strategy}")
    print(f"records: {len(ds)}")
    print(f"labels: {model.n_labels}")
    print(f"weeks: {model.weeks}")
    for key, value in model.payload.summary().items():
        print(f"{key}: {value}")
    print(f"saved: {args.out}")
    return 0


def cmd_feedback(args) -> int:
    registry = _load_registry_arg(args)
    ds = _load_data(args, registry)
    model = load_model(args.model, registry)
    if model.weeks != ds.weeks:
        raise ValidationError(
            f"model was trained on {model.weeks}-week series, dataset has {ds.weeks}"
        )
    summaries = feedback_for_records(model, ds, args.trend_tolerance)
    if args.out is None:
        _write_feedback(sys.stdout, summaries, args.format)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            _write_feedback(handle, summaries, args.format)
    return 0


def _write_feedback(handle, summaries, fmt: str) -> None:
    """Write each summary as it is rendered. The bytes are those of
    ``json.dumps(list, indent=2)``, or of the text blocks joined by blank
    lines, plus a newline; the dataset is never empty."""
    if fmt == "json":
        head, between, tail = "[\n  ", ",\n  ", "\n]\n"

        def render(summary):  # one list item, its lines one level deeper
            return json.dumps(summary_to_json(summary), indent=2).replace("\n", "\n  ")
    else:
        head, between, tail, render = "", "\n\n", "\n", render_text
    for index, summary in enumerate(summaries):
        handle.write((between if index else head) + render(summary))
    handle.write(tail)


def cmd_inspect_features(args) -> int:
    registry = _load_registry_arg(args)
    ds = _load_data(args, registry)
    rows = range(len(ds))
    if args.student is not None:
        rows = [i for i in rows if ds.student_ids[i] == args.student]
        if not rows:
            raise ValidationError(f"no record with student id {args.student!r}")
    X = feature_matrix(ds.series[rows], args.mode, [ds.student_ids[i] for i in rows])
    schema = feature_schema(ds.weeks, args.mode)
    for i, values in zip(rows, X.tolist()):
        print(f"{ds.student_ids[i]}:")
        for (factor, name), value in zip(schema, values):
            print(f"  {factor.key}.{name} = {value:g}")
    return 0


def _emit_error(json_errors: bool, kind: str, message: str) -> None:
    if json_errors:
        print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    else:
        print(f"rakelgen: {kind} error: {message}", file=sys.stderr)


def _keep_freed_heap() -> None:
    """Let glibc reuse freed memory instead of returning it to the kernel.

    Split search allocates and frees megabytes of numpy temporaries per
    block of nodes. By default glibc trims the top of the heap after each
    block, so the next block faults the same pages in again: some 300k minor
    faults in a 50-student ``evaluate``. Setting either parameter alone
    fixes glibc's dynamic mmap threshold at 128 KiB, which faults more, so
    both are set. Where ``mallopt`` is missing (musl, macOS, Windows)
    nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        _emit_error(args.json_errors, "validation", str(exc))
        return 2
    except Exception as exc:  # pragma: no cover - defensive catch-all
        _emit_error(args.json_errors, "internal", f"{type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
