"""Feedback content selection from weekly student data.

The package turns per-student time-series over nine learning factors into
short feedback summaries: multi-label classifiers select which of the
registered feedback templates apply, and a small realizer fills the chosen
templates' slots from the student's numbers.
"""

import importlib

#: Where each re-exported name lives. A name's module is imported when the
#: name is first read (PEP 562), so ``import rakelgen`` imports no submodule
#: and a command pays only for the modules it uses.
_EXPORTS = {
    "domain": (
        "Dataset", "FactorId", "ReferenceType", "Template", "TemplateRegistry",
        "default_registry", "load_dataset", "load_registry", "save_dataset",
        "save_registry",
    ),
    "errors": ("LabelCoverageWarning", "ValidationError"),
    "evaluation": (
        "EvalOptions", "comparison_report", "compute_metrics",
        "paired_t_test", "render_table", "report_to_json", "train_method",
    ),
    "features": ("feature_matrix", "feature_schema", "trend_word"),
    "mlc": ("RakelConfig", "TrainedModel", "gold_matrix", "predict_batch"),
    "model_io": ("load_model", "save_model"),
    "nlg": ("feedback_for_records", "render_text"),
    "synth": ("SynthConfig", "default_synth_config", "generate_dataset", "load_synth_config"),
    "tree": ("DecisionTree", "TreeConfig", "descend", "train_trees"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as ``rakelgen.synth``
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})


__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]
