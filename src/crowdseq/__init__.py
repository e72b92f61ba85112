"""Sequence labeling from crowd annotations.

Learns a linear-chain tagger jointly with per-annotator reliability
tables from redundant, noisy label sequences.  Each instance's candidate
ground truths form a lattice, built from inter-annotator consistency and
pruned by the label scheme's transition constraints; an alternating
estimation loop then weighs every path of that lattice, by one
forward-backward pass, by how well the current tagger and the annotator
tables explain it.

The public names resolve on first use (PEP 562): ``import crowdseq``
imports none of its modules, and reading ``crowdseq.fit`` imports ``em``
and what ``em`` needs.  ``crowdseq.simulate`` is the function, whichever
is imported first, it or the module of the same name.
"""

from importlib import import_module as _import_module
from sys import modules as _modules
from types import ModuleType as _ModuleType

# each module's public names, all re-exported here
_EXPORTS = {
    "annotators": (
        "AnnotatorParams", "bos_context", "load_annotators", "params_from_counts",
        "resolve_mentions", "save_annotators",
    ),
    "baselines": ("DsModel", "aggregate_labels", "ds_decode", "ds_fit", "wrapper_train"),
    "crf": (
        "CrfModel", "TrainOptions", "TrainResult", "build_model", "decode", "decode_file",
        "expected_counts", "extract_features", "load_model", "log_partition", "optimize", "save_model",
        "viterbi",
    ),
    "em": (
        "EmConfig", "EmState", "FitResult", "Posterior", "confusion_counts", "e_step", "fit",
        "initialize", "m_step", "observed_loglik", "posterior_modes",
    ),
    "formats": (
        "DataError", "load_config", "load_conll", "load_crowd", "load_tokens", "parse_config",
        "read_tag_file", "read_utf8", "save_config", "save_conll", "save_crowd", "save_tagged",
        "serialize_config",
    ),
    "lattice": ("ValidLattice", "candidate_sets", "count_valid", "enumerate_valid"),
    "objective": ("weighted_nll_and_gradient",),
    "scoring": (
        "EntitySpan", "PrfReport", "entity_prf", "entity_prf_by_type", "extract_entities",
        "token_accuracy",
    ),
    "simulate": (
        "CorruptionMix", "GoldStats", "SimConfig", "annotator_precision", "calibrate_q",
        "corpus_stats", "effective_mix", "expected_precision", "simulate",
    ),
    "types": ("CrowdDataset", "CrowdInstance", "LabelScheme", "validate_dataset"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _EXPORTS or name == "cli":
        value = _import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(_ModuleType):
    """The package's own type: the import system binds a submodule on its
    package once loaded, and here that keeps ``simulate`` the function."""

    def __setattr__(self, name, value):
        if name == "simulate" and isinstance(value, _ModuleType):
            value = value.simulate
        super().__setattr__(name, value)


_modules[__name__].__class__ = _Package
