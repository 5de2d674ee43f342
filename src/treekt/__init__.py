"""Knowledge tracing over tree-structured concept hierarchies.

Student mastery of each concept is a hidden binary variable on a rooted
tree (mastered parents entail mastered children); observed correctness on
exercises is emitted from the mastery of the labeled leaf concept.
Parameters are fitted by EM with closed-form updates, posteriors come from
exact two-pass message passing, and streaming sessions personalize the
shared model with one-step EM updates per new response.
"""

__version__ = "0.1.0"

#: Names imported on first read, so that fitting and scoring load neither
#: simulate nor view: name -> (its module, the core module also serving it).
_LAZY = {
    **dict.fromkeys(("GroundTruth", "SimConfig", "brute_force_posteriors",
                     "generate_classroom", "random_question_bank", "random_tree",
                     "sample_response", "sample_states"), ("simulate", None)),
    **dict.fromkeys(("ObservationSet", "observation_set", "pack_counts", "BeliefTable",
                     "posteriors", "predict", "log_likelihood"), ("view", "inference")),
    **dict.fromkeys(("StudentObservations", "pack_dataset", "SufficientStats", "e_step",
                     "m_step", "one_step_update"), ("view", "em")),
}


def _lazy_attribute(module: str, name: str):
    """PEP 562 __getattr__ of treekt, inference and em (defined before the
    imports below, as they bind it): a name of _LAZY, from treekt or its home."""
    source, home = _LAZY.get(name, (None, None))
    if source is not None and module in (__name__, f"{__name__}.{home}"):
        from importlib import import_module
        return getattr(import_module(f"{__name__}.{source}"), name)
    raise AttributeError(f"module {module!r} has no attribute {name!r}")


def __getattr__(name: str):
    return _lazy_attribute(__name__, name)


from .tree import (
    ConceptNode,
    ConceptTree,
    Difficulty,
    QuestionMeta,
    TreeFormatError,
    assign_difficulty,
    build_tree,
    load_questions,
    load_tree,
    merge_sparse_leaves,
    parse_questions,
    parse_tree,
    serialize_tree,
    validate_tree,
)
from .model import (
    Parameters,
    default_parameters,
    emission_prob,
    transition_prob,
)
from .inference import Interaction, Prediction
from .em import FitReport, fit
from .online import (
    ClassroomSession,
    PredictionRecord,
    StreamRecord,
    StudentModel,
    burn_in_fit,
    load_stream,
    observe,
    predict_next,
    replay,
    split_burn_in,
)
from .evaluate import (
    ExperimentConfig,
    MetricsReport,
    accuracy,
    auc,
    f1,
    metrics_report,
    run_experiment,
)
