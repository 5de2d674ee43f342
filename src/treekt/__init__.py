"""Knowledge tracing over tree-structured concept hierarchies.

Student mastery of each concept is a hidden binary variable on a rooted
tree (mastered parents entail mastered children); observed correctness on
exercises is emitted from the mastery of the labeled leaf concept.
Parameters are fitted by EM with closed-form updates, posteriors come from
exact two-pass message passing, and streaming sessions personalize the
shared model with one-step EM updates per new response.
"""

__version__ = "0.1.0"

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
from .inference import (
    BeliefTable,
    Interaction,
    ObservationSet,
    Prediction,
    log_likelihood,
    observation_set,
    posteriors,
    predict,
)
from .em import (
    FitReport,
    StudentObservations,
    SufficientStats,
    e_step,
    fit,
    m_step,
    one_step_update,
)
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
from .simulate import (
    GroundTruth,
    SimConfig,
    brute_force_posteriors,
    generate_classroom,
    random_question_bank,
    random_tree,
    sample_response,
    sample_states,
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
