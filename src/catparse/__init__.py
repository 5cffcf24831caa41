"""catparse: rebuild a document's catalog tree from its text segments."""

__version__ = "0.1.0"

from .tree import (  # noqa: F401
    Action,
    CatalogNode,
    CatalogTree,
    EvalTuple,
    IllegalAction,
    MissingInput,
    NodeKind,
    Segment,
    TransitionState,
    apply_action,
    flatten,
    legal_actions,
    validate_tree,
)
from .engine import decode, oracle_actions, oracle_examples, replay_actions  # noqa: F401
from .metrics import PRF, EvalReport, aggregate, evaluate  # noqa: F401
from .scoring import (  # noqa: F401
    ActionScorer,
    ActionScores,
    LinearModel,
    ScoringInput,
    TrainConfig,
    featurize,
    featurize_many,
    load_model,
    save_model,
    train,
)
