"""Joint knowledge-graph / text-mention relation embeddings.

Three trainable variants share one vector space: a translation-based
triple scorer (kre), a bag-of-words mention scorer (tme), and their
joint combination (jrme), all trained with margin-ranking SGD over
corrupt relations and evaluated by ranking the true relation.
"""

from .data import (
    Belief,
    Dataset,
    IdMap,
    PackedBeliefs,
    Vocabulary,
    format_stats,
    load_dataset,
    parse_belief_file,
    tokenize_mention,
)
from .embeddings import (
    VARIANTS,
    EmbeddingTable,
    ModelConfig,
    init_embeddings,
    load_model,
    parse_neg_mode,
    save_model,
)
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    JrmeError,
    ParseError,
    TrainingDivergedError,
)
from .evaluation import (
    EvalReport,
    candidate_scores,
    evaluate,
    format_report,
    rank_true_relation,
    summarize_ranks,
)
from .kernels import BACKEND
from .scoring import belief_score, mention_distance, mention_vector, triple_distance
from .training import (
    EpochReport,
    GridPoint,
    GridResult,
    example_loss,
    grid_search,
    negatives_for,
    sgd_step,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "Belief",
    "ConfigError",
    "DataError",
    "Dataset",
    "EmbeddingTable",
    "EpochReport",
    "EvalReport",
    "FormatError",
    "GridPoint",
    "GridResult",
    "IdMap",
    "JrmeError",
    "ModelConfig",
    "PackedBeliefs",
    "ParseError",
    "TrainingDivergedError",
    "VARIANTS",
    "Vocabulary",
    "belief_score",
    "candidate_scores",
    "evaluate",
    "example_loss",
    "format_report",
    "format_stats",
    "grid_search",
    "init_embeddings",
    "load_dataset",
    "load_model",
    "mention_distance",
    "mention_vector",
    "negatives_for",
    "parse_belief_file",
    "parse_neg_mode",
    "rank_true_relation",
    "save_model",
    "sgd_step",
    "summarize_ranks",
    "tokenize_mention",
    "train",
    "triple_distance",
]
