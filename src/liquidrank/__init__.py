"""Reputation ranking for mention graphs, with an IR evaluation harness.

The pipeline has three stages: parse tweets into rater->ratee interaction
records (`ingest`), aggregate them into a weighted graph and iterate the
reputation flow to a fixed point (`graph`, `rank`), then score rankings
against graded judgments (`evaluation`). The `cli` module wires the stages
together behind a `liquidrank` console command.
"""

from .errors import (
    DegenerateUpdate,
    EmptyGraph,
    EmptyRanking,
    FormatError,
    NodeSetMismatch,
)
from .ingest import (
    InteractionColumns,
    InteractionRecord,
    MalformedLine,
    ParseResult,
    TweetRecord,
    extract_mentions,
    parse_tweets,
    read_interaction_columns,
    read_interactions_csv,
    to_interactions,
    valid_handle,
    write_interactions_csv,
)
from .graph import (
    UNBOUNDED,
    RatingGraph,
    TimeWindow,
    build_graph,
    from_edge_counts,
)
from .rank import (
    METHOD_LIQUID,
    METHOD_MENTIONS,
    METHOD_PRODUCT,
    RankEntry,
    RankParams,
    RankedList,
    ReputationState,
    format_score,
    liquid_rank,
    mention_rank,
    product_rank,
    ranked_list_from_scores,
    read_ranking_csv,
    reputation_snapshot,
    to_ranked_list,
    top_k,
    write_ranking_csv,
    write_reputation_json,
)
from .evaluation import (
    JudgmentSet,
    MetricReport,
    average_precision,
    evaluate,
    precision_at_k,
    read_judgments_csv,
    reciprocal_rank,
    write_report_json,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateUpdate",
    "EmptyGraph",
    "EmptyRanking",
    "FormatError",
    "NodeSetMismatch",
    "InteractionColumns",
    "InteractionRecord",
    "MalformedLine",
    "ParseResult",
    "TweetRecord",
    "extract_mentions",
    "parse_tweets",
    "read_interaction_columns",
    "read_interactions_csv",
    "to_interactions",
    "valid_handle",
    "write_interactions_csv",
    "UNBOUNDED",
    "RatingGraph",
    "TimeWindow",
    "build_graph",
    "from_edge_counts",
    "METHOD_LIQUID",
    "METHOD_MENTIONS",
    "METHOD_PRODUCT",
    "RankEntry",
    "RankParams",
    "RankedList",
    "ReputationState",
    "format_score",
    "liquid_rank",
    "mention_rank",
    "product_rank",
    "ranked_list_from_scores",
    "read_ranking_csv",
    "reputation_snapshot",
    "to_ranked_list",
    "top_k",
    "write_ranking_csv",
    "write_reputation_json",
    "JudgmentSet",
    "MetricReport",
    "average_precision",
    "evaluate",
    "precision_at_k",
    "read_judgments_csv",
    "reciprocal_rank",
    "write_report_json",
    "__version__",
]
