"""Provider-fair re-ranking of top-K recommendation lists.

Re-sorts each user's candidate items by preference plus a per-provider
fairness lift, choosing the largest lift weight that keeps the user's NDCG
above a configurable floor.  Ships the re-ranker itself, reference
baselines, fairness metrics and an experiment harness with a CLI
(``fairsort run``).
"""

from .baselines import all_random, min_exposure, mixed_k, top_k
from .catalog import (
    Catalog,
    DatasetFormatError,
    PreferenceMatrix,
    RankedList,
    generate_synthetic,
    load_dataset,
    original_ranking,
)
from .exposure import (
    ExposureLedger,
    FairnessNotion,
    LedgerError,
    list_contribution,
    total_exposure,
)
from .harness import ExperimentSpec, build_spec, run_experiment
from .metrics import MetricsReport, dcf, dpf, ndcg_histogram, uir
from .quality import QualityReport, ndcg
from .reranker import (
    OnlineState,
    RunConfig,
    binary_search_lambda,
    candidate_pool,
    fairsort_offline,
    fairsort_online_step,
    rerank_with_lambda,
)
from .velocity import LiftAssignment, err_rates, normalize_lifts

__version__ = "0.1.0"

__all__ = [
    "Catalog",
    "DatasetFormatError",
    "ExperimentSpec",
    "ExposureLedger",
    "FairnessNotion",
    "LedgerError",
    "LiftAssignment",
    "MetricsReport",
    "OnlineState",
    "PreferenceMatrix",
    "QualityReport",
    "RankedList",
    "RunConfig",
    "all_random",
    "binary_search_lambda",
    "build_spec",
    "candidate_pool",
    "dcf",
    "dpf",
    "err_rates",
    "fairsort_offline",
    "fairsort_online_step",
    "generate_synthetic",
    "list_contribution",
    "load_dataset",
    "min_exposure",
    "mixed_k",
    "ndcg",
    "ndcg_histogram",
    "normalize_lifts",
    "original_ranking",
    "rerank_with_lambda",
    "run_experiment",
    "top_k",
    "total_exposure",
    "uir",
]
