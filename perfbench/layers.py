"""Per-layer timers installed on fairsort from outside the package.

Each timer replaces a function on the name its caller resolves at call
time: the re-ranker looks up ``fairsort.reranker.original_ranking``, so that
is the name wrapped, not ``fairsort.catalog.original_ranking``.  Nothing in
the package is edited and every wrapper is removed again on exit.

A wrapper records, per layer, the call count, the inclusive time and the
self time: inclusive time minus the time of wrapped calls nested inside it.
Times are on the calling thread's CPU clock, like the end-to-end timings.
The bisection search is routed through the public
``binary_search_lambda_traced``, which returns the same weight and list plus
the probe count, so probes are counted without touching the search.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from collections import Counter

import fairsort
from fairsort import baselines, exposure, harness, metrics, reranker

SEARCH = "reranker.search"

# layer -> (owner, attribute) pairs; the owner is the module or class whose
# attribute the calling code looks up
HOOKS = {
    "catalog.ranking": [(reranker, "original_ranking"), (baselines, "original_ranking")],
    "catalog.load": [(harness, "load_dataset")],
    "reranker.pool": [(reranker, "candidate_pool")],
    "reranker.step": [(fairsort, "fairsort_online_step"), (harness, "fairsort_online_step")],
    "velocity.lifts": [(reranker, "err_rates"), (reranker, "normalize_lifts")],
    "exposure.ledger": [
        (exposure.ExposureLedger, name) for name in ("apply", "retract", "set_budget")
    ],
    "quality.ndcg": [(harness, "ndcg")],
    "baselines.serve": [
        (baselines, name) for name in ("top_k", "mixed_k", "all_random", "min_exposure")
    ],
    "metrics.running": [(metrics, name) for name in ("dcf", "dpf", "ndcg_histogram", "uir")],
    "harness.cell": [(harness, "run_cell_online"), (harness, "run_cell_offline")],
    "harness.report": [
        (harness, name)
        for name in ("emit_report", "_write_timeseries", "_write_ledger_file", "_write_ndcg_file")
    ],
}


def probe_bound(config: fairsort.RunConfig) -> int:
    """Documented worst-case NDCG evaluations of one bisection search."""
    return math.ceil(math.log2(config.lambda_max / config.gap)) + 1


class LayerTimer:
    """Call counts and times per layer for one traced pass."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.probes = 0
        self.skipped = 0
        self.saturated = 0
        self.over_bound = 0
        # one accumulator per open wrapped call: time of its wrapped children
        self._nested: list[int] = []

    def seconds(self, layer: str) -> float:
        return self.total_ns[layer] / 1e9

    def self_seconds(self, layer: str) -> float:
        return self.self_ns[layer] / 1e9

    def _timed(self, layer: str, fn):
        clock = time.thread_time_ns
        nested = self._nested

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            nested.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = nested.pop()
                self.calls[layer] += 1
                self.total_ns[layer] += elapsed
                self.self_ns[layer] += elapsed - children
                if nested:
                    nested[-1] += elapsed

        return timed

    def _counting_search(self, traced):
        def search(matrix, user, pool, lifts, config, catalog):
            lam, rlist, value, probes = traced(matrix, user, pool, lifts, config, catalog)
            self.probes += probes
            self.skipped += probes == 0
            self.saturated += lam == config.lambda_max
            self.over_bound += probes > probe_bound(config)
            return lam, rlist, value

        return search

    @contextlib.contextmanager
    def installed(self):
        """Wrap every hooked name for the duration of the block."""
        saved = []
        try:
            for layer, targets in HOOKS.items():
                for owner, name in targets:
                    original = getattr(owner, name)
                    saved.append((owner, name, original))
                    setattr(owner, name, self._timed(layer, original))
            saved.append((reranker, "binary_search_lambda", reranker.binary_search_lambda))
            search = self._counting_search(reranker.binary_search_lambda_traced)
            reranker.binary_search_lambda = self._timed(SEARCH, search)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)


def layer_metrics(timer: LayerTimer, rows_per_load: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, by BENCHMARK.json name."""
    searches = timer.calls[SEARCH]
    load_s = timer.seconds("catalog.load")
    values = {
        "catalog.ranking.calls": timer.calls["catalog.ranking"],
        "catalog.ranking.s": timer.seconds("catalog.ranking"),
        "catalog.load.s": load_s,
        "catalog.load.rows_per_s": (
            rows_per_load * timer.calls["catalog.load"] / load_s if load_s else 0.0
        ),
        "reranker.search.calls": searches,
        "reranker.search.s": timer.seconds(SEARCH),
        "reranker.probes": timer.probes,
        "reranker.probes_per_search": timer.probes / searches if searches else 0.0,
        "reranker.probe_us": timer.seconds(SEARCH) / timer.probes * 1e6 if timer.probes else 0.0,
        "reranker.skipped_frac": timer.skipped / searches if searches else 0.0,
        "reranker.lambda_max_frac": timer.saturated / searches if searches else 0.0,
        "reranker.pool.s": timer.seconds("reranker.pool"),
        "reranker.step.self_s": timer.self_seconds("reranker.step"),
        "harness.cell.self_s": timer.self_seconds("harness.cell"),
        "harness.report.s": timer.self_seconds("harness.report"),
    }
    for layer in ("velocity.lifts", "exposure.ledger", "quality.ndcg", "baselines.serve",
                  "metrics.running"):
        values[f"{layer}.calls"] = timer.calls[layer]
        values[f"{layer}.s"] = timer.seconds(layer)
    return values
