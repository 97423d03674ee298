"""The names the benchmark's layer timers wrap must keep resolving.

``perfbench/layers.py`` replaces package functions by name; a renamed one,
or one its caller no longer looks up at call time, would only show inside
a traced benchmark run.  This loads the hook table and checks every target
without running any benchmark.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from fairsort import (
    Catalog,
    ExposureLedger,
    FairnessNotion,
    OnlineState,
    PreferenceMatrix,
    RunConfig,
    fairsort_offline,
    fairsort_online_step,
    generate_synthetic,
    reranker,
)

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_benchmark_hooks_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = [target for pairs in layers.HOOKS.values() for target in pairs]
    targets += [(reranker, "binary_search_lambda"), (reranker, "binary_search_lambda_traced")]
    missing = [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name in targets
        if not callable(getattr(owner, name, None))
    ]
    assert not missing, missing


def test_serve_paths_call_the_hooked_names(monkeypatch):
    # the timers replace these module and class attributes, so the serve
    # paths must look them up on every call
    names = (
        "original_ranking", "candidate_pool", "err_rates", "normalize_lifts",
        "binary_search_lambda",
    )
    ledger_names = ("apply", "retract", "set_budget")
    calls = Counter()
    for owner, owned in ((reranker, names), (ExposureLedger, ledger_names)):
        for name in owned:
            def counted(*args, _name=name, _fn=getattr(owner, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
    matrix, catalog = generate_synthetic(6, 20, 3, 1.0, seed=0)
    config = RunConfig(k=3, notion=FairnessNotion.UNIFORM, ratio=0.5)
    fairsort_offline(matrix, catalog, config)
    # each user's stand-in and served list are applied, the stand-in retracted
    assert calls == dict.fromkeys(names, 6) | {"apply": 12, "retract": 6}
    calls.clear()
    state = OnlineState.fresh(catalog, config.notion)
    for user in (2, 4):
        _, state = fairsort_online_step(state, matrix, catalog, user, config)
    assert calls == dict.fromkeys(names, 2) | {"apply": 4, "retract": 2, "set_budget": 2}
    # a pool of one provider is served without lifts or a search
    calls.clear()
    matrix = PreferenceMatrix(np.array([[0.9, 0.8, 0.7, 0.3, 0.2, 0.1]]))
    catalog = Catalog.build(np.array([0, 0, 0, 1, 1, 1]), matrix)
    state = OnlineState.fresh(catalog, config.notion)
    fairsort_online_step(state, matrix, catalog, 0, config)
    assert calls == {"original_ranking": 1, "candidate_pool": 1, "apply": 2, "retract": 1,
                     "set_budget": 1}
