"""The names the benchmark's layer timers wrap must keep resolving.

``perfbench/layers.py`` replaces package functions by name; a renamed one
would only fail inside a traced benchmark run.  This loads the hook table
and checks every target without running any benchmark.
"""

import importlib.util
from pathlib import Path

from fairsort import reranker

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
