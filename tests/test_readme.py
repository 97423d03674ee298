"""README's examples run as written."""

import json
import re
from pathlib import Path

import fairsort
from fairsort import build_spec

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def test_readme_python_examples_run_in_one_namespace():
    # the online example reads names the library example defines
    code = blocks("python")
    assert len(code) == 2
    namespace = {}
    for block in code:
        exec(compile(block, "README.md", "exec"), namespace)
    assert min(namespace["report"].per_user.values()) >= 0.9


def test_readme_config_is_a_valid_spec():
    (config,) = blocks("json")
    spec = build_spec(json.loads(config))
    assert spec.k_values == (5, 10, 20) and spec.dataset == "synthetic"


def test_readme_names_every_public_name():
    missing = [name for name in fairsort.__all__ if not re.search(rf"\b{name}\b", README)]
    assert missing == []
