"""The documentation points only at files that exist.

Every backticked repository path in the top-level docs -- a file under
``benchmarks/``, ``perfbench/``, ``src/``, ``tests/``, ``examples/`` or
``docs/``, or a top-level ``*.json`` such as ``BENCHMARK.json`` -- must
name a file in the checkout (a glob must match at least one).
"""

import pathlib
import re

import pytest

_ROOT = pathlib.Path(__file__).resolve().parent.parent

_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/MODEL.md",
         "perfbench/README.md")

_PATH = re.compile(
    r"`((?:benchmarks|perfbench|src|tests|examples|docs)/[^`\s]+\.(?:py|json|md)"
    r"|[A-Z][\w*]*\.json)`")


@pytest.mark.parametrize("doc", _DOCS)
def test_backticked_repo_paths_exist(doc):
    missing = sorted(path for path in set(_PATH.findall(
        (_ROOT / doc).read_text(encoding="utf-8")))
        if not any(_ROOT.glob(path)))
    assert not missing, f"{doc} points at missing files: {missing}"
