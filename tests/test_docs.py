"""Documentation guards: runnable doctests, coverage gate, link checker.

The docstring audit promises every audited public symbol a NumPy-style
docstring and the simple API a *runnable* example; these tests keep both
true by (a) executing the documented examples as doctests and (b) running
the same coverage/link gates CI enforces (``tools/check_docstrings.py`` and
``tools/check_docs_links.py``).
"""

from __future__ import annotations

import doctest
import importlib
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(REPO_ROOT, "tools")
if TOOLS not in sys.path:
    sys.path.insert(0, TOOLS)

#: Modules whose docstring examples must execute verbatim.
DOCTEST_MODULES = [
    "repro",
    "repro.core.simple",
    "repro.cufinufft",
    "repro.finufft",
    "repro.service",
    "repro.service.frontend",
    "repro.solve",
    "repro.tuning",
    "repro.tuning.signature",
    "repro.tuning.cache",
    "repro.tuning.search",
]


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_doctests_run(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False,
                              optionflags=doctest.NORMALIZE_WHITESPACE)
    assert results.failed == 0, (
        f"{results.failed} doctest failure(s) in {module_name}"
    )
    assert results.attempted > 0 or module_name not in (
        "repro", "repro.core.simple", "repro.cufinufft", "repro.finufft"
    ), f"{module_name} lost its runnable examples"


def test_docstring_coverage_gate():
    check_docstrings = importlib.import_module("check_docstrings")
    assert check_docstrings.main() == 0, (
        "public-API docstring coverage dropped below the post-audit level; "
        "run PYTHONPATH=src python tools/check_docstrings.py for the list"
    )


def test_docs_links_resolve():
    check_docs_links = importlib.import_module("check_docs_links")
    assert check_docs_links.main() == 0, (
        "broken relative link in README.md/docs; run "
        "python tools/check_docs_links.py for the list"
    )


def test_docs_pages_exist():
    for page in ("docs/ARCHITECTURE.md", "docs/BENCHMARKS.md"):
        path = os.path.join(REPO_ROOT, page)
        assert os.path.exists(path), f"{page} is missing"
        with open(path) as fh:
            assert len(fh.read()) > 1000, f"{page} is a stub"
