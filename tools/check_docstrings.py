#!/usr/bin/env python
"""Docstring-coverage gate for the audited public API.

Walks the ``__all__`` of the audited modules and fails (exit 1) unless every
public symbol carries a substantive docstring -- the post-audit level is
100%, and this gate keeps it there.  For ``repro.core.simple`` (the simple
interfaces) each wrapper must additionally carry a runnable ``Examples``
section, which ``tests/test_docs.py`` executes as doctests.

Run from the repository root:

    PYTHONPATH=src python tools/check_docstrings.py
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

#: Audited modules and their per-symbol requirements.
AUDITED = {
    "repro": {"require_examples": False},
    "repro.artifacts": {"require_examples": False},
    "repro.backends": {"require_examples": False},
    "repro.baselines": {"require_examples": False},
    "repro.core.env": {"require_examples": False},
    "repro.core.pointset": {"require_examples": False},
    "repro.core.simple": {"require_examples": True},
    "repro.core.stencil": {"require_examples": False},
    "repro.core.windowed": {"require_examples": False},
    "repro.core.workspace": {"require_examples": False},
    "repro.cluster.distributed": {"require_examples": False},
    "repro.cufinufft": {"require_examples": False},
    "repro.finufft": {"require_examples": False},
    "repro.faults": {"require_examples": False},
    "repro.gpu": {"require_examples": False},
    "repro.metrics": {"require_examples": False},
    "repro.mtip": {"require_examples": False},
    "repro.service": {"require_examples": False},
    "repro.service.frontend": {"require_examples": False},
    "repro.solve": {"require_examples": False},
    "repro.tuning": {"require_examples": False},
}

#: Minimum characters for a docstring to count as substantive.
MIN_DOC_CHARS = 20

#: Required coverage (the post-audit level).
THRESHOLD = 1.0


def audit_module(module_name, require_examples=False):
    """Return (checked, problems) for one module's ``__all__``."""
    module = importlib.import_module(module_name)
    problems = []
    checked = 0
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)
                or inspect.ismodule(obj)):
            continue  # re-exported constants (e.g. __version__) need no doc
        checked += 1
        doc = inspect.getdoc(obj)
        if not doc or len(doc.strip()) < MIN_DOC_CHARS:
            problems.append(f"{module_name}.{name}: missing/trivial docstring")
            continue
        if require_examples and inspect.isfunction(obj) and ">>>" not in doc:
            problems.append(
                f"{module_name}.{name}: no runnable Examples section (>>> )"
            )
    # the module docstring itself is part of the audited surface
    checked += 1
    if not module.__doc__ or len(module.__doc__.strip()) < MIN_DOC_CHARS:
        problems.append(f"{module_name}: missing module docstring")
    return checked, problems


def main():
    total = 0
    all_problems = []
    for module_name, rules in AUDITED.items():
        checked, problems = audit_module(module_name, **rules)
        total += checked
        all_problems.extend(problems)
    covered = total - len(all_problems)
    coverage = covered / total if total else 1.0
    print(f"docstring coverage: {covered}/{total} audited symbols "
          f"({coverage:.1%}, gate {THRESHOLD:.0%})")
    if all_problems:
        print("\nproblems:")
        for problem in all_problems:
            print(f"  - {problem}")
    return 0 if coverage >= THRESHOLD else 1


if __name__ == "__main__":
    sys.exit(main())
