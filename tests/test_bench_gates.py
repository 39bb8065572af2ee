"""The benchmark gate helper: ``benchmarks.common.record`` and each bench's
``GATES`` table, checked against the committed ``BENCH_throughput.json``
without running any benchmark."""

import glob
import importlib
import json
import os
import re
import shutil
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from benchmarks import common  # noqa: E402

COMMITTED_JSON = os.path.join(REPO_ROOT, "BENCH_throughput.json")


def _gated_benches():
    """Name -> module of every ``benchmarks/bench_*.py`` declaring GATES."""
    benches = {}
    for path in sorted(glob.glob(os.path.join(REPO_ROOT, "benchmarks", "bench_*.py"))):
        module = importlib.import_module(
            "benchmarks." + os.path.splitext(os.path.basename(path))[0])
        if hasattr(module, "GATES"):
            benches[module.__name__.split("bench_", 1)[1]] = module
    return benches


GATED = _gated_benches()


@pytest.fixture
def json_path(tmp_path, monkeypatch):
    path = tmp_path / "BENCH_throughput.json"
    monkeypatch.setattr(common, "JSON_PATH", str(path))
    return path


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def test_record_keeps_other_sections_and_keys(json_path):
    json_path.write_text(json.dumps({"top": 1, "a": {"v": 1}, "b": {"v": 2}}))
    common.record("a", {"w": 3}, [])
    assert _load(json_path) == {"top": 1, "a": {"w": 3}, "b": {"v": 2}}
    common.record(None, {"top": 4, "new": 5}, [])
    assert _load(json_path) == {"top": 4, "new": 5, "a": {"w": 3}, "b": {"v": 2}}


def test_top_level_write_keeps_every_section(json_path):
    shutil.copy(COMMITTED_JSON, json_path)
    before = _load(json_path)
    sections = [m.SECTION for m in GATED.values() if m.SECTION is not None]
    assert len(sections) == 8
    throughput = GATED["throughput"]
    summary = {k: v for k, v in before.items() if k not in sections}
    common.record(throughput.SECTION, summary, throughput.GATES)
    after = _load(json_path)
    for section in sections:
        assert after[section] == before[section]


@pytest.mark.parametrize("op, bound, past", [
    (">=", 2.0, 2.0 - 1e-9),
    ("<=", 1.05, 1.05 + 1e-9),
    ("==", 0, 1),
])
def test_each_op_passes_at_bound_and_fails_past_it(json_path, op, bound, past):
    common.record("s", {"v": bound}, [("row", lambda s: s["v"], op, bound)])
    with pytest.raises(SystemExit):
        common.record("s", {"v": past}, [("row", lambda s: s["v"], op, bound)])


def test_failure_names_every_failed_row_and_still_writes(json_path, capsys):
    gates = [
        ("fine row", lambda s: s["a"], ">=", 1),
        ("low row", lambda s: s["a"], ">=", 5),
        ("flag row", lambda s: s["flag"], "==", True),
    ]
    with pytest.raises(SystemExit) as excinfo:
        common.record("s", {"a": 2, "flag": False}, gates)
    message = excinfo.value.code
    assert message not in (0, None)
    assert "low row" in message and "flag row" in message
    assert "fine row" not in message
    assert _load(json_path) == {"s": {"a": 2, "flag": False}}
    out = capsys.readouterr().out
    assert "gate fine row: 2 >= 1 -> pass" in out
    assert "gate low row: 2 >= 5 -> FAIL" in out


@pytest.mark.parametrize("name", sorted(GATED))
def test_gates_pass_on_committed_json(json_path, name):
    module = GATED[name]
    shutil.copy(COMMITTED_JSON, json_path)
    data = _load(json_path)
    summary = data if module.SECTION is None else data[module.SECTION]
    common.record(module.SECTION, summary, module.GATES)
    assert _load(json_path) == data


def test_ci_runs_every_gated_bench():
    with open(os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")) as fh:
        loop = re.search(r"for bench in (.*?); do", fh.read(), re.DOTALL)
    assert loop is not None
    assert sorted(loop.group(1).replace("\\", " ").split()) == sorted(GATED)
