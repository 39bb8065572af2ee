"""Repository benchmark: run one workload (or all) and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload oneshot-2d1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in its own Python process (``perfbench/worker.py``) with
numpy/scipy threads capped at one and every ``REPRO_*`` variable removed, so
no warm state or shell setting leaks into a run.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Every run's record, keyed by commit,
source and benchmark digests, host fingerprint and seed, is appended to
``perfbench/out/history.jsonl``; a traced run also writes a Chrome trace to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
HISTORY = os.path.join(OUT, "history.jsonl")
#: A run must end within 180 s; the worker gets the rest after start-up.
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def tree_digest(top):
    """SHA-256 over the source files under ``top`` (run output excluded)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d not in ("__pycache__", "out"))
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, top).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def run_worker(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-file", os.path.join(OUT, f"trace-{workload}-seed{seed}.json")]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                             text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s") from None
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with {res.returncode}\n"
                         f"{res.stderr[-2000:]}")
    return json.loads(lines[-1])


def previous_model(record):
    """Modelled ns/pt of an earlier run of the same code, host, workload and seed."""
    if not os.path.exists(HISTORY):
        return None
    key = ("source", "bench", "host", "workload", "seed")
    with open(HISTORY) as fh:
        for line in fh:
            try:
                old = json.loads(line)
            except ValueError:
                continue
            if all(old.get(k) == record[k] for k in key):
                value = old.get("model_exec_ns_per_pt")
                if isinstance(value, float) and math.isfinite(value):
                    return value
    return None


def run_one(workload, seed, seconds, trace, spec, provenance):
    record = run_worker(workload, seed, seconds, trace)
    record.update(provenance)
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(record["metrics"]) != set(expected):
        raise BenchError(f"{workload}: metrics {sorted(record['metrics'])} do not match "
                         f"BENCHMARK.json {sorted(expected)}")
    # The modelled time is deterministic: it must repeat exactly across runs.
    old = previous_model(record)
    if old is not None and old != record["model_exec_ns_per_pt"]:
        record["correct"] = False
        record["errors"].append(f"model_exec_ns_per_pt {record['model_exec_ns_per_pt']!r} "
                                f"differs from an earlier run's {old!r}")
    with open(HISTORY, "a") as fh:
        fh.write(json.dumps(record) + "\n")

    host = record["host"]
    print(f"== {workload} seed={seed} trace={trace}: {record['ops']} ops, "
          f"{record['failed']} failed (fail_frac {record['failed'] / record['attempted']:.4g})")
    print(f"   host: {host['cpu']}, nproc {host['nproc']}, python {host['python']}, "
          f"numpy {host['numpy']}, scipy {host['scipy']}")
    if trace:
        b = record["trace_budget"]
        print(f"   traced ops: layer self {b['self_ns'] / 1e6:.3f} ms + unattributed "
              f"{b['unattributed_ns'] / 1e6:.3f} ms = wall {b['wall_ns'] / 1e6:.3f} ms")
    else:
        print(f"   tail = p{record['tail_pct']:g} of {record['ops']} samples "
              f"({record['beyond_tail']} beyond)")
    for name, value in record["metrics"].items():
        print(f"   {name} = {value:.6g} {expected[name]}")
    if not trace:
        print(f"   model_exec_ns_per_pt = {record['model_exec_ns_per_pt']:.6g} ns/pt "
              "(modelled V100, beside the wall-clock numbers)")
    worst = max((c["rel_err"] for c in record["checks"]), default=float("nan"))
    print(f"   check: {len(record['checks'])} spot checks vs exact sums, "
          f"worst rel err {worst:.3g} (tol {record['checks'][0]['tol']:g})"
          if record["checks"] else "   check: none")
    for err in record["errors"]:
        print(f"   error: {err}")
    return record, expected


def main(argv=None):
    spec = load_spec()
    workloads = tuple(w["name"] for w in spec["workloads"])
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: {ROOT} holds no src/repro package to benchmark", file=sys.stderr)
        return 2
    try:
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        os.makedirs(OUT, exist_ok=True)
        provenance = {"commit": git_commit(), "source": tree_digest(os.path.join(ROOT, "src")),
                      "bench": tree_digest(HERE)}
        names = workloads if args.workload == "all" else (args.workload,)
        results = [run_one(name, args.seed, seconds, args.trace, spec, provenance)
                   for name in names]
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for record, units in results:
        prefix = "" if len(results) == 1 else record["workload"] + "."
        for name, value in record["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps({
        "correct": all(r["correct"] for r, _ in results),
        "attempted": sum(r["attempted"] for r, _ in results),
        "failed": sum(r["failed"] for r, _ in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
