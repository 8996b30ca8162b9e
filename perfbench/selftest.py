#!/usr/bin/env python3
"""Self-test of the benchmark harness, at the benchmark's tiny scale.

Run from the repository root (takes about ten minutes)::

    python3 perfbench/selftest.py

For every workload, one run with ``--trace 0`` and one with ``--trace 1``
must exit 0 and print each metric that BENCHMARK.json names, with its
unit, in a last line of the agreed shape. The traced run's per-layer self
times plus the uncovered remainder must add up to the traced ``app_s``.
A run with ``--perturb`` must count the corrupted batch as failed. A copy
of the benchmark without the rest of the repository must exit non-zero
without printing a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(p: subprocess.CompletedProcess) -> dict:
    if p.returncode != 0:
        raise AssertionError(f"exit {p.returncode}: {p.stderr[-3000:]}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return result


def check_metrics(result: dict, specs: list[dict], stdout: str) -> None:
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in specs}, sorted(metrics)
    lines = stdout.splitlines()
    for m in specs:
        assert metrics[m["name"]]["unit"] == m["unit"], m
        assert any(
            line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
            for line in lines
        ), m


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "jobs"))
    from instrument import LAYER_METRICS
    from workloads import WORKLOADS

    for name in WORKLOADS:
        p = bench("--workload", name, "--trace", "0")
        r = result_of(p)
        check_metrics(r, spec["end_to_end"], p.stdout)
        assert r["correct"] and r["failed"] == 0, (name, p.stdout)

        p = bench("--workload", name, "--trace", "1")
        r = result_of(p)
        check_metrics(r, spec["per_layer"], p.stdout)
        m = {k: v["value"] for k, v in r["metrics"].items()}
        covered = sum(m[k] for k in LAYER_METRICS)
        assert abs(covered - m["trace.app_s"]) < 1e-6, (name, covered, m["trace.app_s"])
        print(f"ok {name}: spark.jobs per batch {m['spark.jobs']:g}, "
              f"executor.build_jobs {m['executor.build_jobs']:g}")

    r = result_of(bench("--workload", "rkmeans_favorita", "--trace", "0", "--perturb"))
    assert not r["correct"] and r["failed"] >= 1, r
    assert r["metrics"]["ok_ratio"]["value"] < 1, r
    print(f"ok perturbed: {r['failed']} of {r['attempted']} batches failed")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    p = bench("--workload", "lr_favorita", cwd=bare)
    shutil.rmtree(bare)
    assert p.returncode != 0 and not p.stdout.strip(), p.stdout
    print("ok bare copy exits", p.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
