"""Shared helpers for the spark-submit job entrypoints, including the one
Spark session factory that the tests, the smoke scripts and the benchmark
harness also use.

Each job is also importable (``main(spark) -> list[dict]``) so tests can
run it at a tiny scale factor.
"""
from __future__ import annotations

import os
import time

from pyspark.sql import DataFrame, SparkSession


def _driver_memory() -> str:
    """``SPARK_DRIVER_MEM``, or else half of the machine's RAM clamped to
    2-8g."""
    if mem := os.environ.get("SPARK_DRIVER_MEM"):
        return mem
    with open("/proc/meminfo") as f:
        kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    return f"{min(8, max(2, kib // 2**21))}g"


def get_spark(app: str) -> SparkSession:
    """The local Spark session: broadcast joins off, Arrow on.

    Master and driver memory are read when the JVM launches, so they go
    into ``PYSPARK_SUBMIT_ARGS`` — only as a default, so launch args a
    caller has pinned beforehand win. The remaining configs are honoured
    after launch. Automatic broadcast is off so base-relation joins take
    the shuffle path; the engine broadcasts its views explicitly.
    """
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {_driver_memory()} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell",
    )
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "32"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )


def force(results: dict[str, DataFrame]) -> int:
    """Force execution of every result frame; returns total output rows."""
    return sum(df.count() for df in results.values())


def timed(fn) -> tuple[float, object]:
    """(wall seconds, fn()) — the measurement primitive for the jobs."""
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def print_table(title: str, rows: list[dict]) -> None:
    """Render rows as a GitHub-markdown table on stdout.

    Columns are the union of keys over all rows (first-appearance order),
    so heterogeneous rows (e.g. LR vs DT metrics) render completely.
    """
    print(f"\n## {title}\n")
    if not rows:
        print("(no rows)")
        return
    cols: list[str] = []
    for r in rows:
        cols += [c for c in r if c not in cols]
    print("| " + " | ".join(cols) + " |")
    print("|" + "|".join(["---"] * len(cols)) + "|")
    for r in rows:
        print("| " + " | ".join(_fmt(r.get(c, "")) for c in cols) + " |")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)
