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
    the shuffle path; the engine hash-joins its views into each pass's one
    partition (and ``baseline.run_nomoo`` broadcasts them).

    ``spark.sql.maxSinglePartitionBytes`` is unbounded so that a join of
    one-partition inputs stays in one partition. Without statistics
    Spark estimates a join's size as the product of its inputs' sizes,
    and above this limit (128 MB by default) it shuffles both sides into
    ``spark.sql.shuffle.partitions`` partitions. From a pass's second view
    join on the estimate passes the limit even over a few hundred rows,
    and the Favorita LR Σ batch built in 41 jobs instead of 17. The
    estimate is unbounded, so a pass whose product passes even 2**63 - 1
    still shuffles: at SF 0.1 the four-view pass over ``sales`` does.

    The codegen cache holds 1000 generated classes instead of Spark's
    default 100. One batch compiles more classes than 100 (113-116 for
    the Favorita LR Σ batch, 50-66 for an Rk-means invocation, counted
    with Spark's ``CodegenMetrics``); with the default cache the LR batch
    evicts its own classes and recompiles all of them on every run, with
    room for 1000 a repeated batch compiles none. The setting is static,
    so it holds only if this call creates the session.
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
        .config("spark.sql.codegen.cache.maxEntries", 1000)
        .config("spark.sql.maxSinglePartitionBytes", 2**63 - 1)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )


def force(results: dict[str, DataFrame]) -> int:
    """Collect every result frame, as the applications do; returns total
    output rows. (``count()`` would not do: Spark prunes every aggregate
    of a ``groupBy(...).agg(...)`` it only counts.)"""
    return sum(len(df.toPandas()) for df in results.values())


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
