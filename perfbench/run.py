#!/usr/bin/env python3
"""LMFAO application benchmark, measured from outside the engine.

Run from the repository root::

    python3 perfbench/run.py --workload lr_favorita --seed 1 --seconds 10 --trace 0

One driver process, Spark ``local[nproc]``, one closed-loop client: the
next application invocation starts only when the previous one finished.
A run sets up (Spark session, then input generation and caching, three
times), makes one cold invocation, then invokes the application warm
until ``--seconds`` have passed. Every engine batch is checked against the
DuckDB oracle outside the timed region.

``--trace 0`` prints the end-to-end metrics of untraced invocations.
``--trace 1`` traces the warm invocations and prints their per-layer
metrics (see perfbench/METRICS.md).
Human-readable lines come first; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. The environment,
metrics, notes and every span are also written to ``.perfbench/``.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shlex  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_REPS = 3


def driver_memory() -> str:
    """Half of the machine's RAM, clamped to 2-8g (the tier-1 formula)."""
    with open("/proc/meminfo") as f:
        kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    return f"{min(8, max(2, kib // 2**21))}g"


def pin_environment(nproc: int, memory: str) -> None:
    """Launch settings of the Spark driver; they must be set before pyspark
    starts the JVM. Every scratch file stays under ``.perfbench/``."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{nproc}] --driver-memory {memory}",
            "--conf spark.ui.showConsoleProgress=false",
            "--conf " + shlex.quote(f"spark.local.dir={WORK / 'spark-local'}"),
            "--conf "
            + shlex.quote(
                f"spark.driver.extraJavaOptions=-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
            ),
            "pyspark-shell",
        ]
    )


def start_spark():
    """The jobs' own session factory, so the benchmark measures the session
    settings the jobs run with."""
    from _common import get_spark

    spark = get_spark("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait until the JVM it launched has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = gateway.proc
    gateway.shutdown()
    proc.stdin.close()  # the gateway JVM exits at EOF on its stdin
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def cpu_steal_s() -> float:
    """CPU seconds the hypervisor has taken from this machine since boot.
    Steal during a run is the main source of run-to-run spread on a
    shared virtual machine, so each result records it."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


def source_identity() -> dict:
    """Git revision if the checkout has one, and a hash of the sources."""
    rev = "none"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref.removeprefix("ref: ")
        rev = ref_file.read_text().strip() if ref_file.is_file() else ref
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "repro").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return {"git_rev": rev, "src_sha256": h.hexdigest()[:16]}


def set_up(spark, wl, seed):
    """Generate and cache the inputs SETUP_REPS times; keep the last set.
    Returns (db, generate seconds, warm seconds) per repetition."""
    gen, warm = [], []
    db = None
    for _ in range(SETUP_REPS):
        if db is not None:
            for df in db.frames.values():
                df.unpersist(blocking=True)
        t0 = time.perf_counter()
        db = wl.make_db(spark, seed)
        t1 = time.perf_counter()
        for df in db.frames.values():
            df.cache().count()
        gen.append(t1 - t0)
        warm.append(time.perf_counter() - t1)
    return db, gen, warm


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; with fewer than 11 samples, the maximum."""
    s = sorted(values)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def run(spark, wl, args, session_s: float) -> dict:
    import check
    import instrument
    import sparkstats

    sc = spark.sparkContext
    db, gen, warm = set_up(spark, wl, args.seed)
    setup_s = session_s + statistics.median(g + w for g, w in zip(gen, warm))
    input_rdds = {i.id() for i in sc._jsc.sc().getRDDStorageInfo()}
    fact_key = sparkstats.cache_key(sc, db.frames[db.tree.nodes[0]])
    tables = check.OracleTables(db)
    rec = instrument.Recorder(spark, input_rdds)
    sc.setJobGroup("harness", "harness")
    invocations: list[Invocation] = []
    notes: list[str] = []

    def invoke(traced: bool) -> None:
        inv = Invocation(len(invocations), traced)
        invocations.append(inv)
        try:
            with rec.invoke(traced) as root:
                inv.output = wl.invoke(db, args.seed)
            inv.seconds = root.end - root.start
        except Exception as e:  # counted as a failed batch, not fatal
            traceback.print_exc()
            notes.append(f"invocation {rec.invocation} raised {e!r}")
        inv.batches = rec.invocation_batches(rec.invocation)
        for b in inv.batches:
            perturb = args.perturb and inv.index == 0 and b.index == 0
            b.failure = check.check_batch(b, tables, perturb)
            if b.failure:
                notes.append(f"invocation {b.invocation} batch {b.index}: {b.failure}")
        if traced:
            sparkstats.drain_listener(sc)
            for b in inv.batches:
                b.counts = {
                    **{f"planner.{k}": b.plan_stats[k] for k in PLAN_COUNTS},
                    "executor.build_jobs": sparkstats.job_counters(sc, b.group("build"))["spark.jobs"],
                    "executor.fact_scans": sparkstats.scan_counts(sc, b.results.values(), fact_key),
                    **sparkstats.job_counters(sc, b.group("collect")),
                    "cache.views_cached": b.views_cached,
                }
        for b in inv.batches:
            b.results = {}  # release the Spark frames

    with rec.installed():
        invoke(traced=False)  # the cold invocation
        loop_start = time.perf_counter()
        while True:
            invoke(traced=bool(args.trace))
            if time.perf_counter() - loop_start >= args.seconds:
                break

    attempted = sum(max(1, len(i.batches)) for i in invocations)
    # An invocation that raised outside any failed batch counts once.
    failed = sum(
        sum(b.failure is not None for b in i.batches) or (i.seconds is None)
        for i in invocations
    )
    if args.trace:
        metrics = per_layer(invocations, rec, gen, warm, notes)
    else:
        metrics = end_to_end(invocations, setup_s, attempted, failed, notes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "setup": {"session_s": session_s, "generate_s": gen, "warm_s": warm},
        "spans": [vars(s) for s in rec.spans],
    }


@dataclass
class Invocation:
    index: int
    traced: bool
    seconds: float | None = None  # None: the invocation raised
    output: object = None
    batches: list = field(default_factory=list)


def end_to_end(invocations, setup_s, attempted, failed, notes) -> dict:
    warm = [i for i in invocations[1:] if i.seconds is not None]
    batches = [b for i in warm for b in i.batches if b.failure is None]
    batch_s = [b.seconds for b in batches]
    tail_s, tail_pct = tail(batch_s)
    notes.append(
        f"batch_s.tail is p{tail_pct:.1f} of {len(batch_s)} warm batches"
        + (" (fewer than 11: their maximum)" if len(batch_s) < 11 else "")
    )
    values = sum(len(b.pandas[q.name]) * len(q.aggs) for b in batches for q in b.queries)
    return {
        "setup_s": (setup_s, "s"),
        "first_app_s": (invocations[0].seconds, "s"),
        "app_s.p50": (statistics.median(i.seconds for i in warm), "s"),
        "batch_s.p50": (statistics.median(batch_s), "s"),
        "batch_s.tail": (tail_s, "s"),
        "agg_values_per_s": (values / sum(batch_s), "1/s"),
        "peak_cache_mb": (max(b.cache_mb for b in batches), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "1"),
    }


PLAN_COUNTS = ("view_groups", "merged_views", "output_views", "view_columns", "roots")

def per_layer(invocations, rec, gen, warm, notes) -> dict:
    import instrument
    from workloads import split_flips

    traced = [i for i in invocations if i.traced and i.seconds is not None]
    spans = rec.spans
    self_s = instrument.self_times(spans)
    out = {
        "datasets.generate_s": (statistics.median(gen), "s"),
        "datasets.warm_s": (statistics.median(warm), "s"),
    }
    for metric, name in instrument.LAYER_METRICS.items():
        per_inv = [
            sum(self_s[s.span_id] for s in spans if s.invocation == i.index and s.name == name)
            for i in traced
        ]
        out[metric] = (statistics.median(per_inv), "s")
    out["trace.app_s"] = (statistics.median(i.seconds for i in traced), "s")
    out["trace.overhead_s"] = (statistics.median(rec.harness_s[i.index] for i in traced), "s")

    batches = [b for i in traced for b in i.batches]
    for metric in batches[0].counts:
        out[metric] = (statistics.mean(b.counts[metric] for b in batches), "count")
        by_index: dict[int, set] = {}
        for b in batches:
            by_index.setdefault(b.index, set()).add(b.counts[metric])
        for index, seen in sorted(by_index.items()):
            if len(seen) > 1:
                notes.append(f"{metric} of batch {index} varies: {min(seen)}..{max(seen)}")
    jobs = sum(b.counts["spark.jobs"] for b in batches)
    views = sum(b.counts["planner.output_views"] for b in batches)
    out["spark.jobs_per_output_view"] = (jobs / views, "jobs/view")
    for i in traced:
        jobs = sum(b.counts["spark.jobs"] for b in i.batches)
        notes.append(f"traced invocation {i.index}: {len(i.batches)} batches, {jobs} Spark jobs")
    out["ml.cart_split_flips"] = (split_flips([i.output for i in invocations]), "count")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--perturb", action="store_true",
        help="corrupt one collected result before the oracle check (self-test)",
    )
    args = ap.parse_args(argv)
    for needed in (ROOT / "src" / "repro", ROOT / "jobs" / "jobs_features.py"):
        if not needed.exists():
            print(f"perfbench: {needed} not found; run from a repository checkout",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "jobs")]
    from workloads import SF, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    nproc = os.cpu_count() or 1
    memory = driver_memory()
    pin_environment(nproc, memory)
    steal0 = cpu_steal_s()
    spark = start_spark()
    session_s = time.perf_counter() - _T0
    conf = {
        k: spark.conf.get(k)
        for k in (
            "spark.sql.shuffle.partitions",
            "spark.sql.execution.arrow.pyspark.enabled",
            "spark.sql.autoBroadcastJoinThreshold",
        )
    }
    try:
        result = run(spark, wl, args, session_s)
    finally:
        stop_spark(spark)

    import pyspark

    env = {
        "workload": wl.name,
        "sf": SF,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "master": f"local[{nproc}]",
        "driver_memory": memory,
        **conf,
        "nproc": nproc,
        "spark": pyspark.__version__,
        "python": platform.python_version(),
        **source_identity(),
        "cpu_steal_s": round(cpu_steal_s() - steal0, 2),
    }
    WORK.mkdir(exist_ok=True)
    out_file = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"env": env, **result}, indent=1, default=str))
    print("env " + json.dumps(env))
    for note in result["notes"]:
        print("note " + note)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"spans and details: {out_file.relative_to(ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
