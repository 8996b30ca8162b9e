"""Spark-side counters read from outside the engine.

Job, stage and task counts come from the SparkContext's status tracker,
under the job groups that :mod:`instrument` sets; storage comes from the
context's RDD storage info; fact scans come from the executed physical
plans of the collected result frames.
"""
from __future__ import annotations


def drain_listener(sc) -> None:
    """Wait until the status tracker has seen every finished job."""
    sc._jsc.sc().listenerBus().waitUntilEmpty()


def job_counters(sc, group: str) -> dict[str, int]:
    """``spark.``-prefixed counts of a job group's jobs, stages, skipped
    stages, tasks run and failed tasks.

    A stage of a finished job that completed no task was skipped: its
    shuffle output already existed.
    """
    st = sc.statusTracker()
    out = dict(jobs=0, stages=0, stages_skipped=0, tasks=0, failed_tasks=0)
    for jid in st.getJobIdsForGroup(group):
        job = st.getJobInfo(jid)
        out["jobs"] += 1
        for sid in job.stageIds if job else ():
            stage = st.getStageInfo(sid)
            out["stages"] += 1
            if stage is None or stage.numCompletedTasks == 0:
                out["stages_skipped"] += 1
                continue
            out["tasks"] += stage.numCompletedTasks
            out["failed_tasks"] += stage.numFailedTasks
    return {f"spark.{k}": v for k, v in out.items()}


def _children(plan):
    """Physical children of ``plan``, looking through adaptive wrappers
    and query stages. A reused exchange is not descended into: its
    subtree runs once, where it first appears."""
    cls = plan.getClass().getSimpleName()
    if cls == "ReusedExchangeExec":
        return []
    if cls == "AdaptiveSparkPlanExec":
        return [plan.executedPlan()]
    if cls.endswith("QueryStageExec"):
        return [plan.plan()]
    seq = plan.children()
    return [seq.apply(i) for i in range(seq.size())]


def _cache_key(sc, scan) -> int:
    """Identity of the cache an in-memory scan reads. (The cache's RDD id
    is not used: asking for it after ``unpersist`` builds a new RDD.)"""
    return sc._jvm.java.lang.System.identityHashCode(scan.relation().cacheBuilder())


def scan_counts(sc, frames, fact_key: int) -> int:
    """Scans of the cached fact input across the executed plans of
    ``frames``. The plan that filled a cached view is walked once however
    many frames read that view, because it ran once."""
    seen: set[int] = set()
    scans = 0
    stack = [df._jdf.queryExecution().executedPlan() for df in frames]
    while stack:
        plan = stack.pop()
        if plan.getClass().getSimpleName() == "InMemoryTableScanExec":
            key = _cache_key(sc, plan)
            if key == fact_key:
                scans += 1
            elif key not in seen:
                seen.add(key)
                stack.append(plan.relation().cachedPlan())
            continue
        stack.extend(_children(plan))
    return scans


def cache_key(sc, df) -> int:
    """Identity of the in-memory cache that a cached frame reads."""
    stack = [df.select("*")._jdf.queryExecution().executedPlan()]
    while stack:
        plan = stack.pop()
        if plan.getClass().getSimpleName() == "InMemoryTableScanExec":
            return _cache_key(sc, plan)
        stack.extend(_children(plan))
    raise ValueError("frame does not read a cached relation")
