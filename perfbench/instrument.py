"""Span recorder and the wrappers that measure the engine from outside.

Nothing in ``repro`` is edited. The benchmark replaces public functions at
the names where the application code looks them up, records a span around
each call, and puts the originals back when the context manager exits.

Two levels:

* **batch** (always on): ``Engine.run``, ``DataFrame.toPandas`` on engine
  results and ``Engine.unpersist_all``. These give the batch boundaries,
  the collected pandas results for the oracle check, and the storage held
  by cached views. Untraced invocations use only these.
* **traced** (one invocation at a time): additionally ``plan_batch`` as the
  executor looks it up, the ``repro.ml`` helpers that build inputs
  (``Database.with_filters``, ``extend_with_assignments``) and post-process
  results (``assemble_sigma``, ``bgd``, ``best_split``, ``best_of``), plus
  one Spark job group per ``(invocation, batch, phase)`` so that Spark's
  status tracker can attribute every job.
"""
from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql.classic.dataframe import DataFrame

from repro.core.database import Database
from repro.core.executor import Engine

# import_module, because ``repro.ml`` re-exports a function named rkmeans
# that shadows the submodule of that name.
executor = importlib.import_module("repro.core.executor")
decision_tree = importlib.import_module("repro.ml.decision_tree")
linreg = importlib.import_module("repro.ml.linreg")
rkmeans = importlib.import_module("repro.ml.rkmeans")

# Span names.
APP = "app"
RUN = "executor.run"
PLAN = "planner.plan_batch"
COLLECT = "collect"
UNPERSIST = "executor.unpersist"
ML_INPUTS = "ml.inputs"
ML_POST = "ml.post"

# Per-layer time metric -> the span whose self time, summed over one
# traced invocation, it reports. Together they cover the whole invocation.
LAYER_METRICS = {
    "planner.plan_s": PLAN,
    "executor.build_s": RUN,
    "collect.s": COLLECT,
    "executor.unpersist_s": UNPERSIST,
    "ml.inputs_s": ML_INPUTS,
    "ml.post_s": ML_POST,
    "trace.uncovered_s": APP,
}

# (owner, attribute, span name) wrapped only in traced invocations.
_TRACED_TARGETS = (
    (executor, "plan_batch", PLAN),
    (Database, "with_filters", ML_INPUTS),
    (rkmeans, "extend_with_assignments", ML_INPUTS),
    (linreg, "assemble_sigma", ML_POST),
    (linreg, "bgd", ML_POST),
    (decision_tree, "best_split", ML_POST),
    (rkmeans, "best_of", ML_POST),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent_id: int | None
    invocation: int


@dataclass
class Batch:
    """One ``Engine.run`` call and what became of its results."""

    invocation: int
    index: int
    engine: Engine
    queries: list
    start: float = 0.0
    results: dict = field(default_factory=dict)  # query name -> Spark frame
    pandas: dict[str, pd.DataFrame] = field(default_factory=dict)
    collect_end: float | None = None
    unpersist_s: float = 0.0
    cache_mb: float = 0.0
    views_cached: int = 0
    plan_stats: dict[str, int] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)  # traced only
    error: str | None = None  # Engine.run raised
    failure: str | None = None  # why the oracle check failed, if it did

    @property
    def seconds(self) -> float:
        """``Engine.run`` until every result is in pandas, plus unpersist."""
        return self.collect_end - self.start + self.unpersist_s

    def group(self, phase: str) -> str:
        return f"i{self.invocation}-b{self.index}-{phase}"


class Recorder:
    """Holds every span and batch of one benchmark run, in memory."""

    def __init__(self, spark, input_rdds: set[int]):
        self.sc = spark.sparkContext
        self.input_rdds = input_rdds
        self.spans: list[Span] = []
        self.batches: list[Batch] = []
        self.invocation = -1
        self.traced = False
        self._stack: list[Span] = []
        self._owner: dict[int, tuple[Batch, str]] = {}
        self.harness_s: dict[int, float] = {}  # invocation -> bookkeeping seconds

    # -- spans ---------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].span_id if self._stack else None
        s = Span(name, time.perf_counter(), 0.0, len(self.spans), parent, self.invocation)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def harness(self):
        """Time spent in the benchmark's own bookkeeping inside an
        invocation, charged to that invocation."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.harness_s[self.invocation] += time.perf_counter() - t0

    def _group(self, group: str) -> None:
        if self.traced:
            self.sc.setJobGroup(group, group)

    @contextmanager
    def invoke(self, traced: bool):
        """One application invocation: the root span of its layer spans."""
        self.invocation += 1
        self.harness_s[self.invocation] = 0.0
        self.traced = traced
        try:
            with self.span(APP) as root:
                with self.harness():
                    self._group(f"i{self.invocation}-app")
                yield root
        finally:
            self._owner.clear()
            self.traced = False
            self.sc.setJobGroup("harness", "harness")

    def invocation_batches(self, invocation: int) -> list[Batch]:
        return [b for b in self.batches if b.invocation == invocation]

    # -- wrappers ------------------------------------------------------
    def _run(self, orig, eng, queries, roots=None):
        with self.harness():
            batch = Batch(
                self.invocation,
                len(self.invocation_batches(self.invocation)),
                eng,
                list(queries),
            )
            self.batches.append(batch)
            self._group(batch.group("build"))
        try:
            with self.span(RUN) as s:
                batch.start = s.start
                out = orig(eng, queries, roots)
        except Exception as e:
            batch.error = f"Engine.run raised {e!r}"
            raise
        with self.harness():
            batch.results = out
            batch.collect_end = time.perf_counter()
            batch.plan_stats = eng.plan.stats()
            for name, df in out.items():
                self._owner[id(df)] = (batch, name)
            self._group(batch.group("collect"))
        return out

    def _to_pandas(self, orig, df):
        owner = self._owner.get(id(df))
        if owner is None:
            return orig(df)
        batch, name = owner
        with self.span(COLLECT) as s:
            pdf = orig(df)
        batch.pandas[name] = pdf
        batch.collect_end = s.end
        return pdf

    def _unpersist_all(self, orig, eng):
        batch = next(
            (b for b in reversed(self.batches) if b.engine is eng and not b.unpersist_s),
            None,
        )
        if batch is None:
            return orig(eng)
        with self.harness():
            batch.cache_mb, batch.views_cached = self.view_storage()
            self._group(batch.group("unpersist"))
        with self.span(UNPERSIST) as s:
            orig(eng)
        batch.unpersist_s = s.end - s.start
        with self.harness():
            self._group(f"i{self.invocation}-app")

    def view_storage(self) -> tuple[float, int]:
        """(MB, RDD count) held in Spark storage by cached views: every
        cached RDD except the benchmark's cached inputs."""
        infos = [
            i for i in self.sc._jsc.sc().getRDDStorageInfo()
            if i.id() not in self.input_rdds
        ]
        return sum(i.memSize() + i.diskSize() for i in infos) / 2**20, len(infos)

    def _span_wrapper(self, orig, name):
        @functools.wraps(orig)
        def wrapped(*args, **kwargs):
            if not self.traced:
                return orig(*args, **kwargs)
            with self.span(name):
                return orig(*args, **kwargs)

        return wrapped

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the originals on exit."""
        def method(orig, handler):
            @functools.wraps(orig)
            def wrapped(obj, *args, **kwargs):
                return handler(orig, obj, *args, **kwargs)

            return wrapped

        patches = [
            (Engine, "run", method(Engine.run, self._run)),
            (Engine, "unpersist_all", method(Engine.unpersist_all, self._unpersist_all)),
            (DataFrame, "toPandas", method(DataFrame.toPandas, self._to_pandas)),
        ] + [
            (owner, attr, self._span_wrapper(getattr(owner, attr), name))
            for owner, attr, name in _TRACED_TARGETS
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, fn in patches:
                setattr(owner, attr, fn)
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Spans come from one thread and nest strictly, so the children of a
    span never overlap and their durations simply add up.
    """
    out = {s.span_id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent_id is not None:
            out[s.parent_id] -= s.end - s.start
    return out
