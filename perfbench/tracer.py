"""Spans recorded from the benchmark's side of each layer boundary.

The traced run wraps, for its duration only, the public functions the
applications call into (``plan_batch``, ``Engine.run``, the ``toPandas``
of every frame ``Engine.run`` returns, ``Database.with_filters``,
``assemble_sigma``, ``bgd``, ``best_split``, ``best_of``,
``extend_with_assignments``). Nothing inside the engine is touched.

Every span gets its own Spark job group, so ``statusTracker`` attributes
each Spark job (and its stages and tasks) to the innermost span that was
open when the job ran. A *batch* span covers one engine batch, from the
``Engine.run`` call until the last of its frames is collected.
"""
from __future__ import annotations

import contextlib
import importlib
import statistics
import time

from session import storage_mb

MODEL_SPANS = ("bgd", "best_split", "best_of")
PREPARE_SPANS = ("assemble_sigma", "with_filters", "extend_with_assignments")


class Tracer:
    """In-memory spans (name, start, end, parent, run id, job group)."""

    def __init__(self, spark):
        self.sc = spark.sparkContext
        self.spark = spark
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def begin(self, name: str, run: str) -> int:
        sid = len(self.spans)
        group = f"{run}.{sid}"
        self.sc.setJobGroup(group, name)
        self.spans.append(
            {
                "id": sid,
                "name": name,
                "run": run,
                "parent": self._stack[-1] if self._stack else None,
                "group": group,
                "start": time.perf_counter(),
                "end": None,
            }
        )
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        """Close ``sid`` and any span opened inside it that is still open."""
        if sid not in self._stack:
            return
        now = time.perf_counter()
        while True:
            top = self._stack.pop()
            self.spans[top]["end"] = now
            if top == sid:
                break
        parent = self.spans[self._stack[-1]]["group"] if self._stack else "idle"
        self.sc.setJobGroup(parent, "")

    @contextlib.contextmanager
    def span(self, name: str, run: str):
        sid = self.begin(name, run)
        try:
            yield self.spans[sid]
        finally:
            self.end(sid)

    def count_spark(self, run: str) -> None:
        """Attach Spark job, stage and task counts to every span of ``run``.
        Waits for the listener bus first, so every job is registered."""
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        st = self.sc.statusTracker()
        for sp in self.spans:
            if sp["run"] != run:
                continue
            jobs = st.getJobIdsForGroup(sp["group"])
            stages = tasks = failed = 0
            for j in jobs:
                for s in st.getJobInfo(j).stageIds:
                    info = st.getStageInfo(s)
                    if info is None or info.numCompletedTasks + info.numFailedTasks == 0:
                        continue  # skipped: its shuffle output was reused
                    stages += 1
                    tasks += info.numCompletedTasks
                    failed += info.numFailedTasks
            sp.update(spark_jobs=len(jobs), spark_stages=stages,
                      spark_tasks=tasks, spark_failed_tasks=failed)


@contextlib.contextmanager
def instrument(tracer: Tracer, run: str, base_mb: float):
    """Wrap the applications' layer entry points with spans for ``run``;
    restore the originals on exit."""
    database, executor, decision_tree, linreg, rkmeans = (
        importlib.import_module(f"repro.{m}")
        for m in ("core.database", "core.executor", "ml.decision_tree", "ml.linreg", "ml.rkmeans")
    )

    def traced(name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            with tracer.span(name, run) as sp:
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(sp, out)
            return out

        return wrapper

    def plan_stats(sp, plan):
        sp["plan"] = plan.stats()

    orig_run = executor.Engine.run

    def engine_run(self, queries, roots=None):
        batch = tracer.begin("batch", run)
        tracer.spans[batch]["filters"] = len(self.db.filters)
        with tracer.span("Engine.run", run):
            frames = orig_run(self, queries, roots)
        pending = set(frames)

        def collector(name, df):
            orig_to_pandas = df.toPandas

            def to_pandas():
                with tracer.span("toPandas", run) as sp:
                    pdf = orig_to_pandas()
                sp["rows"] = len(pdf)
                pending.discard(name)
                if not pending:
                    tracer.end(batch)
                    tracer.spans[batch]["storage_mb"] = storage_mb(tracer.spark) - base_mb
                return pdf

            return to_pandas

        for name, df in frames.items():
            df.toPandas = collector(name, df)
        return frames

    patches = [
        (executor, "plan_batch", traced("plan_batch", executor.plan_batch, plan_stats)),
        (executor.Engine, "run", engine_run),
        (database.Database, "with_filters",
         traced("with_filters", database.Database.with_filters)),
        (linreg, "assemble_sigma", traced("assemble_sigma", linreg.assemble_sigma)),
        (linreg, "bgd", traced("bgd", linreg.bgd)),
        (decision_tree, "best_split", traced("best_split", decision_tree.best_split)),
        (rkmeans, "best_of", traced("best_of", rkmeans.best_of)),
        (rkmeans, "extend_with_assignments",
         traced("extend_with_assignments", rkmeans.extend_with_assignments)),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, fn in patches:
        setattr(owner, attr, fn)
    try:
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def duration(sp: dict) -> float:
    return sp["end"] - sp["start"]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run, from its spans."""

    def named(*names):
        return [sp for sp in spans if sp["name"] in names]

    children: dict[int, float] = {}
    for sp in spans:
        if sp["parent"] is not None:
            children[sp["parent"]] = children.get(sp["parent"], 0.0) + duration(sp)

    def self_s(sp):
        return duration(sp) - children.get(sp["id"], 0.0)

    plans = [sp["plan"] for sp in named("plan_batch")]
    batches = named("batch")
    frames = named("toPandas")
    view_groups = sum(p["view_groups"] for p in plans)
    output_views = sum(p["output_views"] for p in plans)
    jobs = sum(sp["spark_jobs"] for sp in spans)
    batch_s = [duration(sp) for sp in batches]
    return {
        "planner.s": sum(duration(sp) for sp in named("plan_batch")),
        "planner.merged_views": sum(p["merged_views"] for p in plans),
        "planner.view_groups": view_groups,
        "planner.output_views": output_views,
        "planner.view_columns": sum(p["view_columns"] for p in plans),
        "executor.run_s": sum(self_s(sp) for sp in named("Engine.run")),
        "executor.collect_s": sum(duration(sp) for sp in frames),
        "executor.collect_frames": len(frames),
        "executor.result_rows": sum(sp["rows"] for sp in frames),
        "executor.frames_per_output_view": len(frames) / output_views,
        "executor.storage_mb": max(sp.get("storage_mb", 0.0) for sp in batches),
        "spark.jobs": jobs,
        "spark.stages": sum(sp["spark_stages"] for sp in spans),
        "spark.tasks": sum(sp["spark_tasks"] for sp in spans),
        "spark.failed_tasks": sum(sp["spark_failed_tasks"] for sp in spans),
        "spark.jobs_per_view_group": jobs / view_groups,
        "database.filters": sum(sp["filters"] for sp in batches),
        "ml.batches": len(batches),
        "batch.s_p50": statistics.median(batch_s),
        "batch.s_max": max(batch_s),
        "baseline.lmfao_s": batch_s[0],
        "ml.model_s": sum(self_s(sp) for sp in named(*MODEL_SPANS)),
        "ml.prepare_s": sum(self_s(sp) for sp in named(*PREPARE_SPANS)),
    }
