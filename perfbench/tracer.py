"""Read-only spans and counters around the entry points of each layer.

The traced run installs these wrappers from outside the program: each one
records a span (label, start, end, parent) or bumps a counter, then returns
exactly what the wrapped callable returned.  Nothing under ``src/`` knows
about them, and a traced run must reproduce the untraced trace digest.

A label is ``<layer>.<what>``; a layer's self time is the time its spans
cover minus the time their child spans (of any layer) cover.

Pool workers are forked while the wrappers are installed, so they inherit
them.  A fork hook clears the inherited state in the child, which then
writes its running totals to ``worker_dir`` whenever its outermost span
closes; :meth:`Tracer.merge_workers` adds those totals to the parent's.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import weakref
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

#: Counters the layer hooks below bump; all start at zero.
COUNTERS = (
    "sched.node_probes",
    "sched.hits",
    "channel.submits",
    "channel.completions",
    "channel.jobs_scanned",
    "engine.events",
    "engine.schedules",
    "engine.cancels",
    "exec.tasks",
    "dag.submits",
    "pool.items",
    "cache.hits",
)

#: High-water marks, merged across processes by ``max``.
PEAKS = ("channel.peak_jobs",)


def _after_fork(ref: "weakref.ref[Tracer]") -> None:
    tracer = ref()
    if tracer is not None and tracer.installed:
        tracer._become_worker()


class Tracer:
    """Spans kept in memory plus per-label and per-counter totals."""

    def __init__(self, worker_dir: str | Path | None = None) -> None:
        self.worker_dir = Path(worker_dir) if worker_dir is not None else None
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        # Per label id: calls, inclusive seconds, self seconds.
        self.calls: list[int] = []
        self.inclusive: list[float] = []
        self.exclusive: list[float] = []
        self.counts: dict[str, int] = {name: 0 for name in COUNTERS}
        self.peaks: dict[str, int] = {name: 0 for name in PEAKS}
        # Open spans: [label id, start, child seconds, span index].
        self.stack: list[list] = []
        self.keep_spans = True
        self.span_label = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.in_worker = False
        self.installed = False
        self.missing: list[str] = []
        self._patches: list[tuple[Any, str, Any, bool]] = []
        os.register_at_fork(
            after_in_child=functools.partial(_after_fork, weakref.ref(self))
        )

    # ------------------------------------------------------------ wrappers
    def label_id(self, label: str) -> int:
        lid = self._label_ids.get(label)
        if lid is None:
            lid = len(self.labels)
            self._label_ids[label] = lid
            self.labels.append(label)
            self.calls.append(0)
            self.inclusive.append(0.0)
            self.exclusive.append(0.0)
        return lid

    def patch(self, path: str, factory: Callable[[Callable], Callable]) -> None:
        """Replace ``module:attr.attr`` with ``factory(original)``.

        A path that no longer resolves is recorded in :attr:`missing`
        (its metrics then read zero) instead of failing the run.
        """
        module_name, _, attr_path = path.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
            *parents, name = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            self.missing.append(path)
            return
        own = name in vars(owner)
        wrapper = factory(original)
        functools.update_wrapper(wrapper, original)
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original, own))
        self.installed = True

    def span(
        self,
        path: str,
        label: str,
        after: Callable[["Tracer", tuple, Any], None] | None = None,
        before: Callable[["Tracer", tuple], None] | None = None,
    ) -> None:
        """Record a ``label`` span around every call of ``path``.

        ``before(tracer, args)`` runs ahead of the call and
        ``after(tracer, args, result)`` once it returned, both outside the
        span's timed interval.
        """
        lid = self.label_id(label)
        tracer = self
        stack = self.stack
        calls, inclusive, exclusive = self.calls, self.inclusive, self.exclusive
        span_label, span_parent = self.span_label, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        def factory(fn):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(tracer, args)
                index = -1
                if tracer.keep_spans:
                    index = len(span_label)
                    span_label.append(lid)
                    span_parent.append(stack[-1][3] if stack else -1)
                    span_start.append(0.0)
                    span_end.append(0.0)
                frame = [lid, 0.0, 0.0, index]
                stack.append(frame)
                frame[1] = start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    duration = end - start
                    calls[lid] += 1
                    inclusive[lid] += duration
                    exclusive[lid] += duration - frame[2]
                    if stack:
                        stack[-1][2] += duration
                    if index >= 0:
                        span_start[index] = start
                        span_end[index] = end
                    if tracer.in_worker and not stack:
                        tracer.flush_worker()
                if after is not None:
                    after(tracer, args, result)
                return result

            return wrapper

        self.patch(path, factory)

    def count(self, path: str, counter: str) -> None:
        """Bump ``counter`` on every call of ``path`` (no span, low cost)."""
        counts = self.counts

        def factory(fn):
            def wrapper(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)

            return wrapper

        self.patch(path, factory)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, name, original, own in reversed(self._patches):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patches.clear()
        self.installed = False

    # ------------------------------------------------------------- results
    def layer_self(self, layer: str) -> float:
        """Seconds spent in ``layer``'s spans outside any child span."""
        prefix = layer + "."
        return sum(
            seconds
            for label, seconds in zip(self.labels, self.exclusive)
            if label.startswith(prefix)
        )

    def layers(self) -> list[str]:
        return sorted({label.split(".", 1)[0] for label in self.labels})

    def total(self, label: str) -> tuple[int, float]:
        """(calls, inclusive seconds) of one label."""
        lid = self._label_ids.get(label)
        if lid is None:
            return 0, 0.0
        return self.calls[lid], self.inclusive[lid]

    def write_spans(self, path: str | Path) -> int:
        """Write every span (label, parent index, start, end) as JSON lines."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps({"labels": self.labels}) + "\n")
            for row in zip(
                self.span_label, self.span_parent, self.span_start, self.span_end
            ):
                handle.write("%d %d %.9f %.9f\n" % row)
        return len(self.span_label)

    # ------------------------------------------------------------- workers
    def _totals(self) -> dict:
        return {
            "labels": {
                label: [self.calls[i], self.inclusive[i], self.exclusive[i]]
                for i, label in enumerate(self.labels)
            },
            "counts": dict(self.counts),
            "peaks": dict(self.peaks),
        }

    def _become_worker(self) -> None:
        # Runs in a freshly forked pool worker: drop what the parent had
        # recorded so far, in place, because the wrappers hold references.
        self.in_worker = True
        self.keep_spans = False
        self.stack.clear()
        for i in range(len(self.labels)):
            self.calls[i] = 0
            self.inclusive[i] = 0.0
            self.exclusive[i] = 0.0
        for name in self.counts:
            self.counts[name] = 0
        for name in self.peaks:
            self.peaks[name] = 0
        for column in (self.span_label, self.span_parent, self.span_start, self.span_end):
            del column[:]

    def flush_worker(self) -> None:
        if self.worker_dir is None:
            return
        path = self.worker_dir / f"worker-{os.getpid()}.json"
        scratch = path.with_suffix(".tmp")
        scratch.write_text(json.dumps(self._totals()), encoding="utf-8")
        os.replace(scratch, path)

    def merge_workers(self) -> int:
        """Add every worker's totals to this tracer; returns the file count."""
        if self.worker_dir is None or not self.worker_dir.is_dir():
            return 0
        files = sorted(self.worker_dir.glob("worker-*.json"))
        for path in files:
            totals = json.loads(path.read_text(encoding="utf-8"))
            for label, (calls, inclusive, exclusive) in totals["labels"].items():
                lid = self.label_id(label)
                self.calls[lid] += calls
                self.inclusive[lid] += inclusive
                self.exclusive[lid] += exclusive
            for name, value in totals["counts"].items():
                self.counts[name] = self.counts.get(name, 0) + value
            for name, value in totals["peaks"].items():
                self.peaks[name] = max(self.peaks.get(name, 0), value)
        return len(files)


# ------------------------------------------------------------ layer hooks


def _select_done(tracer: Tracer, args: tuple, result: Any) -> None:
    if result is not None:
        tracer.counts["sched.hits"] += 1


def _channel_entry(tracer: Tracer, args: tuple) -> None:
    # Channel entry points scan every in-flight job (settle, partition,
    # reschedule); the scan length is read before the call changes it.
    tracer.counts["channel.jobs_scanned"] += args[0].active_jobs


def _channel_exit(tracer: Tracer, args: tuple, result: Any) -> None:
    peak = args[0].peak_jobs
    if peak > tracer.peaks["channel.peak_jobs"]:
        tracer.peaks["channel.peak_jobs"] = peak


def _completions(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["channel.completions"] += len(args[1])


def _executed(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["exec.tasks"] += result.num_task_records


def _pool_items(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["pool.items"] += len(args[1])


def _cache_get(tracer: Tracer, args: tuple, result: Any) -> None:
    if result is not None:
        tracer.counts["cache.hits"] += 1


def _count_events(tracer: Tracer) -> Callable[[Callable], Callable]:
    counts = tracer.counts

    def factory(fn):
        def wrapper(engine, *args, **kwargs):
            before = engine.processed_events
            try:
                return fn(engine, *args, **kwargs)
            finally:
                counts["engine.events"] += engine.processed_events - before

        return wrapper

    return factory


def install_layers(tracer: Tracer) -> Tracer:
    """Wrap the entry points of every layer the benchmark reports on."""
    # repro.runtime.scheduler: every policy's select, and each node probe.
    import repro.runtime.scheduler as scheduler_module

    for name, cls in sorted(vars(scheduler_module).items()):
        if (
            isinstance(cls, type)
            and issubclass(cls, scheduler_module.Scheduler)
            and cls is not scheduler_module.Scheduler
            and "select" in vars(cls)
        ):
            tracer.span(
                f"repro.runtime.scheduler:{name}.select", "sched.select", _select_done
            )
    tracer.count("repro.runtime.scheduler:node_usable", "sched.node_probes")

    # repro.sim.resources: bandwidth channel submit, job start, completion
    # scan; the completion callbacks it fires run executor code, so they
    # are an exec span nested inside the channel span.
    resources = "repro.sim.resources:BandwidthResource"
    tracer.count(f"{resources}.submit", "channel.submits")
    for name, label in (("_start_job", "channel.start"), ("_complete_due", "channel.complete")):
        tracer.span(f"{resources}.{name}", label, _channel_exit, _channel_entry)
    tracer.span(f"{resources}._fire_completions", "exec.callbacks", _completions)

    # repro.sim.engine: events run, events scheduled, events cancelled.
    tracer.patch("repro.sim.engine:SimEngine.run", _count_events(tracer))
    tracer.count("repro.sim.engine:SimEngine.schedule", "engine.schedules")
    tracer.count("repro.sim.engine:ScheduledEvent.cancel", "engine.cancels")

    # repro.perfmodel.costmodel
    tracer.span("repro.perfmodel.costmodel:CostModel.stage_times", "cost.stage_times")
    tracer.span(
        "repro.perfmodel.costmodel:CostModel.stage_times_batch", "cost.stage_times"
    )

    # repro.tracing.trace: every row append.
    for name in (
        "add_stage_row",
        "add_task_row",
        "add_attempt_row",
        "add_stage",
        "add_task",
        "add_attempt",
    ):
        tracer.span(f"repro.tracing.trace:Trace.{name}", "trace.append")

    # repro.runtime.backends.simulated: the whole simulated execution.
    tracer.span(
        "repro.runtime.backends.simulated:SimulatedExecutor.execute",
        "exec.execute",
        _executed,
    )

    # repro.runtime.runtime: task submission and each workflow's DAG build.
    tracer.count("repro.runtime.runtime:Runtime.submit", "dag.submits")
    import repro.algorithms as algorithms

    for name in sorted(algorithms.__all__):
        cls = getattr(algorithms, name)
        if isinstance(cls, type) and "build" in vars(cls):
            tracer.span(f"repro.algorithms:{name}.build", "dag.build")

    # repro.core.experiments.engine
    sweep = "repro.core.experiments.engine"
    tracer.span(f"{sweep}:SweepEngine.__init__", "sweep.init")
    tracer.span(f"{sweep}:SweepEngine.run_cells", "sweep.run_cells")
    tracer.span(f"{sweep}:SweepEngine.close", "sweep.close")
    tracer.span(f"{sweep}:cell_digest", "sweep.digest")

    # repro.core.shard
    tracer.span("repro.core.shard:ShardPool.run_report", "pool.run", _pool_items)
    tracer.span("repro.core.shard:ShardPool._spawn_worker", "pool.spawn")
    tracer.span("repro.core.shard:ShardPool.close", "pool.close")

    # repro.core.experiments.cache
    cache = "repro.core.experiments.cache:SweepCache"
    tracer.span(f"{cache}.get", "cache.get", _cache_get)
    tracer.span(f"{cache}.put", "cache.put")
    tracer.span(f"{cache}.prune", "cache.prune")

    # repro.core.ledger
    tracer.span("repro.core.ledger:ExecutionLedger.append", "ledger.append")
    return tracer
