"""The benchmark's workloads: fixed paper configurations run end to end.

Three workloads, each taken from a figure of the paper:

* ``locality_full`` — the Figure 10 cell Matmul 8x8 on ``matmul_8gb``
  (960 tasks), CPUs, local disk, ``data_locality`` scheduling, as one
  in-process ``Runtime.run()``;
* ``fifo_contended`` — the Figure 10 cell Matmul 16x16 on ``matmul_8gb``
  (7,936 tasks) under ``generation_order`` on shared disk;
* ``paper_sweep`` — the cells of Figures 1, 8, 9a, 9b and 12 through
  the public figure runners on one ``SweepEngine``: a cold pass against a
  fresh cache directory, then warm passes against the filled cache.

No workload draws random input: the paper cells are fixed, so the seed the
benchmark is given is recorded and changes nothing.  Every operation's
output is checked against the values recorded in ``expected.json``.

Nothing here imports ``repro`` at module import time, so the set-up probe
can time the import itself.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, TypeVar

from tracer import Tracer, install_layers

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
#: Scratch space inside the checkout: cache directories, spans, probes.
WORK_ROOT = HERE.parent / ".perfbench-work"

#: Figure runners of the ``paper_sweep`` workload, in CLI order.  Figure 7
#: is left out: four Matmul 16x16 cells (one of them ``fifo_contended``'s)
#: take 78% of its cell time, and which worker they land on decided the
#: pass's time.
SWEEP_FIGURES = ("fig1", "fig8", "fig9a", "fig9b", "fig12")

#: Set-up probes per untraced run (fresh processes; the median is reported).
SETUP_PROBES = 7

#: Host seconds of warm lookups per single run, and of warm passes after
#: each cold pass of the sweep.  One lookup takes well under a millisecond
#: and its time wanders with the host from one tenth of a second to the
#: next, so the samples are spread over half a second.
WARM_SECONDS = 0.5

#: Seconds ``calibration_s`` takes on the reference host (2-core Xeon
#: container, CPython 3.11).  Host-scaled timings are multiplied by this
#: over the calibration seconds measured around them.
REFERENCE_CALIBRATION_S = 0.05
#: The calibration loop runs this many chunks of ``CHUNK_ITERATIONS``.
CALIBRATION_CHUNKS = 5
CHUNK_ITERATIONS = 8_000

T = TypeVar("T")


def workers() -> int:
    """Pool workers for the sweep workload: one per available core."""
    return os.cpu_count() or 1


def load_expected() -> dict[str, dict]:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


class Outcome:
    """Counts operations and the ones whose output check failed or raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def error(self, what: str, error: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{what}: {type(error).__name__}: {error}")

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


@dataclass
class Samples:
    """Timings of one run, by metric name."""

    values: dict[str, list[float]] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def median(self, name: str) -> float:
        return statistics.median(self.values[name])

    def count(self, name: str) -> int:
        return len(self.values.get(name, ()))


def repeat_for(seconds: float, op: Callable[[], None]) -> None:
    """Call ``op`` repeatedly for about ``seconds``.

    Calls it at least once, then stops before a call that the median call
    so far predicts would end past the budget.
    """
    durations: list[float] = []
    started = perf_counter()
    while True:
        before = perf_counter()
        op()
        durations.append(perf_counter() - before)
        if perf_counter() - started + statistics.median(durations) > seconds:
            return


def calibration_s() -> float:
    """Seconds a fixed pure-Python loop takes now, on the current core.

    The loop does the kind of work the simulator does (heap pushes and
    pops, dict stores, attribute updates, calls) and never changes with
    the program, so its time measures only how fast the host runs
    interpreter work at the moment.  It runs in chunks, and the median
    chunk stands for all of them, so that an interruption of a few
    milliseconds does not read as a slow host.
    """

    class Job:
        __slots__ = ("key", "left")

        def __init__(self, key: int, left: int) -> None:
            self.key = key
            self.left = left

    heap: list = []
    table: dict = {}
    x = 12345
    chunks = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for chunk in range(CALIBRATION_CHUNKS):
            started = perf_counter()
            for i in range(chunk * CHUNK_ITERATIONS, (chunk + 1) * CHUNK_ITERATIONS):
                x = (x * 1103515245 + 12345) & 0x7FFFFFFF
                job = Job(i, x % 997)
                table[i % 4096] = job
                heapq.heappush(heap, (x % 10007, i, job))
                if len(heap) > 512:
                    heapq.heappop(heap)[2].left -= 1
            chunks.append(perf_counter() - started)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(chunks) * CALIBRATION_CHUNKS


def calibration_all_cores() -> float:
    """Mean of ``calibration_s`` run on every core this process may use, at once.

    A sweep keeps every core busy with its pool, and cores working side by
    side run slower than one core alone, so its host speed is measured the
    same way.  The loops on the other cores run in forked children.
    """
    cores = sorted(os.sched_getaffinity(0))
    children = []
    for core in cores[1:]:
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read)
            status = 1
            try:
                os.sched_setaffinity(0, {core})
                os.write(write, repr(calibration_s()).encode())
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        children.append((pid, read))
    times = []
    try:
        os.sched_setaffinity(0, {cores[0]})
        times.append(calibration_s())
    finally:
        os.sched_setaffinity(0, cores)
        for pid, read in children:
            with os.fdopen(read) as pipe:
                reported = pipe.read()
            _, status = os.waitpid(pid, 0)
            if status != 0:
                raise RuntimeError(f"calibration on another core exited with {status}")
            times.append(float(reported))
    return statistics.mean(times)


def calibrated(operation: Callable[[], T]) -> tuple[T, float, float]:
    """Time ``operation`` between two calibration loops on the same core.

    Returns (its result, its wall seconds, the calibration seconds around
    it).  The host's speed drifts by a quarter and more between minutes,
    but hardly within a second, so the loops timed just before and after
    an operation of a few seconds tell how fast the host ran it.
    """
    before = calibration_s()
    started = perf_counter()
    value = operation()
    wall = perf_counter() - started
    return value, wall, (before + calibration_s()) / 2


def host_scaled(wall: float, calibration: float) -> float:
    """``wall`` as it would read on the reference host."""
    return wall * REFERENCE_CALIBRATION_S / calibration


def probe_setup(workload: str) -> list[tuple[float, float]]:
    """Time the workload's set-up in fresh interpreters, one per probe.

    Each probe runs pinned to one core, the cores taken in turn, and
    returns (set-up seconds, calibration seconds around it).
    """
    cores = sorted(os.sched_getaffinity(0))
    probes = []
    try:
        for index in range(SETUP_PROBES):
            os.sched_setaffinity(0, {cores[index % len(cores)]})
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--probe-setup", workload],
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            seconds, calibration = done.stdout.strip().splitlines()[-1].split()
            probes.append((float(seconds), float(calibration)))
    finally:
        os.sched_setaffinity(0, cores)
    return probes


def _cache_files(root: Path) -> list[Path]:
    return sorted(root.glob("*/*.json")) if root.is_dir() else []


def cell_walls(root: Path) -> list[float]:
    """Host seconds of every cell recorded in a cache directory."""
    return [
        float(json.loads(path.read_text(encoding="utf-8"))["wall_seconds"])
        for path in _cache_files(root)
    ]


def percentile(values: list[float], share: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------- single run


@dataclass(frozen=True)
class SingleRun:
    """One Matmul cell on ``matmul_8gb`` executed as one ``Runtime.run()``."""

    name: str
    storage: str
    scheduling: str
    grid: int = 16

    def spec(self):
        """The cell as the sweep engine names it (for the warm lookups)."""
        from repro.core.experiments.engine import CellSpec
        from repro.hardware import StorageKind
        from repro.runtime import SchedulingPolicy

        return CellSpec(
            algorithm="matmul",
            grid=self.grid,
            dataset_key="matmul_8gb",
            use_gpu=False,
            storage=StorageKind[self.storage],
            scheduling=SchedulingPolicy[self.scheduling],
        )

    def prepare(self):
        """Build the DAG: returns (runtime, workflow) ready to run."""
        from repro.algorithms import MatmulWorkflow
        from repro.data import paper_datasets
        from repro.hardware import StorageKind, minotauro
        from repro.runtime import Runtime, RuntimeConfig, SchedulingPolicy

        runtime = Runtime(
            RuntimeConfig(
                cluster=minotauro(),
                storage=StorageKind[self.storage],
                scheduling=SchedulingPolicy[self.scheduling],
                use_gpu=False,
            )
        )
        workflow = MatmulWorkflow(paper_datasets()["matmul_8gb"], grid=self.grid)
        workflow.build(runtime)
        return runtime, workflow

    def run_once(self) -> tuple[float, Any, Any, Any]:
        """Build, then time ``Runtime.run()``: (wall, result, runtime, workflow)."""
        runtime, workflow = self.prepare()
        gc.collect()
        started = perf_counter()
        result = runtime.run()
        wall = perf_counter() - started
        return wall, result, runtime, workflow

    def observe(self) -> dict[str, Any]:
        """The outputs one run produces, in the form ``expected.json`` keeps."""
        from repro.tracing import trace_digest

        _wall, result, _runtime, _workflow = self.run_once()
        return {
            "trace_digest": trace_digest(result.trace),
            "makespan": result.makespan,
            "tasks": result.trace.num_task_records,
        }

    def check_run(self, result, expected: dict, outcome: Outcome, what: str) -> None:
        from repro.tracing import trace_digest

        digest = trace_digest(result.trace)
        outcome.check(
            digest == expected["trace_digest"]
            and result.makespan == expected["makespan"]
            and result.trace.num_task_records == expected["tasks"],
            f"{what}: digest {digest[:16]} makespan {result.makespan!r} "
            f"tasks {result.trace.num_task_records}",
        )

    def fill_cache(self, root: Path, wall: float, result, runtime, workflow) -> None:
        """Store this run's result where the sweep engine looks it up."""
        from repro.core.experiments.cache import SweepCache, metrics_to_record
        from repro.core.experiments.engine import (
            _cache_entry,
            cell_digest,
            model_fingerprint,
        )
        from repro.core.experiments.runners import STATUS_OK, RunMetrics
        from repro.tracing import (
            data_movement_metrics,
            parallel_task_metrics,
            trace_digest,
            user_code_metrics,
        )

        spec = self.spec()
        trace = result.trace
        metrics = RunMetrics(
            status=STATUS_OK,
            use_gpu=False,
            storage=spec.storage,
            scheduling=spec.scheduling,
            makespan=result.makespan,
            user_code=user_code_metrics(trace),
            movement=data_movement_metrics(trace),
            parallel_task_time=parallel_task_metrics(
                trace, set(workflow.parallel_task_types)
            ).average_parallel_time,
            dag_width=runtime.graph.width,
            dag_height=runtime.graph.height,
            num_tasks=runtime.graph.num_tasks,
            trace_digest=trace_digest(trace),
        )
        fingerprint = model_fingerprint()
        digest = cell_digest(spec, fingerprint)
        SweepCache(root).put(
            digest,
            _cache_entry(digest, fingerprint, spec, metrics_to_record(metrics), wall),
        )

    def warm_lookup(self, root: Path, expected: dict, outcome: Outcome):
        """Answer the cell from a filled cache: (seconds, engine)."""
        from repro.core.experiments.engine import SweepEngine

        spec = self.spec()
        started = perf_counter()
        engine = SweepEngine(jobs=workers(), cache_dir=root)
        try:
            metrics = engine.run_cell(spec)
        finally:
            engine.close()
        seconds = perf_counter() - started
        outcome.check(
            metrics.trace_digest == expected["trace_digest"]
            and metrics.makespan == expected["makespan"]
            and engine.stats.executed == 0,
            f"warm lookup: digest {metrics.trace_digest[:16]} "
            f"executed {engine.stats.executed}",
        )
        return seconds, engine

    # ------------------------------------------------------------ untraced
    def measure(self, seconds: float, expected: dict, work: Path, outcome: Outcome):
        samples = Samples()
        root = fresh_dir(work / "cache")
        # A single process stays on one core for seconds at a time, and on a
        # shared host the cores' neighbour load differs from minute to
        # minute: runs alternate their operations between the cores so each
        # run samples every core equally.  Each operation runs between two
        # calibration loops on its core, which scale it to the reference
        # host's speed.
        cores = sorted(os.sched_getaffinity(0))
        started = [0]

        def op() -> None:
            os.sched_setaffinity(0, {cores[started[0] % len(cores)]})
            started[0] += 1
            try:
                runtime, workflow = self.prepare()
                gc.collect()
                result, wall, calibration = calibrated(runtime.run)
            except Exception as error:  # counted, the run goes on
                outcome.error("run", error)
                return
            self.check_run(result, expected, outcome, "run")
            scaled = host_scaled(wall, calibration)
            samples.add("wall_s", scaled)
            samples.add("tasks_per_s", result.trace.num_task_records / scaled)
            samples.add("unscaled_wall_s", wall)
            samples.add("calibration_s", calibration)
            if not _cache_files(root):
                self.fill_cache(root, wall, result, runtime, workflow)

        try:
            repeat_for(seconds, op)
        finally:
            os.sched_setaffinity(0, cores)
        samples.add("peak_rss_mb", rss_mb())
        if _cache_files(root):

            def lookup() -> None:
                warm, _engine = self.warm_lookup(root, expected, outcome)
                samples.add("sweep_warm_s", warm)

            repeat_for(WARM_SECONDS, lookup)
        return samples

    # -------------------------------------------------------------- traced
    def trace(self, expected: dict, work: Path, outcome: Outcome):
        """One untraced run, then the same run and three warm lookups traced.

        Returns (layer metrics, tracer).  The untraced run fills the cache
        the lookups read.
        """
        root = fresh_dir(work / "cache")
        wall_plain, result, runtime, workflow = self.run_once()
        self.check_run(result, expected, outcome, "untraced run")
        self.fill_cache(root, wall_plain, result, runtime, workflow)
        del result, runtime, workflow
        filled = len(_cache_files(root))
        tracer = install_layers(Tracer())
        try:
            wall, result, _runtime, _workflow = self.run_once()
            self.check_run(result, expected, outcome, "traced run")
            del result
            engines = [
                self.warm_lookup(root, expected, outcome)[1] for _ in range(3)
            ]
        finally:
            tracer.uninstall()
        metrics = layer_metrics(
            tracer,
            engines,
            files_written=len(_cache_files(root)) - filled,
            walls=cell_walls(root),
        )
        metrics["bench.trace_overhead_s"] = wall - wall_plain
        return metrics, tracer


# ------------------------------------------------------------- paper sweep


@dataclass(frozen=True)
class PaperSweep:
    """Figure runners on one sweep engine: a cold pass, then warm passes."""

    name: str
    figures: tuple[str, ...] = SWEEP_FIGURES

    def run_pass(self, root: Path):
        """One pass over the figures: (set-up s, pass s, tables, engine)."""
        from repro.core import experiments

        started = perf_counter()
        engine = experiments.SweepEngine(jobs=workers(), cache_dir=root)
        built = perf_counter()
        try:
            tables = [
                getattr(experiments, f"run_{figure}")(engine=engine).render()
                for figure in self.figures
            ]
        finally:
            engine.close()
        finished = perf_counter()
        return built - started, finished - built, "\n\n".join(tables), engine

    def observe(self) -> dict[str, Any]:
        root = fresh_dir(WORK_ROOT / "record" / self.name)
        _setup, _seconds, tables, _engine = self.run_pass(root)
        tasks = 0
        for path in _cache_files(root):
            metrics = json.loads(path.read_text(encoding="utf-8"))["metrics"]
            if metrics["status"] == "ok":
                tasks += metrics["num_tasks"]
        return {"tables_sha256": _sha256(tables), "tasks": tasks}

    def cold_pass(self, root: Path, expected: dict, outcome: Outcome):
        """A pass against a fresh cache: (seconds, tables, engine, cache root)."""
        root = fresh_dir(root)
        _setup, cold, tables, engine = self.run_pass(root)
        outcome.check(
            _sha256(tables) == expected["tables_sha256"],
            f"cold tables sha256 {_sha256(tables)[:16]}",
        )
        return cold, tables, engine, root

    def warm_pass(self, root: Path, tables: str, outcome: Outcome):
        """A pass over the filled cache, engine construction to close."""
        setup, seconds, warm_tables, engine = self.run_pass(root)
        outcome.check(
            warm_tables == tables and engine.stats.executed == 0,
            f"warm pass: tables equal {warm_tables == tables}, "
            f"executed {engine.stats.executed}",
        )
        return setup + seconds, engine

    # ------------------------------------------------------------ untraced
    def measure(self, seconds: float, expected: dict, work: Path, outcome: Outcome):
        samples = Samples()

        def op() -> None:
            # The pool works on every core, so the calibration around the
            # pass does too.
            try:
                before = calibration_all_cores()
                cold, tables, _engine, root = self.cold_pass(
                    work / "cache", expected, outcome
                )
                calibration = (before + calibration_all_cores()) / 2
            except Exception as error:  # counted, the run goes on
                outcome.error("sweep pass", error)
                return
            scaled = host_scaled(cold, calibration)
            samples.add("wall_s", scaled)
            samples.add("tasks_per_s", expected["tasks"] / scaled)
            samples.add("unscaled_wall_s", cold)
            samples.add("calibration_s", calibration)

            def warm() -> None:
                warm_seconds, _engine = self.warm_pass(root, tables, outcome)
                samples.add("sweep_warm_s", warm_seconds)

            repeat_for(WARM_SECONDS, warm)

        repeat_for(seconds, op)
        samples.add("peak_rss_mb", rss_mb())
        return samples

    # -------------------------------------------------------------- traced
    def trace(self, expected: dict, work: Path, outcome: Outcome):
        cold_plain, _tables, _engine, plain_root = self.cold_pass(
            work / "plain", expected, outcome
        )
        worker_dir = fresh_dir(work / "workers")
        tracer = install_layers(Tracer(worker_dir=worker_dir))
        try:
            cold, tables, cold_engine, root = self.cold_pass(
                work / "traced", expected, outcome
            )
            _warm, warm_engine = self.warm_pass(root, tables, outcome)
            engines = [cold_engine, warm_engine]
        finally:
            tracer.uninstall()
        tracer.merge_workers()
        metrics = layer_metrics(
            tracer,
            engines,
            files_written=len(_cache_files(root)),
            walls=cell_walls(plain_root),
        )
        metrics["bench.trace_overhead_s"] = cold - cold_plain
        return metrics, tracer


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------- layer metrics


def layer_metrics(
    tracer: Tracer, engines: list, files_written: int, walls: list[float]
) -> dict[str, float]:
    """The per-layer metrics of one traced operation."""
    counts = tracer.counts
    selects, _ = tracer.total("sched.select")
    gets, get_s = tracer.total("cache.get")
    appends, append_s = tracer.total("ledger.append")
    _digests, digest_s = tracer.total("sweep.digest")
    spawned, spawn_s = tracer.total("pool.spawn")
    _runs, run_s = tracer.total("pool.run")
    executed_wall = sum(engine.stats.executed_wall for engine in engines)
    return {
        "sched.selects": selects,
        "sched.hit_ratio": counts["sched.hits"] / selects if selects else 0.0,
        "sched.node_probes": counts["sched.node_probes"],
        "sched.self_s": tracer.layer_self("sched"),
        "channel.submits": counts["channel.submits"],
        "channel.completions": counts["channel.completions"],
        "channel.jobs_scanned": counts["channel.jobs_scanned"],
        "channel.peak_jobs": tracer.peaks["channel.peak_jobs"],
        "channel.self_s": tracer.layer_self("channel"),
        "engine.events": counts["engine.events"],
        "engine.schedules": counts["engine.schedules"],
        "engine.cancels": counts["engine.cancels"],
        "cost.calls": tracer.total("cost.stage_times")[0],
        "cost.self_s": tracer.layer_self("cost"),
        "trace.rows": tracer.total("trace.append")[0],
        "trace.self_s": tracer.layer_self("trace"),
        "exec.tasks": counts["exec.tasks"],
        "exec.self_s": tracer.layer_self("exec"),
        "dag.submits": counts["dag.submits"],
        "dag.build_s": tracer.layer_self("dag"),
        "sweep.executed": sum(engine.stats.executed for engine in engines),
        "sweep.dedup": sum(engine.stats.memo_hits for engine in engines),
        "sweep.cache_hits": sum(engine.stats.cache_hits for engine in engines),
        "sweep.digest_s": digest_s,
        "sweep.cell_p50_s": percentile(walls, 0.5),
        "sweep.cell_p90_s": percentile(walls, 0.9),
        "pool.items": counts["pool.items"],
        "pool.workers": spawned,
        "pool.efficiency": (
            executed_wall / (run_s * spawned) if run_s > 0 and spawned else 0.0
        ),
        "cache.gets": gets,
        "cache.hit_ratio": counts["cache.hits"] / gets if gets else 0.0,
        "cache.get_s": get_s,
        "cache.files_written": files_written,
        "ledger.appends": appends,
        "ledger.append_s": append_s,
        # Printed beside the JSON metrics, not part of them.
        "pool.run_s": run_s,
        "pool.spawn_s": spawn_s,
    }


WORKLOADS: dict[str, SingleRun | PaperSweep] = {
    "locality_full": SingleRun(
        "locality_full", storage="LOCAL", scheduling="DATA_LOCALITY", grid=8
    ),
    "fifo_contended": SingleRun(
        "fifo_contended", storage="SHARED", scheduling="GENERATION_ORDER"
    ),
    "paper_sweep": PaperSweep("paper_sweep"),
}


def setup_probe(name: str) -> None:
    """Set-up of one workload, as a fresh process pays it (import included)."""
    workload = WORKLOADS[name]
    if isinstance(workload, SingleRun):
        workload.prepare()
        return
    from repro.core import experiments

    root = fresh_dir(WORK_ROOT / "probe" / str(os.getpid()))
    try:
        experiments.SweepEngine(jobs=workers(), cache_dir=root).close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
