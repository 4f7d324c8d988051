"""Simulator throughput benchmark — ``python -m repro bench`` (see ``docs/performance.md``).

The figure experiments measure *simulated* time; this module measures the
wall-clock cost of producing it, as a regression guard over the fast
dispatch path (incremental ready sets, the per-node locality index,
memoized cost-model evaluation).  A fixed workload matrix covers the hot
paths with different shapes:

* ``matmul16`` — Matmul 16x16, the heaviest single configuration of the
  figure suite (7936 tasks, full storage contention);
* ``matmul16_locality_local`` — the same DAG under the data-locality
  policy on local disk, a Figure 10 cell whose ready queue runs hundreds
  of tasks deep while every core is busy (guards the executor's skip of
  ``select`` on a cluster with no free core);
* ``matmul8_locality_gpu`` — the Figure 10 cell Matmul 8x8 on GPUs under
  the data-locality policy on local disk: cores stay free while every
  GPU is busy, so ``select`` still runs past a deep queue of GPU tasks
  (guards the per-resource-key probe memo);
* ``kmeans_deep`` — a deep K-means run (many short levels), stressing
  the completion-event path and the ready-set churn of iterative DAGs;
* ``wide_dag`` — a seeded WfBench-style generated DAG with wide levels
  under the data-locality policy, stressing placement scoring (its ready
  queue stays shallow, so it cannot catch a per-``select`` rescan);
* ``plain_replay`` — a dependency-only DAG on a zero-latency cluster,
  the event core and dispatch loop alone.

``run_bench`` returns a JSON-serialisable report and (optionally) writes
it to ``BENCH_simulator.json``; ``benchmarks/test_simulator_performance.py``
enforces per-workload throughput floors on the same matrix.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.algorithms import GeneratedDagWorkflow, KMeansWorkflow, MatmulWorkflow
from repro.data import paper_datasets
from repro.hardware import StorageKind
from repro.runtime import Runtime, RuntimeConfig, SchedulingPolicy

#: Report format version; bump when the JSON layout changes.
SCHEMA = "repro-bench/1"

#: Default output file name, also uploaded as a CI artifact.
DEFAULT_OUTPUT = "BENCH_simulator.json"

#: Sweep-engine suite format version (``--suite sweeps``).
SWEEP_SCHEMA = "repro-sweeps-bench/1"

#: Default output of the sweeps suite, also uploaded as a CI artifact.
DEFAULT_SWEEPS_OUTPUT = "BENCH_sweeps.json"

#: Fault-recovery suite format version (``--suite faults``).
FAULTS_SCHEMA = "repro-faults-bench/1"

#: Default output of the faults suite, also uploaded as a CI artifact.
DEFAULT_FAULTS_OUTPUT = "BENCH_faults.json"

#: Scale suite format version (``--suite scale``).  Version 2 added the
#: sharded ``*_x4`` cells (worker count, aggregate rate, speedup versus
#: the matching single-process cell) and raised the ``scale_1m`` floor
#: from 6,000 to 9,000 tasks/s after the array-backed bookkeeping
#: rewrite.
SCALE_SCHEMA = "repro-scale-bench/2"

#: Default output of the scale suite, also uploaded as a CI artifact.
DEFAULT_SCALE_OUTPUT = "BENCH_scale.json"


@dataclass(frozen=True)
class BenchWorkload:
    """One cell of the fixed benchmark matrix."""

    name: str
    description: str
    build: Callable[[Runtime], object]
    make_config: Callable[[], RuntimeConfig]

    def run_once(self) -> tuple[int, float, float]:
        """Build and execute once; returns (tasks, wall seconds, makespan).

        DAG construction happens outside the timed region: the benchmark
        guards the simulation loop, not workflow generation.
        """
        runtime = Runtime(self.make_config())
        self.build(runtime)
        started = time.perf_counter()
        result = runtime.run()
        elapsed = time.perf_counter() - started
        return result.trace.num_task_records, elapsed, result.makespan


def plain_replay_config() -> RuntimeConfig:
    """The zero-overhead cluster the replay benchmarks run against.

    Scheduling latency and locality scan cost are zeroed so the
    measurement isolates the simulator itself — dependency resolution,
    scheduling decisions and the event core, with every decision over a
    ready batch landing on one simulated instant (the path the
    ``plain_replay`` tasks/s floor guards).
    """
    import dataclasses

    from repro.hardware import minotauro

    cluster = dataclasses.replace(
        minotauro(num_nodes=8),
        scheduling_latency={policy: 0.0 for policy in SchedulingPolicy},
        locality_scan_seconds_per_task=0.0,
    )
    return RuntimeConfig(
        cluster=cluster,
        storage=StorageKind.LOCAL,
        scheduling=SchedulingPolicy.GENERATION_ORDER,
    )


def build_plain_replay(
    runtime: Runtime, width: int, depth: int, seed: int = 11
) -> None:
    """Submit a dependency-only layered DAG of ``width * depth`` tasks.

    Tasks carry seeded serial-compute costs (drawn from a small palette,
    so the cost-model memo stays bounded at million-task scale) and move
    no data: every event the run produces comes from scheduling and
    compute, making this a zero-latency dependency-only replay of the
    simulator core.  Each task depends on two distinct tasks of the previous
    level; edge sampling is vectorized so DAG construction keeps up with
    million-task shapes (construction is outside the timed region
    regardless).
    """
    import numpy as np

    from repro.perfmodel import TaskCost

    if width < 2 or depth < 1:
        raise ValueError("plain replay needs width >= 2 and depth >= 1")
    rng = np.random.default_rng(seed)
    palette = [
        TaskCost(
            serial_flops=float(flops),
            parallel_flops=0.0,
            parallel_items=0.0,
            arithmetic_intensity=1e-6,
            input_bytes=0,
            output_bytes=0,
            host_device_bytes=0,
            gpu_memory_bytes=0,
        )
        for flops in rng.uniform(1e7, 4e7, size=64)
    ]
    num_tasks = width * depth
    cost_ix = rng.integers(0, len(palette), size=num_tasks)
    # Two distinct predecessors per task without a per-task choice()
    # call: a uniform first pick plus a nonzero modular offset.
    first = rng.integers(0, width, size=num_tasks)
    second = (first + rng.integers(1, width, size=num_tasks)) % width
    previous = [
        runtime.register_input(1, name=f"replay_in{i}") for i in range(width)
    ]
    at = 0
    for _ in range(depth):
        current = []
        for _ in range(width):
            a, b = int(first[at]), int(second[at])
            if a > b:
                a, b = b, a
            (out,) = runtime.submit(
                name="replay",
                inputs=[previous[a], previous[b]],
                cost=palette[int(cost_ix[at])],
                output_bytes=[0],
            )
            current.append(out)
            at += 1
        previous = current


def bench_workloads() -> tuple[BenchWorkload, ...]:
    """The fixed workload matrix, in reporting order."""
    datasets = paper_datasets()

    def matmul16(runtime: Runtime):
        return MatmulWorkflow(datasets["matmul_8gb"], grid=16).build(runtime)

    def matmul8(runtime: Runtime):
        return MatmulWorkflow(datasets["matmul_8gb"], grid=8).build(runtime)

    def kmeans_deep(runtime: Runtime):
        return KMeansWorkflow(
            datasets["kmeans_10gb"], grid_rows=64, n_clusters=10, iterations=8
        ).build(runtime)

    def wide_dag(runtime: Runtime):
        return GeneratedDagWorkflow(
            width=64, depth=24, fan_in=3, block_mb=4.0, seed=11
        ).build(runtime)

    return (
        BenchWorkload(
            name="matmul16",
            description="Matmul 16x16 on CPUs with storage contention",
            build=matmul16,
            make_config=lambda: RuntimeConfig(use_gpu=False),
        ),
        BenchWorkload(
            name="matmul16_locality_local",
            description="Matmul 16x16 on CPUs, data locality, local disk",
            build=matmul16,
            make_config=lambda: RuntimeConfig(
                use_gpu=False,
                storage=StorageKind.LOCAL,
                scheduling=SchedulingPolicy.DATA_LOCALITY,
            ),
        ),
        BenchWorkload(
            name="matmul8_locality_gpu",
            description="Matmul 8x8 on GPUs, data locality, local disk",
            build=matmul8,
            make_config=lambda: RuntimeConfig(
                use_gpu=True,
                storage=StorageKind.LOCAL,
                scheduling=SchedulingPolicy.DATA_LOCALITY,
            ),
        ),
        BenchWorkload(
            name="kmeans_deep",
            description="K-means 64x1 blocks, 8 iterations, GPU mode",
            build=kmeans_deep,
            make_config=lambda: RuntimeConfig(use_gpu=True),
        ),
        BenchWorkload(
            name="wide_dag",
            description=(
                "generated 64-wide/24-deep DAG under the data-locality policy"
            ),
            build=wide_dag,
            make_config=lambda: RuntimeConfig(
                use_gpu=False, scheduling=SchedulingPolicy.DATA_LOCALITY
            ),
        ),
        BenchWorkload(
            name="plain_replay",
            description=(
                "dependency-only 128-wide/80-deep DAG on the zero-latency "
                "cluster"
            ),
            build=lambda runtime: build_plain_replay(runtime, 128, 80),
            make_config=plain_replay_config,
        ),
    )


def run_bench(
    repeats: int = 3,
    workloads: Sequence[BenchWorkload] | None = None,
    out_path: str | Path | None = None,
) -> dict:
    """Run the matrix ``repeats`` times per workload and build the report.

    Rates are computed from the *best* repeat — wall-clock noise only ever
    slows a run down, so the minimum is the cleanest throughput estimate.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    rows = []
    for workload in workloads if workloads is not None else bench_workloads():
        walls: list[float] = []
        num_tasks = 0
        makespan = 0.0
        for _ in range(repeats):
            num_tasks, elapsed, makespan = workload.run_once()
            walls.append(elapsed)
        best = min(walls)
        rows.append(
            {
                "name": workload.name,
                "description": workload.description,
                "num_tasks": num_tasks,
                "repeats": repeats,
                "wall_seconds": [round(w, 6) for w in walls],
                "best_wall_seconds": round(best, 6),
                "tasks_per_second": round(num_tasks / best, 1),
                "simulated_makespan": round(makespan, 6),
            }
        )
    report = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": rows,
    }
    if out_path is not None:
        from repro.core.persistence import dumps_deterministic

        Path(out_path).write_text(dumps_deterministic(report), encoding="utf-8")
    return report


def render_report(report: dict) -> str:
    """Human-readable summary of a :func:`run_bench` report."""
    lines = [f"simulator throughput ({report['schema']}, "
             f"python {report['python']}/{report['machine']})"]
    for row in report["workloads"]:
        lines.append(
            f"  {row['name']:<12} {row['num_tasks']:>6} tasks  "
            f"{row['best_wall_seconds']:>8.3f}s best of {row['repeats']}  "
            f"{row['tasks_per_second']:>10,.0f} tasks/s"
        )
    return "\n".join(lines)


# ---------------------------------------------------------- scale suite


#: The scale-suite cell matrix:
#: ``(name, width, depth, workers, base floor tasks/s)``.
#: ``workers == 1`` replays the whole ``width * depth`` DAG in-process;
#: ``workers > 1`` splits the same task budget into ``workers`` replica
#: instances (``width x depth/workers`` each) and fans them out over a
#: :class:`~repro.core.shard.ShardPool`, reporting the *aggregate* rate
#: (total tasks over batch wall-clock).  Base floors are conservative
#: versus the measured zero-latency replay rates so CI noise does not
#: trip them, but an order-of-magnitude regression — the event core or
#: the bookkeeping sliding back to per-task dicts — still fails
#: reliably.  Sharded floors are additionally scaled by the
#: machine's core count (:func:`_sharded_floor`), because aggregate
#: throughput cannot exceed one in-process rate on a single core.
#: Width 125 keeps the DAG just under the 8-node cluster's 128 concurrent
#: tasks, so dispatch rounds empty the ready set instead of ending in a
#: full saturated-node scan per round.
SCALE_CELLS = (
    ("scale_100k", 125, 800, 1, 8000.0),
    ("scale_1m", 125, 8000, 1, 9000.0),
    ("scale_100k_x4", 125, 800, 4, 8000.0),
    ("scale_1m_x4", 125, 8000, 4, 9000.0),
)


def _sharded_floor(base_floor: float, workers: int) -> float:
    """Effective floor of a sharded cell on this machine.

    Half of ``min(workers, cores)`` times the base floor: on a 4-core CI
    runner a 4-worker cell must beat 2x the single-process floor (the
    ">= 3x aggregate at 4 workers" target with headroom for runner
    noise), while on a single core the cell only has to stay within 2x
    of the in-process rate — sharding cannot speed anything up there,
    the guard just bounds pool overhead.
    """
    import os

    cores = os.cpu_count() or 1
    return base_floor * 0.5 * min(workers, cores)


def _scale_shard(spec: tuple[int, int, int]) -> tuple[int, float]:
    """One sharded-cell instance: replay ``width x depth`` from ``seed``.

    Module-level so it pickles under the ``spawn`` start method; returns
    ``(tasks committed, wall seconds inside the worker)``.
    """
    width, depth, seed = spec
    runtime = Runtime(plain_replay_config())
    build_plain_replay(runtime, width, depth, seed=seed)
    started = time.perf_counter()
    result = runtime.run()
    elapsed = time.perf_counter() - started
    return result.trace.num_task_records, elapsed


def _run_scale_cell(
    width: int, depth: int, workers: int
) -> tuple[int, float, float | None]:
    """Execute one cell; returns (total tasks, wall seconds, makespan).

    Single-worker cells replay in-process with DAG construction outside
    the timed region.  Sharded cells split the depth across ``workers``
    replica instances and time the whole batch through a
    :class:`~repro.core.shard.ShardPool`; the pool is warmed first (one
    trivial instance per worker) so process spawn and the per-worker
    interpreter+numpy import stay outside the timed region, mirroring
    how a persistent pool amortises start-up across a long run.  Sharded
    makespan is reported as ``None`` — the replicas are independent
    simulations, so no single simulated clock describes the batch.
    """
    if workers == 1:
        runtime = Runtime(plain_replay_config())
        build_plain_replay(runtime, width, depth)
        started = time.perf_counter()
        result = runtime.run()
        elapsed = time.perf_counter() - started
        return result.trace.num_task_records, elapsed, result.makespan

    from repro.core.shard import ShardPool

    depth_per_worker = max(1, depth // workers)
    specs = [(width, depth_per_worker, 11 + i) for i in range(workers)]
    with ShardPool(workers=workers) as pool:
        pool.map(_scale_shard, [(2, 1, 0)] * workers)  # spawn + import warm-up
        started = time.perf_counter()
        results = pool.map(_scale_shard, specs)
        elapsed = time.perf_counter() - started
    total_tasks = sum(tasks for tasks, _ in results)
    return total_tasks, elapsed, None


def run_scale_bench(
    out_path: str | Path | None = None,
    cells: Sequence[tuple[str, int, int, int, float]] | None = None,
    jobs: int | None = None,
) -> dict:
    """Run the 10^5..10^6-task replay cells and build the report.

    Each cell builds dependency-only DAGs (construction and pool warm-up
    are untimed) and replays them once on the zero-latency cluster; the
    report records the wall-clock rate against the cell's floor, and for
    sharded cells the speedup over the single-process cell of the same
    shape.  One run per cell — at these task counts a single replay
    already averages away per-event noise, and the 10^6 cells are too
    expensive to repeat by default.  ``jobs`` overrides the worker count
    of every sharded cell (single-process cells are unaffected).
    """
    serial_rates: dict[tuple[int, int], float] = {}
    rows = []
    for name, width, depth, workers, base_floor in (
        cells if cells is not None else SCALE_CELLS
    ):
        if workers > 1 and jobs is not None:
            workers = max(1, jobs)
        num_tasks, elapsed, makespan = _run_scale_cell(width, depth, workers)
        rate = num_tasks / elapsed
        if workers == 1:
            serial_rates[(width, depth)] = rate
            floor = base_floor
            speedup = None
        else:
            floor = _sharded_floor(base_floor, workers)
            serial = serial_rates.get((width, depth))
            speedup = round(rate / serial, 2) if serial else None
        rows.append(
            {
                "name": name,
                "width": width,
                "depth": depth,
                "workers": workers,
                "num_tasks": num_tasks,
                "wall_seconds": round(elapsed, 6),
                "tasks_per_second": round(rate, 1),
                "floor_tasks_per_second": round(floor, 1),
                "meets_floor": rate >= floor,
                "speedup_vs_serial": speedup,
                "simulated_makespan": (
                    round(makespan, 6) if makespan is not None else None
                ),
            }
        )
    report = {
        "schema": SCALE_SCHEMA,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": rows,
    }
    if out_path is not None:
        from repro.core.persistence import dumps_deterministic

        Path(out_path).write_text(dumps_deterministic(report), encoding="utf-8")
    return report


def render_scale_report(report: dict) -> str:
    """Human-readable summary of a :func:`run_scale_bench` report."""
    lines = [f"replay scale ({report['schema']}, "
             f"python {report['python']}/{report['machine']})"]
    for row in report["workloads"]:
        verdict = "ok" if row["meets_floor"] else "BELOW FLOOR"
        speedup = row.get("speedup_vs_serial")
        extra = f"  {speedup:.2f}x vs serial" if speedup is not None else ""
        lines.append(
            f"  {row['name']:<13} {row['num_tasks']:>9,} tasks  "
            f"x{row['workers']}  "
            f"{row['wall_seconds']:>9.3f}s  "
            f"{row['tasks_per_second']:>10,.0f} tasks/s  "
            f"(floor {row['floor_tasks_per_second']:,.0f}: {verdict})"
            f"{extra}"
        )
    return "\n".join(lines)


# --------------------------------------------------------- sweeps suite


def sweep_bench_cells() -> list:
    """The fixed sweeps-suite cell matrix (small figure-subset shapes).

    A scaled-down cross-section of the figure sweeps: both algorithms,
    several grids, both processors, plus storage / scheduling / cluster
    variants, all on the small 128 MB / 100 MB datasets so a cold pass
    stays in CI-friendly territory.
    """
    from repro.core.experiments.engine import CellSpec, cells_product

    cells = []
    cells += cells_product("matmul", (8, 4, 2), dataset_key="matmul_128mb")
    cells += cells_product(
        "kmeans", (16, 8, 4), dataset_key="kmeans_100mb", n_clusters=10
    )
    cells += cells_product(
        "matmul", (4,), dataset_key="matmul_128mb", storage=StorageKind.LOCAL
    )
    cells += cells_product(
        "matmul",
        (4,),
        dataset_key="matmul_128mb",
        scheduling=SchedulingPolicy.DATA_LOCALITY,
    )
    cells += cells_product(
        "kmeans", (8,), dataset_key="kmeans_100mb", n_clusters=100
    )
    cells.append(
        CellSpec(algorithm="matmul_fma", grid=4, dataset_key="matmul_128mb")
    )
    cells.append(
        CellSpec(
            algorithm="matmul_fma", grid=4, dataset_key="matmul_128mb",
            use_gpu=True,
        )
    )
    return cells


def run_sweep_bench(
    jobs: int | None = None,
    out_path: str | Path | None = None,
    cache_dir: str | Path | None = None,
    cells: Sequence | None = None,
) -> dict:
    """Measure sweep-engine throughput: a cold pass, then a warm pass.

    Both passes run the same cell matrix against the same cache
    directory (a temporary one unless ``cache_dir`` is given).  The cold
    pass simulates everything; the warm pass must answer 100% from the
    cache.  The report records cells/second for both, the warm-over-cold
    speedup, and whether the two passes produced identical results.
    """
    import tempfile

    from repro.core.experiments.cache import metrics_to_record
    from repro.core.experiments.engine import SweepEngine

    cells = list(cells) if cells is not None else sweep_bench_cells()
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(cache_dir) if cache_dir is not None else Path(scratch)

        with SweepEngine(jobs=jobs, cache_dir=root) as cold_engine:
            started = time.perf_counter()
            cold_results = cold_engine.run_cells(cells)
            cold_wall = time.perf_counter() - started

        with SweepEngine(jobs=jobs, cache_dir=root) as warm_engine:
            started = time.perf_counter()
            warm_results = warm_engine.run_cells(cells)
            warm_wall = time.perf_counter() - started

    cold_records = [metrics_to_record(m) for m in cold_results]
    warm_records = [metrics_to_record(m) for m in warm_results]
    byte_identical = json.dumps(cold_records, sort_keys=True) == json.dumps(
        warm_records, sort_keys=True
    )
    report = {
        "schema": SWEEP_SCHEMA,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "jobs": cold_engine.jobs,
        "num_cells": len(cells),
        "cold": {
            "wall_seconds": round(cold_wall, 6),
            "cells_per_second": round(len(cells) / cold_wall, 2),
            "hits": cold_engine.stats.hits,
            "misses": cold_engine.stats.misses,
        },
        "warm": {
            "wall_seconds": round(warm_wall, 6),
            "cells_per_second": round(len(cells) / warm_wall, 2),
            "hits": warm_engine.stats.hits,
            "misses": warm_engine.stats.misses,
        },
        "warm_speedup": round(cold_wall / warm_wall, 2) if warm_wall > 0 else None,
        "byte_identical": byte_identical,
    }
    if out_path is not None:
        from repro.core.persistence import dumps_deterministic

        Path(out_path).write_text(dumps_deterministic(report), encoding="utf-8")
    return report


# --------------------------------------------------------- faults suite


def run_fault_bench(
    workloads: Sequence[BenchWorkload] | None = None,
    out_path: str | Path | None = None,
    at_fraction: float = 0.25,
) -> dict:
    """Measure fault-recovery cost on the fixed workload matrix.

    Each workload runs twice: once fault-free to establish the clean
    makespan, then again with one node killed at ``at_fraction`` of that
    makespan and lineage recovery enabled.  The report records whether
    the faulted run completed, how many tasks were resurrected, and the
    makespan overhead the recovery cost (faulted over clean).
    """
    import dataclasses

    from repro.faults import FaultPlan, NodeFault, RetryPolicy

    rows = []
    for workload in workloads if workloads is not None else bench_workloads():
        runtime = Runtime(workload.make_config())
        workload.build(runtime)
        clean = runtime.run()

        plan = FaultPlan(
            node_faults=(
                NodeFault(node=1, at_time=at_fraction * clean.makespan),
            )
        )
        config = dataclasses.replace(
            workload.make_config(),
            fault_plan=plan,
            retry_policy=RetryPolicy(recover_lost_blocks=True, max_attempts=3),
        )
        runtime = Runtime(config)
        workload.build(runtime)
        faulted = runtime.run()
        metrics = faulted.recovery_metrics
        rows.append(
            {
                "name": workload.name,
                "description": workload.description,
                "num_tasks": clean.trace.num_task_records,
                "clean_makespan": round(clean.makespan, 6),
                "fault_at": round(at_fraction * clean.makespan, 6),
                "faulted_makespan": round(faulted.makespan, 6),
                "recovery_overhead": round(
                    faulted.makespan / clean.makespan, 4
                ),
                "failed": faulted.failed,
                "blocks_lost": metrics.blocks_lost,
                "tasks_resurrected": metrics.tasks_resurrected,
                "recompute_seconds": round(metrics.recompute_seconds, 6),
            }
        )
    report = {
        "schema": FAULTS_SCHEMA,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": rows,
    }
    if out_path is not None:
        from repro.core.persistence import dumps_deterministic

        Path(out_path).write_text(dumps_deterministic(report), encoding="utf-8")
    return report


def render_fault_report(report: dict) -> str:
    """Human-readable summary of a :func:`run_fault_bench` report."""
    lines = [f"fault recovery ({report['schema']}, "
             f"python {report['python']}/{report['machine']})"]
    for row in report["workloads"]:
        status = "FAILED" if row["failed"] else "recovered"
        lines.append(
            f"  {row['name']:<12} {row['num_tasks']:>6} tasks  "
            f"{status:<9}  {row['blocks_lost']:>4} blocks lost  "
            f"{row['tasks_resurrected']:>4} resurrected  "
            f"{row['recovery_overhead']:>6.2f}x overhead"
        )
    return "\n".join(lines)


def render_sweep_report(report: dict) -> str:
    """Human-readable summary of a :func:`run_sweep_bench` report."""
    cold, warm = report["cold"], report["warm"]
    return "\n".join(
        [
            f"sweep-engine throughput ({report['schema']}, "
            f"python {report['python']}/{report['machine']}, "
            f"jobs={report['jobs']})",
            f"  cold  {report['num_cells']:>4} cells  "
            f"{cold['wall_seconds']:>8.3f}s  "
            f"{cold['cells_per_second']:>8.2f} cells/s  "
            f"(hits={cold['hits']} misses={cold['misses']})",
            f"  warm  {report['num_cells']:>4} cells  "
            f"{warm['wall_seconds']:>8.3f}s  "
            f"{warm['cells_per_second']:>8.2f} cells/s  "
            f"(hits={warm['hits']} misses={warm['misses']})",
            f"  warm speedup {report['warm_speedup']}x, results identical: "
            f"{report['byte_identical']}",
        ]
    )


# ---------------------------------------------------------- chaos suite

CHAOS_SCHEMA = "repro-chaos-bench/1"

#: Default report path of ``repro bench --suite chaos``.
DEFAULT_CHAOS_OUTPUT = "BENCH_chaos.json"

#: Replay shape of each chaos instance: small enough that a retried
#: instance costs milliseconds, large enough that a kill or hang lands
#: mid-batch rather than after everything finished.
CHAOS_REPLAY_SHAPE = (48, 40)
CHAOS_INSTANCES = 8


def _chaos_replay(seed: int) -> str:
    """One chaos-suite instance: replay a seeded DAG, return its digest.

    Module-level so it pickles under ``spawn``; returns the golden trace
    digest, the strongest bit-identity witness the repo has (every task's
    timing, placement, and event schedule feeds the hash).
    """
    from repro.tracing.golden import trace_digest

    width, depth = CHAOS_REPLAY_SHAPE
    runtime = Runtime(plain_replay_config())
    build_plain_replay(runtime, width, depth, seed=seed)
    result = runtime.run()
    return trace_digest(result.trace, result.failed_task_ids)


def chaos_policy():
    """The supervision policy the chaos suite (and its CI job) runs under.

    The 10 s item deadline is the suite's "never blocks longer than"
    guarantee — each replay takes well under a second, so only a chaos
    hang can reach it; 1 s heartbeats with a 5-interval grace catch
    frozen workers sooner.  Three attempts against single-attempt faults
    guarantee convergence; ``allow_degraded`` keeps the batch draining
    even if the respawn budget empties.
    """
    from repro.core.supervise import SupervisionPolicy

    return SupervisionPolicy(
        item_deadline=10.0,
        heartbeat_interval=1.0,
        heartbeat_grace=5.0,
        max_attempts=3,
        backoff_base=0.05,
        allow_degraded=True,
    )


def chaos_plan(seed: int = 23):
    """The seeded fault mix of the chaos suite.

    Roughly a quarter of first attempts die, an eighth hang (for longer
    than the item deadline, so only supervision can reclaim them), a
    quarter straggle; faults fire on the first attempt only, so every
    instance converges within the policy's three attempts.
    """
    from repro.core.chaos import ChaosPlan

    return ChaosPlan(
        seed=seed,
        kill_probability=0.25,
        hang_probability=0.125,
        slow_probability=0.25,
        hang_seconds=60.0,
        slow_seconds=(0.05, 0.2),
        fault_attempts=1,
    )


def run_chaos_bench(
    out_path: str | Path | None = None,
    jobs: int | None = None,
    seed: int = 23,
) -> dict:
    """Replay the chaos instances serially and under a chaotic pool.

    Serial digests are computed in-process first (the ground truth),
    then the same instances run through a :class:`ShardPool` whose
    workers are killed, hung, and slowed by the seeded
    :func:`chaos_plan`.  The report's headline claim is
    ``bit_identical``: per-instance golden trace digests from the
    supervised chaotic run equal the serial ones, i.e. host-level
    failures never leak into simulated results.
    """
    from repro.core.shard import ShardItem, ShardPool

    workers = max(1, jobs) if jobs is not None else 2
    seeds = [100 + i for i in range(CHAOS_INSTANCES)]
    serial = {s: _chaos_replay(s) for s in seeds}

    plan = chaos_plan(seed)
    events: list[tuple[str, dict]] = []
    started = time.perf_counter()
    with ShardPool(
        workers=workers, policy=chaos_policy(), chaos=plan
    ) as pool:
        report_run = pool.run_report(
            [ShardItem(instance_id=s, fn=_chaos_replay, args=(s,)) for s in seeds],
            on_event=lambda kind, info: events.append((kind, info)),
        )
    elapsed = time.perf_counter() - started

    mismatches = sorted(
        s for s, digest in report_run.results.items() if serial[s] != digest
    )
    injected = {
        kind: sum(1 for k, _ in events if k == kind)
        for kind in ("dispatch", "retry", "quarantine", "kill")
    }
    report = {
        "schema": CHAOS_SCHEMA,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workers": workers,
        "instances": CHAOS_INSTANCES,
        "replay_shape": list(CHAOS_REPLAY_SHAPE),
        "chaos_plan": json.loads(plan.to_json()),
        "bit_identical": (
            not mismatches
            and not report_run.errors
            and not report_run.quarantined
            and len(report_run.results) == len(seeds)
        ),
        "mismatched_instances": mismatches,
        "errors": sorted(map(str, report_run.errors)),
        "quarantined": sorted(map(str, report_run.quarantined)),
        "worker_crashes": report_run.worker_crashes,
        "worker_kills": report_run.worker_kills,
        "respawns": report_run.respawns,
        "retried_instances": len(report_run.attempts),
        "dispatches": injected["dispatch"],
        "degraded": report_run.degraded,
        "wall_seconds": round(elapsed, 6),
    }
    if out_path is not None:
        from repro.core.persistence import dumps_deterministic

        Path(out_path).write_text(dumps_deterministic(report), encoding="utf-8")
    return report


def render_chaos_report(report: dict) -> str:
    """Human-readable summary of a :func:`run_chaos_bench` report."""
    verdict = "bit-identical" if report["bit_identical"] else "DIVERGED"
    return "\n".join(
        [
            f"chaos shard suite ({report['schema']}, "
            f"python {report['python']}/{report['machine']}, "
            f"workers={report['workers']})",
            f"  {report['instances']} instances  "
            f"{report['wall_seconds']:>8.3f}s  "
            f"crashes={report['worker_crashes']} "
            f"kills={report['worker_kills']} "
            f"respawns={report['respawns']} "
            f"retried={report['retried_instances']} "
            f"degraded={report['degraded']}",
            f"  serial vs chaotic-sharded: {verdict} "
            f"(errors={len(report['errors'])} "
            f"quarantined={len(report['quarantined'])})",
        ]
    )
