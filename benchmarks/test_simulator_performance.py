"""Meta-benchmark — the simulator's own throughput.

Unlike the figure benches (which measure *simulated* time), this suite
measures the wall-clock cost of running the discrete-event simulation,
as a regression guard over the fast dispatch path.  It runs the same
fixed workload matrix as ``python -m repro bench``
(:func:`repro.bench.bench_workloads`) and enforces a throughput floor
per workload:

* ``matmul16`` — the heaviest single configuration in the figure suite
  (7936 tasks with full storage contention).  The floor sits at 3x the
  pre-optimisation guard: incremental ready sets + memoized cost-model
  evaluation must keep paying for themselves.
* ``matmul16_locality_local`` — the same DAG under the data-locality
  policy on local disk, where the ready queue runs hundreds of tasks
  deep while every core is busy.  It guards the executor's skip of
  ``select`` on a cluster with no free core: without the skip, each
  wake-up walks the ready queue and the cell runs at 1,500-2,300
  tasks/s (about 180 when ``select`` also rescans ready x nodes).
* ``matmul8_locality_gpu`` — Matmul 8x8 on GPUs under the data-locality
  policy on local disk, where cores stay free while every GPU is busy,
  so ``select`` still runs past a deep queue of GPU tasks.  It guards
  the per-resource-key probe memo: with a ready x nodes scan the cell
  runs at about 500-670 tasks/s, against 2,300-3,100 with the memo.
* ``kmeans_deep`` — many short levels; guards the completion-event and
  ready-set churn path.
* ``wide_dag`` — wide levels under the data-locality policy; guards the
  indexed O(1)-per-pair placement scoring.  Its ready queue stays
  shallow, so it does not see the cost of a per-``select`` rescan; the
  two locality Matmul cells do.
* ``plain_replay`` — a zero-latency dependency-only replay; guards the
  event core and the dispatch loop.

Floors are conservative (CI machines are noisy); an order-of-magnitude
regression — e.g. locality dispatch sliding back to a ready x nodes
rescan per wake-up — still trips them reliably.
"""

import pytest

from repro.bench import bench_workloads

#: Minimum accepted throughput (tasks per wall-clock second) per workload.
#: ``matmul16`` ran at ~500 tasks/s before the fast dispatch path landed;
#: the indexed/memoized simulator clears 3x that with margin to spare.
#: ``plain_replay``, a zero-latency dependency-only replay, guards the
#: event core and dispatch loop: its floor sits at 6x the legacy 1500
#: tasks/s guard (measured rates clear 15,000 — see
#: ``docs/performance.md`` — but CI machines are noisy and a floor trip
#: should mean a real regression, e.g. per-task bookkeeping sliding back
#: to dicts).
#: ``matmul16_locality_local`` runs at 6,600-8,200 tasks/s, at
#: 1,500-2,300 when the executor asks ``select`` on a full cluster (each
#: call then walks the ready queue's keys), and at about 180 when
#: ``select`` also rescans ready x nodes.  ``matmul8_locality_gpu`` runs
#: at 2,300-3,100 tasks/s, and at 500-670 with a ready x nodes scan.
#: Both floors sit between the two sides.
RATE_FLOORS = {
    "matmul16": 1500,
    "matmul16_locality_local": 3000,
    "matmul8_locality_gpu": 1200,
    "kmeans_deep": 1500,
    "wide_dag": 1500,
    "plain_replay": 9000,
}

#: Expected task counts — a silent workload change would quietly re-base
#: the floors, so pin the matrix shape too.
TASK_COUNTS = {
    "matmul16": 7936,
    "matmul16_locality_local": 7936,
    "matmul8_locality_gpu": 960,
    "kmeans_deep": 520,
    "wide_dag": 1537,
    "plain_replay": 10240,
}

WORKLOADS = {workload.name: workload for workload in bench_workloads()}


def test_matrix_matches_floors():
    assert sorted(WORKLOADS) == sorted(RATE_FLOORS) == sorted(TASK_COUNTS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_simulator_throughput(benchmark, name):
    workload = WORKLOADS[name]

    def run():
        return workload.run_once()

    tasks, elapsed, _makespan = benchmark.pedantic(run, rounds=1, iterations=1)
    rate = tasks / elapsed
    print(f"\n{name}: simulated {tasks} tasks in {elapsed:.2f}s wall "
          f"({rate:,.0f} tasks/s)")
    assert tasks == TASK_COUNTS[name]
    assert rate > RATE_FLOORS[name]


def test_scale_suite_100k_floor(benchmark):
    """The 10^5-task replay cell of ``repro bench --suite scale``.

    The 10^6-task cell runs only in the CI bench step (it is too slow
    for a unit test); this one keeps the same code path honest per push.
    """
    from repro.bench import SCALE_CELLS, run_scale_bench

    cell = next(c for c in SCALE_CELLS if c[0] == "scale_100k")

    report = benchmark.pedantic(
        lambda: run_scale_bench(cells=[cell]), rounds=1, iterations=1
    )
    (row,) = report["workloads"]
    print(f"\nscale_100k: {row['num_tasks']} tasks in "
          f"{row['wall_seconds']:.2f}s wall "
          f"({row['tasks_per_second']:,.0f} tasks/s)")
    assert row["num_tasks"] == cell[1] * cell[2]
    assert row["meets_floor"], (
        f"{row['tasks_per_second']} tasks/s below floor "
        f"{row['floor_tasks_per_second']}"
    )
