"""Meta-benchmark — the simulator's own throughput.

Unlike the figure benches (which measure *simulated* time), this suite
measures the wall-clock cost of running the discrete-event simulation,
as a regression guard over the fast dispatch path.  It runs the same
fixed three-workload matrix as ``python -m repro bench``
(:func:`repro.bench.bench_workloads`) and enforces a throughput floor
per workload:

* ``matmul16`` — the heaviest single configuration in the figure suite
  (7936 tasks with full storage contention).  The floor sits at 3x the
  pre-optimisation guard: incremental ready sets + memoized cost-model
  evaluation must keep paying for themselves.
* ``kmeans_deep`` — many short levels; guards the completion-event and
  ready-set churn path.
* ``wide_dag`` — wide levels under the data-locality policy; guards the
  indexed O(nodes) placement scoring.

Floors are conservative (CI machines are noisy); an order-of-magnitude
regression — e.g. locality dispatch sliding back to
O(ready x nodes x inputs) — still trips them reliably.
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
RATE_FLOORS = {
    "matmul16": 1500,
    "kmeans_deep": 1500,
    "wide_dag": 1500,
    "plain_replay": 9000,
}

#: Expected task counts — a silent workload change would quietly re-base
#: the floors, so pin the matrix shape too.
TASK_COUNTS = {
    "matmul16": 7936,
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
