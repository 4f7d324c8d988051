"""Differential harness: every run must equal the recorded oracle.

The flat-heap event core replaced the legacy object-per-event
``reference`` event core.  Before that core was deleted, every cell of
the kernel corpus (``tests/kernel_corpus.py``) was executed under it and
the trace digests were frozen into
``tests/golden/kernel_oracle_digests.json`` by
``scripts/record_kernel_oracle.py``.  Those digests are the oracle: the
simulator is only allowed to get *faster* than the core they were
recorded under — never different (task dispatch order, per-stage times,
attempt histories, makespan and failed-task sets, via
:func:`repro.tracing.trace_digest`).

Two layers:

* the corpus replayed against the frozen oracle digests — zero-latency
  clusters (every scheduler decision at one instant), fault plans,
  lineage recovery, speculation, checkpoint barriers, nonzero dispatch
  latency, GPU mode, and the same-instant completion-cascade shape;
* a Hypothesis property over random DAG shapes on zero-latency clusters,
  plus a hand-built DAG of cost-less tasks that commit at their launch
  instant: every run must pass the trace sanitizer and replay to the
  same digest.

A failure in the oracle layer means the simulator changed execution
semantics — fix the simulator, never the recorded digests.
"""

from __future__ import annotations

import json
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms import GeneratedDagWorkflow
from repro.hardware import StorageKind
from repro.runtime import Runtime, RuntimeConfig, SchedulingPolicy
from repro.tracing import trace_digest
from tests.kernel_corpus import corpus_cases, run_digest, zero_latency_cluster

ORACLE_PATH = pathlib.Path(__file__).parent / "golden" / "kernel_oracle_digests.json"
ORACLE_SCHEMA = "repro-kernel-oracle/1"


@pytest.fixture(scope="module")
def oracle() -> dict[str, str]:
    payload = json.loads(ORACLE_PATH.read_text())
    assert payload["schema"] == ORACLE_SCHEMA
    return payload["digests"]


_CASES = corpus_cases()


@pytest.mark.parametrize("name", sorted(_CASES))
def test_corpus_matches_recorded_oracle(name, oracle):
    """Every corpus cell must reproduce its frozen reference digest."""
    assert name in oracle, (
        f"corpus cell {name!r} has no recorded oracle digest; run "
        "scripts/record_kernel_oracle.py ONLY if the cell is new — "
        "existing digests must never be re-recorded to absorb a kernel "
        "change"
    )
    make_config, workflow = _CASES[name]
    digest = run_digest(make_config(), workflow)
    assert digest == oracle[name], (
        f"{name}: run diverged from the recorded oracle digest\n"
        f"  expected {oracle[name][:16]}...\n"
        f"  got      {digest[:16]}...\n"
        "The oracle was recorded under the legacy reference kernel before "
        "its removal; a mismatch means the simulator changed "
        "execution semantics.  Fix the simulator, never the recording."
    )


def test_oracle_covers_whole_corpus(oracle):
    """No corpus cell may silently drop out of the recorded oracle."""
    assert sorted(oracle) == sorted(_CASES)


# ------------------------------------- zero-latency runs stay sound

def _sanitized_digest(make_runtime) -> str:
    """Run a freshly built workflow under the sanitizer; digest its trace."""
    result = make_runtime().run(sanitize=True)
    assert result.sanitizer is not None and result.sanitizer.ok
    return trace_digest(result.trace, result.failed_task_ids)


@given(
    width=st.integers(min_value=2, max_value=10),
    depth=st.integers(min_value=1, max_value=6),
    fan_in=st.integers(min_value=1, max_value=4),
    block_mb=st.sampled_from([0.25, 1.0, 4.0]),
    seed=st.integers(min_value=0, max_value=2**16),
    num_nodes=st.integers(min_value=2, max_value=6),
    policy=st.sampled_from(sorted(SchedulingPolicy, key=lambda p: p.value)),
    storage=st.sampled_from(sorted(StorageKind, key=lambda s: s.value)),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_zero_latency_runs_sanitize_clean_and_repeat(
    width, depth, fan_in, block_mb, seed, num_nodes, policy, storage
):
    """Zero-latency dispatch must keep every trace invariant, repeatably.

    With no per-decision latency every placement of a ready batch shares
    one simulated instant, the densest interleaving of dispatch and
    completion the simulator produces.
    """
    workflow = GeneratedDagWorkflow(
        width=width, depth=depth, fan_in=fan_in, block_mb=block_mb, seed=seed
    )

    def make_runtime() -> Runtime:
        runtime = Runtime(
            RuntimeConfig(
                cluster=zero_latency_cluster(num_nodes),
                scheduling=policy,
                storage=storage,
                use_gpu=False,
            )
        )
        workflow.build(runtime)
        return runtime

    assert _sanitized_digest(make_runtime) == _sanitized_digest(make_runtime)


@pytest.mark.parametrize(
    "policy",
    sorted(SchedulingPolicy, key=lambda p: p.value),
    ids=lambda p: p.value,
)
def test_costless_tasks_commit_at_launch_instant(policy):
    """Tasks with no cost and zero-byte data finish the instant they start.

    Their completion releases successors while other ready tasks are
    still being placed at the same instant; the trace must stay sound
    and the run repeatable.
    """

    def make_runtime() -> Runtime:
        runtime = Runtime(
            RuntimeConfig(
                cluster=zero_latency_cluster(num_nodes=2),
                scheduling=policy,
                storage=StorageKind.LOCAL,
                use_gpu=False,
            )
        )
        seeds = [runtime.register_input(0, name=f"in{i}") for i in range(3)]
        roots = [runtime.submit("root", inputs=[ref])[0] for ref in seeds]
        roots.append(runtime.submit("source", inputs=[])[0])
        joins = [
            runtime.submit("join", inputs=[roots[i], roots[i + 1]])[0]
            for i in range(len(roots) - 1)
        ]
        runtime.submit("sink", inputs=joins)
        return runtime

    first = make_runtime().run(sanitize=True)
    assert first.makespan == 0.0
    assert first.trace.num_task_records == 8
    assert _sanitized_digest(make_runtime) == trace_digest(
        first.trace, first.failed_task_ids
    )
