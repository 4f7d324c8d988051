"""Differential test: the sorted processor-sharing channel against a full rescan.

:class:`~repro.sim.BandwidthResource` keeps its in-flight jobs sorted by
remaining volume, reads the leader at index 0, scans only the prefix that
can hold a finished job, and caches the per-job rate.  Its correctness
rests on the monotonicity of IEEE-754 subtraction and division, so it
must reproduce the plain channel — settle every job, partition every
job, ``min()`` over every job — bit for bit.  ``ScanBandwidthResource``
below is that plain channel, kept verbatim as the oracle.  Hypothesis
drives both with the same random operation sequences and compares
completion times with ``==``, callback order, byte accounting, peak
concurrency and the engine events each run processes; after every event
the sorted channel's job list must be non-decreasing in remaining volume.

The last test pins a paper cell event for event: Fig 10 Matmul 16x16 on
``matmul_8gb`` under ``generation_order`` on shared disk (the channel's
heaviest cell) processes the same number of engine events and yields the
same trace digest and makespan as under the full-rescan channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.runtime.backends.simulated as simulated_backend
from repro.sim import BandwidthResource, SimEngine, SimulationError, Simulator
from repro.sim.resources import _RELATIVE_BYTE_EPSILON, _TIME_EPSILON

# ------------------------------------------------------ full-rescan oracle


class _ScanTransferJob:
    """A job in flight on a :class:`BandwidthResource`.

    The completion threshold ``max(eps_t * bandwidth, eps_b * size)`` is
    precomputed at submit time: recomputing it for every job on every
    completion event was the single hottest expression of a full DAG
    replay under the removed legacy rescan, and hoisting it keeps the
    per-scan work to one attribute compare per job.  The values are
    identical to what the legacy scan produced (same expression, same
    float64 inputs), so completion times — and therefore traces — still
    match the recorded reference-kernel oracle digests bit for bit.
    """

    __slots__ = ("size", "remaining", "threshold", "callback")

    def __init__(
        self, nbytes: float, threshold: float, callback: Callable[[], None]
    ) -> None:
        self.size = float(nbytes)
        self.remaining = float(nbytes)
        self.threshold = threshold
        self.callback = callback


class ScanBandwidthResource:
    """An egalitarian processor-sharing channel.

    All in-flight jobs advance simultaneously; each receives
    ``min(per_job_cap, bandwidth / n)`` bytes per second where ``n`` is the
    number of active jobs.  When a job joins or completes, every job's
    remaining volume is settled at the old rate before the new rate applies,
    which is the textbook PS-queue construction.

    ``latency`` is a fixed per-job startup delay (seek/RTT) applied before the
    job starts consuming bandwidth.

    The settle path precomputes each job's completion threshold at submit
    time and scans with a single-pass partition.  It performs the same
    sequence of IEEE-754 float64 operations the removed legacy rescan
    did, so completion times — and therefore traces — stay bit-identical
    to the recorded reference-kernel oracle digests.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        name: str = "",
        per_job_cap: float | None = None,
        latency: float = 0.0,
    ) -> None:
        if bandwidth <= 0:
            raise SimulationError(f"bandwidth must be positive, got {bandwidth}")
        if per_job_cap is not None and per_job_cap <= 0:
            raise SimulationError(f"per_job_cap must be positive, got {per_job_cap}")
        if latency < 0:
            raise SimulationError(f"latency must be non-negative, got {latency}")
        self._sim = sim
        self.bandwidth = float(bandwidth)
        self.per_job_cap = per_job_cap
        self.latency = latency
        self.name = name
        self._jobs: list[_ScanTransferJob] = []
        self._last_update = sim.now
        self._completion_event = None
        self._bytes_done = 0.0
        self._peak_jobs = 0

    @property
    def active_jobs(self) -> int:
        """Number of transfers currently in flight."""
        return len(self._jobs)

    @property
    def peak_jobs(self) -> int:
        """High-water mark of concurrent transfers."""
        return self._peak_jobs

    @property
    def bytes_transferred(self) -> float:
        """Total bytes completed so far."""
        return self._bytes_done

    def current_rate(self) -> float:
        """Per-job byte rate at this instant (0 when idle)."""
        if not self._jobs:
            return 0.0
        share = self.bandwidth / len(self._jobs)
        if self.per_job_cap is not None:
            share = min(share, self.per_job_cap)
        return share

    def submit(self, nbytes: float, callback: Callable[[], None]) -> None:
        """Transfer ``nbytes`` and invoke ``callback`` on completion."""
        if nbytes < 0:
            raise SimulationError(f"transfer size must be non-negative, got {nbytes}")
        if self.latency > 0:
            self._sim.schedule(self.latency, self._start_job, nbytes, callback)
        else:
            self._start_job(nbytes, callback)

    def _start_job(self, nbytes: float, callback: Callable[[], None]) -> None:
        if nbytes == 0:
            # Zero-byte transfers complete immediately (after latency).
            self._sim.schedule(0.0, callback)
            return
        self._settle()
        threshold = max(
            _TIME_EPSILON * self.bandwidth,
            _RELATIVE_BYTE_EPSILON * float(nbytes),
        )
        self._jobs.append(_ScanTransferJob(nbytes, threshold, callback))
        if len(self._jobs) > self._peak_jobs:
            self._peak_jobs = len(self._jobs)
        self._reschedule()

    def _settle(self) -> None:
        """Advance all in-flight jobs to the current time at the old rate."""
        elapsed = self._sim.now - self._last_update
        if elapsed > 0 and self._jobs:
            progressed = self.current_rate() * elapsed
            for job in self._jobs:
                job.remaining -= progressed
        self._last_update = self._sim.now

    def _reschedule(self) -> None:
        """(Re)arm the completion event for the job finishing soonest."""
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        jobs = self._jobs
        if not jobs:
            return
        rate = self.current_rate()
        soonest = min(job.remaining for job in jobs)
        delay = max(soonest / rate, 0.0)
        self._completion_event = self._sim.schedule(delay, self._complete_due)

    def _complete_due(self) -> None:
        """Completion scan: threshold partition, then fire callbacks.

        Decision sequence — threshold scan, ULP-resolution fallback, drop
        finished jobs *before* firing callbacks (completion callbacks
        resume processes synchronously and may re-submit).  The
        ULP fallback is a numerical guard: settle() round-off can leave
        the leader with a residue whose drain time is below the clock's
        resolution at the current simulated time — the event would
        re-fire at the same instant forever, so such jobs are treated as
        complete.  Finished jobs keep insertion order, preserving the
        callback order the recorded oracle digests were produced under.
        """
        self._completion_event = None
        self._settle()
        finished: list[_ScanTransferJob] = []
        survivors: list[_ScanTransferJob] = []
        for job in self._jobs:
            if job.remaining <= job.threshold:
                finished.append(job)
            else:
                survivors.append(job)
        if not finished:
            rate = self.current_rate()
            if rate > 0:
                resolution = 4.0 * math.ulp(max(self._sim.now, 1.0))
                survivors = []
                for job in self._jobs:
                    if job.remaining / rate <= resolution:
                        finished.append(job)
                    else:
                        survivors.append(job)
            if not finished:
                self._reschedule()
                return
        self._jobs = survivors
        self._reschedule()
        self._fire_completions(finished)

    def _fire_completions(self, finished: list) -> None:
        """Invoke completion callbacks in insertion order."""
        for job in finished:
            self._bytes_done += job.size
            job.callback()


# ---------------------------------------------------------------- scenarios


@dataclass(frozen=True)
class Scenario:
    """One channel configuration and the transfers submitted to it.

    Each op is ``(gap, size, follow_ups)``: ``gap`` seconds after the
    previous op (the first counts from ``start``) a transfer of ``size``
    bytes is submitted, and when it completes its callback submits
    ``follow_ups`` from inside the completion.
    """

    bandwidth: float
    per_job_cap: float | None
    latency: float
    start: float
    ops: tuple[tuple[float, float, tuple[float, ...]], ...]


_SIZES = st.one_of(
    st.floats(min_value=1e-3, max_value=1e10),
    st.sampled_from([1.0, 64.0, 1e4, 1e5, 8e5, 1e7, 39e6, 5e8, 1e10, 2e10]),
)
_GAPS = st.one_of(st.sampled_from([0.0, 0.0, 1e-3]), st.floats(0.0, 5.0))


@st.composite
def scenarios(draw) -> Scenario:
    # A small palette of sizes makes equal remaining volumes (ties) common;
    # 0.0 adds zero-byte and, with a latency, latency-only transfers.
    palette = draw(st.lists(_SIZES, min_size=1, max_size=4))
    size = st.sampled_from([*palette, 0.0])
    ops = draw(
        st.lists(
            st.tuples(_GAPS, size, st.lists(size, max_size=2).map(tuple)),
            min_size=1,
            max_size=40,
        )
    )
    return Scenario(
        bandwidth=draw(
            st.one_of(st.sampled_from([60.0, 1e6, 2e9, 3e9]), st.floats(1e-2, 1e10))
        ),
        per_job_cap=draw(
            st.one_of(st.none(), st.sampled_from([0.25e9, 2e9]), st.floats(1e-3, 1e10))
        ),
        latency=draw(st.sampled_from([0.0, 0.0, 1e-4, 0.5])),
        start=draw(st.one_of(st.sampled_from([0.0, 1e4, 1e5]), st.floats(0.0, 1e5))),
        ops=tuple(ops),
    )


def replay(channel_cls, scenario: Scenario, after_event: Callable | None = None):
    """Run ``scenario`` on a fresh channel; return everything observable."""
    sim = Simulator()
    channel = channel_cls(
        sim,
        scenario.bandwidth,
        per_job_cap=scenario.per_job_cap,
        latency=scenario.latency,
    )
    log: list[tuple[str, float]] = []

    def on_done(label: str, follow_ups: tuple[float, ...]) -> Callable[[], None]:
        def done() -> None:
            log.append((label, sim.now))
            for i, size in enumerate(follow_ups):
                channel.submit(size, on_done(f"{label}.{i}", ()))

        return done

    at = scenario.start
    for i, (gap, size, follow_ups) in enumerate(scenario.ops):
        at += gap
        sim.schedule(at, channel.submit, size, on_done(str(i), follow_ups))
    # A handful of events per transfer; far more means the completion event
    # re-fires without finishing anything, so fail instead of hanging.
    event_budget = 100 + 50 * sum(1 + len(f) for _, _, f in scenario.ops)
    while sim.step():
        assert sim.processed_events < event_budget, "completion livelock"
        if after_event is not None:
            after_event(channel)
    return log, channel.bytes_transferred, channel.peak_jobs, sim.processed_events


def assert_sorted(channel: BandwidthResource) -> None:
    remaining = [job.remaining for job in channel._jobs]
    assert all(a <= b for a, b in zip(remaining, remaining[1:])), remaining


# Shapes at simulated clocks of 1e5 s where the ULP completion fallback
# (a residue above its threshold that cannot advance the clock) finishes
# jobs: short transfers on a fast channel, some with follow-ups.
_LARGE_CLOCK = (
    Scenario(3e9, None, 0.0, 1e5, tuple((1e-3, 1e5, ()) for _ in range(16))),
    Scenario(3e9, None, 1e-4, 1e5, tuple((1e-3, s, (s,)) for s in (1e5, 1e7) * 8)),
    Scenario(3e9, 2e9, 0.0, 1e5, tuple((1e-3, 1e6, ()) for _ in range(16))),
)


# A large job finishing with small ones at 1e5 s: its size-relative
# threshold covers its residue while a small job sorted before it is still
# above its own, so a completion scan must not stop at the first job left
# unfinished.
_MIXED_THRESHOLDS = Scenario(
    2e9, None, 0.0, 1e5, ((0.0, 2e10, ()),) + ((0.0, 1e6, ()),) * 3
)

# Two jobs that finish in one completion event with residues whose order
# is not their start order: callbacks must still fire in start order.
_SAME_INSTANT = Scenario(
    100.0, None, 0.0, 1e4, ((0.0, 100.0, ()), (1.0, 90.0, ()), (0.3, 60.0, ()))
)


@settings(max_examples=300, deadline=None)
@given(scenarios())
@example(_LARGE_CLOCK[0])
@example(_LARGE_CLOCK[1])
@example(_LARGE_CLOCK[2])
@example(_MIXED_THRESHOLDS)
@example(_SAME_INSTANT)
def test_sorted_channel_matches_full_rescan(scenario):
    log, done_bytes, peak, events = replay(BandwidthResource, scenario, assert_sorted)
    oracle = replay(ScanBandwidthResource, scenario)
    # Tuple equality compares the completion times with ``==``: bit-equal.
    assert log == oracle[0]
    assert (done_bytes, peak, events) == oracle[1:]
    assert len(log) == sum(1 + len(follow_ups) for _, _, follow_ups in scenario.ops)


@pytest.mark.parametrize("scenario", _LARGE_CLOCK)
def test_large_clock_shapes_take_the_ulp_fallback(scenario):
    # A job finished with its residue still above its threshold can only
    # have been finished by the ULP fallback; these shapes must reach it,
    # or the differential examples above would not cover it.
    fallback = []

    class Recording(BandwidthResource):
        def _fire_completions(self, finished):
            fallback.extend(job for job in finished if job.remaining > job.threshold)
            super()._fire_completions(finished)

    replay(Recording, scenario)
    assert fallback


# ------------------------------------------------------- paper cell, pinned


def test_fifo_matmul16_shared_cell_is_event_for_event_equal(monkeypatch):
    from repro.algorithms import MatmulWorkflow
    from repro.data import paper_datasets
    from repro.hardware import StorageKind, minotauro
    from repro.runtime import Runtime, RuntimeConfig, SchedulingPolicy
    from repro.tracing import trace_digest

    engines: list[SimEngine] = []

    class RecordingEngine(SimEngine):
        def __init__(self) -> None:
            super().__init__()
            engines.append(self)

    monkeypatch.setattr(simulated_backend, "Simulator", RecordingEngine)
    runtime = Runtime(
        RuntimeConfig(
            cluster=minotauro(),
            storage=StorageKind.SHARED,
            scheduling=SchedulingPolicy.GENERATION_ORDER,
            use_gpu=False,
        )
    )
    MatmulWorkflow(paper_datasets()["matmul_8gb"], grid=16).build(runtime)
    result = runtime.run()
    # Recorded under the full-rescan channel.
    assert [engine.processed_events for engine in engines] == [134_913]
    assert result.makespan == 269.8048853758759
    assert trace_digest(result.trace) == (
        "ba201e346fccb82141983652521ae7380f7af5f1ab994878e95651443dce7997"
    )
