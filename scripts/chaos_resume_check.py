"""End-to-end proof of crash recovery: SIGKILL a chaotic sweep, rerun it.

The CI ``chaos-shard`` job runs this script.  It

1. launches a child process that sweeps the bench cell matrix through a
   sharded :class:`~repro.core.experiments.engine.SweepEngine` under a
   seeded :class:`~repro.core.chaos.ChaosPlan` (worker kills + slowdowns,
   so the run both loses workers and takes long enough to be killed),
2. SIGKILLs the child's whole process group once the execution ledger
   shows a few cells DONE but not all of them — a hard mid-sweep death,
3. checks that every cell the journal shows DONE has a cache entry (the
   engine writes the entry before it appends DONE), then runs the same
   sweep again in-process with a plain engine — no flag — and asserts

   * every cell cached before the restart is answered from the cache
     (``stats.cache_hits`` == cache entries before the restart: 100%
     cache-driven skip),
   * only the rest is simulated (``executed == cells - cache_hits``),
   * no cached cell, and so no cell DONE before the kill, is
     dispatched after the rerun's OPEN marker, and
   * the journal ends showing every cell DONE.

Run it directly (no arguments) from the repository root:

    PYTHONPATH=src python scripts/chaos_resume_check.py
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import sweep_bench_cells  # noqa: E402
from repro.core import ledger as ledger_module  # noqa: E402
from repro.core.chaos import ChaosPlan  # noqa: E402
from repro.core.experiments.cache import SweepCache  # noqa: E402
from repro.core.experiments.engine import (  # noqa: E402
    SweepEngine,
    cell_digest,
    model_fingerprint,
)
from repro.core.supervise import SupervisionPolicy  # noqa: E402

#: Kill the child once this many cells are DONE (and not all of them).
KILL_AFTER_DONE = 3

#: Give up if the child makes no progress for this long.
CHILD_TIMEOUT = 180.0


def chaos_plan() -> ChaosPlan:
    """Kills + heavy slowdowns: real crashes, and enough wall-clock that
    the parent reliably lands its SIGKILL mid-sweep."""
    return ChaosPlan(
        seed=13,
        kill_probability=0.25,
        slow_probability=0.5,
        slow_seconds=(0.3, 0.8),
        fault_attempts=1,
    )


def policy() -> SupervisionPolicy:
    return SupervisionPolicy(
        item_deadline=30.0,
        heartbeat_interval=1.0,
        heartbeat_grace=5.0,
        max_attempts=3,
        backoff_base=0.05,
        allow_degraded=True,
    )


def child_main(cache_dir: str) -> int:
    """The victim: a chaotic sharded sweep that expects to be killed."""
    with SweepEngine(
        jobs=2, cache_dir=cache_dir, policy=policy(), chaos=chaos_plan()
    ) as engine:
        engine.run_cells(sweep_bench_cells())
        print(engine.stats.line())
    return 0


def wait_for_done(ledger_path: Path, child: subprocess.Popen, want: int) -> int:
    """Poll the journal until ``want`` cells are DONE; returns the count."""
    deadline = time.monotonic() + CHILD_TIMEOUT
    while time.monotonic() < deadline:
        done = len(ledger_module.replay_ledger(ledger_path).done)
        if done >= want:
            return done
        if child.poll() is not None:
            return len(ledger_module.replay_ledger(ledger_path).done)
        time.sleep(0.05)
    raise SystemExit(f"child made no progress within {CHILD_TIMEOUT:.0f}s")


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        return child_main(sys.argv[2])

    cells = sweep_bench_cells()
    fingerprint = model_fingerprint()
    digests = {cell_digest(spec, fingerprint) for spec in cells}

    with tempfile.TemporaryDirectory(prefix="repro-chaos-resume-") as tmp:
        cache_dir = str(Path(tmp) / "sweeps")
        ledger_path = Path(cache_dir) / "ledger.jsonl"

        # New session so the SIGKILL reaches the child's pool workers too,
        # exactly like an OOM-killer or job-scheduler kill would.
        child = subprocess.Popen(
            [sys.executable, __file__, "--child", cache_dir],
            start_new_session=True,
        )
        try:
            done_count = wait_for_done(ledger_path, child, KILL_AFTER_DONE)
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup path
                os.killpg(child.pid, signal.SIGKILL)

        before = ledger_module.replay_ledger(ledger_path)
        done_before = set(before.done)
        print(
            f"[parent] killed child after {done_count} DONE cells "
            f"(journal: {before.events} events, torn={before.torn}, "
            f"unfinished={len(before.unfinished)})"
        )
        assert done_before, "child was killed before finishing any cell"
        assert done_before <= digests, "ledger holds cells the sweep never ran"
        if done_before == digests:
            raise SystemExit(
                "child finished every cell before the kill; nothing to "
                "rerun — lower KILL_AFTER_DONE or slow the chaos plan"
            )

        # The cache entry is written before DONE, so every DONE cell is
        # cached; a cell killed between the two is cached but not DONE.
        cached = {path.stem for path in SweepCache(cache_dir).iter_paths()}
        missing = done_before - cached
        assert not missing, f"{len(missing)} DONE cell(s) have no cache entry"
        assert cached <= digests, "cache holds cells the sweep never ran"

        with SweepEngine(jobs=2, cache_dir=cache_dir) as engine:
            results = engine.run_cells(cells)
            stats = engine.stats
            print(stats.line())

        assert len(results) == len(cells), "rerun did not complete"
        assert stats.cache_hits == len(cached), (
            f"cache-driven skip was not 100%: {stats.cache_hits} hits "
            f"vs {len(cached)} cache entries before the restart"
        )
        assert stats.executed == len(digests) - stats.cache_hits, (
            "rerun re-simulated cells the cache already held"
        )

        # No cached cell may be dispatched after the rerun's OPEN marker
        # (the second one in the journal).
        redispatched = set()
        sessions = 0
        for entry in ledger_module.iter_events(ledger_path):
            if entry["state"] == ledger_module.OPEN:
                sessions += 1
            elif (
                sessions >= 2
                and entry["state"] == ledger_module.DISPATCHED
                and entry["item"] in cached
            ):
                redispatched.add(entry["item"])
        assert sessions == 2, f"journal holds {sessions} sessions, expected 2"
        assert not redispatched, (
            f"{len(redispatched)} cached cell(s) re-dispatched after restart"
        )

        after = ledger_module.replay_ledger(ledger_path)
        assert set(after.done) == digests, "journal does not show a full sweep"

    print(
        f"[parent] OK: restart skipped {stats.cache_hits}/{len(digests)} "
        f"cells from the cache ({len(done_before)} DONE before the kill) "
        f"and simulated the remaining {stats.executed}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
