"""Execution-ledger contracts: append/replay round-trips, crash
consistency (torn tails tolerated, mid-file corruption refused), and the
replay bookkeeping (`done`, `unfinished`) a sweep report reads."""

import json

import pytest

from repro.core.ledger import (
    DISPATCHED,
    DONE,
    FAILED,
    OPEN,
    PENDING,
    QUARANTINED,
    SCHEMA,
    ExecutionLedger,
    LedgerError,
    iter_events,
    replay_ledger,
)


def _journal(tmp_path):
    return tmp_path / "ledger.jsonl"


class TestAppend:
    def test_round_trip_through_replay(self, tmp_path):
        path = _journal(tmp_path)
        with ExecutionLedger(path) as ledger:
            ledger.open_session()
            ledger.append(PENDING, item="a")
            ledger.append(DISPATCHED, item="a", worker=0, attempt=1)
            ledger.append(DONE, item="a", worker=0, duration=0.25)
        state = replay_ledger(path)
        assert state.sessions == 1
        assert state.events == 4
        assert not state.torn
        assert state.done == ["a"]
        item = state.items["a"]
        assert item.terminal
        assert item.attempts == 1
        assert item.worker == 0
        assert item.duration == 0.25

    def test_seq_is_monotonic_and_none_fields_dropped(self, tmp_path):
        path = _journal(tmp_path)
        with ExecutionLedger(path) as ledger:
            ledger.append(PENDING, item="a", worker=None)
            ledger.append(PENDING, item="b")
        entries = list(iter_events(path))
        assert [e["seq"] for e in entries] == [0, 1]
        assert "worker" not in entries[0]

    def test_states_require_items_and_markers_refuse_them(self, tmp_path):
        with ExecutionLedger(_journal(tmp_path)) as ledger:
            with pytest.raises(ValueError, match="need an item"):
                ledger.append(DONE)
            with pytest.raises(ValueError, match="session marker"):
                ledger.append(OPEN, item="a")
            with pytest.raises(ValueError, match="unknown ledger state"):
                ledger.append("EXPLODED", item="a")

    def test_session_markers_carry_the_schema(self, tmp_path):
        path = _journal(tmp_path)
        with ExecutionLedger(path) as ledger:
            ledger.open_session(fingerprint="abc")
        (opened,) = iter_events(path)
        assert opened["state"] == OPEN and opened["schema"] == SCHEMA
        assert opened["fingerprint"] == "abc"

    def test_appends_survive_reopening(self, tmp_path):
        """Two sequential writers (a killed run, then its rerun) extend
        one journal."""
        path = _journal(tmp_path)
        with ExecutionLedger(path) as ledger:
            ledger.append(PENDING, item="a")
        with ExecutionLedger(path) as ledger:
            ledger.append(DONE, item="a")
        state = replay_ledger(path)
        assert state.done == ["a"]
        assert state.events == 2


class TestCrashConsistency:
    def test_missing_file_replays_empty(self, tmp_path):
        state = replay_ledger(_journal(tmp_path))
        assert state.items == {} and state.events == 0 and not state.torn

    def test_torn_final_line_is_dropped(self, tmp_path):
        """A SIGKILL mid-append leaves a partial last line; replay keeps
        everything before it and flags the tear."""
        path = _journal(tmp_path)
        with ExecutionLedger(path) as ledger:
            ledger.append(PENDING, item="a")
            ledger.append(DONE, item="a", duration=2.0)
        raw = path.read_bytes()
        path.write_bytes(raw + b'{"seq": 2, "state": "DIS')  # cut mid-write
        state = replay_ledger(path)
        assert state.torn
        assert state.events == 2
        assert state.done == ["a"]

    def test_mid_file_corruption_raises(self, tmp_path):
        """Garbage *before* the final line is not a torn append — it means
        two uncoordinated writers or disk damage, and replay must refuse
        to guess."""
        path = _journal(tmp_path)
        with ExecutionLedger(path) as ledger:
            ledger.append(PENDING, item="a")
        raw = path.read_bytes()
        path.write_bytes(b"not json at all\n" + raw)
        with pytest.raises(LedgerError, match="corrupt journal line 1"):
            list(iter_events(path))

    def test_non_event_entries_raise(self, tmp_path):
        path = _journal(tmp_path)
        path.write_text(json.dumps({"no_state": True}) + "\n")
        with pytest.raises(LedgerError, match="not an event"):
            list(iter_events(path))


class TestReplayBookkeeping:
    def test_latest_state_wins_and_attempts_accumulate(self, tmp_path):
        path = _journal(tmp_path)
        with ExecutionLedger(path) as ledger:
            ledger.append(PENDING, item="a")
            ledger.append(DISPATCHED, item="a", worker=0, attempt=1)
            ledger.append(DISPATCHED, item="a", worker=2, attempt=2)
            ledger.append(FAILED, item="a", error="ValueError: boom")
        item = replay_ledger(path).items["a"]
        assert item.state == FAILED
        assert item.attempts == 2
        assert item.worker == 2
        assert item.error == "ValueError: boom"

    def test_done_records_and_unfinished_partition_the_items(self, tmp_path):
        path = _journal(tmp_path)
        with ExecutionLedger(path) as ledger:
            ledger.append(DONE, item="done1", duration=1.0)
            ledger.append(DONE, item="done2", duration=2.0)
            ledger.append(PENDING, item="never_started")
            ledger.append(DISPATCHED, item="in_flight", attempt=1)
            ledger.append(QUARANTINED, item="poison", error="killed workers")
        state = replay_ledger(path)
        assert state.done == ["done1", "done2"]
        assert state.items["done2"].duration == 2.0
        assert state.unfinished == ["in_flight", "never_started"]
        assert state.by_state(QUARANTINED) == ["poison"]
        assert state.items["poison"].terminal


class TestForeignEvents:
    """Events this schema does not know are refused, not half-replayed."""

    def test_v1_resume_marker_raises_ledger_error(self, tmp_path):
        # A journal as the repro-ledger/1 writer left it: a finished
        # session, then a RESUME session marker (which carries no item).
        path = _journal(tmp_path)
        v1 = [
            {"seq": 0, "state": "OPEN", "schema": "repro-ledger/1", "jobs": 1},
            {"seq": 1, "state": "PENDING", "item": "a"},
            {"seq": 2, "state": "DISPATCHED", "item": "a", "attempt": 1},
            {"seq": 3, "state": "DONE", "item": "a", "record": {"ok": True}},
            {"seq": 0, "state": "RESUME", "schema": "repro-ledger/1", "jobs": 1},
            {"seq": 1, "state": "PENDING", "item": "b"},
        ]
        path.write_text("".join(json.dumps(e) + "\n" for e in v1))
        with pytest.raises(LedgerError) as raised:
            replay_ledger(path)
        message = str(raised.value)
        assert "journal line 5" in message
        assert "'RESUME'" in message
        assert "repro-ledger/1" in message

    def test_item_event_without_item_raises(self, tmp_path):
        path = _journal(tmp_path)
        with ExecutionLedger(path) as ledger:
            ledger.open_session(jobs=1)
        with path.open("a") as journal:
            journal.write(json.dumps({"seq": 1, "state": DONE}) + "\n")
        expected = f"line 2: DONE event without an item.*{SCHEMA}"
        with pytest.raises(LedgerError, match=expected):
            replay_ledger(path)

    def test_unknown_state_before_any_session_marker(self, tmp_path):
        path = _journal(tmp_path)
        path.write_text(json.dumps({"seq": 0, "state": "BOGUS", "item": "a"}) + "\n")
        with pytest.raises(LedgerError, match="line 1: unknown state 'BOGUS'.*None"):
            replay_ledger(path)
