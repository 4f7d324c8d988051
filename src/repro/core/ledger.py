"""Crash-consistent execution ledger: an append-only JSONL journal.

The sweep cache (:mod:`repro.core.experiments.cache`) memoises *what a
cell computed*; the ledger records *what an execution did* — every item
state transition of one logical run, durable enough to survive a SIGKILL
mid-sweep.  One line per event:

``PENDING → DISPATCHED → DONE | FAILED | QUARANTINED``

``DISPATCHED`` repeats per attempt (carrying the worker id and attempt
number), ``DONE`` carries the wall-clock duration and worker.  The
journal holds no results: the cache entry is written before ``DONE`` is
appended, so rerunning a killed sweep answers every journalled-finished
cell from the cache, and the journal stays an event log of where a
sweep's time went.

Crash consistency comes from the write discipline, not from locks: each
event is a single ``os.write`` of one complete line to an ``O_APPEND``
descriptor followed by ``fsync``, so after any kill the file is a valid
journal plus at most one torn final line, which :func:`replay_ledger`
drops.  Torn or foreign bytes *before* the final line mean real
corruption (two uncoordinated writers, disk damage) and raise
:class:`LedgerError` instead of being silently skipped.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

#: Journal format version, stamped on every session-open marker; it
#: changes whenever the event layout does, so a reader can tell layouts
#: apart within one appended-to file.
SCHEMA = "repro-ledger/2"

#: Item states, in lifecycle order.
PENDING = "PENDING"
DISPATCHED = "DISPATCHED"
DONE = "DONE"
FAILED = "FAILED"
QUARANTINED = "QUARANTINED"

#: Session marker (no item attached): OPEN starts one engine invocation.
OPEN = "OPEN"

STATES = frozenset({PENDING, DISPATCHED, DONE, FAILED, QUARANTINED})
MARKERS = frozenset({OPEN})
#: States that settle an item (no further transitions expected).
TERMINAL = frozenset({DONE, FAILED, QUARANTINED})


class LedgerError(RuntimeError):
    """The journal is corrupt beyond a torn final line."""


class ExecutionLedger:
    """Append-only event writer over one journal file.

    Single-writer by design: the pool parent (or the serial engine loop)
    is the only appender, so event order in the file is authoritative
    and no locking is needed.  Every event is fsync'd before
    :meth:`append` returns.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fd: int | None = None
        self._seq = 0

    # ------------------------------------------------------------ lifecycle
    def __enter__(self) -> "ExecutionLedger":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def _descriptor(self) -> int:
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
        return self._fd

    # -------------------------------------------------------------- writing
    def append(self, state: str, item: str | None = None, **fields: Any) -> dict:
        """Append one event; returns the written entry.

        ``state`` is one of :data:`STATES` (``item`` required) or
        :data:`MARKERS` (``item`` forbidden).  Extra ``fields`` (attempt,
        worker, duration, error, ...) are stored verbatim;
        ``None`` values are dropped.
        """
        if state in STATES:
            if item is None:
                raise ValueError(f"{state} events need an item")
        elif state in MARKERS:
            if item is not None:
                raise ValueError(f"{state} is a session marker, not an item event")
        else:
            raise ValueError(f"unknown ledger state {state!r}")
        entry: dict[str, Any] = {"seq": self._seq, "state": state}
        if item is not None:
            entry["item"] = item
        if state in MARKERS:
            entry["schema"] = SCHEMA
        entry.update(
            {key: value for key, value in fields.items() if value is not None}
        )
        line = (
            json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")
        fd = self._descriptor()
        os.write(fd, line)
        os.fsync(fd)
        self._seq += 1
        return entry

    def open_session(self, **fields: Any) -> dict:
        """Append the session marker that starts one engine invocation."""
        return self.append(OPEN, **fields)


# --------------------------------------------------------------- replay


@dataclass
class ItemState:
    """Where one item stood when the journal ended."""

    state: str
    attempts: int = 0
    worker: int | None = None
    duration: float | None = None
    #: The FAILED/QUARANTINED event's error.
    error: Any = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL


@dataclass
class LedgerState:
    """The replayed journal: per-item latest state plus file health."""

    items: dict[str, ItemState] = field(default_factory=dict)
    events: int = 0
    sessions: int = 0
    #: The final line was torn (interrupted write) and was dropped.
    torn: bool = False

    def by_state(self, state: str) -> list[str]:
        """Item ids currently in ``state``, sorted."""
        return sorted(k for k, v in self.items.items() if v.state == state)

    @property
    def done(self) -> list[str]:
        return self.by_state(DONE)

    @property
    def unfinished(self) -> list[str]:
        """Items seen but not settled when the journal ended."""
        return sorted(
            k for k, v in self.items.items() if v.state not in TERMINAL
        )


def iter_events(path: str | Path) -> Iterator[dict]:
    """Yield journal events in file order, dropping a torn final line.

    A line that fails to parse is tolerated only in final position
    (the signature of a write cut short by a kill); anywhere else it
    raises :class:`LedgerError`.
    """
    for _line, entry in _numbered_events(path):
        yield entry


def _numbered_events(path: str | Path) -> Iterator[tuple[int, dict]]:
    """:func:`iter_events` with each event's 1-based line number."""
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        return
    lines = raw.split(b"\n")
    # A well-formed journal ends with a newline, so the final split
    # element is empty; anything else is a torn tail.
    last = len(lines) - 1
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except ValueError as error:
            if index == last:
                return  # torn tail — the interrupted final append
            raise LedgerError(
                f"{path}: corrupt journal line {index + 1}: {error}"
            ) from error
        if not isinstance(entry, dict) or "state" not in entry:
            raise LedgerError(f"{path}: journal line {index + 1} is not an event")
        yield index + 1, entry


def replay_ledger(path: str | Path) -> LedgerState:
    """Fold the journal into per-item latest states.

    A missing file replays to an empty state.  The
    torn-tail flag is set when the raw file does not end in a newline,
    whether or not the tail parsed.  An event whose state this schema
    does not know (say, the ``RESUME`` marker of ``repro-ledger/1``
    journals), or an item event without an item, raises
    :class:`LedgerError` naming the line and the ``schema`` of the last
    session marker.
    """
    state = LedgerState()
    try:
        state.torn = not Path(path).read_bytes().endswith(b"\n")
    except FileNotFoundError:
        return state
    schema = None
    for line, entry in _numbered_events(path):
        state.events += 1
        kind = entry["state"]
        if kind in MARKERS:
            state.sessions += 1
            schema = entry.get("schema")
            continue
        if kind not in STATES or "item" not in entry:
            problem = (
                f"unknown state {kind!r}"
                if kind not in STATES
                else f"{kind} event without an item"
            )
            raise LedgerError(
                f"{path}: journal line {line}: {problem} "
                f"(last session schema {schema!r}, this reader {SCHEMA!r})"
            )
        item = str(entry["item"])
        current = state.items.get(item)
        if current is None:
            current = state.items[item] = ItemState(state=kind)
        current.state = kind
        if kind == DISPATCHED:
            current.attempts = int(entry.get("attempt", current.attempts + 1))
            current.worker = entry.get("worker", current.worker)
        elif kind == DONE:
            current.duration = entry.get("duration", current.duration)
            current.worker = entry.get("worker", current.worker)
        elif kind in (FAILED, QUARANTINED):
            current.error = entry.get("error")
    return state
