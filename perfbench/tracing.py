"""Span recorder for the traced run, and the wrappers that feed it.

The wrappers time calls into each layer's public entry points from the
benchmark's side of the boundary: the program itself carries no tracing
code.  A span records its name, start, end, parent span and operation
id.  Spans live in per-thread lists in memory and are written out once,
when the run ends.

A layer's self time is the duration of its spans minus the time covered
by their child spans.  Executor spans opened while a trigger-engine span
is on the stack are renamed ``triggers.execute``: condition and action
queries are the trigger layer's work, not the application's.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from time import perf_counter
from typing import Any, Callable, Iterator

#: Span names, one per wrapped entry point (the layer is the first part).
OP = "bench.op"
PARSE = "cypher.parse"
PLAN = "cypher.plan"
EXECUTE = "cypher.execute"
SESSION = "session.run"
END_STATEMENT = "tx.end_statement"
COMMIT = "tx.commit"
LOCK_WAIT = "tx.lock_wait"
ENGINE = "triggers.engine"
TRIGGER_EXECUTE = "triggers.execute"
ENCODE = "storage.encode"
APPEND = "storage.append"
FSYNC = "storage.fsync"
CHECKPOINT = "storage.checkpoint"
WIRE = "server.wire"


class Recorder:
    """Collects spans from every thread while ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self.bytes_written = 0
        self._local = threading.local()
        self._lists: list[list[list[Any]]] = []
        self._lists_lock = threading.Lock()
        self._op_ids = itertools.count()

    def _state(self):
        state = self._local
        if not hasattr(state, "spans"):
            state.spans = []
            state.stack = []
            state.op = -1
            with self._lists_lock:
                self._lists.append(state.spans)
        return state

    def begin(self, name: str) -> int:
        """Open a span; a span opened with none open starts a new operation."""
        if not self.enabled:
            return -1
        state = self._state()
        stack = state.stack
        if stack:
            parent = stack[-1]
        else:
            parent = -1
            state.op = next(self._op_ids)
        spans = state.spans
        index = len(spans)
        spans.append([name, perf_counter(), 0.0, parent, state.op])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        if index < 0:
            return
        state = self._local
        state.spans[index][2] = perf_counter()
        state.stack.pop()

    def span_lists(self) -> list[list[list[Any]]]:
        with self._lists_lock:
            return [list(spans) for spans in self._lists if spans]

    def dump(self, path: str) -> int:
        """Write every span as one JSON line; returns how many were written."""
        count = 0
        with open(path, "w", encoding="utf-8") as out:
            for thread, spans in enumerate(self.span_lists()):
                for index, (name, start, end, parent, op) in enumerate(spans):
                    out.write(json.dumps([thread, index, name, start, end, parent, op]))
                    out.write("\n")
                    count += 1
        return count


#: A recorder that is never enabled, for the untraced loops.
OFF = Recorder()


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def layer_totals(span_lists: list[list[list[Any]]]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, total ``wall_s`` and ``self_s``.

    Spans left open (``end`` still 0) are skipped; their children then
    count as top-level time of their own.
    """
    totals: dict[str, dict[str, float]] = {}
    for spans in span_lists:
        count = len(spans)
        child_time = [0.0] * count
        under_engine = [False] * count
        names = [""] * count
        for index, (name, start, end, parent, _op) in enumerate(spans):
            if end == 0.0:
                continue
            engine_above = parent >= 0 and (under_engine[parent] or names[parent] == ENGINE)
            under_engine[index] = engine_above
            if name == EXECUTE and engine_above:
                name = TRIGGER_EXECUTE
            names[index] = name
            if parent >= 0:
                child_time[parent] += end - start
        for index, (_name, start, end, _parent, _op) in enumerate(spans):
            if end == 0.0:
                continue
            entry = totals.setdefault(names[index], {"calls": 0, "wall_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["wall_s"] += end - start
            entry["self_s"] += (end - start) - child_time[index]
    return totals


# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------


class _Patches:
    """Remembers every replaced attribute so :meth:`undo` restores it."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any, bool]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        for owner, attr, saved, had_own in reversed(self._saved):
            if had_own:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)
        self._saved.clear()


def _timed(recorder: Recorder, name: str) -> Callable[[Callable], Callable]:
    def make(original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = recorder.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.end(index)

        return wrapper

    return make


def _timed_rows(recorder: Recorder, rows: Iterator) -> Iterator:
    """Time every pull of an executor's row iterator as an execute span."""
    rows = iter(rows)
    while True:
        index = recorder.begin(EXECUTE)
        try:
            row = next(rows)
        except StopIteration:
            recorder.end(index)
            return
        except BaseException:
            recorder.end(index)
            raise
        recorder.end(index)
        yield row


def _timed_stream(recorder: Recorder) -> Callable[[Callable], Callable]:
    def make(original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = recorder.begin(EXECUTE)
            try:
                columns, rows = original(*args, **kwargs)
            finally:
                recorder.end(index)
            return columns, _timed_rows(recorder, rows)

        return wrapper

    return make


class _TimedEnter:
    """A context manager whose ``__enter__`` (lock acquisition) is a span."""

    __slots__ = ("_inner", "_recorder")

    def __init__(self, inner, recorder: Recorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def __enter__(self):
        index = self._recorder.begin(LOCK_WAIT)
        try:
            return self._inner.__enter__()
        finally:
            self._recorder.end(index)

    def __exit__(self, *exc_info):
        return self._inner.__exit__(*exc_info)


def _timed_lock(recorder: Recorder) -> Callable[[Callable], Callable]:
    def make(original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return _TimedEnter(original(*args, **kwargs), recorder)

        return wrapper

    return make


def _counted_bytes(recorder: Recorder) -> Callable[[Callable], Callable]:
    """Count the bytes handed to a file write (no span: the caller's covers it)."""

    def make(original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(self, path, data):
            result = original(self, path, data)
            if recorder.enabled:
                recorder.bytes_written += len(data)
            return result

        return wrapper

    return make


def instrument(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer's public entry points; returns the undo function.

    Entry points are replaced where their callers look them up: class
    attributes for methods, the plan-cache instance for its methods, and
    the importing module's global for the storage codec functions and the
    server's wire encoder.
    """
    from repro.cypher.executor import QueryExecutor
    from repro.cypher.planner import PLAN_CACHE
    from repro.server import app as server_app
    from repro.storage import io as storage_io
    from repro.storage import store as storage_store
    from repro.storage import wal as storage_wal
    from repro.triggers.engine import TriggerEngine
    from repro.triggers.session import GraphSession
    from repro.tx.locks import LockManager
    from repro.tx.manager import TransactionManager
    from repro.tx.transaction import Transaction

    patches = _Patches()
    timed = functools.partial(_timed, recorder)
    patches.replace(PLAN_CACHE, "parse", timed(PARSE))
    patches.replace(PLAN_CACHE, "get", timed(PLAN))
    patches.replace(PLAN_CACHE, "get_for_parsed", timed(PLAN))
    patches.replace(QueryExecutor, "stream", _timed_stream(recorder))
    patches.replace(QueryExecutor, "stream_batch", _timed_stream(recorder))
    patches.replace(GraphSession, "run", timed(SESSION))
    patches.replace(Transaction, "end_statement", timed(END_STATEMENT))
    patches.replace(TransactionManager, "commit", timed(COMMIT))
    patches.replace(LockManager, "read", _timed_lock(recorder))
    patches.replace(LockManager, "write", _timed_lock(recorder))
    for entry in ("run_statement_triggers", "run_commit_triggers", "run_detached_triggers"):
        patches.replace(TriggerEngine, entry, timed(ENGINE))
    patches.replace(storage_store, "encode_delta", timed(ENCODE))
    patches.replace(storage_wal, "encode_record", timed(ENCODE))
    patches.replace(storage_wal.WriteAheadLog, "append", timed(APPEND))
    patches.replace(storage_io.FileIO, "fsync", timed(FSYNC))
    patches.replace(storage_io.FileIO, "append_bytes", _counted_bytes(recorder))
    patches.replace(storage_io.FileIO, "write_bytes", _counted_bytes(recorder))
    patches.replace(storage_store.DurableStore, "checkpoint", timed(CHECKPOINT))
    patches.replace(server_app, "record_to_wire", timed(WIRE))
    return patches.undo


# ---------------------------------------------------------------------------
# counter harvest
# ---------------------------------------------------------------------------


TIERS = ("incremental", "batched", "sequential", "predicate")


def harvest(session) -> dict[str, int]:
    """Counters the program already exposes through public APIs.

    Plan-cache statistics (process-wide), trigger firings and suppressions
    from ``firing_summary()``, evaluation-tier runs from
    ``evaluation_report()``, and the session's committed transactions.
    Callers take the difference of two harvests.
    """
    from repro.cypher.planner import PLAN_CACHE

    counters = {f"cache.{key}": value for key, value in PLAN_CACHE.stats.snapshot().items()}
    counters.update({"executed": 0, "suppressed": 0, "committed": session.manager.committed_count})
    counters.update({f"tier.{tier}": 0 for tier in TIERS})
    for stats in session.engine.firing_summary().values():
        counters["executed"] += stats["executed"]
        counters["suppressed"] += stats["suppressed"]
    for entry in session.engine.evaluation_report().values():
        for tier, runs in entry["tiers"].items():
            counters[f"tier.{tier}"] = counters.get(f"tier.{tier}", 0) + runs
    return counters


def counter_delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {key: value - before.get(key, 0) for key, value in after.items()}
