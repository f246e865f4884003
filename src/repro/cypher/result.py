"""Query results: the lazily-consumed :class:`Result` and its eager shim.

:class:`Result` is the driver-style result the public API hands out
(`GraphDatabase` / `GraphSession.run`): records stream out of the
executor's pull pipeline one at a time, so iterating stops the underlying
matching work as soon as the consumer does (``LIMIT``, :meth:`Result.single`,
an early ``break``).  :meth:`Result.consume` discards the remaining records
and returns a :class:`ResultSummary` with the write counters, the planner's
access-path description and wall-clock timings.

:class:`QueryResult` is the original eager result object, kept as a thin
**deprecated** compatibility shim: the executor still uses it internally
for fully-materialised execution, but new code should consume
:class:`Result` (every eager accessor — ``rows``, ``values``, ``len`` … —
exists on :class:`Result` too, at the cost of materialising the stream).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional


class ResultConsumedError(Exception):
    """Records were requested from a :class:`Result` that no longer has any.

    Raised — matching driver semantics — when a result is iterated (or
    ``peek``/``single``/eagerly accessed) after its record stream was
    finalised by :meth:`Result.consume`, :meth:`Result.close` or a
    previous full iteration.  The remaining records were discarded at that
    point; returning an empty iterator instead would silently hide the
    consumer bug.  ``summary()``/``consume()``/``keys()`` remain valid on
    a consumed result.
    """


@dataclass
class QueryStatistics:
    """Counters describing the write effects of one query execution."""

    nodes_created: int = 0
    nodes_deleted: int = 0
    relationships_created: int = 0
    relationships_deleted: int = 0
    labels_added: int = 0
    labels_removed: int = 0
    properties_set: int = 0
    properties_removed: int = 0

    def contains_updates(self) -> bool:
        """True when the query changed anything."""
        return any(
            value
            for value in (
                self.nodes_created,
                self.nodes_deleted,
                self.relationships_created,
                self.relationships_deleted,
                self.labels_added,
                self.labels_removed,
                self.properties_set,
                self.properties_removed,
            )
        )

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (stable key order, handy for asserts and reports)."""
        return {
            "nodes_created": self.nodes_created,
            "nodes_deleted": self.nodes_deleted,
            "relationships_created": self.relationships_created,
            "relationships_deleted": self.relationships_deleted,
            "labels_added": self.labels_added,
            "labels_removed": self.labels_removed,
            "properties_set": self.properties_set,
            "properties_removed": self.properties_removed,
        }


class ResultSummary:
    """Metadata about one executed query, available once its result is consumed.

    ``counters`` is the :class:`QueryStatistics` of the execution; ``plan``
    is the planner's EXPLAIN-style access-path description; the two timing
    fields are wall-clock milliseconds measured by the session
    (``result_available_after``: run() call to first record available;
    ``result_consumed_after``: run() call to stream exhausted).
    ``trigger_evaluation`` — present when the statement went through the
    trigger engine with triggers installed (streamed reads never do) —
    is the engine's per-trigger evaluation report at the time
    the statement finished: which tier handled each run (incremental /
    sequential / predicate), demotions with reasons, and the
    condition views' maintenance counters.  Counters are cumulative over
    the session, so diffing two statements' summaries isolates one
    statement's work.
    """

    def __init__(
        self,
        *,
        query: str | None = None,
        parameters: Mapping[str, Any] | None = None,
        counters: QueryStatistics | None = None,
        plan: str | None = None,
        result_available_after: float | None = None,
        result_consumed_after: float | None = None,
        trigger_evaluation: Mapping[str, Any] | None = None,
    ) -> None:
        self.query = query
        self.parameters = dict(parameters or {})
        self.counters = counters if counters is not None else QueryStatistics()
        self.plan = plan
        self.result_available_after = result_available_after
        self.result_consumed_after = result_consumed_after
        self.trigger_evaluation = dict(trigger_evaluation) if trigger_evaluation else None

    @property
    def statistics(self) -> QueryStatistics:
        """Alias for :attr:`counters` (matches ``QueryResult.statistics``)."""
        return self.counters

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly view, including the full counter dictionary."""
        return {
            "query": self.query,
            "parameters": dict(self.parameters),
            "counters": self.counters.as_dict(),
            "contains_updates": self.counters.contains_updates(),
            "plan": self.plan,
            "result_available_after": self.result_available_after,
            "result_consumed_after": self.result_consumed_after,
            "trigger_evaluation": self.trigger_evaluation,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultSummary(query={self.query!r}, counters={self.counters.as_dict()})"


class Result:
    """A lazily-consumed stream of records (Neo4j-driver style).

    Iterate it once to pull records straight out of the execution
    pipeline; use :meth:`peek`/:meth:`single` for point consumption and
    :meth:`consume` to discard the rest and obtain the
    :class:`ResultSummary`.  The eager accessors inherited from the old
    :class:`QueryResult` API (``rows``, ``values``, ``to_table``,
    ``len``, truthiness) remain available — they materialise whatever has
    not been consumed yet, trading the streaming memory profile for
    random access.

    ``on_success``/``on_failure`` are finalisation callbacks invoked
    exactly once when the stream is exhausted, consumed or closed
    (``on_success``) or when pulling a record raises (``on_failure``);
    the session uses them to commit or roll back the auto-commit
    transaction backing a streamed read.
    """

    def __init__(
        self,
        columns: Iterable[str],
        records: Iterable[dict[str, Any]],
        statistics: QueryStatistics | None = None,
        *,
        query: str | None = None,
        parameters: Mapping[str, Any] | None = None,
        plan: str | None = None,
        on_success: Callable[[], None] | None = None,
        on_failure: Callable[[], None] | None = None,
        started: float | None = None,
        available_after: float | None = None,
        trigger_evaluation: Mapping[str, Any] | None = None,
    ) -> None:
        self.columns = list(columns)
        self.statistics = statistics if statistics is not None else QueryStatistics()
        self._iterator: Iterator[dict[str, Any]] = iter(records)
        self._peeked: list[dict[str, Any]] = []
        self._materialized: Optional[list[dict[str, Any]]] = None
        self._cursor = 0
        self._finalized = False
        self._failed = False
        self._on_success = on_success
        self._on_failure = on_failure
        self._started = started
        self._summary = ResultSummary(
            query=query,
            parameters=parameters,
            counters=self.statistics,
            plan=plan,
            result_available_after=available_after,
            trigger_evaluation=trigger_evaluation,
        )

    # ------------------------------------------------------------------
    # streaming consumption
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[dict[str, Any]]:
        self._require_records()
        return self

    def __next__(self) -> dict[str, Any]:
        if self._peeked:
            return self._peeked.pop(0)
        if self._materialized is not None:
            if self._cursor < len(self._materialized):
                record = self._materialized[self._cursor]
                self._cursor += 1
                return record
            raise StopIteration
        return self._pull()

    def _require_records(self) -> None:
        """Guard record access on a finalised, non-materialised result.

        Once the stream was finalised without buffering (a completed
        iteration, :meth:`consume` or :meth:`close`), the records are gone
        for good — consuming the result a second time is a caller bug that
        must surface, not an empty iterator.  Materialised (eager) results
        keep their buffer and stay freely re-readable.
        """
        if self._finalized and self._materialized is None:
            raise ResultConsumedError(
                "The result has already been consumed: its records were streamed "
                "out (or discarded by consume()/close()) and are no longer "
                "available.  Re-run the query, or materialise the result with "
                ".rows before consuming it."
            )

    def _pull(self) -> dict[str, Any]:
        self._require_records()
        try:
            return next(self._iterator)
        except StopIteration:
            self._finalize(success=True)
            raise
        except Exception:
            self._finalize(success=False)
            raise

    def _next_or_none(self) -> Optional[dict[str, Any]]:
        try:
            return next(self)
        except StopIteration:
            return None

    def peek(self) -> Optional[dict[str, Any]]:
        """The next record without consuming it, or None at end of stream."""
        if self._peeked:
            return self._peeked[0]
        if self._materialized is not None:
            if self._cursor < len(self._materialized):
                return self._materialized[self._cursor]
            return None
        try:
            record = self._pull()
        except StopIteration:
            return None
        self._peeked.append(record)
        return record

    def single(self, column: str | None = None) -> Any:
        """The single value of a single-record result.

        Pulls at most two records, so a unique-match query terminates as
        early as iterating would.  With ``column`` (or a single-column
        result) returns that value; otherwise the whole record.
        """
        first = self._next_or_none()
        if first is None:
            raise ValueError("expected exactly one row, got 0")
        if self._next_or_none() is not None:
            # Finalise before raising: the backing transaction of a
            # streamed read must not stay open behind the error.
            self.close()
            raise ValueError("expected exactly one row, got at least 2")
        if column is not None or len(self.columns) == 1:
            return first[column if column is not None else self.columns[0]]
        return dict(first)

    def consume(self) -> ResultSummary:
        """Discard any remaining records and return the :class:`ResultSummary`."""
        if self._materialized is None and not self._finalized:
            try:
                for _ in self._iterator:
                    pass
            except Exception:
                self._finalize(success=False)
                raise
            self._finalize(success=True)
        self._peeked.clear()
        if self._materialized is not None:
            self._cursor = len(self._materialized)
        return self._summary

    def close(self) -> None:
        """Finalise without evaluating the remaining records.

        Unlike :meth:`consume` this does not pull the rest of the stream;
        any pending matching work is simply abandoned and no further
        records come out (buffered or not).
        """
        self._peeked.clear()
        self._iterator = iter(())
        if self._materialized is not None:
            self._cursor = len(self._materialized)
        self._finalize(success=True)

    def summary(self) -> ResultSummary:
        """The summary accumulated so far (final once the result is consumed)."""
        return self._summary

    def keys(self) -> list[str]:
        """The result's column names (driver naming for :attr:`columns`)."""
        return list(self.columns)

    @property
    def consumed(self) -> bool:
        """True once the underlying stream has been finalised."""
        return self._finalized

    def _finalize(self, success: bool) -> None:
        if self._finalized:
            return
        self._finalized = True
        self._failed = not success
        if self._started is not None and self._summary.result_consumed_after is None:
            # Materialised results record their true execution time up
            # front; don't overwrite it with caller idle time at drain.
            self._summary.result_consumed_after = (time.perf_counter() - self._started) * 1000
        callback = self._on_success if success else self._on_failure
        self._on_success = None
        self._on_failure = None
        if callback is not None:
            callback()

    # ------------------------------------------------------------------
    # eager compatibility surface (materialises the remaining stream)
    # ------------------------------------------------------------------

    def _fill(self) -> None:
        """Buffer every record not yet consumed and switch to list mode.

        Iteration after this keeps working (over the buffer) without
        mutating lists handed out to callers.
        """
        if self._materialized is None:
            self._require_records()
            drained = list(self._peeked)
            self._peeked.clear()
            if not self._finalized:
                try:
                    drained.extend(self._iterator)
                except Exception:
                    self._finalize(success=False)
                    raise
                self._finalize(success=True)
            self._materialized = drained
            self._cursor = 0

    def _materialize(self) -> list[dict[str, Any]]:
        """The not-yet-iterated records, buffering the stream on first use."""
        self._fill()
        if self._cursor == 0:
            return self._materialized
        return self._materialized[self._cursor :]

    @property
    def rows(self) -> list[dict[str, Any]]:
        """All remaining records as a list (deprecated eager access).

        Before any iteration this is the backing list itself (matching the
        old ``QueryResult.rows`` field); after partial iteration it is a
        snapshot of the remainder.
        """
        return self._materialize()

    def __len__(self) -> int:
        return len(self._materialize())

    def __bool__(self) -> bool:
        return self.peek() is not None

    def values(self, column: str | None = None) -> list[Any]:
        """Values of one column (default: the only column)."""
        if column is None:
            if len(self.columns) != 1:
                raise ValueError("values() without a column name requires exactly one column")
            column = self.columns[0]
        return [record[column] for record in self._materialize()]

    def to_table(self) -> str:
        """Render the remaining records as a fixed-width text table."""
        return _render_table(self.columns, self._materialize())


@dataclass
class QueryResult:
    """The eager outcome of executing one query.

    .. deprecated::
        Public code should consume the streaming :class:`Result` returned
        by ``GraphSession.run`` / the ``GraphDatabase`` facade instead;
        ``QueryResult`` remains the internal shape of fully-materialised
        execution (``QueryExecutor.execute``) and a compatibility shim for
        callers that predate the driver API.

    ``columns`` and ``rows`` are empty for write-only queries (no RETURN).
    Rows are plain dictionaries keyed by column name.
    """

    columns: list[str] = field(default_factory=list)
    rows: list[dict[str, Any]] = field(default_factory=list)
    statistics: QueryStatistics = field(default_factory=QueryStatistics)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def values(self, column: str | None = None) -> list[Any]:
        """Values of one column (default: the only column)."""
        if column is None:
            if len(self.columns) != 1:
                raise ValueError("values() without a column name requires exactly one column")
            column = self.columns[0]
        return [row[column] for row in self.rows]

    def single(self, column: str | None = None) -> Any:
        """The single value of a single-row result."""
        if len(self.rows) != 1:
            raise ValueError(f"expected exactly one row, got {len(self.rows)}")
        values = self.values(column) if (column or len(self.columns) == 1) else None
        if values is not None:
            return values[0]
        return dict(self.rows[0])

    def to_table(self) -> str:
        """Render the result as a fixed-width text table (for examples/benchmarks)."""
        return _render_table(self.columns, self.rows)


def _render_table(columns: list[str], rows: list[dict[str, Any]]) -> str:
    if not columns:
        return "(no results)"
    headers = list(columns)
    body = [[_render_cell(row.get(col)) for col in headers] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in body)) if body else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "-+-".join("-" * w for w in widths),
    ]
    for row in body:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _render_cell(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, Mapping):
        return "{" + ", ".join(f"{k}: {_render_cell(v)}" for k, v in value.items()) + "}"
    return str(value)
