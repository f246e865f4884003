"""The driver-style entry point: :class:`GraphDatabase` and :func:`connect`.

A :class:`GraphDatabase` owns a catalog of *named graphs*, each backed by
one long-lived :class:`~repro.triggers.session.GraphSession` (so a graph's
installed triggers, transaction manager and firing log live with the
graph, not with whoever happens to reference it).  The facade mirrors the
ergonomics of a Neo4j driver::

    import repro

    db = repro.GraphDatabase()
    covid = db.graph("covid")                   # created on first use
    covid.run("CREATE (:Hospital {name: 'Sacco', icuBeds: 20})")
    with db.graph("covid").run("MATCH (h:Hospital) RETURN h.name AS name") as _:
        ...

    for record in covid.run("MATCH (h:Hospital) RETURN h.name AS name"):
        print(record["name"])                   # records stream lazily

    summary = covid.run("MATCH (h) RETURN h LIMIT 1").consume()
    print(summary.counters.as_dict(), summary.plan)

A process-wide default database makes the one-liner work::

    session = repro.connect()                   # default db, "default" graph
    session = repro.connect("covid")            # default db, named graph
"""

from __future__ import annotations

import contextlib
import datetime as _dt
import os
import re
import threading
from typing import Callable, Iterator, Optional

from .graph.store import PropertyGraph
from .schema.schema import PGSchema
from .storage import StorageIO
from .triggers.session import GraphSession
from .tx.locks import LockManager

#: Name used when callers do not pick one.
DEFAULT_GRAPH_NAME = "default"

#: Durable graph names become directory names, so keep them filesystem-safe.
_DURABLE_NAME = re.compile(r"^[A-Za-z0-9._-]+$")


class GraphDatabase:
    """A catalog of named property graphs, each served by a `GraphSession`.

    Sessions are minted lazily and cached per graph name: every call to
    :meth:`graph` (or :meth:`session`) with the same name returns the same
    session, so triggers installed through it are visible to all users of
    that catalog entry.
    """

    def __init__(
        self,
        clock: Callable[[], _dt.datetime] | None = None,
        max_cascade_depth: int = 16,
        incremental_triggers: bool = True,
        path: str | None = None,
        storage_io: StorageIO | None = None,
        group_commit_size: int = 1,
        checkpoint_every: int | None = None,
        thread_safe: bool = False,
        lock_timeout: float | None = None,
    ) -> None:
        self._clock = clock
        self._max_cascade_depth = max_cascade_depth
        self._incremental_triggers = incremental_triggers
        self._path = os.fspath(path) if path is not None else None
        self._storage_io = storage_io
        self._group_commit_size = group_commit_size
        self._checkpoint_every = checkpoint_every
        self._sessions: dict[str, GraphSession] = {}
        self._lock = threading.RLock()
        # One lock manager per database: all sessions share it, keyed by
        # graph name, so cross-graph operations (drop, server shutdown) can
        # coordinate with per-graph readers and writers.
        self._lock_timeout = lock_timeout
        self.lock_manager: LockManager | None = (
            LockManager(default_timeout=lock_timeout) if thread_safe else None
        )

    @property
    def durable(self) -> bool:
        """True when graphs persist under the database directory."""
        return self._path is not None

    @property
    def thread_safe(self) -> bool:
        """True when sessions serialise access through the shared lock manager."""
        return self.lock_manager is not None

    # ------------------------------------------------------------------
    # catalog management
    # ------------------------------------------------------------------

    def create_graph(
        self,
        name: str,
        graph: PropertyGraph | None = None,
        schema: PGSchema | None = None,
    ) -> GraphSession:
        """Register a new named graph; error if ``name`` already exists.

        ``graph`` lets callers adopt an existing :class:`PropertyGraph`
        (e.g. a loaded dataset); by default a fresh empty graph is created.
        """
        with self._lock:
            if name in self._sessions:
                raise ValueError(f"graph {name!r} already exists")
            if self._path is not None:
                if graph is not None:
                    raise ValueError(
                        "a durable database recovers each graph from its own "
                        "directory; cannot adopt an in-memory graph"
                    )
                session = GraphSession(
                    schema=schema,
                    clock=self._clock,
                    max_cascade_depth=self._max_cascade_depth,
                    incremental_triggers=self._incremental_triggers,
                    path=self._graph_directory(name),
                    storage_io=self._storage_io,
                    group_commit_size=self._group_commit_size,
                    checkpoint_every=self._checkpoint_every,
                    lock_manager=self.lock_manager,
                    lock_timeout=self._lock_timeout,
                    lock_name=name,
                )
            else:
                session = GraphSession(
                    graph=graph,
                    schema=schema,
                    clock=self._clock,
                    max_cascade_depth=self._max_cascade_depth,
                    incremental_triggers=self._incremental_triggers,
                    lock_manager=self.lock_manager,
                    lock_timeout=self._lock_timeout,
                    lock_name=name,
                )
            self._sessions[name] = session
            return session

    def drop_graph(self, name: str) -> None:
        """Remove a named graph (and its session) from the catalog.

        For a durable database the graph's persisted files are deleted as
        well, so the name no longer resurrects on the next access.

        In thread-safe mode the drop takes the graph's exclusive write lock
        first, so in-flight queries finish before the session is closed
        (flushing any pending group-commit records) and the files vanish.
        """
        with self._lock:
            session = self._sessions.pop(name, None)
            if session is None and name not in self._persisted_graphs():
                raise KeyError(f"no graph named {name!r}")
            drop_guard = (
                self.lock_manager.write(name, timeout=self._lock_timeout)
                if self.lock_manager is not None
                else contextlib.nullcontext()
            )
            with drop_guard:
                if session is not None:
                    session.close()
                if self._path is not None:
                    self._delete_persisted(name)

    def list_graphs(self) -> list[str]:
        """The catalog's graph names: open sessions first, then any
        persisted-but-unopened graphs a durable database finds on disk."""
        with self._lock:
            names = list(self._sessions)
            names.extend(n for n in self._persisted_graphs() if n not in self._sessions)
            return names

    def has_graph(self, name: str) -> bool:
        """True when ``name`` is in the catalog (open or persisted)."""
        with self._lock:
            return name in self._sessions or name in self._persisted_graphs()

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self.has_graph(name)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __iter__(self) -> Iterator[str]:
        return iter(self.list_graphs())

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------

    def graph(self, name: str = DEFAULT_GRAPH_NAME) -> GraphSession:
        """The session bound to graph ``name``, creating the graph on demand."""
        with self._lock:
            session = self._sessions.get(name)
            if session is None:
                session = self.create_graph(name)
            return session

    def session(self, graph: str = DEFAULT_GRAPH_NAME) -> GraphSession:
        """Driver-style alias for :meth:`graph`."""
        return self.graph(graph)

    # ------------------------------------------------------------------
    # durability lifecycle
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Checkpoint every open session of a durable database."""
        with self._lock:
            for session in self._sessions.values():
                if session.durable:
                    session.checkpoint()

    def close(self) -> None:
        """Flush and close every open session (no-op when in-memory)."""
        with self._lock:
            for session in self._sessions.values():
                session.close()

    def __enter__(self) -> "GraphDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _graph_directory(self, name: str) -> str:
        if not _DURABLE_NAME.match(name):
            raise ValueError(
                f"durable graph name {name!r} must match {_DURABLE_NAME.pattern}"
                " (it becomes a directory name)"
            )
        return os.path.join(self._path, name)

    def _discovery_io(self) -> StorageIO:
        if self._storage_io is not None:
            return self._storage_io
        from .storage import FileIO

        return FileIO()

    def _persisted_graphs(self) -> list[str]:
        """Graph names with on-disk state under the database directory."""
        if self._path is None:
            return []
        io = self._discovery_io()
        if not io.exists(self._path):
            return []
        from .storage.store import SNAPSHOT_NAME, WAL_NAME

        names = []
        for entry in io.listdir(self._path):
            directory = os.path.join(self._path, entry)
            if io.exists(os.path.join(directory, WAL_NAME)) or io.exists(
                os.path.join(directory, SNAPSHOT_NAME)
            ):
                names.append(entry)
        return names

    def _delete_persisted(self, name: str) -> None:
        from .storage.store import SNAPSHOT_NAME, SNAPSHOT_TMP_NAME, WAL_NAME

        io = self._discovery_io()
        directory = os.path.join(self._path, name)
        for filename in (WAL_NAME, SNAPSHOT_NAME, SNAPSHOT_TMP_NAME):
            io.remove(os.path.join(directory, filename))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GraphDatabase(graphs={self.list_graphs()!r})"


# ---------------------------------------------------------------------------
# the process-wide default database
# ---------------------------------------------------------------------------

_default_lock = threading.Lock()
_default_database: Optional[GraphDatabase] = None


def default_database() -> GraphDatabase:
    """The process-wide :class:`GraphDatabase` (created on first use)."""
    global _default_database
    with _default_lock:
        if _default_database is None:
            _default_database = GraphDatabase()
        return _default_database


def connect(graph: str = DEFAULT_GRAPH_NAME) -> GraphSession:
    """One-liner entry point: a session on the default database.

    ``repro.connect()`` gives the ``"default"`` graph;
    ``repro.connect("covid")`` a named one (created on demand).
    """
    return default_database().graph(graph)


def reset_default_database() -> None:
    """Drop the process-wide default database (tests and REPL hygiene)."""
    global _default_database
    with _default_lock:
        _default_database = None
