"""The repository's benchmark: four closed-loop workloads through the public API.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each it lists was chosen):

* ``covid_triggers`` — the paper's Section 6.2 trigger suite over the four
  COVID streams, in memory, one library client;
* ``read_mix`` — read-only statements over the COVID population;
* ``durable_writes`` — Event writes on a ``GraphSession(path=...)`` with one
  fsync per commit (``group_commit_size=1``) and periodic checkpoints.
  ``BENCHMARK.json`` leaves it out: its p99 is the tail of the shared
  disk's fsync times, which drifts between runs by more than the bound
  (IQR/median 0.2-0.35 over five runs).  ``http_mixed`` writes through
  the same storage layer;
* ``http_mixed`` — reads and writes over two keep-alive HTTP connections to
  the server running in its own process.

Every client waits for each reply before sending the next statement.
Set-up is repeated ``SETUP_REPEATS`` times and reported as its median
(``setup_s``); warm-up is not timed.  The in-process workloads' timings
are scaled to the host's quiet speed, measured by a fixed probe between
blocks (see ``REFERENCE_PROBE_S``).  ``--trace 0`` runs an amount of work
sized to take about ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` runs half of it untraced and half traced, and reports the
per-layer metrics of the traced half, normalised per completed operation
(see :mod:`tracing`).  Every operation's output is checked outside the
timed region (see :mod:`checks`; ``python3 perfbench/selftest.py`` shows
each check failing on a wrong output).  The last line of standard output
is one JSON object; the exit code is 1 when any check failed, and 2 when
the program's sources are missing.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import http.client
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from array import array
from pathlib import Path
from time import perf_counter, thread_time
from typing import Any, Callable, Sequence

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

SETUP_REPEATS = 3
#: Run size is fixed, not duration: each workload does a fixed amount of
#: work per second of ``--seconds``, sized so that a run takes about that
#: long on a 2-vCPU Xeon host.  A faster program then finishes sooner instead
#: of doing more work, so state that grows with the work done (the trigger
#: engine's firing log, the heap the collector walks) is the same on both
#: sides of a comparison.
#: Every metric is the median over a run's blocks of the block's value:
#: blocks are rounds (covid_triggers, durable_writes) or runs of BLOCK_OPS
#: operations (read_mix: a multiple of its 50-read pattern; http_mixed:
#: consecutive replies on both connections).  A block holds at least
#: BLOCK_OPS operations, which leaves ten beyond its p99.
BLOCK_OPS = 1000

#: A shared host's speed drifts: the same pure-Python loop takes from 1.0x
#: to 1.9x its quiet time, in spells that last from seconds to minutes, so
#: a whole run can fall inside one.  The in-process workloads' timings are
#: therefore scaled to the host's quiet speed.  A fixed probe
#: (``HostProbe``) is timed right before and right after every block and
#: every set-up; the block's CPU speed is REFERENCE_PROBE_S over the mean
#: of its two probe times.  The program slows less than the probe: the
#: log of a covid_triggers round's time rises with the log of its probe
#: time with a slope of 0.72 (278 rounds over 4 minutes).  Scaling by the
#: speed to the power 0.8 left the least spread (IQR/median) between the
#: medians of 8-s groups of those rounds: 0.054, against 0.077 with power
#: 1 and 0.28 unscaled; for 1585 blocks of 1000 read_mix reads it left
#: 0.054, against 0.038 with power 0.9, 0.071 with power 1 and 0.32
#: unscaled.  So the CPU time an operation spends (its thread's) is
#: multiplied by the CPU speed to the power SPEED_EXPONENT; the time it
#: waits (for fsync, say) is kept as measured.  The probe takes
#: REFERENCE_PROBE_S on a quiet 2.1 GHz Xeon host, so the scaled values
#: read as on that host when it is quiet; a change to the program moves
#: them as it moves the raw times.  The line above the result prints the
#: CPU-time factors used and the unscaled ops_per_s.
#: http_mixed is not scaled: its client threads and its server share both
#: vCPUs and wake each other for every request, and its time followed
#: neither this probe nor one timing round trips to a helper process
#: (over one stretch the helper's round trips took 1.6-2x longer while
#: http_mixed slowed by 15%).  Neither did its set-up (the server process
#: starting).
PROBE_ITEMS = 4000
REFERENCE_PROBE_S = 0.006
SPEED_EXPONENT = 0.8

#: covid_triggers: one round replays the whole COVID stream (1006 statements).
COVID_SIZES = dict(mutations=600, sequences=200, designation_changes=60, icu_admissions=120)
COVID_ROUNDS_PER_S = 1.5
#: Its set-up takes about a millisecond, so it is repeated more often.
COVID_SETUP_REPEATS = 15
#: read_mix: a larger mutation catalogue, so inlined literals outnumber the plan cache.
READ_SIZES = dict(mutations=1600, sequences=200, designation_changes=60, icu_admissions=120)
READ_OPS = 40_000
READ_WARMUP = 4_000
READS_PER_S = 6000
#: durable_writes: writes per round, and WAL records between checkpoints.
DURABLE_PRELOAD = 200
DURABLE_WRITES = 3000
DURABLE_ROUNDS_PER_S = 0.8
DURABLE_CHECKPOINT_EVERY = 750
DURABLE_SETUP_REPEATS = 9
DURABLE_WARMUP = 300
#: http_mixed: preloaded Events, connections, requests per connection.
HTTP_PRELOAD = 2000
HTTP_CONNECTIONS = 2
HTTP_REQUESTS_PER_S = 1500
HTTP_WARMUP = 300
HTTP_GRAPH = "bench"

FIXED_TIME = datetime.datetime(2024, 6, 1, 12, 0, 0)


def fixed_clock() -> datetime.datetime:
    return FIXED_TIME


# ---------------------------------------------------------------------------
# measurement plumbing
# ---------------------------------------------------------------------------


class Measurement:
    """What one workload run collected."""

    def __init__(self, seed: int, seconds: int, trace: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        #: Untraced blocks.
        self.blocks: list[Block] = []
        self.setup_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_mb: float | None = None
        #: untraced and traced ops/s (trace runs only).
        self.untraced_rate = 0.0
        self.traced_rate = 0.0
        self.traced_ops = 0
        self.recorder = None
        self.counters: dict[str, int] = {}
        self.server_report: dict[str, Any] | None = None
        self.probe = HostProbe()

    def phase_size(self, per_second: float) -> int:
        """Units of work in one phase: a trace run splits ``--seconds`` in two."""
        seconds = self.seconds / 2 if self.trace else self.seconds
        return max(1, round(seconds * per_second))

    def add_counters(self, delta: dict[str, int]) -> None:
        for key, value in delta.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"{what} failed: {type(exc).__name__}: {exc}")


#: (operations completed, seconds, seconds scaled to the host's quiet
#: speed, per-operation latencies so scaled, CPU-time factor)
Block = tuple[int, float, float, Sequence[float], float]


class _ProbeCell:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int) -> None:
        self.key = key
        self.value = value


class _ProbeHolder:
    def __init__(self) -> None:
        self.count = 1
        self.table = {"x": 1, "y": 2}

    def get(self, key: str) -> int:
        return self.table.get(key, 0)


def _probe_rows(n: int):
    for i in range(n):
        yield i, str(i)


def _probe_work() -> int:
    """Fixed interpreter work of three kinds the program does throughout."""
    # objects, string keys, dict updates and a keyed sort
    table: dict[str, int] = {}
    cells = []
    for i in range(PROBE_ITEMS):
        cell = _ProbeCell(f"k{i % 61}", i)
        cells.append(cell)
        table[cell.key] = table.get(cell.key, 0) + cell.value
    cells.sort(key=lambda c: (c.key, -c.value))
    # method calls, attribute reads and dict lookups
    holder = _ProbeHolder()
    lookup = {i: i for i in range(64)}
    total = 0
    for i in range(4 * PROBE_ITEMS):
        total += holder.get("x") + lookup.get(i & 63, 0) + holder.count
    # generators, row dicts and filtered aggregation
    for _ in range(PROBE_ITEMS // 300):
        rows = [{"k": k, "v": v} for k, v in _probe_rows(400)]
        total += sum(len(row["v"]) for row in rows if row["k"] % 3)
    return total + len(table)


class HostProbe:
    """Times fixed CPU work to tell how fast the host runs now.

    The work resembles the program's own, so the host slows it as it
    slows the program.  The garbage collector is off meanwhile: a
    collection would walk the program's heap, and the probe would then
    time the program too.  A probe that is not ``enabled`` times nothing
    and leaves times unscaled.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled

    def sample(self) -> float:
        """Seconds the work took (0 when not enabled)."""
        if not self.enabled:
            return 0.0
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = perf_counter()
            _probe_work()
            return perf_counter() - started
        finally:
            if collecting:
                gc.enable()

    def factor(self, before: float, after: float) -> float:
        """The factor for CPU time over an interval, from the samples that bracket it."""
        if not self.enabled:
            return 1.0
        return (2 * REFERENCE_PROBE_S / (before + after)) ** SPEED_EXPONENT


def scaled_time(seconds: float, cpu_seconds: float, factor: float) -> float:
    """``seconds`` with its CPU part multiplied by ``factor``."""
    return seconds - cpu_seconds * (1.0 - factor)


def make_block(
    seconds: float,
    cpu_seconds: float,
    latencies: Sequence[float],
    cpu_times: Sequence[float],
    factor: float,
) -> Block:
    """A block whose CPU time is multiplied by ``factor``."""
    scaled = array("d", [
        scaled_time(latency, cpu, factor) for latency, cpu in zip(latencies, cpu_times)
    ])
    return len(latencies), seconds, scaled_time(seconds, cpu_seconds, factor), scaled, factor


def unscaled_block(seconds: float, latencies: Sequence[float]) -> Block:
    return len(latencies), seconds, seconds, latencies, 1.0


def median_rate(blocks: list[Block], scaled: bool = True) -> float:
    """Median over blocks of operations completed per second (0 without blocks)."""
    if not blocks:
        return 0.0
    return statistics.median(block[0] / block[2 if scaled else 1] for block in blocks)


def median_percentile(blocks: list[Block], fraction: float) -> float:
    """Median over blocks of each block's scaled nearest-rank percentile (0 without blocks)."""
    values = []
    for block in blocks:
        ranked = sorted(block[3])
        rank = max(0, min(len(ranked) - 1, round(fraction * len(ranked)) - 1))
        values.append(ranked[rank])
    return statistics.median(values) if values else 0.0


def run_rounds(
    m: Measurement,
    session,
    next_round: Callable[[int], tuple[list, Callable[[Any], None]]],
    finish: Callable[[], None],
    traced: bool,
    rounds: int,
) -> list[Block]:
    """``rounds`` fixed-size rounds on one session; a block per round.

    ``next_round(k)`` resets the graph for round ``k`` (untimed) and returns
    its statements and an ``acknowledge(statement)`` callback for the ones
    that succeeded; ``finish()`` checks the round.  Keeping the session
    keeps the plan cache and the trigger engine warm, and resetting the
    graph keeps every round the same size.
    """
    recorder = m.recorder if traced else tracing.OFF
    begin, end = recorder.begin, recorder.end
    blocks: list[Block] = []
    for k in range(rounds):
        ops, acknowledge = next_round(k)
        before = tracing.harvest(session) if traced else None
        gc.collect()
        probe_before = m.probe.sample()
        recorder.enabled = traced
        latencies = array("d")
        cpu_times = array("d")
        round_start = perf_counter()
        round_cpu = thread_time()
        for op in ops:
            t0 = perf_counter()
            c0 = thread_time()
            index = begin(tracing.OP)
            try:
                session.run(op[0], op[1]).consume()
            except Exception as exc:  # noqa: BLE001 - counted, and fails the run
                end(index)
                m.fail(repr(op[0])[:80], exc)
                continue
            end(index)
            cpu_times.append(thread_time() - c0)
            latencies.append(perf_counter() - t0)
            acknowledge(op)
        cpu = thread_time() - round_cpu
        elapsed = perf_counter() - round_start
        recorder.enabled = False
        factor = m.probe.factor(probe_before, m.probe.sample())
        if traced:
            m.add_counters(tracing.counter_delta(tracing.harvest(session), before))
        m.attempted += len(ops)
        blocks.append(make_block(elapsed, cpu, latencies, cpu_times, factor))
        finish()
    return blocks


def timed_setups(
    m: Measurement,
    build: Callable[[int], Any],
    discard: Callable[[Any], None],
    repeats: int = SETUP_REPEATS,
):
    """Set up ``repeats`` times (once in a trace run), timing each; returns the last.

    Each set-up's CPU time is scaled by the host's speed over it.
    """
    built = None
    for rep in range(1 if m.trace else repeats):
        if built is not None:
            discard(built)
            built = None
            gc.collect()
        probe_before = m.probe.sample()
        started = perf_counter()
        started_cpu = thread_time()
        built = build(rep)
        cpu = thread_time() - started_cpu
        elapsed = perf_counter() - started
        factor = m.probe.factor(probe_before, m.probe.sample())
        m.setup_times.append(scaled_time(elapsed, cpu, factor))
    return built


def run_stream(
    m: Measurement,
    ops: list,
    position: int,
    execute: Callable[[Any], Any],
    check: Callable[[Any, Any], None],
    traced: bool,
    count: int,
) -> tuple[list[Block], int]:
    """A closed loop over ``count`` of ``ops`` (cyclically).

    Returns one block per ``BLOCK_OPS`` operations, and the next position.
    A block's time is the sum of its operations' latencies, so the
    ``check(op, result)`` made after each operation, and the probes
    between blocks, stay out of it.
    """
    recorder = m.recorder if traced else tracing.OFF
    begin, end = recorder.begin, recorder.end
    recorder.enabled = traced
    total = len(ops)
    blocks: list[Block] = []
    latencies = array("d")
    cpu_times = array("d")

    def close_block(factor: float) -> None:
        blocks.append(make_block(sum(latencies), sum(cpu_times), latencies, cpu_times, factor))

    gc.collect()
    probe_before = m.probe.sample()
    for _ in range(max(1, count // BLOCK_OPS) * BLOCK_OPS):
        if len(latencies) >= BLOCK_OPS:
            probe_after = m.probe.sample()
            close_block(m.probe.factor(probe_before, probe_after))
            latencies = array("d")
            cpu_times = array("d")
            probe_before = probe_after
        op = ops[position % total]
        position += 1
        m.attempted += 1
        t0 = perf_counter()
        c0 = thread_time()
        index = begin(tracing.OP)
        try:
            result = execute(op)
        except Exception as exc:  # noqa: BLE001 - counted, and fails the run
            end(index)
            m.fail(repr(op)[:80], exc)
            continue
        end(index)
        cpu_times.append(thread_time() - c0)
        latencies.append(perf_counter() - t0)
        check(op, result)
    recorder.enabled = False
    if latencies:
        close_block(m.probe.factor(probe_before, m.probe.sample()))
    return blocks, position


def traced_phase(m: Measurement, phase: Callable[[bool], list[Block]]) -> None:
    """Run ``phase`` untraced (always) and, for a trace run, traced as well."""
    m.blocks = phase(False)
    m.untraced_rate = median_rate(m.blocks)
    if not m.trace:
        return
    m.recorder = tracing.Recorder()
    undo = tracing.instrument(m.recorder)
    try:
        blocks = phase(True)
    finally:
        undo()
    m.traced_rate = median_rate(blocks)
    m.traced_ops = sum(block[0] for block in blocks)


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# covid_triggers
# ---------------------------------------------------------------------------


def _trigger_counts(session) -> dict[str, tuple[int, int]]:
    summary = session.engine.firing_summary()
    return {name: (s["executed"], s["suppressed"]) for name, s in summary.items()}


def covid_triggers(m: Measurement) -> None:
    from repro.triggers import GraphSession

    pop = workloads.covid_population(m.seed, **COVID_SIZES)

    def build(**options) -> GraphSession:
        session = GraphSession(clock=fixed_clock, **options)
        for query, parameters in pop.setup:
            session.run(query, parameters).consume()
        for trigger in workloads.SECTION62_TRIGGERS:
            session.create_trigger(trigger)
        return session

    session = timed_setups(m, lambda rep: build(), lambda old: None, COVID_SETUP_REPEATS)
    at_round_start: dict[str, tuple[int, int]] = {}
    observed_rounds: list[tuple[dict[str, tuple[int, int]], int]] = []

    def next_round(k: int):
        session.run(workloads.RESET_COVID).consume()
        at_round_start.clear()
        at_round_start.update(_trigger_counts(session))
        return pop.stream, _ignore

    def finish() -> None:
        observed = {
            name: (executed - at_round_start.get(name, (0, 0))[0],
                   suppressed - at_round_start.get(name, (0, 0))[1])
            for name, (executed, suppressed) in _trigger_counts(session).items()
        }
        observed_rounds.append((observed, session.graph.count_nodes_with_label("Alert")))

    # Warm-up: one round (plan cache, trigger compilation), untimed.
    ops, _ = next_round(-1)
    for query, parameters in ops:
        session.run(query, parameters).consume()
    finish()

    rounds = m.phase_size(COVID_ROUNDS_PER_S)
    traced_phase(m, lambda traced: run_rounds(m, session, next_round, finish, traced, rounds))
    m.peak_rss_mb = own_peak_rss_mb()

    # Every round against the sequential-evaluation oracle on a fresh session.
    oracle_session = build(batched_triggers=False, incremental_triggers=False)
    for query, parameters in pop.stream:
        oracle_session.run(query, parameters).consume()
    oracle = _trigger_counts(oracle_session)
    oracle_alerts = oracle_session.graph.count_nodes_with_label("Alert")
    for k, (observed, alerts) in enumerate(observed_rounds):
        label = f"round {k}"
        m.problems.extend(
            checks.check_trigger_counts(observed, alerts, oracle, oracle_alerts, label)
            + checks.check_executions(observed, pop.executions, label)
        )


def _ignore(op) -> None:
    return None


# ---------------------------------------------------------------------------
# read_mix
# ---------------------------------------------------------------------------


def read_mix(m: Measurement) -> None:
    from repro.triggers import GraphSession

    pop = workloads.covid_population(m.seed, **READ_SIZES)

    def build() -> GraphSession:
        session = GraphSession(clock=fixed_clock)
        for label, prop in workloads.READ_INDEXES:
            session.graph.create_property_index(label, prop)
        for query, parameters in pop.setup:
            session.run(query, parameters).consume()
        for trigger in workloads.SECTION62_TRIGGERS:
            session.create_trigger(trigger)
        for query, parameters in pop.stream:
            session.run(query, parameters).consume()
        return session

    session = timed_setups(m, lambda rep: build(), lambda old: None)

    ops = workloads.read_stream(pop, m.seed, READ_OPS)

    def execute(op) -> list:
        return list(session.run(op.query, op.parameters))

    def check(op, rows: list) -> None:
        if len(m.problems) < 5:
            got = [tuple(row.values()) for row in rows]
            m.problems.extend(checks.check_read_rows([(op.query, got, op.expected)]))

    for op in ops[:READ_WARMUP]:
        check(op, execute(op))
    position = [READ_WARMUP]

    def phase(traced: bool) -> list[Block]:
        before = tracing.harvest(session) if traced else None
        blocks, position[0] = run_stream(
            m, ops, position[0], execute, check, traced, m.phase_size(READS_PER_S)
        )
        if traced:
            m.add_counters(tracing.counter_delta(tracing.harvest(session), before))
        return blocks

    traced_phase(m, phase)
    m.peak_rss_mb = own_peak_rss_mb()


# ---------------------------------------------------------------------------
# durable_writes
# ---------------------------------------------------------------------------


def durable_writes(m: Measurement, tmp: Path) -> None:
    from repro.graph import fingerprint
    from repro.triggers import GraphSession

    (preload_query, preload_parameters), preloaded = workloads.preload_events(
        m.seed, DURABLE_PRELOAD
    )

    def open_session(path: Path) -> GraphSession:
        return GraphSession(
            path=str(path),
            clock=fixed_clock,
            group_commit_size=1,
            checkpoint_every=DURABLE_CHECKPOINT_EVERY,
        )

    def build(rep: int) -> tuple[GraphSession, Path]:
        path = tmp / f"durable-{rep}"
        session = open_session(path)
        session.graph.create_property_index("Event", "key")
        session.create_trigger(workloads.AUDIT_TRIGGER)
        session.create_trigger(workloads.NEGATIVE_VALUE_TRIGGER)
        session.run(preload_query, preload_parameters).consume()
        return session, path

    def discard(built: tuple[GraphSession, Path]) -> None:
        built[0].close()
        shutil.rmtree(built[1], ignore_errors=True)

    session, path = timed_setups(m, build, discard, DURABLE_SETUP_REPEATS)
    acknowledged = dict(preloaded)

    def next_round(k: int, writes: int = DURABLE_WRITES):
        session.run(workloads.RESET_DURABLE).consume()
        for key in [key for key in acknowledged if key not in preloaded]:
            del acknowledged[key]
        return workloads.durable_write_stream(m.seed, k, writes, list(preloaded)), acknowledge

    def acknowledge(op) -> None:
        acknowledged[op[1]["key"]] = op[1]["value"]

    def finish() -> None:
        return None

    # Warm-up: a short round, untimed.
    ops, _ = next_round(-1, DURABLE_WARMUP)
    for op in ops:
        session.run(op[0], op[1]).consume()
        acknowledge(op)

    rounds = m.phase_size(DURABLE_ROUNDS_PER_S)
    traced_phase(m, lambda traced: run_rounds(m, session, next_round, finish, traced, rounds))
    m.peak_rss_mb = own_peak_rss_mb()

    # Recovery: reopen the directory and compare with the survivor.
    survivor = fingerprint(session.graph)
    session.close()
    try:
        reopened = open_session(path)
    except Exception as exc:  # noqa: BLE001 - a failed recovery is a failed check
        m.problems.append(f"reopening the directory failed: {type(exc).__name__}: {exc}")
        return
    try:
        events = {
            node.properties["key"]: node.properties["value"]
            for node in reopened.graph.nodes_with_label("Event")
        }
        m.problems.extend(
            checks.check_recovery(
                survivor,
                fingerprint(reopened.graph),
                acknowledged,
                events,
                reopened.graph.count_nodes_with_label("Audit"),
            )
        )
    finally:
        reopened.close()


# ---------------------------------------------------------------------------
# http_mixed
# ---------------------------------------------------------------------------


class ServerProcess:
    """The benchmark-owned server launcher, in its own process."""

    def __init__(self, tmp: Path, name: str, seed: int, trace: bool) -> None:
        self.report_path = tmp / f"{name}-report.json"
        command = [
            sys.executable, str(HERE / "server_launcher.py"),
            "--dir", str(tmp / name), "--seed", str(seed),
            "--preload", str(HTTP_PRELOAD), "--out", str(self.report_path),
        ]
        if trace:
            OUT_DIR.mkdir(exist_ok=True)
            command += ["--trace", "--spans", str(OUT_DIR / "spans-http_mixed-server.jsonl")]
        self.process = subprocess.Popen(
            command, cwd=str(ROOT), stdout=subprocess.PIPE, text=True
        )
        self._watchdog = threading.Timer(170.0, self.process.kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        line = self._expect("READY")
        self.port = int(line.split()[1])

    def _expect(self, word: str) -> str:
        line = self.process.stdout.readline()
        if not line.startswith(word):
            self.kill()
            raise RuntimeError(f"server launcher said {line!r}, expected {word}")
        return line

    def signal(self, signum: int, reply: str) -> None:
        self.process.send_signal(signum)
        self._expect(reply)

    def stop(self) -> dict[str, Any]:
        """Graceful shutdown (SIGINT); returns the launcher's report."""
        self.process.send_signal(signal.SIGINT)
        try:
            code = self.process.wait(timeout=60)
        finally:
            self._watchdog.cancel()
        self.process.stdout.close()
        if code != 0:
            raise RuntimeError(f"server launcher exited with {code}")
        with open(self.report_path, encoding="utf-8") as report:
            return json.load(report)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._watchdog.cancel()
        if self.process.stdout and not self.process.stdout.closed:
            self.process.stdout.close()


class HttpClient:
    """One keep-alive connection issuing ``/run`` requests."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def run(self, query: str, parameters: dict[str, Any]) -> tuple[int, dict]:
        body = json.dumps({"graph": HTTP_GRAPH, "query": query, "parameters": parameters})
        self.connection.request(
            "POST", "/run", body=body.encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = self.connection.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.connection.close()


class HttpTally:
    """Per-phase results shared by the connection threads (merged after join)."""

    def __init__(self) -> None:
        self.statuses: dict[int, int] = {}
        self.wrong_reads = 0
        self.acknowledged_creates = 0
        self.completions: list[float] = []
        self.latencies: list[float] = []
        self.errors: list[BaseException] = []


def _http_connection_loop(client: HttpClient, ops, tally: HttpTally, recorder) -> None:
    recorder = recorder or tracing.OFF
    begin, end = recorder.begin, recorder.end
    statuses = tally.statuses
    try:
        for query, parameters, expected in ops:
            t0 = perf_counter()
            index = begin(tracing.OP)
            status, payload = client.run(query, parameters)
            end(index)
            t1 = perf_counter()
            tally.latencies.append(t1 - t0)
            tally.completions.append(t1)
            statuses[status] = statuses.get(status, 0) + 1
            if status != 200:
                continue
            if expected is None:
                tally.acknowledged_creates += 1
            elif payload.get("rows") != [{"value": expected}]:
                tally.wrong_reads += 1
    except Exception as exc:  # noqa: BLE001 - surfaced as a failed run
        tally.errors.append(exc)


def http_mixed(m: Measurement, tmp: Path) -> None:
    _query, preloaded = workloads.preload_events(m.seed, HTTP_PRELOAD)
    m.probe = HostProbe(enabled=False)
    servers: list[ServerProcess] = []
    acknowledged = [0]

    def launch(name: str, trace: bool) -> ServerProcess:
        server = ServerProcess(tmp, name, m.seed, trace)
        servers.append(server)
        return server

    def drive(port: int, stream_offset: int, requests: int, recorder) -> HttpTally:
        """``requests`` per connection, each connection in its own thread."""
        tally = HttpTally()
        clients = [HttpClient(port) for _ in range(HTTP_CONNECTIONS)]
        tallies = [HttpTally() for _ in clients]
        threads = [
            threading.Thread(
                target=_http_connection_loop,
                args=(
                    client,
                    workloads.http_op_stream(m.seed, stream_offset + i, requests, preloaded),
                    tallies[i], recorder,
                ),
            )
            for i, client in enumerate(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for client in clients:
            client.close()
        for part in tallies:
            for status, count in part.statuses.items():
                tally.statuses[status] = tally.statuses.get(status, 0) + count
            tally.wrong_reads += part.wrong_reads
            tally.acknowledged_creates += part.acknowledged_creates
            tally.completions += part.completions
            tally.latencies += part.latencies
            tally.errors += part.errors
        acknowledged[0] += tally.acknowledged_creates
        return tally

    def measured(server: ServerProcess, stream_offset: int, recorder) -> list[Block]:
        warm = drive(server.port, 100 + stream_offset, HTTP_WARMUP, None)
        account(warm, counted=False)
        if recorder is not None:
            server.signal(signal.SIGUSR1, "RECORDING")
            recorder.enabled = True
        gc.collect()
        started = perf_counter()
        requests = m.phase_size(HTTP_REQUESTS_PER_S) // HTTP_CONNECTIONS
        tally = drive(server.port, stream_offset, requests, recorder)
        if recorder is not None:
            recorder.enabled = False
            server.signal(signal.SIGUSR2, "STOPPED")
        account(tally, counted=True)
        replies = sorted(zip(tally.completions, tally.latencies))
        blocks: list[Block] = []
        previous = started
        # Whole blocks only: the last one is cut short by the end of the run.
        for first in range(0, len(replies) - BLOCK_OPS + 1, BLOCK_OPS):
            block = replies[first:first + BLOCK_OPS]
            finished = block[-1][0]
            latencies = [latency for _, latency in block]
            blocks.append(unscaled_block(finished - previous, latencies))
            previous = finished
        return blocks

    def account(tally: HttpTally, counted: bool) -> None:
        for exc in tally.errors:
            m.fail("http request", exc)
        if counted:
            m.attempted += sum(tally.statuses.values()) + len(tally.errors)
            m.failed += sum(c for s, c in tally.statuses.items() if s != 200)
        m.problems.extend(checks.check_http_replies(tally.statuses, tally.wrong_reads))

    def final_check(server: ServerProcess) -> None:
        client = HttpClient(server.port)
        try:
            counts = {}
            for label in ("Event", "Audit"):
                status, payload = client.run(f"MATCH (n:{label}) RETURN count(n) AS n", {})
                counts[label] = payload["rows"][0]["n"] if status == 200 else -1
        finally:
            client.close()
        expected = HTTP_PRELOAD + acknowledged[0]
        m.problems.extend(checks.check_http_counts(counts["Event"], counts["Audit"], expected))

    def retire(server: ServerProcess) -> dict[str, Any]:
        report = server.stop()
        servers.remove(server)
        return report

    try:
        server = timed_setups(m, lambda rep: launch(f"http-{rep}", False), retire)
        m.blocks = measured(server, 0, None)
        m.untraced_rate = median_rate(m.blocks)
        final_check(server)
        m.peak_rss_mb = retire(server)["peak_rss_kb"] / 1024.0
        if m.trace:
            acknowledged[0] = 0
            server = launch("http-traced", True)
            m.recorder = tracing.Recorder()
            blocks = measured(server, 0, m.recorder)
            m.traced_rate = median_rate(blocks)
            m.traced_ops = sum(block[0] for block in blocks)
            final_check(server)
            m.server_report = retire(server)
            m.counters = m.server_report.get("counters", {})
    finally:
        for server in servers:
            server.kill()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end_metrics(m: Measurement) -> dict[str, dict[str, Any]]:
    return {
        "ops_per_s": {"value": m.untraced_rate, "unit": "1/s"},
        "p50_us": {"value": median_percentile(m.blocks, 0.50) * 1e6, "unit": "us"},
        "p99_us": {"value": median_percentile(m.blocks, 0.99) * 1e6, "unit": "us"},
        "setup_s": {"value": statistics.median(m.setup_times), "unit": "s"},
        "peak_rss_mb": {"value": m.peak_rss_mb, "unit": "MB"},
    }


def per_layer_metrics(m: Measurement) -> dict[str, dict[str, Any]]:
    totals = tracing.layer_totals(m.recorder.span_lists())
    bytes_written = m.recorder.bytes_written
    server_totals: dict[str, dict[str, float]] = {}
    if m.server_report is not None:
        server_totals = m.server_report.get("layers", {})
        bytes_written += m.server_report.get("bytes_written", 0)
    merged: dict[str, dict[str, float]] = {}
    for source in (totals, server_totals):
        for name, entry in source.items():
            into = merged.setdefault(name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0})
            for key, value in entry.items():
                into[key] += value
    ops = max(1, m.traced_ops)
    counters = m.counters

    def self_us(name: str) -> float:
        return merged.get(name, {}).get("self_s", 0.0) * 1e6 / ops

    def calls(name: str) -> float:
        return merged.get(name, {}).get("calls", 0) / ops

    def per_op(key: str) -> float:
        return counters.get(key, 0) / ops

    wall_us = merged.get(tracing.OP, {}).get("wall_s", 0.0) * 1e6 / ops
    layer_self_us = sum(
        entry["self_s"] for name, entry in merged.items() if name != tracing.OP
    ) * 1e6 / ops
    lookups = sum(counters.get(f"cache.plan_{k}", 0) for k in ("hits", "misses", "invalidations"))
    fired = counters.get("executed", 0) + counters.get("suppressed", 0)
    session_us = server_totals.get(tracing.SESSION, {}).get("wall_s", 0.0) * 1e6 / ops
    round_trip_us = wall_us if m.server_report is not None else 0.0
    values = {
        "cypher.parse.self_us": (self_us(tracing.PARSE), "us/op"),
        "cypher.plan.self_us": (self_us(tracing.PLAN), "us/op"),
        "cypher.plan_cache.hit_ratio": (
            counters.get("cache.plan_hits", 0) / lookups if lookups else 0.0, "ratio"),
        "cypher.execute.self_us": (self_us(tracing.EXECUTE), "us/op"),
        "session.run.self_us": (self_us(tracing.SESSION), "us/op"),
        "tx.end_statement.calls": (calls(tracing.END_STATEMENT), "count/op"),
        "tx.end_statement.self_us": (self_us(tracing.END_STATEMENT), "us/op"),
        "tx.commit.self_us": (self_us(tracing.COMMIT), "us/op"),
        "tx.commits": (per_op("committed"), "count/op"),
        "tx.lock_wait_us": (self_us(tracing.LOCK_WAIT), "us/op"),
        "triggers.engine.self_us": (self_us(tracing.ENGINE), "us/op"),
        "triggers.execute.self_us": (self_us(tracing.TRIGGER_EXECUTE), "us/op"),
        "triggers.firings": (per_op("executed"), "count/op"),
        "triggers.suppressed": (per_op("suppressed"), "count/op"),
        "triggers.useful_ratio": (counters.get("executed", 0) / fired if fired else 0.0, "ratio"),
        **{
            f"triggers.tier.{tier}": (per_op(f"tier.{tier}"), "count/op")
            for tier in tracing.TIERS
        },
        "storage.encode.self_us": (self_us(tracing.ENCODE), "us/op"),
        "storage.append.self_us": (self_us(tracing.APPEND), "us/op"),
        "storage.fsync.calls": (calls(tracing.FSYNC), "count/op"),
        "storage.fsync.self_us": (self_us(tracing.FSYNC), "us/op"),
        "storage.checkpoint.self_us": (self_us(tracing.CHECKPOINT), "us/op"),
        "storage.checkpoints": (calls(tracing.CHECKPOINT), "count/op"),
        "storage.bytes_written": (bytes_written / ops, "B/op"),
        "server.round_trip_us": (round_trip_us, "us/op"),
        "server.session_us": (session_us, "us/op"),
        "server.overhead_us": (round_trip_us - session_us if round_trip_us else 0.0, "us/op"),
        "server.wire.self_us": (self_us(tracing.WIRE), "us/op"),
        "trace.wall_us": (wall_us, "us/op"),
        "trace.unattributed_us": (wall_us - layer_self_us, "us/op"),
        "trace.overhead_ratio": (
            m.untraced_rate / m.traced_rate if m.traced_rate else 0.0, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

WORKLOADS = ("covid_triggers", "read_mix", "durable_writes", "http_mixed")


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict[str, Any]:
    m = Measurement(seed, seconds, trace)
    tmp = TMP_DIR / f"{name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if name == "covid_triggers":
            covid_triggers(m)
        elif name == "read_mix":
            read_mix(m)
        elif name == "durable_writes":
            durable_writes(m, tmp)
        else:
            http_mixed(m, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass
    short = [block[0] for block in m.blocks if block[0] < BLOCK_OPS]
    if short or not m.blocks:
        m.problems.append(f"blocks of {short} operations leave fewer than ten beyond p99")
    metrics = per_layer_metrics(m) if trace else end_to_end_metrics(m)
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        m.recorder.dump(str(OUT_DIR / f"spans-{name}.jsonl"))
    for problem in m.problems:
        print(f"CHECK FAILED [{name}]: {problem}", file=sys.stderr)
    if m.blocks and m.probe.enabled:
        factors = [block[4] for block in m.blocks]
        print(
            f"== {name}: CPU-time factor {min(factors):.3f}..{max(factors):.3f} "
            f"(median {statistics.median(factors):.3f}); "
            f"unscaled ops_per_s {median_rate(m.blocks, scaled=False):.1f}"
        )
    return {
        "correct": not m.problems and m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }


def print_table(title: str, metrics: dict[str, dict[str, Any]]) -> None:
    print(f"== {title}")
    for name, metric in metrics.items():
        print(f"  {name:<32} {metric['value']:>14.4f} {metric['unit']}")


def run_all(args) -> int:
    """Every workload in its own process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 0,
                                                      "failed": 0, "metrics": {}}
        print_table(name, result["metrics"])
        combined["correct"] = combined["correct"] and result["correct"] and not completed.returncode
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def _exit_on_sigterm(signum: int, _frame) -> None:
    """Turn SIGTERM into SystemExit, so cleanup stops the server and removes temporaries."""
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(args.workload, result["metrics"])
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
