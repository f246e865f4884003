"""Self-test of the benchmark's correctness checks.

Usage (from the checkout root)::

    python3 perfbench/selftest.py

Each check must pass on the program's real output and fail on a wrong
one: an altered expected-alert table, a read row that differs from the
generator's, an acknowledged write dropped from the WAL, and an HTTP run
whose counts disagree.  Exits 1 if any check accepts a wrong output or
rejects a right one.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

import checks
import workloads
from run import ROOT, fixed_clock

SMALL = dict(mutations=30, sequences=20, designation_changes=6, icu_admissions=12)


def _covid_session(pop, **options):
    from repro.triggers import GraphSession

    session = GraphSession(clock=fixed_clock, **options)
    for query, parameters in pop.setup:
        session.run(query, parameters).consume()
    for trigger in workloads.SECTION62_TRIGGERS:
        session.create_trigger(trigger)
    for query, parameters in pop.stream:
        session.run(query, parameters).consume()
    return session


def _counts(session):
    summary = session.engine.firing_summary()
    return (
        {name: (s["executed"], s["suppressed"]) for name, s in summary.items()},
        session.graph.count_nodes_with_label("Alert"),
    )


def covid_cases():
    pop = workloads.covid_population(5, **SMALL)
    observed, alerts = _counts(_covid_session(pop))
    oracle, oracle_alerts = _counts(
        _covid_session(pop, batched_triggers=False, incremental_triggers=False)
    )
    yield "covid: engine equals the sequential oracle", True, checks.check_trigger_counts(
        observed, alerts, oracle, oracle_alerts)
    altered = dict(oracle)
    executed, suppressed = altered["NewCriticalMutation"]
    altered["NewCriticalMutation"] = (executed + 1, suppressed - 1)
    yield "covid: altered expected-alert table", False, checks.check_trigger_counts(
        observed, alerts, altered, oracle_alerts)
    yield "covid: one alert missing", False, checks.check_trigger_counts(
        observed, alerts - 1, oracle, oracle_alerts)
    yield "covid: executions the generator counted", True, checks.check_executions(
        observed, pop.executions)
    miscounted = dict(pop.executions)
    miscounted["WhoDesignationChange"] += 1
    yield "covid: a designation change not counted", False, checks.check_executions(
        observed, miscounted)


def read_cases():
    from repro.triggers import GraphSession

    pop = workloads.covid_population(6, **SMALL)
    session = GraphSession(clock=fixed_clock)
    for label, prop in workloads.READ_INDEXES:
        session.graph.create_property_index(label, prop)
    for query, parameters in pop.setup + pop.stream:
        session.run(query, parameters).consume()
    ops = workloads.read_stream(pop, 6, 300)
    results = [
        (op.query, [tuple(row.values()) for row in session.run(op.query, op.parameters)],
         op.expected)
        for op in ops
    ]
    yield "read_mix: rows equal the generator's", True, checks.check_read_rows(results)
    query, rows, expected = results[0]
    wrong = [(query, rows, [("not-" + str(expected[0][0]),)])] + results[1:]
    yield "read_mix: one expected row altered", False, checks.check_read_rows(wrong)
    scan = next(r for r in results if r[0] == workloads.SCAN_LINEAGE_SIZES)
    yield "read_mix: scan missing a group", False, checks.check_read_rows(
        [(scan[0], scan[1][1:], scan[2])])


def durable_cases():
    from repro.graph import fingerprint
    from repro.triggers import GraphSession

    tmp_root = str(ROOT / ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="selftest-", dir=tmp_root)
    try:
        path = os.path.join(directory, "graph")
        session = GraphSession(path=path, clock=fixed_clock, group_commit_size=1)
        session.graph.create_property_index("Event", "key")
        session.create_trigger(workloads.AUDIT_TRIGGER)
        (query, parameters), acknowledged = workloads.preload_events(7, 5)
        session.run(query, parameters).consume()
        for query, parameters in workloads.durable_write_stream(7, 0, 40, list(acknowledged)):
            session.run(query, parameters).consume()
            acknowledged[parameters["key"]] = parameters["value"]
        survivor = fingerprint(session.graph)
        session.close()

        def recovered():
            reopened = GraphSession(path=path, clock=fixed_clock)
            try:
                events = {n.properties["key"]: n.properties["value"]
                          for n in reopened.graph.nodes_with_label("Event")}
                return (fingerprint(reopened.graph), events,
                        reopened.graph.count_nodes_with_label("Audit"))
            finally:
                reopened.close()

        got_fingerprint, events, audits = recovered()
        yield "durable: reopen equals the survivor", True, checks.check_recovery(
            survivor, got_fingerprint, acknowledged, events, audits)

        # Tear the last acknowledged commit off the log, as a lost fsync would.
        wal = os.path.join(path, "wal.log")
        os.truncate(wal, os.path.getsize(wal) - 1)
        got_fingerprint, events, audits = recovered()
        yield "durable: last acknowledged write dropped", False, checks.check_recovery(
            survivor, got_fingerprint, acknowledged, events, audits)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass


def http_cases():
    yield "http: all 200, reads right", True, checks.check_http_replies({200: 100}, 0)
    yield "http: one 503", False, checks.check_http_replies({200: 99, 503: 1}, 0)
    yield "http: wrong read", False, checks.check_http_replies({200: 100}, 1)
    yield "http: counts agree", True, checks.check_http_counts(12, 12, 12)
    yield "http: acknowledged write missing", False, checks.check_http_counts(11, 11, 12)
    yield "http: audit missing", False, checks.check_http_counts(12, 11, 12)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    failures = 0
    for cases in (covid_cases, read_cases, durable_cases, http_cases):
        for title, should_pass, problems in cases():
            ok = (not problems) == should_pass
            failures += not ok
            verdict = "ok  " if ok else "FAIL"
            detail = "passes" if not problems else f"rejects: {problems[0]}"
            print(f"{verdict} {title}: check {detail}")
    print(f"{failures} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
