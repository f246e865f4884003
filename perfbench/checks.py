"""Correctness checks, one per workload, run outside the timed region.

Each check compares what the program returned with what the benchmark
already knows, and returns a list of problems (empty when correct).  They
take plain values, so :mod:`selftest` can feed them wrong outputs.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping


def check_trigger_counts(
    observed: Mapping[str, tuple[int, int]],
    observed_alerts: int,
    oracle: Mapping[str, tuple[int, int]],
    oracle_alerts: int,
    label: str = "round",
) -> list[str]:
    """Per-trigger (executed, suppressed) and the alert count equal the oracle's."""
    problems = []
    for name in sorted(set(observed) | set(oracle)):
        got, want = observed.get(name, (0, 0)), oracle.get(name, (0, 0))
        if got != want:
            problems.append(
                f"{label}: trigger {name} executed/suppressed {got}, sequential oracle {want}"
            )
    if observed_alerts != oracle_alerts:
        problems.append(f"{label}: {observed_alerts} alerts, sequential oracle {oracle_alerts}")
    return problems


def check_executions(
    observed: Mapping[str, tuple[int, int]], expected: Mapping[str, int], label: str = "round"
) -> list[str]:
    """Triggers whose executions the generator can count executed that often."""
    return [
        f"{label}: trigger {name} executed {observed.get(name, (0, 0))[0]} times, "
        f"the generated stream makes it {count}"
        for name, count in expected.items()
        if observed.get(name, (0, 0))[0] != count
    ]


def check_read_rows(results: Iterable[tuple[str, list[tuple], list[tuple]]]) -> list[str]:
    """Every read returned exactly the rows the generator expected.

    ``results`` holds ``(query, rows, expected)`` triples.
    """
    problems = []
    for query, rows, expected in results:
        if rows != expected:
            problems.append(f"read {query!r} returned {rows!r}, expected {expected!r}")
            if len(problems) >= 5:
                break
    return problems


def check_recovery(
    survivor_fingerprint: str,
    recovered_fingerprint: str,
    acknowledged: Mapping[str, Any],
    recovered_events: Mapping[str, Any],
    recovered_audits: int,
    label: str = "round",
) -> list[str]:
    """The reopened graph equals the survivor and holds every acknowledged write.

    ``acknowledged`` maps each Event key to the value of the last write the
    program acknowledged for it; ``recovered_events`` is what the reopened
    graph holds.  Every Event must also have its Audit node.
    """
    problems = []
    if recovered_fingerprint != survivor_fingerprint:
        problems.append(f"{label}: recovered graph fingerprint differs from the survivor's")
    missing = [key for key in acknowledged if key not in recovered_events]
    if missing:
        problems.append(f"{label}: {len(missing)} acknowledged writes lost, e.g. {missing[0]!r}")
    stale = [
        key for key, value in acknowledged.items()
        if key in recovered_events and recovered_events[key] != value
    ]
    if stale:
        key = stale[0]
        problems.append(
            f"{label}: {len(stale)} acknowledged SETs lost, e.g. {key!r} holds "
            f"{recovered_events[key]!r}, acknowledged {acknowledged[key]!r}"
        )
    if recovered_audits != len(recovered_events):
        problems.append(
            f"{label}: {recovered_audits} Audit nodes for {len(recovered_events)} Events"
        )
    return problems


def check_http_replies(statuses: Mapping[int, int], wrong_reads: int) -> list[str]:
    """Every reply was 200 and every read returned the value the generator wrote."""
    problems = []
    bad = {status: count for status, count in statuses.items() if status != 200}
    if bad:
        problems.append(f"non-200 responses: {bad}")
    if wrong_reads:
        problems.append(f"{wrong_reads} reads returned a value other than the one written")
    return problems


def check_http_counts(events: int, audits: int, acknowledged_events: int) -> list[str]:
    """The final Event count equals the Audit count, which equals the acknowledged writes."""
    if events == audits == acknowledged_events:
        return []
    return [f"{events} Events and {audits} Audits for {acknowledged_events} acknowledged writes"]
