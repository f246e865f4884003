"""P13 (added) — incremental trigger views: firehose delta streams.

The acceptance bar for the incremental tier: over a 50k-node delta
stream split into 250 statements flowing through 12 installed triggers
(ten invariant config gates over a 10k-entry catalog, one correlated
Escalate, one cascade), the delta-maintained condition views must
sustain at least 5x the deltas/second of the former batched tier, whose
last measured rate is frozen as ``batched_deltas_per_sec`` in the
committed ``triggers_baseline.json`` (the batched tier was removed, and
a per-activation route would scan the catalog once per activation), and
must produce the expected Spike/Audit populations.

On top of the absolute bar, a regression gate compares the measured
rate against the same baseline file with a 2x slack for CI timing
noise.  The full result table is dumped to
``BENCH_triggers_firehose.json`` (uploaded as a CI artifact) so a
failing gate shows the rate and the views' reuse counters.
"""

import json
from pathlib import Path

from repro.bench import perf_incremental_triggers

BASELINE_PATH = Path(__file__).with_name("triggers_baseline.json")
ARTIFACT_PATH = Path(__file__).resolve().parent.parent / "BENCH_triggers_firehose.json"


def test_perf_incremental_trigger_evaluation(benchmark, assert_result):
    baseline = json.loads(BASELINE_PATH.read_text())
    result = benchmark.pedantic(
        lambda: perf_incremental_triggers(
            nodes=baseline["nodes"],
            statements=baseline["statements"],
            catalog=baseline["catalog"],
            gate_triggers=baseline["gate_triggers"],
        ),
        rounds=1,
        warmup_rounds=0,
        iterations=1,
    )
    ARTIFACT_PATH.write_text(
        json.dumps({"rows": result.rows, "notes": result.notes}, indent=2) + "\n"
    )

    assert_result(result, "P13", min_rows=1)
    [incremental] = result.rows
    batched_rate = baseline["batched_deltas_per_sec"]

    # Expected trigger semantics: the five highest readings escalate and
    # cascade into one Audit each.
    assert incremental["spikes"] == 5
    assert incremental["audits"] == 5
    assert incremental["triggers"] == 12

    # The incremental tier actually carried the load: every activation of
    # the eleven query-condition triggers went through a view, and the
    # invariant gate products were reused across deltas.
    assert incremental["incremental_activations"] == 11 * baseline["nodes"]
    assert incremental["views"] == 11
    assert incremental["product_reuses"] > 10 * (baseline["nodes"] - baseline["statements"])

    # The acceptance criterion: ≥5x the frozen batched deltas/second.
    speedup = incremental["deltas_per_sec"] / batched_rate
    assert speedup >= 5.0, (
        f"incremental {incremental['deltas_per_sec']:.0f} deltas/s vs "
        f"frozen batched {batched_rate:.1f} deltas/s ({speedup:.1f}x < 5x, "
        f"see {ARTIFACT_PATH.name})"
    )

    # Regression gate vs the committed baseline, with a wide berth for CI
    # timing noise (both sides are wall-clock rates).
    assert speedup >= baseline["speedup"] / 2.0, (
        f"speedup regressed: {speedup:.1f}x vs baseline {baseline['speedup']:.1f}x "
        f"(see {ARTIFACT_PATH.name})"
    )
    assert incremental["deltas_per_sec"] >= baseline["incremental_deltas_per_sec"] / 2.0, (
        f"incremental rate regressed: {incremental['deltas_per_sec']:.0f}/s vs "
        f"baseline {baseline['incremental_deltas_per_sec']:.0f}/s "
        f"(see {ARTIFACT_PATH.name})"
    )
