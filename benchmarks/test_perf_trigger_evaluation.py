"""P7 (added) — default vs per-activation trigger condition evaluation.

The acceptance bar for the default evaluation ladder: over a 50k-node
delta cascading through an N-trigger set, the default engine (whose
condition queries run against delta-maintained views) must be at least
5x faster than the per-activation engine while producing the identical
Spike/Audit populations (the experiment itself asserts the equivalence).
"""

from repro.bench import perf_trigger_evaluation


def test_perf_trigger_evaluation(benchmark, assert_result):
    result = benchmark.pedantic(
        lambda: perf_trigger_evaluation(nodes=50_000, gate_triggers=2, configs=96),
        rounds=1,
        warmup_rounds=0,
        iterations=1,
    )
    assert_result(result, "P7", min_rows=2)
    by_route = {row["route"]: row for row in result.rows}
    per_activation = by_route["per-activation"]
    default = by_route["default"]
    # identical trigger semantics: same firings, same cascade output
    assert default["spikes"] == per_activation["spikes"] == 5
    assert default["audits"] == per_activation["audits"] == 5
    # the incremental tier actually ran (every Reading-trigger activation)
    assert default["incremental_activations"] == 3 * 50_000
    assert per_activation["incremental_activations"] == 0
    # the acceptance criterion: ≥5x faster than per-activation evaluation
    assert default["seconds"] * 5 <= per_activation["seconds"], (
        f"default {default['seconds']:.2f}s vs "
        f"per-activation {per_activation['seconds']:.2f}s"
    )
