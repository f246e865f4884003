"""Default vs sequential trigger evaluation: the differential suite.

Two :class:`~repro.triggers.session.GraphSession` instances — the default
engine (predicate → incremental → sequential ladder) and the sequential
reference (``incremental_triggers=False``) — must be observationally
identical: same firing order, same per-trigger execution counts, same
alerts, same final graph state.  The scenarios cover the paper's trigger
suite, cascades whose actions re-activate other triggers, self-interfering
triggers (whose actions change their own condition), aggregating and
EXISTS conditions, condition errors, view-eligible suites, demotion paths
(conditions outside the compiled footprint), mid-stream index DDL (epoch
bumps force view rebuilds), mid-stream trigger install/drop
(registry-version pruning), session close and reuse, and randomized
trigger sets over randomized delta streams.  Tests aimed at the
incremental tier also assert that it actually engaged, so the
equivalences are not vacuous.
"""

from __future__ import annotations

import datetime as _dt

import pytest
from hypothesis import given, settings, strategies as st

from repro import GraphDatabase
from repro.datasets.paper_triggers import (
    all_paper_triggers,
    icu_patients_over_threshold,
    new_critical_lineage,
    new_critical_mutation,
    who_designation_change,
)
from repro.datasets.workloads import (
    designation_change_stream,
    hospital_setup,
    icu_admission_stream,
    lineage_assignment_stream,
    mutation_discovery_stream,
)
from repro.graph import PropertyGraph, graph_to_dict
from repro.triggers import GraphSession
from repro.triggers.errors import TriggerRecursionError

CLOCK = lambda: _dt.datetime(2021, 3, 14, 12, 0, 0)  # noqa: E731 - deterministic

#: The engine configurations under test: the sequential reference first,
#: then the default engine (predicate → incremental → sequential).
CONFIGS = (
    {"incremental_triggers": False},  # sequential
    {},  # default
)


def run_pair(triggers, workload, **session_kwargs):
    """Run triggers+workload through both engines and compare.

    ``workload`` items are either ``(query, parameters)`` pairs or
    callables taking the session — the latter model out-of-band events
    (index DDL, trigger install/drop, session close) at a fixed stream
    position.  Returns the two sessions (sequential, default).
    """
    sessions = []
    for config in CONFIGS:
        session = GraphSession(clock=CLOCK, **config, **session_kwargs)
        for trigger in triggers:
            session.create_trigger(trigger)
        for step in workload:
            if callable(step):
                step(session)
            else:
                query, parameters = step
                session.run(query, parameters)
        sessions.append(session)
    sequential, default = sessions
    assert_equivalent(sequential, default)
    return sequential, default


def assert_equivalent(reference: GraphSession, candidate: GraphSession) -> None:
    assert reference.firing_log() == candidate.firing_log()
    assert reference.engine.execution_counts() == candidate.engine.execution_counts()
    assert reference.alerts() == candidate.alerts()
    assert graph_to_dict(reference.graph) == graph_to_dict(candidate.graph)


def tiers_used(session: GraphSession) -> set[str]:
    """Every evaluation tier that handled at least one trigger run."""
    return {
        tier
        for entry in session.explain_triggers().values()
        for tier in entry["tiers"]
    }


# ---------------------------------------------------------------------------
# the paper's trigger sets over the synthetic COVID workloads
# ---------------------------------------------------------------------------


def paper_statements():
    workload = (
        hospital_setup(hospitals=3, icu_beds=4)
        + mutation_discovery_stream(count=18, critical_fraction=0.4)
        + lineage_assignment_stream(sequences=12, critical_every=3)
        + designation_change_stream(changes=5)
        + icu_admission_stream(admissions=12, batch_size=3)
    )
    return [(s.query, s.parameters) for s in workload]


class TestPaperTriggerSets:
    def test_section62_suite_is_equivalent(self):
        run_pair(all_paper_triggers(threshold=6, fraction=0.2), paper_statements())

    def test_simple_reaction_triggers_over_a_multi_activation_delta(self):
        triggers = [
            new_critical_mutation(),
            new_critical_lineage(),
            who_designation_change(),
            icu_patients_over_threshold(threshold=5),
        ]
        statements = paper_statements() + [
            # one statement assigning a whole sequence batch to a lineage:
            # five BelongsTo activations in one delta for
            # NewCriticalLineage's condition query
            ("CREATE (:Lineage {name: 'BatchLineage'})", None),
            (
                "MATCH (l:Lineage {name: 'BatchLineage'}) "
                "UNWIND range(1, 5) AS i "
                "CREATE (:Sequence {accession: i})-[:BelongsTo]->(l)",
                None,
            ),
        ]
        run_pair(triggers, statements)

    def test_sequential_oracle_reports_only_sequential_and_predicate_tiers(self):
        # The benchmark harness builds its oracle exactly like this; the
        # ``batched_triggers`` keyword is accepted and has no effect.
        oracle = GraphSession(
            clock=CLOCK, batched_triggers=False, incremental_triggers=False
        )
        for trigger in all_paper_triggers(threshold=6, fraction=0.2):
            oracle.create_trigger(trigger)
        for query, parameters in paper_statements():
            oracle.run(query, parameters)
        assert oracle.engine.views is None
        assert tiers_used(oracle) == {"sequential", "predicate"}
        assert oracle.engine.incremental_stats["incremental_activations"] == 0


# ---------------------------------------------------------------------------
# view-eligible trigger suites
# ---------------------------------------------------------------------------


class TestViewEligibleSuites:
    def test_correlated_condition_runs_incrementally(self):
        trigger = (
            "CREATE TRIGGER Escalate AFTER CREATE ON 'Reading' FOR EACH NODE "
            "WHEN MATCH (t:Threshold) WHERE NEW.value > t.cutoff "
            "BEGIN CREATE (:Spike {value: NEW.value}) END"
        )
        workload = [
            ("CREATE (:Threshold {cutoff: 3})", None),
            ("UNWIND range(1, 8) AS i CREATE (:Reading {value: i})", None),
        ]
        _, default = run_pair([trigger], workload)
        assert default.graph.count_nodes_with_label("Spike") == 5
        stats = default.engine.incremental_stats
        assert stats["incremental_activations"] >= 8

    def test_invariant_condition_reuses_the_cached_product(self):
        trigger = (
            "CREATE TRIGGER Gate AFTER CREATE ON 'Reading' FOR EACH NODE "
            "WHEN MATCH (f:Flag {enabled: true}) WHERE f.level > 1 "
            "BEGIN CREATE (:Passed {value: NEW.value}) END"
        )
        workload = [
            ("CREATE (:Flag {enabled: true, level: 3})", None),
            ("UNWIND range(1, 6) AS i CREATE (:Reading {value: i})", None),
        ]
        _, default = run_pair([trigger], workload)
        view = default.engine.views.view("Gate")
        assert view is not None and view.invariant
        assert view.stats["product_reuses"] > 0

    def test_multi_clause_join_condition(self):
        trigger = (
            "CREATE TRIGGER Pair AFTER CREATE ON 'Event' FOR EACH NODE "
            "WHEN MATCH (a:Lo) MATCH (b:Hi) WHERE a.v < NEW.value AND NEW.value < b.v "
            "BEGIN CREATE (:InRange {value: NEW.value}) END"
        )
        workload = [
            ("CREATE (:Lo {v: 2}), (:Hi {v: 6})", None),
            ("UNWIND range(1, 8) AS i CREATE (:Event {value: i})", None),
            # growing the alpha memories mid-stream must fold into the view
            ("CREATE (:Lo {v: 0})", None),
            ("UNWIND range(1, 4) AS i CREATE (:Event {value: i})", None),
        ]
        _, default = run_pair([trigger], workload)
        view = default.engine.views.view("Pair")
        assert view is not None
        assert view.stats["deltas_applied"] > 0


# ---------------------------------------------------------------------------
# cascades whose actions re-activate other triggers
# ---------------------------------------------------------------------------


class TestCascadingReactivation:
    def cascade_triggers(self):
        return [
            # stage 1: correlated query condition, fires for high readings
            "CREATE TRIGGER Stage1 AFTER CREATE ON 'Reading' FOR EACH NODE "
            "WHEN MATCH (t:Threshold) WHERE NEW.value > t.cutoff "
            "BEGIN CREATE (:Spike {value: NEW.value}) END",
            # stage 2: re-activated by stage 1's creations
            "CREATE TRIGGER Stage2 AFTER CREATE ON 'Spike' FOR EACH NODE "
            "WHEN MATCH (t:Threshold) WHERE NEW.value > t.cutoff + 1 "
            "BEGIN CREATE (:Escalation {value: NEW.value}) END",
            # stage 3: unconditional audit of every escalation
            "CREATE TRIGGER Stage3 AFTER CREATE ON 'Escalation' FOR EACH NODE "
            "BEGIN CREATE (:Audit {value: NEW.value}) END",
        ]

    def test_cascade_identical_across_engines(self):
        statements = [
            ("CREATE (:Threshold {cutoff: 3})", None),
            ("UNWIND range(1, 8) AS i CREATE (:Reading {value: i})", None),
            ("UNWIND range(1, 4) AS i CREATE (:Reading {value: 10 - i})", None),
        ]
        _, default = run_pair(self.cascade_triggers(), statements)
        assert default.graph.count_nodes_with_label("Spike") == 9
        assert default.graph.count_nodes_with_label("Escalation") == 8
        assert default.graph.count_nodes_with_label("Audit") == 8

    def test_nonterminating_cascade_raises_in_both_engines(self):
        trigger = (
            "CREATE TRIGGER Loop AFTER CREATE ON 'Ping' FOR EACH NODE "
            "WHEN MATCH (f:Flag {armed: true}) "
            "BEGIN CREATE (:Ping {value: NEW.value}) END"
        )
        logs = []
        for config in CONFIGS:
            session = GraphSession(clock=CLOCK, max_cascade_depth=5, **config)
            session.create_trigger(trigger)
            session.run("CREATE (:Flag {armed: true})")
            with pytest.raises(TriggerRecursionError):
                session.run("UNWIND range(1, 3) AS i CREATE (:Ping {value: i})")
            logs.append(session.firing_log())
        assert logs[0] == logs[1]


# ---------------------------------------------------------------------------
# self-interference: actions that change their own condition
# ---------------------------------------------------------------------------


class TestSelfInterference:
    def test_self_limiting_trigger(self):
        trigger = (
            "CREATE TRIGGER SelfLimit AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN MATCH (c:Counter) WHERE c.count < 2 "
            "BEGIN MATCH (c:Counter) SET c.count = c.count + 1 END"
        )
        statements = [
            ("CREATE (:Counter {count: 0})", None),
            ("UNWIND range(1, 6) AS i CREATE (:Item {value: i})", None),
        ]
        _, default = run_pair([trigger], statements)
        [counter] = default.graph.nodes_with_label("Counter")
        assert counter.properties["count"] == 2

    def test_self_interfering_view_sees_its_own_writes(self):
        # The action writes the very key the condition reads; the store
        # listener must fold each firing in before the next activation.
        trigger = (
            "CREATE TRIGGER Drain AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN MATCH (g:Gauge) WHERE g.level > 0 "
            "BEGIN MATCH (g:Gauge) SET g.level = g.level - 1 END"
        )
        workload = [
            ("CREATE (:Gauge {level: 2})", None),
            ("UNWIND range(1, 5) AS i CREATE (:Item {value: i})", None),
        ]
        _, default = run_pair([trigger], workload)
        [gauge] = default.graph.nodes_with_label("Gauge")
        assert gauge.properties["level"] == 0

    def test_create_only_action(self):
        trigger = (
            "CREATE TRIGGER Promote AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN MATCH (f:Flag {enabled: true}) "
            "BEGIN CREATE (:Promoted {value: NEW.value}) END"
        )
        statements = [
            ("CREATE (:Flag {enabled: true})", None),
            ("UNWIND range(1, 5) AS i CREATE (:Item {value: i})", None),
        ]
        _, default = run_pair([trigger], statements)
        assert default.graph.count_nodes_with_label("Promoted") == 5

    def test_condition_enabled_by_earlier_trigger_in_same_round(self):
        # An earlier trigger's action creates the Flag a later trigger's
        # condition matches; both engines must agree on what the later
        # trigger saw for every activation of the same delta.
        triggers = [
            "CREATE TRIGGER Arm AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN NEW.value = 1 "
            "BEGIN CREATE (:Flag {enabled: true}) END",
            "CREATE TRIGGER Fire AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN MATCH (f:Flag {enabled: true}) "
            "BEGIN CREATE (:Fired {value: NEW.value}) END",
        ]
        statements = [("UNWIND range(1, 4) AS i CREATE (:Item {value: i})", None)]
        _, default = run_pair(triggers, statements)
        # Arm ran first (creation order), so Fire saw the flag for all rows
        assert default.graph.count_nodes_with_label("Fired") == 4

    def test_exists_in_property_map_sees_own_creations(self):
        # The EXISTS sub-pattern hides inside an inline property map; the
        # action creates exactly what it matches, so only the first
        # activation may fire.
        trigger = (
            "CREATE TRIGGER Once AFTER CREATE ON 'Reading' FOR EACH NODE "
            "WHEN MATCH (c:Config {flag: EXISTS {(s:Spike)}}) "
            "BEGIN CREATE (:Spike) END"
        )
        statements = [
            ("CREATE (:Config {flag: false})", None),
            ("UNWIND range(1, 3) AS i CREATE (:Reading {value: i})", None),
        ]
        _, default = run_pair([trigger], statements)
        # only the first activation fires; afterwards a Spike exists and
        # Config{flag: false} no longer matches
        assert default.graph.count_nodes_with_label("Spike") == 1

    def test_exists_in_property_map_using_transition_label(self):
        # (x:NEW) inside an EXISTS inside a property map needs the
        # per-activation virtual label
        trigger = (
            "CREATE TRIGGER Tag AFTER CREATE ON 'Reading' FOR EACH NODE "
            "WHEN MATCH (c:Config {flag: EXISTS {(x:NEW)}}) "
            "BEGIN CREATE (:Tagged {value: NEW.value}) END"
        )
        statements = [
            ("CREATE (:Config {flag: true})", None),
            ("UNWIND range(1, 2) AS i CREATE (:Reading {value: i})", None),
        ]
        _, default = run_pair([trigger], statements)
        assert default.graph.count_nodes_with_label("Tagged") == 2


# ---------------------------------------------------------------------------
# actions whose write footprint meets (or misses) the condition's reads
# ---------------------------------------------------------------------------


class TestActionFootprints:
    def test_set_disjoint_key(self):
        # The action writes `seen`; the condition reads only `level`.
        trigger = (
            "CREATE TRIGGER Mark AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN MATCH (g:Gauge) WHERE g.level > 0 "
            "BEGIN MATCH (g:Gauge) SET g.seen = true END"
        )
        statements = [
            ("CREATE (:Gauge {level: 3})", None),
            ("UNWIND range(1, 5) AS i CREATE (:Item {value: i})", None),
        ]
        _, default = run_pair([trigger], statements)
        [gauge] = default.graph.nodes_with_label("Gauge")
        assert gauge.properties["seen"] is True

    def test_match_then_create(self):
        trigger = (
            "CREATE TRIGGER Echo AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN MATCH (g:Gauge) WHERE g.level > 0 "
            "BEGIN MATCH (g:Gauge) CREATE (:Echoed {level: g.level}) END"
        )
        statements = [
            ("CREATE (:Gauge {level: 2})", None),
            ("UNWIND range(1, 4) AS i CREATE (:Item {value: i})", None),
        ]
        _, default = run_pair([trigger], statements)
        assert default.graph.count_nodes_with_label("Echoed") == 4

    def test_frozen_transition_read_is_not_a_live_read(self):
        # The condition reads `value` only through the frozen NEW snapshot,
        # so the action's SET of `value` cannot reach it.
        trigger = (
            "CREATE TRIGGER Stamp AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN MATCH (g:Gauge) WHERE NEW.value > g.floor "
            "BEGIN MATCH (g:Gauge) SET g.value = NEW.value END"
        )
        statements = [
            ("CREATE (:Gauge {floor: 0})", None),
            ("UNWIND range(1, 4) AS i CREATE (:Item {value: i})", None),
        ]
        _, default = run_pair([trigger], statements)
        [gauge] = default.graph.nodes_with_label("Gauge")
        assert gauge.properties["value"] == 4

    def test_remove_overlapping_label(self):
        trigger = (
            "CREATE TRIGGER Disarm AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN MATCH (f:Flag {on: true}) "
            "BEGIN MATCH (f:Flag) REMOVE f:Flag END"
        )
        statements = [
            ("CREATE (:Flag {on: true})", None),
            ("UNWIND range(1, 4) AS i CREATE (:Item {value: i})", None),
        ]
        _, default = run_pair([trigger], statements)
        # only the first activation fired; the label was gone afterwards
        assert default.graph.count_nodes_with_label("Flag") == 0

    def test_dynamic_keys_read(self):
        # keys(c) reads every property, so any SET may change the verdict.
        trigger = (
            "CREATE TRIGGER Widen AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN MATCH (c:Cfg) WHERE size(keys(c)) > 1 "
            "BEGIN MATCH (c:Cfg) SET c.extra = true END"
        )
        statements = [
            ("CREATE (:Cfg {a: 1, b: 2})", None),
            ("UNWIND range(1, 4) AS i CREATE (:Item {value: i})", None),
        ]
        run_pair([trigger], statements)

    def test_map_style_set(self):
        trigger = (
            "CREATE TRIGGER Blob AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN MATCH (c:Cfg) WHERE c.level > 0 "
            "BEGIN MATCH (c:Cfg) SET c += {note: 'hit'} END"
        )
        statements = [
            ("CREATE (:Cfg {level: 1})", None),
            ("UNWIND range(1, 3) AS i CREATE (:Item {value: i})", None),
        ]
        run_pair([trigger], statements)


# ---------------------------------------------------------------------------
# aggregating conditions and EXISTS predicates
# ---------------------------------------------------------------------------


class TestAggregatingConditions:
    def test_global_aggregate_condition(self):
        trigger = (
            "CREATE TRIGGER Overload AFTER CREATE ON 'Patient' FOR EACH NODE "
            "WHEN MATCH (p:Patient) WITH count(p) AS c WHERE c > 3 "
            "BEGIN CREATE (:Alarm {count: 1}) END"
        )
        statements = [("UNWIND range(1, 6) AS i CREATE (:Patient {n: i})", None)]
        _, default = run_pair([trigger], statements)
        assert default.graph.count_nodes_with_label("Alarm") == 6

    def test_grouped_aggregate_condition(self):
        trigger = (
            "CREATE TRIGGER PerWard AFTER CREATE ON 'Admit' FOR EACH NODE "
            "WHEN MATCH (a:Admit) WITH a.ward AS ward, count(a) AS c WHERE c >= 2 "
            "BEGIN CREATE (:WardAlert {ward: ward, count: c}) END"
        )
        statements = [
            ("UNWIND ['icu','icu','er','icu','er'] AS w CREATE (:Admit {ward: w})", None)
        ]
        run_pair([trigger], statements)

    def test_zero_row_global_aggregate_parity(self):
        # A global aggregate over an empty match still yields one row
        # (count = 0), for every activation.
        trigger = (
            "CREATE TRIGGER NoSpikes AFTER CREATE ON 'Reading' FOR EACH NODE "
            "WHEN MATCH (s:Spike) WITH count(s) AS c WHERE c = 0 "
            "BEGIN CREATE (:Calm {ok: true}) END"
        )
        statements = [("UNWIND range(1, 4) AS i CREATE (:Reading {v: i})", None)]
        _, default = run_pair([trigger], statements)
        assert default.graph.count_nodes_with_label("Calm") == 4

    def test_self_interfering_aggregate(self):
        # The action creates the very nodes the aggregate counts.
        trigger = (
            "CREATE TRIGGER CapAlarms AFTER CREATE ON 'Reading' FOR EACH NODE "
            "WHEN MATCH (a:Alarm) WITH count(a) AS c WHERE c < 2 "
            "BEGIN CREATE (:Alarm) END"
        )
        statements = [("UNWIND range(1, 5) AS i CREATE (:Reading {v: i})", None)]
        _, default = run_pair([trigger], statements)
        assert default.graph.count_nodes_with_label("Alarm") == 2

    def test_order_by_limit_pipeline(self):
        trigger = (
            "CREATE TRIGGER TopReading AFTER CREATE ON 'Probe' FOR EACH NODE "
            "WHEN MATCH (r:Reading) WITH r ORDER BY r.v DESC LIMIT 1 WHERE r.v > 5 "
            "BEGIN CREATE (:Hot {v: r.v}) END"
        )
        statements = [
            ("UNWIND [3, 9, 6] AS v CREATE (:Reading {v: v})", None),
            ("UNWIND range(1, 3) AS i CREATE (:Probe {n: i})", None),
        ]
        _, default = run_pair([trigger], statements)
        assert default.graph.count_nodes_with_label("Hot") == 3


class TestExistsPredicateConditions:
    def test_exists_predicate(self):
        trigger = (
            "CREATE TRIGGER HasCfg AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN NEW.v > 1 AND EXISTS {(c:Config {on: true})} "
            "BEGIN CREATE (:Seen {v: NEW.v}) END"
        )
        statements = [
            ("CREATE (:Config {on: true})", None),
            ("UNWIND range(1, 5) AS i CREATE (:Item {v: i})", None),
        ]
        _, default = run_pair([trigger], statements)
        assert default.graph.count_nodes_with_label("Seen") == 4

    def test_self_interfering_exists_predicate(self):
        # NOT EXISTS {(m:Marker)} is true only until the first firing
        # creates the Marker.
        trigger = (
            "CREATE TRIGGER FirstOnly AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN NOT EXISTS {(m:Marker)} "
            "BEGIN CREATE (:Marker) END"
        )
        statements = [("UNWIND range(1, 4) AS i CREATE (:Item {v: i})", None)]
        _, default = run_pair([trigger], statements)
        assert default.graph.count_nodes_with_label("Marker") == 1

    def test_exists_with_transition_label(self):
        # (x:NEW) needs the per-activation virtual label.
        trigger = (
            "CREATE TRIGGER VL AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN EXISTS {(x:NEW)} "
            "BEGIN CREATE (:Tagged) END"
        )
        statements = [("UNWIND range(1, 3) AS i CREATE (:Item {v: i})", None)]
        _, default = run_pair([trigger], statements)
        assert default.graph.count_nodes_with_label("Tagged") == 3

    def test_exists_predicate_with_create_only_action(self):
        trigger = (
            "CREATE TRIGGER Note AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN EXISTS {(c:Config {on: true})} "
            "BEGIN CREATE (:Noted {v: NEW.v}) END"
        )
        statements = [
            ("CREATE (:Config {on: true})", None),
            ("UNWIND range(1, 4) AS i CREATE (:Item {v: i})", None),
        ]
        _, default = run_pair([trigger], statements)
        assert default.graph.count_nodes_with_label("Noted") == 4


# ---------------------------------------------------------------------------
# condition errors mid-delta
# ---------------------------------------------------------------------------


class TestConditionErrors:
    def test_condition_error_surfaces_at_the_same_activation(self):
        # Sequential evaluation fires the activations *before* the one
        # whose condition errors, and those firings stay on the audit log
        # after the transaction rolls back.  The default engine must
        # reproduce that, not fail the whole delta up front.
        trigger = (
            "CREATE TRIGGER Cmp AFTER CREATE ON 'Reading' FOR EACH NODE "
            "WHEN MATCH (t:Threshold) WHERE NEW.value > t.cutoff "
            "BEGIN CREATE (:Spike {value: NEW.value}) END"
        )
        outcomes = []
        for config in CONFIGS:
            session = GraphSession(clock=CLOCK, **config)
            session.create_trigger(trigger)
            session.run("CREATE (:Threshold {cutoff: 1})")
            with pytest.raises(Exception, match="cannot compare"):
                session.run(
                    "CREATE (:Reading {value: 5}), (:Reading {value: 6}), "
                    "(:Reading {value: 'oops'}), (:Reading {value: 7})"
                )
            outcomes.append((session.firing_log(), graph_to_dict(session.graph)))
        assert outcomes[0] == outcomes[1]
        sequential_log = outcomes[0][0]
        # the two in-range activations before the error did fire
        assert len(sequential_log) == 2
        assert all("executed" in line for line in sequential_log)


# ---------------------------------------------------------------------------
# demotion paths: conditions outside the compiled footprint
# ---------------------------------------------------------------------------


class TestDemotionLadder:
    def test_relationship_pattern_demotes_to_sequential(self):
        trigger = (
            "CREATE TRIGGER Linked AFTER CREATE ON 'Y' FOR EACH NODE "
            "WHEN MATCH (a:X)-[:L]->(b:Z) WHERE a.v > 0 "
            "BEGIN CREATE (:AlertL) END"
        )
        workload = [
            ("CREATE (:X {v: 1})-[:L]->(:Z)", None),
            ("UNWIND range(1, 4) AS i CREATE (:Y {value: i})", None),
        ]
        _, default = run_pair([trigger], workload)
        report = default.explain_triggers()["Linked"]
        assert set(report["tiers"]) == {"sequential"}
        assert report["ineligible"]
        assert report["ineligible"] in report["demotions"]
        assert default.engine.incremental_stats["incremental_activations"] == 0

    def test_aggregating_condition_demotes_to_sequential(self):
        trigger = (
            "CREATE TRIGGER Cap AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN MATCH (a:Alarm) WITH count(a) AS c WHERE c < 2 "
            "BEGIN CREATE (:Alarm) END"
        )
        workload = [("UNWIND range(1, 5) AS i CREATE (:Item {v: i})", None)]
        _, default = run_pair([trigger], workload)
        assert default.graph.count_nodes_with_label("Alarm") == 2
        report = default.explain_triggers()["Cap"]
        assert set(report["tiers"]) == {"sequential"}
        assert report["ineligible"] in report["demotions"]

    def test_unlabelled_pattern_demotes(self):
        trigger = (
            "CREATE TRIGGER Any AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN MATCH (n) WHERE n.special = true "
            "BEGIN CREATE (:Found) END"
        )
        workload = [
            ("CREATE (:Weird {special: true})", None),
            ("UNWIND range(1, 3) AS i CREATE (:Item {v: i})", None),
        ]
        _, default = run_pair([trigger], workload)
        report = default.explain_triggers()["Any"]
        assert "incremental" not in report["tiers"]

    def test_mixed_suite_splits_across_tiers(self):
        triggers = [
            "CREATE TRIGGER V1 AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN MATCH (f:Flag) WHERE NEW.v > f.cutoff "
            "BEGIN CREATE (:A1 {v: NEW.v}) END",
            "CREATE TRIGGER B1 AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN MATCH (n:Item) WITH count(n) AS c WHERE c > 2 "
            "BEGIN CREATE (:A2) END",
            "CREATE TRIGGER P1 AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN NEW.v > 2 BEGIN CREATE (:A3 {v: NEW.v}) END",
        ]
        workload = [
            ("CREATE (:Flag {cutoff: 1})", None),
            ("UNWIND range(1, 5) AS i CREATE (:Item {v: i})", None),
        ]
        _, default = run_pair(triggers, workload)
        report = default.explain_triggers()
        assert "incremental" in report["V1"]["tiers"]
        assert "sequential" in report["B1"]["tiers"]
        assert "predicate" in report["P1"]["tiers"]


# ---------------------------------------------------------------------------
# mid-stream DDL and trigger install/drop
# ---------------------------------------------------------------------------


def create_index(label: str, prop: str):
    def apply(session: GraphSession) -> None:
        session.graph.create_property_index(label, prop)

    return apply


def install(trigger: str):
    def apply(session: GraphSession) -> None:
        session.create_trigger(trigger)

    return apply


def drop(name: str):
    def apply(session: GraphSession) -> None:
        session.drop_trigger(name)

    return apply


ESCALATE = (
    "CREATE TRIGGER Escalate AFTER CREATE ON 'Reading' FOR EACH NODE "
    "WHEN MATCH (t:Threshold) WHERE NEW.value > t.cutoff "
    "BEGIN CREATE (:Spike {value: NEW.value}) END"
)


class TestMidStreamChanges:
    def test_index_ddl_mid_stream_rebuilds_the_view(self):
        workload = [
            ("CREATE (:Threshold {cutoff: 2})", None),
            ("UNWIND range(1, 4) AS i CREATE (:Reading {value: i})", None),
            create_index("Threshold", "cutoff"),
            ("UNWIND range(1, 4) AS i CREATE (:Reading {value: i})", None),
        ]
        _, default = run_pair([ESCALATE], workload)
        view = default.engine.views.view("Escalate")
        assert view is not None
        # one initial build plus one epoch-forced rebuild after the DDL
        assert view.stats["rebuilds"] >= 2
        assert default.graph.count_nodes_with_label("Spike") == 4

    def test_trigger_installed_mid_stream(self):
        second = (
            "CREATE TRIGGER Tally AFTER CREATE ON 'Reading' FOR EACH NODE "
            "WHEN MATCH (t:Threshold) WHERE NEW.value = t.cutoff "
            "BEGIN CREATE (:Exact {value: NEW.value}) END"
        )
        workload = [
            ("CREATE (:Threshold {cutoff: 2})", None),
            ("UNWIND range(1, 3) AS i CREATE (:Reading {value: i})", None),
            install(second),
            ("UNWIND range(1, 3) AS i CREATE (:Reading {value: i})", None),
        ]
        _, default = run_pair([ESCALATE], workload)
        assert default.graph.count_nodes_with_label("Exact") == 1
        assert default.engine.views.view("Tally") is not None

    def test_trigger_dropped_mid_stream_prunes_its_view(self):
        workload = [
            ("CREATE (:Threshold {cutoff: 0})", None),
            ("UNWIND range(1, 3) AS i CREATE (:Reading {value: i})", None),
            drop("Escalate"),
            ("UNWIND range(1, 3) AS i CREATE (:Reading {value: i})", None),
        ]
        _, default = run_pair([ESCALATE], workload)
        assert default.engine.views.view("Escalate") is None
        assert default.graph.count_nodes_with_label("Spike") == 3

    def test_reinstalled_trigger_gets_a_fresh_view(self):
        flipped = (
            "CREATE TRIGGER Escalate AFTER CREATE ON 'Reading' FOR EACH NODE "
            "WHEN MATCH (t:Threshold) WHERE NEW.value < t.cutoff "
            "BEGIN CREATE (:Dip {value: NEW.value}) END"
        )
        workload = [
            ("CREATE (:Threshold {cutoff: 2})", None),
            ("UNWIND range(1, 3) AS i CREATE (:Reading {value: i})", None),
            drop("Escalate"),
            install(flipped),
            ("UNWIND range(1, 3) AS i CREATE (:Reading {value: i})", None),
        ]
        _, default = run_pair([ESCALATE], workload)
        assert default.graph.count_nodes_with_label("Spike") == 1
        assert default.graph.count_nodes_with_label("Dip") == 1
        view = default.engine.views.view("Escalate")
        assert view is not None  # the *new* definition's view


# ---------------------------------------------------------------------------
# closing a session detaches its views from the graph
# ---------------------------------------------------------------------------


def close_and_mutate(session: GraphSession) -> None:
    """Close the session, then change the graph behind its back."""
    session.close()
    session.graph.create_node(["Threshold"], {"cutoff": 0})


class TestSessionClose:
    def test_dropped_graph_keeps_no_listener(self):
        graph = PropertyGraph()
        database = GraphDatabase()
        for _ in range(3):
            session = database.create_graph("g", graph=graph)
            session.create_trigger(ESCALATE)
            session.run("CREATE (:Threshold {cutoff: 1})")
            session.run("UNWIND range(1, 3) AS i CREATE (:Reading {value: i})")
            view = session.engine.views.view("Escalate")
            assert view is not None
            database.drop_graph("g")
            assert graph._mutation_listeners == []
            # the dropped session's view no longer follows the graph
            applied = view.stats["deltas_applied"]
            graph.create_node(["Threshold"], {"cutoff": 9})
            assert view.stats["deltas_applied"] == applied

    def test_session_reused_after_close_matches_sequential(self):
        workload = [
            ("CREATE (:Threshold {cutoff: 5})", None),
            ("UNWIND range(1, 4) AS i CREATE (:Reading {value: i})", None),
            close_and_mutate,
            ("UNWIND range(1, 4) AS i CREATE (:Reading {value: i})", None),
            # after reuse the view must follow the graph again
            ("MATCH (t:Threshold) SET t.cutoff = 10", None),
            ("UNWIND range(1, 4) AS i CREATE (:Reading {value: i})", None),
        ]
        _, default = run_pair([ESCALATE], workload)
        # the threshold created while closed lets the middle readings fire
        assert default.graph.count_nodes_with_label("Spike") == 4
        assert default.engine.views.view("Escalate") is not None
        assert len(default.graph._mutation_listeners) == 1


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------


class TestObservability:
    def test_summary_carries_the_evaluation_report(self):
        session = GraphSession(clock=CLOCK)
        session.create_trigger(ESCALATE)
        session.run("CREATE (:Threshold {cutoff: 1})")
        summary = session.run(
            "UNWIND range(1, 4) AS i CREATE (:Reading {value: i})"
        ).consume()
        report = summary.trigger_evaluation
        assert report is not None
        assert report["Escalate"]["tiers"].get("incremental", 0) >= 1
        assert report["Escalate"]["view"]["evaluations"] >= 4
        assert summary.as_dict()["trigger_evaluation"] == report
        assert session.explain_triggers() == report

    def test_demotion_reasons_are_reported(self):
        trigger = (
            "CREATE TRIGGER Rel AFTER CREATE ON 'Y' FOR EACH NODE "
            "WHEN MATCH (a:X)-[:L]->(b:Z) BEGIN CREATE (:AlertL) END"
        )
        session = GraphSession(clock=CLOCK)
        session.create_trigger(trigger)
        session.run("UNWIND range(1, 3) AS i CREATE (:Y {v: i})")
        report = session.explain_triggers()["Rel"]
        assert report["ineligible"]
        assert sum(report["demotions"].values()) >= 1

    def test_disabled_tier_reports_no_views(self):
        session = GraphSession(clock=CLOCK, incremental_triggers=False)
        session.create_trigger(ESCALATE)
        session.run("CREATE (:Threshold {cutoff: 1})")
        session.run("UNWIND range(1, 3) AS i CREATE (:Reading {value: i})")
        assert session.engine.views is None
        report = session.explain_triggers()["Escalate"]
        assert "incremental" not in report["tiers"]


# ---------------------------------------------------------------------------
# randomized trigger sets over randomized delta streams
# ---------------------------------------------------------------------------

#: Templates biased toward the incremental tier's footprint (single-node
#: labelled patterns, literal inline props, transition-correlated WHEREs)
#: but covering every demotion path too: aggregates, relationships,
#: unlabelled patterns, EXISTS predicates, self-interference, FOR ALL.
TRIGGER_TEMPLATES = [
    "CREATE TRIGGER TCorr AFTER CREATE ON 'X' FOR EACH NODE "
    "WHEN MATCH (f:Flag) WHERE NEW.value > f.cutoff "
    "BEGIN CREATE (:AlertC {value: NEW.value}) END",
    "CREATE TRIGGER TInv AFTER CREATE ON 'X' FOR EACH NODE "
    "WHEN MATCH (f:Flag {enabled: true}) BEGIN CREATE (:AlertI) END",
    "CREATE TRIGGER TJoin AFTER CREATE ON 'X' FOR EACH NODE "
    "WHEN MATCH (a:Flag) MATCH (c:Counter) WHERE a.cutoff < c.count "
    "BEGIN CREATE (:AlertJ) END",
    "CREATE TRIGGER TSelf AFTER CREATE ON 'X' FOR EACH NODE "
    "WHEN MATCH (c:Counter) WHERE c.count < 3 "
    "BEGIN MATCH (c:Counter) SET c.count = c.count + 1 END",
    "CREATE TRIGGER TAgg AFTER CREATE ON 'X' FOR EACH NODE "
    "WHEN MATCH (n:X) WITH count(n) AS c WHERE c > 3 "
    "BEGIN CREATE (:AlertA) END",
    "CREATE TRIGGER TRel AFTER CREATE ON 'Y' FOR EACH NODE "
    "WHEN MATCH (y:Y)-[:L]->(x:X) WHERE x.value > 1 "
    "BEGIN CREATE (:AlertR) END",
    "CREATE TRIGGER TExists AFTER CREATE ON 'Y' FOR EACH NODE "
    "WHEN EXISTS (NEW)-[:L]-(:X) BEGIN CREATE (:AlertE) END",
    "CREATE TRIGGER TPred AFTER CREATE ON 'X' FOR EACH NODE "
    "WHEN NEW.value > 2 BEGIN CREATE (:AlertP {value: NEW.value}) END",
    "CREATE TRIGGER TDel AFTER DELETE ON 'X' FOR EACH NODE "
    "WHEN MATCH (f:Flag) WHERE OLD.value = f.cutoff "
    "BEGIN CREATE (:AlertD {value: OLD.value}) END",
    "CREATE TRIGGER TAll AFTER CREATE ON 'X' FOR ALL NODES "
    "WHEN MATCH (pn:NEWNODES) WHERE pn.value > 1 "
    "BEGIN CREATE (:AlertS) END",
]

#: Workload steps, parameterized by one small integer.  The last two are
#: out-of-band events: index DDL and dropping/reinstalling a trigger.
STATEMENT_TEMPLATES = [
    lambda v: (f"UNWIND range(1, {v % 6 + 1}) AS i CREATE (:X {{value: i}})", None),
    lambda v: ("CREATE (:X {value: $v})", {"v": v}),
    lambda v: ("CREATE (:Flag {enabled: true, cutoff: $c})", {"c": v % 4}),
    lambda v: ("CREATE (:Counter {count: 0})", None),
    lambda v: (
        "MATCH (x:X {value: $v}) CREATE (:Y {value: $v})-[:L]->(x)",
        {"v": v % 4 + 1},
    ),
    lambda v: ("MATCH (x:X) WHERE x.value = $v DETACH DELETE x", {"v": v % 4 + 1}),
    lambda v: ("MATCH (f:Flag) SET f.cutoff = $c", {"c": v % 5}),
    lambda v: ("MATCH (f:Flag) WHERE f.cutoff = $c REMOVE f.enabled", {"c": v % 5}),
]


def _ddl_step(v):
    label, prop = [("X", "value"), ("Flag", "cutoff"), ("Counter", "count")][v % 3]

    def apply(session: GraphSession) -> None:
        if (label, prop) not in session.graph.property_indexes():
            session.graph.create_property_index(label, prop)

    return apply


def _drop_step(v):
    def apply(session: GraphSession) -> None:
        for name in list(session.engine.registry.names()):
            if hash(name) % 3 == v % 3:
                session.drop_trigger(name)

    return apply


WORKLOAD_BUILDERS = STATEMENT_TEMPLATES + [_ddl_step, _drop_step]

#: A second mix aimed at the evaluation routes rather than the view
#: footprint: plain predicates, EXISTS conditions, invariant and
#: correlated query conditions, aggregating conditions, FOR ALL set
#: granularity, self-interfering actions and cascading re-activation.
ROUTE_TRIGGER_TEMPLATES = [
    "CREATE TRIGGER TPred AFTER CREATE ON 'X' FOR EACH NODE "
    "WHEN NEW.value > 2 BEGIN CREATE (:AlertP {value: NEW.value}) END",
    "CREATE TRIGGER TInvariant AFTER CREATE ON 'X' FOR EACH NODE "
    "WHEN MATCH (f:Flag {enabled: true}) BEGIN CREATE (:AlertI) END",
    "CREATE TRIGGER TCorrelated AFTER CREATE ON 'X' FOR EACH NODE "
    "WHEN MATCH (f:Flag) WHERE NEW.value > f.cutoff "
    "BEGIN CREATE (:AlertC {value: NEW.value}) END",
    "CREATE TRIGGER TAggregate AFTER CREATE ON 'X' FOR EACH NODE "
    "WHEN MATCH (n:X) WITH count(n) AS c WHERE c > 3 "
    "BEGIN CREATE (:AlertA) END",
    "CREATE TRIGGER TSelf AFTER CREATE ON 'X' FOR EACH NODE "
    "WHEN MATCH (c:Counter) WHERE c.count < 3 "
    "BEGIN MATCH (c:Counter) SET c.count = c.count + 1 END",
    "CREATE TRIGGER TCascade AFTER CREATE ON 'AlertC' FOR EACH NODE "
    "BEGIN CREATE (:Audit) END",
    "CREATE TRIGGER TAll AFTER CREATE ON 'X' FOR ALL NODES "
    "WHEN MATCH (pn:NEWNODES) WHERE pn.value > 1 "
    "BEGIN CREATE (:AlertS) END",
    "CREATE TRIGGER TExists AFTER CREATE ON 'Y' FOR EACH NODE "
    "WHEN EXISTS (NEW)-[:L]-(:X) BEGIN CREATE (:AlertE) END",
    "CREATE TRIGGER TDelete AFTER DELETE ON 'X' FOR EACH NODE "
    "WHEN MATCH (f:Flag) WHERE OLD.value = f.cutoff "
    "BEGIN CREATE (:AlertD {value: OLD.value}) END",
]

ROUTE_STATEMENT_TEMPLATES = STATEMENT_TEMPLATES[:7] + [
    lambda v: (f"UNWIND range(1, {v % 4 + 2}) AS i CREATE (:Y {{value: i}})", None),
]


def trigger_subsets(templates):
    return st.lists(
        st.integers(min_value=0, max_value=len(templates) - 1),
        min_size=1,
        max_size=5,
        unique=True,
    )


def workloads(builders):
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=len(builders) - 1),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=1,
        max_size=8,
    )


class TestRandomizedDifferential:
    @given(
        trigger_indexes=trigger_subsets(TRIGGER_TEMPLATES),
        workload=workloads(WORKLOAD_BUILDERS),
    )
    @settings(max_examples=80, deadline=None)
    def test_view_footprint_mix_matches_sequential(self, trigger_indexes, workload):
        triggers = [TRIGGER_TEMPLATES[i] for i in sorted(trigger_indexes)]
        steps = [WORKLOAD_BUILDERS[kind](value) for kind, value in workload]
        run_pair(triggers, steps)

    @given(
        trigger_indexes=trigger_subsets(ROUTE_TRIGGER_TEMPLATES),
        workload=workloads(ROUTE_STATEMENT_TEMPLATES),
    )
    @settings(max_examples=100, deadline=None)
    def test_evaluation_route_mix_matches_sequential(self, trigger_indexes, workload):
        triggers = [ROUTE_TRIGGER_TEMPLATES[i] for i in sorted(trigger_indexes)]
        steps = [ROUTE_STATEMENT_TEMPLATES[kind](value) for kind, value in workload]
        run_pair(triggers, steps)
