"""Deterministic work counts for two Section 6.2 trigger conditions.

No timing: each test counts store adjacency probes
(``PropertyGraph.relationships_of`` calls), which is the work a condition
query does when it walks the graph.

* ``NewCriticalLineage`` starts at its ``NEW`` relationship's endpoints
  and its EXISTS starts at the bound sequence, so one activation's probes
  do not grow with the Sequence and critical-mutation populations.
* ``IcuPatientIncrease``'s ``(pn:NEWNODES)`` clause reads nothing from the
  ``p`` rows before it, so it is matched once per condition execution,
  not once per ``p`` row.
* A plain-expression ``WHEN EXISTS …`` naming ``NEW`` at its far end is
  walked from ``NEW`` as well.
"""

import pytest

from repro.datasets.paper_triggers import icu_patient_increase, new_critical_lineage
from repro.graph.store import PropertyGraph
from repro.triggers import GraphSession


@pytest.fixture
def probes(monkeypatch):
    """Node ids passed to ``relationships_of`` while the fixture is live."""
    calls: list[int] = []
    original = PropertyGraph.relationships_of

    def counting(self, node_id, direction="both"):
        calls.append(node_id)
        return original(self, node_id, direction=direction)

    monkeypatch.setattr(PropertyGraph, "relationships_of", counting)
    return calls


def lineage_session(sequences: int, critical: int) -> GraphSession:
    session = GraphSession()
    session.run("CREATE (:CriticalEffect {name: 'escape'}), (:Lineage {name: 'L1'})")
    session.run(
        "MATCH (c:CriticalEffect) UNWIND range(1, $n) AS i "
        "CREATE (:Mutation {name: 'crit' + toString(i)})-[:Risk]->(c)",
        {"n": critical},
    )
    session.run(
        # s0 carries the *last* critical mutation, so a walk from the
        # CriticalEffect side would meet it only after all the others.
        "MATCH (m:Mutation) WITH collect(m) AS ms UNWIND range(0, $n - 1) AS i "
        "WITH ms[size(ms) - 1 - i % size(ms)] AS m, i "
        "CREATE (m)-[:FoundIn]->(:Sequence {name: 's' + toString(i)})",
        {"n": sequences},
    )
    session.create_trigger(new_critical_lineage())
    return session


def one_lineage_activation(session: GraphSession, probes: list[int]) -> int:
    probes.clear()
    session.run(
        "MATCH (s:Sequence {name: 's0'}) MATCH (l:Lineage {name: 'L1'}) "
        "CREATE (s)-[:BelongsTo]->(l)"
    )
    return len(probes)


def test_new_critical_lineage_probes_do_not_grow_with_the_population(probes):
    small = lineage_session(sequences=50, critical=10)
    large = lineage_session(sequences=100, critical=20)
    small_count = one_lineage_activation(small, probes)
    large_count = one_lineage_activation(large, probes)
    assert small.graph.count_nodes_with_label("Alert") == 1
    assert large.graph.count_nodes_with_label("Alert") == 1
    assert small_count == large_count
    # s0, then its one critical mutation: a couple of probes, not a scan.
    assert small_count <= 4


def icu_session(patients: int) -> GraphSession:
    session = GraphSession()
    session.run("CREATE (:Hospital {name: 'Sacco'}), (:Hospital {name: 'Meyer'})")
    session.run(
        "MATCH (h:Hospital {name: 'Sacco'}) UNWIND range(1, $n) AS i "
        "CREATE (:HospitalizedPatient:IcuPatient {ssn: i})-[:TreatedAt]->(h)",
        {"n": patients},
    )
    session.create_trigger(icu_patient_increase(fraction=0.0))
    return session


def newnodes_probes(session: GraphSession, probes: list[int], admitted: int) -> int:
    """Probes on the newly admitted patients during one FOR ALL execution."""
    probes.clear()
    session.run(
        "MATCH (h:Hospital {name: 'Sacco'}) UNWIND range(1, $n) AS i "
        "CREATE (:HospitalizedPatient:IcuPatient {ssn: -i})-[:TreatedAt]->(h)",
        {"n": admitted},
    )
    new_ids = {
        node.id
        for node in session.graph.nodes_with_label("IcuPatient")
        if node.properties["ssn"] < 0
    }
    assert session.graph.count_nodes_with_label("Alert") == 1
    return sum(1 for node_id in probes if node_id in new_ids)


def test_icu_patient_increase_matches_newnodes_once_per_execution(probes):
    admitted = 3
    small = newnodes_probes(icu_session(patients=10), probes, admitted)
    large = newnodes_probes(icu_session(patients=20), probes, admitted)
    assert small == large
    # Once per new node for the NEWNODES clause, plus at most once more if
    # the p clause walks from the patients rather than from the hospital.
    assert small <= 2 * admitted


SEQUENCE_ALERT = """
CREATE TRIGGER CriticalSequence
AFTER CREATE ON 'Sequence' FOR EACH NODE
WHEN EXISTS (:CriticalEffect)-[:Risk]-(:Mutation)-[:FoundIn]-(NEW)
BEGIN
  CREATE (:Alert {desc: 'New sequence with a critical mutation'})
END
"""


def test_plain_when_exists_starts_at_new(probes):
    """A plain-expression WHEN EXISTS is planned against the bindings row
    too: the pattern above is walked from NEW, not from CriticalEffect."""
    counts = []
    for critical in (10, 20):
        session = lineage_session(sequences=5 * critical, critical=critical)
        session.create_trigger(SEQUENCE_ALERT)
        probes.clear()
        # The last critical mutation: a walk from CriticalEffect meets it last.
        session.run(
            "MATCH (m:Mutation {name: $m}) "
            "CREATE (m)-[:FoundIn]->(:Sequence {name: 'fresh'})",
            {"m": f"crit{critical}"},
        )
        assert session.graph.count_nodes_with_label("Alert") == 1
        counts.append(len(probes))
    assert counts[0] == counts[1]
