"""Planning from what is already bound: anchored starts, replayed clauses,
null/non-node bindings and what EXPLAIN shows for them.

The planner learns which variables the caller's initial row binds (a
trigger's ``NEW``/``OLD``), what earlier clauses bind, and what the row
enclosing an EXISTS pattern binds.  A pattern then starts at a bound
element, and a MATCH clause that reads nothing from its input rows is
matched once per stage and replayed.  These tests pin the semantics the
anchored and head-first walks share, and the EXPLAIN lines for both.
"""

import pytest

from repro.cypher import QueryExecutor, explain, parse_query, plan_query
from repro.cypher.errors import CypherTypeError
from repro.cypher.planner import PLAN_CACHE
from repro.cypher.physical import ARGUMENT, REL_ARGUMENT
from repro.datasets.paper_triggers import icu_patient_increase, new_critical_lineage
from repro.graph.store import PropertyGraph
from repro.triggers.parser import parse_trigger


def mutation_graph(sequences: int = 40, mutations: int = 4) -> PropertyGraph:
    graph = PropertyGraph()
    found = [
        graph.create_node(["Mutation"], {"name": f"m{i}"}) for i in range(mutations)
    ]
    for i in range(sequences):
        sequence = graph.create_node(["Sequence"], {"name": f"s{i}"})
        graph.create_relationship("FoundIn", found[i % mutations].id, sequence.id)
    graph.create_property_index("Mutation", "name")
    return graph


LATER_CLAUSE = (
    "MATCH (a:Mutation {name: $n}) MATCH (s:Sequence)-[:FoundIn]-(a) "
    "RETURN s.name AS name"
)


def condition_query(trigger_text: str):
    """The trigger's WHEN body as the engine compiles it (a Query)."""
    condition = parse_trigger(trigger_text).condition
    return PLAN_CACHE.condition_compiled(condition).parsed


# ---------------------------------------------------------------------------
# null and non-node bindings behave the same at every position
# ---------------------------------------------------------------------------


def small_graph() -> PropertyGraph:
    graph = PropertyGraph()
    a = graph.create_node(["A"], {"v": 1})
    b = graph.create_node(["B"], {"v": 2})
    graph.create_relationship("R", a.id, b.id)
    return graph


@pytest.mark.parametrize("join_ordering", [True, False])
def test_null_bound_tail_matches_nothing(join_ordering):
    graph = small_graph()
    rows = QueryExecutor(graph, join_ordering=join_ordering).execute(
        "OPTIONAL MATCH (x:Nope) WITH x MATCH (a)-[:R]->(x) RETURN a"
    ).rows
    assert rows == []


@pytest.mark.parametrize("join_ordering", [True, False])
def test_null_bound_head_matches_nothing(join_ordering):
    graph = small_graph()
    rows = QueryExecutor(graph, join_ordering=join_ordering).execute(
        "OPTIONAL MATCH (x:Nope) WITH x MATCH (x)-[:R]->(b) RETURN b"
    ).rows
    assert rows == []


def test_null_caller_binding_matches_nothing():
    # In an AFTER CREATE trigger OLD is null: a pattern over it finds nothing.
    graph = small_graph()
    executor = QueryExecutor(graph)
    rows = executor.execute(
        "MATCH (OLD)-[:R]->(b) RETURN b", bindings={"OLD": None}
    ).rows
    assert rows == []
    rows = executor.execute(
        "MATCH (a)-[:R]->(OLD) RETURN a", bindings={"OLD": None}
    ).rows
    assert rows == []


@pytest.mark.parametrize("join_ordering", [True, False])
@pytest.mark.parametrize(
    "query",
    [
        "WITH 1 AS a MATCH (a)-[:R]->(b) RETURN b",
        "WITH 1 AS b MATCH (a)-[:R]->(b) RETURN a",
        "WITH 1 AS b MATCH (a)-[:R]->(b)-[:R]->(c) RETURN a",
        "WITH 1 AS b MATCH (a:Nope)-[:R]->(b) RETURN a",
    ],
)
def test_non_node_binding_raises_at_every_position(query, join_ordering):
    graph = small_graph()
    with pytest.raises(CypherTypeError, match="'[ab]' is not bound to a node"):
        QueryExecutor(graph, join_ordering=join_ordering).execute(query)


def test_null_bound_relationship_matches_nothing_from_a_rel_index_seek():
    graph = small_graph()
    graph.create_relationship_property_index("R", "w")
    a, b = graph.nodes_with_label("A")[0], graph.nodes_with_label("B")[0]
    graph.create_relationship("R", a.id, b.id, {"w": 1})
    rows = QueryExecutor(graph).execute(
        "MATCH (a)-[r:R {w: 1}]->(b) RETURN a", bindings={"r": None}
    ).rows
    assert rows == []


# ---------------------------------------------------------------------------
# anchored starts
# ---------------------------------------------------------------------------


def test_later_clause_starts_at_the_bound_tail():
    graph = mutation_graph()
    text = explain(LATER_CLAUSE, graph)
    assert "start=(a) Argument(bound) est~1 rows" in text
    assert "LabelScan(Sequence)" not in text
    fast = QueryExecutor(graph).execute(LATER_CLAUSE, parameters={"n": "m1"}).rows
    naive = QueryExecutor(graph, join_ordering=False).execute(
        LATER_CLAUSE, parameters={"n": "m1"}
    ).rows
    assert sorted(r["name"] for r in fast) == sorted(r["name"] for r in naive)
    assert len(fast) == 10


def test_caller_bound_names_key_the_plan_cache():
    graph = mutation_graph()
    query = "MATCH (s:Sequence)-[:FoundIn]-(a) RETURN s"
    unbound = PLAN_CACHE.get(query, graph)[1]
    bound = PLAN_CACHE.get(query, graph, frozenset(), frozenset({"a"}))[1]
    assert unbound is not bound
    assert unbound.pattern_plans()[0].start.kind != ARGUMENT
    assert bound.pattern_plans()[0].start.kind == ARGUMENT
    assert bound.pattern_plans()[0].reversed


def test_caller_binding_anchors_the_walk():
    graph = mutation_graph()
    mutation = graph.nodes_with_label("Mutation")[2]
    rows = QueryExecutor(graph).execute(
        "MATCH (s:Sequence)-[:FoundIn]-(a) RETURN s.name AS name",
        bindings={"a": mutation},
    ).rows
    assert sorted(r["name"] for r in rows) == sorted(f"s{i}" for i in range(2, 40, 4))


def test_bound_relationship_starts_at_its_endpoints():
    graph = mutation_graph()
    rel = next(iter(graph.relationships()))
    query = "MATCH (m:Mutation)-[r]-(s:Sequence) RETURN m.name AS m, s.name AS s"
    plan = PLAN_CACHE.get(query, graph, frozenset(), frozenset({"r"}))[1]
    assert plan.pattern_plans()[0].start.kind == REL_ARGUMENT
    rows = QueryExecutor(graph).execute(query, bindings={"r": rel}).rows
    assert rows == [{"m": "m0", "s": "s0"}]


def test_row_without_the_anchor_falls_back_to_the_head_first_walk():
    # stream_batch plans for the union of its rows' names; a row lacking the
    # anchor walks from the first node and still finds every match.
    graph = mutation_graph(sequences=8, mutations=2)
    mutation = graph.nodes_with_label("Mutation")[0]
    query = "MATCH (s:Sequence)-[:FoundIn]-(a) RETURN s.name AS name"
    _, rows = QueryExecutor(graph).stream_batch(query, [{"a": mutation}, {}])
    names = [row["name"] for row in rows]
    assert len(names) == 4 + 8


def test_exists_starts_at_the_enclosing_row():
    graph = mutation_graph()
    query = (
        "MATCH (s:Sequence) WHERE EXISTS { MATCH (:Mutation {name: 'm1'})-[:FoundIn]-(s) } "
        "RETURN s.name AS name"
    )
    text = explain(query, graph)
    assert "Exists start=(s) Argument(bound)" in text
    fast = QueryExecutor(graph).execute(query).rows
    assert sorted(r["name"] for r in fast) == sorted(f"s{i}" for i in range(1, 40, 4))


def test_new_critical_lineage_condition_plans_around_new():
    graph = mutation_graph()
    query = condition_query(new_critical_lineage())
    text = QueryExecutor(graph, virtual_labels={"NEW": set()}).plan_description(
        query, bound_names={"OLD", "NEW"}
    )
    assert "LabelScan(Sequence)" not in text
    assert "start=(s) Argument([NEW] bound) est~1 rows" in text
    assert "Exists start=(s) Argument(bound)" in text


def test_named_and_variable_length_paths_do_not_reverse():
    graph = mutation_graph()
    for query in (
        "MATCH p = (s:Sequence)-[:FoundIn]-(a) RETURN p",
        "MATCH (s:Sequence)-[:FoundIn*1..2]-(a) RETURN s",
        "MATCH (s:Sequence {name: a.name})-[:FoundIn]-(a) RETURN s",
    ):
        plan = PLAN_CACHE.get(query, graph, frozenset(), frozenset({"a"}))[1]
        [pattern_plan] = plan.pattern_plans()
        assert not pattern_plan.reversed, query
        assert pattern_plan.start.kind != ARGUMENT, query


# ---------------------------------------------------------------------------
# uncorrelated clauses: matched once per stage
# ---------------------------------------------------------------------------


def test_icu_patient_increase_condition_replays_the_newnodes_clause():
    graph = PropertyGraph()
    query = condition_query(icu_patient_increase())
    text = QueryExecutor(graph, virtual_labels={"NEWNODES": set()}).plan_description(
        query, bound_names={"OLDNODES", "NEWNODES"}
    )
    assert "Replay(clause[1], matched once per stage)" in text


def test_only_uncorrelated_clauses_after_several_rows_are_replayed():
    graph = mutation_graph()
    for query in (
        # the first clause has a single input row
        "MATCH (a:Mutation) RETURN a",
        # correlated: a bound variable, a property map reading one, or a
        # value that may differ per row
        "MATCH (a:Mutation) MATCH (s:Sequence)-[:FoundIn]-(a) RETURN s",
        "MATCH (a:Mutation) MATCH (b:Mutation {name: a.name}) RETURN b",
        "UNWIND [1, 2] AS i MATCH (s:Sequence {v: toInteger(rand() * 3)}) RETURN s",
    ):
        plan = plan_query(parse_query(query), graph)
        assert "Replay(" not in plan.plan_description(), query


def test_replayed_clause_matches_once(monkeypatch):
    graph = mutation_graph(sequences=6, mutations=3)
    calls = []
    original = PropertyGraph.relationships_of

    def counting(self, node_id, direction="both"):
        calls.append(node_id)
        return original(self, node_id, direction=direction)

    monkeypatch.setattr(PropertyGraph, "relationships_of", counting)
    query = (
        "UNWIND range(1, 5) AS i MATCH (m:Mutation)-[:FoundIn]->(s:Sequence) "
        "RETURN i, s.name AS s"
    )
    fast = QueryExecutor(graph).execute(query).rows
    once = len(calls)
    calls.clear()
    naive = QueryExecutor(graph, join_ordering=False).execute(query).rows
    assert len(calls) == 5 * once
    assert sorted(map(repr, fast)) == sorted(map(repr, naive))
    assert len(fast) == 5 * 6


def test_replayed_clause_stops_early_under_limit():
    graph = mutation_graph(sequences=6, mutations=3)
    rows = QueryExecutor(graph).execute(
        "UNWIND range(1, 3) AS i MATCH (s:Sequence) RETURN i, s.name AS s LIMIT 2"
    ).rows
    assert rows == [{"i": 1, "s": "s0"}, {"i": 1, "s": "s1"}]
