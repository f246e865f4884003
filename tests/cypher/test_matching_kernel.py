"""The matching kernel's rules: inline-map equality, MERGE nulls, evaluation.

* Inline property maps compare with WHERE's ``=``: null matches nothing
  and a boolean never equals a number — with or without an index, on
  nodes and relationships, and in the incremental trigger tier's alpha
  test, so default and sequential trigger evaluation still agree.
* MERGE on a null inline value raises, whether or not a candidate exists.
* A row-invariant inline value (literal, parameter) is evaluated at most
  once per input row, and only once a candidate reaches its entry; other
  values are evaluated per candidate.
* Projection column names are rendered once per projection, not per row.
* Matches that bind nothing new may share one row, so a write clause over
  them must still act as if every match had its own row.
"""

from __future__ import annotations

import pytest

from repro.cypher import QueryExecutor, ast as cypher_ast
from repro.cypher import expressions as cypher_expressions
from repro.cypher.errors import CypherRuntimeError
from repro.graph import PropertyGraph
from tests.triggers.test_incremental_evaluation import run_pair, tiers_used


def rows(graph, query, parameters=None, **kwargs):
    return QueryExecutor(graph, **kwargs).execute(query, parameters).rows


@pytest.fixture
def typed_graph():
    graph = PropertyGraph()
    graph.create_node(["L"], {"tag": "missing"})
    graph.create_node(["L"], {"tag": "int", "x": 1})
    graph.create_node(["L"], {"tag": "bool", "x": True})
    graph.create_node(["L"], {"tag": "float", "x": 1.0})
    graph.create_node(["L"], {"tag": "zero", "x": 0})
    graph.create_node(["L"], {"tag": "false", "x": False})
    return graph


def tags(graph, query, parameters=None, **kwargs):
    return sorted(row["t"] for row in rows(graph, query, parameters, **kwargs))


class TestInlineEquality:
    def test_null_inline_value_matches_nothing(self, typed_graph):
        assert tags(typed_graph, "MATCH (n:L {x: null}) RETURN n.tag AS t") == []
        assert tags(
            typed_graph, "MATCH (n:L {x: $v}) RETURN n.tag AS t", {"v": None}
        ) == []
        # ... exactly like WHERE n.x = null
        assert tags(typed_graph, "MATCH (n:L) WHERE n.x = null RETURN n.tag AS t") == []

    @pytest.mark.parametrize("indexed", [False, True])
    def test_booleans_never_equal_numbers(self, typed_graph, indexed):
        if indexed:
            typed_graph.create_property_index("L", "x")
        assert tags(typed_graph, "MATCH (n:L {x: true}) RETURN n.tag AS t") == ["bool"]
        assert tags(typed_graph, "MATCH (n:L {x: 1}) RETURN n.tag AS t") == ["float", "int"]
        assert tags(typed_graph, "MATCH (n:L {x: 0}) RETURN n.tag AS t") == ["zero"]
        assert tags(
            typed_graph, "MATCH (n:L {x: $v}) RETURN n.tag AS t", {"v": False}
        ) == ["false"]

    @pytest.mark.parametrize("value", [None, True, False, 1, 0, 1.0, "int"])
    def test_inline_map_agrees_with_where(self, typed_graph, value):
        inline = "MATCH (n:L {x: $v}) RETURN n.tag AS t"
        where = "MATCH (n:L) WHERE n.x = $v RETURN n.tag AS t"
        assert tags(typed_graph, inline, {"v": value}) == tags(
            typed_graph, where, {"v": value}
        )

    def test_relationship_inline_map(self):
        graph = PropertyGraph()
        a = graph.create_node(["A"])
        for value in (1, True, None):
            props = {} if value is None else {"w": value}
            graph.create_relationship("R", a.id, graph.create_node(["B"]).id, props)
        query = "MATCH (:A)-[r:R {w: $v}]->(b) RETURN id(r) AS id"
        assert len(rows(graph, query, {"v": True})) == 1
        assert len(rows(graph, query, {"v": 1})) == 1
        assert rows(graph, query, {"v": None}) == []
        graph.create_relationship_property_index("R", "w")
        assert len(rows(graph, query, {"v": True})) == 1
        assert len(rows(graph, query, {"v": 1})) == 1


class TestMergeNulls:
    def test_merge_on_null_raises_instead_of_matching(self, typed_graph):
        with pytest.raises(CypherRuntimeError):
            rows(typed_graph, "MERGE (n:L {x: null}) RETURN n.tag AS t")
        with pytest.raises(CypherRuntimeError):
            rows(typed_graph, "MERGE (n:L {x: $v}) RETURN n", {"v": None})

    def test_merge_on_null_raises_with_no_candidate(self):
        graph = PropertyGraph()
        with pytest.raises(CypherRuntimeError):
            rows(graph, "MERGE (n:Empty {x: null}) RETURN n")
        assert graph.node_count() == 0
        with pytest.raises(CypherRuntimeError):
            rows(graph, "CREATE (:A) WITH 1 AS one MERGE (:A)-[:R {w: null}]->(:B)")

    def test_merge_still_matches_and_creates(self, typed_graph):
        assert tags(typed_graph, "MERGE (n:L {x: true}) RETURN n.tag AS t") == ["bool"]
        before = typed_graph.node_count()
        rows(typed_graph, "MERGE (n:L {x: 2})")
        assert typed_graph.node_count() == before + 1


def counting_evaluate(monkeypatch, kind):
    """Count evaluations of ``kind`` AST nodes (through the dispatch table)."""
    calls: list[object] = []
    original = cypher_expressions._DISPATCH[kind]

    def counting(expr, row, context):
        calls.append(expr)
        return original(expr, row, context)

    monkeypatch.setitem(cypher_expressions._DISPATCH, kind, counting)
    return calls


class TestEvaluationTiming:
    @pytest.fixture
    def graph(self):
        graph = PropertyGraph()
        for index in range(50):
            graph.create_node(["M"], {"name": f"m{index}", "a": index % 2})
        return graph

    def test_parameter_evaluated_once_per_input_row(self, graph, monkeypatch):
        calls = counting_evaluate(monkeypatch, cypher_ast.Parameter)
        assert len(rows(graph, "MATCH (m:M {name: $m}) RETURN m", {"m": "m7"})) == 1
        assert len(calls) == 1
        calls.clear()
        result = rows(
            graph, "UNWIND [1, 2, 3] AS i MATCH (m:M {name: $m}) RETURN i", {"m": "m7"},
            join_ordering=False,
        )
        assert len(result) == 3
        assert len(calls) == 3

    def test_value_evaluated_only_when_a_candidate_reaches_it(self, graph):
        query = "MATCH (m:M {a: $a, name: $missing}) RETURN m"
        # No candidate has a = 5, so the missing parameter is never read.
        assert rows(graph, query, {"a": 5}) == []
        with pytest.raises(CypherRuntimeError):
            rows(graph, query, {"a": 1})
        # A scan over an empty label raises nothing.
        assert rows(graph, "MATCH (n:Nothing {x: $missing}) RETURN n") == []

    def test_non_invariant_values_are_evaluated_per_candidate(self, graph, monkeypatch):
        calls = counting_evaluate(monkeypatch, cypher_ast.FunctionCall)
        assert len(rows(graph, "MATCH (m:M {a: abs(0)}) RETURN m")) == 25
        assert len(calls) == 50
        calls.clear()
        result = rows(graph, "MATCH (m:M {name: 'm3'}), (n:M {a: abs(m.a)}) RETURN n")
        assert len(result) == 25
        assert len(calls) == 50


def test_column_names_render_once_per_projection(monkeypatch):
    renders: list[object] = []
    original = cypher_ast.expression_text

    def counting(expr):
        renders.append(expr)
        return original(expr)

    monkeypatch.setattr(cypher_ast, "expression_text", counting)
    counts = []
    for size in (5, 500):
        graph = PropertyGraph()  # a new graph plans afresh: same planning renders
        for index in range(size):
            graph.create_node(["N"], {"x": index})
        renders.clear()
        for query in ("MATCH (n:N) RETURN n.x", "MATCH (n:N) RETURN n.x ORDER BY n.x",
                      "MATCH (n:N) RETURN n.x ORDER BY n.x LIMIT 3",
                      "MATCH (n:N) RETURN count(n.x)"):
            QueryExecutor(graph).execute(query)
        counts.append(len(renders))
    assert counts[0] == counts[1]


class TestIncrementalAlphaTest:
    @pytest.mark.parametrize("inline", ["{x: true}", "{x: 1}", "{x: null}"])
    def test_default_equals_sequential(self, inline):
        trigger = (
            f"CREATE TRIGGER T AFTER CREATE ON 'Item' FOR EACH NODE "
            f"WHEN MATCH (f:Flag {inline}) "
            "BEGIN CREATE (:Fired) END"
        )
        workload = [
            ("CREATE (:Flag {x: 1}), (:Flag {x: true}), (:Flag)", None),
            ("UNWIND range(1, 2) AS i CREATE (:Item {v: i})", None),
        ]
        sequential, default = run_pair([trigger], workload)
        assert "incremental" in tiers_used(default)
        fired = default.graph.count_nodes_with_label("Fired")
        assert fired == {"{x: true}": 2, "{x: 1}": 2, "{x: null}": 0}[inline]


class TestWritesOverSharedRows:
    """SET and REMOVE re-bind each written item to its new snapshot in their
    row; a write on one match must not show through in a sibling match."""

    @pytest.fixture
    def fan_graph(self):
        graph = PropertyGraph()
        hub = graph.create_node(["A"], {})
        for _ in range(3):
            leaf = graph.create_node(["B"], {})
            graph.create_relationship("R", hub.id, leaf.id)
        leaf = graph.create_node(["C"], {})
        for _ in range(3):
            graph.create_relationship("S", hub.id, leaf.id)
        return graph

    @pytest.mark.parametrize(
        "pattern",
        [
            "MATCH (a:A)-[:R]->()",
            "MATCH (a:A)-[:R]->(b)",
            "MATCH (a:A)-[r:R]->()",
            # parallel edges between two bound nodes
            "MATCH (a:A), (c:C) WITH a, c MATCH (a)-[:S]->(c)",
            # MERGE's match phase over several existing relationships
            "MATCH (a:A) MERGE (a)-[:R]->()",
            # a lone bound node re-matched per UNWIND row
            "MATCH (a:A) UNWIND [1, 2, 3] AS i WITH a MATCH (a)",
        ],
    )
    def test_set_sees_only_its_own_row(self, fan_graph, pattern):
        for join_ordering in (True, False):
            result = rows(
                fan_graph,
                pattern + " SET a.c = coalesce(a.c, 0) + 1 RETURN a.c AS c",
                join_ordering=join_ordering,
            )
            assert [row["c"] for row in result] == [1, 1, 1]
            fan_graph.remove_node_property(0, "c")

    def test_remove_sees_only_its_own_row(self, fan_graph):
        # ``b`` aliases ``a``: the first row's ``a`` is re-bound after
        # ``a.x`` goes and before ``b.y`` does, so only it still shows ``y``.
        fan_graph.set_node_property(0, "x", 1)
        fan_graph.set_node_property(0, "y", 2)
        result = rows(
            fan_graph,
            "MATCH (a:A) WITH a, a AS b MATCH (a)-[:R]->() REMOVE a.x, b.y "
            "RETURN a.y AS y",
        )
        assert [row["y"] for row in result] == [2, None, None]
