"""Differential suite: bound-variable anchoring and clause replay vs the naive walk.

The default executor starts a pattern at an element its input row already
binds (head, tail, or first/last relationship) and matches a MATCH clause
that reads nothing from its input once per stage.  ``join_ordering=False``
turns both off — every pattern walks from its first node and every clause
re-matches per input row — so it is the oracle.  For randomized graphs,
randomized bindings (caller-supplied, from an earlier clause, null from
OPTIONAL MATCH padding, a non-node value, a relationship deleted before the
statement runs) and patterns holding the bound variable at the head, the
tail, the middle or on a relationship, both executors must return the same
row multiset, raise the same error, report the same statistics and leave
the same graph behind.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cypher.errors import CypherError
from repro.cypher.executor import QueryExecutor
from repro.graph import PropertyGraph
from repro.graph.model import Node, Relationship
from repro.paths import Path

LABELS = ("A", "B", "C")
REL_TYPES = ("R", "S")

node_specs = st.lists(
    st.tuples(st.sampled_from(LABELS), st.integers(min_value=0, max_value=3)),
    min_size=1,
    max_size=8,
)
rel_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
        st.sampled_from(REL_TYPES),
    ),
    max_size=12,
)


def build_graph(nodes, rels) -> PropertyGraph:
    graph = PropertyGraph()
    created = [graph.create_node([label], {"v": value}) for label, value in nodes]
    for start, end, rel_type in rels:
        a = created[start % len(created)]
        b = created[end % len(created)]  # start == end gives a self-loop
        graph.create_relationship(rel_type, a.id, b.id, {"w": start % 3})
    return graph


def canon(value):
    if isinstance(value, Node):
        return ("node", value.id)
    if isinstance(value, Relationship):
        return ("rel", value.id)
    if isinstance(value, Path):
        return ("path", value._key())
    if isinstance(value, list):
        return ("list", tuple(canon(item) for item in value))
    return value


def graph_state(graph: PropertyGraph):
    nodes = sorted(
        (n.id, tuple(sorted(n.labels)), tuple(sorted(n.properties.items())))
        for n in graph.nodes()
    )
    rels = sorted((r.id, r.type, r.start, r.end) for r in graph.relationships())
    return nodes, rels


def resolve(graph: PropertyGraph, binding):
    """Caller bindings for one run: ``(kind, index)`` resolved in ``graph``."""
    if binding is None:
        return {}
    kind, index = binding
    if kind == "node":
        nodes = list(graph.nodes())
        return {"x": nodes[index % len(nodes)]}
    if kind in ("rel", "deleted_rel"):
        rels = list(graph.relationships())
        if not rels:
            return {"x": None}
        rel = rels[index % len(rels)]
        if kind == "deleted_rel":
            # AFTER DELETE … OLD: the bound relationship is gone from the store.
            graph.delete_relationship(rel.id)
        return {"x": rel}
    if kind == "null":
        return {"x": None}
    return {"x": 7}


def outcome(nodes, rels, query, binding, join_ordering):
    graph = build_graph(nodes, rels)
    bindings = resolve(graph, binding)
    executor = QueryExecutor(graph, join_ordering=join_ordering)
    try:
        result = executor.execute(query, bindings=bindings)
    except CypherError as exc:
        return ("error", type(exc).__name__, str(exc))
    rows = sorted(
        (tuple(sorted((k, canon(v)) for k, v in row.items())) for row in result.rows),
        key=repr,
    )
    return ("ok", rows, result.statistics.as_dict(), graph_state(graph))


def assert_same(nodes, rels, query, binding=None):
    fast = outcome(nodes, rels, query, binding, join_ordering=True)
    naive = outcome(nodes, rels, query, binding, join_ordering=False)
    assert fast == naive, query


# ---------------------------------------------------------------------------
# randomized: the bound variable x at every position
# ---------------------------------------------------------------------------

#: Patterns naming x at the head, the tail, the middle, on the first or the
#: last relationship; undirected hops, labels a bound node may fail, a
#: self-loop, a property map reading x, a named and a variable-length path.
PATTERNS = [
    "(x)-[:R]->(b)",
    "(x:A)-[:S]-(b:B)",
    "(a)-[:R]->(x)",
    "(a:B)-[:S]-(x)",
    "(a)-[:R]->(m)-[:S]-(x:C)",
    "(a)-[:R]->(x)-[:S]->(c)",
    "(a)-[x]->(b)",
    "(a:A)-[x:R]-(b)",
    "(a)-[:S]-(b)-[x]->(c)",
    "(x)-[:R]->(x)",
    "(a)-[:R]->(x)<-[:S]-(a)",
    "(a {v: x.v})-[:R]->(x)",
    "p = (a)-[:R]->(x)",
    "(a)-[:R*1..2]->(x)",
]

#: How x gets bound before PATTERN runs: by the caller (see BINDINGS), by
#: an earlier clause, or as null by OPTIONAL MATCH padding.
PREFIXES = [
    "MATCH PATTERN ",
    "MATCH (x:A) MATCH PATTERN ",
    "MATCH ()-[x:R]->() MATCH PATTERN ",
    "OPTIONAL MATCH (x:Nope) WITH x MATCH PATTERN ",
    "OPTIONAL MATCH (x:A {v: 3}) WITH x OPTIONAL MATCH PATTERN ",
    "MATCH (n) WITH n AS x MATCH PATTERN ",
]

BINDINGS = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from(["node", "rel", "deleted_rel", "null", "int"]),
        st.integers(min_value=0, max_value=20),
    ),
)

#: Tails: plain return, a WHERE over the bound variable, and a write.
SUFFIXES = [
    "RETURN *",
    "WHERE a.v >= 1 OR x IS NULL RETURN *",
    "SET b.seen = true RETURN count(*) AS n",
]


def pattern_query(pattern: str, prefix: str, suffix: str) -> str:
    # Suffixes reading a or b fall back to a plain return without them.
    if ("WHERE a." in suffix and "(a" not in pattern) or (
        "SET b." in suffix and "(b" not in pattern
    ):
        suffix = "RETURN *"
    return prefix.replace("PATTERN", pattern) + suffix


@settings(max_examples=250, deadline=None)
@given(
    nodes=node_specs,
    rels=rel_specs,
    pattern=st.sampled_from(PATTERNS),
    prefix=st.sampled_from(PREFIXES),
    suffix=st.sampled_from(SUFFIXES),
    binding=BINDINGS,
)
def test_bound_variable_at_any_position(nodes, rels, pattern, prefix, suffix, binding):
    if prefix != PREFIXES[0]:
        binding = None  # x comes from the earlier clause
    assert_same(nodes, rels, pattern_query(pattern, prefix, suffix), binding)


# ---------------------------------------------------------------------------
# randomized: uncorrelated clauses replayed across their input rows
# ---------------------------------------------------------------------------

REPLAYED = [
    "UNWIND [0, 1, 2] AS i MATCH (a:A)-[:R]->(b) WHERE a.v >= i RETURN i, a, b",
    "UNWIND [0, 2] AS i OPTIONAL MATCH (a)-[:S]-(b:B) WHERE b.v > i RETURN i, a, b",
    "UNWIND [0, 1, 2] AS i MATCH (a)-[:R]->(b) RETURN i, a, b LIMIT 3",
    "UNWIND [1, 2] AS i MATCH (a:A), (b:B) WHERE a.v = b.v + i - 1 RETURN i, a, b",
    "MATCH (c:C) MATCH (a)-[r:R]->(b) WHERE a.v <> c.v RETURN c, a, r, b",
    "MATCH (c:C) MATCH (a:A) WHERE EXISTS { MATCH (a)-[:R]-(c) } RETURN c, a",
    "MATCH (c) MATCH (a:B)-[:S]->(b) SET b.seen = c.v RETURN count(*) AS n",
    "UNWIND [1, 2] AS i MATCH p = (a)-[:R*1..2]->(b) RETURN i, p",
]


@settings(max_examples=120, deadline=None)
@given(nodes=node_specs, rels=rel_specs, query=st.sampled_from(REPLAYED))
def test_uncorrelated_clause_replay(nodes, rels, query):
    assert_same(nodes, rels, query)


# ---------------------------------------------------------------------------
# explicit cases
# ---------------------------------------------------------------------------

NODES = [("A", 1), ("B", 2), ("A", 0), ("C", 3), ("B", 1)]
RELS = [(0, 1, "R"), (2, 1, "R"), (1, 3, "S"), (4, 4, "R"), (0, 4, "S"), (3, 0, "R")]


@pytest.mark.parametrize(
    "query, binding",
    [
        # OPTIONAL MATCH null padding flowing into a later pattern
        ("OPTIONAL MATCH (x:Nope) WITH x MATCH (a)-[:R]->(x) RETURN a", None),
        ("OPTIONAL MATCH (x:Nope) WITH x OPTIONAL MATCH (a)-[:R]->(x) RETURN a, x", None),
        # a bound relationship already deleted (AFTER DELETE … OLD)
        ("MATCH (a)-[x]-(b) RETURN a, b", ("deleted_rel", 0)),
        ("MATCH (a:A)-[x:R]->(b:B) RETURN a, b", ("deleted_rel", 1)),
        # a bound self-loop, through the node and through the relationship
        ("MATCH (x)-[:R]->(x) RETURN x", ("node", 4)),
        ("MATCH (a)-[x]-(b) RETURN a, b", ("rel", 3)),
        ("MATCH (a)-[x:R]->(b) RETURN a, b", ("rel", 3)),
        # undirected patterns around a bound relationship or tail
        ("MATCH (a)-[x]-(b) RETURN a, b", ("rel", 0)),
        ("MATCH (a)-[:S]-(b)-[x]-(c) RETURN a, b, c", ("rel", 2)),
        ("MATCH (a)-[:R]-(x) RETURN a", ("node", 1)),
        # a bound node failing the pattern's label
        ("MATCH (a)-[:R]->(x:C) RETURN a", ("node", 1)),
        ("MATCH (x:C)-[:R]->(b) RETURN b", ("node", 0)),
        # property maps reading outer variables; named and var-length paths
        ("MATCH (a {v: x.v})-[:R]->(x) RETURN a", ("node", 1)),
        ("MATCH p = (a)-[:R]->(x) RETURN p", ("node", 1)),
        ("MATCH (a)-[:R*1..3]-(x) RETURN a", ("node", 1)),
        # an uncorrelated clause after UNWIND with a WHERE reading both sides
        ("UNWIND [0, 1, 2] AS i MATCH (a:A)-[:R]->(b) WHERE a.v + b.v > i RETURN i, a, b", None),
        # ... and one followed by LIMIT
        ("UNWIND [0, 1, 2] AS i MATCH (a)-[:R]->(b) RETURN i, a, b LIMIT 4", None),
        # an EXISTS in WHERE reading the enclosing MATCH's variables
        ("MATCH (a:A), (b:B) WHERE EXISTS { MATCH (a)-[:R]->(m)-[:S]-(b) } RETURN a, b", None),
        ("MATCH (b:B) WHERE EXISTS { MATCH (:A)-[:R]->(b) } RETURN b", None),
        # non-node values at node positions raise the same error
        ("MATCH (a)-[:R]->(x) RETURN a", ("int", 0)),
        ("MATCH (x)-[:R]->(b) RETURN b", ("rel", 0)),
    ],
)
def test_explicit_cases(query, binding):
    assert_same(NODES, RELS, query, binding)


def test_after_delete_trigger_sees_the_deleted_relationship(monkeypatch):
    """The engine binds OLD to the deleted relationship; anchoring at it must
    find exactly the endpoints the head-first walk finds."""
    from repro.triggers import GraphSession

    def alerts():
        session = GraphSession()
        session.run("CREATE (:A {v: 1})-[:R]->(:B {v: 2}), (:A {v: 3})-[:R]->(:B {v: 4})")
        session.create_trigger(
            "CREATE TRIGGER Gone AFTER DELETE ON 'R' FOR EACH RELATIONSHIP "
            "WHEN MATCH (a:A)-[OLD]->(b:B) "
            "BEGIN CREATE (:Alert {a: a.v, b: b.v}) END"
        )
        session.run("MATCH (:A {v: 1})-[r:R]->() DELETE r")
        return sorted(
            (n.properties["a"], n.properties["b"])
            for n in session.graph.nodes_with_label("Alert")
        )

    anchored = alerts()
    original = QueryExecutor.__init__

    def naive(self, *args, **kwargs):
        kwargs["join_ordering"] = False
        original(self, *args, **kwargs)

    monkeypatch.setattr(QueryExecutor, "__init__", naive)
    assert anchored == alerts() == [(1, 2)]
