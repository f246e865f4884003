"""The store reads back in ascending id order, whatever wrote it.

Label buckets, adjacency and the node/relationship tables are kept in id
order incrementally (the matching kernel reads them without sorting), so
the order must survive the writes that re-insert *old* ids: a rollback
undoing deletions, a label added to an existing node, and WAL recovery.
"""

from __future__ import annotations

import pytest

from repro.cypher import QueryExecutor
from repro.graph import PropertyGraph
from repro.graph.indexes import LabelIndex
from repro.storage import MemoryIO
from repro.triggers.session import GraphSession
from repro.tx import Transaction


def assert_ordered(graph: PropertyGraph) -> None:
    node_ids = [node.id for node in graph.nodes()]
    assert node_ids == sorted(node_ids)
    rel_ids = [rel.id for rel in graph.relationships()]
    assert rel_ids == sorted(rel_ids)
    for label in graph.node_labels():
        members = [node.id for node in graph.nodes_with_label(label)]
        assert members == sorted(members)
        assert members == [n for n in node_ids if label in graph.node(n).labels]
    for rel_type in graph.relationship_types():
        members = [rel.id for rel in graph.relationships_with_type(rel_type)]
        assert members == sorted(members)
    for node_id in node_ids:
        for direction in ("out", "in", "both"):
            ids = [rel.id for rel in graph.relationships_of(node_id, direction)]
            assert ids == sorted(ids)
            assert len(ids) == len(set(ids))


def star_graph() -> PropertyGraph:
    graph = PropertyGraph()
    hub = graph.create_node(["Hub", "N"], {"i": 0})
    for index in range(1, 8):
        spoke = graph.create_node(["N"], {"i": index})
        graph.create_relationship("R", hub.id, spoke.id)
        graph.create_relationship("S", spoke.id, hub.id)
    graph.create_relationship("R", hub.id, hub.id)
    return graph


def match_ids(graph: PropertyGraph) -> list[int]:
    rows = QueryExecutor(graph).execute("MATCH (:Hub)-[r]-(n:N) RETURN id(r) AS r").rows
    return [row["r"] for row in rows]


def test_rollback_reinserts_in_id_order():
    graph = star_graph()
    before = match_ids(graph)
    tx = Transaction(graph)
    for node_id in (3, 5, 1):
        tx.delete_node(node_id, detach=True)
    tx.delete_relationship(next(iter(graph.relationships_of(0, "out"))).id)
    tx.create_node(["N"], {"i": 99})
    tx._rollback_changes()
    assert_ordered(graph)
    assert match_ids(graph) == before == sorted(before)


def test_label_added_to_an_older_node_keeps_the_bucket_ordered():
    graph = star_graph()
    for node_id in (6, 2, 4):
        graph.add_label(node_id, "Late")
    assert [n.id for n in graph.nodes_with_label("Late")] == [2, 4, 6]
    graph.remove_label(4, "Late")
    graph.add_label(1, "Late")
    assert [n.id for n in graph.nodes_with_label("Late")] == [1, 2, 6]
    assert_ordered(graph)


def test_racing_first_reads_of_a_late_labelled_bucket_stay_ordered():
    """Readers share the graph's read lock, so two may take a bucket's
    first read after an out-of-order id at once.  Here a second reader runs
    its whole read just after the first has fetched the bucket; neither may
    cache the bucket in its unsorted order."""
    index = LabelIndex()
    for item_id in (1, 5, 9, 3):
        index.add("L", item_id)

    class SecondReaderInBetween(dict):
        armed = True

        def get(self, key, default=None):
            value = super().get(key, default)
            if self.armed:
                self.armed = False
                assert index.get(key) == (1, 3, 5, 9)
            return value

    index._by_label = SecondReaderInBetween(index._by_label)
    assert index.get("L") == (1, 3, 5, 9)
    assert index.get("L") == (1, 3, 5, 9)


@pytest.mark.parametrize("checkpoint", [False, True])
def test_wal_recovery_restores_id_order(checkpoint):
    io = MemoryIO()
    session = GraphSession(path="/db", storage_io=io)
    session.run("UNWIND range(0, 9) AS i CREATE (:N {i: i})")
    session.run(
        "MATCH (a:N), (b:N) WHERE b.i = (a.i * 3) % 10 CREATE (a)-[:R]->(b)"
    )
    if checkpoint:
        session.checkpoint()
    session.run("MATCH (n:N) WHERE n.i % 3 = 0 SET n:Tri")
    session.run("MATCH (n:N {i: 4}) DETACH DELETE n")
    session.run("MATCH (a:N {i: 7}), (b:N {i: 1}) CREATE (b)-[:R]->(a)")
    with pytest.raises(RuntimeError):
        with session.transaction() as tx:
            tx.delete_node(2, detach=True)
            raise RuntimeError("roll back")
    query = "MATCH (a:N)-[r:R]-(b:Tri) RETURN a.i AS a, id(r) AS r, b.i AS b"
    expected = session.run(query).rows
    session.close()

    recovered = GraphSession(path="/db", storage_io=io)
    assert_ordered(recovered.graph)
    assert recovered.run(query).rows == expected
    recovered.close()
