"""A transaction's running delta grows in place, and handed-out deltas stay put.

``end_statement`` appends each finished statement to the transaction
delta instead of rebuilding it, so the records copied over a K-statement
transaction grow O(K), not O(K²).  Any delta already handed out — an
``end_statement`` result, ``transaction_delta``, a commit hook's argument
— must not change afterwards.
"""

from __future__ import annotations

from repro.graph import PropertyGraph
from repro.graph.delta import GraphDelta
from repro.triggers import GraphSession
from repro.tx import Transaction, TransactionManager


def copied_records(monkeypatch, statements: int) -> int:
    """Delta records copied into another delta over one transaction block."""
    copied = [0]
    merge = GraphDelta.merge
    extend = getattr(GraphDelta, "extend", None)

    def counting_merge(self, other):
        copied[0] += len(self.operations()) + len(other.operations())
        return merge(self, other)

    def counting_extend(self, other):
        copied[0] += len(other.operations())
        return extend(self, other)

    monkeypatch.setattr(GraphDelta, "merge", counting_merge)
    if extend is not None:
        monkeypatch.setattr(GraphDelta, "extend", counting_extend)
    session = GraphSession()
    with session.transaction():
        for index in range(statements):
            session.run("CREATE (:Item {i: $i})", {"i": index})
    monkeypatch.undo()
    return copied[0]


def test_records_copied_grow_linearly_with_statements(monkeypatch):
    small = copied_records(monkeypatch, 50)
    large = copied_records(monkeypatch, 200)
    # Each CREATE's record is copied a bounded number of times: linear.
    assert large <= 4 * small + 8
    assert large <= 4 * 200


def test_handed_out_deltas_never_change():
    tx = Transaction(PropertyGraph())
    tx.create_node(["A"])
    first = tx.end_statement()
    running = tx.transaction_delta
    assert running.summary()["created_nodes"] == 1
    tx.create_node(["B"])
    mid = tx.transaction_delta  # mid-statement: a merged copy
    second = tx.end_statement()
    tx.create_node(["C"])
    tx.end_statement()
    assert first.summary()["created_nodes"] == 1
    assert second.summary()["created_nodes"] == 1
    assert running.summary()["created_nodes"] == 1
    assert mid.summary()["created_nodes"] == 2
    final = tx.transaction_delta
    assert [node.labels for node in final.created_nodes] == [
        frozenset({"A"}), frozenset({"B"}), frozenset({"C"}),
    ]
    assert [op for op, _ in final.operations()] == ["create_node"] * 3


def test_commit_hook_sees_a_stable_delta():
    manager = TransactionManager(PropertyGraph())
    seen: list[GraphDelta] = []

    def hook(tx, delta):
        seen.append(delta)
        if len(seen) == 1:
            tx.create_node(["FromHook"])

    manager.add_before_commit_hook(hook)
    tx = manager.begin()
    tx.create_node(["A"])
    manager.end_statement(tx)
    tx.create_node(["B"])
    committed = manager.commit(tx)
    assert seen[0].summary()["created_nodes"] == 2
    assert committed.summary()["created_nodes"] == 3


def test_extend_keeps_the_exact_operation_order():
    left = GraphDelta()
    node = PropertyGraph().create_node(["A"])
    left.record_node_created(node)
    left.record_label_assigned(node, "B")
    right = GraphDelta(created_nodes=[node])  # hand-assembled: no journal
    left.extend(right)
    assert [op for op, _ in left.operations()] == ["create_node", "assign_label", "create_node"]
    merged = GraphDelta(deleted_nodes=[node]).merge(left)
    assert [op for op, _ in merged.operations()][0] == "delete_node"
    assert len(merged.operations()) == 4
