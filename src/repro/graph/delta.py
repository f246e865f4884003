"""Change capture for property graph transactions.

A :class:`GraphDelta` records everything that happened between two points
in time: created/deleted nodes and relationships, assigned/removed labels,
and assigned/removed properties (with old and new values).  It is the raw
material from which three different views are produced:

* the PG-Trigger transition variables (``OLD``, ``NEW``, ``OLDNODES``,
  ``NEWNODES``, ``OLDRELS``, ``NEWRELS``) — see
  :mod:`repro.triggers.context`;
* the APOC transition metadata of the paper's Table 2
  (``$createdNodes``, ``$assignedNodeProperties``, …) — see
  :mod:`repro.compat.apoc`;
* the Memgraph predefined variables of Table 4
  (``createdVertices``, ``setVertexProperties``, …) — see
  :mod:`repro.compat.memgraph`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from .model import Node, Relationship


@dataclass(frozen=True)
class LabelAssignment:
    """A label set on an existing node (``SET n:Label``)."""

    node: Node
    label: str


@dataclass(frozen=True)
class LabelRemoval:
    """A label removed from an existing node (``REMOVE n:Label``)."""

    node: Node
    label: str


@dataclass(frozen=True)
class PropertyAssignment:
    """A property set on a node or relationship.

    ``old`` is ``None`` when the property did not previously exist, which is
    exactly the quadruple shape of APOC's ``assignedNodeProperties``.
    """

    item: Node | Relationship
    key: str
    old: Any
    new: Any

    @property
    def is_node(self) -> bool:
        """Return True when the assignment targets a node."""
        return isinstance(self.item, Node)


@dataclass(frozen=True)
class PropertyRemoval:
    """A property removed from a node or relationship."""

    item: Node | Relationship
    key: str
    old: Any

    @property
    def is_node(self) -> bool:
        """Return True when the removal targets a node."""
        return isinstance(self.item, Node)


#: Operation kinds used by the unified :meth:`GraphDelta.operations` view
#: (and by the WAL codec in :mod:`repro.storage.codec`).
OP_CREATE_NODE = "create_node"
OP_DELETE_NODE = "delete_node"
OP_CREATE_RELATIONSHIP = "create_relationship"
OP_DELETE_RELATIONSHIP = "delete_relationship"
OP_ASSIGN_LABEL = "assign_label"
OP_REMOVE_LABEL = "remove_label"
OP_ASSIGN_PROPERTY = "assign_property"
OP_REMOVE_PROPERTY = "remove_property"


@dataclass
class GraphDelta:
    """Accumulated changes produced by a statement or transaction.

    The lists preserve occurrence order; consumers that need set semantics
    (e.g. "was this node created in this transaction?") use the helper
    predicates instead of scanning.  The per-kind lists do not preserve the
    *interleaving* across kinds, so the delta also keeps a unified
    operation journal (:meth:`operations`) — replaying a delta (the WAL
    recovery path) needs the exact total order, e.g. for a node that is
    created, labelled and then deleted within one transaction.
    """

    created_nodes: list[Node] = field(default_factory=list)
    deleted_nodes: list[Node] = field(default_factory=list)
    created_relationships: list[Relationship] = field(default_factory=list)
    deleted_relationships: list[Relationship] = field(default_factory=list)
    assigned_labels: list[LabelAssignment] = field(default_factory=list)
    removed_labels: list[LabelRemoval] = field(default_factory=list)
    assigned_properties: list[PropertyAssignment] = field(default_factory=list)
    removed_properties: list[PropertyRemoval] = field(default_factory=list)
    _ops: list[tuple[str, Any]] = field(default_factory=list, repr=False, compare=False)

    def is_empty(self) -> bool:
        """Return True when the delta records no changes at all."""
        return not (
            self.created_nodes
            or self.deleted_nodes
            or self.created_relationships
            or self.deleted_relationships
            or self.assigned_labels
            or self.removed_labels
            or self.assigned_properties
            or self.removed_properties
        )

    # -- recording -------------------------------------------------------

    def record_node_created(self, node: Node) -> None:
        """Record the creation of ``node``."""
        self.created_nodes.append(node)
        self._ops.append((OP_CREATE_NODE, node))

    def record_node_deleted(self, node: Node) -> None:
        """Record the deletion of ``node`` (snapshot taken before deletion)."""
        self.deleted_nodes.append(node)
        self._ops.append((OP_DELETE_NODE, node))

    def record_relationship_created(self, rel: Relationship) -> None:
        """Record the creation of ``rel``."""
        self.created_relationships.append(rel)
        self._ops.append((OP_CREATE_RELATIONSHIP, rel))

    def record_relationship_deleted(self, rel: Relationship) -> None:
        """Record the deletion of ``rel`` (snapshot taken before deletion)."""
        self.deleted_relationships.append(rel)
        self._ops.append((OP_DELETE_RELATIONSHIP, rel))

    def record_label_assigned(self, node: Node, label: str) -> None:
        """Record that ``label`` was added to ``node``."""
        assignment = LabelAssignment(node=node, label=label)
        self.assigned_labels.append(assignment)
        self._ops.append((OP_ASSIGN_LABEL, assignment))

    def record_label_removed(self, node: Node, label: str) -> None:
        """Record that ``label`` was removed from ``node``."""
        removal = LabelRemoval(node=node, label=label)
        self.removed_labels.append(removal)
        self._ops.append((OP_REMOVE_LABEL, removal))

    def record_property_assigned(
        self, item: Node | Relationship, key: str, old: Any, new: Any
    ) -> None:
        """Record that property ``key`` changed from ``old`` to ``new``."""
        assignment = PropertyAssignment(item=item, key=key, old=old, new=new)
        self.assigned_properties.append(assignment)
        self._ops.append((OP_ASSIGN_PROPERTY, assignment))

    def record_property_removed(self, item: Node | Relationship, key: str, old: Any) -> None:
        """Record that property ``key`` (whose value was ``old``) was removed."""
        removal = PropertyRemoval(item=item, key=key, old=old)
        self.removed_properties.append(removal)
        self._ops.append((OP_REMOVE_PROPERTY, removal))

    def operations(self) -> list[tuple[str, Any]]:
        """All changes as one (kind, record) list in exact occurrence order.

        Deltas built through the ``record_*`` methods return their journal
        verbatim.  Hand-assembled deltas (constructed from the per-kind
        lists, as some tests and the compat emulators do) have no journal;
        for those a canonical order is derived that is safe to replay:
        creations before label/property changes before deletions, with
        relationship deletions before node deletions.
        """
        if self._journal_complete():
            return list(self._ops)
        ops: list[tuple[str, Any]] = []
        ops.extend((OP_CREATE_NODE, node) for node in self.created_nodes)
        ops.extend((OP_CREATE_RELATIONSHIP, rel) for rel in self.created_relationships)
        ops.extend((OP_ASSIGN_LABEL, a) for a in self.assigned_labels)
        ops.extend((OP_REMOVE_LABEL, r) for r in self.removed_labels)
        ops.extend((OP_ASSIGN_PROPERTY, a) for a in self.assigned_properties)
        ops.extend((OP_REMOVE_PROPERTY, r) for r in self.removed_properties)
        ops.extend((OP_DELETE_RELATIONSHIP, rel) for rel in self.deleted_relationships)
        ops.extend((OP_DELETE_NODE, node) for node in self.deleted_nodes)
        return ops

    def _journal_complete(self) -> bool:
        """Does the journal list every change (the delta was recorded)?"""
        return len(self._ops) == sum(
            (
                len(self.created_nodes),
                len(self.deleted_nodes),
                len(self.created_relationships),
                len(self.deleted_relationships),
                len(self.assigned_labels),
                len(self.removed_labels),
                len(self.assigned_properties),
                len(self.removed_properties),
            )
        )

    # -- derived views ---------------------------------------------------

    def node_property_assignments(self) -> list[PropertyAssignment]:
        """Property assignments whose target is a node."""
        return [a for a in self.assigned_properties if a.is_node]

    def relationship_property_assignments(self) -> list[PropertyAssignment]:
        """Property assignments whose target is a relationship."""
        return [a for a in self.assigned_properties if not a.is_node]

    def node_property_removals(self) -> list[PropertyRemoval]:
        """Property removals whose target is a node."""
        return [r for r in self.removed_properties if r.is_node]

    def relationship_property_removals(self) -> list[PropertyRemoval]:
        """Property removals whose target is a relationship."""
        return [r for r in self.removed_properties if not r.is_node]

    def created_node_ids(self) -> set[int]:
        """Ids of nodes created in this delta."""
        return {node.id for node in self.created_nodes}

    def deleted_node_ids(self) -> set[int]:
        """Ids of nodes deleted in this delta."""
        return {node.id for node in self.deleted_nodes}

    def created_relationship_ids(self) -> set[int]:
        """Ids of relationships created in this delta."""
        return {rel.id for rel in self.created_relationships}

    def deleted_relationship_ids(self) -> set[int]:
        """Ids of relationships deleted in this delta."""
        return {rel.id for rel in self.deleted_relationships}

    def merge(self, other: "GraphDelta") -> "GraphDelta":
        """Return a new delta with ``other`` appended after this one.

        Merging is purely positional; no cancellation (e.g. create followed
        by delete of the same node) is attempted, mirroring the behaviour of
        the transition metadata in both Neo4j APOC and Memgraph.
        """
        merged = GraphDelta()
        merged.extend(self)
        merged.extend(other)
        return merged

    def extend(self, other: "GraphDelta") -> None:
        """Append ``other``'s changes to this delta, in place.

        Costs the size of ``other`` only, which is how a transaction folds
        each finished statement into its running delta.
        """
        if not self._journal_complete():
            self._ops = self.operations()
        self.created_nodes.extend(other.created_nodes)
        self.deleted_nodes.extend(other.deleted_nodes)
        self.created_relationships.extend(other.created_relationships)
        self.deleted_relationships.extend(other.deleted_relationships)
        self.assigned_labels.extend(other.assigned_labels)
        self.removed_labels.extend(other.removed_labels)
        self.assigned_properties.extend(other.assigned_properties)
        self.removed_properties.extend(other.removed_properties)
        self._ops.extend(other._ops if other._journal_complete() else other.operations())

    @staticmethod
    def merged(deltas: Iterable["GraphDelta"]) -> "GraphDelta":
        """Merge an iterable of deltas in order."""
        result = GraphDelta()
        for delta in deltas:
            result.extend(delta)
        return result

    def summary(self) -> dict[str, int]:
        """Return a count-per-change-kind summary (useful in logs/tests)."""
        return {
            "created_nodes": len(self.created_nodes),
            "deleted_nodes": len(self.deleted_nodes),
            "created_relationships": len(self.created_relationships),
            "deleted_relationships": len(self.deleted_relationships),
            "assigned_labels": len(self.assigned_labels),
            "removed_labels": len(self.removed_labels),
            "assigned_properties": len(self.assigned_properties),
            "removed_properties": len(self.removed_properties),
        }
