"""PG-Schema: node types, edge types, hierarchies and graph types.

The model follows the PG-Schema proposal cited by the paper ([6] Angles et
al. 2023) to the extent used in Section 6.1:

* every node type has a *label* and a set of typed properties;
* node types form a hierarchy (``HospitalizedPatient`` IS-A ``Patient``),
  with property inheritance;
* edge types connect a source and a target node type and may carry
  properties;
* a *graph type* is STRICT (every node/relationship must conform to exactly
  the declared types; labels behave like relational table names) or LOOSE
  (extra labels/unlabeled items are allowed);
* node types may be OPEN, meaning instances can carry properties beyond the
  declared ones (the paper's ``Alert`` type is OPEN so triggers can attach
  arbitrary context).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .errors import SchemaDefinitionError
from .keys import PGKey
from .types import DataType, PropertySpec


@dataclass
class NodeType:
    """Declaration of one node type.

    Attributes:
        name: type name (``PatientType``); defaults to ``label`` + ``Type``
            when constructed through :meth:`PGSchema.add_node_type`.
        label: the label carried by instances.
        properties: own (non-inherited) property specs, keyed by name.
        supertype: name of the parent node type, if any.
        open: True when instances may carry undeclared properties.
        abstract: True when the type cannot have direct instances.
    """

    name: str
    label: str
    properties: dict[str, PropertySpec] = field(default_factory=dict)
    supertype: Optional[str] = None
    open: bool = False
    abstract: bool = False

    def __str__(self) -> str:
        parts = [f"({self.name}: {self.label}"]
        if self.supertype:
            parts.append(f" <: {self.supertype}")
        if self.properties:
            inner = ", ".join(str(spec) for spec in self.properties.values())
            parts.append(" {" + inner + "}")
        if self.open:
            parts.append(" OPEN")
        parts.append(")")
        return "".join(parts)


@dataclass
class EdgeType:
    """Declaration of one edge (relationship) type.

    The relationship is identified by its label *and* the labels of the node
    types it connects, as noted in Section 6.1 of the paper.
    """

    name: str
    label: str
    source: str
    target: str
    properties: dict[str, PropertySpec] = field(default_factory=dict)

    def __str__(self) -> str:
        props = ""
        if self.properties:
            props = " {" + ", ".join(str(spec) for spec in self.properties.values()) + "}"
        return f"(:{self.source})-[{self.name}: {self.label}{props}]->(:{self.target})"


class PGSchema:
    """A PG-Schema graph type: node types, edge types, keys and mode."""

    def __init__(self, name: str = "GraphType", strict: bool = True) -> None:
        self.name = name
        self.strict = strict
        self._node_types: dict[str, NodeType] = {}
        self._edge_types: dict[str, EdgeType] = {}
        self._keys: list[PGKey] = []

    # ------------------------------------------------------------------
    # definition
    # ------------------------------------------------------------------

    def add_node_type(
        self,
        label: str,
        properties: Mapping[str, DataType | PropertySpec] | Iterable[PropertySpec] | None = None,
        supertype: str | None = None,
        open: bool = False,
        abstract: bool = False,
        name: str | None = None,
    ) -> NodeType:
        """Declare a node type; returns the created :class:`NodeType`.

        ``properties`` accepts either a mapping ``name -> DataType`` /
        ``name -> PropertySpec`` or an iterable of :class:`PropertySpec`.
        A property marked ``is_key`` automatically registers a PG-Key.
        """
        type_name = name or f"{label}Type"
        if type_name in self._node_types:
            raise SchemaDefinitionError(f"duplicate node type {type_name!r}")
        if supertype is not None and supertype not in self._node_types:
            raise SchemaDefinitionError(f"unknown supertype {supertype!r} for {type_name!r}")
        specs = _normalise_properties(properties)
        node_type = NodeType(
            name=type_name,
            label=label,
            properties=specs,
            supertype=supertype,
            open=open,
            abstract=abstract,
        )
        self._node_types[type_name] = node_type
        for spec in specs.values():
            if spec.is_key:
                self.add_key(PGKey(label=label, properties=(spec.name,)))
        return node_type

    def add_edge_type(
        self,
        label: str,
        source: str,
        target: str,
        properties: Mapping[str, DataType | PropertySpec] | Iterable[PropertySpec] | None = None,
        name: str | None = None,
    ) -> EdgeType:
        """Declare an edge type between two declared node types (by label or name)."""
        source_type = self._resolve_node_type(source)
        target_type = self._resolve_node_type(target)
        type_name = name or f"{label}Type"
        key = type_name
        suffix = 2
        while key in self._edge_types:
            key = f"{type_name}{suffix}"
            suffix += 1
        edge_type = EdgeType(
            name=key,
            label=label,
            source=source_type.name,
            target=target_type.name,
            properties=_normalise_properties(properties),
        )
        self._edge_types[key] = edge_type
        return edge_type

    def add_key(self, key: PGKey) -> PGKey:
        """Register a PG-Key constraint."""
        self._keys.append(key)
        return key

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def node_types(self) -> list[NodeType]:
        """All declared node types (declaration order)."""
        return list(self._node_types.values())

    def edge_types(self) -> list[EdgeType]:
        """All declared edge types (declaration order)."""
        return list(self._edge_types.values())

    def keys(self) -> list[PGKey]:
        """All PG-Key constraints."""
        return list(self._keys)

    def node_type(self, name_or_label: str) -> NodeType:
        """Fetch a node type by type name or by label."""
        return self._resolve_node_type(name_or_label)

    def edge_type_for_label(self, label: str) -> list[EdgeType]:
        """All edge types carrying ``label`` (there may be several)."""
        return [e for e in self._edge_types.values() if e.label == label]

    def has_node_label(self, label: str) -> bool:
        """True when some node type declares ``label``."""
        return any(t.label == label for t in self._node_types.values())

    def has_edge_label(self, label: str) -> bool:
        """True when some edge type declares ``label``."""
        return any(t.label == label for t in self._edge_types.values())

    def node_labels(self) -> list[str]:
        """All declared node labels."""
        return [t.label for t in self._node_types.values()]

    def _resolve_node_type(self, name_or_label: str) -> NodeType:
        if name_or_label in self._node_types:
            return self._node_types[name_or_label]
        for node_type in self._node_types.values():
            if node_type.label == name_or_label:
                return node_type
        raise SchemaDefinitionError(f"unknown node type {name_or_label!r}")

    # ------------------------------------------------------------------
    # hierarchy
    # ------------------------------------------------------------------

    def supertypes(self, name_or_label: str) -> list[NodeType]:
        """The chain of ancestors of a node type, nearest first."""
        node_type = self._resolve_node_type(name_or_label)
        chain: list[NodeType] = []
        seen = {node_type.name}
        current = node_type
        while current.supertype is not None:
            parent = self._node_types.get(current.supertype)
            if parent is None or parent.name in seen:
                raise SchemaDefinitionError(
                    f"broken or cyclic type hierarchy at {current.supertype!r}"
                )
            chain.append(parent)
            seen.add(parent.name)
            current = parent
        return chain

    def subtypes(self, name_or_label: str) -> list[NodeType]:
        """Direct and indirect subtypes of a node type."""
        root = self._resolve_node_type(name_or_label)
        result = []
        for candidate in self._node_types.values():
            if candidate.name == root.name:
                continue
            if any(ancestor.name == root.name for ancestor in self.supertypes(candidate.name)):
                result.append(candidate)
        return result

    def effective_properties(self, name_or_label: str) -> dict[str, PropertySpec]:
        """Own + inherited property specs of a node type (subtype overrides win)."""
        node_type = self._resolve_node_type(name_or_label)
        merged: dict[str, PropertySpec] = {}
        for ancestor in reversed(self.supertypes(node_type.name)):
            merged.update(ancestor.properties)
        merged.update(node_type.properties)
        return merged

    def expected_labels(self, name_or_label: str) -> set[str]:
        """Labels an instance of the type carries: its own plus inherited ones.

        In the paper's running example a ``HospitalizedPatient`` node also
        carries the ``Patient`` label (matching ``(p:HospitalizedPatient:
        IcuPatient)`` patterns along the hierarchy).
        """
        node_type = self._resolve_node_type(name_or_label)
        labels = {node_type.label}
        labels.update(ancestor.label for ancestor in self.supertypes(node_type.name))
        return labels

    def is_open(self, name_or_label: str) -> bool:
        """True when the node type (or any ancestor) is declared OPEN."""
        node_type = self._resolve_node_type(name_or_label)
        if node_type.open:
            return True
        return any(ancestor.open for ancestor in self.supertypes(node_type.name))

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def to_spec(self) -> str:
        """Render the schema in the textual dialect accepted by the parser."""
        mode = "STRICT" if self.strict else "LOOSE"
        lines = [f"CREATE GRAPH TYPE {self.name} {mode} {{"]
        body: list[str] = []
        for node_type in self._node_types.values():
            props = ", ".join(str(spec) for spec in node_type.properties.values())
            pieces = [f"  ({node_type.name}: "]
            if node_type.supertype:
                pieces.append(f"{node_type.supertype} & ")
            pieces.append(node_type.label)
            if node_type.open:
                pieces.append(" OPEN")
            if props:
                pieces.append(" {" + props + "}")
            pieces.append(")")
            body.append("".join(pieces))
        for edge_type in self._edge_types.values():
            props = ", ".join(str(spec) for spec in edge_type.properties.values())
            prop_text = (" {" + props + "}") if props else ""
            source = self._node_types[edge_type.source]
            target = self._node_types[edge_type.target]
            body.append(
                f"  (:{source.name})-[{edge_type.name}: {edge_type.label}{prop_text}]->"
                f"(:{target.name})"
            )
        lines.append(",\n".join(body))
        lines.append("}")
        for key in self._keys:
            lines.append(str(key))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PGSchema({self.name!r}, strict={self.strict}, "
            f"node_types={len(self._node_types)}, edge_types={len(self._edge_types)}, "
            f"keys={len(self._keys)})"
        )


def _normalise_properties(
    properties: Mapping[str, DataType | PropertySpec] | Iterable[PropertySpec] | None,
) -> dict[str, PropertySpec]:
    specs: dict[str, PropertySpec] = {}
    if properties is None:
        return specs
    if isinstance(properties, Mapping):
        for name, value in properties.items():
            if isinstance(value, PropertySpec):
                specs[name] = value
            elif isinstance(value, DataType):
                specs[name] = PropertySpec(name=name, data_type=value)
            else:
                raise SchemaDefinitionError(
                    f"property {name!r} must map to a DataType or PropertySpec"
                )
        return specs
    for spec in properties:
        if not isinstance(spec, PropertySpec):
            raise SchemaDefinitionError("property iterable must contain PropertySpec items")
        specs[spec.name] = spec
    return specs
