"""The compiled form of pattern elements: what the matching loop checks.

Every route that matches a pattern — MATCH, OPTIONAL MATCH, EXISTS, MERGE's
match phase, hash-join builds, variable-length and shortestPath hops —
walks the same loop in :class:`~repro.cypher.executor.QueryExecutor`:
label scan (or seek) → filter → expand → bind.  The loop does not
re-interpret AST elements per candidate; it reads the matchers compiled
here, once per plan (:class:`~repro.cypher.planner.PatternPlan` carries
them) or, for a pattern no plan covers, once per executor.

A matcher holds its element's real labels, virtual labels (the trigger
engine's transition sets, resolved to ids per executor), relationship type
set and direction, and its inline property entries.  An entry whose value
is row-invariant by construction — a literal, a parameter, or a
(negated) list/map literal of those — gets a *memo slot*: the loop
evaluates it the first time a candidate reaches the entry and reuses the
value for every later candidate of the same input row.  Any other value
(``rand()``, ``other.x``) is evaluated per candidate, as written.

Inline property maps compare with WHERE's ``=`` (:func:`inline_equal`):
null matches nothing — a missing property and a null value alike — and a
boolean never equals a number.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

from .ast import (
    Expression,
    ListLiteral,
    Literal,
    MapLiteral,
    NodePattern,
    Parameter,
    PathPattern,
    RelationshipPattern,
    UnaryOp,
)
from .expressions import _values_equal

#: A memo slot whose value has not been evaluated for the current row.
UNSET = object()

#: Slot of an entry evaluated per candidate (not row-invariant).
PER_CANDIDATE = -1


class NodeMatcher:
    """One node pattern element, compiled.

    ``labels`` is the frozenset of real labels to check, ``virtual`` the virtual-label
    names (in written order: the first one seeds a scan), ``entries`` the
    inline properties as ``(key, expression, slot)`` with ``slot`` a memo
    index or :data:`PER_CANDIDATE`.  ``merge`` marks a MERGE pattern, whose
    null inline values raise instead of matching nothing.
    """

    __slots__ = ("element", "variable", "labels", "virtual", "entries", "merge")

    def __init__(self, element: NodePattern, virtual_names, slots: list, merge: bool) -> None:
        self.element = element
        self.variable = element.variable
        self.labels = frozenset(label for label in element.labels if label not in virtual_names)
        self.virtual = tuple(label for label in element.labels if label in virtual_names)
        self.entries = _entries(element.properties, slots)
        self.merge = merge


class RelMatcher:
    """One relationship pattern element, compiled.

    ``types`` is the frozenset of real types (``None`` when the pattern
    names none, so any type passes), ``virtual`` the virtual-label names
    among the alternatives; a relationship passes when its type is in
    ``types`` or its id is in one of the virtual sets.  ``plain`` marks a
    matcher with nothing but ``types`` to check, which a hop tests inline.
    """

    __slots__ = (
        "element", "variable", "types", "virtual", "entries", "merge", "plain",
        "direction", "var_length", "min_hops", "max_hops",
    )

    def __init__(
        self, element: RelationshipPattern, virtual_names, slots: list, merge: bool
    ) -> None:
        self.element = element
        self.variable = element.variable
        self.types = (
            frozenset(t for t in element.types if t not in virtual_names)
            if element.types
            else None
        )
        self.virtual = tuple(t for t in element.types if t in virtual_names)
        self.entries = _entries(element.properties, slots)
        self.merge = merge
        self.plain = not self.virtual and not self.entries
        self.direction = element.direction
        self.var_length = element.is_variable_length
        self.min_hops = element.min_hops
        self.max_hops = element.max_hops


Matcher = Union[NodeMatcher, RelMatcher]


class PatternKernel:
    """A path pattern's elements compiled in one walk orientation.

    ``slots`` is the size of the per-input-row memo; ``track_used`` is set
    when the pattern has several relationships, so relationship
    uniqueness must be tracked across hops; ``path_variable`` names a
    bound path (the walk then also records its nodes and relationships).
    """

    __slots__ = (
        "pattern", "elements", "matchers", "slots", "track_used", "path_variable", "single",
    )

    def __init__(
        self,
        pattern: PathPattern,
        elements: Sequence[Union[NodePattern, RelationshipPattern]],
        virtual_names,
        merge: bool = False,
    ) -> None:
        slots: list = []
        self.pattern = pattern
        self.elements = elements
        self.matchers: tuple[Matcher, ...] = tuple(
            NodeMatcher(element, virtual_names, slots, merge)
            if isinstance(element, NodePattern)
            else RelMatcher(element, virtual_names, slots, merge)
            for element in elements
        )
        self.slots = len(slots)
        self.track_used = len(elements) > 3
        self.path_variable: Optional[str] = pattern.variable
        #: A lone node and no path to build: no walk, the start candidates are the matches.
        self.single = len(elements) == 1 and pattern.variable is None

    def new_memo(self) -> Optional[list]:
        """A fresh per-input-row memo (``None`` when nothing is memoised)."""
        return [UNSET] * self.slots if self.slots else None


def inline_equal(actual: Any, expected: Any) -> bool:
    """Does a stored property value equal an inline pattern value?

    The comparison WHERE's ``=`` makes, where only ``true`` selects a row:
    a null on either side (``actual`` is ``None`` for a missing property)
    matches nothing.
    """
    if actual is None or expected is None:
        return False
    if type(actual) is type(expected):
        return actual == expected
    return _values_equal(actual, expected)


def row_invariant(expr: Expression) -> bool:
    """Is ``expr``'s value the same for every candidate of an input row?

    True by construction only: literals, parameters, a negation of one, and
    list/map literals built from them.
    """
    if isinstance(expr, (Literal, Parameter)):
        return True
    if isinstance(expr, UnaryOp):
        return expr.op == "-" and row_invariant(expr.operand)
    if isinstance(expr, ListLiteral):
        return all(row_invariant(item) for item in expr.items)
    if isinstance(expr, MapLiteral):
        return all(row_invariant(value) for _, value in expr.entries)
    return False


def _entries(properties, slots: list) -> tuple:
    entries = []
    for key, expr in properties:
        if row_invariant(expr):
            slots.append(expr)
            entries.append((key, expr, len(slots) - 1))
        else:
            entries.append((key, expr, PER_CANDIDATE))
    return tuple(entries)
