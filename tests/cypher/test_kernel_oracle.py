"""An independent oracle for the matching kernel: a brute-force matcher.

:func:`brute_force` below knows nothing of plans, kernels or adjacency:
it tries every node and relationship of the graph in ascending id order,
head-first along the written pattern, and checks each element by the
rules the README's "matching kernel" section states — labels, types,
direction, relationship uniqueness within the pattern, bound variables
(null matches nothing), and inline maps compared with WHERE's ``=``
(null never matches, a boolean never equals a number).  An inline value is
read only when a candidate reaches its entry, so a missing parameter
raises exactly when some candidate gets that far.

Hypothesis generates small multigraphs (multi-labels; null, bool, int,
float and string properties; parallel edges and self-loops) and
fixed-length patterns (1–3 hops, each direction, type alternatives,
literal and parameter inline maps, repeated and caller-bound variables,
including null-bound ones).  The naive executor (``join_ordering=False``)
walks head-first like the reference, so rows must match in exact order;
the default executor, with an index declared, must match as a multiset.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.cypher import QueryExecutor
from repro.cypher.errors import CypherRuntimeError
from repro.graph import PropertyGraph

VALUES = [None, True, 1, 1.0, "1"]


class Missing(Exception):
    """A parameter the query reads is absent."""


def brute_force(graph, elements, row, params):
    """Every binding of ``elements`` (head-first, ids ascending) from ``row``."""
    node_vars = [spec["var"] for spec in elements[::2] if spec["var"]]
    if any(name in row and row[name] is None for name in node_vars):
        return []
    rels = list(graph.relationships())

    def props_ok(item, props):
        for key, (kind, value) in props:
            if kind == "param":
                if value not in params:
                    raise Missing(value)
                value = params[value]
            actual = item.properties.get(key)
            if value is None or actual is None:
                return False
            if isinstance(value, bool) != isinstance(actual, bool) or value != actual:
                return False
        return True

    def node_ok(spec, node, binding):
        if spec["var"] in binding:
            bound = binding[spec["var"]]
            if bound is None or bound.id != node.id:
                return False
        return set(spec["labels"]) <= node.labels and props_ok(node, spec["props"])

    def bind(binding, spec, item):
        if spec["var"] is None or spec["var"] in binding:
            return binding
        return {**binding, spec["var"]: item}

    def extend(index, node, binding, used, out):
        if index == len(elements):
            out.append(binding)
            return
        rel_spec, node_spec = elements[index], elements[index + 1]
        for rel in rels:
            ends = {"out": [(rel.start, rel.end)], "in": [(rel.end, rel.start)],
                    "both": [(rel.start, rel.end), (rel.end, rel.start)]}[rel_spec["dir"]]
            hits = [other for here, other in ends if here == node.id][:1]
            if not hits:
                continue
            if rel_spec["var"] in binding:
                bound = binding[rel_spec["var"]]
                if bound is None or bound.id != rel.id:
                    continue
            if rel_spec["types"] and rel.type not in rel_spec["types"]:
                continue
            if not props_ok(rel, rel_spec["props"]) or rel.id in used:
                continue
            other = graph.node(hits[0])
            if node_ok(node_spec, other, binding):
                extended = bind(bind(binding, rel_spec, rel), node_spec, other)
                extend(index + 2, other, extended, used | {rel.id}, out)

    out: list[dict] = []
    for node in graph.nodes():
        if node_ok(elements[0], node, row):
            extend(1, node, bind(row, elements[0], node), frozenset(), out)
    return out


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

values = st.sampled_from(VALUES)
inline_maps = st.one_of(
    st.just([]),
    st.just([]),
    st.lists(
        st.tuples(
            st.sampled_from(["x", "y"]),
            st.one_of(
                st.tuples(st.just("lit"), values),
                st.tuples(st.just("param"), st.sampled_from(["p", "q"])),
            ),
        ),
        min_size=1,
        max_size=2,
        unique_by=lambda entry: entry[0],
    ),
)


@st.composite
def graphs(draw):
    graph = PropertyGraph()
    node_count = draw(st.integers(min_value=1, max_value=5))
    for _ in range(node_count):
        labels = draw(st.sets(st.sampled_from(["A", "B"]), max_size=2))
        props = draw(st.dictionaries(st.sampled_from(["x", "y"]), values, max_size=2))
        graph.create_node(labels, {k: v for k, v in props.items() if v is not None})
    for _ in range(draw(st.integers(min_value=node_count, max_value=12))):
        start = draw(st.integers(min_value=0, max_value=node_count - 1))
        end = draw(st.sampled_from([start, draw(st.integers(0, node_count - 1))]))
        w = draw(values)
        graph.create_relationship(
            draw(st.sampled_from(["R", "S"])), start, end, {} if w is None else {"x": w}
        )
    return graph


@st.composite
def patterns(draw):
    hops = draw(st.integers(min_value=1, max_value=3))
    elements = []
    for index in range(2 * hops + 1):
        spec = {"props": draw(inline_maps)}
        if index % 2 == 0:
            spec["var"] = draw(st.sampled_from([None, "a", "b", "c"]))
            spec["labels"] = draw(st.sampled_from([[], [], ["A"], ["B"], ["A", "B"]]))
        else:
            spec["var"] = draw(st.sampled_from([None, None, "r", "s"]))
            spec["types"] = draw(st.sampled_from([[], ["R"], ["S"], ["R", "S"]]))
            spec["dir"] = draw(st.sampled_from(["out", "in", "both"]))
        elements.append(spec)
    return elements


def literal(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


def render(elements):
    parts = []
    for index, spec in enumerate(elements):
        body = spec["var"] or ""
        if index % 2 == 0:
            body += "".join(":" + label for label in spec["labels"])
        elif spec["types"]:
            body += ":" + "|".join(spec["types"])
        entries = ", ".join(
            f"{key}: {'$' + value if kind == 'param' else literal(value)}"
            for key, (kind, value) in spec["props"]
        )
        if entries:
            body += f" {{{entries}}}"
        if index % 2 == 0:
            parts.append(f"({body})")
        else:
            left, right = {"out": ("-", "->"), "in": ("<-", "-"), "both": ("-", "-")}[spec["dir"]]
            parts.append(f"{left}[{body}]{right}")
    return "".join(parts)


def variables(elements):
    return sorted({spec["var"] for spec in elements if spec["var"]})


def canonical(binding, names):
    return tuple(
        (name, None if binding.get(name) is None else binding[name].id) for name in names
    )


def run(graph, elements, row, params, **kwargs):
    names = variables(elements)
    projection = ", ".join(f"{name} AS {name}" for name in names) or "1 AS one"
    query = f"MATCH {render(elements)} RETURN {projection}"
    result = QueryExecutor(graph, **kwargs).execute(query, params, bindings=row).rows
    return [canonical(r, names) for r in result]


@st.composite
def cases(draw):
    graph = draw(graphs())
    elements = draw(patterns())
    nodes = list(graph.nodes())
    rels = list(graph.relationships())
    row = {}
    for spec in elements:
        name = spec["var"]
        if name is None or name in row or draw(st.integers(0, 3)):
            continue
        pool = nodes if name in ("a", "b", "c") else rels
        row[name] = draw(st.sampled_from([None] + pool)) if pool else None
    params = {name: draw(values) for name in ("p", "q") if draw(st.integers(0, 3))}
    return graph, elements, row, params


@settings(max_examples=200, deadline=None)
@given(case=cases())
def test_kernel_matches_the_brute_force_reference(case):
    graph, elements, row, params = case
    names = variables(elements)
    try:
        expected = [canonical(b, names) for b in brute_force(graph, elements, row, params)]
    except Missing:
        expected = None
    try:
        naive = run(graph, elements, row, params, join_ordering=False)
    except CypherRuntimeError:
        naive = None
    assert naive == expected
    if any(
        kind == "param" and value not in params
        for spec in elements
        for _, (kind, value) in spec["props"]
    ):
        # Which candidates reach an entry depends on the start a plan
        # picks, so a missing parameter is compared head-first only.
        return
    graph.create_property_index("A", "x")
    assert Counter(run(graph, elements, row, params)) == Counter(expected)
