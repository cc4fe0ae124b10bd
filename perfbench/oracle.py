"""Expected answers computed apart from the program under test.

Every function here works on the raw tuples of :mod:`data` and imports
nothing from ``repro``: a plain hash join, Graham reduction with sacred
nodes (which Theorem 3.5 makes equal to the canonical connection on acyclic
hypergraphs), GYO acyclicity and a brute-force maximal-object enumeration.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from data import Schema, Tuples

Rows = Set[Tuple[str, ...]]


# --------------------------------------------------------------------------- #
# Joins
# --------------------------------------------------------------------------- #
def hash_join(left_attrs: Sequence[str], left: Iterable[Tuple[str, ...]],
              right_attrs: Sequence[str], right: Iterable[Tuple[str, ...]]
              ) -> Tuple[Tuple[str, ...], Rows]:
    """Natural join of two positional relations; returns (attributes, rows)."""
    shared = [a for a in left_attrs if a in right_attrs]
    left_key = [left_attrs.index(a) for a in shared]
    right_key = [right_attrs.index(a) for a in shared]
    right_rest = [i for i, a in enumerate(right_attrs) if a not in shared]
    buckets: Dict[Tuple[str, ...], List[Tuple[str, ...]]] = {}
    for row in right:
        buckets.setdefault(tuple(row[i] for i in right_key), []).append(
            tuple(row[i] for i in right_rest))
    out: Rows = set()
    for row in left:
        for rest in buckets.get(tuple(row[i] for i in left_key), ()):
            out.add(tuple(row) + rest)
    return tuple(left_attrs) + tuple(right_attrs[i] for i in right_rest), out


def join_project(schema: Schema, instance: Tuples, names: Iterable[str],
                 outputs: Sequence[str]) -> Rows:
    """``π_outputs(⋈ names)``, joining each next relation that shares an
    attribute with what is joined so far (no Cartesian products on trees)
    and projecting away, after each join, the attributes that neither the
    outputs nor a relation still to join mention."""
    pending = list(names)
    first = pending.pop(0)
    attrs, rows = tuple(schema[first]), set(instance[first])
    while pending:
        pick = next((name for name in pending
                     if set(schema[name]) & set(attrs)), pending[0])
        pending.remove(pick)
        attrs, rows = hash_join(attrs, rows, schema[pick], instance[pick])
        needed = set(outputs).union(*(schema[name] for name in pending))
        keep = [i for i, a in enumerate(attrs) if a in needed]
        if len(keep) < len(attrs):
            attrs = tuple(attrs[i] for i in keep)
            rows = {tuple(row[i] for i in keep) for row in rows}
    positions = [attrs.index(a) for a in outputs]
    return {tuple(row[i] for i in positions) for row in rows}


# --------------------------------------------------------------------------- #
# Hypergraph side
# --------------------------------------------------------------------------- #
def graham_reduction(edges: Dict[str, FrozenSet[str]],
                     sacred: Iterable[str]) -> Tuple[str, ...]:
    """Names of the edges left by Graham reduction GR(H, X).

    Repeats, until nothing changes: delete a node outside ``sacred`` that
    lies in exactly one edge; delete an edge contained in another (of two
    equal edges, the later name goes).
    """
    sacred = frozenset(sacred)
    current = {name: set(edge) for name, edge in edges.items()}
    changed = True
    while changed:
        changed = False
        counts: Dict[str, int] = {}
        for edge in current.values():
            for node in edge:
                counts[node] = counts.get(node, 0) + 1
        for edge in current.values():
            lonely = {n for n in edge if counts[n] == 1 and n not in sacred}
            if lonely:
                edge -= lonely
                changed = True
        names = sorted(current)
        for name in names:
            edge = current[name]
            if any(other != name and other in current and edge <= current[other]
                   and (edge != current[other] or other < name)
                   for other in names):
                del current[name]
                changed = True
    return tuple(sorted(current))


def is_acyclic(edges: Dict[str, FrozenSet[str]]) -> bool:
    """α-acyclicity by GYO: Graham reduction with no sacred node empties H."""
    survivors = graham_reduction(edges, ())
    return len(survivors) <= 1


def is_connected(edges: Iterable[FrozenSet[str]]) -> bool:
    edges = list(edges)
    if not edges:
        return True
    reached = set(edges[0])
    grown = True
    while grown:
        grown = False
        for edge in edges:
            if edge & reached and not edge <= reached:
                reached |= edge
                grown = True
    return all(edge <= reached for edge in edges)


def maximal_objects(schema: Schema) -> List[FrozenSet[str]]:
    """Inclusion-maximal connected acyclic sets of relation names, by
    examining every subset of the schema's edges."""
    names = sorted(schema)
    edges = {name: frozenset(schema[name]) for name in names}
    good = []
    for mask in range(1, 1 << len(names)):
        subset = {n: edges[n] for i, n in enumerate(names) if mask >> i & 1}
        if is_connected(subset.values()) and is_acyclic(subset):
            good.append(frozenset(subset))
    return [s for s in good if not any(s < other for other in good)]


# --------------------------------------------------------------------------- #
# Window answers
# --------------------------------------------------------------------------- #
def ur_window(schema: Schema, instance: Tuples, query: Sequence[str]) -> Rows:
    """The universal-relation window: join CC(X) = GR(H, X), project on X."""
    edges = {name: frozenset(attrs) for name, attrs in schema.items()}
    return join_project(schema, instance, graham_reduction(edges, query), query)


def mo_window(schema: Schema, instance: Tuples, query: Sequence[str],
              objects: Sequence[FrozenSet[str]]) -> Rows:
    """The maximal-object window: union over the maximal objects covering X
    of the window inside each (acyclic) object."""
    answer: Rows = set()
    wanted = set(query)
    for names in objects:
        edges = {name: frozenset(schema[name]) for name in names}
        if not wanted <= set().union(*edges.values()):
            continue
        answer |= join_project(schema, instance,
                               graham_reduction(edges, query), query)
    return answer


# --------------------------------------------------------------------------- #
# The comparison every check goes through
# --------------------------------------------------------------------------- #
def row_mismatch(label: str, expected: Rows, actual: Rows) -> Optional[str]:
    """``None`` when the two row sets are equal, else a one-line reason."""
    if expected == actual:
        return None
    missing = len(expected - actual)
    extra = len(actual - expected)
    return (f"{label}: {missing} expected rows missing, {extra} unexpected "
            f"rows (expected {len(expected)}, got {len(actual)})")
