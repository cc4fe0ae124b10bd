"""Seeded raw inputs for the workloads: schemas as ``{relation: attributes}``
and instances as ``{relation: [tuple, ...]}``.

Nothing here imports the program under test.  The same tuples are handed to
``Database.from_tuples`` and to the independent oracles, so the two never
share a code path beyond this data.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Sequence, Tuple

Schema = Dict[str, Tuple[str, ...]]
Tuples = Dict[str, List[Tuple[str, ...]]]

# --------------------------------------------------------------------------- #
# Skewed chain (acyclic): R1(C0,C1) fans heads out, R2(C1,C2) funnels into a
# few junction values with a Zipf-like skew, R3(C2,C3) is a 1:1 lookup.
# --------------------------------------------------------------------------- #
CHAIN_SCHEMA: Schema = {"R1": ("C0", "C1"), "R2": ("C1", "C2"),
                        "R3": ("C2", "C3")}
CHAIN_OUTPUTS = ("C0", "C3")


def skewed_chain(rng: random.Random, tag: str, *, heads: int, fanout: int,
                 junctions: int) -> Tuples:
    """``2 * heads * fanout + junctions`` rows; values carry ``tag``."""
    weights = [1.0 / (rank + 1) for rank in range(junctions)]
    junction_of = rng.choices(range(junctions), weights, k=heads * fanout)
    r1, r2 = [], []
    for head in range(heads):
        for branch in range(fanout):
            middle = f"{tag}c1-{head}-{branch}"
            r1.append((f"{tag}c0-{head}", middle))
            r2.append((middle, f"{tag}c2-{junction_of[head * fanout + branch]}"))
    r3 = [(f"{tag}c2-{value}", f"{tag}c3-{value}") for value in range(junctions)]
    return {"R1": r1, "R2": r2, "R3": r3}


# --------------------------------------------------------------------------- #
# Triangle chain (cyclic): a chain of ternary edges over C0..C5 whose head C0
# closes an uncovered triangle C0-T1-T2.  Consistent: every relation is a
# projection of one synthetic universal relation.
# --------------------------------------------------------------------------- #
TRIANGLE_SCHEMA: Schema = {
    "T01": ("C0", "T1"), "T12": ("T1", "T2"), "T20": ("T2", "C0"),
    "A": ("C0", "C1", "C2"), "B": ("C1", "C2", "C3"), "C": ("C2", "C3", "C4"),
    "D": ("C3", "C4", "C5"),
}
TRIANGLE_OUTPUTS = ("C0", "C5")


def consistent_instance(schema: Schema, rng: random.Random, tag: str, *,
                        universe_rows: int, domain: int) -> Tuples:
    """Project ``universe_rows`` random universal tuples onto every relation."""
    attributes = sorted({a for scheme in schema.values() for a in scheme})
    universe = [{a: f"{tag}{a}.{rng.randrange(domain)}" for a in attributes}
                for _ in range(universe_rows)]
    instance: Tuples = {}
    for name, scheme in schema.items():
        rows = {tuple(row[a] for a in scheme) for row in universe}
        instance[name] = sorted(rows)
    return instance


# --------------------------------------------------------------------------- #
# Universal-relation windows.  Both schemas are trees of binary edges over
# the same attributes C0..C4, K1..K3, so the canonical connection of any
# attribute set is the unique Steiner subtree (no ties for Graham reduction
# to break).  The cyclic schema replaces the star C0-K1, C0-K2, C0-K3 by the
# clique on {C0, K1, K2, K3}: its maximal objects are the chain plus one of
# the 16 spanning trees of K4.
# --------------------------------------------------------------------------- #
_CHAIN_EDGES = {f"E{i}": (f"C{i}", f"C{i + 1}") for i in range(4)}
_CLIQUE_NODES = ("C0", "K1", "K2", "K3")
UR_ACYCLIC_SCHEMA: Schema = dict(
    _CHAIN_EDGES, **{f"S{i}": ("C0", f"K{i}") for i in range(1, 4)})
UR_CYCLIC_SCHEMA: Schema = dict(
    _CHAIN_EDGES, **{f"Q{a}{b}": (_CLIQUE_NODES[a], _CLIQUE_NODES[b])
                     for a in range(4) for b in range(a + 1, 4)})
UR_ATTRIBUTES = tuple(f"C{i}" for i in range(5)) + ("K1", "K2", "K3")
#: Every 2- and 3-attribute query; one round of ``ur-window`` poses each once.
UR_QUERIES: Tuple[Tuple[str, ...], ...] = tuple(
    query for size in (2, 3)
    for query in itertools.combinations(UR_ATTRIBUTES, size))


def functional_universe(rng: random.Random, *, heads: int,
                        key_domain: int) -> List[Dict[str, str]]:
    """One universal tuple per C0 value; C(i+1) is a random function of Ci
    over a domain half as large, and each K is drawn from ``key_domain``."""
    domains = [heads]
    for _ in range(4):
        domains.append(max(1, domains[-1] // 2))
    maps = [[rng.randrange(domains[i + 1]) for _ in range(domains[i])]
            for i in range(4)]
    universe = []
    for head in range(heads):
        values = [head]
        for i in range(4):
            values.append(maps[i][values[-1]])
        row = {f"C{i}": f"C{i}.{value}" for i, value in enumerate(values)}
        for key in ("K1", "K2", "K3"):
            row[key] = f"{key}.{rng.randrange(key_domain)}"
        universe.append(row)
    return universe


def project_universe(schema: Schema, universe: Sequence[Dict[str, str]],
                     rng: random.Random, *, dangling: float) -> Tuples:
    """Project the universe onto each relation, then add ``dangling`` × size
    tuples that each carry one fresh value (so they join with nothing)."""
    instance: Tuples = {}
    for name, scheme in schema.items():
        rows = sorted({tuple(row[a] for a in scheme) for row in universe})
        for index in range(int(len(rows) * dangling)):
            base = rows[rng.randrange(len(rows))]
            fresh = rng.randrange(len(scheme))
            rows.append(tuple(f"{a}.dangling-{name}-{index}" if position == fresh
                              else base[position]
                              for position, a in enumerate(scheme)))
        instance[name] = rows
    return instance


# --------------------------------------------------------------------------- #
# Service tenants: two generations of the skewed chain and a triangle chain.
# --------------------------------------------------------------------------- #
SERVICE_CHAIN = dict(heads=60, fanout=20, junctions=8)
SERVICE_TRIANGLE = dict(universe_rows=200, domain=60)


def service_tuples(seed: int) -> Dict[str, Tuple[Schema, Tuples]]:
    """``{database name: (schema, tuples)}`` for the server's tenants."""
    rng = random.Random(f"service/{seed}")
    return {
        "chain": (CHAIN_SCHEMA, skewed_chain(rng, "a:", **SERVICE_CHAIN)),
        "chain-b": (CHAIN_SCHEMA, skewed_chain(rng, "b:", **SERVICE_CHAIN)),
        "cycle": (TRIANGLE_SCHEMA, consistent_instance(
            TRIANGLE_SCHEMA, rng, "c:", **SERVICE_TRIANGLE)),
    }
