"""``ur-window``: warm databases, per-call binding, closed loop, one thread.

Each operation poses the next query of a seeded stream of 2- and
3-attribute sets twice: to ``UniversalRelationInterface.window`` on an
acyclic schema with dangling tuples (canonical connection, then a relational
``join_all``), and to ``MaximalObjectInterface.window`` on a cyclic
clique-augmented chain with 16 maximal objects (a canonical connection, an
``EngineSession.execute_join`` and a relational ``union`` per maximal
object).  A round poses every query once, in a seeded order.
"""

from __future__ import annotations

import gc
import multiprocessing
import random
import time
from typing import Dict, List, Optional

import repro.relational.maximal_objects as maximal_objects_module
import repro.relational.universal as universal_module
from repro.engine import EngineSession
from repro.relational.database import Database
from repro.relational.maximal_objects import MaximalObjectInterface
from repro.relational.schema import DatabaseSchema
from repro.relational.universal import UniversalRelationInterface

import data
import oracle
from common import Tracer, fixed_rounds, median_of, note, peak_rss_mb, rows_of

#: Nominal rounds (each of ``len(data.UR_QUERIES)`` operations) per second.
ROUNDS_PER_SECOND = 0.1
#: The acyclic half is larger so that neither half of an operation is
#: negligible: the relational join is the slower path per row.
ACYCLIC = dict(heads=320, key_domain=1280, dangling=0.25)
CYCLIC = dict(heads=64, key_domain=256, dangling=0.0)
WARM_UP_QUERY = ("C0", "K1")


def instances(seed: int):
    rng = random.Random(f"ur-window/{seed}")
    made = {}
    for label, schema, sizes in (("acyclic", data.UR_ACYCLIC_SCHEMA, ACYCLIC),
                                 ("cyclic", data.UR_CYCLIC_SCHEMA, CYCLIC)):
        universe = data.functional_universe(rng, heads=sizes["heads"],
                                            key_domain=sizes["key_domain"])
        made[label] = data.project_universe(schema, universe, rng,
                                            dangling=sizes["dangling"])
    stream = list(data.UR_QUERIES)
    rng.shuffle(stream)
    return made["acyclic"], made["cyclic"], stream


def references(acyclic, cyclic, queries):
    """The brute-force maximal objects of the cyclic schema, and for every
    query the oracle answers and the two properties' inputs: whether the
    acyclic connection is unique, and the engine's window
    (``MaximalObjectInterface``) on the acyclic schema."""
    acyclic_db = Database.from_tuples(
        DatabaseSchema.from_dict(data.UR_ACYCLIC_SCHEMA, name="ur-tree"),
        acyclic)
    ur_interface = UniversalRelationInterface(acyclic_db)
    mo_interface = MaximalObjectInterface(acyclic_db, session=EngineSession())
    objects = oracle.maximal_objects(data.UR_CYCLIC_SCHEMA)
    answers = {}
    for query in queries:
        answers[query] = {
            "ur": oracle.ur_window(data.UR_ACYCLIC_SCHEMA, acyclic, query),
            "mo": oracle.mo_window(data.UR_CYCLIC_SCHEMA, cyclic, query,
                                   objects),
            "unique": ur_interface.connection_is_unique(query),
            "engine": rows_of(mo_interface.window(query), query)}
    return objects, answers


def references_apart(acyclic, cyclic, queries):
    """:func:`references` computed in a forked child process, so that the
    program structures the property checks build count neither in this
    process's peak memory (``rss_mb``) nor in a traced run's spans."""
    with multiprocessing.get_context("fork").Pool(1) as pool:
        made = pool.apply(references, (acyclic, cyclic, queries))
        pool.close()
        pool.join()
    return made


class Expected:
    """Checks of one operation's answers against :func:`references`."""

    def __init__(self, maximal_objects, answers):
        self.maximal_objects = maximal_objects
        self.answers = answers

    def problems(self, query, ur_answer, mo_answer, reference=None) -> List[str]:
        """Every failed check as ``"<check> <query>: <reason>"``; the checks
        are ``ur`` and ``mo`` (oracle), ``ur-vs-engine`` and ``unique``
        (properties)."""
        reference = reference or self.answers[query]
        ur_rows = rows_of(ur_answer.relation, query)
        found = [oracle.row_mismatch(f"ur {query}", reference["ur"], ur_rows),
                 oracle.row_mismatch(f"mo {query}", reference["mo"],
                                     rows_of(mo_answer, query)),
                 oracle.row_mismatch(f"ur-vs-engine {query}",
                                     reference["engine"], ur_rows)]
        if reference["unique"] is not True:
            found.append(f"unique {query}: connection_is_unique is false on "
                         "the acyclic schema")
        return [problem for problem in found if problem]


def object_names(interface) -> List[frozenset]:
    """The maximal objects of an interface as sets of relation names."""
    names = []
    for maximal_object in interface.maximal_objects:
        names.append(frozenset(
            relation.name for edge in maximal_object.edges
            for relation in interface.database.relations_for_edge(edge)))
    return names


def objects_problem(found, expected) -> Optional[str]:
    """``None`` when two lists of maximal objects (name sets) agree."""
    if sorted(map(sorted, found)) == sorted(map(sorted, expected)):
        return None
    return (f"maximal objects: {len(found)} found, {len(expected)} by "
            "brute-force enumeration, and they differ")


def run(seed: int, seconds: float, trace: bool):
    acyclic_tuples, cyclic_tuples, stream = instances(seed)
    expected = Expected(*references_apart(acyclic_tuples, cyclic_tuples,
                                          (WARM_UP_QUERY, *stream)))
    tracer = Tracer() if trace else None
    if tracer is not None:
        install_spans(tracer)

    # ---- set-up: load, build both interfaces, one warm-up operation ---- #
    gc.collect()  # start the set-up from the same collector state every run
    started = time.perf_counter()
    acyclic_db = Database.from_tuples(
        DatabaseSchema.from_dict(data.UR_ACYCLIC_SCHEMA, name="ur-tree"),
        acyclic_tuples)
    cyclic_db = Database.from_tuples(
        DatabaseSchema.from_dict(data.UR_CYCLIC_SCHEMA, name="clique-chain"),
        cyclic_tuples)
    ur = UniversalRelationInterface(acyclic_db)
    if tracer is not None:
        tracer.begin_op(-1)
    mo = MaximalObjectInterface(cyclic_db, session=EngineSession())
    maximal_objects_s = dict(tracer.end_op()[0]) if tracer is not None else {}
    warm = (ur.window(WARM_UP_QUERY), mo.window(WARM_UP_QUERY))
    setup_s = time.perf_counter() - started

    problems = expected.problems(WARM_UP_QUERY, *warm)
    wrong_objects = objects_problem(object_names(mo), expected.maximal_objects)
    if wrong_objects:
        problems.append(wrong_objects)
    if problems:
        note(f"set-up wrong: {problems}")

    rounds = fixed_rounds(seconds, ROUNDS_PER_SECOND)
    gc.collect()
    latencies: List[float] = []
    per_op: List[Dict[str, float]] = []
    failed = 0
    attempted = 0
    for _ in range(rounds):
        for query in stream:
            if tracer is not None:
                tracer.begin_op(attempted)
            began = time.perf_counter()
            ur_answer = ur.window(query)
            mo_answer = mo.window(query)
            latency = time.perf_counter() - began
            latencies.append(latency * 1000)
            if tracer is not None:
                per_op.append(op_entry(tracer, latency, ur_answer, mo_answer,
                                       len(mo.objects_covering(query))))
            wrong = expected.problems(query, ur_answer, mo_answer)
            attempted += 1
            if wrong:
                failed += 1
                note(f"operation {attempted} wrong: {wrong}")

    per_layer: Dict[str, float] = {}
    if tracer is not None:
        tracer.restore()
        for name in per_op[0]:
            per_layer[name] = median_of(per_op, name)
        per_layer["relational.maximal_objects_ms"] = 1000 * \
            maximal_objects_s.get("relational.maximal_objects", 0.0)
        tracer.dump("ur-window", seed)
    end_to_end = {"setup_s": setup_s, "latencies_ms": latencies,
                  "busy_s": sum(latencies) / 1000, "rss_mb": peak_rss_mb()}
    return not problems and not failed, attempted, failed, end_to_end, per_layer


LAYERS = ("core.canonical_connection", "relational.join_all",
          "relational.project", "relational.union", "engine.execute_join")


def install_spans(tracer: Tracer) -> None:
    """Wrap the layer entry points the two interfaces call."""
    for module in (universal_module, maximal_objects_module):
        tracer.wrap(module, "canonical_connection_result",
                    "core.canonical_connection")
    tracer.wrap(universal_module, "join_all", "relational.join_all",
                lambda relations, **_: tracer.count("ur.relations_joined",
                                                    len(relations)))
    tracer.wrap(universal_module, "project", "relational.project")
    tracer.wrap(maximal_objects_module, "union", "relational.union")
    tracer.wrap(EngineSession, "execute_join", "engine.execute_join",
                lambda session, relations, *_, **__: tracer.count(
                    "ur.relations_joined", len(relations)))
    tracer.wrap(maximal_objects_module, "enumerate_maximal_objects",
                "relational.maximal_objects")


def op_entry(tracer: Tracer, latency: float, ur_answer, mo_answer,
             covering: int) -> Dict[str, float]:
    self_seconds, calls, counts = tracer.end_op()
    entry = {f"{layer}_ms": 1000 * self_seconds.get(layer, 0.0)
             for layer in LAYERS}
    entry["core.canonical_connection_calls"] = calls.get(
        "core.canonical_connection", 0)
    entry["unattributed_ms"] = 1000 * (latency - sum(self_seconds.values()))
    entry["trace.p50_ms"] = 1000 * latency
    entry["ur.covering_maximal_objects"] = covering
    entry["ur.relations_joined"] = counts.get("ur.relations_joined", 0)
    entry["ur.rows_out"] = len(ur_answer.relation) + len(mo_answer)
    return entry
