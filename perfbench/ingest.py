"""``ingest``: fresh database, cold caches, closed loop, one thread.

Each operation bulk-loads a new seeded generation (values never seen
before) with ``Database.from_tuples`` — a skewed chain and a consistent
triangle chain — and runs the first ``PreparedQuery.execute`` of a held
prepared query on each.  Only this workload pays Row construction,
statistics measurement, interning, cold kernels and cluster
materialisation on every operation.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Dict, List

from repro.engine import EngineSession, block_for, column_cache_info
from repro.engine.columnar import current_interner
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema

import data
import oracle
from common import Tracer, fixed_rounds, median_of, note, peak_rss_mb, rows_of

#: Nominal operations per second on the reference host (README).
ROUNDS_PER_SECOND = 1.2
CHAIN = dict(heads=250, fanout=40, junctions=12)  # 20,012 rows
TRIANGLE = dict(universe_rows=700, domain=120)    # about 4,800 rows
#: Phases the engine reports in ``phase_times``.
PHASES = ("prepare", "materialise", "encode", "reduce", "fold", "decode")


def generation(seed: int, index: int):
    """The raw tuples of generation ``index`` and their expected answers."""
    rng = random.Random(f"{seed}/{index}")
    tag = f"g{index}:"
    chain = data.skewed_chain(rng, tag, **CHAIN)
    triangle = data.consistent_instance(data.TRIANGLE_SCHEMA, rng, tag,
                                        **TRIANGLE)
    expected = {
        "chain": oracle.join_project(data.CHAIN_SCHEMA, chain,
                                     data.CHAIN_SCHEMA, data.CHAIN_OUTPUTS),
        "triangle": oracle.join_project(data.TRIANGLE_SCHEMA, triangle,
                                        data.TRIANGLE_SCHEMA,
                                        data.TRIANGLE_OUTPUTS),
    }
    return chain, triangle, expected


def mismatches(results, expected) -> List[str]:
    found = [oracle.row_mismatch(label, expected[label],
                                 rows_of(result.relation, outputs))
             for label, result, outputs in zip(
                 ("chain", "triangle"), results,
                 (data.CHAIN_OUTPUTS, data.TRIANGLE_OUTPUTS))]
    return [problem for problem in found if problem]


def run(seed: int, seconds: float, trace: bool):
    chain_tuples, triangle_tuples, warm_expected = generation(seed, 0)

    # ---- set-up: session, held prepared queries, one warm-up operation ---- #
    gc.collect()  # start the set-up from the same collector state every run
    started = time.perf_counter()
    session = EngineSession()
    chain_schema = DatabaseSchema.from_dict(data.CHAIN_SCHEMA, name="chain")
    triangle_schema = DatabaseSchema.from_dict(data.TRIANGLE_SCHEMA,
                                               name="triangle-chain")
    chain_query = session.prepare(chain_schema, data.CHAIN_OUTPUTS)
    triangle_query = session.prepare(triangle_schema, data.TRIANGLE_OUTPUTS)
    warm = (chain_query.execute(Database.from_tuples(chain_schema, chain_tuples)),
            triangle_query.execute(Database.from_tuples(triangle_schema,
                                                        triangle_tuples)))
    setup_s = time.perf_counter() - started

    warm_problems = mismatches(warm, warm_expected)
    if warm_problems:
        note(f"warm-up operation wrong: {warm_problems}")
    del warm, chain_tuples, triangle_tuples

    tracer = Tracer() if trace else None
    array_queries = None
    if trace:
        array_queries = (
            session.prepare(chain_schema, data.CHAIN_OUTPUTS,
                            column_backend="array"),
            session.prepare(triangle_schema, data.TRIANGLE_OUTPUTS,
                            column_backend="array"))

    rounds = fixed_rounds(seconds, ROUNDS_PER_SECOND)
    gc.collect()
    latencies: List[float] = []
    per_op: List[Dict[str, float]] = []
    failed = 0
    for index in range(1, rounds + 1):
        chain_tuples, triangle_tuples, expected = generation(seed, index)
        if tracer is None:
            began = time.perf_counter()
            chain_db = Database.from_tuples(chain_schema, chain_tuples)
            triangle_db = Database.from_tuples(triangle_schema, triangle_tuples)
            results = (chain_query.execute(chain_db),
                       triangle_query.execute(triangle_db))
            latencies.append((time.perf_counter() - began) * 1000)
        else:
            results = traced_operation(
                tracer, index, session, (chain_schema, triangle_schema),
                (chain_tuples, triangle_tuples), (chain_query, triangle_query),
                array_queries, latencies, per_op)
        problems = mismatches(results, expected)
        if problems:
            failed += 1
            note(f"operation {index} wrong: {problems}")
        # Free this generation outside the timed region, as the traced
        # operation does on return, so the next operation pays no teardown.
        del results, chain_tuples, triangle_tuples
        chain_db = triangle_db = None

    per_layer: Dict[str, float] = {}
    if tracer is not None:
        for name in per_op[0]:
            per_layer[name] = median_of(per_op, name)
        per_layer["engine.columnar.interner_ids"] = len(current_interner())
        per_layer["engine.columnar.cached_blocks"] = \
            column_cache_info()["relations"]
        tracer.dump("ingest", seed)
    end_to_end = {"setup_s": setup_s, "latencies_ms": latencies,
                  "busy_s": sum(latencies) / 1000, "rss_mb": peak_rss_mb()}
    return not warm_problems and not failed, rounds, failed, end_to_end, per_layer


def traced_operation(tracer, index, session, schemas, tuples, queries,
                     array_queries, latencies, per_op):
    """The same operation with each layer called, and timed, on its own:
    load, catalog measurement, block encoding, then execute on warm
    catalog and blocks (split by the engine's own ``phase_times``)."""
    tracer.begin_op(index)
    began = time.perf_counter()
    databases = []
    with tracer.span("relational.load"):
        for schema, rows in zip(schemas, tuples):
            databases.append(Database.from_tuples(schema, rows))
    with tracer.span("engine.catalog.measure"):
        for database in databases:
            session.catalog_for(database)
    with tracer.span("engine.columnar.encode"):
        for database in databases:
            for relation in database:
                block_for(relation)
    results = []
    phases = dict.fromkeys(PHASES, 0.0)
    with tracer.span("engine.execute"):
        for query, database in zip(queries, databases):
            results.append(query.execute(database))
    latency = time.perf_counter() - began
    for result in results:
        for phase, phase_seconds in result.statistics.phase_times:
            phases[phase] = phases.get(phase, 0.0) + phase_seconds
    self_seconds, _, _ = tracer.end_op()
    array_began = time.perf_counter()
    for query, database in zip(array_queries, databases):
        query.execute(database)
    array_seconds = time.perf_counter() - array_began

    latencies.append(latency * 1000)
    entry = {f"{name}_ms": value * 1000 for name, value in self_seconds.items()}
    entry.update({f"engine.execute.{phase}_ms": value * 1000
                  for phase, value in phases.items()})
    entry["engine.execute_ms.array"] = array_seconds * 1000
    entry["unattributed_ms"] = (latency - sum(self_seconds.values())
                                + self_seconds["engine.execute"]
                                - sum(phases.values())) * 1000
    entry["trace.p50_ms"] = latency * 1000
    per_op.append(entry)
    return tuple(results)
