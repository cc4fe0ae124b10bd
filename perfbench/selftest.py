"""Self-test of the benchmark's checks: each one can fail.

    python3 perfbench/selftest.py

On small seeded inputs it runs the program once per check, confirms the
real answer passes, then feeds the check the same answer with one row
dropped and one row added (and the ``connection_is_unique`` property a
false), and confirms every such answer is rejected by the check it targets.
Exits non-zero when a check accepts a corrupted answer or rejects a real one.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.engine import EngineSession  # noqa: E402
from repro.relational.database import Database  # noqa: E402
from repro.relational.maximal_objects import MaximalObjectInterface  # noqa: E402
from repro.relational.schema import DatabaseSchema  # noqa: E402
from repro.relational.universal import UniversalRelationInterface  # noqa: E402
from repro.service import QueryService  # noqa: E402

import data  # noqa: E402
import ingest  # noqa: E402
import oracle  # noqa: E402
import service  # noqa: E402
import urwindow  # noqa: E402

FAILURES = []


def corrupt_rows(rows, bogus):
    """``rows`` with its first row dropped and ``bogus`` added."""
    rows = list(rows)
    return rows[1:] + [bogus]


def corrupt_relation(relation):
    """A relation-like object: one row dropped, one made-up row added."""
    rows = [dict(row) for row in relation.rows]
    bogus = {attribute: f"bogus-{attribute}" for attribute in rows[0]}
    return SimpleNamespace(rows=corrupt_rows(rows, bogus))


def corrupt_payload(payload):
    """A wire relation payload: one row dropped, one made-up row added."""
    bogus = [f"bogus-{column}" for column in payload["columns"]]
    return dict(payload, rows=corrupt_rows(payload["rows"], bogus))


def expect(name, problems, *, rejected, mention=None):
    """Record a failure unless ``problems`` matches what was expected."""
    if rejected:
        hits = [p for p in problems if mention is None or p.startswith(mention)]
        ok = bool(hits)
    else:
        ok = not problems
    print(f"{'ok  ' if ok else 'FAIL'} {name}: "
          f"{'rejected' if problems else 'accepted'}"
          + (f" ({problems[0]})" if problems else ""))
    if not ok:
        FAILURES.append(name)


def check_ingest() -> None:
    rng = random.Random("selftest/ingest")
    chain = data.skewed_chain(rng, "t:", heads=12, fanout=5, junctions=4)
    triangle = data.consistent_instance(data.TRIANGLE_SCHEMA, rng, "t:",
                                        universe_rows=60, domain=12)
    expected = {
        "chain": oracle.join_project(data.CHAIN_SCHEMA, chain,
                                     data.CHAIN_SCHEMA, data.CHAIN_OUTPUTS),
        "triangle": oracle.join_project(data.TRIANGLE_SCHEMA, triangle,
                                        data.TRIANGLE_SCHEMA,
                                        data.TRIANGLE_OUTPUTS)}
    session = EngineSession()
    results = []
    for schema, tuples, outputs in (
            (data.CHAIN_SCHEMA, chain, data.CHAIN_OUTPUTS),
            (data.TRIANGLE_SCHEMA, triangle, data.TRIANGLE_OUTPUTS)):
        database = Database.from_tuples(DatabaseSchema.from_dict(schema),
                                        tuples)
        results.append(session.execute(database, database, outputs))
    expect("ingest: real answers", ingest.mismatches(results, expected),
           rejected=False)
    for position, label in enumerate(("chain", "triangle")):
        corrupted = list(results)
        corrupted[position] = SimpleNamespace(
            relation=corrupt_relation(results[position].relation))
        expect(f"ingest: {label} oracle", ingest.mismatches(corrupted, expected),
               rejected=True, mention=label)


def check_service() -> None:
    tenants = data.service_tuples(7)
    expected = service.expected_answers(tenants)
    query_service = QueryService(EngineSession())
    for name, (schema, tuples) in tenants.items():
        query_service.add_database(name, Database.from_tuples(
            DatabaseSchema.from_dict(schema, name=name), tuples))

    def call(method, **params):
        status, envelope = query_service.handle(
            {"version": 1, "method": method, "client": "selftest", "id": "s",
             "params": params})
        assert status == 200, envelope
        return envelope["result"]

    chain = call("prepare", database="chain",
                 outputs=list(data.CHAIN_OUTPUTS))["query"]
    cycle = call("prepare", database="cycle",
                 outputs=list(data.TRIANGLE_OUTPUTS))["query"]
    responses = {
        "execute.chain": call("execute", query=chain, database="chain"),
        "execute.cycle": call("execute", query=cycle, database="cycle"),
        "execute_many": call("execute_many", query=chain,
                             databases=["chain", "chain-b"], include_rows=True),
        "explain": call("explain", query=chain)["explain"],
    }
    for kind, response in responses.items():
        problem = service.response_problem(kind, response, expected)
        expect(f"service: real {kind}", [problem] if problem else [],
               rejected=False)
    for kind in ("execute.chain", "execute.cycle"):
        response = dict(responses[kind],
                        relation=corrupt_payload(responses[kind]["relation"]))
        problem = service.response_problem(kind, response, expected)
        expect(f"service: {kind} oracle", [problem] if problem else [],
               rejected=True)
    for index, name in enumerate(("chain", "chain-b")):
        relations = list(responses["execute_many"]["relations"])
        relations[index] = corrupt_payload(relations[index])
        response = dict(responses["execute_many"], relations=relations)
        problem = service.response_problem("execute_many", response, expected)
        expect(f"service: execute_many {name} oracle",
               [problem] if problem else [], rejected=True)
    cyclic_text = call("explain", query=cycle)["explain"]
    problem = service.response_problem("explain", cyclic_text, expected)
    expect("service: explain of the wrong query", [problem] if problem else [],
           rejected=True)


def check_ur_window() -> None:
    rng = random.Random("selftest/ur-window")
    tuples = {}
    for label, schema, heads, dangling in (
            ("acyclic", data.UR_ACYCLIC_SCHEMA, 40, 0.25),
            ("cyclic", data.UR_CYCLIC_SCHEMA, 16, 0.0)):
        universe = data.functional_universe(rng, heads=heads,
                                            key_domain=4 * heads)
        tuples[label] = data.project_universe(schema, universe, rng,
                                              dangling=dangling)
    acyclic_db = Database.from_tuples(
        DatabaseSchema.from_dict(data.UR_ACYCLIC_SCHEMA), tuples["acyclic"])
    cyclic_db = Database.from_tuples(
        DatabaseSchema.from_dict(data.UR_CYCLIC_SCHEMA), tuples["cyclic"])
    ur = UniversalRelationInterface(acyclic_db)
    mo = MaximalObjectInterface(cyclic_db, session=EngineSession())
    queries = (("C1", "K2"), ("C0", "C3", "K3"))
    expected = urwindow.Expected(*urwindow.references(
        tuples["acyclic"], tuples["cyclic"], queries))
    found = urwindow.object_names(mo)
    problem = urwindow.objects_problem(found, expected.maximal_objects)
    expect("ur-window: real maximal objects", [problem] if problem else [],
           rejected=False)
    corrupted = corrupt_rows(found, frozenset({"E0", "Q12"}))
    problem = urwindow.objects_problem(corrupted, expected.maximal_objects)
    expect("ur-window: maximal objects vs brute force",
           [problem] if problem else [], rejected=True)
    for query in queries:
        ur_answer, mo_answer = ur.window(query), mo.window(query)
        reference = expected.answers[query]
        expect(f"ur-window {query}: real answers",
               expected.problems(query, ur_answer, mo_answer), rejected=False)
        bad_ur = SimpleNamespace(relation=corrupt_relation(ur_answer.relation))
        expect(f"ur-window {query}: ur oracle",
               expected.problems(query, bad_ur, mo_answer, reference),
               rejected=True, mention="ur ")
        expect(f"ur-window {query}: mo oracle",
               expected.problems(query, ur_answer, corrupt_relation(mo_answer),
                                 reference), rejected=True, mention="mo ")
        bogus = tuple(f"bogus-{a}" for a in query)
        engine = dict(reference, engine=set(corrupt_rows(
            sorted(reference["engine"]), bogus)))
        expect(f"ur-window {query}: ur-vs-engine property",
               expected.problems(query, ur_answer, mo_answer, engine),
               rejected=True, mention="ur-vs-engine ")
        expect(f"ur-window {query}: connection_is_unique property",
               expected.problems(query, ur_answer, mo_answer,
                                 dict(reference, unique=False)),
               rejected=True, mention="unique ")


def main() -> int:
    check_ingest()
    check_service()
    check_ur_window()
    print(f"{len(FAILURES)} check(s) misbehaved" if FAILURES
          else "every check accepts real answers and rejects corrupted ones")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
