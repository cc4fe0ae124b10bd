"""``service``: warm caches, closed loop, one client process, two keep-alive
connections.

A server subprocess (:mod:`server`) serves the seeded tenant databases.
Each connection prepares its handles during set-up.  One operation is one
pass of a fixed, deterministic mix on one connection: ``execute`` with rows
on the acyclic chain, ``execute`` with rows on the cyclic triangle chain,
``execute_many`` with rows over the two chain generations, and ``explain``.
The two connections take turns, one request in flight at a time: on the
reference host two busy processes draw heavy hypervisor steal time, and
concurrent figures did not repeat (README).  Client and server share one
CPU (:func:`share_one_cpu`), since they never run at the same time.  The
engine work is mostly memo hits, so JSON/HTTP parsing, admission, the
request-pool handoff, monitor logging and serialisation dominate.
"""

from __future__ import annotations

import gc
import json
import os
import select
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from repro.engine import EngineSession
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema
from repro.service import QueryService, ServiceClient
from repro.telemetry.monitor import MonitorConfig

import data
import oracle
from common import HERE, fixed_rounds, note, peak_rss_mb

#: Nominal mixes per second, per connection.
ROUNDS_PER_SECOND = 18.0
CONNECTIONS = 2
KINDS = ("execute.chain", "execute.cycle", "execute_many", "explain")
#: In-process repetitions of each request kind in the traced run.
HANDLE_REPEATS = 200


def expected_answers(tenants) -> Dict[str, set]:
    outputs = {"chain": data.CHAIN_OUTPUTS, "chain-b": data.CHAIN_OUTPUTS,
               "cycle": data.TRIANGLE_OUTPUTS}
    return {name: oracle.join_project(schema, tuples, schema, outputs[name])
            for name, (schema, tuples) in tenants.items()}


def wire_rows(payload, outputs) -> set:
    """A relation payload's rows as tuples in ``outputs`` order."""
    positions = [payload["columns"].index(a) for a in outputs]
    return {tuple(row[i] for i in positions) for row in payload["rows"]}


def response_problem(kind: str, response, expected) -> str | None:
    if kind == "execute.chain":
        return oracle.row_mismatch(kind, expected["chain"], wire_rows(
            response["relation"], data.CHAIN_OUTPUTS))
    if kind == "execute.cycle":
        return oracle.row_mismatch(kind, expected["cycle"], wire_rows(
            response["relation"], data.TRIANGLE_OUTPUTS))
    if kind == "execute_many":
        found = [oracle.row_mismatch(f"{kind} {name}", expected[name],
                                     wire_rows(payload, data.CHAIN_OUTPUTS))
                 for name, payload in zip(("chain", "chain-b"),
                                          response["relations"])]
        return "; ".join(problem for problem in found if problem) or None
    if "acyclic dispatch" not in response:
        return f"{kind}: explain text does not name the acyclic dispatch"
    return None


class Connection:
    """One keep-alive connection with its prepared handles."""

    def __init__(self, url: str, index: int) -> None:
        self.client = ServiceClient(url, client_id=f"bench-{index}")
        self.chain = self.client.prepare("chain", outputs=data.CHAIN_OUTPUTS)
        self.cycle = self.client.prepare("cycle",
                                         outputs=data.TRIANGLE_OUTPUTS)

    def request(self, kind: str):
        if kind == "execute.chain":
            return self.client.execute(self.chain, "chain")
        if kind == "execute.cycle":
            return self.client.execute(self.cycle, "cycle")
        if kind == "execute_many":
            return self.client.execute_many(self.chain, ["chain", "chain-b"],
                                            include_rows=True)
        return self.client.explain(self.chain)


def start_server(seed: int):
    process = subprocess.Popen(
        [sys.executable, str(HERE / "server.py"), "--seed", str(seed)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    deadline = time.monotonic() + 120
    line = ""
    while time.monotonic() < deadline and not line.endswith("\n"):
        ready, _, _ = select.select([process.stdout], [], [],
                                    max(0.0, deadline - time.monotonic()))
        if not ready:
            break
        chunk = process.stdout.readline()
        if not chunk:
            break
        line += chunk
    if not line.startswith("READY "):
        stop_server(process)
        raise RuntimeError(f"the server did not come up: {line!r}")
    return process, json.loads(line[len("READY "):])


def stop_server(process) -> None:
    try:
        process.stdin.close()
    except OSError:
        pass
    try:
        process.wait(timeout=20)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=20)


def cpu_seconds(pid: int) -> float:
    """User plus system CPU of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def share_one_cpu() -> None:
    """Keep this process, and the server it starts, on one CPU.

    With one request in flight the client and the server take turns, so
    on two CPUs every request and every response wakes a process on the
    other CPU.  On the reference host those cross-CPU wake-ups made the
    figures swing by up to 2x between runs (README); on one CPU each
    handoff is a plain context switch, and what is left is the service's
    own work.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(seed: int, seconds: float, trace: bool):
    tenants = data.service_tuples(seed)
    expected = expected_answers(tenants)
    share_one_cpu()
    process, ready = start_server(seed)
    try:
        return measure(seconds, trace, tenants, expected, ready)
    finally:
        stop_server(process)


def measure(seconds, trace, tenants, expected, ready):
    # ---- set-up: the server's own, then handles and one warm-up mix ---- #
    gc.collect()
    started = time.perf_counter()
    connections = [Connection(ready["url"], index)
                   for index in range(CONNECTIONS)]
    problems = []
    for connection in connections:
        for kind in KINDS:
            problem = response_problem(kind, connection.request(kind), expected)
            if problem:
                problems.append(problem)
    setup_s = ready["setup_s"] + time.perf_counter() - started
    if problems:
        note(f"warm-up wrong: {problems}")

    rounds = fixed_rounds(seconds, ROUNDS_PER_SECOND)
    gc.collect()
    # One operation is one pass of the mix on one connection; its latency
    # is the sum of its four requests' (a median over a four-way mix of
    # unequal request kinds would fall in the gap between two of them).
    latencies: List[float] = []
    requests: List[Tuple[str, float]] = []
    failures: List[str] = []
    server_cpu = cpu_seconds(ready["pid"])
    client_cpu = os.times()
    began = time.perf_counter()
    for _ in range(rounds):
        for connection in connections:
            total, wrong = 0.0, []
            for kind in KINDS:
                sent = time.perf_counter()
                try:
                    response = connection.request(kind)
                except Exception as error:  # noqa: BLE001 - counted, reported
                    wrong.append(f"{kind}: {type(error).__name__}: {error}")
                    continue
                latency = time.perf_counter() - sent
                total += latency
                requests.append((kind, latency))
                problem = response_problem(kind, response, expected)
                if problem:
                    wrong.append(problem)
            if wrong:
                failures.append("; ".join(wrong))
            else:
                latencies.append(total * 1000)
    wall = time.perf_counter() - began
    client_after = os.times()
    server_cpu = cpu_seconds(ready["pid"]) - server_cpu
    client_cpu = (client_after.user + client_after.system
                  - client_cpu.user - client_cpu.system)
    rss_mb = peak_rss_mb(ready["pid"])

    attempted = rounds * CONNECTIONS
    for failure in failures[:5]:
        note(f"failed operation: {failure}")
    by_kind: Dict[str, List[float]] = {kind: [] for kind in KINDS}
    for kind, latency in requests:
        by_kind[kind].append(latency * 1000)
    note(f"set-up: server {ready['setup_s']:.4f} s, client "
         f"{setup_s - ready['setup_s']:.4f} s")

    per_layer: Dict[str, float] = {}
    if trace:
        per_layer["trace.p50_ms"] = statistics.median(latencies)
        per_layer["service.server_cpu_ms_per_request"] = \
            1000 * server_cpu / len(requests)
        per_layer["service.client_cpu_ms_per_request"] = \
            1000 * client_cpu / len(requests)
        for kind in KINDS:
            per_layer[f"service.request_ms.{kind}"] = \
                statistics.median(by_kind[kind])
        stats = connections[0].client.stats()
        admission = stats["admission"]
        per_layer["service.admitted"] = admission["admitted_total"]
        per_layer["service.rejected"] = (admission["rejected_queue_full"]
                                         + admission["rejected_timeout"]
                                         + admission["rejected_draining"])
        log = connections[0].client.querylog(limit=1)
        per_layer["service.querylog_recorded"] = log["recorded"]
        per_layer["service.querylog_dropped"] = log["dropped"]
        per_layer.update(in_process_layers(tenants, per_layer))
    for connection in connections:
        connection.client.close()
    end_to_end = {"setup_s": setup_s, "latencies_ms": latencies,
                  "busy_s": wall, "rss_mb": rss_mb}
    return (not problems and not failures, attempted, len(failures),
            end_to_end, per_layer)


def in_process_layers(tenants, per_layer) -> Dict[str, float]:
    """The same request documents through an in-process ``QueryService``:
    handle time per method, JSON serialisation of the envelope, and a warm
    ``PreparedQuery.execute``."""
    session = EngineSession(monitor=MonitorConfig(log_capacity=4096))
    service = QueryService(session)
    databases = {}
    for name, (schema, tuples) in tenants.items():
        databases[name] = Database.from_tuples(
            DatabaseSchema.from_dict(schema, name=name), tuples)
        service.add_database(name, databases[name])

    def document(method, **params):
        return {"version": 1, "method": method, "client": "in-process",
                "id": "r", "params": params}

    def handle(doc):
        status, envelope = service.handle(doc)
        if status != 200:
            raise RuntimeError(f"in-process {doc['method']} failed: {envelope}")
        return envelope

    chain = handle(document("prepare", database="chain",
                            outputs=list(data.CHAIN_OUTPUTS)))["result"]["query"]
    cycle = handle(document("prepare", database="cycle",
                            outputs=list(data.TRIANGLE_OUTPUTS)))["result"]["query"]
    documents = {
        "execute.chain": document("execute", query=chain, database="chain",
                                  include_rows=True),
        "execute.cycle": document("execute", query=cycle, database="cycle",
                                  include_rows=True),
        "execute_many": document("execute_many", query=chain,
                                 databases=["chain", "chain-b"],
                                 include_rows=True),
        "explain": document("explain", query=chain, analyze=False),
    }
    handle_ms = {kind: [] for kind in KINDS}
    serialize_ms = []
    for repeat in range(HANDLE_REPEATS + 1):
        for kind, doc in documents.items():
            began = time.perf_counter()
            envelope = handle(doc)
            handled = time.perf_counter()
            json.dumps(envelope)
            serialized = time.perf_counter()
            if repeat:  # the first pass warms the bindings
                handle_ms[kind].append((handled - began) * 1000)
                serialize_ms.append((serialized - handled) * 1000)

    prepared = [(session.prepare(databases["chain"], data.CHAIN_OUTPUTS),
                 databases["chain"]),
                (session.prepare(databases["cycle"], data.TRIANGLE_OUTPUTS),
                 databases["cycle"])]
    warm_ms = []
    for repeat in range(HANDLE_REPEATS + 1):
        for query, database in prepared:
            began = time.perf_counter()
            query.execute(database)
            if repeat:
                warm_ms.append((time.perf_counter() - began) * 1000)

    layers = {f"service.handle_ms.{kind}": statistics.median(values)
              for kind, values in handle_ms.items()}
    layers["service.transport_ms"] = statistics.mean(
        per_layer[f"service.request_ms.{kind}"] - layers[f"service.handle_ms.{kind}"]
        for kind in KINDS)
    layers["service.serialize_ms"] = statistics.median(serialize_ms)
    layers["unattributed_ms"] = (layers["service.transport_ms"]
                                 - layers["service.serialize_ms"])
    layers["engine.warm_execute_ms"] = statistics.median(warm_ms)
    return layers
