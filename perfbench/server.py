"""The ``service`` workload's server process.

    python3 perfbench/server.py --seed N

Built from the same public constructors ``python -m repro.service --serve``
uses — an ``EngineSession`` with a monitor, a ``QueryService`` and a
``ServiceServer`` — over the seeded tenant databases of
:func:`data.service_tuples`.  Prints one line ``READY {"url", "pid",
"setup_s"}`` once it serves, then serves until its standard input closes.
``setup_s`` is the server's own set-up after its imports and after data
generation: loading the databases, building the session, the service and
the listening server.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.engine import EngineSession  # noqa: E402
from repro.relational.database import Database  # noqa: E402
from repro.relational.schema import DatabaseSchema  # noqa: E402
from repro.service import QueryService, ServiceServer  # noqa: E402
from repro.telemetry.monitor import MonitorConfig  # noqa: E402

import data  # noqa: E402

#: The query-log ring of ``python -m repro.service --serve``.
LOG_CAPACITY = 4096


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    arguments = parser.parse_args()
    tenants = data.service_tuples(arguments.seed)

    gc.collect()  # start the set-up from the same collector state every run
    started = time.perf_counter()
    service = QueryService(EngineSession(
        monitor=MonitorConfig(log_capacity=LOG_CAPACITY)))
    for name, (schema, tuples) in tenants.items():
        service.add_database(name, Database.from_tuples(
            DatabaseSchema.from_dict(schema, name=name), tuples))
    server = ServiceServer(service, host="127.0.0.1", port=0).start()
    setup_s = time.perf_counter() - started
    del tenants
    try:
        print("READY " + json.dumps({"url": server.url, "pid": os.getpid(),
                                     "setup_s": setup_s}), flush=True)
        sys.stdin.read()  # serve until the client closes our stdin
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
