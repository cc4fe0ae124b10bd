"""The repository benchmark: one command, three workloads, a traced run.

    python3 perfbench/run.py --workload {ingest,service,ur-window}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: the program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A wrong answer counts as a failed operation and makes the
command exit non-zero.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ingest", "service", "ur-window")


def declared_metrics():
    """``(end_to_end, per_layer)`` as ``{name: unit}`` from BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({entry["name"]: entry["unit"] for entry in declared["end_to_end"]},
            {entry["name"]: entry["unit"] for entry in declared["per_layer"]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    end_to_end_units, per_layer_units = declared_metrics()
    sys.path.insert(0, str(ROOT / "src"))

    from common import emit, host_line, metric, note, tail_summary

    if arguments.workload == "ingest":
        import ingest as workload
    elif arguments.workload == "service":
        import service as workload
    else:
        import urwindow as workload

    from repro.engine import default_column_backend

    note(f"{host_line()} backend={default_column_backend()} "
         f"workload={arguments.workload} seed={arguments.seed}")
    correct, attempted, failed, end_to_end, per_layer = workload.run(
        arguments.seed, arguments.seconds, bool(arguments.trace))

    latencies = end_to_end["latencies_ms"] or [0.0]  # every operation failed
    note(f"latency: {tail_summary(latencies)}; setup "
         f"{end_to_end['setup_s']:.4f} s; {attempted} attempted, "
         f"{failed} failed")
    values = {"setup_s": end_to_end["setup_s"],
              "p50_ms": statistics.median(latencies),
              "ops_per_s": len(end_to_end["latencies_ms"]) / end_to_end["busy_s"],
              "rss_mb": end_to_end["rss_mb"]}
    if arguments.trace:
        extra = sorted(set(per_layer) - set(per_layer_units))
        if extra:
            note("unlisted layer figures: " + ", ".join(
                f"{name}={per_layer[name]:.4f}" for name in extra))
        metrics = {name: metric(per_layer.get(name, 0), unit)
                   for name, unit in per_layer_units.items()}
    else:
        metrics = {name: metric(values[name], unit)
                   for name, unit in end_to_end_units.items()}
    emit(correct, attempted, failed, metrics)
    return 0 if correct and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
