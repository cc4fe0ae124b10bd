"""Two interleaved sets of runs of the same code, against the bounds.

    python3 perfbench/compare.py

Run from the root of a checkout.  Every workload of BENCHMARK.json runs
ten rounds of ``run_seconds`` each: set A uses seeds 1..10 and set B seeds
101..110, alternating run by run (A first on even rounds, B first on odd
ones), and one traced run per round uses seeds 201..210.  For every
end-to-end metric it prints each set's median and quartiles, the quartile
spread as a share of the median, and how much worse set B's median is than
set A's, and marks OUT OF BOUND any spread or any difference of the two
medians (in either direction) larger than the metric's bound in
BENCHMARK.json.  It also prints the tracing overhead (traced p50 against
untraced p50).  Raw results go to ``perfbench/out/compare-<time>.json``;
the exit code is 0 only when every metric is within its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROUNDS = 10


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{completed.returncode}: {completed.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    workloads = [w["name"] for w in declared["workloads"]]
    bounds = {m["name"]: m for m in declared["end_to_end"]}

    results = {w: {"A": [], "B": [], "traced": []} for w in workloads}
    for round_index in range(ROUNDS):
        order = ("A", "B") if round_index % 2 == 0 else ("B", "A")
        for workload in workloads:
            for label in order:
                seed = (1 if label == "A" else 101) + round_index
                results[workload][label].append(
                    run_once(workload, seed, seconds, 0))
            results[workload]["traced"].append(
                run_once(workload, 201 + round_index, seconds, 1))
        print(f"round {round_index + 1}/{ROUNDS} done", flush=True)

    ok = True
    for workload in workloads:
        print(f"\n{workload}")
        for label in ("A", "B"):
            runs = results[workload][label]
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            print(f"  set {label}: {len(runs)} runs, {failed}/{attempted} "
                  f"failed, correct={all(r['correct'] for r in runs)}")
        for name, spec in bounds.items():
            stats = {}
            for label in ("A", "B"):
                values = [r["metrics"][name]["value"]
                          for r in results[workload][label]]
                q1, median, q3 = quartiles(values)
                stats[label] = (q1, median, q3, (q3 - q1) / median)
            sign = 1 if spec["better"] == "lower" else -1
            drift = sign * (stats["B"][1] - stats["A"][1]) / stats["A"][1]
            spread_ok = max(stats[label][3] for label in "AB") <= spec["bound"]
            drift_ok = abs(drift) <= spec["bound"]
            ok = ok and spread_ok and drift_ok
            print(f"  {name:10s} bound {spec['bound']:.2f}  "
                  + "  ".join(f"{label}: median {stats[label][1]:.4g} "
                              f"[{stats[label][0]:.4g}, {stats[label][2]:.4g}] "
                              f"spread {stats[label][3]:.3f}" for label in "AB")
                  + f"  B worse by {drift:+.3f}"
                  + ("" if spread_ok and drift_ok else "  OUT OF BOUND"))
        traced_p50 = statistics.median(
            r["metrics"]["trace.p50_ms"]["value"]
            for r in results[workload]["traced"])
        plain = statistics.median(
            r["metrics"]["p50_ms"]["value"]
            for r in results[workload]["A"] + results[workload]["B"])
        print(f"  tracing overhead: traced p50 {traced_p50:.4g} ms vs "
              f"untraced {plain:.4g} ms ({traced_p50 / plain - 1:+.1%})")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"compare-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(results) + "\n", encoding="utf-8")
    print(f"\nraw results: {path.relative_to(ROOT)}")
    print("all end-to-end metrics within their bounds" if ok
          else "some metric is out of its bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
