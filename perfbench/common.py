"""Shared pieces of the benchmark: fixed run sizes, percentiles, memory,
the result line, and the in-memory span tracer of the traced runs."""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"


def fixed_rounds(seconds: float, rounds_per_second: float) -> int:
    """Whole rounds a run makes: ``seconds`` at the workload's nominal rate.

    A run does this fixed amount of work instead of stopping on the clock,
    so a faster program finishes sooner rather than doing more work — the
    interner and the query-log ring grow with every operation, and
    ``rss_mb`` must not grow just because more operations fit in a run.
    """
    return max(1, round(seconds * rounds_per_second))


def tail_summary(latencies_ms: Sequence[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies_ms)
    count = len(ordered)
    text = f"p50 {statistics.median(ordered):.3f} ms"
    if count > 10:
        percentile = math.floor(100 * (count - 10) / count)
        rank = max(1, math.ceil(percentile / 100 * count))
        text += f", p{percentile} {ordered[rank - 1]:.3f} ms"
    return f"{text} (n={count})"


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """VmHWM of a process (this one by default), in MB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def rows_of(relation, attributes) -> set:
    """A program relation's rows as tuples in ``attributes`` order."""
    return {tuple(row[a] for a in attributes) for row in relation.rows}


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, Dict[str, object]]) -> None:
    """Print the result object as the last line of standard output."""
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)


def note(text: str) -> None:
    """A human-readable line on standard output (never the last one)."""
    print(text, flush=True)


class Tracer:
    """Spans around calls into the program's layers, kept in memory.

    :meth:`span` times an explicit call; :meth:`wrap` replaces a function
    or method of the program with one that runs inside a span (undone by
    :meth:`restore`).  A span's self time is its duration minus the time of
    the spans opened inside it, so nested layers are never counted twice.
    Per-operation totals are collected between :meth:`begin_op` and
    :meth:`end_op`; every span is also kept for :meth:`dump`.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        self._stack: List[list] = []
        self._next_id = 0
        self._op = -1
        self._op_self: Dict[str, float] = {}
        self._op_calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        self._patched: List[Tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][1] if self._stack else -1
        frame = [0.0, span_id]  # time covered by child spans, own id
        self._stack.append(frame)
        started = time.perf_counter()
        try:
            yield
        finally:
            ended = time.perf_counter()
            self._stack.pop()
            duration = ended - started
            if self._stack:
                self._stack[-1][0] += duration
            self._op_self[name] = (self._op_self.get(name, 0.0)
                                   + duration - frame[0])
            self._op_calls[name] = self._op_calls.get(name, 0) + 1
            self.spans.append((span_id, name, started, ended, parent, self._op))

    def wrap(self, owner: object, attribute: str, name: str,
             on_call: Optional[Callable[..., None]] = None) -> None:
        original = getattr(owner, attribute)
        tracer = self

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            with tracer.span(name):
                return original(*args, **kwargs)

        traced.__wrapped__ = original
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def begin_op(self, op: int) -> None:
        self._op = op
        self._op_self = {}
        self._op_calls = {}
        self.counts = {}

    def end_op(self) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, float]]:
        """Self seconds and calls per layer, and counts, of the last op."""
        return self._op_self, self._op_calls, self.counts

    def dump(self, workload: str, seed: int) -> Path:
        """Write every span to ``out/trace-<workload>-<seed>.json``."""
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{workload}-{seed}.json"
        origin = min((span[2] for span in self.spans), default=0.0)
        records = [{"id": span_id, "name": name,
                    "start_ms": (start - origin) * 1000,
                    "end_ms": (end - origin) * 1000, "parent": parent, "op": op}
                   for span_id, name, start, end, parent, op in self.spans]
        path.write_text(json.dumps({"workload": workload, "seed": seed,
                                    "spans": records}) + "\n", encoding="utf-8")
        return path


def median_of(per_op: Sequence[Dict[str, float]], key: str) -> float:
    """Median over operations of one per-op figure (0 where never seen)."""
    return statistics.median(entry.get(key, 0.0) for entry in per_op) \
        if per_op else 0.0


def host_line() -> str:
    return (f"host: cpu_count={os.cpu_count()} python={sys.version.split()[0]} "
            f"platform={sys.platform}")
