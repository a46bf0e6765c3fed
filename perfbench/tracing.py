"""In-memory span recorder for the traced benchmark run.

A span is recorded around each call the benchmark makes into a library
module, and one around each benchmark operation, so a layer's time can be
read per call and the benchmark's own time is what the library spans leave
uncovered.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext

# span record fields
NAME, START, END, PARENT, OP_ID, FAILED = range(6)

_NULL = nullcontext()


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    enabled = False
    op_id = None

    def span(self, name):
        return _NULL


class Tracer:
    """Spans as [name, start, end, parent index, operation id, failed]."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else -1, self.op_id, False]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        except BaseException:
            record[FAILED] = True
            raise
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        fields = ("name", "start", "end", "parent", "op_id", "failed")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


def layer_table(spans, layers, wall_s: float) -> dict:
    """Per-layer calls, busy seconds, median seconds per call, failures and
    share of wall_s, from the spans whose name is a layer."""
    durations = {name: [] for name in layers}
    failures = dict.fromkeys(layers, 0)
    for record in spans:
        name = record[NAME]
        if name in durations:
            durations[name].append(record[END] - record[START])
            failures[name] += bool(record[FAILED])
    table = {}
    for name, values in durations.items():
        busy = sum(values)
        table[name] = {
            "calls": len(values),
            "busy_s": busy,
            "median_s": statistics.median(values) if values else 0.0,
            "failures": failures[name],
            "share": busy / wall_s if wall_s > 0 else 0.0,
        }
    return table


def self_time(spans, layers, wall_s: float) -> float:
    """Wall time the layer spans leave uncovered: the benchmark's own code."""
    covered = sum(r[END] - r[START] for r in spans if r[NAME] in layers)
    return wall_s - covered
