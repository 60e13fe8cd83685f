"""Benchmark-side spans: recorded in memory, written out at exit.

A span is ``{id, name, start, end, parent, workload, program, rep}``;
``parent`` is the id of the span that was open when this one started,
so one operation's spans form a tree under its root.  A layer's *self
time* is its span's duration minus the part its direct children cover.
Spans live in the benchmark's own files, around the calls into each
layer; a clock inside the program is a later change.
"""

import contextlib
import json
import time


class Tracer:
    """Collects spans for one workload process."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self._open = []  # ids of the spans currently open, outermost first

    @contextlib.contextmanager
    def span(self, name, program=None, rep=None):
        """Time the body as one span, nested under the open span if any."""
        parent = self._open[-1] if self._open else None
        if parent is not None:
            # Children inherit what identifies the operation.
            root = self.spans[parent]
            program = root["program"] if program is None else program
            rep = root["rep"] if rep is None else rep
        record = {
            "id": len(self.spans),
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": parent,
            "workload": self.workload,
            "program": program,
            "rep": rep,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self):
        """Span id -> self time in seconds."""
        own = {
            span["id"]: span["end"] - span["start"] for span in self.spans
        }
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own

    def write_jsonl(self, path):
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span, sort_keys=True) + "\n")

    def write_chrome(self, path):
        """Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev).

        One lane (``tid``) per program, so a program's operations line
        up left to right with their stage spans stacked beneath.
        """
        lanes = {}
        events = []
        for span in self.spans:
            lane = lanes.setdefault(span["program"], len(lanes) + 1)
            events.append({
                "name": span["name"],
                "cat": span["workload"],
                "ph": "X",
                "ts": span["start"] * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "pid": 1,
                "tid": lane,
                "args": {"program": span["program"], "rep": span["rep"]},
            })
        for program, lane in lanes.items():
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": lane,
                "args": {"name": str(program)},
            })
        with open(path, "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)


class NullTracer:
    """Tracing off: the same call sites, no clock reads, no records."""

    def span(self, name, program=None, rep=None):
        return contextlib.nullcontext()
