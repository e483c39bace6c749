"""Spans around the benchmark's calls into the program's layers.

A span records its name, an optional tag, its start and end on the
monotonic clock, and the operation that caused it.  Spans stay in
memory and are written out when the worker ends.  The untraced run uses
``NullTracer``, so the end-to-end numbers carry no tracing cost.

``AllocTracer`` measures, per span name, the largest extra memory a call
allocated (``tracemalloc`` peak minus what was allocated on entry).  It
makes calls several times slower, so it runs in a pass of its own.
"""

import contextlib
import time
import tracemalloc


class NullTracer:
    def span(self, name, tag=None):
        return contextlib.nullcontext()

    def operation(self, name):
        return contextlib.nullcontext()


class SpanTracer:
    def __init__(self):
        self.spans = []
        self._op = None
        self.phase = "setup"

    @contextlib.contextmanager
    def _record(self, name, tag, parent):
        record = {"id": len(self.spans), "name": name, "tag": tag,
                  "parent": parent, "phase": self.phase}
        self.spans.append(record)
        record["start"] = time.monotonic()
        try:
            yield record
        finally:
            record["end"] = time.monotonic()

    def span(self, name, tag=None):
        return self._record(name, tag, self._op)

    @contextlib.contextmanager
    def operation(self, name):
        with self._record("op", name, None) as record:
            self._op = record["id"]
            try:
                yield
            finally:
                self._op = None

    def totals(self, phase):
        """Seconds per span name (and per ``name:tag``) within ``phase``."""
        out = {}
        for s in self.spans:
            if s["phase"] != phase or s["name"] == "op":
                continue
            took = s["end"] - s["start"]
            keys = [s["name"]] + ([f"{s['name']}:{s['tag']}"] if s["tag"] else [])
            for key in keys:
                out[key] = out.get(key, 0.0) + took
        return out


class AllocTracer:
    def __init__(self):
        self.peaks = {}

    @contextlib.contextmanager
    def span(self, name, tag=None):
        if not tracemalloc.is_tracing():
            yield
            return
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            yield
        finally:
            extra = tracemalloc.get_traced_memory()[1] - before
            self.peaks[name] = max(self.peaks.get(name, 0), extra)

    def operation(self, name):
        return contextlib.nullcontext()
