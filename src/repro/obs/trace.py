"""Trace spans: nested wall-time + peak-RSS telemetry as JSONL events.

``span("stage1.tlb_filter")`` opens a context manager; on exit one JSON
line is appended to the trace file with the span's name, wall-clock
duration, peak-RSS delta, process id, and parent/child linkage
(``span_id`` / ``parent_id`` / ``depth`` via a per-thread span stack).
The context manager yields a dict; keys added to it during the block are
merged into the event, so callers can attach results (walk counts, miss
counts) discovered mid-span.

Tracing is off by default and :func:`span` is then a cheap no-op that
yields ``None`` — instrumented code guards post-attrs with
``if sp is not None``. ``enable(path)`` opens the stream (append mode;
idempotent for the same path so pool workers can re-enter per task), and
``disable()`` flushes and closes it. Each event is written and flushed
as one line under a lock, so several worker processes and threads can
append to the same file; children close before their parents, so child
events precede parent events in the stream. Span ids are unique per
process; a span opened on a fresh thread (a sweep's cell thread) has no
parent.

Stream ownership is cooperative: :func:`active` reports whether a
stream is already open, and code that would open one on a caller's
behalf (``run_sweep``, the job scheduler's ``job.run`` span) checks it
first and only calls :func:`disable` on streams it opened itself, so a
caller-enabled trace survives the call.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional


def peak_rss_kb() -> int:
    """This process's peak resident set size in KiB (Linux ru_maxrss)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class Tracer:
    """One open JSONL span stream plus a span stack per thread."""

    def __init__(self, path: str):
        self.path = path
        self._handle = open(path, "a", encoding="utf-8")
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Dict[str, object]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent_id = stack[-1] if stack else None
        depth = len(stack)
        stack.append(span_id)
        extra: Dict[str, object] = {}
        rss_before = peak_rss_kb()
        started_unix = time.time()
        started = time.perf_counter()
        try:
            yield extra
        finally:
            seconds = time.perf_counter() - started
            stack.pop()
            event = dict(attrs)
            event.update(extra)
            event.update(
                name=name,
                span_id=span_id,
                parent_id=parent_id,
                depth=depth,
                pid=os.getpid(),
                start_unix=started_unix,
                seconds=seconds,
                rss_delta_kb=peak_rss_kb() - rss_before,
            )
            # one write + flush per event: lines from concurrent sweep
            # workers and cell threads appending to the file stay whole
            line = json.dumps(event, sort_keys=True) + "\n"
            with self._lock:
                self._handle.write(line)
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            self._handle.close()


_TRACER: Optional[Tracer] = None


def enable(path: str) -> Tracer:
    """Open (or keep) the trace stream at ``path`` for this process."""
    global _TRACER
    if _TRACER is not None:
        if _TRACER.path == path:
            return _TRACER
        _TRACER.close()
    _TRACER = Tracer(path)
    return _TRACER


def disable() -> None:
    """Flush and close the active trace stream, if any."""
    global _TRACER
    if _TRACER is not None:
        _TRACER.close()
        _TRACER = None


def active() -> bool:
    """Is a trace stream currently open in this process?"""
    return _TRACER is not None


@contextmanager
def span(name: str, **attrs) -> Iterator[Optional[Dict[str, object]]]:
    """Time a block as one trace event; no-op (yields None) when disabled."""
    tracer = _TRACER
    if tracer is None:
        yield None
        return
    with tracer.span(name, **attrs) as extra:
        yield extra


def read_events(path: str):
    """Parse a JSONL trace back into a list of event dicts."""
    events = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
