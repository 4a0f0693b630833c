"""Measurement probes that live in the benchmark, not in the program.

- `CountingTransport`: a replication transport over a mirror directory
  that appends one line per call (`ok` / `fail`) to a log file, so
  calls made inside Ray workers are counted too.
- `RayExecCounter`: counts Ray Data "Starting execution" log events.
- `RssSampler`: peak summed RSS of this process and all descendants
  (the Ray GCS, raylet and workers), sampled from `/proc`.
- `Tracer`: in-memory spans around calls into the program's layers,
  installed by monkeypatching module and class attributes.
"""

from __future__ import annotations

import functools
import logging
import os
import threading
import time
from dataclasses import dataclass

from oluray.sources.replication import FetchError


@dataclass
class CountingTransport:
    root: str
    log: str

    def __call__(self, path: str) -> bytes:
        full = os.path.join(self.root, path)
        try:
            with open(full, "rb") as f:
                data = f.read()
        except OSError as e:
            self._note("fail")
            raise FetchError(f"{full}: {e}") from e
        self._note("ok")
        return data

    def _note(self, what: str) -> None:
        with open(self.log, "a") as f:
            f.write(what + "\n")

    def counts(self) -> tuple[int, int]:
        """(calls, failures) so far."""
        try:
            with open(self.log) as f:
                lines = f.read().split()
        except OSError:
            return 0, 0
        return len(lines), lines.count("fail")


class RayExecCounter(logging.Handler):
    """Counts Ray Data executions from the streaming executor's
    "Starting execution of Dataset" log line; silences Ray Data's
    console output so only the benchmark prints to the terminal."""

    LOGGER = "ray.data"

    def __init__(self):
        super().__init__(logging.INFO)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith("Starting execution of Dataset"):
            self.count += 1

    def install(self) -> "RayExecCounter":
        lg = logging.getLogger(self.LOGGER)
        for h in lg.handlers:
            if isinstance(h, logging.StreamHandler) and not isinstance(
                    h, logging.FileHandler):
                h.setLevel(logging.WARNING)
        if lg.getEffectiveLevel() > logging.INFO:
            lg.setLevel(logging.INFO)
        lg.addHandler(self)
        return self


def _rss_tree_kb(root_pid: int) -> int:
    parent: dict[int, int] = {}
    rss: dict[int, int] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/status") as f:
                txt = f.read()
        except OSError:
            continue
        pid = int(d)
        for line in txt.splitlines():
            if line.startswith("PPid:"):
                parent[pid] = int(line.split()[1])
            elif line.startswith("VmRSS:"):
                rss[pid] = int(line.split()[1])
    total = 0
    for pid, kb in rss.items():
        p = pid
        while p and p != root_pid:
            p = parent.get(p, 0)
        if p == root_pid:
            total += kb
    return total


class RssSampler:
    """Background thread: peak of the summed RSS of this process tree."""

    def __init__(self, period_s: float = 1.0):
        self.period_s = period_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._t = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        me = os.getpid()
        while not self._stop.is_set():
            self.peak_kb = max(self.peak_kb, _rss_tree_kb(me))
            self._stop.wait(self.period_s)

    def start(self) -> "RssSampler":
        self._t.start()
        return self

    def stop(self) -> float:
        """Stop sampling; returns the peak in MiB."""
        self._stop.set()
        self._t.join()
        self.peak_kb = max(self.peak_kb, _rss_tree_kb(os.getpid()))
        return self.peak_kb / 1024.0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    window: str | None
    info: dict


class Tracer:
    """Spans kept in memory; `wrap` patches `owner.attr` so each call
    opens a span, and `span` times a block of benchmark code."""

    def __init__(self):
        self.spans: list[Span] = []
        self.window: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, **info):
        return _SpanCtx(self, name, info)

    def wrap(self, owner, attr: str, name: str, settle=None) -> None:
        """Patch `owner.attr`. `settle(result)` runs inside the span and
        returns the value handed to the caller, so lazy results are
        materialized where they are produced."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapped(*args, **kwargs):
            with tracer.span(name) as sp:
                out = orig(*args, **kwargs)
                if settle is not None:
                    out = settle(out, sp)
                return out

        self._undo.append((owner, attr, orig))
        setattr(owner, attr, wrapped)

    def unwrap_all(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- analysis -----------------------------------------------------

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Summed duration of `name` spans minus what their direct
        children cover."""
        out = 0.0
        for i, s in enumerate(self.spans):
            if s.name != name:
                continue
            kids = sum(c.end - c.start for c in self.spans if c.parent == i)
            out += (s.end - s.start) - kids
        return out

    def covered(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] covered by top-level spans."""
        iv = sorted((max(s.start, t0), min(s.end, t1)) for s in self.spans
                    if s.parent is None and s.end > t0 and s.start < t1)
        tot, cur_a, cur_b = 0.0, None, None
        for a, b in iv:
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    tot += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            tot += cur_b - cur_a
        return tot

    def dump(self, path: str) -> None:
        import json

        with open(path, "w") as f:
            json.dump([s.__dict__ for s in self.spans], f)


class _SpanCtx:
    def __init__(self, tracer: Tracer, name: str, info: dict):
        self.tracer, self.name, self.info = tracer, name, info

    def __enter__(self) -> dict:
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        tr.spans.append(Span(self.name, time.perf_counter(), 0.0, parent,
                             tr.window, self.info))
        self.idx = len(tr.spans) - 1
        tr._stack.append(self.idx)
        return self.info

    def __exit__(self, *exc) -> None:
        tr = self.tracer
        tr.spans[self.idx].end = time.perf_counter()
        tr._stack.pop()
