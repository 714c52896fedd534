"""Per-layer tracing from outside the engine.

The tracer replaces public functions of the engine modules with wrappers
that record a span (name, start, end, parent) or, for functions too hot to
time, only a call count. `sequential` and `concurrent` import `can_fire`,
`fire` and `enabled_set` by name, so a wrapper is installed under every
module attribute that holds the original function. A function that no longer
exists is skipped, and the metrics built on it are reported as absent.
"""
from __future__ import annotations

import functools
import itertools
import json
import time
from dataclasses import dataclass

from tokenflow import concurrent, dsl, model, semantics, sequential

MODULES = {
    "dsl": dsl,
    "model": model,
    "semantics": semantics,
    "sequential": sequential,
    "concurrent": concurrent,
}

# (defining module, function) pairs recorded as spans.
TIMED = [
    ("dsl", "parse_composition"),
    ("dsl", "serialize_trace"),
    ("model", "build_composition"),
    ("model", "initial_state"),
    ("semantics", "fire"),
    ("sequential", "run_to_convergence"),
    ("sequential", "step"),
    ("sequential", "select_next"),
    ("sequential", "enabled_set"),
    ("concurrent", "simulate_concurrent"),
    ("concurrent", "startable_set"),
    ("concurrent", "schedule_tsv"),
]
# Functions whose calls are only counted.
COUNTED = [("semantics", "can_fire")]
# Methods whose calls are only counted.
COUNTED_METHODS = [("model", "ExecutionState", "copy")]


@dataclass
class Span:
    id: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Records spans and counts while installed; restores on uninstall."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.phase_counts: dict[str, dict[str, int]] = {}
        self.installed: set[str] = set()
        self._marked: dict[str, int] = {}
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._undo: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- spans

    def _open(self) -> tuple[int, int | None]:
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, name: str, start: int, parent: int | None) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append(Span(sid, name, start, end, parent))

    def timed(self, name: str, fn):
        self.installed.add(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, name, start, parent)

        return wrapper

    def counted(self, name: str, fn):
        self.installed.add(name)
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def mark(self, phase: str) -> None:
        """Attribute the counts made since the previous mark to `phase`."""
        now = dict(self.counts)
        self.phase_counts[phase] = {k: v - self._marked.get(k, 0) for k, v in now.items()}
        self._marked = now

    # ------------------------------------------------------ installation

    def install(self) -> list[str]:
        """Wrap every listed function that exists; return the missing ones."""
        missing = []
        for kinds, wrap in ((TIMED, self.timed), (COUNTED, self.counted)):
            for owner, attr in kinds:
                name = f"{owner}.{attr}"
                original = getattr(MODULES[owner], attr, None)
                if original is None:
                    missing.append(name)
                    continue
                wrapped = wrap(name, original)
                for module in MODULES.values():
                    if getattr(module, attr, None) is original:
                        self._set(module, attr, wrapped)
        for owner, cls_name, attr in COUNTED_METHODS:
            cls = getattr(MODULES[owner], cls_name, None)
            original = getattr(cls, attr, None)
            if original is None:
                missing.append(f"{owner}.{cls_name}.{attr}")
                continue
            self._set(cls, attr, self.counted(f"{owner}.{cls_name}.{attr}", original))
        return missing

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def _set(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    # ---------------------------------------------------------- analysis

    def layer_self_ns(self, name: str) -> int | None:
        """Summed self time of every span called `name`, in its own layer.

        Child spans of the same layer count as the span's own time; child
        spans of another layer are subtracted with everything below them.
        None when `name` was not installed.
        """
        if name not in self.installed:
            return None
        children: dict[int | None, list[Span]] = {}
        for s in self.spans:
            children.setdefault(s.parent, []).append(s)

        def foreign(span: Span) -> int:
            total = 0
            for c in children.get(span.id, ()):
                total += c.duration if c.layer != span.layer else foreign(c)
            return total

        return sum(s.duration - foreign(s) for s in self.spans if s.name == name)

    def total_ns(self, name: str) -> int | None:
        """Summed duration of the spans called `name`; None if not installed."""
        return sum(self.durations_ns(name)) if name in self.installed else None

    def calls(self, name: str) -> int | None:
        """Number of spans called `name`; None if not installed."""
        return len(self.durations_ns(name)) if name in self.installed else None

    def durations_ns(self, name: str) -> list[int]:
        return [s.duration for s in self.spans if s.name == name]

    def write(self, path) -> None:
        """Write the spans as JSON lines, all sharing this tracer's run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": s.id,
                            "parent": s.parent,
                            "name": s.name,
                            "start_ns": s.start,
                            "end_ns": s.end,
                        }
                    )
                    + "\n"
                )

