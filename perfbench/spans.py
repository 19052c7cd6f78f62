"""Span recording for the benchmark: one timer for untraced and traced runs.

Every public call the benchmark makes into catflux goes through
``Recorder.span``.  The span always measures its own duration, because the
end-to-end metrics are built from those durations.  Only a traced run also
keeps the spans (name, start, end, parent) in memory; they are written out
when the run ends and turned into per-layer self times.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("sid", "name", "parent", "root", "work", "start", "end")

    def __init__(self, sid: int, name: str, parent: Optional[int], root: str,
                 work: int):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.root = root
        self.work = work            # items processed: lane steps, orbit steps
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Times calls, counts attempted and failed operations, keeps spans.

    ``attempted`` counts every timed call and every output check;
    ``failed`` counts calls that raised and checks that did not hold.
    """

    def __init__(self, tracing: bool = False):
        self.tracing = tracing
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self.attempted = 0
        self.failed = 0

    @contextmanager
    def span(self, name: str, work: int = 0) -> Iterator[Span]:
        self.attempted += 1
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name,
                 parent.sid if parent is not None else None,
                 parent.root if parent is not None else name, work)
        if self.tracing:
            self.spans.append(s)
            self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            if self.tracing:
                self._stack.pop()

    def wrap(self, name: str, fn, work=None):
        """fn with every call recorded as a span called name.

        work, if given, maps the call's positional arguments to its item count.
        """
        def traced(*args, **kwargs):
            with self.span(name, work(*args) if work else 0):
                return fn(*args, **kwargs)
        return traced

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)
        return ok

    def stage(self, fn, *args):
        """Run one stage; a raised exception is reported and counted, not fatal.

        Returns None when the stage raised, so the metrics it would have
        produced stay missing and the run ends without a result line.
        """
        try:
            return fn(*args)
        except Exception:
            self.attempted += 1
            self.failed += 1
            print(f"STAGE FAILED {getattr(fn, '__name__', fn)}:", file=sys.stderr)
            traceback.print_exc()
            return None

    # ------------------------------------------------------------------
    # analysis of a traced run
    # ------------------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the part its child spans cover."""
        own = {s.sid: s.seconds for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def named(self, name: str) -> List[Span]:
        return self.preferred([s for s in self.spans if s.name == name])

    @staticmethod
    def preferred(spans: List[Span]) -> List[Span]:
        """The pipeline's spans among these, else the probes', else the CLI's.

        Probes and the CLI smoke pass stand in for a layer only on workloads
        whose own pipeline never calls it.
        """
        for phase in ("pipeline", "probe.", "cli."):
            found = [s for s in spans if s.root.startswith(phase)]
            if found:
                return found
        return spans

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"id": s.sid, "name": s.name, "parent": s.parent,
                 "start": s.start, "end": s.end} for s in self.spans]
        path.write_text(json.dumps(rows))
