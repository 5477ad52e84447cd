"""In-memory spans recorded around the program's public functions.

A :class:`Tracer` replaces a function at the name its callers bind it (a
module global or a class attribute) with a wrapper that records one span
per call and passes arguments and result through untouched.  Spans are
kept in memory and written out when the run ends.
"""

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    module: str
    start: float
    end: float
    parent: int
    pass_id: int
    experiment: str
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans; ``install`` wraps functions, ``uninstall`` restores them."""

    def __init__(self):
        self.spans = []
        self.pass_id = -1
        self.experiment = ""
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name, module):
        index = self._open(name, module)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _open(self, name, module):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, module, time.perf_counter(), 0.0, parent,
                               self.pass_id, self.experiment))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr, name, module, observe=None):
        """Trace calls of ``owner.attr``.  ``observe(args, kwargs, result)``
        may read (never modify) the call and returns a dict kept on the span.
        Returns False, and wraps nothing, if ``owner`` has no ``attr``."""
        if attr not in vars(owner):
            return False
        original = vars(owner)[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name, module)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                self.spans[index].info = observe(args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)
        return True

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self, pass_id):
        """Per-module self time of one pass: each span's duration minus the
        durations of its direct children, summed by module."""
        child_time = {}
        for sp in self.spans:
            if sp.pass_id == pass_id and sp.parent >= 0:
                child_time[sp.parent] = child_time.get(sp.parent, 0.0) + sp.duration
        out = {}
        for i, sp in enumerate(self.spans):
            if sp.pass_id == pass_id:
                out[sp.module] = out.get(sp.module, 0.0) + sp.duration - child_time.get(i, 0.0)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump([asdict(sp) for sp in self.spans], fh)
