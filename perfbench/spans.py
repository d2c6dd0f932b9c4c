"""In-memory spans around calls into the package's layers.

Tracing replaces a public function or method by a wrapper under the
name its caller looks it up, so the package itself is unchanged. A span
is (name, start, end, parent, group, counts): ``parent`` indexes the
enclosing span (-1 at top level), ``group`` is the benchmark's label
for the work in progress, and ``counts`` holds sizes taken from the
call's result. Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.group = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.group, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Trace calls to ``owner.attr``; ``counts(result)`` may return a dict."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if counts is not None:
                self.spans[index][5] = counts(result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        fields = ("name", "start", "end", "parent", "group", "counts")
        with open(path, "w") as handle:
            json.dump({"fields": fields, "spans": self.spans}, handle)


class SpanView:
    """Aggregates over the spans of one workload (group ``<workload>/<step>``)."""

    def __init__(self, spans: list[list], workload: str):
        self.all = spans
        self.workload = workload
        self.ids = [i for i, s in enumerate(spans) if s[4].split("/")[0] == workload]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        self.child = child

    def named(self, name: str, group: str | None = None) -> list[int]:
        return [i for i in self.ids if self.all[i][0] == name
                and (group is None or self.all[i][4] == group)]

    def duration(self, i: int) -> float:
        return self.all[i][2] - self.all[i][1]

    def self_time(self, i: int) -> float:
        return self.duration(i) - self.child[i]

    def total(self, name: str) -> float:
        return sum(self.duration(i) for i in self.named(name))

    def count(self, name: str, key: str, group: str | None = None) -> int:
        return sum((self.all[i][5] or {}).get(key, 0) for i in self.named(name, group))

    def under(self, i: int, ancestor: int) -> bool:
        while i >= 0:
            if i == ancestor:
                return True
            i = self.all[i][3]
        return False

    def parent_name(self, i: int) -> str | None:
        parent = self.all[i][3]
        return self.all[parent][0] if parent >= 0 else None
