"""In-memory span recorder that times the program's layers from outside.

`Tracer.patch` swaps a module attribute for a wrapper that records one span
per call: (name, start, end, parent, case id).  The program's own code is
not modified; a layer is visible only where a caller looks the function up
through the patched attribute, which is why the benchmark patches the name
in the calling module (for example `gradleak.rlg.svd`, not
`gradleak.linalg.svd`).  Spans stay in memory until `write` is called at the
end of a run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.case_id = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def patch(self, module, attr: str, name: str, observe=None) -> None:
        """Route `module.attr` through a recording wrapper.

        `observe(tracer, args, kwargs, result, exc)` runs after each call and
        may add to `counters`; the call's result or exception is passed on
        unchanged.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent, self.case_id))
            self._stack.append(index)
            start = time.perf_counter()
            result = exc = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.case_id)
                if observe is not None:
                    observe(self, args, kwargs, result, exc)

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def unpatch(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, excluding time covered by child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child_time[i]
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "case"],
                       "spans": self.spans}, fh, separators=(",", ":"))
