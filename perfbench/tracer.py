"""In-memory spans around calls into the package's modules.

The tracer replaces module attributes with wrappers, so calls the
package makes to itself through those attributes (for example
`perfect_tiling` calling `copy_hypergraph`) are captured too.  Each call
records a span (name, start, end, parent, item); a layer's self time is
its spans' durations minus the time covered by their child spans.
Counters attached to a wrapper record work counts where the work
happens.  `attach` installs the wrappers and `detach` puts the original
attributes back, so traced and untraced calls can alternate.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, item or -1]
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.item = -1
        self._stack = []  # [span index, time covered by children]
        self._wrappers = []  # (module, attribute, original, wrapper)

    def open(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item])
        self._stack.append([index, 0.0])

    def close(self):
        index, children = self._stack.pop()
        span = self.spans[index]
        span[2] = end = time.perf_counter()
        duration = end - span[1]
        self.self_s[span[0]] += duration - children
        self.calls[span[0]] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def wrap(self, module, attr, name, count=None):
        """Make a wrapper that traces module.attr under the given span name;
        `attach` installs it.  count(args, kwargs, result), if given,
        returns (key, amount) pairs added to the work counts as
        "<name>.<key>" after each call returns."""
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close()
            if count is not None:
                for key, amount in count(args, kwargs, result):
                    tracer.counts[f"{name}.{key}"] += amount
            return result

        self._wrappers.append((module, attr, original, traced))

    def attach(self):
        for module, attr, _, traced in self._wrappers:
            setattr(module, attr, traced)

    def detach(self):
        for module, attr, original, _ in reversed(self._wrappers):
            setattr(module, attr, original)

    def write(self, path, header):
        """Write the header, per-name totals and every span as JSON."""
        doc = {
            **header,
            "self_s": dict(sorted(self.self_s.items())),
            "calls": dict(sorted(self.calls.items())),
            "counts": dict(sorted(self.counts.items())),
            "span_fields": ["name", "start", "end", "parent", "item"],
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class NullTracer:
    """Stands in for a Tracer on untraced runs: spans are not recorded."""

    item = -1

    def open(self, name):
        pass

    def close(self):
        pass


NULL_TRACER = NullTracer()
