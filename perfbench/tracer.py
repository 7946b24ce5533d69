"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into the package's layers by replacing
module and class attributes with timing wrappers. Every span keeps its
name, start, end and the span that was open when it began; the arrays stay
in memory until the run ends and are reduced to per-layer self times (span
minus the time covered by its child spans) and call counts.
"""

from __future__ import annotations

from array import array
from collections import Counter

import numpy as np

from speed import work_clock

# Spans stop while the host speed probe runs (see speed.py).
_clock = work_clock


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        #: (first span index, last span index + 1, extra counters) per pass
        self.passes: list[tuple[int, int, Counter]] = []
        self.counters: Counter = Counter()
        self._pass_start = 0
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, owner, attr: str, name: str, name_of=None, after=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records one span a call.

        ``name_of(args, kwargs)`` may return a suffix that refines the span
        name per call; ``after(result, args, kwargs)`` may add to
        ``self.counters`` once the call has returned.
        """
        fn = getattr(owner, attr)
        base = self._id(name)
        suffixed: dict[str, int] = {}
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack
        )

        def wrapper(*args, **kwargs):
            nid = base
            if name_of is not None:
                suffix = name_of(args, kwargs)
                nid = suffixed.get(suffix)
                if nid is None:
                    nid = suffixed[suffix] = self._id(f"{name}.{suffix}")
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = _clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def close_pass(self) -> None:
        """End the current pass: its spans and counters form one section."""
        self.passes.append((self._pass_start, len(self.start), self.counters))
        self._pass_start = len(self.start)
        self.counters = Counter()

    # -- reduction ---------------------------------------------------------

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Calls and self seconds per span name over all passes."""
        n = self._pass_start
        if n == 0:
            return {}
        dur = np.array(self.end, dtype=float)[:n] - np.array(self.start, dtype=float)[:n]
        parent = np.array(self.parent, dtype=np.int64)[:n]
        name = np.array(self.name, dtype=np.int64)[:n]
        nested = parent >= 0
        own_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=n)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        own = np.bincount(name, weights=own_time, minlength=k)
        return {
            self.names[i]: {"calls": int(calls[i]), "self_s": float(own[i])}
            for i in range(k)
            if calls[i]
        }

    def pass_counts(self) -> list[Counter]:
        """Exact counters of each pass.

        ``<name>.calls`` counts spans by name and ``<root>><name>.calls``
        counts them by the outermost span they ran under; the extra
        counters added by ``after`` hooks are included as they are.
        """
        n = len(self.start)
        k = len(self.names)
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        root = np.arange(n)
        while n:
            up = parent[root]
            nested = up >= 0
            if not nested.any():
                break
            root[nested] = up[nested]
        pair = name[root] * k + name
        out = []
        for lo, hi, extra in self.passes:
            counts = Counter(extra)
            calls = np.bincount(name[lo:hi], minlength=k)
            for i in np.nonzero(calls)[0]:
                counts[f"{self.names[i]}.calls"] = int(calls[i])
            inner = root[lo:hi] != np.arange(lo, hi)
            pairs = np.bincount(pair[lo:hi][inner], minlength=k * k)
            for p in np.nonzero(pairs)[0]:
                outer, own = divmod(int(p), k)
                counts[f"{self.names[outer]}>{self.names[own]}.calls"] = int(pairs[p])
            out.append(counts)
        return out
