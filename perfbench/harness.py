"""Statistics, span tracing and work-count bookkeeping for the benchmark.

Everything here is independent of the program under test, so the unit
tests in ``test_harness.py`` exercise it without importing ``repro``.

* :func:`median`, :func:`percentile` and :func:`tail_percentile` turn
  per-pass samples into the reported figures.  A tail is taken at the
  highest whole percentile that leaves at least ten samples beyond it,
  and is not reported at all from fewer than forty samples.
* :class:`Tracer` records spans (name, start, end, parent, pass id,
  request id) in memory.  :class:`Patches` wraps the program's public
  calls from the outside, so the program itself carries no tracing.
* :func:`layer_times` derives each layer's busy time, self time and
  call count from one pass's spans, plus the share of the pass that no
  layer accounts for.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Fewest samples a tail percentile is reported from.
MIN_TAIL_SAMPLES = 40
#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


# -- statistics --------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence (mean of the middle two if even)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (NumPy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile {pct} outside [0, 100]")
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> Optional[int]:
    """Highest whole percentile with at least ten of ``n`` samples beyond.

    ``None`` below forty samples: such a percentile would be no tail.
    """
    if n < MIN_TAIL_SAMPLES:
        return None
    # n * (100 - p) / 100 >= TAIL_BEYOND  <=>  p <= 100 - 100 * 10 / n.
    # Integer arithmetic keeps exact boundaries exact (n = 1000 -> 99).
    return 100 - (100 * TAIL_BEYOND + n - 1) // n


# -- spans -------------------------------------------------------------------------


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    pass_id: Optional[int]
    req_id: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.sid, self.name, self.start, self.end, self.parent,
                self.pass_id, self.req_id]


def layer_of(name: str) -> str:
    """Layer of a span name: ``obs.<part>`` for observability, else the
    first dotted component (``serve.publish`` -> ``serve``)."""
    parts = name.split(".")
    if parts[0] == "obs" and len(parts) > 1:
        return "obs." + parts[1]
    return parts[0]


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the part its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - union_length(children.get(s.sid, ()))
        for s in spans
    }


def layer_times(
    spans: Sequence[Span], pass_s: float
) -> Tuple[Dict[str, dict], float]:
    """Per-layer ``{busy_s, self_s, calls}`` and the unaccounted share.

    Busy time is the union of a layer's span intervals (so nested or
    recursive calls of one layer count once); self time sums each span's
    duration less its children's; the unaccounted share is the part of
    the pass that no span of any layer covers, over the pass time.
    """
    own = self_times(spans)
    by_layer: Dict[str, List[Span]] = {}
    for s in spans:
        by_layer.setdefault(layer_of(s.name), []).append(s)
    out = {}
    for layer, group in sorted(by_layer.items()):
        out[layer] = {
            "busy_s": union_length((s.start, s.end) for s in group),
            "self_s": sum(own[s.sid] for s in group),
            "calls": len(group),
        }
    covered = union_length((s.start, s.end) for s in spans)
    unaccounted = max(0.0, pass_s - covered) / pass_s if pass_s > 0 else 0.0
    return out, unaccounted


def busy(spans: Sequence[Span], *names: str) -> float:
    """Union of the intervals of the spans with the given names."""
    wanted = set(names)
    return union_length((s.start, s.end) for s in spans if s.name in wanted)


class Tracer:
    """In-memory span recorder, safe to call from several threads.

    ``pass_id`` is set by ``run.py`` for the timed part of each traced
    pass; spans opened while it is ``None`` are not kept.  A span opened
    with ``new_request=True`` takes the next request id, and spans
    nested under it inherit that id.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.pass_id: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_sid = 0
        self._next_req = 0

    def reset_requests(self) -> None:
        with self._lock:
            self._next_req = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs,
             new_request: bool = False):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        pass_id = self.pass_id
        if pass_id is None:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            sid = self._next_sid
            self._next_sid += 1
            if new_request:
                req = self._next_req
                self._next_req += 1
            else:
                req = parent[1] if parent is not None else None
        stack.append((sid, req, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(sid, name, start, end,
                        parent[0] if parent is not None else None,
                        pass_id, req)
            with self._lock:
                self.spans.append(span)

    def current(self) -> Optional[str]:
        """Name of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1][2] if stack else None

    def pass_spans(self, pass_id: int) -> List[Span]:
        with self._lock:
            return [s for s in self.spans if s.pass_id == pass_id]

    def write(self, path: Path) -> None:
        """Write every kept span as one JSON list per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(["sid", "name", "start", "end", "parent",
                                 "pass", "request"]) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s.to_list()) + "\n")


class Patches:
    """Wrap named program callables in tracer spans, and undo it.

    A target is ``(module, "Class.method" or "function", span name)``
    plus an optional ``hook(args, result)`` run after the call returns
    (for counts).  A wrapped module-level function is replaced in every
    loaded ``repro`` module that bound the same object at import time,
    so calls through any import path are traced.
    """

    def __init__(self, tracer: Tracer, targets, hooks=None,
                 request_roots: Sequence[str] = ()) -> None:
        self.tracer = tracer
        self.targets = list(targets)
        self.hooks = dict(hooks or {})
        self.request_roots = set(request_roots)
        self._undo: List[Tuple[object, str, object]] = []

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self.tracer
        hook = self.hooks.get(name)
        new_request = name in self.request_roots

        def traced(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs, new_request)
            if hook is not None and tracer.pass_id is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> "Patches":
        if self._undo:
            raise RuntimeError("patches already installed")
        for module_name, attr, span_name in self.targets:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._set(owner, meth, original,
                          self._wrapper(span_name, original))
                continue
            original = getattr(module, attr)
            traced = self._wrapper(span_name, original)
            for mod_name, mod in list(sys.modules.items()):
                if not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                if getattr(mod, attr, None) is original:
                    self._set(mod, attr, original, traced)
        return self

    def _set(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# -- work counts -------------------------------------------------------------------


def check_counts(path: Path, counts: dict) -> Optional[str]:
    """Compare ``counts`` with an earlier run's record at ``path``.

    The first run for a (workload, seed) writes the record; later runs
    must match it exactly.  Returns a failure message, or ``None``.
    """
    if path.exists():
        recorded = json.loads(path.read_text())
        if recorded != counts:
            return (f"work counts differ from an earlier run with the same "
                    f"seed: {recorded} != {counts}")
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    tmp.replace(path)
    return None
