"""The record one timed pass of a workload returns."""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class PassResult:
    #: ``time.perf_counter()`` at the start of the pass's timed part.
    t0: float
    #: Wall time of the pass's timed part.
    pass_s: float
    #: Operations attempted in the pass (whole rounds, same every pass).
    ops: int
    #: Work counts; identical for every pass of one seed.
    counts: dict
    #: Operations that failed.
    failed: int = 0
    #: Latency of each unit operation of the pass (``op_p50_ms`` and
    #: ``op_tail_ms``); the same number of them in every pass.
    op_latencies: list = field(default_factory=list)
    #: Further samples for the informational figures and the trace.
    data: dict = field(default_factory=dict)


def timed(latencies: list, fn, *args, **kwargs):
    """Call ``fn`` and append its wall time to ``latencies``."""
    began = time.perf_counter()
    result = fn(*args, **kwargs)
    latencies.append(time.perf_counter() - began)
    return result
