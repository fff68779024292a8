"""Whole-path benchmark of the repro package, one workload per run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``campaign_project``, ``plane_ingest``, ``cap_poll``,
``characterize`` (see README.md).  A run imports the program from
``src/``, builds its inputs from the seed (several times; the median
set-up counts), then runs whole passes until ``--seconds`` have passed
(at least three; four when traced), checks the last pass's outputs and
prints its work counts.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run alternates untraced and traced passes, so
it also reports the tracing overhead.  The run pins itself to one CPU.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Work-count records and span dumps, inside the checkout.
STATE_DIR = ROOT / ".perfbench_state"

WORKLOADS = ("campaign_project", "plane_ingest", "cap_poll", "characterize")
#: Set-ups per run; the median one counts towards ``setup_s``.
SETUP_REPEATS = 3
MIN_PASSES = 3
MIN_TRACED_RUN_PASSES = 4
#: Every layer the benchmark drives; each run imports them all, so
#: ``setup_s`` carries the same import cost on every workload.
LAYER_MODULES = (
    "repro.scheduler", "repro.telemetry", "repro.core", "repro.policy",
    "repro.stream", "repro.serve", "repro.obs.health", "repro.obs.forensics",
    "repro.obs.history", "repro.obs.log", "repro.obs.metrics", "repro.gpu",
    "repro.bench", "repro.graph",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def make_workload(name: str):
    if name == "campaign_project":
        from campaign import CampaignProject
        return CampaignProject()
    if name == "plane_ingest":
        from plane import PlaneIngest
        return PlaneIngest()
    if name == "cap_poll":
        from plane import CapPoll
        return CapPoll()
    from characterize import Characterize
    return Characterize()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run "
              f"from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    # One CPU for the whole process, threads included: the closed-loop
    # client and the server thread then hand off on one core, so how the
    # host schedules a second vCPU stays out of the figures.  Unpinned,
    # a busy hour stretched cap_poll passes from 4.9 s to 8.3 s.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    t_import = time.perf_counter()
    for module in LAYER_MODULES:
        importlib.import_module(module)
    workload = make_workload(args.workload)
    import_s = time.perf_counter() - t_import

    from harness import check_counts, median, percentile, tail_percentile

    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        began = time.perf_counter()
        workload.setup(args.seed)
        setup_times.append(time.perf_counter() - began)
    setup_s = import_s + median(setup_times)

    passes, layer_rows = run_passes(workload, args)
    plain = [p for i, p in enumerate(passes) if not (args.trace and i % 2)]

    failures = list(workload.verify())
    counts = passes[0].counts
    for i, p in enumerate(passes):
        if p.counts != counts:
            failures.append(f"pass {i} counts {p.counts} != pass 0 {counts}")
    problem = check_counts(
        STATE_DIR / f"counts-{args.workload}-seed{args.seed}.json", counts
    )
    if problem:
        failures.append(problem)

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"pass_s {[round(p.pass_s, 4) for p in passes]}")
    print(f"setup: import {import_s:.3f} s, set-ups "
          f"{[round(t, 3) for t in setup_times]} s")
    ops = [p.op_latencies for p in plain]
    pct = tail_percentile(len(ops[0]))
    print(f"op: {workload.op_name}; {len(ops[0])} per pass; tail at p{pct}")
    info = {"op_p50_ms": 1e3 * median([median(o) for o in ops])}
    info.update(workload.info(plain))
    for name, value in info.items():
        print(f"info: {name} = {value:.6g}")
    print("counts: " + json.dumps(counts, sort_keys=True))
    for failure in failures:
        print(f"CHECK FAILED: {failure}")

    if args.trace:
        from layers import metric_units

        units = metric_units()
        values = {name: median([row[name] for row in layer_rows])
                  for name in units if name != "trace.overhead_s"}
        traced = [p for i, p in enumerate(passes) if i % 2]
        values["trace.overhead_s"] = (median([p.pass_s for p in traced])
                                      - median([p.pass_s for p in plain]))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "pass_s": {"value": median([p.pass_s for p in plain]),
                       "unit": "s"},
            "op_tail_ms": {
                "value": 1e3 * median([percentile(o, pct) for o in ops]),
                "unit": "ms",
            },
        }

    print(json.dumps({
        "correct": not failures,
        "attempted": sum(p.ops for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


def run_passes(workload, args):
    """Whole passes until the deadline; every other one traced if asked.

    Returns the pass results and, for traced passes, their per-layer
    metric rows.  Spans are written out once the last pass has ended.
    """
    tracer = patches = counters = None
    if args.trace:
        from harness import Tracer
        from layers import Counters, make_patches, pass_metrics

        tracer = Tracer()
        counters = Counters(tracer)
        patches = make_patches(tracer, counters)
    min_passes = MIN_TRACED_RUN_PASSES if args.trace else MIN_PASSES
    passes, layer_rows = [], []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < min_passes or time.perf_counter() < deadline:
        gc.collect()
        traced = bool(args.trace and i % 2)
        start = time.perf_counter
        if traced:
            counters.reset()
            patches.install()
            start = _tracing_start(tracer, i)
        try:
            result = workload.run_pass(start)
        finally:
            if traced:
                tracer.pass_id = None
                patches.uninstall()
        if traced:
            layer_rows.append(
                pass_metrics(tracer.pass_spans(i), result, counters)
            )
        passes.append(result)
        i += 1
    if tracer is not None:
        tracer.write(STATE_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return passes, layer_rows


def _tracing_start(tracer, pass_id: int):
    """The ``start`` callback of a traced pass: open the pass, then time."""
    def start() -> float:
        tracer.reset_requests()
        tracer.pass_id = pass_id
        return time.perf_counter()
    return start


if __name__ == "__main__":
    sys.exit(main())
