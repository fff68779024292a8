"""The traced run: which program calls are wrapped, and the per-layer metrics.

Each target names a public call of one of the program's layers and the
span it is recorded under.  Per-layer metric names reuse the program's
own span names (``stream.snapshot``, ``serve.refresh``, ...) where a
span covers the same call.
"""

from __future__ import annotations

import threading
import weakref

from repro.serve.cache import HOT_ROUTES

from harness import Patches, Tracer, busy, layer_times, median

#: (module, "Class.method" or "function", span name).
TARGETS = (
    ("repro.scheduler.slurm", "SlurmSimulator.run", "scheduler.simulate"),
    ("repro.telemetry.generator", "FleetTelemetryGenerator.node_chunk",
     "telemetry.render"),
    ("repro.core.join", "CampaignAccumulator.update", "core.join_update"),
    ("repro.core.modes", "decompose_modes", "core.decompose_modes"),
    ("repro.core.projection", "project_savings", "core.project_savings"),
    ("repro.core.heatmap", "table6_selection", "core.table6_selection"),
    ("repro.policy.live", "recommend_fleet_cap", "policy.recommend"),
    ("repro.stream.buffer", "ReorderBuffer.push", "stream.push"),
    ("repro.stream.buffer", "ReorderBuffer.flush", "stream.flush"),
    ("repro.stream.engine", "StreamEngine.ingest", "stream.ingest"),
    ("repro.stream.engine", "StreamEngine.drain", "stream.drain"),
    ("repro.stream.engine", "StreamEngine.snapshot", "stream.snapshot"),
    ("repro.stream.engine", "StreamEngine.export_metrics",
     "obs.metrics.export"),
    ("repro.serve.service", "ControlPlane.ingest", "serve.ingest"),
    ("repro.serve.service", "ControlPlane.drain", "serve.drain"),
    ("repro.serve.service", "ControlPlane.refresh", "serve.refresh"),
    ("repro.serve.service", "ControlPlane.set_policy", "serve.set_policy"),
    ("repro.serve.service", "ControlPlane.observe_request", "serve.meter"),
    ("repro.serve.analytics", "JobAccumulator.update", "serve.job_update"),
    ("repro.serve.objectives", "decide_cap", "serve.decide"),
    ("repro.serve.cache", "SnapshotCache.publish", "serve.publish"),
    ("repro.serve.cache", "ServeView.prerender", "serve.prerender"),
    ("repro.serve.cache", "ServeView.body", "serve.body"),
    ("repro.serve.http", "_Handler._handle", "serve.handle"),
    ("repro.obs.health.monitor", "HealthMonitor.observe_engine",
     "obs.health.observe"),
    ("repro.obs.forensics", "Forensics.observe_window",
     "obs.forensics.observe"),
    ("repro.obs.forensics", "Forensics.serve_doc", "obs.forensics.serve_doc"),
    ("repro.obs.history", "History.observe_window", "obs.history.observe"),
    ("repro.obs.log.events", "EventLog.observe_window", "obs.log.observe"),
    ("repro.obs.log.events", "EventLog.emit", "obs.log.emit"),
    ("repro.bench.tables", "compute_table3", "bench.table3"),
    ("repro.gpu.cachesim", "cyclic_hit_rate", "gpu.cachesim"),
    ("repro.gpu.cachesim", "SetAssociativeCache.access_lines",
     "gpu.access_lines"),
    ("repro.graph.louvain", "louvain", "graph.louvain"),
    ("repro.graph.gpu_louvain", "GPULouvainRunner.run", "graph.gpu_runner"),
)

#: Span that opens each HTTP request on the server thread.
REQUEST_ROOT = "serve.handle"

LAYERS = ("scheduler", "telemetry", "core", "policy", "stream", "serve",
          "obs.health", "obs.forensics", "obs.history", "obs.log",
          "obs.metrics", "bench", "gpu", "graph")

ROUTES = ("cap", "savings", "policy", "jobs", "incidents", "query", "logs")

#: Per-layer busy-time metric -> the spans whose union it is.
BUSY = {
    "scheduler.simulate_s": ("scheduler.simulate",),
    "telemetry.render_s": ("telemetry.render",),
    "core.join_update_s": ("core.join_update",),
    "core.project_s": ("core.decompose_modes", "core.project_savings",
                       "core.table6_selection"),
    "policy.recommend_s": ("policy.recommend",),
    "stream.push_s": ("stream.push", "stream.flush"),
    "stream.snapshot_s": ("stream.snapshot",),
    "serve.job_update_s": ("serve.job_update",),
    "serve.decide_s": ("serve.decide",),
    "serve.publish_s": ("serve.publish",),
    "serve.refresh_s": ("serve.refresh",),
    "serve.meter_s": ("serve.meter",),
    "obs.health.observe_s": ("obs.health.observe",),
    "obs.forensics.observe_s": ("obs.forensics.observe",),
    "obs.forensics.serve_doc_s": ("obs.forensics.serve_doc",),
    "obs.history.observe_s": ("obs.history.observe",),
    "obs.log.observe_s": ("obs.log.observe",),
    "obs.log.emit_s": ("obs.log.emit",),
    "obs.metrics.export_s": ("obs.metrics.export",),
    "bench.table3_s": ("bench.table3",),
    "gpu.cachesim_s": ("gpu.cachesim",),
    "graph.louvain_s": ("graph.louvain",),
    "graph.gpu_runner_s": ("graph.gpu_runner",),
}


def metric_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for name in BUSY:
        units[name] = "s"
    units.update({
        "telemetry.rows": "count",
        "stream.windows": "count",
        "stream.samples_folded": "count",
        "serve.publishes": "count",
        "serve.body_s": "s",
        "serve.wire_ms": "ms",
        "serve.policy_post_ms": "ms",
        "serve.prerender_used_ratio": "ratio",
        "obs.forensics.slices_rendered": "count",
        "obs.forensics.slices_changed_ratio": "ratio",
        "obs.forensics.incidents": "count",
        "obs.forensics.findings": "count",
        "obs.log.events": "count",
        "gpu.cache_accesses": "count",
        "graph.edges": "count",
        "graph.levels": "count",
    })
    for route in ROUTES:
        units[f"serve.route.{route}_p50_ms"] = "ms"
    for layer in LAYERS:
        units[f"layer.{layer}.busy_s"] = "s"
        units[f"layer.{layer}.self_s"] = "s"
        units[f"layer.{layer}.calls"] = "count"
    units["trace.pass_s"] = "s"
    units["trace.unaccounted_share"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


class Counters:
    """Counts taken at the wrapped boundaries during traced passes."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.reset()

    def reset(self) -> None:
        self.rows = 0
        self.windows = 0
        self.window_samples = 0
        self.accesses = 0
        self.edges = 0
        self.levels = 0
        self.slices = 0
        self.slices_changed = 0
        self.prerendered = 0
        self.prerender_used = 0
        self._prev_slices = {}
        self._served = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()

    def hooks(self) -> dict:
        return {
            "telemetry.render": self._render,
            "stream.push": self._sealed,
            "stream.flush": self._sealed,
            "gpu.access_lines": self._access,
            "graph.louvain": self._louvain,
            "obs.forensics.serve_doc": self._serve_doc,
            "serve.prerender": self._prerender,
            "serve.body": self._body,
        }

    def _render(self, args, chunk) -> None:
        self.rows += len(chunk.time_s)

    def _sealed(self, args, windows) -> None:
        self.windows += len(windows)
        self.window_samples += sum(
            w.gpu_power_w.size for w in windows
        )

    def _access(self, args, hits) -> None:
        self.accesses += len(args[1])

    def _louvain(self, args, result) -> None:
        self.edges += args[0].n_edges
        self.levels += len(result.passes)

    def _serve_doc(self, args, doc) -> None:
        current = {}
        for kind in ("records_by_id", "logs_by_id"):
            for incident, piece in doc.get(kind, {}).items():
                current[(kind, incident)] = piece
        self.slices += len(current)
        self.slices_changed += sum(
            1 for key, piece in current.items()
            if self._prev_slices.get(key) != piece
        )
        self._prev_slices = current

    def _prerender(self, args, view) -> None:
        self.prerendered += len(HOT_ROUTES)
        with self._lock:
            self._served[view] = set()

    def _body(self, args, result) -> None:
        # Bodies built by prerender itself are not reads.
        if self.tracer.current() == "serve.prerender":
            return
        view, route = args[0], args[1]
        with self._lock:
            served = self._served.get(view)
            if (served is not None and route in HOT_ROUTES
                    and route not in served):
                served.add(route)
                self.prerender_used += 1


def make_patches(tracer: Tracer, counters: Counters) -> Patches:
    return Patches(tracer, TARGETS, hooks=counters.hooks(),
                   request_roots=(REQUEST_ROOT,))


def pass_metrics(spans, result, counters: Counters) -> dict:
    """Per-layer metric values of one traced pass."""
    pass_s = result.pass_s
    spans = [s for s in spans if s.start >= result.t0]
    out = {name: busy(spans, *names) for name, names in BUSY.items()}
    counts = result.counts
    # Request-path work: spans on a request, less bodies that a POST's
    # republish prerendered.
    prerenders = {s.sid for s in spans if s.name == "serve.prerender"}
    reads = [s for s in spans
             if s.req_id is not None and s.parent not in prerenders]
    out.update({
        "telemetry.rows": counters.rows,
        "stream.windows": counters.windows,
        "stream.samples_folded": counters.window_samples,
        "serve.publishes": sum(1 for s in spans if s.name == "serve.publish"),
        "serve.body_s": busy(reads, "serve.body"),
        "serve.wire_ms": 1e3 * _wire_s(reads, result.data.get("sent", [])),
        "serve.policy_post_ms": (
            1e3 * median(result.data["post"]) if result.data.get("post")
            else 0.0
        ),
        "serve.prerender_used_ratio": (
            counters.prerender_used / counters.prerendered
            if counters.prerendered else 0.0
        ),
        "obs.forensics.slices_rendered": counters.slices,
        "obs.forensics.slices_changed_ratio": (
            counters.slices_changed / counters.slices
            if counters.slices else 0.0
        ),
        "obs.forensics.incidents": counts.get("incidents", 0),
        "obs.forensics.findings": counts.get("findings", 0),
        "obs.log.events": sum(1 for s in spans if s.name == "obs.log.emit"),
        "gpu.cache_accesses": counters.accesses,
        "graph.edges": counters.edges,
        "graph.levels": counters.levels,
    })
    rtt = result.data.get("rtt", {})
    for route in ROUTES:
        samples = rtt.get(route)
        out[f"serve.route.{route}_p50_ms"] = (
            1e3 * median(samples) if samples else 0.0
        )
    layers, unaccounted = layer_times(spans, pass_s)
    for layer in LAYERS:
        got = layers.get(layer, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
        out[f"layer.{layer}.busy_s"] = got["busy_s"]
        out[f"layer.{layer}.self_s"] = got["self_s"]
        out[f"layer.{layer}.calls"] = got["calls"]
    out["trace.pass_s"] = pass_s
    out["trace.unaccounted_share"] = unaccounted
    return out


def _wire_s(reads, sent) -> float:
    """Median client round trip less server body and meter time."""
    if not sent:
        return 0.0
    server = {}
    for s in reads:
        if s.name in ("serve.body", "serve.meter"):
            server[s.req_id] = server.get(s.req_id, 0.0) + s.duration
    return median([rtt - server.get(i, 0.0) for i, rtt in enumerate(sent)])
