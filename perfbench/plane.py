"""``plane_ingest`` and ``cap_poll``: the control plane's write and read paths.

Both workloads share one input: a 32-node x 1-day campaign rendered once
with ``FleetTelemetryGenerator.generate()`` and cut into time-ordered
20-tick arrival chunks by ``stream.sources.replay_store``.  The plane is
the full stack: a ``HealthMonitor`` with the paper's drift reference,
the flight recorder (``Forensics``), an in-memory ``History`` and an
``EventLog``.

* ``plane_ingest`` builds a fresh plane per pass and ingests the whole
  campaign chunk by chunk (every fold publishes), then drains.  No HTTP.
* ``cap_poll`` pre-loads a fresh plane with the first half of the
  campaign, serves ``/v1`` to one persistent HTTP/1.1 connection driven
  closed-loop from this thread, and ingests the second half in the same
  thread between fixed batches of requests, rotating the objective with
  a ``POST /v1/policy`` every few chunks.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import numpy as np

from repro import constants, core, units
from repro.obs.health import DriftReference, HealthMonitor
from repro.obs.history import History
from repro.obs.log import EventLog
from repro.scheduler import SlurmSimulator, default_mix
from repro.serve import ControlPlane
from repro.serve import objectives
from repro.stream import sources
from repro.telemetry import FleetTelemetryGenerator

from harness import median
from passes import PassResult

NODES = 32
DAYS = 1.0
CHUNK_TICKS = sources.DEFAULT_CHUNK_TICKS
#: The scheduler log is the same for every seed; ``--seed`` draws the
#: telemetry.  Across scheduler seeds the incident count (which sets
#: the per-publish cost) swings from 14 to 32, across telemetry seeds
#: on one log from 24 to 29.
SCHEDULE_SEED = 0
#: Arrival chunks compared bitwise against ``replay_generator`` (the
#: re-rendering source ``simulated_fleet`` returns).
REPLAY_CHECK_CHUNKS = 2

#: cap_poll: GET routes of one batch, in order (10 of 16 are the cap).
ROUTE_BATCH = (
    ("cap", "/v1/fleet/cap"),
    ("cap", "/v1/fleet/cap"),
    ("savings", "/v1/fleet/savings"),
    ("cap", "/v1/fleet/cap"),
    ("cap", "/v1/fleet/cap"),
    ("policy", "/v1/policy"),
    ("cap", "/v1/fleet/cap"),
    ("jobs", "/v1/jobs?limit=20"),
    ("cap", "/v1/fleet/cap"),
    ("incidents", "/v1/incidents"),
    ("cap", "/v1/fleet/cap"),
    ("query", "/v1/query?series=energy_j&step=600"),
    ("cap", "/v1/fleet/cap"),
    ("logs", "/v1/logs?limit=50"),
    ("cap", "/v1/fleet/cap"),
    ("cap", "/v1/fleet/cap"),
)
ROUTES = ("cap", "savings", "policy", "jobs", "incidents", "query", "logs")
#: cap_poll: one POST /v1/policy after every this many ingested chunks.
POST_EVERY = 8
#: cap_poll: objectives the POSTs rotate through.
OBJECTIVES = ("energy", "edp", "ed2p", "slowdown")


def build_inputs(seed: int):
    """(scheduler log, materialized store, arrival chunks)."""
    mix = default_mix(fleet_nodes=NODES)
    log = SlurmSimulator(mix).run(units.days(DAYS), rng=SCHEDULE_SEED)
    gen = FleetTelemetryGenerator(log, mix, seed=seed + 1000)
    store = gen.generate()
    chunks = list(sources.replay_store(store, chunk_ticks=CHUNK_TICKS))
    return log, store, chunks


def new_plane(log) -> ControlPlane:
    """A fresh full-stack plane (every window sink attached)."""
    monitor = HealthMonitor(reference=DriftReference.paper())
    return ControlPlane(
        log,
        monitor=monitor,
        history=History(),
        event_log=EventLog(),
        campaign_energy_mwh=constants.CAMPAIGN_GPU_ENERGY_MWH,
    )


def plane_counts(plane: ControlPlane) -> dict:
    """Work counts read from the plane (totals since it was built)."""
    stats = plane.engine.stats
    return {
        "gpu_samples_folded": int(stats.samples_folded)
        * constants.GPUS_PER_NODE,
        "windows_sealed": int(stats.windows_folded),
        "views_published": int(plane.cache.version),
        "incidents": len(plane.forensics.incidents.incidents),
        "findings": int(plane.forensics.incidents.findings_total),
    }


def decision_failures(plane: ControlPlane, objective: str, got) -> list:
    """``got`` (a decision dict) against ``decide_cap`` on the final cube."""
    want = objectives.decide_cap(
        plane.engine.cube(copy=False).region_energy_j(),
        plane.factors,
        objective=objective,
        max_slowdown_pct=plane.policy.max_slowdown_pct,
    ).to_dict()
    # Compare as served: through the same JSON round trip.
    want = json.loads(json.dumps(want))
    if got != want:
        return [f"final cap decision {got} != decide_cap {want}"]
    return []


class PlaneIngest:
    name = "plane_ingest"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.log, self.store, self.chunks = build_inputs(seed)
        self.rows = sum(len(c.time_s) for c in self.chunks)
        self.last = None
        self.version_errors = 0

    def run_pass(self, start) -> PassResult:
        plane = new_plane(self.log)
        latencies = []
        version_errors = 0
        t0 = start()
        for chunk in self.chunks:
            before = plane.cache.version
            began = time.perf_counter()
            folded = plane.ingest(chunk)
            elapsed = time.perf_counter() - began
            if folded:
                latencies.append(elapsed)
            if plane.cache.version != before + (1 if folded else 0):
                version_errors += 1
        before = plane.cache.version
        plane.drain()
        if plane.cache.version != before + 1:
            version_errors += 1
        pass_s = time.perf_counter() - t0

        counts = plane_counts(plane)
        counts["log_events"] = int(plane.event_log.emitted)
        self.last = plane
        self.version_errors += version_errors
        return PassResult(
            t0=t0,
            pass_s=pass_s,
            ops=len(self.chunks) + 1,
            counts=counts,
            op_latencies=latencies,
            data={"samples": counts["gpu_samples_folded"]},
        )

    op_name = "ingest call that published"

    def info(self, passes) -> dict:
        return {"samples_per_s": median(
            [p.data["samples"] / p.pass_s for p in passes])}

    def verify(self) -> list:
        plane = self.last
        failures = []
        if self.version_errors:
            failures.append(
                f"{self.version_errors} publishes did not raise the version "
                f"by 1"
            )
        stats = plane.engine.stats
        if stats.samples_folded != self.rows or stats.samples_in != self.rows:
            failures.append(
                f"rows sent {self.rows}, received {stats.samples_in}, "
                f"folded {stats.samples_folded}"
            )
        window_s = plane.engine.buffer.window_s
        batch = core.join_campaign(
            sources.canonical_windows(self.store, window_s=window_s),
            self.log,
        )
        failures += cube_failures(plane.engine.cube(copy=False), batch)
        view = plane.cache.view
        failures += decision_failures(
            plane, view.policy["objective"],
            json.loads(json.dumps(view.decision.to_dict())),
        )
        failures += replay_failures(self.seed, self.chunks)
        return failures


def cube_failures(got, want) -> list:
    """Bitwise comparison of two campaign cubes."""
    failures = []
    pairs = [("energy_j", got.energy_j, want.energy_j),
             ("gpu_hours", got.gpu_hours, want.gpu_hours),
             ("histogram.counts", got.histogram.counts,
              want.histogram.counts),
             ("histogram.weight_sums", got.histogram.weight_sums,
              want.histogram.weight_sums)]
    for name in want.domain_histograms:
        g, w = got.domain_histograms[name], want.domain_histograms[name]
        pairs.append((f"{name}.counts", g.counts, w.counts))
        pairs.append((f"{name}.weight_sums", g.weight_sums, w.weight_sums))
    if got.domains != want.domains or got.classes != want.classes:
        failures.append("stream cube axes differ from the batch join")
    for name, a, b in pairs:
        if not np.array_equal(a, b):
            failures.append(f"stream cube {name} differs from the batch join")
    if got.cpu_energy_j != want.cpu_energy_j:
        failures.append("stream cube CPU energy differs from the batch join")
    return failures


def replay_failures(seed: int, chunks) -> list:
    """The first arrival chunks against ``replay_generator``, bitwise."""
    mix = default_mix(fleet_nodes=NODES)
    log = SlurmSimulator(mix).run(units.days(DAYS), rng=SCHEDULE_SEED)
    gen = FleetTelemetryGenerator(log, mix, seed=seed + 1000)
    live = sources.replay_generator(gen, chunk_ticks=CHUNK_TICKS)
    failures = []
    for i, (want, got) in enumerate(zip(live, chunks)):
        for col in ("time_s", "node_id", "gpu_power_w", "cpu_power_w"):
            a, b = getattr(got, col), getattr(want, col)
            if a.dtype != b.dtype or not np.array_equal(a, b):
                failures.append(
                    f"replayed chunk {i} column {col} differs from "
                    f"replay_generator"
                )
        if i + 1 >= REPLAY_CHECK_CHUNKS:
            break
    return failures


class CapPoll:
    name = "cap_poll"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.log, self.store, chunks = build_inputs(seed)
        half = len(chunks) // 2
        self.preload, self.rest = chunks[:half], chunks[half:]
        self.plane = self._preloaded()
        self.failures = []

    def _preloaded(self) -> ControlPlane:
        plane = new_plane(self.log)
        for chunk in self.preload:
            plane.ingest(chunk)
        return plane

    def run_pass(self, start) -> PassResult:
        # The first pass uses the plane set-up built; later passes
        # pre-load their own before the timed part starts.
        plane = self.plane if self.plane is not None else self._preloaded()
        self.plane = None
        server = plane.serve()
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=60)
        client = _Client(conn)
        try:
            t0 = start()
            for b, chunk in enumerate(self.rest):
                for route, path in ROUTE_BATCH:
                    client.get(route, path)
                plane.ingest(chunk)
                if (b + 1) % POST_EVERY == 0:
                    objective = OBJECTIVES[client.posts % len(OBJECTIVES)]
                    client.post_policy(objective)
                    doc = client.get("policy", "/v1/policy")
                    if doc is not None and \
                            doc["policy"]["objective"] != objective:
                        client.failures.append(
                            f"GET /v1/policy shows "
                            f"{doc['policy']['objective']!r} after POST "
                            f"{objective!r}"
                        )
            plane.drain()
            final = client.get("cap", "/v1/fleet/cap")
            pass_s = time.perf_counter() - t0
        finally:
            conn.close()
            plane.close()
            # Let the connection's handler thread finish its last request.
            for thread in threading.enumerate():
                if thread is not threading.current_thread():
                    thread.join(timeout=10.0)

        if final is not None:
            client.failures += decision_failures(
                plane, client.objective, final["decision"]
            )
        counts = plane_counts(plane)
        counts["requests"] = {r: len(client.rtt[r]) for r in ROUTES}
        counts["posts"] = client.posts
        self.failures += client.failures
        return PassResult(
            t0=t0,
            pass_s=pass_s,
            ops=client.attempted,
            counts=counts,
            failed=client.bad,
            op_latencies=client.gets,
            data={"rtt": client.rtt, "post": client.post_rtt,
                  "sent": client.sent},
        )

    op_name = "GET round trip"

    def info(self, passes) -> dict:
        return {"policy_post_ms": 1e3 * median(
            [median(p.data["post"]) for p in passes])}

    def verify(self) -> list:
        return list(self.failures)


class _Client:
    """Closed-loop client on one keep-alive connection, with checks."""

    def __init__(self, conn) -> None:
        self.conn = conn
        self.rtt = {r: [] for r in ROUTES}
        #: Round trip of every GET, in the order sent.
        self.gets = []
        self.post_rtt = []
        #: Round trip of every request, in the order sent.
        self.sent = []
        self.posts = 0
        self.objective = "slowdown"
        self.attempted = 0
        self.bad = 0
        self.failures = []
        self._version = 0

    def _send(self, method: str, path: str, body=None):
        self.attempted += 1
        headers = {"Content-Type": "application/json"} if body else {}
        start = time.perf_counter()
        self.conn.request(method, path, body=body, headers=headers)
        resp = self.conn.getresponse()
        payload = resp.read()
        elapsed = time.perf_counter() - start
        self.sent.append(elapsed)
        if resp.status != 200:
            self.bad += 1
            self.failures.append(f"{method} {path} answered {resp.status}")
            return elapsed, None
        try:
            doc = json.loads(payload)
        except ValueError:
            self.bad += 1
            self.failures.append(f"{method} {path} body does not parse")
            return elapsed, None
        version = doc.get("version")
        if version is not None:
            if version < self._version:
                self.failures.append(
                    f"{path} served version {version} after {self._version}"
                )
            self._version = max(self._version, version)
        return elapsed, doc

    def get(self, route: str, path: str):
        elapsed, doc = self._send("GET", path)
        self.rtt[route].append(elapsed)
        self.gets.append(elapsed)
        return doc

    def post_policy(self, objective: str) -> None:
        body = json.dumps({"objective": objective}).encode()
        elapsed, doc = self._send("POST", "/v1/policy", body)
        self.post_rtt.append(elapsed)
        self.posts += 1
        self.objective = objective
        if doc is not None and doc["policy"]["objective"] != objective:
            self.failures.append(
                f"POST /v1/policy answered {doc['policy']['objective']!r} "
                f"for {objective!r}"
            )
