"""``characterize``: the paper's single-GCD characterization.

One pass computes Table III for both knobs (VAI and the memory benchmark
on the GPU model), simulates the Fig 3 cyclic access pattern under LRU
and random replacement over the Fig 3 working-set ratios, runs Louvain on
the ``paper_suite`` road and social graphs, and replays each Louvain run
on the device at every Fig 7 frequency cap (and, for the road network,
every Fig 7 power cap).  The graphs and the cache are scaled down from
the paper's so one pass takes seconds, not minutes.
"""

from __future__ import annotations

import math
import time

from repro import graph as graph_pkg
from repro import units
from repro.bench import tables
from repro.gpu import GPUDevice, cachesim
from repro.graph import generators, gpu_louvain

from passes import PassResult, timed

#: Fig 7 network sizes relative to the paper (road network ~16 K edges).
GRAPH_SCALE = 0.002
#: Simulated cache capacity (the Fig 3 experiment uses 512 KiB).
CACHE_BYTES = 64 * 1024
#: Working set / capacity, as in Fig 3.
RATIOS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 3.0)
#: ``cyclic_hit_rate`` default: rounds streamed per call.
CACHE_ROUNDS = 8
FREQ_CAPS_MHZ = (1700, 1300, 1100, 900, 700, 500)
ROAD_POWER_CAPS_W = (220, 180, 140)
KNOBS = ("frequency", "power")


def _device(mhz: int) -> GPUDevice:
    if mhz == FREQ_CAPS_MHZ[0]:
        return GPUDevice()
    return GPUDevice(frequency_cap_hz=units.mhz(mhz))


class Characterize:
    name = "characterize"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.suite = generators.paper_suite(scale=GRAPH_SCALE, rng=seed)
        self.geometry = cachesim.CacheGeometry(capacity_bytes=CACHE_BYTES)
        self.last = None

    def run_pass(self, start) -> PassResult:
        calls = []  # the unit operation is one characterization call
        t0 = start()
        table3 = {knob: timed(calls, tables.compute_table3, knob=knob)
                  for knob in KNOBS}
        hits = {
            policy: [
                timed(calls, cachesim.cyclic_hit_rate,
                      self.geometry, int(r * CACHE_BYTES), policy=policy,
                      rounds=CACHE_ROUNDS, rng=self.seed)
                for r in RATIOS
            ]
            for policy in ("lru", "random")
        }
        graphs = []
        for named in self.suite:
            lv = timed(calls, graph_pkg.louvain, named.graph)
            devices = [_device(mhz) for mhz in FREQ_CAPS_MHZ]
            if named.kind == "road":
                devices += [GPUDevice(power_cap_w=cap)
                            for cap in ROAD_POWER_CAPS_W]
            runs = [
                timed(calls, gpu_louvain.GPULouvainRunner(device).run,
                      named.graph, precomputed=lv)
                for device in devices
            ]
            graphs.append((named, lv, runs[:len(FREQ_CAPS_MHZ)],
                           runs[len(FREQ_CAPS_MHZ):]))
        pass_s = time.perf_counter() - t0

        line = self.geometry.line_bytes
        runs = sum(len(f) + len(p) for _, _, f, p in graphs)
        self.last = (table3, hits, graphs)
        return PassResult(
            t0=t0,
            pass_s=pass_s,
            ops=len(calls),
            counts={
                "table3_rows": sum(len(t.rows) for t in table3.values()),
                "cache_lines_simulated": 2 * CACHE_ROUNDS * sum(
                    max(1, int(r * CACHE_BYTES) // line) for r in RATIOS
                ),
                "graph_edges": sum(n.graph.n_edges for n, *_ in graphs),
                "louvain_levels": sum(len(lv.passes) for _, lv, *_ in graphs),
                "louvain_sweeps": sum(
                    p.sweeps for _, lv, *_ in graphs for p in lv.passes
                ),
                "device_runs": runs,
            },
            op_latencies=calls,
        )

    op_name = "one characterization call"

    def info(self, passes) -> dict:
        return {}

    def verify(self) -> list:
        table3, hits, graphs = self.last
        failures = []
        for knob, table in table3.items():
            top = table.rows[0]
            values = (top.vai_power_pct, top.vai_runtime_pct,
                      top.vai_energy_pct, top.mb_power_pct,
                      top.mb_runtime_pct, top.mb_energy_pct)
            if any(v != 100.0 for v in values):
                failures.append(f"Table III {knob} uncapped row {values}")
        for ratio, rate in zip(RATIOS, hits["lru"]):
            want = 1.0 if ratio <= 1.0 else 0.0
            if rate != want:
                failures.append(f"LRU hit rate {rate} at ws/C {ratio}")
        rnd = hits["random"]
        for i in range(1, len(rnd)):
            if rnd[i] > rnd[i - 1]:
                failures.append(
                    f"random-replacement hit rate rises from {rnd[i - 1]} "
                    f"to {rnd[i]} at ws/C {RATIOS[i]}"
                )
        for named, lv, freq, _power in graphs:
            failures += partition_failures(named.name, named.graph, lv)
            q = textbook_modularity(named.graph, lv.communities)
            if not math.isclose(q, lv.modularity, rel_tol=0, abs_tol=1e-9):
                failures.append(f"{named.name}: modularity {lv.modularity} "
                                f"!= recomputed {q}")
            times = [r.total_time_s for r in freq]
            for i in range(1, len(times)):
                if times[i] < times[i - 1]:
                    failures.append(
                        f"{named.name}: runtime falls from {times[i - 1]} s "
                        f"to {times[i]} s at {FREQ_CAPS_MHZ[i]} MHz"
                    )
        return failures


def partition_failures(name: str, graph, lv) -> list:
    comm = [int(c) for c in lv.communities]
    if len(comm) != graph.n_vertices:
        return [f"{name}: {len(comm)} labels for {graph.n_vertices} vertices"]
    used = set(comm)
    if used != set(range(len(used))):
        return [f"{name}: community ids are not 0..{len(used) - 1}"]
    return []


def textbook_modularity(graph, communities) -> float:
    """Q = sum_c [in_c / 2m - (tot_c / 2m)^2], by a plain loop over the
    CSR adjacency (both directions of each edge are stored)."""
    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    weights = graph.weights.tolist()
    comm = communities.tolist()
    inside = {}
    total = {}
    two_m = 0.0
    for u in range(len(indptr) - 1):
        cu = comm[u]
        for e in range(indptr[u], indptr[u + 1]):
            w = weights[e]
            two_m += w
            total[cu] = total.get(cu, 0.0) + w
            if comm[indices[e]] == cu:
                inside[cu] = inside.get(cu, 0.0) + w
    return sum(inside.get(c, 0.0) / two_m - (t / two_m) ** 2
               for c, t in total.items())
