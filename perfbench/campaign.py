"""``campaign_project``: the paper's batch path, as an analyst reruns it.

One pass simulates the scheduler, renders fleet telemetry in node
blocks, folds it into the campaign cube (``join_campaign``), and derives
Table IV (``decompose_modes``), Table V for both knobs under measured
and paper factors (``project_savings``) and Table VI
(``table6_selection``), at the ``repro run`` default of 96 nodes x 4
days.  Calls go through module attributes so a traced run sees them.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro import constants, core, units
from repro.core import characterization, heatmap
from repro.scheduler import SlurmSimulator, default_mix
from repro.telemetry import FleetTelemetryGenerator

from harness import median
from passes import PassResult, timed

NODES = 96
DAYS = 4.0
NODES_PER_CHUNK = 16
CAMPAIGN_MWH = constants.CAMPAIGN_GPU_ENERGY_MWH
#: Region lower edges, restated here for the independent energy tally.
REGION_EDGES_W = (200.0, 420.0, 560.0)


class CampaignProject:
    name = "campaign_project"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.factors = {
            (source, knob): factory(knob)
            for source, factory in (
                ("measured", characterization.measured_factors),
                ("paper", characterization.paper_factors),
            )
            for knob in ("frequency", "power")
        }
        self.last = None

    def run_pass(self, start) -> PassResult:
        t0 = start()
        # A fresh mix per pass: WorkloadMix.sample_request keeps state,
        # so a reused mix schedules a different campaign for one seed.
        mix = default_mix(fleet_nodes=NODES)
        log = SlurmSimulator(mix).run(units.days(DAYS), rng=self.seed)
        gen = FleetTelemetryGenerator(log, mix, seed=self.seed + 1000)
        # The unit operation is one node's telemetry render.
        renders = []
        node_chunk = gen.node_chunk
        gen.node_chunk = lambda node_id: timed(renders, node_chunk, node_id)
        cube = core.join_campaign(
            gen.chunks(nodes_per_chunk=NODES_PER_CHUNK), log
        )
        table4 = core.decompose_modes(cube)
        table5 = {
            key: core.project_savings(
                cube, f, campaign_energy_mwh=CAMPAIGN_MWH
            )
            for key, f in self.factors.items()
        }
        table6 = {}
        for source in ("measured", "paper"):
            f = self.factors[(source, "frequency")]
            selected, domains = heatmap.table6_selection(cube, f)
            table6[source] = (domains, core.project_savings(
                selected, f, campaign_energy_mwh=CAMPAIGN_MWH,
                reference_cube=cube,
            ))
        pass_s = time.perf_counter() - t0
        del gen.node_chunk

        samples = int(round(cube.gpu_hours.sum() * 3600.0 / cube.interval_s))
        n_chunks = -(-NODES // NODES_PER_CHUNK)
        self.last = (log, gen, cube, table4, table5, table6)
        return PassResult(
            t0=t0,
            pass_s=pass_s,
            ops=n_chunks + 1,  # node-block folds + one projection stage
            counts={
                "jobs": len(log.jobs),
                "gpu_samples_folded": samples,
                "table5_rows": sum(len(t.rows) for t in table5.values()),
                "table6_domains": sum(len(d) for d, _ in table6.values()),
            },
            op_latencies=renders,
            data={"samples": samples},
        )

    op_name = "one node's telemetry render"

    def info(self, passes) -> dict:
        return {"samples_per_s": median(
            [p.data["samples"] / p.pass_s for p in passes])}

    def verify(self) -> list:
        """Check the last pass against sums made apart from the program."""
        log, gen, cube, table4, table5, table6 = self.last
        failures = []
        samples = 0
        region_j = np.zeros(4)
        for chunk in gen.chunks(nodes_per_chunk=NODES_PER_CHUNK):
            p = chunk.gpu_power_w.astype(np.float64).ravel()
            region = sum((p >= edge).astype(np.int64)
                         for edge in REGION_EDGES_W)
            region_j += np.bincount(region, weights=p, minlength=4)
            samples += p.size
        region_j *= cube.interval_s
        total_j = float(region_j.sum())

        want_hours = samples * cube.interval_s / 3600.0
        if not math.isclose(cube.total_gpu_hours, want_hours, rel_tol=1e-9):
            failures.append(f"GPU-hours {cube.total_gpu_hours} != "
                            f"{samples} samples x 15 s = {want_hours}")
        if not math.isclose(cube.total_energy_j, total_j, rel_tol=1e-9):
            failures.append(f"total energy {cube.total_energy_j} != "
                            f"independent sum {total_j}")
        got_region = cube.region_energy_j()
        for r in range(4):
            if not math.isclose(got_region[r], region_j[r], rel_tol=1e-9,
                                abs_tol=1e-9 * total_j):
                failures.append(f"region {r} energy {got_region[r]} != "
                                f"independent sum {region_j[r]}")

        share_mi = region_j[1] / total_j
        share_ci = region_j[2] / total_j
        for (source, knob), table in table5.items():
            factors = self.factors[(source, knob)]
            for row in table.rows:
                f_ci, f_mi = factors.energy_at(row.cap)
                want_ci = CAMPAIGN_MWH * share_ci * (1.0 - f_ci)
                want_mi = CAMPAIGN_MWH * share_mi * (1.0 - f_mi)
                tag = f"Table V {source}/{knob} cap {row.cap:g}"
                if not math.isclose(row.total_mwh, row.ci_mwh + row.mi_mwh,
                                    rel_tol=1e-12, abs_tol=1e-9):
                    failures.append(f"{tag}: T.S. != C.I. + M.I.")
                for label, got, want in (("C.I.", row.ci_mwh, want_ci),
                                         ("M.I.", row.mi_mwh, want_mi)):
                    if not math.isclose(got, want, rel_tol=1e-9,
                                        abs_tol=1e-9 * CAMPAIGN_MWH):
                        failures.append(f"{tag}: {label} {got} != {want}")
        shares = sum(row.energy_pct for row in table4.rows)
        if not math.isclose(shares, 100.0, rel_tol=1e-9):
            failures.append(f"Table IV energy shares sum to {shares}")
        return failures
