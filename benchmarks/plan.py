"""The reproduction's plan: every grid a figure benchmark runs, by name.

Each driver in ``benchmarks/test_*.py`` asks :data:`PAPER` for its grid
by name (``PAPER.sweep("fig08")``) instead of running it itself.  The
declarations below are the only place a figure's cells are spelled out,
so the grids the figures share -- Figs. 2, 3, 9 and 11 re-read Fig. 8's
4-core runs, and the sweeps' default points re-read each other -- are
simulated once per pass.  Adding a figure means adding its grid here.

``REPRO_BENCH_JOBS=4`` fans the missing cells out over worker processes
(unset/0/1 keeps them serial); ``REPRO_BENCH_CACHE=DIR`` serves cells
from an on-disk result cache across runs.
"""

from __future__ import annotations

import os
from typing import Dict

from repro.core.models import STANDARD_MODELS, ModelSpec
from repro.exp import ExperimentPlan, SharedPlan
from repro.sim.config import HardwareModel, MachineConfig, PersistencyModel
from repro.workloads import SUITE
from repro.workloads.dash import DashEH
from repro.workloads.microbench import BandwidthMicrobench
from repro.workloads.whisper import Nstore

BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "0")) or None
BENCH_CACHE = os.environ.get("REPRO_BENCH_CACHE") or None

#: The paper's evaluation machine: 4 cores, 2 memory controllers.
FIGURE_CORES = 4

#: Operations per thread used by the figure sweeps.  Large enough to
#: reach buffer steady state (the calibration analysis showed transients
#: die out after ~30-50 ops), small enough to keep the whole harness at a
#: few minutes.
FIGURE_OPS = 150

#: Fig. 10: thread counts, and ops per thread (total work grows with
#: threads as in the paper).
SCALING_CORES = (1, 2, 4, 8)
SCALING_OPS = 100

#: Fig. 12: thread counts.
RT_THREADS = (4, 8)

#: Fig. 13: the bandwidth microbenchmark's shape.  eADR is omitted: with
#: battery-backed caches the benchmark issues no flush traffic at all, so
#: "delivered persist bandwidth" is undefined.
BANDWIDTH_OPS = 300
BANDWIDTH_THREADS = 4
BANDWIDTH_MODELS = ["baseline", "hops", "asap"]

#: Ablation sweeps (see test_ablations.py / test_buffer_sweeps.py).
RT_ENTRIES = (0, 4, 8, 16, 32, 64)
NVM_WRITE_SCALES = ((2.0, "0.5x bw"), (1.0, "1x bw"), (0.5, "2x bw"),
                    (0.25, "4x bw"))
BUFFER_OPS = 120
PB_ENTRIES = (4, 8, 16, 32, 64)
WPQ_ENTRIES = (4, 8, 16, 32)
POLL_INTERVALS = (100, 250, 500, 1000, 2000)

#: Extensions (test_energy.py, test_mc_sensitivity.py,
#: test_vorpal_comparison.py).
ENERGY_MODELS = ["baseline", "hops", "asap"]
MC_COUNTS = (1, 2, 4)
VORPAL_MODELS = ["baseline", "hops", "vorpal", "asap"]
BROADCAST_PERIODS = (50, 100, 250, 500, 1000, 2000)


def declare() -> Dict[str, ExperimentPlan]:
    """Every figure's grid, by figure (and sub-grid) name."""
    grid = ExperimentPlan.grid
    quad = MachineConfig(num_cores=FIGURE_CORES)
    bandwidth = [BandwidthMicrobench]
    no_undo = ModelSpec("no_undo", HardwareModel.ASAP_NO_UNDO,
                        PersistencyModel.RELEASE)
    grids = {
        "fig02": grid(SUITE, ["asap_rp"], quad, FIGURE_OPS),
        "fig03": grid(SUITE, ["hops_rp"], quad, FIGURE_OPS),
        "fig08": grid(SUITE, STANDARD_MODELS, quad, FIGURE_OPS),
        "fig09": grid(SUITE, ["hops", "asap"], quad, FIGURE_OPS),
        "fig11": grid(SUITE, ["hops", "asap"], quad, FIGURE_OPS),
        "fig13": grid(bandwidth, BANDWIDTH_MODELS,
                      MachineConfig(num_cores=BANDWIDTH_THREADS),
                      BANDWIDTH_OPS),
        "ablation_rt_size/hops": grid([DashEH], ["hops"], quad, FIGURE_OPS),
        "ablation_no_undo": grid([Nstore, DashEH], ["asap", no_undo], quad,
                                 FIGURE_OPS),
        "ext_energy": grid(SUITE, ENERGY_MODELS, quad, FIGURE_OPS),
        "ext_vorpal_suite": grid(SUITE, VORPAL_MODELS, quad, 100),
        "ext_vorpal_broadcast/asap": grid(bandwidth, ["asap"], quad, 150),
    }
    for cores in SCALING_CORES:
        grids[f"fig10/{cores}T"] = grid(
            SUITE, ["hops", "asap"], MachineConfig(num_cores=cores),
            SCALING_OPS,
        )
    for threads in RT_THREADS:
        grids[f"fig12/{threads}T"] = grid(
            SUITE, ["asap"], MachineConfig(num_cores=threads), FIGURE_OPS
        )
    for entries in RT_ENTRIES:
        grids[f"ablation_rt_size/{entries}"] = grid(
            [DashEH], ["asap"], MachineConfig(num_cores=4, rt_entries=entries),
            FIGURE_OPS,
        )
    for scale, label in NVM_WRITE_SCALES:
        grids[f"ablation_nvm_bw/{label}"] = grid(
            bandwidth, ["hops", "asap"], quad.scaled_nvm_write(scale), 150
        )
    for entries in PB_ENTRIES:
        grids[f"ablation_pb_size/{entries}"] = grid(
            [DashEH], ["hops", "asap"],
            MachineConfig(num_cores=4, pb_entries=entries), BUFFER_OPS,
        )
    for entries in WPQ_ENTRIES:
        grids[f"ablation_wpq_size/{entries}"] = grid(
            [DashEH], ["asap"], MachineConfig(num_cores=4, wpq_entries=entries),
            BUFFER_OPS,
        )
    for interval in POLL_INTERVALS:
        grids[f"ablation_poll_interval/{interval}"] = grid(
            [DashEH], ["hops"],
            MachineConfig(num_cores=4, hops_poll_interval_cycles=interval),
            BUFFER_OPS,
        )
    for mcs in MC_COUNTS:
        grids[f"ext_mc_sensitivity/{mcs}"] = grid(
            [BandwidthMicrobench, DashEH], ["hops", "asap"],
            MachineConfig(num_cores=4, num_mcs=mcs), 150,
        )
    for period in BROADCAST_PERIODS:
        grids[f"ext_vorpal_broadcast/{period}"] = grid(
            bandwidth, ["vorpal"],
            MachineConfig(num_cores=4, vorpal_broadcast_cycles=period), 150,
        )
    return grids


#: The reproduction's one plan; every driver reads its grids from here.
PAPER = SharedPlan(declare, jobs=BENCH_JOBS, cache=BENCH_CACHE)
