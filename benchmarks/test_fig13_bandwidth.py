"""Figure 13: system write-bandwidth utilization.

The paper's microbenchmark: each thread issues 256-byte writes that
alternate across the two memory controllers, ordered with an ofence
between writes.  Conservative flushing (HOPS) stops and waits for one
controller's acknowledgement while the other idles; eager flushing
overlaps them.  The paper reports ASAP at roughly 2x HOPS.
"""

from repro.analysis.report import render_table
from repro.workloads.microbench import BandwidthMicrobench

from benchmarks.plan import (
    BANDWIDTH_MODELS as MODELS,
    BANDWIDTH_OPS as OPS,
    BANDWIDTH_THREADS as THREADS,
    PAPER,
)

CPU_GHZ = 2.0


def run_figure13():
    result = PAPER.sweep("fig13")
    total_bytes = BandwidthMicrobench(ops_per_thread=OPS).bytes_written(THREADS)
    bandwidth = {}
    rows = []
    for model in MODELS:
        cycles = result.runs[("bandwidth", model)].result.drain_cycles
        seconds = cycles / (CPU_GHZ * 1e9)
        gbps = total_bytes / seconds / 1e9
        bandwidth[model] = gbps
        rows.append([model, cycles, f"{gbps:.2f}"])
    table = render_table(
        ["model", "cycles", "GB/s"],
        rows,
        title=(
            "Figure 13: delivered write bandwidth, 256B ofence-ordered "
            "writes alternating across 2 MCs (paper: ASAP ~2x HOPS)"
        ),
    )
    return table, bandwidth


def test_fig13_bandwidth_utilization(benchmark, record):
    table, bandwidth = benchmark.pedantic(run_figure13, rounds=1, iterations=1)
    record("fig13_bandwidth", table)

    # ASAP roughly doubles HOPS's delivered bandwidth (the paper's claim).
    ratio = bandwidth["asap"] / bandwidth["hops"]
    assert 1.5 < ratio < 3.0, ratio

    # The baseline is no better than HOPS here (it stalls the core too).
    assert bandwidth["baseline"] <= bandwidth["hops"] * 1.05
