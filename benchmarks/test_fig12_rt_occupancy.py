"""Figure 12: recovery-table maximum occupancy at 4 and 8 threads.

The RT is the structure speculation lives in, so its footprint decides
ASAP's hardware cost.  The paper's findings: max occupancy is modest, it
barely grows from 4 to 8 threads, and Nstore is the exception that
occasionally fills the table and triggers NACKs -- without losing to
HOPS, because the persist buffers keep flushing conservatively.
"""

from repro.analysis.report import render_table
from repro.workloads import SUITE

from benchmarks.plan import PAPER, RT_THREADS


def run_figure12():
    occupancy = {}
    nacks = {}
    for threads in RT_THREADS:
        result = PAPER.sweep(f"fig12/{threads}T")
        for name in result.workloads:
            run = result.runs[(name, "asap")]
            machine_rts = run.result.stats.weighted_stats("rt_occupancy")
            occupancy[(name, threads)] = max(
                s.max_observed() for s in machine_rts
            )
            nacks[(name, threads)] = run.result.stats.total("flushes_nacked")
    rows = [
        [name, occupancy[(name, 4)], occupancy[(name, 8)],
         nacks[(name, 4)], nacks[(name, 8)]]
        for name in [w.name for w in SUITE]
    ]
    table = render_table(
        ["workload", "max occ @4T", "max occ @8T", "NACKs @4T", "NACKs @8T"],
        rows,
        title="Figure 12: recovery table max occupancy (32 entries per MC)",
    )
    return table, occupancy, nacks


def test_fig12_rt_occupancy(benchmark, record):
    table, occupancy, nacks = benchmark.pedantic(
        run_figure12, rounds=1, iterations=1
    )
    record("fig12_rt_occupancy", table)

    workloads = [w.name for w in SUITE]
    # Occupancy stays within the 32-entry table for everything.
    assert max(occupancy.values()) <= 32
    # The average max-occupancy grows only mildly from 4 to 8 threads.
    avg4 = sum(occupancy[(w, 4)] for w in workloads) / len(workloads)
    avg8 = sum(occupancy[(w, 8)] for w in workloads) / len(workloads)
    assert avg8 <= avg4 * 2.0
    # A small table suffices: most workloads use well under half of it.
    assert sum(1 for w in workloads if occupancy[(w, 8)] <= 16) >= len(workloads) // 2
