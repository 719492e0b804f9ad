"""Figure 9: number of PM write operations, ASAP normalized to HOPS.

Buffering plus ASAP's controller-side mechanisms (absorbing stale safe
flushes into undo records, coalescing in delay records and in the WPQ)
reduce PM writes for most workloads; a few (the paper names Memcached,
Vacation, P-ART) benefit more from HOPS's conservative flushing keeping
writes in the PB longer.  ASAP pays for its undo records with ~5.3% more
PM reads on average.
"""

from repro.analysis.report import render_table

from benchmarks.conftest import geomean
from benchmarks.plan import PAPER


def run_figure9():
    result = PAPER.sweep("fig09")
    rows, write_ratios, read_ratios = [], [], []
    for name in result.workloads:
        hops_writes = result.stat(name, "hops", "pm_writes")
        asap_writes = result.stat(name, "asap", "pm_writes")
        hops_reads = result.stat(name, "hops", "pm_reads")
        asap_reads = result.stat(name, "asap", "pm_reads")
        write_ratio = asap_writes / max(1, hops_writes)
        read_delta = (asap_reads - hops_reads) / max(1, hops_writes)
        write_ratios.append(write_ratio)
        read_ratios.append(read_delta)
        rows.append(
            [name, hops_writes, asap_writes, f"{write_ratio:.2f}",
             f"{100 * read_delta:.1f}%"]
        )
    mean_ratio = geomean(write_ratios)
    mean_reads = sum(read_ratios) / len(read_ratios)
    rows.append(["geomean", "", "", f"{mean_ratio:.2f}", f"{100 * mean_reads:.1f}%"])
    table = render_table(
        ["workload", "HOPS writes", "ASAP writes", "ASAP/HOPS",
         "extra media reads"],
        rows,
        title=(
            "Figure 9: PM write operations normalized to HOPS "
            "(paper: ASAP mostly <= HOPS; PM reads +5.3%)"
        ),
    )
    return table, write_ratios, mean_ratio, read_ratios


def test_fig09_pm_write_operations(benchmark, record):
    table, ratios, mean_ratio, read_deltas = benchmark.pedantic(
        run_figure9, rounds=1, iterations=1
    )
    record("fig09_writes", table)

    # ASAP's write count matches-or-beats HOPS overall: speculation does
    # not cost write endurance.  (The paper sees a mild net decrease from
    # WPQ-queueing coalescing; our faster controller model drains the WPQ
    # before concurrent flushes can merge, so the ratio centres on 1.0 --
    # recorded as a documented deviation in EXPERIMENTS.md.)
    assert 0.85 < mean_ratio < 1.05
    assert sum(1 for r in ratios if r <= 1.02) >= len(ratios) // 2

    # ASAP reads more than HOPS (undo-record creation), but the XPBuffer
    # absorbs most of them: extra *media* reads stay in the single-digit
    # percent range of PM writes, matching the paper's +5.3%.
    assert sum(read_deltas) >= 0
    assert max(read_deltas) < 0.15
