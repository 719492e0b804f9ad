"""Figure 11: persist-buffer occupancy, average and 99th percentile.

Because ASAP flushes eagerly, writes wait in the PB for less time, so
both the average and the p99 occupancy sit well below HOPS's -- the
paper uses this to argue ASAP would do fine with smaller buffers.
"""

from repro.analysis.report import render_table

from benchmarks.plan import PAPER


def run_figure11():
    result = PAPER.sweep("fig11")
    rows = []
    occupancy = {}
    for name in result.workloads:
        cells = [name]
        for model in ("hops", "asap"):
            stats = result.runs[(name, model)].result.stats
            pb_stats = stats.weighted_stats("pb_occupancy")
            mean = sum(s.mean() for s in pb_stats) / len(pb_stats)
            p99 = max(s.p99() for s in pb_stats)
            occupancy[(name, model)] = (mean, p99)
            cells += [f"{mean:.1f}", p99]
        rows.append(cells)
    table = render_table(
        ["workload", "HOPS avg", "HOPS p99", "ASAP avg", "ASAP p99"],
        rows,
        title="Figure 11: persist buffer occupancy (32 entries available)",
    )
    return table, occupancy


def test_fig11_pb_occupancy(benchmark, record):
    table, occupancy = benchmark.pedantic(run_figure11, rounds=1, iterations=1)
    record("fig11_pb_occupancy", table)

    workloads = sorted({name for name, _ in occupancy})
    # ASAP's mean occupancy is below HOPS's on (almost) every workload.
    lower = sum(
        1 for w in workloads
        if occupancy[(w, "asap")][0] <= occupancy[(w, "hops")][0] + 0.1
    )
    assert lower >= len(workloads) - 2

    # Averaged across the suite the gap is substantial.
    hops_mean = sum(occupancy[(w, "hops")][0] for w in workloads) / len(workloads)
    asap_mean = sum(occupancy[(w, "asap")][0] for w in workloads) / len(workloads)
    assert asap_mean < hops_mean * 0.7

    # ASAP's p99 stays comfortably within the 32-entry capacity.
    assert max(occupancy[(w, "asap")][1] for w in workloads) <= 32
