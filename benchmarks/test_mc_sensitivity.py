"""Extension benchmark: sensitivity to the number of memory controllers.

Section III's motivation in one experiment.  With a single controller
there is no cross-controller ordering problem, so conservative flushing
loses little; every added controller widens the window in which one
controller's acknowledgement stalls another's work.  ASAP's eager
flushing keeps all controllers busy, so its advantage over HOPS should
*grow* with the controller count -- the premise on which the whole design
rests.

(The paper fixes 2 MCs to match Xeon platforms; this sweep checks the
trend its argument predicts.)
"""

import pytest

from repro.analysis.report import render_table

from benchmarks.plan import MC_COUNTS, PAPER


def run_mc_sweep():
    rows = []
    advantage = {}
    for num_mcs in MC_COUNTS:
        result = PAPER.sweep(f"ext_mc_sensitivity/{num_mcs}")
        for workload in ("bandwidth", "dash_eh"):
            hops = result.runtime(workload, "hops")
            asap = result.runtime(workload, "asap")
            advantage[(workload, num_mcs)] = hops / asap
            rows.append(
                [workload, num_mcs, hops, asap, f"{hops / asap:.2f}"]
            )
    table = render_table(
        ["workload", "MCs", "HOPS (cyc)", "ASAP (cyc)", "ASAP speedup"],
        rows,
        title="Extension: memory-controller count sensitivity (4 threads)",
    )
    return table, advantage


def test_mc_count_sensitivity(benchmark, record):
    table, advantage = benchmark.pedantic(run_mc_sweep, rounds=1, iterations=1)
    record("ext_mc_sensitivity", table)

    # The paper's premise: the multi-controller ordering problem is what
    # ASAP solves, so its advantage grows with controller count on the
    # workload whose writes actually span controllers.
    assert advantage[("bandwidth", 2)] > advantage[("bandwidth", 1)]
    assert advantage[("bandwidth", 4)] > advantage[("bandwidth", 2)]
    assert advantage[("bandwidth", 4)] > advantage[("bandwidth", 1)] * 1.3
    # Counterpoint: a structure whose hot set fits in a couple of
    # interleave granules is insensitive to the controller count -- the
    # controller sweep only matters when data spans controllers, which is
    # precisely Section III's interleaving argument.
    assert advantage[("dash_eh", 4)] == pytest.approx(
        advantage[("dash_eh", 1)], rel=0.10
    )
