"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not figures from the paper, but experiments its text implies:

- **RT size sweep** (Section V-D): smaller recovery tables NACK more and
  fall back to conservative flushing; ASAP's performance should degrade
  gracefully toward HOPS, never below it.
- **NVM write-bandwidth sweep** (Section I/VII: ASAP "offers greater
  performance benefit with increasing NVM write bandwidth").
- **No-undo ablation**: eager flushing without recovery information is
  the unsound upper bound; real ASAP should be close to it in normal
  operation, which shows the recovery table is cheap.
"""

from repro.analysis.report import render_table
from repro.sim.config import HardwareModel, MachineConfig

from benchmarks.plan import NVM_WRITE_SCALES, PAPER, RT_ENTRIES


def run_rt_size_sweep():
    rows = []
    runtimes = {}
    for rt_entries in RT_ENTRIES:
        result = PAPER.sweep(f"ablation_rt_size/{rt_entries}")
        run = result.runs[("dash_eh", "asap")]
        runtimes[rt_entries] = run.runtime_cycles
        rows.append(
            [rt_entries, run.runtime_cycles,
             run.result.stats.total("flushes_nacked"),
             run.result.stats.total("totalUndo")]
        )
    hops = PAPER.sweep("ablation_rt_size/hops")
    hops_runtime = hops.runs[("dash_eh", "hops")].runtime_cycles
    rows.append(["HOPS", hops_runtime, "-", "-"])
    table = render_table(
        ["RT entries", "runtime (cyc)", "NACKs", "undo records"],
        rows,
        title="Ablation: recovery table size (dash_eh, 4 threads)",
    )
    return table, runtimes, hops_runtime


def test_ablation_rt_size(benchmark, record):
    table, runtimes, hops_runtime = benchmark.pedantic(
        run_rt_size_sweep, rounds=1, iterations=1
    )
    record("ablation_rt_size", table)
    # Bigger tables never hurt.
    assert runtimes[32] <= runtimes[4] * 1.05
    # Section V-D's promise: even a useless RT (size 0, pure conservative
    # fallback) keeps ASAP's performance from dropping below HOPS.
    assert runtimes[0] <= hops_runtime * 1.10


def run_nvm_bw_sweep():
    rows = []
    ratios = {}
    for _scale, label in NVM_WRITE_SCALES:
        result = PAPER.sweep(f"ablation_nvm_bw/{label}")
        hops = result.runtime("bandwidth", "hops")
        asap = result.runtime("bandwidth", "asap")
        ratios[label] = hops / asap
        rows.append([label, hops, asap, f"{hops / asap:.2f}"])
    table = render_table(
        ["NVM write bw", "HOPS (cyc)", "ASAP (cyc)", "ASAP speedup"],
        rows,
        title="Ablation: NVM write bandwidth (bandwidth microbenchmark)",
    )
    return table, ratios


def test_ablation_nvm_bandwidth(benchmark, record):
    table, ratios = benchmark.pedantic(run_nvm_bw_sweep, rounds=1, iterations=1)
    record("ablation_nvm_bw", table)
    # ASAP's advantage grows with device bandwidth (the ordering stalls
    # dominate once the media stops being the bottleneck).
    assert ratios["4x bw"] > ratios["0.5x bw"]


def run_strand_ablation():
    """Strand persistency (Section VII-E extension): alternating updates
    to two independent structures, with and without strand boundaries."""
    from repro.core.api import Compute, DFence, NewStrand, OFence, PMAllocator, Store
    from repro.core.machine import Machine
    from repro.sim.config import RunConfig

    def workload(heap, use_strands, updates=60):
        journal = heap.alloc_lines(64)
        metadata = heap.alloc_lines(16)

        def program():
            for i in range(updates):
                if use_strands:
                    yield NewStrand()
                yield Store(journal + (i % 64) * 64, 64)
                yield OFence()
                if use_strands:
                    yield NewStrand()
                yield Store(metadata + (i % 16) * 64, 16)
                yield OFence()
                yield Compute(40)
            yield DFence()

        return program()

    rows, runtimes = [], {}
    for use_strands in (False, True):
        machine = Machine(
            MachineConfig(num_cores=1), RunConfig(hardware=HardwareModel.ASAP)
        )
        heap = PMAllocator()
        result = machine.run([workload(heap, use_strands)])
        label = "strands" if use_strands else "plain epochs"
        runtimes[label] = result.runtime_cycles
        rows.append([
            label, result.runtime_cycles,
            result.stats.total("totSpecWrites"),
            result.stats.total("dfenceStalled"),
        ])
    table = render_table(
        ["mode", "runtime (cyc)", "early flushes", "dfence stall"],
        rows,
        title="Ablation: strand persistency on ASAP (two independent structures)",
    )
    return table, runtimes


def test_ablation_strands(benchmark, record):
    table, runtimes = benchmark.pedantic(
        run_strand_ablation, rounds=1, iterations=1
    )
    record("ablation_strands", table)
    # Independent commit chains pay off substantially.
    assert runtimes["strands"] < runtimes["plain epochs"] * 0.75


def run_no_undo_comparison():
    result = PAPER.sweep("ablation_no_undo")
    rows = []
    overheads = {}
    for name in result.workloads:
        asap = result.runtime(name, "asap")
        unsound = result.runtime(name, "no_undo")
        overheads[name] = asap / unsound
        rows.append([name, unsound, asap, f"{asap / unsound:.2f}"])
    table = render_table(
        ["workload", "no-undo (cyc)", "ASAP (cyc)", "ASAP/no-undo"],
        rows,
        title="Ablation: cost of recovery information (no-undo is UNSOUND)",
    )
    return table, overheads


def test_ablation_no_undo_overhead(benchmark, record):
    table, overheads = benchmark.pedantic(
        run_no_undo_comparison, rounds=1, iterations=1
    )
    record("ablation_no_undo", table)
    # Keeping recovery information costs little in normal operation.
    assert all(ratio < 1.5 for ratio in overheads.values())
