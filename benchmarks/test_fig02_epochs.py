"""Figure 2: number of epochs and cross-thread dependencies (4 threads).

The paper measures both quantities within 1 ms of simulated execution
under release persistency and finds that cross-dependencies are rare in
WHISPER/PMDK applications but frequent in the new concurrent data
structures (CCEH, Dash, RECIPE).  We reproduce the same per-workload
series, normalized to events per million cycles (the paper's 1 ms at
2 GHz is 2 M cycles).
"""

from repro.analysis.report import render_table

from benchmarks.plan import PAPER

CONCURRENT_DS = {"cceh", "dash_lh", "dash_eh", "p_art", "p_clht", "p_masstree"}
WHISPER = {"nstore", "echo", "vacation", "memcached"}


def run_figure2():
    result = PAPER.sweep("fig02")
    rows = []
    per_mcycle = {}
    for name in result.workloads:
        run = result.runs[(name, "asap_rp")]
        cycles = run.result.drain_cycles
        epochs = run.result.log.num_epochs()
        deps = run.result.log.num_cross_deps()
        scale = 1_000_000 / max(1, cycles)
        per_mcycle[name] = (epochs * scale, deps * scale)
        rows.append(
            [name, epochs, deps, f"{epochs * scale:.0f}", f"{deps * scale:.0f}"]
        )
    table = render_table(
        ["workload", "epochs", "cross-deps", "epochs/Mcyc", "deps/Mcyc"],
        rows,
        title="Figure 2: epochs and cross-thread dependencies (4 threads, ASAP_RP)",
    )
    return table, per_mcycle


def test_fig02_epochs_and_cross_deps(benchmark, record):
    table, per_mcycle = benchmark.pedantic(run_figure2, rounds=1, iterations=1)
    record("fig02_epochs", table)

    # Shape assertions mirroring the paper's discussion:
    # concurrent data structures have far more cross-deps than WHISPER apps.
    ds_deps = [per_mcycle[n][1] for n in CONCURRENT_DS]
    whisper_deps = [per_mcycle[n][1] for n in WHISPER]
    assert min(ds_deps) > max(whisper_deps)
    # Nstore's partitioned design has essentially none.
    assert per_mcycle["nstore"][1] == 0
