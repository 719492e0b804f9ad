"""Figure 8: performance of all six models in the 4-core / 2-MC system.

The paper's headline result.  Speedups are normalized to the Intel
baseline; the published numbers to compare shapes against:

- ASAP_EP 2.1x and ASAP_RP 2.29x over baseline on average;
- ASAP within 3.9% of eADR/BBB on average;
- ASAP_EP +37% over HOPS_EP, ASAP_RP +23% over HOPS_RP;
- HOPS_EP *below baseline* on queue, CCEH, Dash and P-ART.
"""

from repro.analysis.report import render_table
from repro.core.models import STANDARD_MODELS

from benchmarks.plan import PAPER

HOPS_EP_BELOW_BASELINE = ("queue", "cceh", "dash_eh", "p_art")


def run_figure8():
    result = PAPER.sweep("fig08")
    model_names = [m.name for m in STANDARD_MODELS]
    rows = []
    for workload in result.workloads:
        rows.append(
            [workload]
            + [f"{result.speedup(workload, m):.2f}" for m in model_names]
        )
    means = {m: result.geomean_speedup(m) for m in model_names}
    rows.append(["geomean"] + [f"{means[m]:.2f}" for m in model_names])
    table = render_table(
        ["workload"] + model_names,
        rows,
        title=(
            "Figure 8: speedup over Intel baseline, 4 cores / 2 MCs "
            "(paper: ASAP_EP 2.1x, ASAP_RP 2.29x, ASAP within 3.9% of eADR)"
        ),
    )
    return table, result, means


def test_fig08_performance_study(benchmark, record):
    table, result, means = benchmark.pedantic(run_figure8, rounds=1, iterations=1)
    record("fig08_performance", table)

    # Baseline is the slowest design on every workload.
    for workload in result.workloads:
        for model in ("asap_ep", "asap_rp", "eadr"):
            assert result.speedup(workload, model) >= 0.99, (workload, model)

    # ASAP delivers a ~2x average win over the baseline.
    assert 1.6 < means["asap_rp"] < 2.6
    assert 1.6 < means["asap_ep"] < 2.6

    # ASAP tracks the eADR/BBB ideal closely (paper: within 3.9%).
    assert means["eadr"] / means["asap_rp"] < 1.12

    # ASAP beats HOPS under both persistency models.
    assert means["asap_ep"] > means["hops_ep"]
    assert means["asap_rp"] > means["hops_rp"]

    # Release persistency >= epoch persistency for HOPS (fewer deps).
    assert means["hops_rp"] >= means["hops_ep"]

    # HOPS_EP drops below baseline on the dependency-bound structures.
    for workload in HOPS_EP_BELOW_BASELINE:
        assert result.speedup(workload, "hops_ep") < 1.05, workload
