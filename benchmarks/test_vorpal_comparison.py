"""Extension benchmark: quantitative Table IV -- ASAP vs a Vorpal model.

The paper compares Vorpal only qualitatively (vector-clock tag cost,
controller-side delays, broadcast-paced forward progress).  With the
simplified Vorpal model in :mod:`repro.core.vorpal` the comparison runs:

1. across the suite: where does controller-side ordering land between
   HOPS and ASAP?
2. the broadcast-period sweep: Section III's "the broadcast frequency
   determines the rate of forward progress", measured.
3. the tag cost: bits of vector-clock metadata per persisted byte.
"""

from repro.analysis.report import render_table

from benchmarks.conftest import geomean
from benchmarks.plan import BROADCAST_PERIODS, PAPER, VORPAL_MODELS as MODELS


def run_vorpal_suite():
    result = PAPER.sweep("ext_vorpal_suite")
    rows = []
    speedups = {m: [] for m in MODELS}
    for name in result.workloads:
        cells = [name]
        for model in MODELS:
            s = result.speedup(name, model)
            speedups[model].append(s)
            cells.append(f"{s:.2f}")
        rows.append(cells)
    rows.append(
        ["geomean"] + [f"{geomean(speedups[m]):.2f}" for m in MODELS]
    )
    # tag cost on one representative run
    run = result.runs[("dash_eh", "vorpal")].result
    tag_bits = run.stats.total("vorpal_tag_bits")
    persisted = run.stats.total("pm_write_bytes")
    table = render_table(
        ["workload"] + list(MODELS),
        rows,
        title=(
            "Extension: Vorpal comparison, speedup over baseline "
            f"(dash_eh tag cost: {tag_bits / 8 / max(1, persisted):.3f} "
            "metadata bytes per persisted byte)"
        ),
    )
    return table, speedups


def test_vorpal_suite_comparison(benchmark, record):
    table, speedups = benchmark.pedantic(
        run_vorpal_suite, rounds=1, iterations=1
    )
    record("ext_vorpal_suite", table)
    vorpal = geomean(speedups["vorpal"])
    hops = geomean(speedups["hops"])
    asap = geomean(speedups["asap"])
    # Vorpal's controller-side ordering beats conservative flushing but
    # cannot reach eager flushing with speculation (Table IV's ranking).
    assert hops < vorpal <= asap * 1.02


def run_broadcast_sweep():
    rows = {}
    for period in BROADCAST_PERIODS:
        result = PAPER.sweep(f"ext_vorpal_broadcast/{period}")
        rows[period] = result.runs[("bandwidth", "vorpal")].result.drain_cycles
    asap = PAPER.sweep("ext_vorpal_broadcast/asap").runs[
        ("bandwidth", "asap")
    ].result.drain_cycles
    table = render_table(
        ["broadcast period (cyc)", "Vorpal (cyc)", "vs ASAP"],
        [[p, c, f"{c / asap:.2f}x"] for p, c in rows.items()],
        title=(
            "Extension: Vorpal broadcast-period sweep (bandwidth kernel; "
            "'broadcast frequency determines forward progress')"
        ),
    )
    return table, rows, asap


def test_vorpal_broadcast_sweep(benchmark, record):
    table, rows, asap = benchmark.pedantic(
        run_broadcast_sweep, rounds=1, iterations=1
    )
    record("ext_vorpal_broadcast", table)
    # Forward progress degrades monotonically-ish with the period...
    assert rows[2000] > rows[250] > rows[50] * 0.99
    # ...and even fast broadcasts cannot beat eager flushing.
    assert min(rows.values()) >= asap
