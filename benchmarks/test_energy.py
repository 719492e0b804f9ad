"""Extension benchmark: operational energy of the persistence structures.

Section VII-D compares power-fail draining energy; this bench extends the
comparison to *normal operation*: Table V's per-access energies combined
with each run's access counts.  The question it answers: does ASAP's
speculation machinery (recovery-table traffic, commit messages) cost
meaningful energy relative to HOPS's conservative design?  The paper's
qualitative claim -- "the benefits ... outweigh the hardware cost they
incur" -- holds if the answer is a small constant factor on structures
that are themselves tiny (Table V: a thousandth of an L1's energy per
access).
"""

from repro.analysis.energy import estimate_energy
from repro.analysis.report import render_table
from repro.workloads import SUITE

from benchmarks.plan import ENERGY_MODELS as MODELS, PAPER


def run_energy():
    result = PAPER.sweep("ext_energy")
    rows = []
    per_op = {}
    for name in result.workloads:
        cells = [name]
        for model in MODELS:
            run = result.runs[(name, model)].result
            breakdown = estimate_energy(run)
            pj = breakdown.total_pj / max(1, run.ops_executed)
            per_op[(name, model)] = pj
            cells.append(f"{pj:.1f}")
        asap = per_op[(name, "asap")]
        hops = per_op[(name, "hops")]
        cells.append(f"{asap / max(hops, 0.001):.2f}")
        rows.append(cells)
    table = render_table(
        ["workload", "baseline pJ/op", "HOPS pJ/op", "ASAP pJ/op",
         "ASAP/HOPS"],
        rows,
        title="Extension: persistence-structure energy per operation",
    )
    return table, per_op


def test_energy_per_operation(benchmark, record):
    table, per_op = benchmark.pedantic(run_energy, rounds=1, iterations=1)
    record("ext_energy", table)

    workloads = [w.name for w in SUITE]
    # ASAP's speculation adds recovery-table traffic but stays within a
    # small factor of HOPS on every workload.
    for name in workloads:
        ratio = per_op[(name, "asap")] / max(per_op[(name, "hops")], 0.001)
        assert ratio < 4.0, (name, ratio)
    # The absolute scale is tiny: well under one 32KB-L1 access pair
    # (~656 pJ, Table V) per operation for the median workload.
    median = sorted(per_op[(n, "asap")] for n in workloads)[len(workloads) // 2]
    assert median < 656
