"""One machine per crash cell: a sweep equals per-point fresh runs.

:func:`repro.core.crash.crash_sweep` simulates the prefix the crash
points share once and resumes it from one crash cycle to the next.
These tests pin that every point it yields is exactly what a fresh
:func:`~repro.core.crash.run_and_crash` at that cycle gives -- the same
verdict and the same serialized crash state -- over every suite
workload and release-persistency model, and that misuse fails loudly.
"""

from __future__ import annotations

import pytest

from repro.core.api import PMAllocator
from repro.core.crash import crash_sweep, run_and_crash
from repro.core.models import RP_MODELS
from repro.crashtest import (
    CrashCellSpec,
    CrashPointResult,
    adjudicate,
    dumps_state,
    enumerate_crash_points,
    trace_reference,
)
from repro.sim.config import MachineConfig
from repro.workloads.registry import SUITE, get_workload

OPS = 8
POINTS = 6
SEEDS = (7, 3)
MACHINE = MachineConfig(num_cores=4, num_mcs=2)


def _cell(name: str, model, seed: int) -> CrashCellSpec:
    """The campaign's crash points for one cell, plus one past the drain."""
    run_config = model.run_config(seed=seed)
    workload = get_workload(name, ops_per_thread=OPS, seed=seed)
    reference = trace_reference(
        MACHINE, run_config, workload.programs(PMAllocator(), 4)
    )
    identity = {"workload": name, "model": model.name, "seed": seed}
    cycles = enumerate_crash_points(reference, POINTS, identity)
    return CrashCellSpec(
        name, model, cycles + [reference.drain_cycles + 7],
        machine=MACHINE, ops_per_thread=OPS, seed=seed,
    )


def _fresh(cell: CrashCellSpec, cycle: int):
    return run_and_crash(cell.machine, cell.run_config(), cell.programs(),
                         cycle)


def _verdict(cycle: int, state, workload) -> CrashPointResult:
    generic, oracle = adjudicate(state, workload)
    return CrashPointResult(
        crash_cycle=cycle,
        generic_violations=tuple(generic),
        oracle_violations=tuple(oracle),
        surviving_lines=len(state.media),
        writes_logged=len(state.log.writes),
    )


@pytest.mark.parametrize("name", [cls.name for cls in SUITE])
def test_sweep_equals_fresh_run_per_point(name):
    for seed in SEEDS:
        for model in RP_MODELS:
            cell = _cell(name, model, seed)
            workload = cell.build_workload()
            fresh = [_fresh(cell, cycle) for cycle in cell.crash_cycles]

            swept = cell.execute()
            assert [r.to_dict() for r in swept] == [
                _verdict(c, s, workload).to_dict()
                for c, s in zip(cell.crash_cycles, fresh)
            ], (name, model.name, seed)

            states = crash_sweep(cell.machine, cell.run_config(),
                                 cell.programs(), cell.crash_cycles)
            for state, alone in zip(states, fresh):
                # serialize before the sweep advances (shared log)
                assert dumps_state(state, {}) == dumps_state(alone, {}), (
                    name, model.name, seed, alone.crash_cycle,
                )


def test_cycle_past_the_drain_is_the_final_image():
    cell = _cell("queue", RP_MODELS[0], 7)
    past = cell.crash_cycles[-1]
    states = list(crash_sweep(cell.machine, cell.run_config(),
                              cell.programs(), [past, past + 1000]))
    assert [s.crash_cycle for s in states] == [past, past + 1000]
    assert states[0].media == states[1].media


@pytest.mark.parametrize("cycles", [[300, 200], [200, 200], [1, 5, 5, 9]])
def test_non_ascending_or_duplicate_cycles_raise(cycles):
    cell = _cell("queue", RP_MODELS[0], 7)
    with pytest.raises(ValueError, match="strictly ascending"):
        crash_sweep(cell.machine, cell.run_config(), cell.programs(), cycles)


def test_yielded_state_shares_the_live_log():
    """The hazard the docstring names: a state's log keeps growing once
    the sweep advances, so adjudicate it before asking for the next."""
    cell = _cell("queue", RP_MODELS[0], 7)
    first_cycle, last_cycle = cell.crash_cycles[1], cell.crash_cycles[-1]
    states = crash_sweep(cell.machine, cell.run_config(), cell.programs(),
                         [first_cycle, last_cycle])
    first = next(states)
    writes_at_first = len(first.log.writes)
    assert writes_at_first == len(_fresh(cell, first_cycle).log.writes)
    last = next(states)
    assert last.log is first.log
    assert len(first.log.writes) > writes_at_first
    # the media image, by contrast, is the state's own copy
    assert first.media == _fresh(cell, first_cycle).media


def test_cell_spec_sorts_cycles_and_matches_point_specs():
    cell = CrashCellSpec("queue", "asap_rp", [900, 100, 500],
                         ops_per_thread=OPS)
    assert cell.crash_cycles == (100, 500, 900)
    assert cell.describe()["kind"] == "crashtest-cell"
    assert cell.key() != cell.point(100).key()
    assert list(cell.execute()) == [
        cell.point(c).execute() for c in cell.crash_cycles
    ]
