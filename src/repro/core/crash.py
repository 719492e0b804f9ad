"""Crash injection and post-crash memory reconstruction.

Section V-E: on a power failure, the memory controllers drain their WPQs,
write the undo-record values on top (unwinding speculative updates), and
discard delay records.  :func:`crash_machine` models exactly that sequence
against a machine stopped at an arbitrary cycle and returns the surviving
memory image, which the checker in :mod:`repro.verify.consistency`
validates against the run's epoch log.

This is the reproduction's machine-checked version of the paper's
Theorem 2 ("when the system recovers from a crash, memory is in a
consistent state"): instead of a paper proof, the property tests crash
every model at randomized instants and assert the invariant.

Crashing only reads the machine (each controller drains a *copy* of its
media), and a run stopped at cycle ``c`` leaves every later event
queued, so resuming it to ``c' > c`` executes exactly the events a fresh
run to ``c'`` would.  :func:`crash_sweep` uses that to crash one run at
many cycles: the shared prefix is simulated once, not once per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Sequence

from repro.sim.config import HardwareModel, MachineConfig, RunConfig
from repro.core.api import Program
from repro.core.epoch import EpochLog
from repro.core.machine import Machine


@dataclass
class CrashState:
    """What survived the crash."""

    #: cycle at which power was lost.
    crash_cycle: int
    #: line -> surviving write id (0 / absent = pristine).
    media: Dict[int, int]
    log: EpochLog
    run_config: RunConfig

    def surviving_value(self, line: int) -> int:
        return self.media.get(line, 0)

    def surviving_payload(self, line: int, default: object = None) -> object:
        """Logical payload of the write that survived on ``line``."""
        write_id = self.surviving_value(line)
        if write_id == 0:
            return default
        return self.log.payloads.get(write_id, default)


def crash_machine(machine: Machine) -> CrashState:
    """Apply the power-fail sequence to a stopped machine."""
    hardware = machine.run_config.hardware
    if hardware is HardwareModel.EADR:
        # eADR flushes the entire cache hierarchy: every write that ever
        # executed is durable.
        media = machine.log.newest_write_per_line()
    else:
        media = {}
        for mc in machine.mcs:
            media.update(mc.crash_drain())
    return CrashState(
        crash_cycle=machine.engine.now,
        media=media,
        log=machine.log,
        run_config=machine.run_config,
    )


def crash_sweep(
    config: MachineConfig,
    run_config: RunConfig,
    programs: Iterable[Program],
    cycles: Sequence[int],
) -> Iterator[CrashState]:
    """Run one machine and lose power at each of ``cycles`` in turn.

    Yields one :class:`CrashState` per cycle, each equal to what
    :func:`run_and_crash` returns for that cycle on a fresh machine.
    ``cycles`` must be strictly ascending (:class:`ValueError`
    otherwise, raised before anything is simulated).  A cycle past the
    end of the run yields the final memory image.

    Each state's ``media`` is its own, but its ``log`` *is* the live
    machine's :class:`EpochLog`, which keeps growing once the sweep
    advances.  Adjudicate (or copy) a state before asking for the next.
    """
    cycles = list(cycles)
    for earlier, later in zip(cycles, cycles[1:]):
        if later <= earlier:
            raise ValueError(
                f"crash cycles must be strictly ascending: {earlier} "
                f"then {later}"
            )
    return _sweep(Machine(config, run_config), programs, cycles)


def _sweep(
    machine: Machine, programs: Iterable[Program], cycles: Sequence[int]
) -> Iterator[CrashState]:
    for index, cycle in enumerate(cycles):
        if index == 0:
            machine.run_until(programs, cycle)
        else:
            machine.continue_until(cycle)
        yield crash_machine(machine)


def run_and_crash(
    config: MachineConfig,
    run_config: RunConfig,
    programs: Iterable[Program],
    crash_cycle: int,
) -> CrashState:
    """Build a machine, run it, and lose power at ``crash_cycle``.

    If the workload finishes (and the system drains) before the crash
    cycle, the returned state is simply the final memory image.
    """
    return next(crash_sweep(config, run_config, programs, [crash_cycle]))


__all__ = ["CrashState", "crash_machine", "crash_sweep", "run_and_crash"]
