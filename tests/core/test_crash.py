"""Unit/integration tests for crash injection and reconstruction."""

import pytest

from repro.core.api import Compute, DFence, OFence, PMAllocator, Store
from repro.core.crash import CrashState, crash_machine, run_and_crash
from repro.core.machine import Machine
from repro.sim.config import (
    HardwareModel,
    MachineConfig,
    PersistencyModel,
    RunConfig,
)

from tests.conftest import make_machine, simple_writer


def ordered_program(buf, n=6):
    for i in range(n):
        yield Store(buf + 64 * i, 64, payload=f"v{i}")
        yield OFence()
    yield DFence()


class TestCrashTiming:
    def test_crash_before_anything_leaves_memory_pristine(self):
        heap = PMAllocator()
        buf = heap.alloc(64 * 8)
        state = run_and_crash(
            MachineConfig(num_cores=1),
            RunConfig(hardware=HardwareModel.ASAP),
            [ordered_program(buf)],
            crash_cycle=1,
        )
        assert all(v == 0 for v in state.media.values())

    def test_crash_after_completion_has_everything(self):
        heap = PMAllocator()
        buf = heap.alloc(64 * 8)
        state = run_and_crash(
            MachineConfig(num_cores=1),
            RunConfig(hardware=HardwareModel.ASAP),
            [ordered_program(buf)],
            crash_cycle=10_000_000,
        )
        expected = state.log.newest_write_per_line()
        for line, write_id in expected.items():
            assert state.media.get(line) == write_id

    def test_mid_crash_loses_a_suffix(self):
        """Under ordered writes, what survives must be a prefix."""
        heap = PMAllocator()
        buf = heap.alloc(64 * 8)
        state = run_and_crash(
            MachineConfig(num_cores=1),
            RunConfig(hardware=HardwareModel.ASAP),
            [ordered_program(buf)],
            crash_cycle=700,
        )
        survived = [
            i for i in range(6) if state.surviving_value(buf + 64 * i) != 0
        ]
        assert survived == list(range(len(survived)))  # contiguous prefix


class TestEADRCrash:
    def test_eadr_preserves_every_write(self):
        heap = PMAllocator()
        buf = heap.alloc(64 * 8)
        state = run_and_crash(
            MachineConfig(num_cores=1),
            RunConfig(hardware=HardwareModel.EADR),
            [ordered_program(buf)],
            crash_cycle=300,  # mid-run: caches are battery-backed anyway
        )
        executed = state.log.newest_write_per_line()
        for line, write_id in executed.items():
            assert state.media[line] == write_id


class TestPayloads:
    def test_surviving_payload_maps_write_ids_to_values(self):
        heap = PMAllocator()
        buf = heap.alloc(64 * 8)
        state = run_and_crash(
            MachineConfig(num_cores=1),
            RunConfig(hardware=HardwareModel.ASAP),
            [ordered_program(buf)],
            crash_cycle=10_000_000,
        )
        assert state.surviving_payload(buf) == "v0"
        assert state.surviving_payload(buf + 64 * 5) == "v5"

    def test_missing_payload_returns_default(self):
        heap = PMAllocator()
        buf = heap.alloc(64 * 8)
        state = run_and_crash(
            MachineConfig(num_cores=1),
            RunConfig(hardware=HardwareModel.ASAP),
            [ordered_program(buf)],
            crash_cycle=1,
        )
        assert state.surviving_payload(buf, default="none") == "none"


class TestUndoUnwinding:
    def test_speculative_writes_rolled_back(self):
        """Pause a machine while undo records are live and check the
        crash image excludes the speculative values."""
        machine = make_machine(HardwareModel.ASAP, num_cores=1)
        heap = PMAllocator()
        buf = heap.alloc(64 * 16)

        def program():
            for i in range(16):
                yield Store(buf + 64 * i, 64)
                yield OFence()
            yield DFence()

        # Stop early enough that some epochs are still uncommitted.
        machine.run_until([program()], crash_cycle=400)
        live_undos = sum(len(rt) for rt in machine.recovery_tables if rt)
        state = crash_machine(machine)
        # Every surviving line value must belong to a prefix of epochs.
        survived = [i for i in range(16) if state.surviving_value(buf + 64 * i)]
        assert survived == list(range(len(survived)))
        # If undo records were live, something was indeed rolled back or
        # pending -- the run must not have persisted all 16 lines.
        if live_undos:
            assert len(survived) < 16


class TestCrashOnlyReads:
    def test_crash_leaves_media_and_the_rest_of_the_run_alone(self):
        """``crash_machine`` drains a *copy* of every controller's media:
        crashing a live ASAP machine whose ADR domain holds writes the
        media lacks (or whose undo records are live) must not touch its
        NVM, and the resumed run must finish as if it never crashed."""
        from repro.exp.spec import fingerprint_sha
        from repro.workloads.base import WorkloadResult
        from repro.workloads.registry import get_workload

        config = MachineConfig()
        run_config = RunConfig(hardware=HardwareModel.ASAP)

        def programs():
            return get_workload("queue", ops_per_thread=16).programs(
                PMAllocator(), config.num_cores)

        def pending(machine):
            return any(
                mc.adr_value.items() - mc.nvm.media.items()
                or (mc.recovery_table is not None
                    and mc.recovery_table.undo_records())
                for mc in machine.mcs
            )

        machine = Machine(config, run_config)
        machine.run_until(programs(), 500)
        for _ in range(100):
            if pending(machine):
                break
            machine.continue_until(machine.engine.now + 50)
        assert pending(machine), "no cycle with writes left to drain"
        media = [dict(mc.nvm.media) for mc in machine.mcs]
        crash_machine(machine)
        assert [mc.nvm.media for mc in machine.mcs] == media

        resumed = WorkloadResult("queue", machine.continue_run())
        fresh = WorkloadResult(
            "queue", Machine(config, run_config).run(programs()))
        assert fingerprint_sha(resumed) == fingerprint_sha(fresh)
