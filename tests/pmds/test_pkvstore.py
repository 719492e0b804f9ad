"""The ``pkv`` crash fixture: a chained-hash KV store, entries ordered
before the bucket heads that name them.

Crash verdicts come from ``run_campaign``, the path ``repro crashtest
pkv`` takes, so every failure here also minimizes and replays (see
``tests/crashtest/test_recoverable.py``).  Unit checks call the
fixture's ``recover()`` on drained, mid-run and doctored crash images.
"""

from functools import lru_cache

import pytest

from repro.core.crash import crash_sweep
from repro.core.models import RP_MODELS
from repro.crashtest import CrashCellSpec, CrashPointSpec, run_campaign
from repro.sim.config import MachineConfig
from repro.workloads.registry import get_workload

#: the wide flush window of the unsound-hardware tests.
WIDE = MachineConfig(pb_inflight_max=32)


@lru_cache(maxsize=None)
def campaign(model, machine=MachineConfig()):
    (cell,) = run_campaign(["pkv"], models=[model], machine=machine,
                           points=50, minimize=False).cells
    return cell


def crash(model, crash_cycle):
    return get_workload("pkv"), CrashPointSpec("pkv", model,
                                               crash_cycle).simulate()


def puts(state):
    """Every put the run executed, in execution order: (key, value)."""
    return [
        (payload[1], payload[2])
        for _, payload in sorted(state.log.payloads.items())
        if isinstance(payload, tuple) and payload[0] == "pkv-entry"
    ]


class TestBasics:
    def test_complete_run_recovers_shadow(self):
        store, state = crash("asap", 10**8)
        recovery = store.recover(state)
        assert recovery.clean
        assert recovery.entries_found == len(puts(state))

    def test_empty_store_recovers_empty(self):
        store, state = crash("asap", 1)
        recovery = store.recover(state)
        assert recovery.clean
        assert recovery.values == {}

    def test_updates_shadow_newest_value(self):
        store, state = crash("asap", 10**8)
        newest = dict(puts(state))  # later puts overwrite earlier ones
        assert len(newest) < len(puts(state)), "no key was updated"
        assert store.recover(state).values == newest


class TestCrashSafety:
    @pytest.mark.parametrize("model", ["asap", "baseline", "hops"])
    def test_no_dangling_pointers_on_sound_hardware(self, model):
        for machine in (MachineConfig(), WIDE):
            cell = campaign(model, machine)
            assert cell.ok, cell.failures[:1]

    def test_recovered_values_are_well_formed_puts(self):
        """Chains never invent data: every recovered pair came from a put."""
        store = get_workload("pkv")
        spec = CrashCellSpec("pkv", "asap", range(500, 8000, 750))
        for state in crash_sweep(spec.machine, spec.run_config(),
                                 spec.programs(), spec.crash_cycles):
            recovery = store.recover(state)
            assert recovery.clean
            assert set(recovery.values.items()) <= set(puts(state))


class TestDanglingOnUnsoundHardware:
    """The jam holds an entry on controller 0 while the head that names
    it persists on controller 1."""

    def test_no_undo_dangles(self):
        cell = campaign("asap_no_undo", WIDE)
        dangling = [v for r in cell.failures for v in r.oracle_violations
                    if v.startswith("pkv: dangling pointer")]
        assert dangling

    def test_real_asap_never_dangles_under_the_same_jam(self):
        for model in RP_MODELS:
            assert campaign(model.name, WIDE).ok, model.name


class TestDanglingDetection:
    def test_recovery_detects_corrupted_pointer(self):
        """Hand the oracle a doctored image: a bucket head naming an
        entry that was never written."""
        store, state = crash("asap", 10**8)
        assert not store.recovery_oracle(state)
        head_line, head_id = next(
            (line, wid) for line, wid in sorted(state.media.items())
            if state.log.payloads.get(wid, ("",))[0] == "pkv-head"
        )
        missing = 0x7000_0000  # outside every allocation
        fake_id = max(state.log.writes) + 1
        state.log.writes[fake_id] = state.log.writes[head_id]
        state.log.payloads[fake_id] = ("pkv-head", missing)
        state.media[head_line] = fake_id
        assert store.recover(state).dangling == [(head_line, missing)]
        assert any(v.startswith("pkv: dangling pointer")
                   for v in store.recovery_oracle(state))
