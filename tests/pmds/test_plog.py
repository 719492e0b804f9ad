"""The ``plog`` crash fixture: one ordered append-only log per thread.

Crash verdicts come from ``run_campaign``, the path ``repro crashtest
plog`` takes, so every failure here also minimizes and replays (see
``tests/crashtest/test_recoverable.py``).  Unit checks call the
fixture's ``recover()`` on a drained and on a mid-run crash image.
"""

from functools import lru_cache

import pytest

from repro.core.api import PMAllocator
from repro.core.models import RP_MODELS
from repro.crashtest import CrashPointSpec, run_campaign
from repro.sim.config import MachineConfig
from repro.workloads.registry import get_workload

#: the wide flush window that lets the no-undo ablation reorder the log.
WIDE = MachineConfig(pb_inflight_max=32)
THREADS = MachineConfig().num_cores


@lru_cache(maxsize=None)
def campaign(model, machine=MachineConfig()):
    (cell,) = run_campaign(["plog"], models=[model], machine=machine,
                           points=50, minimize=False).cells
    return cell


def crash(model, crash_cycle):
    return get_workload("plog"), CrashPointSpec("plog", model,
                                                crash_cycle).simulate()


def appended():
    """log -> every value its program appends, in order."""
    logs = {}
    for program in get_workload("plog").programs(PMAllocator(), THREADS):
        for op in program:
            payload = getattr(op, "payload", None)
            if isinstance(payload, tuple) and payload[0] == "plog":
                logs.setdefault(payload[1], []).append(payload[3])
    return logs


class TestBasics:
    def test_complete_run_recovers_everything(self):
        log, state = crash("asap", 10**8)
        recovery = log.recover(state)
        assert recovery.clean
        assert recovery.values == appended()

    def test_immediate_crash_recovers_empty(self):
        log, state = crash("asap", 1)
        recovery = log.recover(state)
        assert recovery.clean
        assert recovery.values == {}


class TestPrefixGuarantee:
    @pytest.mark.parametrize("model", ["baseline", "hops", "asap", "eadr"])
    def test_crash_loses_at_most_a_suffix(self, model):
        # a lost entry below a surviving one is a hole, which the oracle
        # reports; a clean cell therefore only ever lost suffixes.
        for machine in (MachineConfig(), WIDE):
            cell = campaign(model, machine)
            assert cell.ok, cell.failures[:1]

    def test_mid_crash_is_a_proper_prefix(self):
        log, state = crash("asap", 1500)
        recovery = log.recover(state)
        assert recovery.clean
        expected = appended()
        survived = sum(len(values) for values in recovery.values.values())
        assert 0 < survived < sum(len(values) for values in expected.values())
        for index, values in recovery.values.items():
            assert values == expected[index][: len(values)]


class TestHolesOnUnsoundHardware:
    def test_no_undo_can_produce_holes(self):
        """The jam holds an even entry on controller 0 while the next,
        odd entry persists on controller 1: speculative flushing with
        no undo records leaves a hole the oracle names."""
        cell = campaign("asap_no_undo", WIDE)
        holes = [v for r in cell.failures for v in r.oracle_violations
                 if v.startswith("plog: hole")]
        assert holes

    def test_real_asap_never_holes_under_the_same_jam(self):
        for model in RP_MODELS:
            assert campaign(model.name, WIDE).ok, model.name
