"""Recoverable-structure fixtures on the one crash-judging path.

``plog`` and ``pkv`` judge crash images with their own recovery
procedures.  These tests pin what that path relies on:

- an oracle verdict is a function of the crash state alone, for every
  registered workload: ``CrashCellSpec.execute`` judges with a fresh
  instance and must agree with the instance whose ``programs()`` ran;
- a minimized ``plog`` or ``pkv`` failure is saved and replays;
- a ``pkv`` campaign is byte-identical across Python hash seeds.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.api import PMAllocator
from repro.core.crash import crash_sweep
from repro.crashtest import (
    CrashCellSpec,
    adjudicate,
    replay_failure,
    run_campaign,
)
from repro.sim.config import MachineConfig
from repro.workloads.registry import FIXTURES, SUITE

REPO = pathlib.Path(__file__).resolve().parents[2]
#: the wide flush window the no-undo ablation needs to reorder the log.
WIDE = MachineConfig(pb_inflight_max=32)
CYCLES = (300, 1500, 4000)


def _same_instance_verdicts(cell: CrashCellSpec):
    workload = cell.build_workload()
    programs = workload.programs(PMAllocator(), cell.machine.num_cores)
    return [
        adjudicate(state, workload)
        for state in crash_sweep(cell.machine, cell.run_config(), programs,
                                 cell.crash_cycles)
    ]


def _cell_verdicts(cell: CrashCellSpec):
    return [
        (list(r.generic_violations), list(r.oracle_violations))
        for r in cell.execute()
    ]


@pytest.mark.parametrize("name", [cls.name for cls in SUITE + FIXTURES])
def test_oracle_reads_only_the_crash_state(name):
    cell = CrashCellSpec(name, "asap_rp", CYCLES, ops_per_thread=8)
    assert _cell_verdicts(cell) == _same_instance_verdicts(cell)


@pytest.mark.parametrize("name", ["plog", "pkv"])
def test_failing_verdicts_read_only_the_crash_state(name):
    cell = CrashCellSpec(name, "asap_no_undo", range(400, 8000, 400), WIDE)
    verdicts = _cell_verdicts(cell)
    assert any(oracle for _, oracle in verdicts)
    assert verdicts == _same_instance_verdicts(cell)


def test_saved_failures_replay(tmp_path):
    report = run_campaign(["plog", "pkv"], models=["asap_no_undo"],
                          machine=WIDE, save_dir=str(tmp_path))
    assert [cell.failure["media_lines"] for cell in report.cells] == [1, 1]
    assert len(report.saved_failures) == 2
    for path in report.saved_failures:
        replay = replay_failure(path)
        assert replay["reproduced"], path
        assert replay["media_lines"] == 1
        # the oracle reads the state alone, so the loaded state gets the
        # verdict the live one got
        assert set(replay["oracle_violations"]) <= set(
            replay["recorded_violations"])


def test_pkv_campaign_ignores_the_hash_seed(tmp_path):
    outputs = []
    for seed in ("1", "2"):
        out = tmp_path / f"pkv-{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "crashtest", "pkv",
             "--models", "asap_rp", "--points", "8", "--out", str(out)],
            cwd=REPO, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
