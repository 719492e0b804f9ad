"""Every registered workload through every entry point, at small ops.

Each cell calls the library function behind one CLI subcommand (``run``,
``lint``, ``sample``, ``crashtest``, ``ckpt`` create then resume) on one
workload of ``SUITE + MICROBENCHES + FIXTURES``, and must complete.  A
workload that cannot go through an entry point is marked here as a
strict expected failure, so the fix that makes it pass has to remove
the mark.
"""

from __future__ import annotations

import pytest

from repro.ckpt.api import (
    CheckpointCell,
    create_checkpoint,
    resume_machine,
    run_fingerprint,
)
from repro.ckpt.codec import dumps_checkpoint, loads_checkpoint
from repro.crashtest import run_campaign
from repro.exp import RunSpec
from repro.lint import LintConfig, lint_workload
from repro.sample import run_sampled
from repro.workloads.registry import FIXTURES, MICROBENCHES, SUITE

OPS = 24
MODEL = "asap_rp"
NAMES = [cls.name for cls in SUITE + MICROBENCHES + FIXTURES]


def _run(name: str) -> None:
    result = RunSpec(name, MODEL, ops_per_thread=OPS).execute()
    assert result.runtime_cycles > 0


def _lint(name: str) -> None:
    report = lint_workload(name, LintConfig(ops_per_thread=OPS))
    assert report.ops_scanned > 0


def _sample(name: str) -> None:
    report = run_sampled(name, MODEL, ops_per_thread=OPS)
    assert report.ops_simulated > 0


def _crashtest(name: str) -> None:
    report = run_campaign([name], models=[MODEL], points=2,
                          ops_per_thread=OPS)
    assert report.total_points > 0


def _ckpt(name: str) -> None:
    cell = CheckpointCell(name, MODEL, ops_per_thread=OPS)
    runtime = cell.build_machine().run(cell.programs()).runtime_cycles
    made = create_checkpoint(cell, runtime // 2)
    assert made is not None
    meta, state, live = made
    text = dumps_checkpoint(meta, state)
    resumed = resume_machine(*loads_checkpoint(text))
    assert run_fingerprint(resumed, resumed.continue_run()) == (
        run_fingerprint(live, live.continue_run())
    )


ENTRY_POINTS = {
    "run": _run,
    "lint": _lint,
    "sample": _sample,
    "crashtest": _crashtest,
    "ckpt": _ckpt,
}

#: (entry point, workload) cells known not to complete, and why.
KNOWN_FAILURES = {
    # round-robin dry expansion interleaves the ATLAS heap's critical
    # sections until its shared model indexes out of range
    ("sample", "heap"): IndexError,
}


def _cells():
    for entry in ENTRY_POINTS:
        for name in NAMES:
            marks = ()
            raises = KNOWN_FAILURES.get((entry, name))
            if raises is not None:
                marks = pytest.mark.xfail(strict=True, raises=raises)
            yield pytest.param(entry, name, marks=marks,
                               id=f"{entry}-{name}")


@pytest.mark.parametrize("entry,name", _cells())
def test_entry_point_completes(entry, name):
    ENTRY_POINTS[entry](name)
