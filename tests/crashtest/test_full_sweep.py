"""The full crash-sweep campaign: every stock workload, every RP design.

This is the acceptance sweep -- 50 crash points per (workload, model)
cell over the whole Table III suite and the four release-persistency
acceptance designs -- behind ``-m crash`` in its own non-blocking CI
job.  The blocking CI job runs the same sweep through ``repro crashtest
--all``: one machine per cell keeps it to seconds.  The PR-gating smoke
version (two workloads, a handful of points) lives in
``test_campaign.py`` and ``tests/cli/``.
"""

import os
import signal

import pytest

from repro.core.models import RP_MODELS
from repro.crashtest import run_campaign
from repro.workloads.registry import SUITE

pytestmark = pytest.mark.crash

#: hard cap; a wedged worker pool must fail, not hang CI.
HARD_TIMEOUT_S = 3000

POINTS = 50
OPS_PER_THREAD = 24  # the CLI default; keeps a cell's horizon tractable


@pytest.fixture(autouse=True)
def _hard_timeout():
    """SIGALRM-based hard timeout (no pytest-timeout in the image)."""
    if not hasattr(signal, "SIGALRM"):  # non-POSIX: no guard available
        yield
        return

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"test exceeded the {HARD_TIMEOUT_S}s hard timeout"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(HARD_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _jobs() -> int:
    try:
        return max(2, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(2, os.cpu_count() or 2)


def test_stock_suite_survives_every_crash_point():
    names = [cls.name for cls in SUITE]
    report = run_campaign(
        names, models=list(RP_MODELS), points=POINTS,
        ops_per_thread=OPS_PER_THREAD, jobs=_jobs(),
    )
    failing = {
        (cell.workload, cell.model): [r.crash_cycle for r in cell.failures]
        for cell in report.cells if not cell.ok
    }
    assert report.ok, f"crash-recovery violations: {failing}"
    assert len(report.cells) == len(names) * len(RP_MODELS)
    for cell in report.cells:
        assert len(cell.results) >= POINTS, (
            f"{cell.workload}/{cell.model}: only {len(cell.results)} "
            f"crash points (run too short for {POINTS}?)"
        )


def test_sweep_reports_are_byte_identical_across_runs():
    kwargs = dict(
        workloads=["cceh", "p_art"], models=list(RP_MODELS),
        points=POINTS, ops_per_thread=OPS_PER_THREAD, jobs=_jobs(),
    )
    assert run_campaign(**kwargs).to_json() == run_campaign(**kwargs).to_json()
