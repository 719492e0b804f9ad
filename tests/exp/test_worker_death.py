"""Worker death in the process-pool executor.

A SIGKILLed pool worker (OOM killer, operator error) breaks its pool.
:class:`repro.exp.ParallelExecutor` re-runs the items that pool lost in
a fresh one, up to :data:`repro.exp.executors.POOL_RETRIES` times per
``map``; cells are deterministic, so the retried results are identical
to a serial run.  Past the limit it raises a prompt, descriptive
:class:`repro.exp.WorkerDiedError` -- never a hang and never a bare
``BrokenProcessPool`` leaking implementation detail.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.exp import (
    ExperimentPlan,
    ParallelExecutor,
    SerialExecutor,
    WorkerDiedError,
    execute_spec,
    fingerprint_sha,
    make_executor,
)
from repro.exp.executors import POOL_RETRIES

#: hard cap; the whole point is that worker death must not hang.
HARD_TIMEOUT_S = 60


@pytest.fixture(autouse=True)
def _hard_timeout():
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


def _suicide(x: int) -> int:
    os.kill(os.getpid(), signal.SIGKILL)
    return x  # pragma: no cover -- never reached


def _ok(x: int) -> int:
    return x + 1


def _boom(x: int) -> int:
    raise ValueError(f"boom on {x}")


def _count_attempt(log: Path) -> int:
    """Append one byte to ``log``; return how many attempts it now holds."""
    with open(log, "ab") as handle:
        handle.write(b".")
    return log.stat().st_size


@dataclass(frozen=True)
class _KillFirst:
    """Picklable map function: the first ``deaths`` calls that reach
    ``poison`` SIGKILL their worker; every other call runs ``fn``."""

    log: str
    poison: object
    deaths: int
    fn: object = execute_spec

    def __call__(self, item):
        if item == self.poison and _count_attempt(Path(self.log)) <= self.deaths:
            os.kill(os.getpid(), signal.SIGKILL)
        return self.fn(item)


@dataclass(frozen=True)
class _CountCalls:
    """Picklable map function that logs every attempt, then runs ``fn``."""

    log: str
    fn: object

    def __call__(self, item):
        _count_attempt(Path(self.log))
        return self.fn(item)


def _sleepy_echo(x: int) -> int:
    # earlier items sleep longest, so completion order is reversed
    time.sleep(0.02 * (8 - x))
    return x


#: an 8-cell grid: four workloads x the baseline and ASAP designs.
GRID = ExperimentPlan.grid(
    ["queue", "heap", "ctree", "nstore"], ["baseline", "asap_rp"],
    ops_per_thread=40,
)


def test_worker_killed_once_matches_serial(tmp_path):
    specs = list(GRID)
    serial = [fingerprint_sha(execute_spec(spec)) for spec in specs]
    log = tmp_path / "attempts"
    kill_once = _KillFirst(str(log), poison=specs[3], deaths=1)
    results = ParallelExecutor(jobs=2).map(kill_once, specs)
    assert log.stat().st_size == 2  # killed once, then re-run
    assert [fingerprint_sha(result) for result in results] == serial


def test_item_that_always_kills_raises_worker_died_error(tmp_path):
    log = tmp_path / "attempts"
    always = _KillFirst(str(log), poison=2, deaths=10**6, fn=_ok)
    with pytest.raises(WorkerDiedError, match=r"lost \d of 4 items: .*2"):
        ParallelExecutor(jobs=2).map(always, [1, 2, 3, 4])
    # the first pool plus exactly POOL_RETRIES fresh ones
    assert log.stat().st_size == 1 + POOL_RETRIES


def test_deaths_up_to_the_retry_limit_are_recovered(tmp_path):
    log = tmp_path / "attempts"
    flaky = _KillFirst(str(log), poison=2, deaths=POOL_RETRIES, fn=_ok)
    assert ParallelExecutor(jobs=2).map(flaky, [1, 2, 3]) == [2, 3, 4]
    assert log.stat().st_size == 1 + POOL_RETRIES


def test_results_in_input_order_with_uneven_runtimes():
    items = list(range(8))
    assert ParallelExecutor(jobs=2).map(_sleepy_echo, items) == items


def test_task_exception_propagates_and_is_not_retried(tmp_path):
    log = tmp_path / "attempts"
    with pytest.raises(ValueError, match="boom on 1"):
        ParallelExecutor(jobs=2).map(_CountCalls(str(log), _boom), [1, 1])
    assert log.stat().st_size <= 2  # each item ran at most once


def test_killed_worker_raises_worker_died_error():
    executor = ParallelExecutor(jobs=2)
    with pytest.raises(WorkerDiedError, match="worker process died"):
        executor.map(_suicide, list(range(8)))


def test_pool_that_can_never_finish_raises_instead_of_stalling(tmp_path):
    log = tmp_path / "attempts"
    doomed = _KillFirst(str(log), poison=None, deaths=10**6, fn=_ok)
    with pytest.raises(WorkerDiedError, match="lost 2 of 2 items"):
        ParallelExecutor(jobs=2).map(doomed, [None, None])
    # every pool, the first and each retry, ran at least one item
    assert log.stat().st_size >= 1 + POOL_RETRIES


def test_error_names_the_lost_items():
    executor = ParallelExecutor(jobs=2)
    with pytest.raises(WorkerDiedError, match="lost 4 of 4 items: 0, 1, 2, 3"):
        executor.map(_suicide, list(range(4)))


def test_healthy_pool_is_unaffected():
    assert ParallelExecutor(jobs=2).map(_ok, [1, 2, 3]) == [2, 3, 4]


def test_make_executor_jobs_semantics():
    assert isinstance(make_executor(None), SerialExecutor)
    assert isinstance(make_executor(0), SerialExecutor)
    assert isinstance(make_executor(1), SerialExecutor)
    parallel = make_executor(3)
    assert isinstance(parallel, ParallelExecutor)
    assert parallel.jobs == 3
