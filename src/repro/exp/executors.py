"""Pluggable execution backends for experiment plans.

An executor maps a pure function over a list of items and returns the
results *in input order*.  Implementations:

- :class:`SerialExecutor` -- runs in-process, one item at a time.  Zero
  overhead; the default, and the reference semantics.
- :class:`ParallelExecutor` -- fans items out over a
  ``concurrent.futures.ProcessPoolExecutor`` with ``jobs`` workers.
  Simulation cells are CPU-bound pure Python, so processes (not threads)
  are the only way to use more than one core.  A worker that dies
  (SIGKILL, OOM) breaks its pool; the items that pool lost are re-run
  in a fresh one.

Because every cell is deterministic given its :class:`~repro.exp.spec.
RunSpec`, the executors are interchangeable: same plan, same results,
different wall-clock (see ``tests/exp/test_determinism.py``).  The same
determinism makes re-running a lost cell safe: the retry reproduces the
result the dead worker would have returned, byte for byte.
"""

from __future__ import annotations

import concurrent.futures
import os
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any,
    Callable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TypeVar,
)

T = TypeVar("T")
R = TypeVar("R")

#: fresh pools one :meth:`ParallelExecutor.map` may start to re-run the
#: items a broken pool lost, before it gives up.
POOL_RETRIES = 3


class Executor(Protocol):
    """What plan/campaign/litmus drivers require of an execution backend."""

    jobs: int

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item; results in input order."""
        ...


class WorkerDiedError(RuntimeError):
    """Pool workers kept dying: some items were lost by the first pool
    and by every one of its :data:`POOL_RETRIES` replacements."""


class SerialExecutor:
    """Run every item in the calling process, in order."""

    jobs = 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        return [fn(item) for item in items]

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ParallelExecutor:
    """Fan items out across ``jobs`` worker processes.

    ``fn`` and every item must be picklable (specs and their results
    are, by design).  Results come back in input order regardless of
    completion order, so parallel runs are drop-in replacements for
    serial ones.  An exception raised by ``fn`` propagates unchanged;
    only a dead worker triggers a retry.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = jobs or os.cpu_count() or 1
        if self.jobs < 1:
            raise ValueError(f"need at least one worker, got {jobs}")

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        items = list(items)
        if not items:
            return []
        # A pool wider than the work list just burns fork latency.
        if min(self.jobs, len(items)) == 1:
            return [fn(item) for item in items]
        results: List[Any] = [None] * len(items)
        pending = list(range(len(items)))
        for _attempt in range(1 + POOL_RETRIES):
            pending = _map_in_fresh_pool(
                fn, [(index, items[index]) for index in pending],
                results, self.jobs,
            )
            if not pending:
                return results
        raise WorkerDiedError(
            f"a worker process died in each of {1 + POOL_RETRIES} pools; "
            f"lost {len(pending)} of {len(items)} items: "
            f"{_describe([items[index] for index in pending])}"
        )

    def __repr__(self) -> str:
        return f"ParallelExecutor(jobs={self.jobs})"


def _map_in_fresh_pool(
    fn: Callable[[T], R],
    work: List[Tuple[int, T]],
    results: List[Any],
    jobs: int,
) -> List[int]:
    """Run ``work`` in one new pool, filling ``results`` by index.

    Returns the indices the pool lost because a worker died: the item
    that killed it and every item not yet finished when it broke.
    """
    lost: List[int] = []
    pool = concurrent.futures.ProcessPoolExecutor(min(jobs, len(work)))
    try:
        futures = []
        for index, item in work:
            try:
                futures.append((index, pool.submit(fn, item)))
            except BrokenProcessPool:
                lost.append(index)
        for index, future in futures:
            try:
                results[index] = future.result()
            except BrokenProcessPool:
                lost.append(index)
    finally:
        # on an exception from ``fn``, do not run the rest of the queue.
        pool.shutdown(wait=True, cancel_futures=True)
    return sorted(lost)


def _describe(items: List[Any], limit: int = 8) -> str:
    """Item labels (a spec's ``label()``, else its repr), capped."""
    names = [
        str(item.label()) if hasattr(item, "label") else repr(item)
        for item in items[:limit]
    ]
    more = len(items) - limit
    return ", ".join(names) + (f", and {more} more" if more > 0 else "")


def make_executor(jobs: Optional[int] = None) -> Executor:
    """``jobs`` semantics shared by the CLI and the drivers:

    ``None``/``0``/``1`` -> serial; ``N > 1`` -> N worker processes.
    """
    if jobs is None or jobs in (0, 1):
        return SerialExecutor()
    return ParallelExecutor(jobs)


__all__ = [
    "Executor",
    "POOL_RETRIES",
    "ParallelExecutor",
    "SerialExecutor",
    "WorkerDiedError",
    "make_executor",
]
