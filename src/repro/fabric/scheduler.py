"""The fabric scheduler: shard, lease, steal, survive.

:class:`FabricScheduler` owns a :class:`~repro.fabric.queue.FabricQueue`
and a pool of worker *processes*, and runs an asynchronous pump thread
that turns the queue's files into campaign results:

- **submit** -- :meth:`map` persists one task envelope per item
  (idempotent by content hash, so a repeated item runs once) and waits
  for their results in input order.
- **collect** -- each pump tick sweeps new result files into memory,
  appends one JSONL line per completed task to the incremental stream
  (``results.jsonl``), emits :class:`~repro.obs.events.Event`\\ s, and
  wakes the waiting :meth:`map`.
- **steal** -- a lease whose owner pid is dead (SIGKILL, OOM) or whose
  age exceeds ``lease_timeout`` is reaped: the lease file is deleted,
  the task becomes claimable again, and some worker re-runs it.
  Determinism makes the retry byte-identical, so nothing is lost and
  nothing is duplicated.
- **respawn** -- a dead worker is replaced (up to ``max_respawns``)
  while work is pending, so the fabric keeps its width.
- **budget** -- a task that kills its worker ``max_retries`` times is
  failed *by the scheduler* with a clear error instead of looping
  forever.

The pump thread never executes simulation work itself, so the scheduler
stays responsive regardless of cell runtimes.  ``chaos_kill_after`` is
the fault-injection hook the CI ``fabric-gate`` uses: after N collected
results the scheduler SIGKILLs one of its own workers and the campaign
must still converge byte-identically.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import tempfile
import threading
import time
from dataclasses import dataclass
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Dict, IO, List, Optional, Sequence, Union

from repro.exp.cache import canonical_json
from repro.fabric.queue import FabricQueue
from repro.fabric.tasks import (
    FabricTaskError,
    TaskEnvelope,
    TaskOutcome,
    envelope_for,
)


class FabricStalledError(RuntimeError):
    """Every worker died and respawn could not restore the pool."""


@dataclass
class _TaskMeta:
    label: str
    retries: int = 0


@dataclass
class _WorkerRecord:
    worker_id: str
    process: BaseProcess
    dead: bool = False


class FabricScheduler:
    """Shard tasks over worker processes with lease-based retry."""

    def __init__(
        self,
        jobs: int = 2,
        queue_dir: Optional[Union[str, "os.PathLike[str]"]] = None,
        stream_path: Optional[str] = None,
        sinks: Optional[List[Any]] = None,
        poll_interval: float = 0.02,
        lease_timeout: float = 120.0,
        respawn: bool = True,
        max_respawns: int = 8,
        max_retries: int = 3,
        chaos_kill_after: Optional[int] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"need at least one worker, got {jobs}")
        self.jobs = jobs
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if queue_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-fabric-")
            queue_dir = self._tmpdir.name
        self.queue = FabricQueue(queue_dir)
        self.queue.resume()  # a reused persistent queue may carry STOP
        self.sinks = list(sinks) if sinks else []
        self.poll_interval = poll_interval
        self.lease_timeout = lease_timeout
        self.respawn = respawn
        self.max_respawns = max_respawns
        self.max_retries = max_retries
        self.chaos_kill_after = chaos_kill_after

        self._lock = threading.RLock()
        #: notified by the pump whenever a task's outcome arrives.
        self._progress = threading.Condition(self._lock)
        self._meta: Dict[str, _TaskMeta] = {}
        self._outcomes: Dict[str, TaskOutcome] = {}
        self._workers: List[_WorkerRecord] = []
        self._worker_seq = 0
        self._respawns = 0
        self._event_seq = 0
        self._chaos_done = False
        self._stream: Optional[IO[str]] = None
        self._stream_path = stream_path
        self._pump: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._stalled: Optional[str] = None
        self.counters: Dict[str, int] = {
            "tasks_submitted": 0,
            "tasks_deduped": 0,
            "tasks_completed": 0,
            "tasks_failed": 0,
            "tasks_retried": 0,
            "leases_stolen": 0,
            "workers_spawned": 0,
            "workers_died": 0,
            "workers_respawned": 0,
            "chaos_kills": 0,
        }

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker pool and the pump thread (idempotent)."""
        with self._lock:
            if self._pump is not None:
                return
            for _ in range(self.jobs):
                self._spawn_worker()
            self._pump = threading.Thread(
                target=self._pump_loop, name="fabric-pump", daemon=True
            )
            self._pump.start()

    def close(self) -> None:
        """Stop workers, drain the pump, flush the stream."""
        self.queue.stop()
        self._stop.set()
        if self._pump is not None:
            self._pump.join(timeout=10.0)
            self._pump = None
        for record in self._workers:
            record.process.join(timeout=5.0)
            if record.process.is_alive():
                record.process.terminate()
                record.process.join(timeout=2.0)
        if self._stream is not None:
            self._stream.close()
            self._stream = None
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __enter__(self) -> "FabricScheduler":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- submission ---------------------------------------------------------

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        timeout: Optional[float] = None,
    ) -> List[Any]:
        """``executor.map`` semantics over the fabric (in input order).

        Content-identical items (within or across calls) collapse onto
        one task; every position still receives its result.  Raises
        :class:`FabricTaskError` if any task errored and
        :class:`FabricStalledError` if the worker pool died for good.
        """
        task_ids = [self._submit(envelope_for(fn, item)) for item in items]
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._progress:
            while not self._progress.wait_for(
                lambda: all(tid in self._outcomes for tid in task_ids),
                timeout=0.05,
            ):
                self._check_health()
                if deadline is not None and time.monotonic() > deadline:
                    done = sum(1 for tid in task_ids if tid in self._outcomes)
                    raise TimeoutError(
                        f"fabric map incomplete after {timeout}s "
                        f"({done}/{len(task_ids)} tasks)"
                    )
            outcomes = [self._outcomes[tid] for tid in task_ids]
        for tid, outcome in zip(task_ids, outcomes):
            if not outcome.ok:
                raise FabricTaskError(
                    f"task {self._meta[tid].label} failed: {outcome.error}"
                )
        return [outcome.value for outcome in outcomes]

    def _submit(self, env: TaskEnvelope) -> str:
        """Persist ``env`` unless a content-identical task exists."""
        self.start()
        with self._lock:
            if env.task_id in self._meta:
                self.counters["tasks_deduped"] += 1
            else:
                self._meta[env.task_id] = _TaskMeta(label=env.label)
                self.queue.add_task(env)
                self.counters["tasks_submitted"] += 1
                self._emit("fabric_task", kind="submit", value=None)
        return env.task_id

    # -- pump ---------------------------------------------------------------

    def _pump_loop(self) -> None:
        while not self._stop.is_set():
            try:
                self._tick()
            except Exception as exc:  # pragma: no cover -- belt+braces
                with self._lock:
                    self._stalled = f"scheduler pump crashed: {exc!r}"
                return
            time.sleep(self.poll_interval)

    def _tick(self) -> None:
        self._collect_results()
        self._check_workers()
        self._reap_leases()
        self._maybe_chaos()

    def _collect_results(self) -> None:
        for task_id in self.queue.result_ids():
            with self._lock:
                if task_id in self._outcomes or task_id not in self._meta:
                    continue
            outcome = self.queue.read_result(task_id)
            if outcome is None:  # torn write: task will be re-run
                continue
            with self._lock:
                meta = self._meta[task_id]
                self._outcomes[task_id] = outcome
                self.counters["tasks_completed"] += 1
                if not outcome.ok:
                    self.counters["tasks_failed"] += 1
                self._stream_line(
                    {
                        "task": task_id[:16],
                        "label": meta.label,
                        "ok": outcome.ok,
                        "worker": outcome.worker,
                        "attempt": meta.retries + 1,
                        "error": outcome.error,
                    }
                )
                self._emit(
                    "fabric_task",
                    kind="done" if outcome.ok else "error",
                    value=len(self._meta) - len(self._outcomes),
                )
                self._progress.notify_all()

    def _check_workers(self) -> None:
        with self._lock:
            pending = len(self._meta) > len(self._outcomes)
            for record in self._workers:
                if record.dead or record.process.is_alive():
                    continue
                record.dead = True
                self.counters["workers_died"] += 1
                self._emit("fabric_worker", kind="death")
                self._steal_worker_leases(record.worker_id)
                if (
                    pending
                    and self.respawn
                    and self._respawns < self.max_respawns
                ):
                    self._respawns += 1
                    self._spawn_worker(respawned=True)

    def _reap_leases(self) -> None:
        now = time.time()
        for task_id in self.queue.lease_ids():
            with self._lock:
                if task_id in self._outcomes:
                    self.queue.release_lease(task_id)  # finished: tidy up
                    continue
            lease = self.queue.lease_info(task_id)
            if lease is None:
                continue
            expired = now - lease.ts > self.lease_timeout
            if not expired and _pid_alive(lease.pid):
                continue
            self._steal_lease(task_id)

    def _steal_worker_leases(self, worker_id: str) -> None:
        for task_id in self.queue.lease_ids():
            lease = self.queue.lease_info(task_id)
            if lease is None or lease.worker != worker_id:
                continue
            if task_id in self._outcomes:
                self.queue.release_lease(task_id)
                continue
            self._steal_lease(task_id)

    def _steal_lease(self, task_id: str) -> None:
        """Reap one dead/expired lease; enforce the retry budget."""
        with self._lock:
            meta = self._meta.get(task_id)
            if meta is None or task_id in self._outcomes:
                self.queue.release_lease(task_id)
                return
            meta.retries += 1
            self.counters["leases_stolen"] += 1
            self._emit("fabric_lease", kind="steal", value=meta.retries)
            if meta.retries > self.max_retries:
                # the task keeps killing its workers: fail it cleanly
                # rather than looping forever.
                self.queue.write_result(
                    TaskOutcome(
                        task_id=task_id,
                        ok=False,
                        error=(
                            f"task killed its worker {meta.retries} "
                            f"times (retry budget {self.max_retries})"
                        ),
                        worker="scheduler",
                    )
                )
            else:
                self.counters["tasks_retried"] += 1
        self.queue.release_lease(task_id)

    def _maybe_chaos(self) -> None:
        if self.chaos_kill_after is None or self._chaos_done:
            return
        with self._lock:
            if self.counters["tasks_completed"] < self.chaos_kill_after:
                return
            victim = next(
                (r for r in self._workers
                 if not r.dead and r.process.is_alive()),
                None,
            )
            if victim is None:
                return
            pid = victim.process.pid
            if pid is None:
                return
            self._chaos_done = True
            self.counters["chaos_kills"] += 1
            self._emit("fabric_worker", kind="chaos-kill")
        os.kill(pid, signal.SIGKILL)

    # -- internals ----------------------------------------------------------

    def _spawn_worker(self, respawned: bool = False) -> None:
        self._worker_seq += 1
        worker_id = f"w{self._worker_seq}"
        ctx = multiprocessing.get_context()
        process = ctx.Process(
            target=_worker_entry,
            args=(str(self.queue.root), worker_id, self.poll_interval),
            name=f"fabric-{worker_id}",
            daemon=True,
        )
        process.start()
        self._workers.append(_WorkerRecord(worker_id=worker_id,
                                           process=process))
        self.counters["workers_spawned"] += 1
        if respawned:
            self.counters["workers_respawned"] += 1
        self._emit(
            "fabric_worker", kind="respawn" if respawned else "spawn"
        )

    def _check_health(self) -> None:
        with self._lock:
            if self._stalled is not None:
                raise FabricStalledError(self._stalled)
            pending = len(self._meta) > len(self._outcomes)
            alive = any(
                not r.dead and r.process.is_alive() for r in self._workers
            )
            can_respawn = self.respawn and self._respawns < self.max_respawns
        if pending and not alive and not can_respawn:
            raise FabricStalledError(
                "every fabric worker died and the respawn budget is "
                "exhausted; pending tasks cannot complete"
            )

    def _stream_line(self, doc: Dict[str, Any]) -> None:
        if self._stream is None:
            path = self._stream_path or str(self.queue.stream_path)
            self._stream = open(path, "a")
        doc = {k: v for k, v in doc.items() if v is not None}
        self._stream.write(canonical_json(doc) + "\n")
        self._stream.flush()

    def _emit(self, event: str, kind: str, value: Optional[int] = None) -> None:
        if not self.sinks:
            return
        from repro.obs.events import Event, EventType

        self._event_seq += 1
        record = Event(
            cycle=self._event_seq,
            type=EventType(event),
            comp="fabric",
            core=None, mc=None, epoch=None, line=None, reason=None,
            dur=None, kind=kind, value=value,
        )
        for sink in self.sinks:
            sink.handle(record)

    def counters_snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self.counters)


def _worker_entry(queue_dir: str, worker_id: str, poll_interval: float) -> None:
    from repro.fabric.worker import worker_loop

    worker_loop(queue_dir, worker_id, poll_interval=poll_interval)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


__all__ = ["FabricScheduler", "FabricStalledError"]
