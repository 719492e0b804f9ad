"""Fabric tasks: the unit of work the scheduler ships to workers.

A :class:`TaskEnvelope` wraps one ``executor.map`` call -- a
module-level function and one item -- into a picklable record the
directory queue can persist and any worker process can execute.  Pickle
stores a module-level function by reference, so an externally attached
worker (``repro fabric worker``) only needs the same source tree.

There is one dispatch rule: the worker calls ``fn(item)``.  Every spec
kind (:class:`repro.exp.spec.RunSpec`, :class:`repro.crashtest.campaign.
CrashPointSpec`, :class:`repro.litmus.spec.LitmusSpec`) arrives as
``(execute_spec, spec)``; anything else (the bench suite's cases) as
its own function and item.

``task_id`` is content-addressed.  An item with a ``key()`` (a
:class:`repro.exp.cache.Spec`) is identified by that key, so
re-enqueueing the same spec -- from a retry or a second ``map`` --
collapses onto the same task, and two workers racing on it write
byte-identical results.  Any other item is identified by the hash of
the function's qualname plus the pickled item (stable within one
scheduler run, which is all retry needs).

Simulation is deterministic given a spec, so a retried or duplicated
execution always reproduces the same result -- "at-least-once
execution, exactly-once results".  Results are not cached here: the
driver (:func:`repro.exp.plan.run_specs`) serves cache hits before the
fabric sees a cell.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.exp.cache import content_key

#: bump when envelope encoding or dispatch semantics change.
FABRIC_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class TaskEnvelope:
    """One schedulable unit: id, the call to make, display label."""

    task_id: str
    fn: Callable[[Any], Any]
    item: Any
    label: str


@dataclass(frozen=True)
class TaskOutcome:
    """What a worker wrote back for one task."""

    task_id: str
    ok: bool
    value: Any = None
    error: Optional[str] = None
    worker: str = ""


class FabricTaskError(RuntimeError):
    """A task raised (or repeatedly killed its worker); the fabric
    completed the campaign but this task has no usable result."""


def envelope_for(fn: Callable[[Any], Any], item: Any) -> TaskEnvelope:
    """Wrap one ``executor.map`` item into an envelope."""
    name = f"{fn.__module__}:{fn.__qualname__}"
    if hasattr(item, "key"):
        task_id = hashlib.sha256(f"{name}:{item.key()}".encode("utf-8"))
        label = str(item.label())
    else:
        task_id = hashlib.sha256(pickle.dumps((name, item), protocol=4))
        label = f"call:{fn.__qualname__}"
    return TaskEnvelope(
        task_id=task_id.hexdigest(), fn=fn, item=item, label=label
    )


def fingerprint_sha(result: Any) -> str:
    """Stable hex digest of a WorkloadResult fingerprint.

    Used by the ``repro fabric grid`` document so two runs of the same
    cell can be compared without shipping the whole stats registry.
    """
    return content_key(result.fingerprint())


__all__ = [
    "FABRIC_SCHEMA_VERSION",
    "FabricTaskError",
    "TaskEnvelope",
    "TaskOutcome",
    "envelope_for",
    "fingerprint_sha",
]
