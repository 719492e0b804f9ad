"""Serializable simulator checkpoints.

A checkpoint captures a :class:`repro.core.machine.Machine` at a
*quiescent barrier* (every core parked at an op boundary, event queue
drained) in a versioned canonical-JSON envelope.  Restoring rebuilds an
identical machine: ``(run_to_barrier -> save -> load -> resume ->
continue)`` is event-for-event identical to continuing the original
machine in-process.

Checkpoints serve two consumers:

- ``repro crashtest --replay --from-checkpoint`` uses one as the anchor
  to re-simulate a saved failure from;
- the sampling pipeline (:mod:`repro.sample`) uses the same barrier
  machinery to measure statistics over representative intervals.
"""

from repro.ckpt.codec import (
    CKPT_KIND,
    CKPT_SCHEMA_VERSION,
    checkpoint_doc,
    dumps_checkpoint,
    load_checkpoint,
    loads_checkpoint,
    save_checkpoint,
)
from repro.ckpt.api import (
    CheckpointCell,
    create_checkpoint,
    describe_checkpoint,
    resume_machine,
    run_fingerprint,
)

__all__ = [
    "CKPT_KIND",
    "CKPT_SCHEMA_VERSION",
    "CheckpointCell",
    "checkpoint_doc",
    "create_checkpoint",
    "describe_checkpoint",
    "dumps_checkpoint",
    "load_checkpoint",
    "loads_checkpoint",
    "resume_machine",
    "run_fingerprint",
    "save_checkpoint",
]
