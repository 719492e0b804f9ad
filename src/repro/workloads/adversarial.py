"""Crash-sweep adversarial fixture: a cross-thread publish race.

``xpub`` is a crash-test fixture (never part of the stock suite) built
to make the ``ASAP_NO_UNDO`` ablation fail its crash sweep.  Thread 0
jams memory controller 0 with a burst of line writes inside a critical
section, publishes a record on the same controller, and releases the
lock *immediately* -- while the burst is still in flight.  Thread 1
acquires the lock, reads the publication, and writes its own record on
the *other* controller, which is idle and acknowledges instantly.

Under release persistency the acquire raises a cross-thread persist
dependency: thread 1's write must never become durable before thread
0's publication.  Every sound design honours that (the oracle chain
``a -> b`` stays green at all crash points).  The ``ASAP_NO_UNDO``
ablation flushes speculatively but has no recovery table to unwind, so
a crash inside the handoff window leaves ``b`` on media while ``a`` is
still stuck behind the jam -- a single-line media delta the campaign's
minimizer shrinks to.
"""

from __future__ import annotations

from typing import List

from repro.core.api import (
    Acquire,
    Compute,
    DFence,
    Load,
    OFence,
    PMAllocator,
    Program,
    Release,
    Store,
)
from repro.workloads.base import INTERLEAVE, LINE, Workload, mc_lines


class CrossThreadPublish(Workload):
    """Lock-handoff publish with a jammed home controller."""

    name = "xpub"
    category = "fixture"
    default_ops = 1
    lint_suppressions = {
        # the publication is deliberately released without a fence: under
        # release persistency the *hardware* must order it before any
        # dependent write -- that contract is what the fixture probes.
        "unfenced-release": (
            "xpub publishes under the release by design: the crash sweep "
            "verifies the hardware's release-persistency ordering, which "
            "is exactly what an unfenced publish relies on (docs/lint.md)"
        ),
    }

    #: lines in the MC0 jam burst; large enough that the WPQ and persist
    #: queue are still draining when the lock is handed over.
    JAM_LINES = 40

    def programs(self, heap: PMAllocator, num_threads: int) -> List[Program]:
        lock = heap.alloc_lock()
        chunk = heap.alloc(96 * 1024, align=INTERLEAVE)
        burst = mc_lines(chunk, 0, self.JAM_LINES)
        publish = mc_lines(chunk + 48 * 1024, 0, 1)[0]
        reaction = mc_lines(chunk + 64 * 1024, 1, 1)[0]
        clean = heap.alloc_lines(max(1, num_threads))

        def publisher() -> Program:
            yield Acquire(lock)
            for addr in burst:
                yield Store(addr, 64)
            yield Store(publish, 64, ("ot", "xpub", 0))
            # release immediately: the jam is still in flight, so the
            # cross-thread dependency forms inside the drain window.
            yield Release(lock)
            yield Compute(3000)
            yield DFence()

        def subscriber() -> Program:
            yield Compute(40)
            yield Acquire(lock)
            yield Load(publish, 8)
            yield Store(reaction, 64, ("ot", "xpub", 1))
            yield OFence()
            yield Release(lock)
            yield DFence()

        def clean_worker(thread: int) -> Program:
            yield Compute(60)
            yield Store(clean + thread * LINE, 8)
            yield OFence()
            yield DFence()

        programs: List[Program] = []
        for thread in range(num_threads):
            if thread == 0:
                programs.append(publisher())
            elif thread == 1:
                programs.append(subscriber())
            else:
                programs.append(clean_worker(thread))
        return programs


__all__ = ["CrossThreadPublish"]
