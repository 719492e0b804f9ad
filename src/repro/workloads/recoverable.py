"""Crash fixtures with real recovery procedures: a log and a KV store.

The Table III workloads reproduce the *shape* of published structures
for the performance study.  These two fixtures go the other way: small,
complete, recoverable structures whose recovery procedures run against
every crash image of a ``repro crashtest`` campaign, showing what ASAP's
ordering primitives buy a library author.

- ``plog`` -- one append-only log per thread.  Appends are ordered (an
  ofence per entry), so a crash may only lose a *suffix*; a **hole** (a
  missing entry below a surviving later one) is what broken ordering
  looks like.
- ``pkv`` -- a chained-hash KV store with out-of-place entries.  An
  entry is written and ordered *before* the bucket head that names it,
  so a recovered pointer can never **dangle** on hardware that keeps
  persist ordering.

Each ``recovery_oracle`` adds what :meth:`recover` finds to the base
chain oracle.  Recovery reads the crash image alone: entries carry their
sequence numbers and pointers are stored as addresses, so a state loaded
for ``--replay`` is judged exactly like a live one.

Both fixtures jam memory controller 0 with untagged line writes before
every operation and steer their own lines so that an earlier write waits
behind the jam while a later one goes to the idle controller 1.  Sound
designs stay clean under that jam.  The ``asap_no_undo`` ablation, which
flushes speculatively with no undo records, leaves holes and dangling
pointers with a wide flush window (``MachineConfig(pb_inflight_max=32)``).
At the default of 8 in-flight flushes the persist buffer serializes
against the jammed controller and hides the log's reorder; the KV store
still dangles there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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

#: jam lines written to controller 0 ahead of every operation.
JAM_PER_OP = 8


def _steered(heap: PMAllocator, mc: int, count: int) -> List[int]:
    """Allocate ``count`` fresh lines that all map to controller ``mc``."""
    base = heap.alloc((2 * count + 4) * LINE, align=INTERLEAVE)
    return mc_lines(base, mc, count)


def _jam(lines: List[int], op: int) -> Program:
    for j in range(JAM_PER_OP):
        yield Store(lines[(op * JAM_PER_OP + j) % len(lines)], LINE)


def _surviving(state, tag: str):
    """``(line, payload)`` of every surviving write tagged ``tag``."""
    for line, write_id in sorted(state.media.items()):
        payload = state.log.payloads.get(write_id)
        if isinstance(payload, tuple) and payload and payload[0] == tag:
            yield line, payload


# ---------------------------------------------------------------------------
# plog
# ---------------------------------------------------------------------------

@dataclass
class LogRecovery:
    """What :meth:`PersistentLog.recover` finds in a crash image."""

    #: log (thread) -> values of its clean prefix, in append order.
    values: Dict[int, List[object]]
    #: (log, seq) of every entry lost while a later entry survived.
    holes: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.holes


class PersistentLog(Workload):
    """One ordered append-only log per thread, entries alternating MCs.

    Entry ``seq`` of log ``t`` is a 48-byte store with payload
    ``("plog", t, seq, value)`` followed by an ofence.  Even entries sit
    on the jammed controller, odd ones on the idle one.
    """

    name = "plog"
    category = "fixture"
    default_ops = 16

    def programs(self, heap: PMAllocator, num_threads: int) -> List[Program]:
        appends = self.ops_per_thread
        programs: List[Program] = []
        for thread in range(num_threads):
            even = _steered(heap, 0, (appends + 1) // 2)
            odd = _steered(heap, 1, appends // 2)
            slots = [(odd if seq % 2 else even)[seq // 2]
                     for seq in range(appends)]
            jam = _steered(heap, 0, 4 * JAM_PER_OP)
            programs.append(self._appender(thread, slots, jam))
        return programs

    def _appender(self, thread: int, slots: List[int],
                  jam: List[int]) -> Program:
        rng = self._rng(thread)
        for seq, slot in enumerate(slots):
            yield from _jam(jam, seq)
            yield Store(slot, 48,
                        ("plog", thread, seq, f"record-{thread}.{seq}"))
            yield OFence()
            yield Compute(rng.randrange(20, 80))
        yield DFence()

    def recover(self, state) -> LogRecovery:
        """Each log's clean prefix, and every hole below a survivor."""
        found: Dict[int, Dict[int, object]] = {}
        for _, (_, log, seq, value) in _surviving(state, "plog"):
            found.setdefault(log, {})[seq] = value
        values: Dict[int, List[object]] = {}
        holes: List[Tuple[int, int]] = []
        for log in sorted(found):
            entries = found[log]
            prefix: List[object] = []
            while len(prefix) in entries:
                prefix.append(entries[len(prefix)])
            values[log] = prefix
            holes += [(log, seq) for seq in range(max(entries))
                      if seq not in entries]
        return LogRecovery(values=values, holes=holes)

    def recovery_oracle(self, state) -> List[str]:
        return super().recovery_oracle(state) + [
            f"plog: hole in log {log}: entry {seq} lost while a later "
            f"entry survived"
            for log, seq in self.recover(state).holes
        ]


# ---------------------------------------------------------------------------
# pkv
# ---------------------------------------------------------------------------

@dataclass
class KVRecovery:
    """What :meth:`PersistentKV.recover` finds in a crash image."""

    #: key -> newest recovered value.
    values: Dict[int, object]
    #: (pointer's line, entry address it names) of every dangling
    #: pointer: a bucket head or the chain link inside an entry.
    dangling: List[Tuple[int, int]] = field(default_factory=list)
    #: entries reached by chain walks.
    entries_found: int = 0

    @property
    def clean(self) -> bool:
        return not self.dangling


class PersistentKV(Workload):
    """A chained-hash KV store with out-of-place, ordered-first entries.

    A put takes the bucket's lock, writes the entry
    ``("pkv-entry", key, value, prev_addr)`` on the jammed controller,
    ofences, then publishes the bucket head ``("pkv-head", entry_addr)``
    on the idle controller.  Keys are small integers and a key's bucket
    is ``key % BUCKETS``, so placement is the same in every process.
    """

    name = "pkv"
    category = "fixture"
    default_ops = 16
    BUCKETS = 4
    KEYS = 10

    def programs(self, heap: PMAllocator, num_threads: int) -> List[Program]:
        heads = _steered(heap, 1, self.BUCKETS)
        locks = [heap.alloc_lock() for _ in range(self.BUCKETS)]
        # the volatile view: bucket -> address its head names
        newest: Dict[int, Optional[int]] = {}
        programs: List[Program] = []
        for thread in range(num_threads):
            pool = _steered(heap, 0, self.ops_per_thread)
            jam = _steered(heap, 0, 4 * JAM_PER_OP)
            programs.append(
                self._putter(thread, heads, locks, newest, pool, jam)
            )
        return programs

    def _putter(self, thread, heads, locks, newest, pool, jam) -> Program:
        rng = self._rng(thread)
        for op, entry in enumerate(pool):
            key = rng.randrange(self.KEYS)
            bucket = key % self.BUCKETS
            yield from _jam(jam, op)
            yield Acquire(locks[bucket])
            yield Load(heads[bucket], 8)
            prev = newest.get(bucket)
            newest[bucket] = entry
            yield Store(entry, 48,
                        ("pkv-entry", key, f"v{thread}.{op}", prev))
            # the entry must be durable before anything names it
            yield OFence()
            yield Store(heads[bucket], 8, ("pkv-head", entry))
            yield Release(locks[bucket])
            yield Compute(rng.randrange(20, 80))
        yield DFence()

    def recover(self, state) -> KVRecovery:
        """Walk every chain from its surviving head."""
        values: Dict[int, object] = {}
        dangling: List[Tuple[int, int]] = []
        found = 0
        for holder, (_, addr) in _surviving(state, "pkv-head"):
            while addr is not None:
                entry = state.surviving_payload(addr)
                if not (isinstance(entry, tuple)
                        and entry[:1] == ("pkv-entry",)):
                    dangling.append((holder, addr))
                    break
                found += 1
                holder = addr
                _, key, value, addr = entry
                # chains run newest-first
                values.setdefault(key, value)
        return KVRecovery(values=values, dangling=dangling,
                          entries_found=found)

    def recovery_oracle(self, state) -> List[str]:
        return super().recovery_oracle(state) + [
            f"pkv: dangling pointer at {holder:#x}: entry {addr:#x} "
            f"never persisted"
            for holder, addr in self.recover(state).dangling
        ]


__all__ = ["KVRecovery", "LogRecovery", "PersistentKV", "PersistentLog"]
