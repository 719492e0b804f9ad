"""Fully-specified experiment cells.

A :class:`RunSpec` pins down everything that determines one simulation
run: the workload (by canonical registry name), the evaluated design
(a :class:`~repro.core.models.ModelSpec`), the machine, the per-run
knobs, and the seed.  Two properties make the whole `repro.exp`
subsystem work:

1. **Content addressability** -- :meth:`RunSpec.key` hashes every field
   that can influence the result, so an on-disk cache entry is valid iff
   its key matches (see :mod:`repro.exp.cache`).  ``RunSpec`` is one of
   the :class:`~repro.exp.cache.Spec` kinds.
2. **Process portability** -- a spec is a frozen dataclass of plain
   values (names, enums, frozen configs), so it pickles cleanly into a
   ``ProcessPoolExecutor`` worker and back.

``RunSpec`` is *the* one way to build a run: it accepts a workload name
or class and a model name or spec, and it threads ``seed`` /
``ops_per_thread`` / ``num_threads`` uniformly into both the workload
RNG and the simulator's :class:`~repro.sim.config.RunConfig` (the old
``sweep()`` path seeded only the workload).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Type, TypeVar, Union

from repro.core.models import ModelSpec, resolve_model
from repro.exp.cache import Spec, content_key, jsonable
from repro.sim.config import MachineConfig, RunConfig
from repro.workloads.base import Workload, WorkloadResult, run_workload
from repro.workloads.registry import get_workload

#: Bump whenever the simulator's semantics change in a way that
#: invalidates previously cached results (it participates in the key).
SPEC_SCHEMA_VERSION = 1

R = TypeVar("R")


def _resolve_workload_name(workload: Union[str, Type[Workload]]) -> str:
    """Normalize a workload class or name to its canonical registry name."""
    if isinstance(workload, str):
        get_workload(workload)  # raises KeyError with the available names
        return workload
    if isinstance(workload, type) and issubclass(workload, Workload):
        name = workload.name
        registered = type(get_workload(name))
        if registered is not workload:
            raise ValueError(
                f"workload class {workload.__name__} is not the registered "
                f"implementation of {name!r}; register it in "
                "repro.workloads.registry before building a RunSpec"
            )
        return name
    raise TypeError(f"workload must be a name or Workload class: {workload!r}")


@dataclass(frozen=True)
class RunSpec:
    """One fully-specified cell of an experiment grid."""

    workload: str
    model: ModelSpec
    machine: MachineConfig = dataclasses.field(default_factory=MachineConfig)
    ops_per_thread: Optional[int] = None
    num_threads: Optional[int] = None
    seed: int = 7
    #: run with structured event tracing and attach a stall-attribution
    #: summary to the result (see :mod:`repro.obs`).  Participates in the
    #: cache key only when True, so every pre-existing untraced key is
    #: unchanged.
    events: bool = False

    def __init__(
        self,
        workload: Union[str, Type[Workload]],
        model: Union[str, ModelSpec],
        machine: Optional[MachineConfig] = None,
        ops_per_thread: Optional[int] = None,
        num_threads: Optional[int] = None,
        seed: int = 7,
        events: bool = False,
    ) -> None:
        object.__setattr__(self, "workload", _resolve_workload_name(workload))
        object.__setattr__(self, "model", resolve_model(model))
        object.__setattr__(self, "machine", machine or MachineConfig())
        object.__setattr__(self, "ops_per_thread", ops_per_thread)
        object.__setattr__(self, "num_threads", num_threads)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "events", bool(events))

    # -- construction helpers ---------------------------------------------

    def build_workload(self) -> Workload:
        return get_workload(
            self.workload, ops_per_thread=self.ops_per_thread, seed=self.seed
        )

    def run_config(self) -> RunConfig:
        # seed flows into the simulator too, so workload RNG and
        # simulator RNG always agree (the historical sweep() bug).
        return self.model.run_config(seed=self.seed)

    # -- identity -----------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """Deterministic, JSON-serializable identity of this spec.

        The model's display name is deliberately excluded: ``hops`` and
        ``hops_rp`` are the same design and must share a cache entry.
        """
        d: Dict[str, Any] = {
            "schema": SPEC_SCHEMA_VERSION,
            "workload": self.workload,
            "hardware": self.model.hardware.value,
            "persistency": self.model.persistency.value,
            "machine": jsonable(self.machine),
            "run_config": jsonable(self.run_config()),
            "ops_per_thread": self.ops_per_thread,
            "num_threads": self.num_threads,
            "seed": self.seed,
        }
        # Added conditionally so every untraced spec keeps the key it had
        # before tracing existed (cached results stay valid).
        if self.events:
            d["events"] = True
        return d

    def key(self) -> str:
        """Content hash identifying the result this spec produces."""
        return content_key(self.describe())

    def label(self) -> str:
        return f"{self.workload}/{self.model.name}@seed{self.seed}"

    # -- execution ----------------------------------------------------------

    def execute(self) -> WorkloadResult:
        """Run this cell to completion in the current process.

        When :attr:`events` is set, the run is traced through a
        :class:`repro.obs.StallProfiler` and the profiler's summary is
        attached as ``result.obs`` (a plain dict, so the result still
        pickles and caches).
        """
        if not self.events:
            return run_workload(
                self.build_workload(),
                self.machine,
                self.run_config(),
                num_threads=self.num_threads,
            )
        from repro.obs import StallProfiler

        profiler = StallProfiler()
        result = run_workload(
            self.build_workload(),
            self.machine,
            self.run_config(),
            num_threads=self.num_threads,
            sinks=[profiler],
        )
        result.obs = profiler.summary()
        return result


def execute_spec(spec: Spec[R]) -> R:
    """The one map function for spec work: ``spec.execute()``.

    Module-level, so process pools ship it to workers by reference;
    every spec kind runs through it.
    """
    return spec.execute()


def fingerprint_sha(result: WorkloadResult) -> str:
    """Stable hex digest of a run's :meth:`WorkloadResult.fingerprint`.

    Compares two runs of the same cell (serial vs parallel, fresh vs
    cached) without shipping the whole stats registry.
    """
    return content_key(result.fingerprint())


__all__ = ["RunSpec", "SPEC_SCHEMA_VERSION", "execute_spec", "fingerprint_sha"]
