"""Experiment plans: build a grid of cells, execute, aggregate.

The lifecycle every driver (CLI ``compare``, the figure benchmarks,
``scripts/reproduce_results.py``) now shares:

1. :meth:`ExperimentPlan.grid` expands workloads x models (x seeds) into
   fully-specified :class:`~repro.exp.spec.RunSpec` cells.
2. :func:`run_plan` executes the cells through a pluggable executor
   (serial or process fan-out), consulting an optional
   :class:`~repro.exp.cache.ResultCache` first.  The cache-then-map
   step is :func:`run_specs`, which crash campaigns and litmus runs
   share for their own spec kinds.  Cells are independent,
   so wall clock under ``jobs=N`` approaches the slowest cell, not the
   sum.
3. :class:`SweepResult` aggregates (workload, model) cells with the
   normalization helpers the figures are written against (speedups,
   geomeans, stat extraction).

:class:`SharedPlan` serves many named grids that overlap (the paper's
figures re-read the same runs) from one deduplicated plan, so a full
reproduction pass simulates each distinct cell once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from repro.core.models import ModelSpec
from repro.exp.cache import ResultCache, Spec
from repro.exp.executors import Executor, make_executor
from repro.exp.spec import RunSpec, execute_spec
from repro.sim.config import MachineConfig
from repro.workloads.base import Workload, WorkloadResult

WorkloadRef = Union[str, Type[Workload]]
ModelRef = Union[str, ModelSpec]
CacheRef = Union[ResultCache, str, "os.PathLike[str]"]
R = TypeVar("R")


@dataclass(frozen=True)
class ExperimentPlan:
    """An ordered list of fully-specified cells."""

    specs: Tuple[RunSpec, ...]

    def __init__(self, specs: Sequence[RunSpec]) -> None:
        object.__setattr__(self, "specs", tuple(specs))

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self.specs)

    @classmethod
    def grid(
        cls,
        workloads: Sequence[WorkloadRef],
        models: Sequence[ModelRef],
        machine: Optional[MachineConfig] = None,
        ops_per_thread: Optional[int] = None,
        num_threads: Optional[int] = None,
        seeds: Sequence[int] = (7,),
    ) -> "ExperimentPlan":
        """Expand workloads x models x seeds, workload-major (the order
        every figure presents its bars in)."""
        machine = machine or MachineConfig()
        specs = [
            RunSpec(
                workload,
                model,
                machine=machine,
                ops_per_thread=ops_per_thread,
                num_threads=num_threads,
                seed=seed,
            )
            for workload in workloads
            for model in models
            for seed in seeds
        ]
        return cls(specs)


@dataclass
class PlanResult:
    """Results of a plan run, in plan order, plus execution accounting."""

    plan: ExperimentPlan
    results: List[WorkloadResult]
    cache_hits: int = 0
    cache_misses: int = 0

    def __iter__(self) -> Iterator[Tuple[RunSpec, WorkloadResult]]:
        return iter(zip(self.plan.specs, self.results))

    def __len__(self) -> int:
        return len(self.results)


def run_specs(
    specs: Sequence[Spec[R]],
    cache: Optional[ResultCache],
    executor: Executor,
) -> Tuple[List[R], int]:
    """Results of ``specs`` in order, and how many ``cache`` served.

    The one cached fan-out every cell kind goes through: hits come from
    the cache, only the misses are mapped (through :func:`execute_spec`)
    over ``executor``, and each fresh result is stored back.  Without a
    cache no key is computed.
    """
    results: List[Any] = [None] * len(specs)
    pending: List[int] = []
    for index, spec in enumerate(specs):
        hit = cache.get(spec) if cache is not None else None
        if hit is None:
            pending.append(index)
        else:
            results[index] = hit
    fresh = executor.map(execute_spec, [specs[index] for index in pending])
    for index, result in zip(pending, fresh):
        results[index] = result
        if cache is not None:
            cache.put(specs[index], result)
    return results, len(specs) - len(pending)


def run_plan(
    plan: ExperimentPlan,
    jobs: Optional[int] = None,
    cache: Optional[CacheRef] = None,
    executor: Optional[Executor] = None,
) -> PlanResult:
    """Execute every cell of ``plan``; return results in plan order.

    Cached cells are served without touching the executor; only misses
    are fanned out.  ``executor`` overrides ``jobs`` when given.
    """
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    results, hits = run_specs(
        plan.specs, cache, executor or make_executor(jobs)
    )
    return PlanResult(
        plan=plan,
        results=results,
        cache_hits=hits,
        cache_misses=len(plan) - hits,
    )


# ---------------------------------------------------------------------------
# grid aggregation (the figures' view of a plan)
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    """Results of one workload x model sweep."""

    workloads: List[str]
    models: List[str]
    #: (workload, model) -> full run result.
    runs: Dict[Tuple[str, str], WorkloadResult] = field(default_factory=dict)

    def runtime(self, workload: str, model: str) -> int:
        return self.runs[(workload, model)].runtime_cycles

    def speedup(self, workload: str, model: str, over: str = "baseline") -> float:
        return self.runtime(workload, over) / self.runtime(workload, model)

    def speedups(self, model: str, over: str = "baseline") -> List[float]:
        return [self.speedup(w, model, over) for w in self.workloads]

    def geomean_speedup(self, model: str, over: str = "baseline") -> float:
        values = self.speedups(model, over)
        product = 1.0
        for value in values:
            product *= value
        return product ** (1.0 / len(values))

    def stat(self, workload: str, model: str, name: str) -> int:
        return self.runs[(workload, model)].stats.total(name)

    @classmethod
    def of(cls, outcome: PlanResult) -> "SweepResult":
        """Key a plan's runs by the display names its specs carry, so
        callers that label designs ``hops``/``asap`` keep their labels
        while sharing results with ``hops_rp``/``asap_rp`` runs."""
        result = cls(
            workloads=list(dict.fromkeys(s.workload for s in outcome.plan)),
            models=list(dict.fromkeys(s.model.name for s in outcome.plan)),
        )
        for spec, run in outcome:
            result.runs[(spec.workload, spec.model.name)] = run
        return result


def run_grid(
    workloads: Sequence[WorkloadRef],
    models: Sequence[ModelRef],
    machine: Optional[MachineConfig] = None,
    ops_per_thread: Optional[int] = None,
    num_threads: Optional[int] = None,
    seed: int = 7,
    jobs: Optional[int] = None,
    cache: Optional[CacheRef] = None,
    executor: Optional[Executor] = None,
) -> SweepResult:
    """Run every workload under every model; the standard figure driver.

    The returned :class:`SweepResult` keys runs by the *display* names
    of the models given (see :meth:`SweepResult.of`).
    """
    plan = ExperimentPlan.grid(
        workloads,
        models,
        machine=machine,
        ops_per_thread=ops_per_thread,
        num_threads=num_threads,
        seeds=(seed,),
    )
    return SweepResult.of(
        run_plan(plan, jobs=jobs, cache=cache, executor=executor)
    )


# ---------------------------------------------------------------------------
# one shared plan behind many named grids
# ---------------------------------------------------------------------------

class SharedPlan:
    """Named grids served from one plan, each distinct cell simulated once
    per pass.

    ``declare`` returns every grid a driver may request, by name.  It is
    called on the first request; the union of its grids, deduplicated by
    :meth:`RunSpec.key`, is the shared plan.  :meth:`run` sends only the
    cells it does not hold to :func:`run_plan` (with this store's
    ``jobs``/``cache``/``executor``), and the lifetime rule keeps memory
    bounded and passes independent:

    - a fresh result is held only while some *other* grid that declares
      its key has not read it yet, and is dropped after the last read;
    - each declaring grid reads a held result at most once.  A repeat
      request from the same grid starts a new pass and simulates the cell
      again, so nothing is reused across passes.
    """

    def __init__(
        self,
        declare: Callable[[], Mapping[str, ExperimentPlan]],
        jobs: Optional[int] = None,
        cache: Optional[CacheRef] = None,
        executor: Optional[Executor] = None,
    ) -> None:
        self._declare = declare
        self.jobs = jobs
        self.cache = cache
        self.executor = executor
        self._grids: Optional[Dict[str, ExperimentPlan]] = None
        #: grid name -> the key of each of its cells, in grid order.
        self._keys: Dict[str, List[str]] = {}
        #: key -> names of the grids that declare it.
        self._declarers: Dict[str, FrozenSet[str]] = {}
        #: key -> (result, grids that have read it this pass).
        self._held: Dict[str, Tuple[WorkloadResult, Set[str]]] = {}

    @property
    def grids(self) -> Mapping[str, ExperimentPlan]:
        """Every declared grid, by name (declared on first use)."""
        if self._grids is None:
            grids = dict(self._declare())
            declarers: Dict[str, Set[str]] = {}
            for name, grid in grids.items():
                self._keys[name] = [spec.key() for spec in grid]
                for key in self._keys[name]:
                    declarers.setdefault(key, set()).add(name)
            self._declarers = {k: frozenset(v) for k, v in declarers.items()}
            self._grids = grids
        return self._grids

    def plan(self, names: Optional[Iterable[str]] = None) -> ExperimentPlan:
        """The union of the named grids (default: all), one cell per key."""
        grids = self.grids
        cells: Dict[str, RunSpec] = {}
        for name in grids if names is None else names:
            for spec, key in zip(grids[name], self._keys[name]):
                cells.setdefault(key, spec)
        return ExperimentPlan(list(cells.values()))

    @property
    def held(self) -> int:
        """Results currently held for grids that have not read them."""
        return len(self._held)

    def run(self, name: str) -> PlanResult:
        """Results of the grid declared as ``name``, in its cell order."""
        grid = self.grids[name]
        keys = self._keys[name]
        results: Dict[str, WorkloadResult] = {}
        missing: Dict[str, RunSpec] = {}
        for spec, key in zip(grid, keys):
            if key in results or key in missing:
                continue
            held = self._held.get(key)
            if held is None or name in held[1]:
                missing[key] = spec
                continue
            results[key] = held[0]
            held[1].add(name)
            if held[1] >= self._declarers[key]:
                del self._held[key]
        hits = misses = 0
        if missing:
            outcome = run_plan(
                ExperimentPlan(list(missing.values())),
                jobs=self.jobs,
                cache=self.cache,
                executor=self.executor,
            )
            hits, misses = outcome.cache_hits, outcome.cache_misses
            for key, result in zip(missing, outcome.results):
                results[key] = result
                if self._declarers[key] - {name}:
                    self._held[key] = (result, {name})
        return PlanResult(
            plan=grid,
            results=[results[key] for key in keys],
            cache_hits=hits,
            cache_misses=misses,
        )

    def sweep(self, name: str) -> SweepResult:
        """:meth:`run` viewed as a workload x model :class:`SweepResult`."""
        return SweepResult.of(self.run(name))


__all__ = [
    "ExperimentPlan",
    "PlanResult",
    "SharedPlan",
    "SweepResult",
    "run_grid",
    "run_plan",
    "run_specs",
]
