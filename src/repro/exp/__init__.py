"""`repro.exp` -- the experiment-execution subsystem.

Everything that runs a *grid* of simulations (the CLI's ``compare``,
every figure benchmark, ``scripts/reproduce_results.py``) goes through
this package:

- :class:`RunSpec` (:mod:`repro.exp.spec`) -- one fully-specified cell:
  workload, model, machine, knobs, seed.  Content-hashable and
  picklable.
- :class:`ExperimentPlan` / :func:`run_plan` (:mod:`repro.exp.plan`) --
  expand a grid into cells and execute them through a pluggable
  executor, consulting the cache first.
- :class:`SerialExecutor` / :class:`ParallelExecutor`
  (:mod:`repro.exp.executors`) -- in-process or ``--jobs N`` process
  fan-out; identical results either way.
- :class:`ResultCache` (:mod:`repro.exp.cache`) -- content-addressed
  on-disk store; re-running a suite skips already-computed cells.
- :func:`run_grid` -- the one-call driver returning a
  :class:`SweepResult` with the figures' normalization helpers.
- :class:`SharedPlan` -- many named, overlapping grids served from one
  deduplicated plan: each distinct cell is simulated once per pass.
"""

from repro.exp.cache import ResultCache, SupportsKey
from repro.exp.executors import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    WorkerDiedError,
    make_executor,
)
from repro.exp.plan import (
    ExperimentPlan,
    PlanResult,
    SharedPlan,
    SweepResult,
    run_grid,
    run_plan,
)
from repro.exp.spec import RunSpec, execute_spec

__all__ = [
    "Executor",
    "ExperimentPlan",
    "ParallelExecutor",
    "PlanResult",
    "ResultCache",
    "RunSpec",
    "SerialExecutor",
    "SharedPlan",
    "SupportsKey",
    "SweepResult",
    "WorkerDiedError",
    "execute_spec",
    "make_executor",
    "run_grid",
    "run_plan",
]
