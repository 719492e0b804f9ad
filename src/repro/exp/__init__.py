"""`repro.exp` -- the experiment-execution subsystem.

Everything that runs a *grid* of simulations (the CLI's ``compare``,
every figure benchmark, ``scripts/reproduce_results.py``) goes through
this package:

- :class:`Spec` / :func:`content_key` / :func:`canonical_json`
  (:mod:`repro.exp.cache`) -- the protocol every content-addressed cell
  kind satisfies (``describe``/``key``/``label``/``execute``) and the
  one way its key is derived.
- :class:`RunSpec` (:mod:`repro.exp.spec`) -- one fully-specified cell:
  workload, model, machine, knobs, seed.  Content-hashable and
  picklable.
- :class:`ExperimentPlan` / :func:`run_plan` (:mod:`repro.exp.plan`) --
  expand a grid into cells and execute them through a pluggable
  executor; :func:`run_specs` is the cached fan-out behind it (and
  behind crash campaigns and litmus runs).
- :class:`SerialExecutor` / :class:`ParallelExecutor`
  (:mod:`repro.exp.executors`) -- in-process or ``--jobs N`` process
  fan-out; identical results either way, and a dead worker's cells are
  re-run in a fresh pool.
- :class:`ResultCache` (:mod:`repro.exp.cache`) -- content-addressed
  on-disk store; re-running a suite skips already-computed cells.
- :func:`run_grid` -- the one-call driver returning a
  :class:`SweepResult` with the figures' normalization helpers.
- :class:`SharedPlan` -- many named, overlapping grids served from one
  deduplicated plan: each distinct cell is simulated once per pass.
"""

from repro.exp.cache import (
    ResultCache,
    Spec,
    canonical_json,
    content_key,
    jsonable,
)
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
    run_specs,
)
from repro.exp.spec import RunSpec, execute_spec, fingerprint_sha

__all__ = [
    "Executor",
    "ExperimentPlan",
    "ParallelExecutor",
    "PlanResult",
    "ResultCache",
    "RunSpec",
    "SerialExecutor",
    "SharedPlan",
    "Spec",
    "SweepResult",
    "WorkerDiedError",
    "canonical_json",
    "content_key",
    "execute_spec",
    "fingerprint_sha",
    "jsonable",
    "make_executor",
    "run_grid",
    "run_plan",
    "run_specs",
]
