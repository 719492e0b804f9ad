"""repro: a reproduction of "ASAP: A Speculative Approach to Persistence".

ASAP (Yadalam, Shah, Yu, Swift -- HPCA 2022) is a persistence architecture
that flushes writes to non-volatile memory eagerly and out of order,
keeping just enough *undo* information at the memory controllers to unwind
speculation if a crash happens.  This package re-implements the entire
evaluated system as a discrete-event simulator:

- the hardware designs (Intel baseline, HOPS, ASAP, eADR/BBB) under both
  epoch and release persistency -- :mod:`repro.core`;
- the substrates they run on (caches, coherence directory, memory
  controllers, WPQs, an Optane-like NVM device) -- :mod:`repro.mem`,
  :mod:`repro.coherence`;
- the workloads of Table III re-implemented against the simulator's
  PMem API -- :mod:`repro.workloads`;
- crash injection plus a machine-checked consistency verifier for the
  paper's Theorem 2 -- :mod:`repro.core.crash`, :mod:`repro.verify`;
- analytical hardware-cost models for Table V -- :mod:`repro.analysis`;
- the experiment engine: plans of content-hashed run specs, serial or
  multi-process execution, deterministic result caching --
  :mod:`repro.exp`.

Quickstart::

    from repro import Machine, MachineConfig, RunConfig, HardwareModel
    from repro.core.api import PMAllocator, Store, OFence, DFence

    config = MachineConfig(num_cores=1)
    run_config = RunConfig(hardware=HardwareModel.ASAP)
    heap = PMAllocator()
    buf = heap.alloc(256)

    def program():
        for i in range(4):
            yield Store(buf + 64 * i, 64)
            yield OFence()
        yield DFence()

    result = Machine(config, run_config).run([program()])
    print(result.runtime_cycles, result.table_vi())
"""

from repro.core.api import (
    Acquire,
    Compute,
    DFence,
    Load,
    NewStrand,
    OFence,
    PMAllocator,
    Release,
    Store,
)
from repro.core.crash import CrashState, crash_machine, crash_sweep, run_and_crash
from repro.core.machine import Machine, RunResult
from repro.core.models import MODEL_REGISTRY, ModelSpec, resolve_model
from repro.exp import ExperimentPlan, ResultCache, RunSpec, run_grid, run_plan
from repro.sim.config import (
    HardwareModel,
    MachineConfig,
    PersistencyModel,
    RunConfig,
    TABLE_II_CONFIG,
)
from repro.verify import check_consistency

__version__ = "1.0.0"

__all__ = [
    "Acquire",
    "Compute",
    "CrashState",
    "DFence",
    "ExperimentPlan",
    "HardwareModel",
    "Load",
    "MODEL_REGISTRY",
    "Machine",
    "MachineConfig",
    "ModelSpec",
    "NewStrand",
    "OFence",
    "PMAllocator",
    "PersistencyModel",
    "Release",
    "ResultCache",
    "RunConfig",
    "RunResult",
    "RunSpec",
    "Store",
    "TABLE_II_CONFIG",
    "__version__",
    "check_consistency",
    "crash_machine",
    "crash_sweep",
    "resolve_model",
    "run_and_crash",
    "run_grid",
    "run_plan",
]
