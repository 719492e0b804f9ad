"""Benchmark suite definitions and the suite runner.

Three pinned suites:

- ``micro`` -- tight loops over the simulator's hot structures
  (:mod:`repro.bench.micro`); sensitive to single-structure regressions.
- ``macro`` -- end-to-end simulations: the three microbench workloads
  plus the two PMDK-style workloads, each under the baseline and ASAP
  models.  This is the suite the >=2x optimization target is measured
  on.
- ``smoke`` -- scaled-down versions of both, fast enough to run on
  every pull request (the CI perf gate).

Every case is pinned -- fixed workload, ops, threads, and seed -- so two
records produced from the same source tree are comparable measurement
for measurement, and the deterministic ``events`` count doubles as a
fingerprint that the simulation itself did not change.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.bench import micro
from repro.bench.record import BenchRecord, BenchResult, peak_rss_kb

#: (workload, model, ops_per_thread) cells of the macro suite.
MACRO_CELLS: Tuple[Tuple[str, str, int], ...] = (
    ("bandwidth", "baseline", 400),
    ("bandwidth", "asap_rp", 400),
    ("fence_latency", "baseline", 400),
    ("fence_latency", "asap_rp", 400),
    ("coalescing", "baseline", 400),
    ("coalescing", "asap_rp", 400),
    ("nstore", "baseline", 200),
    ("nstore", "asap_rp", 200),
    ("cceh", "baseline", 200),
    ("cceh", "asap_rp", 200),
)

#: smaller macro cells for the per-PR smoke gate.
SMOKE_CELLS: Tuple[Tuple[str, str, int], ...] = (
    ("bandwidth", "baseline", 64),
    ("bandwidth", "asap_rp", 64),
    ("nstore", "baseline", 48),
    ("nstore", "asap_rp", 48),
    ("cceh", "baseline", 48),
    ("cceh", "asap_rp", 48),
)

#: every macro cell runs 4 threads, 2 MCs, seed 7 (the tier-1 defaults).
MACRO_THREADS = 4
MACRO_SEED = 7

#: (workload, model, ops_per_thread, SampleConfig overrides) cells of
#: the sampled suite -- a subset of the accuracy-gate cells
#: (scripts/gen_sample_golden.py), so the error each record carries is
#: the same quantity the golden gate bounds at <=5%.
SAMPLED_CELLS: Tuple[Tuple[str, str, int, Dict[str, int]], ...] = (
    ("queue", "baseline", 2000, {}),
    ("nstore", "asap_rp", 2000, {}),
    ("cceh", "asap_rp", 2000, {"clusters": 10}),
)


@dataclass(frozen=True)
class BenchCase:
    """One pinned benchmark: a name and a zero-argument runner.

    The runner returns ``(ops, events)``: the unit count the throughput
    is computed over, and a deterministic fingerprint count.
    """

    name: str
    run: Callable[[], Tuple[int, int]]


def _micro_case(
    name: str, fn: Callable[[int], Tuple[int, int]], n: int
) -> BenchCase:
    return BenchCase(name=name, run=lambda: fn(n))


def _macro_case(workload: str, model: str, ops: int) -> BenchCase:
    def run() -> Tuple[int, int]:
        # imported lazily: repro.exp pulls in the workload registry and
        # every model, which micro-only invocations never need.
        from repro.exp import RunSpec

        spec = RunSpec(
            workload,
            model,
            ops_per_thread=ops,
            num_threads=MACRO_THREADS,
            seed=MACRO_SEED,
        )
        result = spec.execute()
        return result.result.ops_executed, result.result.runtime_cycles

    return BenchCase(name=f"macro/{workload}/{model}", run=run)


def micro_cases(scale: int = 1) -> List[BenchCase]:
    """The micro suite; ``scale`` divides the iteration counts."""
    return [
        _micro_case(
            "micro/event_queue", micro.bench_event_queue, 200_000 // scale
        ),
        _micro_case("micro/pb_drain", micro.bench_pb_drain, 40_000 // scale),
        _micro_case(
            "micro/wpq_insert_evict",
            micro.bench_wpq_insert_evict,
            200_000 // scale,
        ),
        _micro_case(
            "micro/epoch_table_lookup",
            micro.bench_epoch_table_lookup,
            200_000 // scale,
        ),
    ]


def macro_cases(
    cells: Tuple[Tuple[str, str, int], ...] = MACRO_CELLS
) -> List[BenchCase]:
    return [_macro_case(w, m, ops) for w, m, ops in cells]


def _sampled_case(
    workload: str, model: str, ops: int, overrides: Dict[str, int]
) -> BenchCase:
    def run() -> Tuple[int, int]:
        from repro.sample import SampleConfig, run_sampled

        report = run_sampled(
            workload, model, ops_per_thread=ops,
            num_threads=MACRO_THREADS, seed=MACRO_SEED,
            config=SampleConfig(**overrides),
        )
        # full-run-equivalent ops over sampled wall time = effective
        # throughput; simulated-op count is the determinism fingerprint.
        return report.ops_total, report.ops_simulated

    return BenchCase(name=f"sampled/{workload}/{model}", run=run)


def suite_cases(suite: str) -> List[BenchCase]:
    if suite == "micro":
        return micro_cases()
    if suite == "macro":
        return macro_cases()
    if suite == "smoke":
        return micro_cases(scale=10) + macro_cases(SMOKE_CELLS)
    if suite == "all":
        return micro_cases() + macro_cases()
    if suite == "sampled":
        return [_sampled_case(w, m, ops, o) for w, m, ops, o in SAMPLED_CELLS]
    raise KeyError(f"unknown bench suite: {suite!r} (use {sorted(SUITES)})")


#: suite name -> description, for ``repro bench --list`` style help.
SUITES: Dict[str, str] = {
    "micro": "tight loops over hot simulator structures",
    "macro": "end-to-end workloads under baseline and ASAP",
    "smoke": "scaled-down micro+macro set for the per-PR CI gate",
    "all": "micro + macro",
    "sampled": "SimPoint-style sampled runs: effective ops/s + accuracy",
}


def run_sampled_case(
    workload: str,
    model: str,
    ops: int,
    overrides: Dict[str, int],
    reps: int,
) -> BenchResult:
    """One sampled-suite measurement.

    Throughput is *effective*: full-run-equivalent ops over sampled wall
    time, so a sampled record's ops/s is directly comparable to the
    macro suite's (the gap between them IS the sampling speedup).  The
    first rep runs the full simulation alongside (``validate_sampled``)
    to fill the error column; remaining reps time the sampled run alone.
    ``events`` is the ops actually simulated -- the determinism
    fingerprint for --compare.
    """
    from repro.sample import SampleConfig, run_sampled, validate_sampled

    cfg = SampleConfig(**overrides)
    report = validate_sampled(
        workload, model, ops_per_thread=ops,
        num_threads=MACRO_THREADS, seed=MACRO_SEED, config=cfg,
    )
    best_wall = report.sampled_wall_s
    for _ in range(max(1, reps) - 1):
        start = time.perf_counter()
        run_sampled(
            workload, model, ops_per_thread=ops,
            num_threads=MACRO_THREADS, seed=MACRO_SEED, config=cfg,
        )
        best_wall = min(best_wall, time.perf_counter() - start)
    return BenchResult(
        name=f"sampled/{workload}/{model}",
        suite="sampled",
        ops=report.ops_total,
        wall_s=best_wall,
        ops_per_sec=report.ops_total / best_wall if best_wall > 0 else 0.0,
        events=report.ops_simulated,
        peak_rss_kb=peak_rss_kb(),
        reps=max(1, reps),
        error=round(report.geomean_error, 6),
    )


def run_named_case(item: Tuple[str, str, int]) -> BenchResult:
    """Module-level trampoline: run one ``(suite, case_name, reps)``.

    Bench cases close over lambdas, so they do not pickle; this resolves
    the case by name inside the worker instead, which is what lets a
    suite fan out over a process pool (``repro bench --jobs N``).
    """
    suite, name, reps = item
    if suite == "sampled":
        for workload, model, ops, overrides in SAMPLED_CELLS:
            if f"sampled/{workload}/{model}" == name:
                return run_sampled_case(workload, model, ops, overrides, reps)
        raise KeyError(f"unknown sampled case {name!r}")
    for case in suite_cases(suite):
        if case.name == name:
            return run_case(case, reps)
    raise KeyError(f"unknown case {name!r} in suite {suite!r}")


def run_case(case: BenchCase, reps: int) -> BenchResult:
    """Measure one case: best wall time of ``reps`` repetitions."""
    best_wall = float("inf")
    ops = 0
    events = 0
    for _ in range(max(1, reps)):
        start = time.perf_counter()
        ops, events = case.run()
        wall = time.perf_counter() - start
        if wall < best_wall:
            best_wall = wall
    suite = case.name.split("/", 1)[0]
    return BenchResult(
        name=case.name,
        suite=suite,
        ops=ops,
        wall_s=best_wall,
        ops_per_sec=ops / best_wall if best_wall > 0 else 0.0,
        events=events,
        peak_rss_kb=peak_rss_kb(),
        reps=max(1, reps),
    )


def case_names(suite: str) -> List[str]:
    """Every case name of ``suite``, in run order (what
    :func:`run_named_case` resolves)."""
    if suite == "sampled":
        return [f"sampled/{w}/{m}" for w, m, _ops, _o in SAMPLED_CELLS]
    return [case.name for case in suite_cases(suite)]


def run_suite(
    suite: str,
    reps: int = 3,
    progress: Callable[[str, BenchResult], None] = lambda name, result: None,
) -> BenchRecord:
    """Run every case of ``suite`` in this process; the canonical record.

    The CI perf gate uses this serial path for minimal measurement
    noise.  ``repro bench --jobs N`` instead maps :func:`run_named_case`
    over :func:`case_names` in a process pool, for throughput surveys.
    """
    results: List[BenchResult] = []
    if suite == "sampled":
        # sampled cases produce their own BenchResult (they time the
        # sampled run, not the validating full run beside it).
        for workload, model, ops, overrides in SAMPLED_CELLS:
            result = run_sampled_case(workload, model, ops, overrides, reps)
            results.append(result)
            progress(result.name, result)
        return BenchRecord.build(suite=suite, results=results)
    for case in suite_cases(suite):
        result = run_case(case, reps)
        results.append(result)
        progress(case.name, result)
    return BenchRecord.build(suite=suite, results=results)


__all__ = [
    "BenchCase",
    "MACRO_CELLS",
    "MACRO_SEED",
    "MACRO_THREADS",
    "SAMPLED_CELLS",
    "SMOKE_CELLS",
    "SUITES",
    "case_names",
    "macro_cases",
    "micro_cases",
    "run_case",
    "run_named_case",
    "run_sampled_case",
    "run_suite",
    "suite_cases",
]
