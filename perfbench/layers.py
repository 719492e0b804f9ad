"""Per-layer numbers for the traced run, gathered from outside the program.

Nothing under ``src/`` knows it is being traced.  :class:`Tracer`
replaces the public functions at each layer boundary with wrappers that
record a span (name, start, end, parent, run id) and bump counters, and
restores the originals afterwards.  A function is replaced in every
``repro``/``benchmarks`` module that imported it by name, so a call made
through ``from x import f`` is seen too.  Spans are kept in memory and
written out when the run ends.

Self-time shares come from :class:`StackSampler`, a low-rate sampler
thread that attributes each sample to the innermost frame that lies in a
``repro`` package.  cProfile would charge every Python call and inflate
these workloads about 3.4x; the sampler's cost shows in
``bench.trace_overhead`` instead.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
import weakref
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers that report a self-time share (package names under ``repro``).
SHARE_LAYERS = ("workloads", "sim", "core", "coherence", "mem", "obs",
                "crashtest", "verify", "sample", "lint")

#: Simulated work counts, summed over every machine the pass built:
#: metric -> the stats counters it adds up.  Deterministic for a seed.
STAT_COUNTS: Dict[str, Tuple[str, ...]] = {
    "core.pb_entries": ("entriesInserted",),
    "core.stall_cycles": ("cyclesBlocked", "cyclesStalled", "dfenceStalled"),
    "coherence.cache_misses": ("cache_misses",),
    "mem.pm_writes": ("pm_writes",),
    "mem.undo_records": ("totalUndo",),
}

#: Machine methods that advance simulated time.
MACHINE_RUNS = ("run", "run_until", "run_to_barrier", "continue_to_barrier",
                "continue_run", "continue_until", "run_to_pause",
                "continue_to_pause")

#: Sampler period.  The sampler also waits for the interpreter lock, which
#: the main thread yields every 5 ms, so one sample lands every 5-10 ms.
SAMPLE_INTERVAL_S = 0.005


class StackSampler:
    """Counts, per ``repro`` package, how often it holds the innermost frame."""

    def __init__(self) -> None:
        import repro

        self.counts: Counter = Counter()
        self._root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
        self._layer_of: Dict[Any, Optional[str]] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._target = threading.get_ident()

    def _layer(self, code) -> Optional[str]:
        try:
            return self._layer_of[code]
        except KeyError:
            pass
        path = os.path.abspath(code.co_filename)
        layer = None
        if path.startswith(self._root):
            head = path[len(self._root):].split(os.sep, 1)
            layer = head[0] if len(head) == 2 else "repro"
        self._layer_of[code] = layer
        return layer

    def _loop(self) -> None:
        frames = sys._current_frames
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            frame = frames().get(self._target)
            layer = None
            while frame is not None and layer is None:
                layer = self._layer(frame.f_code)
                frame = frame.f_back
            self.counts[layer or "other"] += 1

    def start(self) -> None:
        self._target = threading.get_ident()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def shares(self) -> Dict[str, float]:
        total = sum(self.counts.values()) or 1
        return {layer: self.counts[layer] / total for layer in SHARE_LAYERS}


class Tracer:
    """Spans and counters at the layer boundaries of one traced pass."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or None, run id]
        self.spans: List[List[Any]] = []
        self.run_id: Optional[str] = None
        self.counts: Dict[str, int] = defaultdict(int)
        self.sampler = StackSampler()
        self._stack: List[int] = []
        self._active: Counter = Counter()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._serials: "weakref.WeakKeyDictionary[Any, int]" = (
            weakref.WeakKeyDictionary()
        )
        #: machine serial -> (events, ops, STAT_COUNTS values), latest.
        self._machines: Dict[int, Tuple[int, int, Tuple[int, ...]]] = {}
        self._distinct: set = set()
        self._cell_max: Dict[Tuple[str, str], int] = {}
        self._epoch = time.perf_counter()

    # -- spans ----------------------------------------------------------

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        """Run ``fn`` inside a span; a span nested in its own name is not
        recorded again (``super().programs()`` and friends)."""
        if self._active[name]:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter() - self._epoch, None, parent,
                self.run_id]
        self.spans.append(span)
        self._stack.append(index)
        self._active[name] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter() - self._epoch
            self._active[name] -= 1
            self._stack.pop()

    def span_seconds(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for name, start, end, _parent, _run in self.spans:
            totals[name] += end - start
        return totals

    def span_records(self) -> List[Dict[str, Any]]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run": r}
            for n, s, e, p, r in self.spans
        ]

    # -- patching -------------------------------------------------------

    def _wrapper(self, name: str, orig: Callable,
                 before: Optional[Callable] = None,
                 after: Optional[Callable] = None) -> Callable:
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            result = self.call(name, orig, args, kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return functools.wraps(orig)(wrapper)

    def wrap_function(self, orig: Callable, name: str, **hooks) -> None:
        """Replace ``orig`` wherever a repro or benchmarks module holds it."""
        wrapper = self._wrapper(name, orig, **hooks)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "") or ""
            if not module_name.startswith(("repro", "benchmarks")):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._patches.append((module, attr, orig))
                    setattr(module, attr, wrapper)

    def wrap_method(self, cls: type, attr: str, name: str, **hooks) -> None:
        orig = cls.__dict__[attr]
        self._patches.append((cls, attr, orig))
        setattr(cls, attr, self._wrapper(name, orig, **hooks))

    def install(self) -> None:
        from repro.core.machine import Machine
        from repro.crashtest import campaign as crash_campaign
        from repro.crashtest.campaign import CrashPointSpec
        from repro.crashtest.points import trace_reference
        from repro.exp.plan import run_plan
        from repro.exp.spec import RunSpec, execute_spec
        from repro.lint.runner import lint_all, lint_stream
        from repro.lint.stream import expand_workload
        from repro.sample.fingerprint import fingerprint_intervals
        from repro.sample.phases import cluster_intervals
        from repro.sample.pipeline import run_sampled
        from repro.workloads.base import Workload
        from repro.workloads.registry import get_workload

        counts = self.counts
        run_spec_key = RunSpec.key

        def plan_issued(plan, *args, **kwargs):
            counts["exp.cells_issued"] += len(plan)
            self._distinct.update(run_spec_key(spec) for spec in plan)

        def crash_point(spec):
            counts["crashtest.points"] += 1
            counts["crashtest.prefix_cycles"] += spec.crash_cycle
            cell = (spec.workload, spec.model.name)
            self._cell_max[cell] = max(self._cell_max.get(cell, 0),
                                       spec.crash_cycle)

        def adjudicated(result, *args, **kwargs):
            generic, oracle = result
            counts["verify.violations"] += len(generic) + len(oracle)

        def sampled(report, *args, **kwargs):
            counts["sample.ops_simulated"] += report.ops_simulated
            counts["sample.ops_total"] += report.ops_total

        def expanded(stream, *args, **kwargs):
            counts["lint.ops_expanded"] += stream.num_ops()

        def detected(report, *args, **kwargs):
            counts["lint.findings"] += len(report.findings)

        def machine_ran(_result, machine, *args, **kwargs):
            self._snapshot(machine)

        self.wrap_function(run_plan, "exp.run_plan", before=plan_issued)
        self.wrap_function(execute_spec, "exp.execute")
        self.wrap_method(RunSpec, "key", "exp.key")
        self.wrap_method(CrashPointSpec, "key", "exp.key")
        self.wrap_function(get_workload, "workloads.build")
        for cls in _subclasses(Workload):
            if "programs" in cls.__dict__:
                self.wrap_method(cls, "programs", "workloads.build")
        for method in MACHINE_RUNS:
            self.wrap_method(Machine, method, "sim.run", after=machine_ran)
        self.wrap_function(trace_reference, "crashtest.reference")
        self.wrap_method(CrashPointSpec, "execute", "crashtest.point",
                         before=crash_point)
        self.wrap_function(crash_campaign.adjudicate, "verify.adjudicate",
                           after=adjudicated)
        self.wrap_function(fingerprint_intervals, "sample.fingerprint")
        self.wrap_function(cluster_intervals, "sample.cluster")
        self.wrap_function(run_sampled, "sample.run", after=sampled)
        self.wrap_function(lint_all, "lint.run")
        self.wrap_function(expand_workload, "lint.expand", after=expanded)
        self.wrap_function(lint_stream, "lint.detect", after=detected)
        self.sampler.start()

    def uninstall(self) -> None:
        self.sampler.stop()
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- counters -------------------------------------------------------

    def _snapshot(self, machine) -> None:
        serial = self._serials.get(machine)
        if serial is None:
            serial = self._serials[machine] = len(self._machines)
        stats = machine.stats
        self._machines[serial] = (
            machine.engine.events_executed,
            sum(core.ops_executed for core in machine.cores),
            tuple(sum(stats.total(n) for n in names)
                  for names in STAT_COUNTS.values()),
        )

    def metrics(self, traced_wall: float, untraced_wall: float) -> Dict[str, float]:
        """Every per-layer metric; 0 where the pass bypassed the layer."""
        seconds = self.span_seconds()
        counts = self.counts
        out: Dict[str, float] = {}

        issued = counts["exp.cells_issued"]
        out["exp.cells_issued"] = issued
        out["exp.cells_distinct"] = len(self._distinct)
        out["exp.distinct_ratio"] = len(self._distinct) / issued if issued else 0.0
        out["exp.run_plan_s"] = seconds["exp.run_plan"]
        out["exp.execute_s"] = seconds["exp.execute"]
        out["exp.overhead_s"] = seconds["exp.run_plan"] - seconds["exp.execute"]
        out["exp.key_calls"] = sum(1 for s in self.spans if s[0] == "exp.key")
        out["exp.key_s"] = seconds["exp.key"]

        shares = self.sampler.shares()
        out["workloads.build_s"] = seconds["workloads.build"]

        events = sum(m[0] for m in self._machines.values())
        ops = sum(m[1] for m in self._machines.values())
        out["sim.events"] = events
        out["sim.events_per_op"] = events / ops if ops else 0.0
        out["sim.host_ns_per_event"] = (
            1e9 * seconds["sim.run"] / events if events else 0.0
        )
        for index, name in enumerate(STAT_COUNTS):
            out[name] = sum(m[2][index] for m in self._machines.values())

        prefix = counts["crashtest.prefix_cycles"]
        out["crashtest.points"] = counts["crashtest.points"]
        out["crashtest.reference_s"] = seconds["crashtest.reference"]
        out["crashtest.point_s"] = seconds["crashtest.point"]
        out["crashtest.prefix_cycles"] = prefix
        out["crashtest.prefix_useful"] = (
            sum(self._cell_max.values()) / prefix if prefix else 0.0
        )

        out["verify.adjudicate_s"] = seconds["verify.adjudicate"]
        out["verify.violations"] = counts["verify.violations"]

        simulated = counts["sample.ops_simulated"]
        out["sample.fingerprint_s"] = seconds["sample.fingerprint"]
        out["sample.cluster_s"] = seconds["sample.cluster"]
        out["sample.run_s"] = seconds["sample.run"]
        out["sample.ops_simulated"] = simulated
        out["sample.op_reduction"] = (
            counts["sample.ops_total"] / simulated if simulated else 0.0
        )

        out["lint.expand_s"] = seconds["lint.expand"]
        out["lint.detect_s"] = seconds["lint.detect"]
        out["lint.ops_expanded"] = counts["lint.ops_expanded"]
        out["lint.findings"] = counts["lint.findings"]

        for layer in SHARE_LAYERS:
            out[f"{layer}.self_share"] = shares[layer]
        out["bench.trace_overhead"] = traced_wall / untraced_wall
        return out


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found
