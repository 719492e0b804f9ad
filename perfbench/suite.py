"""The benchmark's three workloads, each a list of items run in order.

An *item* is one call into the reproduction's public entry points whose
output can be pinned: a figure driver's rendered table, one crash-sweep
cell's ``CampaignReport.to_json()``, one ``SampleReport.to_dict()`` or
the stock lint reports.  A *pass* runs every item of a workload once;
``wall_s`` is the wall time of one pass.

Why each workload exists, and which layers it should and should not
move, is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The seed the figure drivers fix and the digests are pinned at.
PINNED_SEED = 7

#: Fig. 8's published ratios (the repo's only reference results):
#: name -> (published value, ratio of geomean speedups it compares).
PAPER_RATIOS: Dict[str, Tuple[float, Callable[[Dict[str, float]], float]]] = {
    "asap_ep": (2.10, lambda m: m["asap_ep"]),
    "asap_rp": (2.29, lambda m: m["asap_rp"]),
    "eadr/asap_rp": (1.039, lambda m: m["eadr"] / m["asap_rp"]),
    "asap_ep/hops_ep": (1.37, lambda m: m["asap_ep"] / m["hops_ep"]),
    "asap_rp/hops_rp": (1.23, lambda m: m["asap_rp"] / m["hops_rp"]),
}

#: crash_sweep cell shape: the ``repro crashtest --all`` machine and ops,
#: with fewer points per cell than the CLI's 50 so that one pass over all
#: 60 cells fits the run length (see README.md).
CRASH_POINTS = 8
CRASH_OPS = 24

#: sample_lint cell shape.
SAMPLE_MODEL = "asap_rp"
SAMPLE_OPS = 1000


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@dataclass
class Outcome:
    """What one item produced: its digest, or the exception it raised."""

    name: str
    seconds: float
    digest: Optional[str] = None
    error: Optional[str] = None
    #: crash points that violated Theorem 2 or a recovery oracle.
    violations: int = 0
    #: workload-specific numbers (ops, points, findings, ...).
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def pin(self) -> str:
        """The value the digest table pins for this item."""
        return self.digest if self.error is None else f"error:{self.error}"


@dataclass
class Item:
    name: str
    #: returns (text whose sha256 is pinned, info dict).
    run: Callable[[], Tuple[str, Dict[str, Any]]]


def run_item(item: Item) -> Outcome:
    start = time.perf_counter()
    try:
        text, info = item.run()
    except Exception as exc:  # an item that raises counts as failed
        return Outcome(item.name, time.perf_counter() - start,
                       error=type(exc).__name__)
    seconds = time.perf_counter() - start
    return Outcome(item.name, seconds, digest=digest(text),
                   violations=int(info.pop("violations", 0)), info=info)


class Workload:
    """A named item list plus the end-to-end numbers it derives."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.items: List[Item] = self.build_items()

    def build_items(self) -> List[Item]:
        raise NotImplementedError

    @property
    def checks_digests(self) -> bool:
        return self.seed == PINNED_SEED

    def rate_metrics(self, outcomes: List[Outcome],
                     seconds: Dict[str, float]) -> Dict[str, float]:
        """Workload-specific throughputs, from one pass's outcomes and each
        item's median time over the run's passes."""
        return {}

    def accuracy_metrics(self, outcomes: List[Outcome]) -> Dict[str, float]:
        """Deterministic accuracy numbers, computed outside the timed runs."""
        return {}


class PaperFigures(Workload):
    """The reproduction harness's figure drivers, serial and uncached."""

    name = "paper_figures"

    def build_items(self) -> List[Item]:
        from benchmarks.test_fig02_epochs import run_figure2
        from benchmarks.test_fig03_pb_stalls import run_figure3
        from benchmarks.test_fig08_performance import run_figure8
        from benchmarks.test_fig09_writes import run_figure9
        from benchmarks.test_fig11_pb_occupancy import run_figure11

        def figure8() -> Tuple[str, Dict[str, Any]]:
            table, _result, means = run_figure8()
            return table, {"means": means}

        def table_of(driver):
            return lambda: (driver()[0], {})

        return [
            Item("fig02", table_of(run_figure2)),
            Item("fig03", table_of(run_figure3)),
            Item("fig08", figure8),
            Item("fig09", table_of(run_figure9)),
            Item("fig11", table_of(run_figure11)),
        ]

    @property
    def checks_digests(self) -> bool:
        # The drivers fix seed 7 whatever --seed says.
        return True

    def accuracy_metrics(self, outcomes: List[Outcome]) -> Dict[str, float]:
        fig8 = next(o for o in outcomes if o.name == "fig08")
        if fig8.error is not None:
            return {}
        means = fig8.info["means"]
        errors = [abs(ratio(means) / published - 1.0)
                  for published, ratio in PAPER_RATIOS.values()]
        return {"paper_err_pct": 100.0 * statistics.fmean(errors)}


class CrashSweep(Workload):
    """``repro.crashtest.run_campaign`` over every suite workload x RP model."""

    name = "crash_sweep"

    def build_items(self) -> List[Item]:
        import repro.crashtest as crashtest
        from repro.core.models import RP_MODELS
        from repro.sim.config import MachineConfig
        from repro.workloads.registry import SUITE

        machine = MachineConfig(num_cores=4, num_mcs=2)

        def cell(workload: str, model) -> Item:
            def run() -> Tuple[str, Dict[str, Any]]:
                report = crashtest.run_campaign(
                    [workload], models=[model], machine=machine,
                    points=CRASH_POINTS, seed=self.seed,
                    ops_per_thread=CRASH_OPS,
                )
                return report.to_json(), {
                    "points": report.total_points,
                    "violations": report.total_failing_points,
                }
            return Item(f"{workload}/{model.name}", run)

        return [cell(cls.name, model) for cls in SUITE for model in RP_MODELS]

    def rate_metrics(self, outcomes: List[Outcome],
                     seconds: Dict[str, float]) -> Dict[str, float]:
        points = sum(o.info.get("points", 0) for o in outcomes)
        return {"points_per_s": points / sum(seconds.values())}


class SampleLint(Workload):
    """Sampled simulation of every suite workload, then the stock lint."""

    name = "sample_lint"

    def build_items(self) -> List[Item]:
        import repro.lint as lint_api
        import repro.sample as sample
        from repro.workloads.registry import SUITE

        def cell(workload: str) -> Item:
            def run() -> Tuple[str, Dict[str, Any]]:
                report = sample.run_sampled(workload, SAMPLE_MODEL,
                                            ops_per_thread=SAMPLE_OPS,
                                            seed=self.seed)
                return canonical(report.to_dict()), {
                    "ops_total": report.ops_total,
                    "ops_simulated": report.ops_simulated,
                }
            return Item(f"sample/{workload}", run)

        def lint() -> Tuple[str, Dict[str, Any]]:
            reports, _sources = lint_api.lint_all(
                config=lint_api.LintConfig(seed=self.seed))
            return canonical(lint_api.to_json(reports)), {
                "ops_scanned": sum(r.ops_scanned for r in reports),
                "findings": sum(len(r.findings) for r in reports),
            }

        self.sample_workloads = [cls.name for cls in SUITE]
        return [cell(name) for name in self.sample_workloads] + [Item("lint", lint)]

    def rate_metrics(self, outcomes: List[Outcome],
                     seconds: Dict[str, float]) -> Dict[str, float]:
        # A failed cell counts as 0, so fixing one can only raise the median.
        rates = [
            0.0 if o.error else o.info["ops_total"] / seconds[o.name]
            for o in outcomes if o.name.startswith("sample/")
        ]
        lint = next(o for o in outcomes if o.name == "lint")
        metrics = {"eff_ops_per_s": statistics.median(rates)}
        if lint.error is None:
            metrics["lint_ops_per_s"] = lint.info["ops_scanned"] / seconds["lint"]
        return metrics

    def accuracy_metrics(self, outcomes: List[Outcome]) -> Dict[str, float]:
        from repro.sample import validate_sampled

        errors = []
        for name in self.sample_workloads:
            try:
                report = validate_sampled(name, SAMPLE_MODEL,
                                          ops_per_thread=SAMPLE_OPS,
                                          seed=self.seed)
            except Exception:  # a cell that cannot be sampled is 100% off
                errors.append(100.0)
            else:
                errors.append(100.0 * (report.geomean_error or 0.0))
        return {"sample_err_pct": statistics.fmean(errors)}


WORKLOADS = {cls.name: cls for cls in (PaperFigures, CrashSweep, SampleLint)}
