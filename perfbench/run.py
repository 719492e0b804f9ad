#!/usr/bin/env python3
"""The reproduction's benchmark: what a user of this repo waits on.

Run from the repository root::

    python3 perfbench/run.py --workload crash_sweep --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --self-test             # the digest check has teeth
    python3 perfbench/run.py --pin                   # re-pin digests at seed 7

Workloads: ``paper_figures``, ``crash_sweep`` and ``sample_lint`` (see
``perfbench/suite.py`` and ``perfbench/README.md``).  A run repeats whole
passes over the workload's items until ``--seconds`` is about used up,
and always runs at least one pass.  Every item's output is checked
against the sha256 pinned in ``perfbench/digests.json`` at seed 7; for
another seed the digests are printed instead, so two commits can be
compared on a held-out seed.  ``--trace 0`` prints every metric by name
and unit and ends with one JSON line of the ``end_to_end`` metrics of
``BENCHMARK.json``; ``--trace 1`` times one untraced pass, then one
traced pass, reports the ``per_layer`` metrics and, outside both passes,
the deterministic accuracy numbers.  ``--workload all`` runs every
workload untraced and then traced, each in its own process, so one
command prints every metric of every workload.  Each run leaves a
record with its provenance under ``.perfbench/``.  The exit code is 1 on
a digest mismatch or a crash violation, 2 on a bad layout or argument.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import suite

BENCH_VERSION = 1
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

#: ``benchmarks/conftest.py`` reads these at import; left set, they would
#: turn a cold serial run into a cached or parallel one.
AMBIENT = ("REPRO_BENCH_JOBS", "REPRO_BENCH_CACHE")

#: Child processes timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 7

#: Units of the workload-specific numbers printed next to BENCHMARK.json's.
EXTRA_UNITS = {
    "failed_frac": "ratio",
    "points_per_s": "1/s",
    "eff_ops_per_s": "op/s",
    "lint_ops_per_s": "op/s",
    "paper_err_pct": "%",
    "sample_err_pct": "%",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def layout_ok() -> bool:
    return ((ROOT / "src" / "repro" / "__init__.py").is_file()
            and (ROOT / "benchmarks" / "conftest.py").is_file()
            and (ROOT / "BENCHMARK.json").is_file())


def load_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def judge(outcome, pinned):
    """(failed, mismatch) for one outcome against the pinned table or None."""
    failed = outcome.error is not None or outcome.violations > 0
    mismatch = outcome.violations > 0
    if pinned is not None:
        expected = pinned.get(outcome.name)
        if expected is None:
            mismatch = True
        elif outcome.pin != expected:
            # A pinned failure that now succeeds is a fix, not a mismatch;
            # its new digest is printed so it can be pinned.
            if not (expected.startswith("error:") and outcome.error is None):
                failed = mismatch = True
    return failed, mismatch


def tally(passes, pinned):
    """(attempted, failed, correct, per-item records) over a run's passes."""
    attempted = failed = 0
    correct = True
    items = []
    for number, (outcomes, _wall) in enumerate(passes):
        for outcome in outcomes:
            bad, mismatch = judge(outcome, pinned)
            attempted += 1
            failed += bad
            correct &= not mismatch
            items.append({"pass": number, "name": outcome.name,
                          "seconds": outcome.seconds, "pin": outcome.pin,
                          "failed": bad, "mismatch": mismatch})
    return attempted, failed, correct, items


def run_pass(workload, tracer=None):
    outcomes = []
    start = time.perf_counter()
    for item in workload.items:
        if tracer is None:
            outcomes.append(suite.run_item(item))
        else:
            tracer.run_id = item.name
            outcomes.append(tracer.call("bench.item", suite.run_item, (item,), {}))
    return outcomes, time.perf_counter() - start


def measure_setup(args) -> float:
    """Median wall time of fresh processes that stop once items are ready."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, check=True,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def provenance(args):
    from repro.bench.record import current_git_sha, machine_fingerprint

    return {
        "benchmark_version": BENCH_VERSION,
        # Outside a git checkout, git would search the parent directories.
        "git_sha": (current_git_sha(cwd=str(ROOT))
                    if (ROOT / ".git").exists() else "unknown"),
        "machine": machine_fingerprint(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
    }


def run_benchmark(args) -> int:
    from repro.bench.record import peak_rss_kb

    declared = load_json(ROOT / "BENCHMARK.json")
    workload = suite.WORKLOADS[args.workload](args.seed)
    pinned = load_json(DIGESTS)[workload.name] if workload.checks_digests else None

    passes = []
    tracer = None
    if args.trace:
        import layers

        passes.append(run_pass(workload))
        tracer = layers.Tracer()
        tracer.install()
        try:
            passes.append(run_pass(workload, tracer))
        finally:
            tracer.uninstall()
    else:
        setup_s = measure_setup(args)
        begin = time.perf_counter()
        while True:
            passes.append(run_pass(workload))
            elapsed = time.perf_counter() - begin
            if elapsed + elapsed / len(passes) / 2 >= args.seconds:
                break
        peak_rss_mb = peak_rss_kb() / 1024.0

    attempted, failed, correct, items = tally(passes, pinned)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"version={BENCH_VERSION} digests="
          f"{'checked' if pinned is not None else 'printed'}")
    for item in items:
        if item["pass"] == 0 and (pinned is None or item["failed"]
                                  or item["mismatch"]):
            flag = " MISMATCH" if item["mismatch"] else ""
            print(f"  item {item['name']}: {item['pin']}{flag}")

    if args.trace:
        metrics = tracer.metrics(traced_wall=passes[1][1],
                                 untraced_wall=passes[0][1])
        metrics.update(workload.accuracy_metrics(passes[0][0]))
    else:
        # Each item's median over the passes, so one slow stretch of a
        # shared machine moves a run less than it would a single pass.
        seconds = {
            outcome.name: statistics.median(p[0][i].seconds for p in passes)
            for i, outcome in enumerate(passes[0][0])
        }
        metrics = {"setup_s": setup_s, "wall_s": sum(seconds.values()),
                   "peak_rss_mb": peak_rss_mb,
                   "failed_frac": failed / attempted}
        metrics.update(workload.rate_metrics(passes[0][0], seconds))
    units = dict(EXTRA_UNITS)
    units.update((m["name"], m["unit"])
                 for m in declared["end_to_end"] + declared["per_layer"])
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {units.get(name, '')}")
    print(f"  passes={len(passes)} attempted={attempted} failed={failed} "
          f"correct={correct}")

    record = provenance(args)
    record.update(correct=correct, attempted=attempted, failed=failed,
                  metrics=metrics, items=items)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    if tracer is not None:
        with open(OUT_DIR / f"{stem}-spans.json", "w", encoding="utf-8") as handle:
            json.dump(tracer.span_records(), handle)

    section = "per_layer" if args.trace else "end_to_end"
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared[section]
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def pin() -> int:
    """Run one pass of every workload at the pinned seed; write digests."""
    table = {}
    for name, cls in suite.WORKLOADS.items():
        workload = cls(suite.PINNED_SEED)
        outcomes, wall = run_pass(workload)
        table[name] = {o.name: o.pin for o in outcomes}
        bad = [o.name for o in outcomes if o.violations]
        print(f"{name}: {len(outcomes)} items in {wall:.1f}s"
              + (f", violations in {bad}" if bad else ""))
        if bad:
            return 1
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def self_test() -> int:
    """The digest table covers every item, and a corrupted digest fails."""
    table = load_json(DIGESTS)
    for name, cls in suite.WORKLOADS.items():
        items = {item.name for item in cls(suite.PINNED_SEED).items}
        if items != set(table[name]):
            print(f"self-test: {name} items and pinned digests differ")
            return 1
    workload = suite.SampleLint(suite.PINNED_SEED)
    lint = next(item for item in workload.items if item.name == "lint")
    run = [([suite.run_item(lint)], 0.0)]
    pinned = dict(table[workload.name])
    good = tally(run, pinned)
    real = pinned["lint"]
    pinned["lint"] = ("0" if real[0] != "0" else "1") + real[1:]
    bad = tally(run, pinned)
    print(f"self-test: true digest -> failed={good[1]} correct={good[2]}; "
          f"corrupted digest -> failed_frac={bad[1] / bad[0]} "
          f"correct={bad[2]}")
    ok = good[1:3] == (0, True) and bad[1] / bad[0] > 0 and not bad[2]
    print("self-test: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a process of its own
    so that each has its own peak RSS."""
    status = 0
    for name in suite.WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 name, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", trace],
                cwd=ROOT, check=False,
            )
            status = max(status, proc.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *suite.WORKLOADS])
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed; digests are checked at 7")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure for about this long (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--pin", action="store_true",
                        help="re-pin every item's digest at seed 7")
    parser.add_argument("--self-test", action="store_true",
                        help="check that a corrupted digest is caught")
    args = parser.parse_args(argv)

    if not layout_ok():
        return fail(f"{ROOT} is not a checkout of the reproduction "
                    "(needs src/repro, benchmarks/ and BENCHMARK.json)")
    for var in AMBIENT:
        if os.environ.pop(var, None) is not None:
            print(f"perfbench: ignoring {var} for a cold serial run",
                  file=sys.stderr)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    if args.pin:
        return pin()
    if args.self_test:
        return self_test()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        suite.WORKLOADS[args.workload](args.seed)
        return 0
    if not DIGESTS.is_file():
        return fail(f"missing {DIGESTS}; run with --pin at the seed commit")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
