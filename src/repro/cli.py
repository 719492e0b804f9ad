"""Command-line interface: ``python -m repro <command>``.

Mirrors the original artifact's ``run.sh <workload> <persistency model>``
workflow:

- ``run``     -- run one workload under one model; print (or save) a
  gem5-style stats.txt.
- ``compare`` -- run workloads across models and print speedup tables
  (Figure 8 style).
- ``crash``   -- crash a workload at a chosen cycle and print the
  Theorem 2 consistency report.
- ``timeline`` -- run one workload with event tracing on and export a
  Chrome-trace-format timeline (load it at https://ui.perfetto.dev)
  plus a per-epoch stall breakdown.
- ``lint``    -- static persistency analysis of a workload's op stream
  (no simulation); text/JSON/SARIF output and a CI-gate exit code.
- ``crashtest`` -- systematic crash-sweep campaign: crash at every
  epoch-commit boundary plus stratified-random cycles, adjudicate
  recovery with per-workload semantic oracles, minimize and serialize
  any failure for replay.
- ``litmus``  -- cross-validate the operational simulator against the
  axiomatic Px86/PTSO persistency model on a corpus of small litmus
  tests; any operationally-reachable state the axioms forbid is a
  simulator bug (exit 1).
- ``ckpt``    -- create, inspect, or resume a serializable simulator
  checkpoint (a canonical-JSON snapshot taken at a quiescent cycle
  barrier); resuming reproduces the original run byte-for-byte.
- ``sample``  -- SimPoint-style sampled simulation: fingerprint the op
  stream, cluster it into phases, simulate only phase representatives,
  extrapolate full-run statistics; ``--validate`` runs the full
  simulation alongside and reports per-metric relative error.
- ``list``    -- enumerate workloads and models.

Model names come from the canonical registry
(:data:`repro.core.models.MODEL_REGISTRY`).  Commands that run cells
through :func:`repro.exp.run_specs` (``run``, ``compare``,
``crashtest``, ``litmus``) understand ``--cache-dir DIR``
(deterministic result reuse); those that fan out understand ``--jobs N``
(a process pool that re-runs any cell a dead worker lost).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.report import render_table, stall_breakdown_table
from repro.analysis.statsfile import format_stats, write_stats
from repro.core.api import PMAllocator
from repro.core.crash import run_and_crash
from repro.core.models import (
    MODEL_ALIASES,
    MODEL_REGISTRY,
    STANDARD_MODELS,
    resolve_model,
)
from repro.exp import (
    ExperimentPlan,
    ResultCache,
    RunSpec,
    make_executor,
    run_grid,
    run_plan,
)
from repro.sim.config import MachineConfig
from repro.verify import check_consistency
from repro.workloads import get_workload, workload_names
from repro.workloads.registry import MICROBENCHES, SUITE


# Aliases ("hops", "asap") resolve to their _rp designs, so accept them
# anywhere a canonical registry name is accepted.
_MODEL_CHOICE_NAMES = list(MODEL_REGISTRY) + list(MODEL_ALIASES)


def _machine_config(args) -> MachineConfig:
    return MachineConfig(num_cores=args.threads, num_mcs=args.mcs)


def _cache(args) -> Optional[ResultCache]:
    return ResultCache(args.cache_dir) if args.cache_dir else None


def cmd_list(_args) -> int:
    print("workloads (Table III):")
    for cls in SUITE:
        print(f"  {cls.name:12s} [{cls.category}]")
    print("microbenchmarks:")
    for cls in MICROBENCHES:
        print(f"  {cls.name:12s} [{cls.category}]")
    print("models:")
    for name in MODEL_REGISTRY:
        print(f"  {name}")
    return 0


def cmd_run(args) -> int:
    spec = RunSpec(
        args.workload,
        args.model,
        machine=_machine_config(args),
        ops_per_thread=args.ops,
        seed=args.seed,
    )
    outcome = run_plan(ExperimentPlan([spec]), cache=_cache(args))
    result = outcome.results[0]
    text = format_stats(result.result)
    if args.stats:
        write_stats(result.result, args.stats)
        print(f"wrote {args.stats}")
    else:
        print(text, end="")
    return 0


def cmd_compare(args) -> int:
    names: List[str] = []
    for name in args.workloads or []:
        # group alias: "microbench" expands to the whole microbench set
        if name in ("microbench", "micro"):
            names.extend(cls.name for cls in MICROBENCHES)
        else:
            names.append(name)
    names = names or workload_names()
    models = (
        STANDARD_MODELS
        if not args.models
        else [resolve_model(m) for m in args.models]
    )
    result = run_grid(
        names,
        models,
        machine=_machine_config(args),
        ops_per_thread=args.ops,
        seed=args.seed,
        jobs=args.jobs,
        cache=_cache(args),
    )
    model_names = [m.name for m in models]
    baseline = model_names[0]
    rows = []
    for name in result.workloads:
        rows.append(
            [name]
            + [f"{result.speedup(name, m, over=baseline):.2f}"
               for m in model_names]
        )
    rows.append(
        ["geomean"]
        + [f"{result.geomean_speedup(m, over=baseline):.2f}"
           for m in model_names]
    )
    print(render_table(
        ["workload"] + model_names, rows,
        title=f"speedup over {baseline} "
              f"({args.threads} threads, {args.ops} ops/thread)",
    ))
    return 0


def cmd_timeline(args) -> int:
    from repro.obs import JSONLSink, RingBufferSink, StallProfiler
    from repro.obs.chrome import write_chrome_trace
    from repro.workloads.base import run_workload

    workload = get_workload(args.workload, ops_per_thread=args.ops,
                            seed=args.seed)
    run_config = resolve_model(args.model).run_config(seed=args.seed)
    ring = RingBufferSink()
    profiler = StallProfiler()
    sinks = [ring, profiler]
    jsonl = None
    if args.events:
        jsonl = JSONLSink(args.events)
        sinks.append(jsonl)
    try:
        run_workload(
            workload, _machine_config(args), run_config,
            num_threads=args.threads, sinks=sinks,
        )
    finally:
        if jsonl is not None:
            jsonl.close()
    write_chrome_trace(ring.events, args.out)
    print(f"wrote {args.out} ({ring.total_seen} events; open in Perfetto)")
    if jsonl is not None:
        print(f"wrote {args.events} ({jsonl.lines_written} JSONL events)")
    print()
    print(stall_breakdown_table(
        profiler.summary(),
        title=f"stall cycles by (core, epoch) -- {args.workload} on "
              f"{args.model}",
    ))
    return 0


def cmd_lint(args) -> int:
    from repro.lint import (
        LintConfig,
        LintError,
        Severity,
        lint_all,
        render_text,
        sarif,
    )

    if not args.all and not args.workload:
        print("lint: provide a workload name or --all", file=sys.stderr)
        return 2
    config = LintConfig(
        threads=args.threads,
        ops_per_thread=args.ops,
        seed=args.seed,
        detectors=list(args.detectors) if args.detectors else None,
        no_suppress=args.no_suppress,
    )
    names = None if args.all else [args.workload]
    try:
        reports, sources = lint_all(names, config)
    except (LintError, KeyError) as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    fail_on = Severity.parse(args.fail_on)

    if args.format == "sarif":
        text = sarif.dumps(sarif.to_sarif(reports, sources))
    elif args.format == "json":
        text = sarif.dumps(sarif.to_json(reports))
    else:
        text = render_text(reports, verbose=args.verbose)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)

    gate_ok = all(r.ok(fail_on) for r in reports)
    if not gate_ok:
        print(
            f"lint: findings at or above --fail-on={fail_on.label}",
            file=sys.stderr,
        )
    return 0 if gate_ok else 1


def cmd_crashtest(args) -> int:
    from repro.core.models import RP_MODELS
    from repro.crashtest import replay_failure, run_campaign
    from repro.workloads.registry import SUITE

    if args.from_checkpoint and not args.replay:
        print("crashtest: --from-checkpoint requires --replay",
              file=sys.stderr)
        return 2
    if args.replay:
        try:
            report = replay_failure(
                args.replay, from_checkpoint=args.from_checkpoint
            )
        except ValueError as exc:
            # e.g. a checkpoint of a different cell, or one whose
            # quiescent point lands past the saved crash cycle.
            print(f"crashtest: {exc}", file=sys.stderr)
            return 2
        verdict = "reproduced" if report["reproduced"] else "NOT reproduced"
        print(f"replay {args.replay}: {verdict}")
        print(f"  workload: {report['workload']}  "
              f"crash cycle: {report['crash_cycle']}  "
              f"surviving media lines: {report['media_lines']}")
        for v in report["generic_violations"]:
            print(f"  generic: {v}")
        for v in report["oracle_violations"]:
            print(f"  oracle:  {v}")
        anchored = report.get("anchored")
        if anchored is not None:
            averdict = (
                "reproduced" if anchored["reproduced"] else "NOT reproduced"
            )
            print(f"  anchored re-simulation from "
                  f"{anchored['checkpoint']} (barrier cycle "
                  f"{anchored['barrier_cycle']}): {averdict}")
            print(f"    crash cycle: {anchored['crash_cycle']}  "
                  f"surviving media lines: {anchored['media_lines']}")
            for v in anchored["generic_violations"]:
                print(f"    generic: {v}")
            for v in anchored["oracle_violations"]:
                print(f"    oracle:  {v}")
            return 0 if report["reproduced"] and anchored["reproduced"] else 1
        return 0 if report["reproduced"] else 1

    if not args.all and not args.workload:
        print("crashtest: provide a workload name or --all", file=sys.stderr)
        return 2
    names = (
        [cls.name for cls in SUITE] if args.all else [args.workload]
    )
    models = (
        [resolve_model(m) for m in args.models]
        if args.models else list(RP_MODELS)
    )

    from repro.obs import JSONLSink

    sinks = []
    jsonl = None
    if args.events:
        jsonl = JSONLSink(args.events)
        sinks.append(jsonl)
    try:
        report = run_campaign(
            names,
            models=models,
            machine=_machine_config(args),
            points=args.points,
            seed=args.seed,
            ops_per_thread=args.ops,
            jobs=args.jobs,
            cache=_cache(args),
            sinks=sinks,
            save_dir=args.save_failures,
        )
    finally:
        if jsonl is not None:
            jsonl.close()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report.to_json())
        print(f"wrote {args.out}")
    print(report.summary())
    if jsonl is not None:
        print(f"wrote {args.events} ({jsonl.lines_written} JSONL events)")
    for path in report.saved_failures:
        print(f"minimized failing state: {path} "
              f"(replay with: repro crashtest --replay {path})")
    return 0 if report.ok else 1


def cmd_litmus(args) -> int:
    import json as _json

    from repro.litmus import (
        LitmusRunOptions,
        SMOKE_POINTS,
        build_corpus,
        families,
        run_litmus,
        smoke_corpus,
    )
    from repro.report import dumps as sarif_dumps

    if args.list:
        tests = build_corpus(seed=args.seed, rand_count=args.count)
        for test in tests:
            print(f"  {test.name:20s} [{test.family}] "
                  f"{len(test.threads)} thread(s), {test.num_ops()} ops")
        print(f"families: {', '.join(families())}")
        return 0

    selected = sum(
        1 for opt in (args.name, args.family, args.smoke, args.all) if opt
    )
    if selected != 1:
        print(
            "litmus: provide exactly one of a test name, --family, "
            "--smoke, or --all",
            file=sys.stderr,
        )
        return 2
    if args.smoke:
        tests = smoke_corpus()
        points = args.points if args.points is not None else SMOKE_POINTS
    else:
        names = [args.name] if args.name else None
        try:
            tests = build_corpus(
                seed=args.seed,
                rand_count=args.count,
                family=args.family,
                names=names,
            )
        except KeyError as exc:
            print(f"litmus: {exc.args[0]}", file=sys.stderr)
            return 2
        points = args.points if args.points is not None else 24

    options = LitmusRunOptions(
        points=points,
        seed=args.seed,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
    )
    if args.models:
        options.models = [resolve_model(m) for m in args.models]
    report = run_litmus(tests, options)

    if args.format == "sarif":
        text = sarif_dumps(report.to_sarif())
    elif args.format == "json":
        text = _json.dumps(report.to_json(), indent=2)
    else:
        text = report.render_text(verbose=args.verbose)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    if args.save_disagreements:
        with open(args.save_disagreements, "w") as handle:
            _json.dump(report.disagreements_doc(), handle, indent=2,
                       sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.save_disagreements}")

    gate_ok = report.ok(args.fail_on)
    if not gate_ok:
        print(
            f"litmus: disagreements at --fail-on={args.fail_on} "
            f"({report.forbidden_count()} forbidden, "
            f"{report.unobserved_count()} unobserved)",
            file=sys.stderr,
        )
    return 0 if gate_ok else 1


def cmd_ckpt(args) -> int:
    import json as _json

    from repro.ckpt.api import (
        CheckpointCell,
        create_checkpoint,
        describe_checkpoint,
        resume_machine,
    )
    from repro.ckpt.codec import dumps_checkpoint, loads_checkpoint

    if args.inspect:
        with open(args.inspect) as handle:
            meta, state = loads_checkpoint(handle.read())
        print(_json.dumps(describe_checkpoint(meta, state), indent=2,
                          sort_keys=True))
        return 0

    if args.resume:
        with open(args.resume) as handle:
            meta, state = loads_checkpoint(handle.read())
        machine = resume_machine(meta, state)
        result = machine.continue_run()
        print(f"resumed {meta.get('workload')}/{meta.get('model')} from "
              f"barrier cycle {meta.get('barrier_cycle')}")
        print(f"  finished at cycle {result.runtime_cycles} "
              f"({result.ops_executed} ops, "
              f"{machine.engine.events_executed} events)")
        return 0

    if not args.workload:
        print("ckpt: provide a workload name (or --inspect/--resume FILE)",
              file=sys.stderr)
        return 2
    if args.at is None:
        print("ckpt: --at CYCLE is required to create a checkpoint",
              file=sys.stderr)
        return 2
    cell = CheckpointCell(
        args.workload, args.model, ops_per_thread=args.ops, seed=args.seed,
    )
    made = create_checkpoint(cell, args.at)
    if made is None:
        print(f"ckpt: {args.workload}/{args.model} finished before cycle "
              f"{args.at}; nothing to checkpoint", file=sys.stderr)
        return 1
    meta, state, _live = made
    out = args.out or f"{args.workload}-{args.model}-{args.at}.ckpt.json"
    with open(out, "w") as handle:
        handle.write(dumps_checkpoint(meta, state))
    summary = describe_checkpoint(meta, state)
    print(f"wrote {out} (quiesced at cycle {summary['quiesced_at']}, "
          f"{summary['events_executed']} events executed)")
    return 0


def cmd_sample(args) -> int:
    import json as _json

    from repro.analysis.report import render_table
    from repro.sample import SampleConfig, run_sampled, validate_sampled

    try:
        config = SampleConfig(
            interval_ops=args.interval_ops,
            clusters=args.clusters,
            warmup_ops=args.warmup_ops,
            tail_intervals=args.tail_intervals,
        )
    except ValueError as exc:
        print(f"sample: {exc}", file=sys.stderr)
        return 2
    runner = validate_sampled if args.validate else run_sampled
    try:
        report = runner(
            args.workload, args.model, ops_per_thread=args.ops,
            num_threads=args.threads, seed=args.seed, config=config,
            machine_config=_machine_config(args),
        )
    except Exception as exc:
        print(f"sample: {args.workload}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2

    headers = ["metric", "estimate", "margin"]
    if args.validate:
        headers += ["actual-error"]
    rows = []
    for name, est in report.estimates.items():
        row = [name, f"{est.value:,.0f}", f"{est.margin:.1%}"]
        if args.validate:
            err = report.errors.get(name)
            row.append("-" if err is None else f"{err:.2%}")
        rows.append(row)
    print(render_table(
        headers, rows,
        title=f"sampled {args.workload} on {report.model}: "
              f"{len(report.representatives)} representatives of "
              f"{report.num_intervals} intervals "
              f"({report.ops_simulated}/{report.ops_total} ops simulated, "
              f"{report.ops_ratio:.1f}x fewer)",
    ))
    if args.validate:
        print(f"geomean error {report.geomean_error:.2%} "
              f"(sampled {report.sampled_wall_s:.3f}s vs "
              f"full {report.full_wall_s:.3f}s)")
    if args.out:
        with open(args.out, "w") as handle:
            _json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


def cmd_bench(args) -> int:
    from repro.bench import (
        BenchRecord,
        compare_records,
        parse_max_regress,
        run_suite,
    )
    from repro.bench.suites import case_names, run_named_case

    if args.compare:
        base_path, new_path = args.compare
        try:
            threshold = parse_max_regress(args.max_regress)
        except ValueError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        comparison = compare_records(
            BenchRecord.load(base_path), BenchRecord.load(new_path),
            max_regress=threshold,
        )
        print(comparison.render())
        return 0 if comparison.ok else 1

    def progress(name, result) -> None:
        extra = ""
        if result.error is not None:
            extra = f", geomean error {result.error:.2%}"
        print(f"  {name}: {result.ops_per_sec:,.0f} ops/s "
              f"({result.wall_s:.3f}s best of {result.reps}{extra})")

    suite = "sampled" if args.sampled else args.suite
    print(f"running bench suite {suite!r} ({args.reps} reps per case)")
    if args.jobs is not None and args.jobs > 1:
        results = make_executor(args.jobs).map(
            run_named_case,
            [(suite, name, args.reps) for name in case_names(suite)],
        )
        for result in results:
            progress(result.name, result)
        record = BenchRecord.build(suite=suite, results=results)
    else:
        record = run_suite(suite, reps=args.reps, progress=progress)
    out = args.out or record.default_filename()
    record.save(out)
    print(f"wrote {out} (git {record.git_sha[:12]})")
    return 0


def cmd_crash(args) -> int:
    workload = get_workload(args.workload, ops_per_thread=args.ops,
                            seed=args.seed)
    heap = PMAllocator()
    programs = workload.programs(heap, args.threads)
    run_config = resolve_model(args.model).run_config(seed=args.seed)
    state = run_and_crash(
        _machine_config(args), run_config, programs, args.at,
    )
    report = check_consistency(state.log, state.media)
    survived = sum(1 for v in state.media.values() if v)
    print(f"crashed {args.workload} on {args.model} at cycle "
          f"{state.crash_cycle}")
    print(f"surviving lines: {survived}; "
          f"epochs damaged: {len(report.damaged)}, "
          f"surviving: {len(report.survivors)}")
    print(report.summary())
    return 0 if report.consistent else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ASAP (HPCA 2022) reproduction simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _jobs_flag(p):
        p.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes (default: serial)")

    def common(p, machine=True):
        if machine:
            p.add_argument("--threads", type=int, default=4)
            p.add_argument("--mcs", type=int, default=2)
            p.add_argument("--ops", type=int, default=100,
                           help="operations per thread")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--cache-dir", metavar="DIR",
                       help="reuse deterministic results cached here")

    p_list = sub.add_parser("list", help="list workloads and models")
    p_list.set_defaults(func=cmd_list)

    p_run = sub.add_parser("run", help="run one workload on one model")
    p_run.add_argument("workload")
    p_run.add_argument("--model", choices=_MODEL_CHOICE_NAMES,
                       default="asap_rp")
    p_run.add_argument("--stats", help="write gem5-style stats.txt here")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="speedup table across models")
    p_cmp.add_argument("--workloads", nargs="*",
                       help="default: the full Table III suite")
    p_cmp.add_argument("--models", nargs="*", choices=_MODEL_CHOICE_NAMES,
                       help="first one is the normalization baseline")
    common(p_cmp)
    _jobs_flag(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_tl = sub.add_parser(
        "timeline",
        help="trace a run and export a Perfetto-viewable timeline",
    )
    p_tl.add_argument("workload")
    p_tl.add_argument("--model", choices=_MODEL_CHOICE_NAMES,
                      default="asap_rp")
    p_tl.add_argument("--out", default="timeline.json",
                      help="Chrome-trace-format output path")
    p_tl.add_argument("--events", metavar="PATH",
                      help="also write the raw event stream as JSONL here")
    common(p_tl)
    p_tl.set_defaults(func=cmd_timeline)

    from repro.lint import DETECTORS

    p_lint = sub.add_parser(
        "lint",
        help="static persistency analysis (no simulation)",
    )
    p_lint.add_argument("workload", nargs="?",
                        help="workload to lint (or use --all)")
    p_lint.add_argument("--all", action="store_true",
                        help="lint every stock workload (the CI gate set)")
    p_lint.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text")
    p_lint.add_argument("--out", metavar="PATH",
                        help="write the report here instead of stdout")
    p_lint.add_argument("--fail-on", choices=("note", "warning", "error"),
                        default="warning",
                        help="exit non-zero if any finding is at or above "
                        "this severity (default: warning)")
    p_lint.add_argument("--no-suppress", action="store_true",
                        help="ignore workload-declared suppressions")
    p_lint.add_argument("--detectors", nargs="*", metavar="NAME",
                        choices=sorted(DETECTORS),
                        help="run only these detectors "
                        f"(default: all of {sorted(DETECTORS)})")
    p_lint.add_argument("--verbose", action="store_true",
                        help="show suppressed findings with reasons")
    p_lint.add_argument("--threads", type=int, default=4)
    p_lint.add_argument("--ops", type=int, default=None,
                        help="operations per thread "
                        "(default: each workload's own default)")
    p_lint.add_argument("--seed", type=int, default=7)
    p_lint.set_defaults(func=cmd_lint)

    p_ct = sub.add_parser(
        "crashtest",
        help="systematic crash-sweep campaign with recovery oracles",
    )
    p_ct.add_argument("workload", nargs="?",
                      help="workload to sweep (or use --all)")
    p_ct.add_argument("--all", action="store_true",
                      help="sweep every stock Table III workload")
    p_ct.add_argument("--models", nargs="*", choices=_MODEL_CHOICE_NAMES,
                      metavar="MODEL",
                      help="models to sweep (default: baseline hops asap "
                      "eadr)")
    p_ct.add_argument("--points", type=int, default=50, metavar="N",
                      help="crash points per (workload, model) cell "
                      "(default: 50)")
    p_ct.add_argument("--out", metavar="PATH",
                      help="write the canonical JSON campaign report here")
    p_ct.add_argument("--save-failures", metavar="DIR",
                      help="serialize minimized failing crash states here")
    p_ct.add_argument("--events", metavar="PATH",
                      help="write per-crash-point events as JSONL here")
    p_ct.add_argument("--replay", metavar="FILE",
                      help="re-adjudicate a serialized failing state "
                      "(skips the sweep)")
    p_ct.add_argument("--from-checkpoint", metavar="CKPT",
                      help="with --replay: also re-simulate the failure "
                      "from this checkpoint anchor (repro ckpt output) "
                      "and re-adjudicate the resimulated state")
    common(p_ct)
    _jobs_flag(p_ct)
    # a cell's horizon grows with its ops: short cells by default.
    p_ct.set_defaults(func=cmd_crashtest, ops=24)

    p_lit = sub.add_parser(
        "litmus",
        help="cross-validate simulator vs axiomatic persistency model",
    )
    p_lit.add_argument("name", nargs="?",
                       help="one litmus test by name (see --list)")
    p_lit.add_argument("--family", metavar="FAMILY",
                       help="run every test of one family "
                       "(mp, sb, flush, epoch, rand)")
    p_lit.add_argument("--smoke", action="store_true",
                       help="the pinned golden-diffed CI gate subset")
    p_lit.add_argument("--all", action="store_true",
                       help="the full corpus (named + random family)")
    p_lit.add_argument("--list", action="store_true",
                       help="list corpus tests and exit")
    p_lit.add_argument("--models", nargs="*", choices=_MODEL_CHOICE_NAMES,
                       metavar="MODEL",
                       help="models to validate (default: baseline hops "
                       "asap eadr)")
    p_lit.add_argument("--points", type=int, default=None, metavar="N",
                       help="crash points per cell (default: 24; "
                       "--smoke pins its own)")
    p_lit.add_argument("--count", type=int, default=4, metavar="N",
                       help="random-family tests to generate (default: 4)")
    p_lit.add_argument("--format", choices=("text", "json", "sarif"),
                       default="text")
    p_lit.add_argument("--out", metavar="PATH",
                       help="write the report here instead of stdout")
    p_lit.add_argument("--fail-on", choices=("forbidden", "any", "never"),
                       default="forbidden",
                       help="exit non-zero on: forbidden states only "
                       "(default), any disagreement, or never")
    p_lit.add_argument("--save-disagreements", metavar="PATH",
                       help="write the canonical disagreement document "
                       "here (the golden-diffed CI artifact)")
    p_lit.add_argument("--verbose", action="store_true",
                       help="also print unobserved (too-strong) states")
    common(p_lit, machine=False)
    _jobs_flag(p_lit)
    p_lit.set_defaults(func=cmd_litmus)

    from repro.bench.suites import SUITES

    p_bench = sub.add_parser(
        "bench",
        help="measure simulator performance / gate perf regressions",
    )
    p_bench.add_argument("--suite", choices=sorted(SUITES), default="smoke",
                         help="pinned benchmark suite to run "
                         "(default: smoke)")
    p_bench.add_argument("--sampled", action="store_true",
                         help="shorthand for --suite sampled: effective "
                         "throughput of sampled simulation plus its "
                         "geomean error column")
    p_bench.add_argument("--reps", type=int, default=3,
                         help="repetitions per case; best wall time wins "
                         "(default: 3)")
    p_bench.add_argument("--out", metavar="PATH",
                         help="record path (default: BENCH_<date>.json)")
    p_bench.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                         help="compare two records instead of running; "
                         "exit 1 on regression beyond --max-regress")
    p_bench.add_argument("--max-regress", default="10%",
                         help="allowed per-bench throughput drop for "
                         "--compare, e.g. '10%%' or '0.1' (default: 10%%)")
    _jobs_flag(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_ckpt = sub.add_parser(
        "ckpt",
        help="create / inspect / resume a serializable checkpoint",
    )
    p_ckpt.add_argument("workload", nargs="?",
                        help="workload to checkpoint (create mode)")
    p_ckpt.add_argument("--model", choices=_MODEL_CHOICE_NAMES,
                        default="asap_rp")
    p_ckpt.add_argument("--at", type=int, metavar="CYCLE",
                        help="quiescent barrier cycle to checkpoint at")
    p_ckpt.add_argument("--out", metavar="PATH",
                        help="checkpoint path (default: "
                        "<workload>-<model>-<cycle>.ckpt.json)")
    p_ckpt.add_argument("--inspect", metavar="FILE",
                        help="print a checkpoint summary and exit")
    p_ckpt.add_argument("--resume", metavar="FILE",
                        help="resume a checkpoint and run to completion")
    p_ckpt.add_argument("--ops", type=int, default=100,
                        help="operations per thread")
    p_ckpt.add_argument("--seed", type=int, default=7)
    p_ckpt.set_defaults(func=cmd_ckpt)

    p_sample = sub.add_parser(
        "sample",
        help="SimPoint-style sampled simulation with extrapolated stats",
    )
    p_sample.add_argument("workload")
    p_sample.add_argument("--model", choices=_MODEL_CHOICE_NAMES,
                          default="asap_rp")
    p_sample.add_argument("--validate", action="store_true",
                          help="also run the full simulation and report "
                          "per-metric relative error")
    p_sample.add_argument("--interval-ops", type=int, default=75,
                          metavar="N",
                          help="ops per fingerprint interval (default: 75)")
    p_sample.add_argument("--clusters", type=int, default=None, metavar="K",
                          help="interior phase count (default: adaptive)")
    p_sample.add_argument("--warmup-ops", type=int, default=25, metavar="N",
                          help="fully-simulated warm-up ops before each "
                          "representative (default: 25)")
    p_sample.add_argument("--tail-intervals", type=int, default=3,
                          metavar="N",
                          help="trailing intervals simulated exactly "
                          "(default: 3)")
    p_sample.add_argument("--out", metavar="PATH",
                          help="write the JSON sample report here")
    common(p_sample)
    # sampling only pays off on longer streams than the 100-op default.
    p_sample.set_defaults(func=cmd_sample, ops=2000)

    p_crash = sub.add_parser("crash", help="crash a run and check recovery")
    p_crash.add_argument("workload")
    p_crash.add_argument("--model", choices=_MODEL_CHOICE_NAMES,
                         default="asap_rp")
    p_crash.add_argument("--at", type=int, required=True,
                         help="crash cycle")
    common(p_crash)
    p_crash.set_defaults(func=cmd_crash)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
