"""Unit tests for the ``repro.bench`` perf harness."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    BenchRecord,
    BenchResult,
    compare_records,
    machine_fingerprint,
    parse_max_regress,
    run_case,
)
from repro.bench.micro import (
    bench_epoch_table_lookup,
    bench_event_queue,
    bench_pb_drain,
    bench_wpq_insert_evict,
)
from repro.bench.suites import SUITES, BenchCase, suite_cases
from repro.cli import main


@pytest.mark.parametrize("bench,n", [
    (bench_event_queue, 2000),
    (bench_pb_drain, 500),
    (bench_wpq_insert_evict, 2000),
    (bench_epoch_table_lookup, 2000),
])
def test_micro_benches_run_and_are_deterministic(bench, n):
    ops1, events1 = bench(n)
    ops2, events2 = bench(n)
    assert ops1 == ops2 == n
    assert events1 == events2 > 0


def test_suite_registry_covers_all_names():
    for suite in SUITES:
        cases = suite_cases(suite)
        assert cases, suite
        names = [case.name for case in cases]
        assert len(names) == len(set(names)), f"duplicate names in {suite}"
    with pytest.raises(KeyError):
        suite_cases("nope")


def test_run_case_produces_throughput():
    case = BenchCase(name="micro/tiny", run=lambda: bench_event_queue(1000))
    result = run_case(case, reps=2)
    assert result.name == "micro/tiny"
    assert result.suite == "micro"
    assert result.ops == 1000
    assert result.wall_s > 0
    assert result.ops_per_sec > 0
    assert result.reps == 2


def _result(name, ops_per_sec, events=1):
    return BenchResult(name=name, suite=name.split("/", 1)[0], ops=100,
                       wall_s=100 / ops_per_sec, ops_per_sec=ops_per_sec,
                       events=events, peak_rss_kb=1, reps=1)


def _record(results):
    return BenchRecord(suite="test", results=results, created="2026-01-01",
                       git_sha="abc", machine=machine_fingerprint())


def test_record_round_trip(tmp_path):
    record = _record([_result("micro/a", 1000.0)])
    path = tmp_path / "BENCH_test.json"
    record.save(str(path))
    loaded = BenchRecord.load(str(path))
    assert loaded.suite == record.suite
    assert loaded.git_sha == "abc"
    assert loaded.results[0].name == "micro/a"
    assert loaded.results[0].ops_per_sec == 1000.0
    # the on-disk form is plain JSON with a schema field
    data = json.loads(path.read_text())
    assert data["schema"] == 1


def test_parse_max_regress():
    assert parse_max_regress("10%") == pytest.approx(0.10)
    assert parse_max_regress("0.25") == pytest.approx(0.25)
    assert parse_max_regress(" 5% ") == pytest.approx(0.05)
    with pytest.raises(ValueError):
        parse_max_regress("150%")
    with pytest.raises(ValueError):
        parse_max_regress("-1%")


def test_compare_gate_passes_within_budget():
    base = _record([_result("micro/a", 1000.0), _result("micro/b", 500.0)])
    new = _record([_result("micro/a", 950.0), _result("micro/b", 520.0)])
    comparison = compare_records(base, new, max_regress=0.10)
    assert comparison.ok
    assert not comparison.regressions
    assert comparison.geomean == pytest.approx(
        ((950 / 1000) * (520 / 500)) ** 0.5
    )


def test_compare_gate_fails_on_regression():
    base = _record([_result("micro/a", 1000.0)])
    new = _record([_result("micro/a", 800.0)])
    comparison = compare_records(base, new, max_regress=0.10)
    assert not comparison.ok
    assert [d.name for d in comparison.regressions] == ["micro/a"]
    assert "REGRESSION" in comparison.render()
    assert "FAIL" in comparison.render()


def test_compare_tracks_membership_and_events():
    base = _record([_result("micro/a", 1000.0, events=5),
                    _result("micro/gone", 10.0)])
    new = _record([_result("micro/a", 1000.0, events=6),
                   _result("micro/new", 10.0)])
    comparison = compare_records(base, new)
    assert comparison.only_base == ["micro/gone"]
    assert comparison.only_new == ["micro/new"]
    assert not comparison.deltas[0].events_match
    assert "events differ" in comparison.render()


def test_cli_compare_exit_codes(tmp_path, capsys):
    base = _record([_result("micro/a", 1000.0)])
    new_ok = _record([_result("micro/a", 990.0)])
    new_bad = _record([_result("micro/a", 500.0)])
    base_path = tmp_path / "base.json"
    ok_path = tmp_path / "ok.json"
    bad_path = tmp_path / "bad.json"
    base.save(str(base_path))
    new_ok.save(str(ok_path))
    new_bad.save(str(bad_path))

    assert main(["bench", "--compare", str(base_path), str(ok_path)]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["bench", "--compare", str(base_path), str(bad_path),
                 "--max-regress", "10%"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_bench_jobs_reaches_the_pool(tmp_path, capsys, monkeypatch):
    import repro.bench.suites as suites_mod
    from repro.exp import ParallelExecutor

    # pool workers fork after the patch, so they resolve the same cases
    monkeypatch.setattr(
        suites_mod, "suite_cases",
        lambda suite: [BenchCase(name=f"micro/tiny{i}",
                                 run=lambda: bench_event_queue(500))
                       for i in range(2)],
    )
    mapped = []
    real_map = ParallelExecutor.map

    def spy(self, fn, items):
        mapped.append((self.jobs, list(items)))
        return real_map(self, fn, items)

    monkeypatch.setattr(ParallelExecutor, "map", spy)
    out = tmp_path / "BENCH_jobs.json"
    assert main(["bench", "--suite", "micro", "--reps", "1", "--jobs", "2",
                 "--out", str(out)]) == 0
    assert mapped == [(2, [("micro", "micro/tiny0", 1),
                           ("micro", "micro/tiny1", 1)])]
    record = BenchRecord.load(str(out))
    assert [r.name for r in record.results] == ["micro/tiny0", "micro/tiny1"]
    assert all(r.ops > 0 and r.events > 0 for r in record.results)


def test_cli_bench_runs_micro_suite(tmp_path, capsys, monkeypatch):
    # shrink the micro suite so the CLI path stays fast in tier-1
    import repro.bench.suites as suites_mod

    monkeypatch.setattr(
        suites_mod, "suite_cases",
        lambda suite: [BenchCase(name="micro/tiny",
                                 run=lambda: bench_event_queue(500))],
    )
    out = tmp_path / "BENCH_cli.json"
    assert main(["bench", "--suite", "micro", "--reps", "1",
                 "--out", str(out)]) == 0
    record = BenchRecord.load(str(out))
    assert record.results[0].name == "micro/tiny"
    assert record.git_sha
    assert record.machine["python"]
