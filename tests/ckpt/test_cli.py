"""The ``repro ckpt`` and ``repro sample`` CLI surfaces."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

pytestmark = pytest.mark.ckpt


def test_ckpt_create_inspect_resume(capsys, tmp_path):
    path = tmp_path / "queue.ckpt.json"
    code = main([
        "ckpt", "queue", "--model", "asap_rp", "--ops", "200",
        "--at", "1200", "--out", str(path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert f"wrote {path}" in out
    doc = json.loads(path.read_text())
    assert doc["kind"] == "repro-checkpoint"

    code = main(["ckpt", "--inspect", str(path)])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert summary["workload"] == "queue"
    assert summary["model"] == "asap_rp"
    assert summary["barrier_cycle"] == 1200
    assert summary["quiesced_at"] >= 1200
    assert len(summary["cores"]) == 4

    code = main(["ckpt", "--resume", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "resumed queue/asap_rp from barrier cycle 1200" in out
    assert "finished at cycle" in out


def test_ckpt_barrier_after_run_end_errors(capsys, tmp_path):
    code = main([
        "ckpt", "queue", "--ops", "8", "--at", "10000000",
        "--out", str(tmp_path / "never.json"),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert "finished before cycle" in err
    assert not (tmp_path / "never.json").exists()


def test_ckpt_requires_workload_or_file(capsys):
    assert main(["ckpt"]) == 2
    assert main(["ckpt", "queue"]) == 2  # missing --at


def test_sample_cli_reports_estimates(capsys, tmp_path):
    out_path = tmp_path / "sample.json"
    code = main([
        "sample", "queue", "--model", "asap_rp", "--ops", "800",
        "--interval-ops", "50", "--out", str(out_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "representatives of" in out
    assert "cycles" in out
    doc = json.loads(out_path.read_text())
    assert doc["workload"] == "queue"
    assert doc["ops_simulated"] < doc["ops_total"]
    assert "errors" not in doc  # no full run without --validate


def test_sample_cli_validate_prints_errors(capsys):
    code = main([
        "sample", "queue", "--model", "baseline", "--ops", "800",
        "--interval-ops", "50", "--validate",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "actual-error" in out
    assert "geomean error" in out


def test_sample_cli_rejects_bad_config(capsys):
    code = main(["sample", "queue", "--interval-ops", "0"])
    assert code == 2
    assert "interval_ops" in capsys.readouterr().err


def test_sample_cli_failure_is_one_line(capsys, monkeypatch):
    import repro.sample

    def broken(*args, **kwargs):
        raise IndexError("list index out of range")

    monkeypatch.setattr(repro.sample, "run_sampled", broken)
    assert main(["sample", "heap", "--ops", "40"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sample: heap: IndexError: list index out of range\n"


def test_crashtest_from_checkpoint_requires_replay(capsys):
    code = main(["crashtest", "--from-checkpoint", "x.json"])
    assert code == 2
    assert "--replay" in capsys.readouterr().err


def test_crashtest_anchor_past_crash_cycle_is_clean_error(capsys, tmp_path):
    """A checkpoint whose quiescent point lands past the saved crash
    cycle exits 2 with a message, not a traceback."""
    from repro.ckpt.api import CheckpointCell, create_checkpoint
    from repro.ckpt.codec import dumps_checkpoint
    from repro.core.crash import crash_machine
    from repro.crashtest.campaign import CrashPointSpec
    from repro.crashtest.serialize import save_state

    cell = CheckpointCell("queue", "asap_rp", ops_per_thread=200)
    early = create_checkpoint(cell, 600)
    late = create_checkpoint(cell, 3000)
    assert early is not None and late is not None
    ckpt = tmp_path / "late.ckpt.json"
    ckpt.write_text(dumps_checkpoint(late[0], late[1]))

    live = early[2]
    live.continue_until(1300)
    spec = CrashPointSpec("queue", "asap_rp", 1300, ops_per_thread=200)
    failure = tmp_path / "failure.json"
    save_state(str(failure), crash_machine(live),
               {"spec": spec.describe(), "violations": []})

    code = main([
        "crashtest", "--replay", str(failure),
        "--from-checkpoint", str(ckpt),
    ])
    assert code == 2
    assert "precedes the quiescent point" in capsys.readouterr().err


def test_crashtest_replay_from_checkpoint(capsys, tmp_path):
    """Anchored replay through the CLI: same cell checkpoint + saved
    crash state -> anchored verdict printed alongside the direct one."""
    from repro.ckpt.api import CheckpointCell, create_checkpoint
    from repro.ckpt.codec import dumps_checkpoint
    from repro.core.crash import crash_machine
    from repro.crashtest.campaign import CrashPointSpec
    from repro.crashtest.serialize import save_state

    cell = CheckpointCell("queue", "asap_rp", ops_per_thread=200)
    made = create_checkpoint(cell, 1200)
    assert made is not None
    meta, state, live = made
    ckpt = tmp_path / "anchor.ckpt.json"
    ckpt.write_text(dumps_checkpoint(meta, state))

    live.continue_until(2600)
    spec = CrashPointSpec("queue", "asap_rp", 2600, ops_per_thread=200)
    failure = tmp_path / "failure.json"
    save_state(str(failure), crash_machine(live),
               {"spec": spec.describe(), "violations": []})

    code = main([
        "crashtest", "--replay", str(failure),
        "--from-checkpoint", str(ckpt),
    ])
    out = capsys.readouterr().out
    assert "anchored re-simulation" in out
    assert "barrier cycle 1200" in out
    # a clean state reproduces no violations either way: exit 1, both
    # direct and anchored marked NOT reproduced.
    assert code == 1
    assert out.count("NOT reproduced") == 2
