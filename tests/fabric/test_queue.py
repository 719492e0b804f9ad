"""The directory queue: atomic claims, crash-safe results, eviction."""

from __future__ import annotations

import json
import pickle

from repro.fabric import FabricQueue, TaskEnvelope, TaskOutcome


def _env(task_id: str = "t1") -> TaskEnvelope:
    return TaskEnvelope(task_id=task_id, fn=len, item=[1, 2],
                        label="call:len")


def test_task_roundtrip_and_idempotent_add(tmp_path):
    queue = FabricQueue(tmp_path / "q")
    env = _env()
    queue.add_task(env)
    queue.add_task(env)  # second add is a no-op, not an error
    assert queue.task_ids() == ["t1"]
    assert queue.read_task("t1") == env
    assert queue.read_task("missing") is None


def test_claim_is_exclusive(tmp_path):
    queue = FabricQueue(tmp_path / "q")
    queue.add_task(_env())
    assert queue.try_claim("t1", "w1", ts=1.0) is True
    assert queue.try_claim("t1", "w2", ts=2.0) is False
    lease = queue.lease_info("t1")
    assert lease is not None
    assert lease.worker == "w1"
    assert lease.ts == 1.0
    queue.release_lease("t1")
    assert queue.lease_info("t1") is None
    queue.release_lease("t1")  # releasing twice is fine


def test_claim_next_skips_leased_and_finished(tmp_path):
    queue = FabricQueue(tmp_path / "q")
    for tid in ("a", "b", "c"):
        queue.add_task(_env(tid))
    queue.try_claim("a", "other", ts=0.0)
    queue.write_result(TaskOutcome(task_id="b", ok=True, value=2))
    env = queue.claim_next("me", ts=1.0)
    assert env is not None and env.task_id == "c"
    # everything now leased or finished: idle
    assert queue.claim_next("me", ts=2.0) is None


def test_result_roundtrip(tmp_path):
    queue = FabricQueue(tmp_path / "q")
    outcome = TaskOutcome(task_id="t1", ok=True, value={"n": 3}, worker="w1")
    queue.write_result(outcome)
    assert queue.result_ids() == ["t1"]
    assert queue.read_result("t1") == outcome


def test_corrupt_result_is_evicted(tmp_path):
    queue = FabricQueue(tmp_path / "q")
    (queue.results_dir / "t1.pkl").write_bytes(b"not a pickle")
    assert queue.read_result("t1") is None
    assert not (queue.results_dir / "t1.pkl").exists()


def test_wrong_type_result_is_evicted(tmp_path):
    queue = FabricQueue(tmp_path / "q")
    (queue.results_dir / "t1.pkl").write_bytes(
        pickle.dumps({"not": "an outcome"})
    )
    assert queue.read_result("t1") is None
    assert not (queue.results_dir / "t1.pkl").exists()


def test_garbage_lease_reads_as_none(tmp_path):
    queue = FabricQueue(tmp_path / "q")
    (queue.leases_dir / "t1.lease").write_text("{broken json")
    assert queue.lease_info("t1") is None
    (queue.leases_dir / "t2.lease").write_text(json.dumps({"worker": "w"}))
    assert queue.lease_info("t2") is None  # missing pid/ts fields


def test_stop_resume(tmp_path):
    queue = FabricQueue(tmp_path / "q")
    assert not queue.stopped()
    queue.stop()
    queue.stop()  # idempotent
    assert queue.stopped()
    queue.resume()
    assert not queue.stopped()
