"""Pinned content keys: every cache key and digest stays bit-for-bit.

Result caches, crash-point draws and checkpoint equivalence all rest on
content hashes of canonical JSON.  These hex values were computed once
and committed; any change to how a spec describes itself, how the
description is serialized, or how it is hashed breaks them.  A change
that *means* to invalidate existing caches must bump the relevant
schema version and re-pin here, deliberately.
"""

from __future__ import annotations

from repro.ckpt.api import CheckpointCell, create_checkpoint, run_fingerprint
from repro.crashtest.campaign import CrashCellSpec, CrashPointSpec
from repro.crashtest.points import derive_rng
from repro.exp.spec import RunSpec, fingerprint_sha
from repro.litmus import build_corpus
from repro.litmus.spec import LitmusSpec


def test_run_spec_key():
    assert RunSpec("queue", "asap_rp").key() == (
        "4179c5d19bdcb36d34292655aa551d8b540983e3b69e0ed1cc9d88e5ef253a4f"
    )


def test_traced_run_spec_key():
    assert RunSpec("queue", "asap_rp", events=True).key() == (
        "17c37e3bf5fc2654d0153da0f169f0a310e92a7eecd3fc4ef4055490c3f5fa16"
    )


def test_crash_point_spec_key():
    spec = CrashPointSpec("queue", "asap_rp", crash_cycle=500,
                          ops_per_thread=8)
    assert spec.key() == (
        "285ffa0fde3ef85e6bcedee00afa8498fbb20894567b1a18eff3c187b2ef6161"
    )


def test_crash_cell_spec_key():
    spec = CrashCellSpec("queue", "asap_rp", crash_cycles=(100, 500),
                         ops_per_thread=8)
    assert spec.key() == (
        "60670aded65a888516270e14e9625319e3dae3a6d970e96bfe545cf49e4151a7"
    )


def test_litmus_spec_key():
    (test,) = build_corpus(names=["mp_fenced"])
    assert LitmusSpec(test, "asap_rp", points=4).key() == (
        "e53d161b61853e5cfae75d1a99f2dc70b7a7cc5e72cf3cba72e330a0a74dd1ea"
    )


def test_crash_campaign_rng_draws():
    identity = {
        "schema": 1, "workload": "queue", "hardware": "asap",
        "persistency": "rp", "ops_per_thread": 8, "num_threads": None,
        "seed": 7, "points": 5,
    }
    rng = derive_rng(identity)
    assert [rng.getrandbits(32) for _ in range(3)] == [
        130803024, 3216724736, 1095785177,
    ]


def test_result_fingerprint_sha():
    result = RunSpec("queue", "asap_rp", num_threads=1,
                     ops_per_thread=8).execute()
    assert fingerprint_sha(result) == (
        "701ae3bae64089d6483307ea7ae7c9350b43a0d53e975fa112bdef5daaac613e"
    )


def test_checkpointed_run_fingerprint():
    made = create_checkpoint(
        CheckpointCell("queue", "asap_rp", ops_per_thread=40), 300
    )
    assert made is not None
    _meta, _state, machine = made
    result = machine.continue_run()
    assert run_fingerprint(machine, result) == (
        "850f20ed60c9fe176ed88bc051736ed1c5b2363650d733f990e00f1429769f38"
    )
