"""SharedPlan: overlapping named grids, each distinct cell run once per pass."""

from typing import Callable, Dict, List, Sequence, TypeVar

import pytest

from repro.exp import (
    ExperimentPlan,
    ParallelExecutor,
    ResultCache,
    SharedPlan,
    run_plan,
)
from repro.sim.config import MachineConfig

T = TypeVar("T")
R = TypeVar("R")

MACHINE = MachineConfig(num_cores=2)
OPS = 12


def declare() -> Dict[str, ExperimentPlan]:
    grid = ExperimentPlan.grid
    return {
        # 4 cells
        "a": grid(["fence_latency", "coalescing"], ["baseline", "asap_rp"],
                  MACHINE, OPS),
        # coalescing/asap is also a's; hops is the hops_rp design
        "b": grid(["coalescing"], ["asap", "hops"], MACHINE, OPS),
        # the same cell as b's coalescing/hops
        "c": grid(["coalescing"], ["hops_rp"], MACHINE, OPS),
    }


ALL = ("a", "b", "c")
DISTINCT = 5


class CountingExecutor:
    """Serial executor that records the key of every cell it runs."""

    jobs = 1

    def __init__(self) -> None:
        self.keys: List[str] = []

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        self.keys.extend(item.key() for item in items)
        return [fn(item) for item in items]


class CountingPool(ParallelExecutor):
    """Process-pool executor that records the key of every cell it runs."""

    def __init__(self) -> None:
        super().__init__(jobs=2)
        self.keys: List[str] = []

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        self.keys.extend(item.key() for item in items)
        return super().map(fn, items)


def store(**kwargs) -> SharedPlan:
    kwargs.setdefault("executor", CountingExecutor())
    return SharedPlan(declare, **kwargs)


def full_pass(shared: SharedPlan) -> None:
    for name in ALL:
        shared.run(name)


def test_overlapping_grids_execute_each_distinct_key_once():
    shared = store()
    full_pass(shared)
    keys = shared.executor.keys
    assert len(keys) == len(set(keys)) == DISTINCT
    assert set(keys) == {spec.key() for spec in shared.plan()}


def test_overlapping_grids_over_the_pool_execute_each_distinct_key_once():
    pooled = store(executor=CountingPool())
    serial = store()
    for name in ALL:
        assert [r.fingerprint() for r in pooled.run(name).results] == [
            r.fingerprint() for r in serial.run(name).results
        ]
    keys = pooled.executor.keys
    assert len(keys) == len(set(keys)) == DISTINCT


def test_a_grid_run_alone_executes_only_its_own_cells():
    shared = store()
    shared.run("b")
    assert shared.executor.keys == [spec.key() for spec in shared.grids["b"]]


def test_store_is_empty_once_every_declarer_has_read():
    shared = store()
    shared.run("a")
    assert shared.held == 1  # coalescing/asap, until b reads it
    shared.run("b")
    assert shared.held == 1  # coalescing/hops, until c reads it
    shared.run("c")
    assert shared.held == 0


def test_consecutive_passes_execute_the_same_cells():
    shared = store()
    full_pass(shared)
    first = list(shared.executor.keys)
    full_pass(shared)
    assert shared.executor.keys == first + first


def test_repeat_request_from_one_grid_simulates_again():
    shared = store()
    shared.run("a")
    shared.run("a")
    assert len(shared.executor.keys) == 2 * len(shared.grids["a"])
    # the second run re-held the shared cell for b, which reads it once
    shared.run("b")
    assert len(shared.executor.keys) == 2 * len(shared.grids["a"]) + 1


def test_hops_and_hops_rp_share_one_execution():
    shared = store()
    b = shared.sweep("b")
    c = shared.sweep("c")
    assert len(shared.executor.keys) == 2
    assert b.models == ["asap", "hops"]
    assert c.models == ["hops_rp"]
    assert c.runs[("coalescing", "hops_rp")] is b.runs[("coalescing", "hops")]


def test_shared_results_equal_a_direct_run_plan():
    shared = store()
    for name in ALL:
        direct = run_plan(shared.grids[name])
        assert [r.fingerprint() for r in shared.run(name).results] == [
            r.fingerprint() for r in direct.results
        ]


def test_the_declaration_is_built_on_first_request():
    calls = []

    def counting_declare() -> Dict[str, ExperimentPlan]:
        calls.append(1)
        return declare()

    shared = SharedPlan(counting_declare, executor=CountingExecutor())
    assert calls == []
    shared.run("c")
    shared.run("b")
    assert calls == [1]


def test_plan_is_the_deduplicated_union():
    shared = store()
    assert len(shared.plan()) == DISTINCT
    assert len(shared.plan(["b", "c"])) == 2


def test_unknown_grid_is_a_key_error():
    with pytest.raises(KeyError):
        store().run("nope")


def test_missing_cells_go_through_the_result_cache(tmp_path):
    cache = ResultCache(tmp_path)
    cold = store(cache=cache)
    full_pass(cold)
    assert len(cold.executor.keys) == DISTINCT
    warm = store(cache=cache)
    outcome = warm.run("a")
    assert warm.executor.keys == []
    assert (outcome.cache_hits, outcome.cache_misses) == (4, 0)
