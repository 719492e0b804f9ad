"""Shared fixtures for the figure/table benchmarks.

Every benchmark regenerates one of the paper's evaluation artifacts
(Figures 2, 3, 8-13, Table V, the ablations and extensions), writes its
rows to ``benchmarks/results/<name>.txt`` and prints them, so the numbers
can be compared against the paper and pasted into EXPERIMENTS.md.  The
drivers read their simulation grids from the shared plan in
``benchmarks/plan.py``, which runs each distinct cell once per pytest run.

Run with::

    pytest benchmarks/                      # 21 claim checks, serial
    REPRO_BENCH_JOBS=4 pytest benchmarks/   # missing cells over 4 processes

then ``git diff -- benchmarks/results`` shows any drift in the tables.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def record(results_dir):
    """Write a named result artifact and echo it to stdout."""

    def _record(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n=== {name} ===\n{text}\n")

    return _record


def geomean(values):
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))
