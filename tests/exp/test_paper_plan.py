"""The reproduction's declared plan (``benchmarks/plan.py``), checked dry.

Nothing here simulates: the tests count declared cells and read the
figure drivers' source.
"""

import ast
import pathlib

from benchmarks.plan import PAPER

BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
DRIVERS = sorted(BENCHMARKS.glob("test_*.py"))

#: The figures the paper's 4-core / 2-MC evaluation shares.
PAPER_FIGURES = ["fig02", "fig03", "fig08", "fig09", "fig11"]

#: Entry points that would run cells outside the shared plan.
BYPASSES = {"run_grid", "run_plan", "ExperimentPlan", "RunSpec",
            "execute_spec", "bench_grid"}
BYPASS_MODULES = {"repro.exp"}


def test_paper_figures_issue_180_cells_for_90_distinct():
    issued = sum(len(PAPER.grids[name]) for name in PAPER_FIGURES)
    assert issued == 180
    assert len(PAPER.plan(PAPER_FIGURES)) == 90


def test_whole_reproduction_dedupes_495_cells_to_304():
    assert sum(len(grid) for grid in PAPER.grids.values()) == 495
    assert len(PAPER.plan()) == 304


def test_no_driver_runs_cells_outside_the_plan():
    assert DRIVERS
    for path in DRIVERS:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.module not in BYPASS_MODULES, (path.name, node.module)
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            assert not names & BYPASSES, (path.name, names & BYPASSES)


def test_every_declared_grid_is_read_by_a_driver():
    literals = set()
    for path in DRIVERS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
    for name in PAPER.grids:
        figure = name.split("/")[0]
        assert any(lit == name or lit.startswith(figure + "/")
                   for lit in literals), name
