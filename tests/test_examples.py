"""Smoke tests keeping every example script runnable.

The examples are part of the public deliverable; these tests import each
one and run its ``main()`` so a refactor cannot silently break them.
"""

import importlib
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    sys.path.insert(0, str(EXAMPLES_DIR))
    try:
        module = importlib.import_module(name)
        module = importlib.reload(module)  # fresh state across tests
        module.main()
    finally:
        sys.path.remove(str(EXAMPLES_DIR))
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", capsys)
        assert "suggestions synthesised" in out
        assert "meet anna at Janetta's" in out

    def test_icecream_scenario(self, capsys):
        out = run_example("icecream_scenario", capsys)
        assert "Janetta's" in out
        assert "distilled into" in out

    def test_global_recommendation(self, capsys):
        out = run_example("global_recommendation", capsys)
        assert "Harbourside Oysters" in out
        assert "anna" in out

    def test_evolution_demo(self, capsys):
        out = run_example("evolution_demo", capsys)
        assert "CRASH" in out
        assert "constraint satisfied" in out
        assert "node-failed" in out  # the repair action's cause

    def test_pipelines_demo(self, capsys):
        out = run_example("pipelines_demo", capsys)
        assert "pipeline 'gps-feed' deployed" in out
        assert "filtered at the edge" in out


def test_every_example_has_a_test():
    """The tests above are the only place CI runs the examples, so an
    example without one here would run nowhere."""
    tested = {name.removeprefix("test_") for name in vars(TestExamples) if name.startswith("test_")}
    examples = {path.stem for path in EXAMPLES_DIR.glob("*.py")}
    assert examples and examples <= tested, sorted(examples - tested)
