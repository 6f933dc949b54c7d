"""Smoke tests of the scripts under demos/: each imports, and the quick ones run."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
QUICK = ("01_belief_tracking", "02_policy_anatomy", "03_controller_stepdown")


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_demo_is_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports(path):
    assert callable(_load(path).main)


@pytest.mark.parametrize("name", QUICK)
def test_quick_demo_runs(name, capsys):
    _load(next(p for p in DEMOS if p.stem == name)).main()
    assert capsys.readouterr().out.strip()
