"""The demos print what they printed when their stdout was recorded."""

import json
import runpy
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
# tests/data/demo_stdout.json holds each demo's stdout, recorded while a
# profile still carried its hyperbolicity verdict as a string.  The test only
# reads it.
GOLDEN = json.loads((REPO / "tests/data/demo_stdout.json").read_text())


def test_every_demo_has_recorded_stdout():
    assert sorted(GOLDEN) == sorted(path.name for path in (REPO / "demos").glob("0*.py"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_prints_its_recorded_stdout(name, monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    runpy.run_path(str(REPO / "demos" / name), run_name="__main__")
    assert capsys.readouterr().out == GOLDEN[name]
