"""The example scripts run end to end against the current API."""

import os
import runpy

import pytest

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "examples")


@pytest.mark.parametrize("script", ["quickstart.py", "ol_attack_comparison.py",
                                    "hello_ctf.py", "resynthesis_study.py"])
def test_example_runs(script, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_SCALE", "tiny")
    runpy.run_path(os.path.join(EXAMPLES, script), run_name="__main__")
    assert capsys.readouterr().out.strip()
