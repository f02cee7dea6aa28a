"""Golden reports: every shipped scenario that lists checks must produce the
same report, ``wall_time_s`` aside, as the one stored in ``tests/golden``.

After a change that is meant to alter a report, rewrite the files with

    PYTHONPATH=src python tests/test_reports.py

and review the diff.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from crdt_emu.cli import load_scenario, run_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _checked_scenarios() -> list[str]:
    return sorted(
        path.stem
        for path in SCENARIOS.glob("*.scenario")
        if json.loads(path.read_text()).get("checks")
    )


def _report(name: str) -> dict:
    report, _ = run_scenario(load_scenario(SCENARIOS / f"{name}.scenario"))
    report.pop("wall_time_s")
    return json.loads(json.dumps(report))


def test_every_checked_scenario_has_a_golden_report():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == _checked_scenarios()


@pytest.mark.parametrize("name", _checked_scenarios())
def test_report_matches_golden(name):
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    assert _report(name) == golden


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in _checked_scenarios():
        text = json.dumps(_report(name), indent=1, sort_keys=True) + "\n"
        (GOLDEN / f"{name}.json").write_text(text)
        print(f"wrote {name}.json", file=sys.stderr)
