"""Golden reports: every shipped scenario that lists checks must produce the
same report, ``wall_time_s`` aside, as the one stored in ``tests/golden``.
The scenarios in ``NO_PRUNE`` are also checked with summary pruning off, as
``crdt-emu check --no-prune`` runs them, against ``tests/golden/no-prune``.

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
NO_PRUNE = ("ex-2-5-no-causal",)


def _checked_scenarios() -> list[str]:
    return sorted(
        path.stem
        for path in SCENARIOS.glob("*.scenario")
        if json.loads(path.read_text()).get("checks")
    )


def _report(name: str, prune: bool = True) -> dict:
    report, _ = run_scenario(load_scenario(SCENARIOS / f"{name}.scenario"), prune=prune)
    report.pop("wall_time_s")
    return json.loads(json.dumps(report))


def test_every_checked_scenario_has_a_golden_report():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == _checked_scenarios()


@pytest.mark.parametrize("name", _checked_scenarios())
def test_report_matches_golden(name):
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    assert _report(name) == golden


@pytest.mark.parametrize("name", NO_PRUNE)
def test_unpruned_report_matches_golden(name):
    golden = json.loads((GOLDEN / "no-prune" / f"{name}.json").read_text())
    assert _report(name, prune=False) == golden


def _write(path: Path, report: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(GOLDEN)}", file=sys.stderr)


if __name__ == "__main__":
    for name in _checked_scenarios():
        _write(GOLDEN / f"{name}.json", _report(name))
    for name in NO_PRUNE:
        _write(GOLDEN / "no-prune" / f"{name}.json", _report(name, prune=False))
