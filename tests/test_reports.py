"""Golden reports: every shipped scenario that lists checks must produce the
same report, ``wall_time_s`` aside, as the one stored in ``tests/golden``.
The scenarios in ``EXPLORED`` are dumped as ``crdt-emu explore --depth 2``
dumps them, nodes and labelled edges, against ``tests/golden/explore``.

Every shipped roster is sorted, so each scenario but ``thm-4-2-3rid`` (the
slowest) is also run with its roster reversed, and must give each golden
outcome and stat: a replica is a position in its roster, and nothing may
read a sorted position for a roster one.

After a change that is meant to alter a report, rewrite the files with

    PYTHONPATH=src python tests/test_reports.py

and review the diff.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import pytest

from crdt_emu.cli import load_scenario, main, run_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"
# Every edge label shape (update, query, silent delivery, silent send) shows
# on ex-2-4-bisim; thm-4-9-bisim's updates are atomic.
EXPLORED = ("ex-2-4-bisim", "thm-4-9-bisim")
EXPLORE_DEPTH = 2


def _checked_scenarios() -> list[str]:
    return sorted(
        path.stem
        for path in SCENARIOS.glob("*.scenario")
        if json.loads(path.read_text()).get("checks")
    )


def _report(name: str, reverse_roster: bool = False) -> dict:
    scenario = load_scenario(SCENARIOS / f"{name}.scenario")
    if reverse_roster:
        scenario = dataclasses.replace(scenario, roster=scenario.roster[::-1])
    report, _ = run_scenario(scenario)
    report.pop("wall_time_s")
    return json.loads(json.dumps(report))


def _explore_dump(name: str, out: Path) -> dict:
    argv = ["explore", "--scenario", str(SCENARIOS / f"{name}.scenario"),
            "--depth", str(EXPLORE_DEPTH), "--out", str(out)]
    assert main(argv) == 0
    return json.loads(out.read_text())


def test_every_checked_scenario_has_a_golden_report():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == _checked_scenarios()


@pytest.mark.parametrize("name", _checked_scenarios())
def test_report_matches_golden(name):
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    assert _report(name) == golden


@pytest.mark.parametrize(
    "name", [name for name in _checked_scenarios() if name != "thm-4-2-3rid"]
)
def test_a_reversed_roster_keeps_every_outcome_and_stat(name):
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    reversed_report = _report(name, reverse_roster=True)
    assert [row["check"] for row in reversed_report["checks"]] == [
        row["check"] for row in golden["checks"]
    ]
    for got, want in zip(reversed_report["checks"], golden["checks"]):
        assert got["verdict"]["outcome"] == want["verdict"]["outcome"]
        assert got["verdict"]["stats"] == want["verdict"]["stats"]


@pytest.mark.parametrize("name", EXPLORED)
def test_explore_dump_matches_golden(name, tmp_path):
    golden = json.loads((GOLDEN / "explore" / f"{name}.json").read_text())
    assert _explore_dump(name, tmp_path / "dump.json") == golden


def _write(path: Path, report: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(GOLDEN)}", file=sys.stderr)


if __name__ == "__main__":
    for name in _checked_scenarios():
        _write(GOLDEN / f"{name}.json", _report(name))
    with tempfile.TemporaryDirectory() as scratch:
        for name in EXPLORED:
            dump = _explore_dump(name, Path(scratch) / "dump.json")
            _write(GOLDEN / "explore" / f"{name}.json", dump)
