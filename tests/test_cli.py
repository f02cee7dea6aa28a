from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crdt_emu import cli
from crdt_emu.cli import (
    ScenarioError,
    build_systems,
    load_scenario,
    main,
    run_check,
    run_scenario,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def scenario_path(name: str) -> str:
    return str(SCENARIOS / f"{name}.scenario")


def write_scenario(tmp_path: Path, data: dict) -> str:
    p = tmp_path / "s.scenario"
    p.write_text(json.dumps(data), encoding="utf-8")
    return str(p)


def base_scenario(**over):
    data = {
        "name": "t",
        "roster": ["r1", "r2"],
        "object": {"name": "gset-op"},
        "emulate": "op-to-st",
        "op_universe": [["add", 1], ["add", 2]],
        "query_universe": ["sum"],
        "bounds": {"step_bound": 4},
        "checks": [{"name": "sim", "relation": "R1", "direction": "host-by-guest"}],
    }
    data.update(over)
    return data


def test_load_scenario_roundtrip(tmp_path):
    s = load_scenario(write_scenario(tmp_path, base_scenario()))
    assert s.roster == ("r1", "r2")
    assert s.op_universe == (("add", 1), ("add", 2))
    host, paired = build_systems(s)
    assert host.kind == "op" and paired.guest.kind == "st"


@pytest.mark.parametrize(
    "broken",
    [
        {"roster": []},
        {"roster": ["r1", "r1"]},
        {"object": {"name": "nope"}},
        {"emulate": "sideways"},
        {"emulate": "st-to-op"},  # mismatched with gset-op
        {"discipline": "best-effort"},
        {"op_universe": [["mul", 3]]},
        {"query_universe": ["max"]},
    ],
)
def test_load_scenario_rejects_bad_configs(tmp_path, broken):
    with pytest.raises(ScenarioError):
        s = load_scenario(write_scenario(tmp_path, base_scenario(**broken)))
        build_systems(s)


def test_cli_usage_error_is_exit_3(tmp_path, capsys):
    assert main(["check", "--scenario", str(tmp_path / "missing.scenario")]) == 3
    assert main(["frobnicate"]) == 3
    assert main(["check", "--scenario", scenario_path("thm-4-2"), "--depth", "-1"]) == 3
    assert main(["explore", "--scenario", scenario_path("thm-4-2"), "--depth", "x"]) == 3
    err = capsys.readouterr().err
    assert "error:" in err
    # flags a subcommand would ignore are not registered on it
    for command, name, flag in [
        ("run-client", "cor-5-3-client", ["--depth", "2"]),
        ("run-client", "cor-5-3-client", ["--max-trace-len", "2"]),
        ("run-client", "cor-5-3-client", ["--tau-budget", "2"]),
        ("run-client", "cor-5-3-client", ["--no-prune"]),
        ("explore", "thm-4-2", ["--no-prune"]),
        ("check", "thm-4-2", ["--no-prune"]),
        ("explore", "thm-4-2", ["--max-trace-len", "2"]),
        ("explore", "thm-4-2", ["--tau-budget", "2"]),
    ]:
        assert main([command, "--scenario", scenario_path(name), *flag]) == 3
        assert "unrecognized arguments" in capsys.readouterr().err


def test_python_m_crdt_emu_runs_the_cli(tmp_path):
    """The package runs as ``python -m crdt_emu`` without the console script."""
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "crdt_emu", *args],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )

    helped = run("--help")
    assert helped.returncode == 0 and helped.stdout.startswith("usage: crdt-emu")
    assert run().returncode == 3
    missing = run("check", "--scenario", str(tmp_path / "missing.scenario"))
    assert missing.returncode == 3 and "error:" in missing.stderr


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize(
    "command, name", [("check", "thm-4-2"), ("explore", "thm-4-2"), ("run-client", "cor-5-3-client")]
)
def test_unwritable_report_path_exits_3_before_any_check(
    tmp_path, capsys, monkeypatch, command, name, target
):
    out = tmp_path / "no-such-dir" / "r.json" if target == "missing-directory" else tmp_path

    def must_not_run(path):
        raise AssertionError("the scenario was loaded before the report path was checked")

    monkeypatch.setattr(cli, "load_scenario", must_not_run)
    assert main([command, "--scenario", scenario_path(name), "--out", str(out)]) == 3
    assert "cannot write report" in capsys.readouterr().err


def test_report_path_check_leaves_no_file(tmp_path):
    out = tmp_path / "r.json"
    assert main(["check", "--scenario", str(tmp_path / "missing.scenario"),
                 "--out", str(out)]) == 3
    assert not out.exists()
    out.write_text("kept", encoding="utf-8")
    assert main(["check", "--scenario", str(tmp_path / "missing.scenario"),
                 "--out", str(out)]) == 3
    assert out.read_text(encoding="utf-8") == "kept"


def test_check_exit_codes_and_report(tmp_path, capsys):
    code = main(
        ["check", "--scenario", scenario_path("thm-4-2"), "--depth", "4",
         "--out", str(tmp_path / "report.json")]
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["scenario"] == "thm-4-2"
    outcomes = {c["verdict"]["outcome"] for c in report["checks"]}
    assert outcomes == {"pass"}
    for c in report["checks"]:
        assert "stats" in c["verdict"] and "bounds" in c["verdict"]


def test_bound_flags_override_check_entries(tmp_path):
    checks = [
        {"name": "sim", "relation": "R1", "direction": "host-by-guest",
         "step_bound": 2, "tau_budget": 3},
        {"name": "traces", "step_bound": 2, "max_trace_len": 2},
    ]
    path = write_scenario(tmp_path, base_scenario(checks=checks))
    out = tmp_path / "report.json"
    code = main(
        ["check", "--scenario", path, "--depth", "1", "--tau-budget", "5",
         "--max-trace-len", "1", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["bounds"] == {"step_bound": 1, "max_trace_len": 1, "tau_budget": 5}
    sim, traces = (c["verdict"] for c in report["checks"])
    assert sim["bounds"] == {"step_bound": 1, "tau_budget": 5, "relation": "R1"}
    assert sim["stats"]["max_depth"] == 1
    assert traces["bounds"] == {"max_trace_len": 1, "step_bound": 1}


def test_trace_length_past_the_step_bound_exits_3(tmp_path, capsys):
    """A traces check whose max_trace_len exceeds its step_bound is a
    configuration error, whether the bound comes from a flag or an entry."""
    assert main(["check", "--scenario", scenario_path("cor-4-5-traces"), "--depth", "2"]) == 3
    assert "max_trace_len 3 exceeds step_bound 2" in capsys.readouterr().err
    path = write_scenario(tmp_path, base_scenario(checks=[{"name": "traces", "step_bound": 2}]))
    assert main(["check", "--scenario", path]) == 3
    assert "max_trace_len 3 exceeds step_bound 2" in capsys.readouterr().err


_AUGMENTED_ST = {"object": {"name": "gset-st", "augment": True}, "emulate": None}


@pytest.mark.parametrize(
    "first, late, over, flags",
    [
        ("sim", {"name": "traces", "max_trace_len": 9}, {}, []),
        ("sim", {"name": "traces"}, {}, ["--max-trace-len", "9"]),
        (
            "causal", {"name": "convergence", "side": "guest"},
            {"object": {"name": "gset-op", "augment": True}, "emulate": None}, [],
        ),
        ("convergence", {"name": "causal"}, _AUGMENTED_ST, []),
        ("convergence", {"name": "commutation"}, _AUGMENTED_ST, []),
        ("sim", {"name": "approx"}, {}, []),
        ("sim", {"name": "approx", "program": "missing.prog"}, {}, []),
    ],
    ids=["traces-entry", "traces-flag", "convergence-no-guest", "causal-no-op-side",
         "commutation-no-op-side", "approx-no-program", "approx-unreadable-program"],
)
def test_configuration_errors_are_found_before_any_check_runs(
    tmp_path, monkeypatch, capsys, first, late, over, flags
):
    """An entry that cannot run exits 3 before the valid entry listed ahead
    of it has run."""
    calls = []
    for name in dir(cli):
        if name.startswith("check_"):
            monkeypatch.setattr(cli, name, lambda *a, _n=name, **k: calls.append(_n))
    first_entry = sim_entry()[0] if first == "sim" else {"name": first}
    path = write_scenario(tmp_path, base_scenario(checks=[first_entry, late], **over))
    assert main(["check", "--scenario", path, *flags]) == 3
    assert "error:" in capsys.readouterr().err
    assert calls == []


def test_check_counterexample_exit_code(tmp_path):
    code = main(
        ["check", "--scenario", scenario_path("ex-2-5-no-causal"), "--depth", "6",
         "--out", str(tmp_path / "report.json")]
    )
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    sim = next(c for c in report["checks"] if c["check"]["name"] == "sim")
    assert sim["verdict"]["outcome"] == "counterexample"
    assert sim["verdict"]["witness"]["distinguishing_query"]["attacker_value"] == 2


def test_bisim_scenarios_exit_codes(tmp_path):
    out = str(tmp_path / "r.json")
    assert main(["check", "--scenario", scenario_path("thm-4-9-bisim"), "--depth", "5", "--out", out]) == 0
    assert main(["check", "--scenario", scenario_path("ex-2-4-bisim"), "--out", out]) == 1
    report = json.loads(Path(out).read_text())
    dq = report["checks"][0]["verdict"]["witness"]["distinguishing_query"]
    assert dq["attacker_value"] == 5 and dq["defender_options"] == [47]


def test_scenario_semantics_field_consistency(tmp_path):
    s = load_scenario(write_scenario(tmp_path, base_scenario(semantics="op")))
    assert s.object_name == "gset-op"
    with pytest.raises(ScenarioError):
        load_scenario(write_scenario(tmp_path, base_scenario(semantics="st")))


def test_run_client_exit_codes(tmp_path):
    out = str(tmp_path / "r.json")
    assert main(["run-client", "--scenario", scenario_path("cor-5-3-client"), "--out", out]) == 0
    assert (
        main(
            ["run-client", "--scenario", scenario_path("cor-5-3-client"),
             "--program", "programs/forever.prog", "--out", out]
        )
        == 2
    )
    assert main(["run-client", "--scenario", scenario_path("cor-5-3-broken"), "--out", out]) == 1


@pytest.mark.parametrize("command", ["check", "explore", "run-client"])
def test_scenario_that_is_not_utf8_exits_3(tmp_path, capsys, command):
    path = tmp_path / "s.scenario"
    path.write_bytes(b"\xff\xfe" + json.dumps(base_scenario()).encode("utf-16-le"))
    assert main([command, "--scenario", str(path), "--out", str(tmp_path / "r.json")]) == 3
    assert "cannot read scenario" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["run-client"], ["run-client", "--program", "bad.prog"], ["check"]]
)
def test_client_program_that_is_not_utf8_exits_3(tmp_path, capsys, command):
    for name in ("p.prog", "bad.prog"):
        (tmp_path / name).write_bytes(b"\xff\xfe" + "upd(add 1)".encode("utf-16-le"))
    path = write_scenario(
        tmp_path,
        base_scenario(
            bounds={"step_bound": 4},
            checks=[{"name": "approx", "program": "p.prog"}],
            client={"program": "p.prog"},
        ),
    )
    assert main([*command, "--scenario", path, "--out", str(tmp_path / "r.json")]) == 3
    assert "cannot read client program" in capsys.readouterr().err


OUT_OF_UNIVERSE_PROGRAMS = [
    "x := qry(bogus)",
    "upd(add 7)",
    "upd(frob)",
    "x := qry(sum); while (x < 1) { upd(add 1); upd(add 7) }",
    "while (x < 1) { x := qry(max) }",
]


def client_scenario(tmp_path: Path, text: str) -> str:
    (tmp_path / "p.prog").write_text(text, encoding="utf-8")
    return write_scenario(
        tmp_path,
        base_scenario(
            bounds={"step_bound": 4},
            checks=[{"name": "approx", "program": "p.prog"}],
            client={"program": "p.prog"},
        ),
    )


@pytest.mark.parametrize("text", OUT_OF_UNIVERSE_PROGRAMS)
@pytest.mark.parametrize("command", ["run-client", "check"])
def test_client_program_outside_the_universes_exits_3(tmp_path, capsys, command, text):
    path = client_scenario(tmp_path, text)
    assert main([command, "--scenario", path, "--out", str(tmp_path / "r.json")]) == 3
    assert "universe" in capsys.readouterr().err


def test_scenario_nested_too_deeply_exits_3(tmp_path, capsys):
    path = tmp_path / "s.scenario"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["check", "--scenario", str(path), "--out", str(tmp_path / "r.json")]) == 3
    assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        # fails in the parser
        ("x := " + "(" * 300 + "1" + ")" * 300, "nested too deeply to parse"),
        # parses, but the client search would recurse through 600 levels
        ("skip; " * 599 + "skip", "deeper than 200 levels"),
        # one level past the limit, in an expression
        ("x := " + "1 + " * 199 + "1", "deeper than 200 levels"),
    ],
    ids=["parentheses", "statements", "expression"],
)
def test_client_program_nested_too_deeply_exits_3(tmp_path, capsys, text, message):
    path = client_scenario(tmp_path, text)
    assert main(["run-client", "--scenario", path, "--out", str(tmp_path / "r.json")]) == 3
    assert message in capsys.readouterr().err


def test_client_program_at_the_depth_limit_runs(tmp_path):
    """200 statements make a syntax tree of exactly 200 levels; one more
    statement is a configuration error."""
    (tmp_path / "p.prog").write_text("skip; " * 199 + "skip", encoding="utf-8")
    path = write_scenario(
        tmp_path,
        base_scenario(
            bounds={"step_bound": 4, "client_bound": 200},
            checks=[{"name": "approx", "program": "p.prog"}],
            client={"program": "p.prog"},
        ),
    )
    out = tmp_path / "r.json"
    assert main(["run-client", "--scenario", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert [c["verdict"]["outcome"] for c in report["checks"]] == ["pass", "pass"]
    (tmp_path / "p.prog").write_text("skip; " * 200 + "skip", encoding="utf-8")
    assert main(["run-client", "--scenario", path, "--out", str(out)]) == 3


def test_explore_dump_consistency(tmp_path):
    out = tmp_path / "dump.json"
    code = main(
        ["explore", "--scenario", scenario_path("ex-2-4-bisim"), "--depth", "3",
         "--out", str(out)]
    )
    assert code == 0
    dump = json.loads(out.read_text())
    for side in ("host", "guest"):
        g = dump["systems"][side]
        assert g["stats"]["states"] == len(g["nodes"])
        assert g["stats"]["edges"] == len(g["edges"])
        ids = {n["id"] for n in g["nodes"]}
        assert all(e["from"] in ids and e["to"] in ids for e in g["edges"])


def test_explore_depth_zero_single_node(tmp_path):
    out = tmp_path / "dump.json"
    code = main(
        ["explore", "--scenario", scenario_path("ex-2-4-bisim"), "--depth", "0",
         "--out", str(out)]
    )
    assert code == 0
    dump = json.loads(out.read_text())
    assert len(dump["systems"]["host"]["nodes"]) == 1


def test_reports_stable_across_runs(tmp_path):
    reports = []
    for i in range(2):
        s = load_scenario(scenario_path("ex-2-5-no-causal"))
        s.bounds.step_bound = 6
        report, code = run_scenario(s)
        report.pop("wall_time_s")
        reports.append(json.dumps(report, sort_keys=True))
        assert code == 1
    assert reports[0] == reports[1]


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    """Steps, and so witnesses, are ordered by canonical keys, never by set
    iteration order: two string-hash seeds give the same report.  The R1
    witness of this scenario holds state-based sends."""
    src = Path(cli.__file__).resolve().parent.parent
    reports = []
    for seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-m", "crdt_emu", "check",
             "--scenario", scenario_path("ex-2-5-no-causal"), "--depth", "6"],
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed),
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1, done.stderr
        report = json.loads(done.stdout)
        report.pop("wall_time_s")
        reports.append(report)
    assert reports[0] == reports[1]


def sim_entry(**over):
    return [dict({"name": "sim", "relation": "R1", "direction": "host-by-guest"}, **over)]


@pytest.mark.parametrize(
    "broken",
    [
        {"checks": sim_entry(step_bound="x")},
        {"checks": sim_entry(step_bound=-1)},
        {"checks": sim_entry(tau_budget=1.5)},
        {"checks": sim_entry(relation="R9")},
        {"checks": sim_entry(direction="guest-by-host")},  # R1 is host-by-guest
        {"checks": sim_entry(direction="sideways")},
        {"checks": sim_entry(relation="Q1")},  # Q1 needs st-to-op
        {"checks": [{"name": "sim", "relaton": "R2", "direction": "guest-by-host"}]},
        {"checks": [{"name": "approx", "program": "p.prog", "step_bound": 4}]},
        {"checks": [{"name": "frobnicate"}]},
        {"checks": [{"name": ["sim"]}]},
        {"checks": [{"name": "bisim"}], "emulate": None},
        {"checks": [{"name": "convergence"}]},  # object is not history-augmented
        {
            "checks": [{"name": "convergence", "side": "left"}],
            "object": {"name": "gset-op", "augment": True},
        },
        {"bounds": {"step_bound": "x"}},
        {"bounds": {"step_bund": 4}},
        {"client": {"store": {"x": "one"}}},
        {"client": {"programme": "p.prog"}},
        {"object": {"name": "gset-op", "augmnet": True}},
        {"broadcast_mod": "atomic"},
        {"op_universe": [["add", True]]},
        {"op_universe": [["add", 1], ["add", 1]]},
        {"op_universe": [["add", 1], ["add", True]]},
        # values of the wrong JSON type
        {"broken_guest": "no"},
        {"repeat_ops": "false"},
        {"repeat_ops": True},
        {"object": {"name": "gset-op", "augment": "false"}},
        {"roster": "ab"},
        {"roster": ["r1", 2]},
        {"roster": ["r1", ["x"]]},
        {"roster": ["r1", ""]},
        {"client": {"store": [1]}},
        {"name": 5},
        {"op_universe": [5]},
        {"op_universe": [["add", [1]]]},
        {"query_universe": 5},
        {"checks": 5},
        {"client": {"program": 5}},
        {"client": False},
        {"client": 0},
        {"client": ""},
        {"client": []},
        {"client": None},
        {"checks": sim_entry(relation=["R1"])},  # a relation that is not a string
        {"checks": [{"name": "approx", "program": 5}]},
    ],
)
def test_bad_scenario_entries_exit_3(tmp_path, capsys, broken):
    path = write_scenario(tmp_path, base_scenario(**broken))
    with pytest.raises(ScenarioError):
        load_scenario(path)
    assert main(["check", "--scenario", path]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry",
    [
        {"name": "sim", "relaton": "R2"},
        {"name": "sim", "relation": "R1", "step_bound": -2},
        {"name": "sim", "relation": "R2"},  # R2 is guest-by-host
    ],
)
def test_run_check_validates_its_entry(tmp_path, entry):
    """run_check, which callers may hand an entry that no scenario file
    carried, rejects it as load_scenario would, with a configuration error:
    no misspelled key runs the default relation, and no negative bound
    passes."""
    scenario = load_scenario(write_scenario(tmp_path, base_scenario()))
    host, paired = build_systems(scenario)
    with pytest.raises(ScenarioError):
        run_check(scenario, entry, host, paired)
