"""Scenario-driven command line: load a scenario file, run checks, emit a
machine-readable report and witness traces.

Commands: ``explore`` (dump the bounded transition graph), ``check`` (run the
scenario's checks) and ``run-client`` (approximation check for a client
program).  Exit codes: 0 all pass, 1 any counterexample, 2 bound exhausted
with no failure, 3 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from . import checker, client
from .checker import (
    BOUND_EXHAUSTED,
    COUNTEREXAMPLE,
    HOST_BY_GUEST,
    OP_TO_ST,
    ST_TO_OP,
    PairedSystem,
    Verdict,
    check_causal_safety,
    check_commutation,
    check_strong_convergence,
    check_trace_equivalence,
    check_weak_bisimulation,
    check_weak_simulation,
    explore,
    render_label,
)
from .core import VALUES, FrozenDict, System, entries, intern_scope, render
from .emulation import op_to_st, st_to_op
from .objects import (
    BUILTIN_OBJECTS,
    OpObject,
    StObject,
    augment_history_op,
    augment_history_st,
    break_query,
)
from .opsem import CAUSAL, DISCIPLINES, OpSystem
from .stsem import MODES, SEPARATE_SEND, StSystem


class ScenarioError(ValueError):
    """Configuration problems that map to exit code 3."""


@dataclass
class Bounds:
    step_bound: int = 8
    max_trace_len: int = 3
    tau_budget: int | None = None
    client_bound: int = 16


@dataclass
class Scenario:
    name: str
    roster: tuple[str, ...]
    object_name: str
    augment: bool
    emulate: str | None
    discipline: str
    broadcast_mode: str
    broken_guest: bool
    op_universe: tuple[tuple, ...]
    query_universe: tuple[str, ...]
    bounds: Bounds
    checks: tuple[dict, ...]
    client_program: str | None
    client_store: dict[str, int]
    base_dir: Path = field(default_factory=Path)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioError(message)


def _known_keys(d: dict, allowed, where: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    _require(not unknown, f"{where}: unknown keys {unknown}")


def _bound(value: Any, what: str) -> int:
    _require(
        isinstance(value, int) and not isinstance(value, bool) and value >= 0,
        f"{what} must be a non-negative integer, got {value!r}",
    )
    return value


def _flag(d: dict, key: str, where: str) -> bool:
    """A JSON boolean, so that "false" or 0 cannot switch an option on or off."""
    value = d.get(key, False)
    _require(isinstance(value, bool), f"{where}{key} must be true or false, got {value!r}")
    return value


# Every key a scenario may carry is read, so any other key is a typo that
# would otherwise silently fall back to a default.
_SCENARIO_KEYS = (
    "name", "roster", "object", "semantics", "emulate", "discipline",
    "broadcast_mode", "broken_guest", "op_universe",
    "query_universe", "bounds", "checks", "client",
)
# Keys each check entry may carry besides its name, as run_check reads them.
_CHECK_KEYS: dict[str, frozenset[str]] = {
    "sim": frozenset({"step_bound", "tau_budget", "relation", "direction"}),
    "bisim": frozenset({"step_bound", "tau_budget"}),
    "traces": frozenset({"step_bound", "max_trace_len"}),
    "convergence": frozenset({"step_bound", "side"}),
    "causal": frozenset({"step_bound"}),
    "commutation": frozenset({"step_bound"}),
    "approx": frozenset({"program", "client_bound"}),
}
_INT_KEYS = ("step_bound", "tau_budget", "max_trace_len", "client_bound")


def _check_entry(c: Any, emulate: str | None, augment: bool) -> str | None:
    """Reject a check entry that run_check would misread or fail on with
    something other than a verdict.  Returns the relation a sim entry
    resolves to (``checker.sim_relation``), None for other entries."""
    _require(
        isinstance(c, dict) and isinstance(c.get("name"), str),
        f"malformed check {c!r}",
    )
    name = c["name"]
    _require(name in _CHECK_KEYS, f"unknown check {name!r}")
    _known_keys(c, _CHECK_KEYS[name] | {"name"}, f"{name} check")
    for k in _INT_KEYS:
        if k in c and not (k == "tau_budget" and c[k] is None):
            _bound(c[k], f"{name} check: {k}")
    if name in ("sim", "traces", "approx"):
        _require(emulate is not None, f"{name} check needs an emulate directive")
    rel = None
    if name == "sim":
        try:
            rel = checker.sim_relation(emulate, c.get("direction", HOST_BY_GUEST), c.get("relation"))
        except ValueError as exc:
            raise ScenarioError(f"sim check: {exc}") from exc
    if name == "approx" and "program" in c:
        _require(
            isinstance(c["program"], str),
            f"approx check: program must be a path string, got {c['program']!r}",
        )
    if name == "bisim":
        _require(emulate == OP_TO_ST, "bisim check needs op-to-st emulation")
    if name == "convergence":
        _require(
            c.get("side", "both") in ("both", "host", "guest"),
            f"convergence check: unknown side {c.get('side')!r}",
        )
        _require(augment, "convergence check needs a history-augmented object")
    return rel


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioError("scenario JSON is nested too deeply") from exc
    _require(isinstance(data, dict), "scenario must be a JSON object")
    _known_keys(data, _SCENARIO_KEYS, "scenario")

    name = data.get("name", path.stem)
    _require(isinstance(name, str), f"name must be a string, got {name!r}")
    roster = data.get("roster", [])
    _require(
        isinstance(roster, list) and all(isinstance(r, str) and r for r in roster),
        f"roster must be a list of non-empty replica id strings, got {roster!r}",
    )
    roster = tuple(roster)
    _require(len(roster) > 0, "roster must be non-empty")
    _require(len(set(roster)) == len(roster), "roster has duplicate replica ids")

    obj = data.get("object", {})
    _require(isinstance(obj, dict) and "name" in obj, "object.name is required")
    _known_keys(obj, ("name", "augment"), "object")
    object_name = obj["name"]
    _require(
        isinstance(object_name, str) and object_name in BUILTIN_OBJECTS,
        f"unknown object {object_name!r}",
    )

    semantics = data.get("semantics")
    implied = "op" if object_name.endswith("-op") else "st"
    _require(
        semantics in (None, implied),
        f"semantics {semantics!r} does not fit object {object_name!r}",
    )

    emulate = data.get("emulate")
    _require(
        emulate in (None, OP_TO_ST, ST_TO_OP),
        f"unknown emulate directive {emulate!r}",
    )
    if emulate == OP_TO_ST:
        _require(object_name.endswith("-op"), "op-to-st emulation needs an op-based object")
    if emulate == ST_TO_OP:
        _require(object_name.endswith("-st"), "st-to-op emulation needs a state-based object")

    discipline = data.get("discipline", CAUSAL)
    _require(discipline in DISCIPLINES, f"unknown discipline {discipline!r}")
    mode = data.get("broadcast_mode", SEPARATE_SEND)
    _require(mode in MODES, f"unknown broadcast mode {mode!r}")

    ops = data.get("op_universe", [])
    _require(isinstance(ops, list), f"op_universe must be a list, got {ops!r}")
    for op in ops:
        _require(
            isinstance(op, list) and len(op) >= 1 and isinstance(op[0], str),
            f"malformed operation {op!r}",
        )
        # JSON true/false would pass as the integers 1/0 and render as booleans.
        _require(
            not any(isinstance(x, bool) for x in op),
            f"operation arguments must not be booleans, got {op!r}",
        )
        _require(
            all(isinstance(x, (str, int, float)) for x in op),
            f"operation arguments must be strings or numbers, got {op!r}",
        )
    op_universe = tuple(tuple(op) for op in ops)
    _require(
        len(set(op_universe)) == len(op_universe),
        "op_universe lists an operation twice",
    )
    _require(data.get("query_universe", ["sum"]) == ["sum"], "only the sum query is available")
    query_universe = ("sum",)

    b = data.get("bounds", {})
    _require(isinstance(b, dict), "bounds must be a JSON object")
    _known_keys(b, _INT_KEYS, "bounds")
    bounds = Bounds(
        step_bound=_bound(b.get("step_bound", 8), "bounds.step_bound"),
        max_trace_len=_bound(b.get("max_trace_len", 3), "bounds.max_trace_len"),
        tau_budget=(
            _bound(b["tau_budget"], "bounds.tau_budget")
            if b.get("tau_budget") is not None else None
        ),
        client_bound=_bound(b.get("client_bound", 16), "bounds.client_bound"),
    )

    augment = _flag(obj, "augment", "object.")
    checks = data.get("checks", [])
    _require(isinstance(checks, list), f"checks must be a list, got {checks!r}")
    checks = tuple(checks)
    for c in checks:
        _check_entry(c, emulate, augment)

    client_cfg = data.get("client", {})
    _require(isinstance(client_cfg, dict), f"client must be a JSON object, got {client_cfg!r}")
    _known_keys(client_cfg, ("program", "store"), "client")
    program = client_cfg.get("program")
    _require(
        program is None or isinstance(program, str),
        f"client.program must be a path string, got {program!r}",
    )
    store = client_cfg.get("store", {})
    _require(isinstance(store, dict), f"client.store must be a JSON object, got {store!r}")
    return Scenario(
        name=name,
        roster=roster,
        object_name=object_name,
        augment=augment,
        emulate=emulate,
        discipline=discipline,
        broadcast_mode=mode,
        broken_guest=_flag(data, "broken_guest", ""),
        op_universe=op_universe,
        query_universe=query_universe,
        bounds=bounds,
        checks=checks,
        client_program=program,
        client_store={str(k): _bound(v, f"client.store.{k}") for k, v in store.items()},
        base_dir=path.parent,
    )


def _build_object(scenario: Scenario) -> OpObject | StObject:
    try:
        base = BUILTIN_OBJECTS[scenario.object_name](scenario.op_universe)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    if scenario.augment:
        if isinstance(base, OpObject):
            return augment_history_op(base)
        return augment_history_st(base)
    return base


def _system(obj: OpObject | StObject, scenario: Scenario) -> System:
    if isinstance(obj, OpObject):
        return OpSystem(obj, scenario.roster, discipline=scenario.discipline)
    return StSystem(obj, scenario.roster, mode=scenario.broadcast_mode)


def build_systems(scenario: Scenario) -> tuple[System, PairedSystem | None]:
    """Host system, plus the paired host/guest systems when emulation is on."""
    base = _build_object(scenario)
    host = _system(base, scenario)
    if scenario.emulate is None:
        return host, None
    if scenario.emulate == OP_TO_ST:
        guest_obj = op_to_st(base)  # type: ignore[arg-type]
    else:
        guest_obj = st_to_op(base)  # type: ignore[arg-type]
    if scenario.broken_guest:
        guest_obj = break_query(guest_obj)
    guest = _system(guest_obj, scenario)
    return host, PairedSystem(host=host, guest=guest)


def _op_side(host: System, paired: PairedSystem | None) -> System:
    if host.kind == "op":
        return host
    if paired is not None and paired.guest.kind == "op":
        return paired.guest
    raise ScenarioError("this check needs an op-based side")


MAX_PROGRAM_DEPTH = 200   # syntax-tree levels of a client program


def _load_program(scenario: Scenario, rel_path: str) -> client.Prog:
    """Parse a client program whose updates and queries all lie in the
    scenario's universes and whose syntax tree, expressions included, is at
    most MAX_PROGRAM_DEPTH levels deep: the client search hashes, compares
    and prints programs recursively."""
    path = Path(rel_path)
    if not path.is_absolute():
        path = scenario.base_dir / path
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read client program: {exc}") from exc
    try:
        prog = client.parse_program(text)
    except client.ParseError as exc:
        raise ScenarioError(f"client program {path}: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioError(f"client program {path}: nested too deeply to parse") from exc
    todo = [(prog, 1)]
    while todo:
        p, depth = todo.pop()
        if depth > MAX_PROGRAM_DEPTH:
            raise ScenarioError(
                f"client program {path}: syntax tree deeper than {MAX_PROGRAM_DEPTH} levels"
            )
        depth += 1
        if isinstance(p, client.Seq):
            todo += ((p.first, depth), (p.second, depth))
        elif isinstance(p, client.While):
            todo += ((p.cond, depth), (p.body, depth))
        elif isinstance(p, client.Asn):
            todo.append((p.expr, depth))
        elif isinstance(p, client.Bin):
            todo += ((p.left, depth), (p.right, depth))
        elif isinstance(p, client.Upd) and p.op not in scenario.op_universe:
            raise ScenarioError(f"client program {path}: upd {p.op!r} is not in op_universe")
        elif isinstance(p, client.Qry) and p.query not in scenario.query_universe:
            raise ScenarioError(f"client program {path}: qry {p.query!r} is not in query_universe")
    return prog


def _run_approx(
    scenario: Scenario, paired: PairedSystem, prog: client.Prog, bound: int
) -> dict[str, Verdict]:
    store = FrozenDict.of(scenario.client_store)
    return {
        "host-to-guest": client.check_approximation(
            paired.host, paired.guest, store, prog, bound, bound
        ),
        "guest-to-host": client.check_approximation(
            paired.guest, paired.host, store, prog, bound, bound
        ),
    }


Rows = list[tuple[dict, Verdict]]


def _prepare(
    scenario: Scenario, entry: dict, host: System, paired: PairedSystem | None
) -> Callable[[], Rows]:
    """Resolve one scenario check entry against the scenario's final bounds
    and the built systems, raising ScenarioError for a configuration error
    (``_check_entry``, as ``load_scenario`` does, then what only the built
    systems tell); returns the function that runs the check as (params,
    verdict) rows.  A sim entry runs the relation ``_check_entry``
    resolved."""
    rel = _check_entry(entry, scenario.emulate, scenario.augment)
    name = entry["name"]
    bounds = scenario.bounds
    step_bound = entry.get("step_bound", bounds.step_bound)
    tau_budget = entry.get("tau_budget", bounds.tau_budget)

    if name == "sim":
        which = entry.get("direction", HOST_BY_GUEST)
        return lambda: [(
            {"name": name, "relation": rel, "direction": which},
            check_weak_simulation(paired, rel, step_bound=step_bound, tau_budget=tau_budget),
        )]
    if name == "bisim":
        return lambda: [(
            {"name": name, "mode": scenario.broadcast_mode},
            check_weak_bisimulation(paired, step_bound=step_bound, tau_budget=tau_budget),
        )]
    if name == "traces":
        max_len = entry.get("max_trace_len", bounds.max_trace_len)
        _require(
            max_len <= step_bound,
            f"traces check: max_trace_len {max_len} exceeds step_bound {step_bound}",
        )
        return lambda: [(
            {"name": name, "max_trace_len": max_len},
            check_trace_equivalence(paired, max_len=max_len, step_bound=step_bound),
        )]
    if name == "convergence":
        sides = entry.get("side", "both" if paired else "host")
        systems = []
        for side in ("host", "guest") if sides == "both" else (sides,):
            system = host if side == "host" else (paired.guest if paired else None)
            _require(system is not None, f"convergence check: no {side} system")
            systems.append((side, system))
        return lambda: [
            ({"name": name, "side": side},
             check_strong_convergence(system, step_bound=step_bound))
            for side, system in systems
        ]
    if name == "causal":
        system = _op_side(host, paired)
        return lambda: [(
            {"name": name, "discipline": system.discipline},
            check_causal_safety(system, step_bound=step_bound),
        )]
    if name == "commutation":
        system = _op_side(host, paired)
        return lambda: [(
            {"name": name},
            check_commutation(system, step_bound=step_bound),
        )]
    # approx, the one check name left
    prog_path = entry.get("program", scenario.client_program)
    _require(prog_path is not None, "approx check needs a client program")
    prog = _load_program(scenario, prog_path)
    bound = entry.get("client_bound", bounds.client_bound)
    return lambda: [
        ({"name": name, "direction": direction, "program": prog_path}, v)
        for direction, v in _run_approx(scenario, paired, prog, bound).items()
    ]


def run_check(
    scenario: Scenario,
    entry: dict,
    host: System,
    paired: PairedSystem | None,
) -> Rows:
    """Run one scenario check entry at its resolved bounds; returns
    (params, verdict) rows, one per side or direction checked."""
    return _prepare(scenario, entry, host, paired)()


def exit_code_for(verdicts: list[Verdict]) -> int:
    if any(v.outcome == COUNTEREXAMPLE for v in verdicts):
        return 1
    if any(v.outcome == BOUND_EXHAUSTED for v in verdicts):
        return 2
    return 0


def run_scenario(scenario: Scenario) -> tuple[dict, int]:
    host, paired = build_systems(scenario)
    # Every entry is resolved first, so a configuration error in any entry
    # exits 3 before the first check runs.
    runs = [_prepare(scenario, entry, host, paired) for entry in scenario.checks]
    started = time.monotonic()
    rows = []
    verdicts = []
    for run in runs:
        for params, v in run():
            rows.append({"check": params, "verdict": v.to_report()})
            verdicts.append(v)
    report = {
        "scenario": scenario.name,
        "bounds": {
            "step_bound": scenario.bounds.step_bound,
            "max_trace_len": scenario.bounds.max_trace_len,
            "tau_budget": scenario.bounds.tau_budget,
        },
        "checks": rows,
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    return report, exit_code_for(verdicts)


# --- explore dump ---------------------------------------------------------------


@intern_scope
def _dump_system(system, depth: int) -> dict:
    """The bounded graph of system as JSON.  Its configurations are read in
    the scope that explored them."""
    graph = explore(system, depth)
    nodes = []
    for idx, cfg in enumerate(graph.nodes):
        nodes.append(
            {
                "id": idx,
                "depth": graph.depths[idx],
                "states": {r: render(s) for r, s in zip(system.roster, cfg.states)},
                "buffer": sorted(
                    (
                        {"to": system.roster[k], "message": render(VALUES[v])}
                        for k, v in entries(cfg.buffer, len(system.roster))
                    ),
                    key=lambda d: json.dumps(d, sort_keys=True),
                ),
            }
        )
    edges = [
        {"from": i, "label": render_label(e), "to": j}
        for i, e, j in graph.edges
    ]
    return {"nodes": nodes, "edges": edges, "stats": graph.stats}


def cmd_explore(args) -> int:
    scenario = load_scenario(args.scenario)
    depth = args.depth if args.depth is not None else scenario.bounds.step_bound
    host, paired = build_systems(scenario)
    dump: dict[str, Any] = {"scenario": scenario.name, "depth": depth, "systems": {}}
    dump["systems"]["host"] = _dump_system(host, depth)
    if paired is not None:
        dump["systems"]["guest"] = _dump_system(paired.guest, depth)
    _emit(dump, args.out)
    return 0


def cmd_check(args) -> int:
    scenario = load_scenario(args.scenario)
    # A bound given as a flag replaces the scenario's and every check entry's
    # own, so the report header states the bound each check ran at.
    flags = {
        "step_bound": args.depth,
        "max_trace_len": args.max_trace_len,
        "tau_budget": args.tau_budget,
    }
    given = {k: v for k, v in flags.items() if v is not None}
    for k, v in given.items():
        setattr(scenario.bounds, k, v)
    scenario.checks = tuple(
        {k: v for k, v in entry.items() if k not in given} for entry in scenario.checks
    )
    if not scenario.checks:
        raise ScenarioError("scenario lists no checks")
    report, code = run_scenario(scenario)
    _emit(report, args.out)
    return code


def cmd_run_client(args) -> int:
    scenario = load_scenario(args.scenario)
    prog_path = args.program or scenario.client_program
    if prog_path is None:
        raise ScenarioError("no client program given (flag --program or scenario.client)")
    host, paired = build_systems(scenario)
    if paired is None:
        raise ScenarioError("run-client needs an emulate directive in the scenario")
    prog = _load_program(scenario, prog_path)
    started = time.monotonic()
    results = _run_approx(scenario, paired, prog, scenario.bounds.client_bound)
    report = {
        "scenario": scenario.name,
        "program": prog_path,
        "checks": [
            {"check": {"name": "approx", "direction": d}, "verdict": v.to_report()}
            for d, v in results.items()
        ],
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    _emit(report, args.out)
    return exit_code_for(list(results.values()))


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False)
    if out:
        try:
            Path(out).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            raise ScenarioError(f"cannot write report: {exc}") from exc
    else:
        print(text)


def _check_report_path(out: str) -> None:
    """Fail before any check runs if the report file cannot be opened for
    writing, rather than after the run with an error that would exit 1.  A
    file this test creates is removed again; an existing one is untouched."""
    path = Path(out)
    existed = path.exists()
    try:
        with path.open("a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise ScenarioError(f"cannot write report: {exc}") from exc
    if not existed:
        path.unlink()


def _bound_arg(text: str) -> int:
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ScenarioError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crdt-emu", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_explore = sub.add_parser("explore", help="dump the bounded transition graph")
    p_explore.set_defaults(fn=cmd_explore)
    p_check = sub.add_parser("check", help="run the scenario's checks")
    p_check.set_defaults(fn=cmd_check)
    p_client = sub.add_parser("run-client", help="client-program approximation check")
    p_client.set_defaults(fn=cmd_run_client)

    # Each flag only on the subcommands that read it, so any other use is a
    # usage error rather than silently ignored.
    for p in (p_explore, p_check, p_client):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", default=None, help="write the report to a file")
    for p in (p_explore, p_check):
        p.add_argument("--depth", type=_bound_arg, default=None, help="step bound override")
    p_check.add_argument("--max-trace-len", type=_bound_arg, default=None)
    p_check.add_argument("--tau-budget", type=_bound_arg, default=None)
    p_client.add_argument("--program", default=None, help="client program file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.out:
            _check_report_path(args.out)
        return args.fn(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
