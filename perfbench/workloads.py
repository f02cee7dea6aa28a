"""Seeded workload inputs and their known answers.

Each workload is a list of scenarios.  A scenario is written as the JSON file
(plus client ``.prog`` files) that ``crdt-emu check`` reads, and every check
entry in it carries the answer the paper fixes for it.  The answers come from
the paper's examples and theorems with the seeded values substituted, never
from the checker's own output:

- Ex 2.4 (separate-send bisimulation, values v1 < v2): the op host can show
  v1 at a replica while the state guest can only offer v1+v2.
- Ex 2.5 (reliable-only broadcast vs. the message-set guest, R1): the op
  host can show v2 while the guest can only offer v1 or v1+v2.
- Prop 3.7, Cor 4.5 and Cor 5.3 negatives: a counterexample exists.  Against
  the broken guest, which answers every query with 0, R1 and R2 are refuted
  by a host value of v1, v2 or v1+v2 facing the guest's 0.
- Thms 4.2, 4.4, 4.9, A.2, A.3, Prop 3.7, Ex 4.7, Cor 4.5: the check passes.
- Thm 5.2 (client corpus against honest guests): no counterexample.

The seed draws the replica names, the G-set values and the corpus programs.
It never changes the shape of an instance (roster size, op-universe size,
bounds), so work counts other than the corpus's client states do not depend
on it.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass
from pathlib import Path

PASS = "pass"
COUNTEREXAMPLE = "counterexample"
BOUND_EXHAUSTED = "bound-exhausted"

WORKLOADS = ("simulate", "sweep", "refute")

CORPUS_SIZE = 110
CORPUS_DEPTH = 4
CORPUS_BOUND = 12


@dataclass(frozen=True)
class OneOf:
    """A witness fact the paper fixes only up to a set of values."""

    values: tuple


@dataclass(frozen=True)
class Expect:
    """Known answer for one verdict row: the admissible outcomes and the
    witness facts that must hold (see ``judge``)."""

    outcomes: tuple[str, ...]
    facts: tuple[tuple[str, object], ...] = ()


@dataclass
class Check:
    """One check entry of a scenario and the known answer for each of the
    verdict rows ``cli.run_check`` returns for it.  Rows of checks that share
    a ``group`` are summed into one line of the run output."""

    id: str
    entry: dict
    expect: tuple[Expect, ...]
    group: str = ""


@dataclass
class ScenarioSpec:
    name: str
    data: dict
    checks: list[Check]
    programs: dict[str, str]


@dataclass(frozen=True)
class Draw:
    """Everything the seed decides."""

    names: tuple[str, ...]
    v1: int
    v2: int
    corpus_seed: int


def draw(seed: int) -> Draw:
    rng = random.Random(seed)
    names: list[str] = []
    while len(names) < 3:
        name = "".join(rng.choice(string.ascii_lowercase) for _ in range(3))
        if name not in names:
            names.append(name)
    v1, v2 = sorted(rng.sample(range(1, 100), 2))
    # Sorted, so that the roster order the systems step in agrees with the
    # name order they sort buffers by, for every seed: a sweep that stops at
    # its first counterexample then explores the same number of states.
    return Draw(tuple(sorted(names)), v1, v2, rng.randrange(2**31))


def _scenario(name: str, roster, obj: str, checks: list[Check], programs=None,
              **extra) -> ScenarioSpec:
    data = {
        "name": name,
        "roster": list(roster),
        "object": {"name": obj, "augment": extra.pop("augment", False)},
        "query_universe": ["sum"],
    }
    data.update(extra)
    return ScenarioSpec(name, data, checks, programs or {})


def _gset_ops(*values: int) -> list:
    return [["add", v] for v in values]


def _passes(cid: str, entry: dict, rows: int = 1) -> Check:
    return Check(cid, entry, (Expect((PASS,)),) * rows)


def _cex(cid: str, entry: dict, *facts) -> Check:
    return Check(cid, entry, (Expect((COUNTEREXAMPLE,), tuple(facts)),))


def _sim(rel: str, direction: str) -> dict:
    return {"name": "sim", "relation": rel, "direction": direction}


HBG = "host-by-guest"
GBH = "guest-by-host"


def simulate(d: Draw) -> list[ScenarioSpec]:
    r3 = d.names
    ops = _gset_ops(d.v1, d.v2)
    return [
        _scenario(
            "sim-op-st", r3, "gset-op",
            [_passes("R1", _sim("R1", HBG)), _passes("R2", _sim("R2", GBH))],
            emulate="op-to-st", op_universe=ops, bounds={"step_bound": 6},
        ),
        _scenario(
            "sim-st-op-gset", r3, "gset-st",
            [_passes("Q1-gset", _sim("Q1", HBG)), _passes("Q2-gset", _sim("Q2", GBH))],
            emulate="st-to-op", op_universe=ops, bounds={"step_bound": 6},
        ),
        _scenario(
            "sim-st-op-gcounter", r3, "gcounter-st",
            [_passes("Q1-gcounter", _sim("Q1", HBG)), _passes("Q2-gcounter", _sim("Q2", GBH))],
            emulate="st-to-op", op_universe=[["inc"]], bounds={"step_bound": 8},
        ),
        _scenario(
            "sim-bowtie-atomic", r3, "gset-op",
            [_passes("bowtie-atomic", {"name": "bisim"})],
            emulate="op-to-st", broadcast_mode="atomic", op_universe=ops,
            bounds={"step_bound": 5},
        ),
    ]


def sweep(d: Draw) -> list[ScenarioSpec]:
    r2, r3 = d.names[:2], d.names
    ops = _gset_ops(d.v1, d.v2)
    traces = {"step_bound": 10, "max_trace_len": 3}
    return [
        _scenario(
            "sweep-causal", r3, "gset-op", [_passes("causal", {"name": "causal"})],
            op_universe=ops, bounds={"step_bound": 8},
        ),
        _scenario(
            "sweep-convergence", r2, "gset-op",
            [_passes("convergence", {"name": "convergence", "side": "both"}, rows=2)],
            augment=True, emulate="op-to-st", op_universe=ops, bounds={"step_bound": 8},
        ),
        _scenario(
            "sweep-commutation", r3, "gcounter-st",
            [_passes("commutation", {"name": "commutation"})],
            emulate="st-to-op", op_universe=[["inc"]], bounds={"step_bound": 8},
        ),
        _scenario(
            "sweep-traces-op-st", r2, "gset-op", [_passes("traces-op-st", {"name": "traces"})],
            emulate="op-to-st", op_universe=ops, bounds=traces,
        ),
        _scenario(
            "sweep-traces-st-op", r2, "gcounter-st",
            [_passes("traces-st-op", {"name": "traces"})],
            emulate="st-to-op", op_universe=[["inc"]], bounds=traces,
        ),
    ]


def _query_loop(op: str) -> str:
    """Cor 5.3's client: update, then poll until the query is non-zero."""
    return f"upd({op});\nx := qry(sum);\nwhile (x = 0) {{ x := qry(sum) }}\n"


def corpus_programs(rng: random.Random, op: str, count: int, depth: int) -> list[str]:
    """Random client programs in the concrete syntax, AST depth <= depth.
    Loop guards compare a variable with a small constant, so most loops are
    already false or soon falsified."""
    variables = ("x", "y")

    def expr(k: int) -> str:
        if k <= 0 or rng.random() < 0.5:
            return str(rng.randrange(4)) if rng.random() < 0.5 else rng.choice(variables)
        bop = rng.choice("+-*=<")
        return f"({expr(k - 1)} {bop} {expr(k - 1)})"

    def prog(k: int) -> str:
        kinds = ["skip", "asn", "upd", "qry", "seq"] + (["while"] if k > 1 else [])
        kind = rng.choice(kinds)
        if kind == "skip":
            return "skip"
        if kind == "asn":
            return f"{rng.choice(variables)} := {expr(k - 1)}"
        if kind == "upd":
            return f"upd({op})"
        if kind == "qry":
            return f"{rng.choice(variables)} := qry(sum)"
        if kind == "seq":
            return f"{prog(k - 1)}; {prog(k - 1)}"
        guard = f"({rng.choice(variables)} < {rng.randrange(3)})"
        return f"while {guard} {{ {prog(k - 1)} }}"

    return [prog(depth) + "\n" for _ in range(count)]


def _corpus(name: str, roster, obj: str, op: str, rng: random.Random, **extra) -> ScenarioSpec:
    no_cex = Expect((PASS, BOUND_EXHAUSTED))
    programs = {}
    checks = []
    for i, text in enumerate(corpus_programs(rng, op, CORPUS_SIZE, CORPUS_DEPTH)):
        path = f"{name}/p{i:03d}.prog"
        programs[path] = text
        checks.append(
            Check(f"{name}/p{i:03d}", {"name": "approx", "program": path},
                  (no_cex, no_cex), group=name)
        )
    return _scenario(name, roster, obj, checks, programs,
                     bounds={"client_bound": CORPUS_BOUND}, **extra)


def refute(d: Draw) -> list[ScenarioSpec]:
    r2, r3 = d.names[:2], d.names
    v1, v2 = d.v1, d.v2
    ops = _gset_ops(v1, v2)
    nonzero = (v1, v2, v1 + v2)
    rng = random.Random(d.corpus_seed)
    loop = _scenario(
        "ref-client-broken", r2, "gset-op",
        [Check("qry-loop-broken", {"name": "approx", "program": "qry_loop.prog"},
               (Expect((COUNTEREXAMPLE,)), Expect((BOUND_EXHAUSTED,))))],
        programs={"qry_loop.prog": _query_loop(f"add {v1}")},
        emulate="op-to-st", broken_guest=True, op_universe=_gset_ops(v1),
        bounds={"client_bound": 16},
    )
    return [
        _scenario(
            "ref-bisim-separate", r2, "gset-op",
            [_cex("bisim-separate", {"name": "bisim"},
                  ("attacker_value", v1), ("defender_options", [v1 + v2]))],
            emulate="op-to-st", broadcast_mode="separate-send", op_universe=ops,
            bounds={"step_bound": 8},
        ),
        _scenario(
            "ref-reliable-only", r3, "gset-op",
            [_cex("R1-reliable-only", _sim("R1", HBG),
                  ("attacker_value", v2), ("defender_options", [v1, v1 + v2])),
             _cex("causal-reliable-only", {"name": "causal"})],
            emulate="op-to-st", discipline="reliable-only", op_universe=ops,
            bounds={"step_bound": 8},
        ),
        _scenario(
            "ref-broken-traces", r2, "gset-op",
            [_cex("traces-broken", {"name": "traces"}, ("trace", "non-empty"))],
            emulate="op-to-st", broken_guest=True, op_universe=ops,
            bounds={"step_bound": 8, "max_trace_len": 3},
        ),
        _scenario(
            "ref-broken-sim", r3, "gset-op",
            # The broken guest answers every query with 0, so it is told
            # apart by any non-zero value the host reaches.  Which one the
            # checker meets first is its own search order, not the paper's.
            [_cex("R1-broken", _sim("R1", HBG),
                  ("attacker_value", OneOf(nonzero)), ("defender_current", 0)),
             _cex("R2-broken", _sim("R2", GBH),
                  ("attacker_value", 0), ("defender_current", OneOf(nonzero)))],
            emulate="op-to-st", broken_guest=True, op_universe=ops,
            bounds={"step_bound": 8},
        ),
        loop,
        _corpus("corpus-op-st", r2, "gset-op", f"add {v1}", rng,
                emulate="op-to-st", op_universe=_gset_ops(v1)),
        _corpus("corpus-st-op", r2, "gcounter-st", "inc", rng,
                emulate="st-to-op", op_universe=[["inc"]]),
    ]


BUILDERS = {"simulate": simulate, "sweep": sweep, "refute": refute}


def build(workload: str, seed: int) -> list[ScenarioSpec]:
    return BUILDERS[workload](draw(seed))


def write(specs: list[ScenarioSpec], out_dir: Path) -> None:
    """Write the scenario and program files."""
    for spec in specs:
        for rel, text in spec.programs.items():
            p = out_dir / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(text, encoding="utf-8")
        data = dict(spec.data, checks=[c.entry for c in spec.checks])
        path = out_dir / f"{spec.name}.scenario"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def _witness_fact(witness: dict | None, name: str):
    w = witness or {}
    if name == "trace":
        return "non-empty" if w.get("trace") else "empty"
    return w.get("distinguishing_query", {}).get(name)


def judge(expect: Expect, outcome: str, witness: dict | None) -> str | None:
    """None when a verdict matches its known answer, else the reason."""
    if outcome not in expect.outcomes:
        return f"outcome {outcome!r}, expected one of {list(expect.outcomes)}"
    for name, want in expect.facts:
        got = _witness_fact(witness, name)
        if isinstance(want, OneOf):
            if got not in want.values:
                return f"witness {name} is {got!r}, expected one of {list(want.values)}"
        elif got != want:
            return f"witness {name} is {got!r}, expected {want!r}"
    return None
