from __future__ import annotations

import json

import pytest

from crdt_emu.checker import explore
from crdt_emu.client import (
    Asn,
    Bin,
    ClientState,
    ClientSystem,
    Lit,
    ParseError,
    Qry,
    Seq,
    Skip,
    Upd,
    Var,
    While,
    can_terminate,
    check_approximation,
    eval_expr,
    parse_program,
    program_to_text,
    prog_terminated,
)
from crdt_emu.core import intern_scope, render_event
from crdt_emu.emulation import op_to_st
from crdt_emu.objects import break_query, gset_op
from crdt_emu.opsem import OpSystem
from crdt_emu.stsem import StSystem
from reference import generate_programs


def env_pair(values=(1,), roster=("r1", "r2")):
    obj = gset_op(values)
    return OpSystem(obj, roster), StSystem(op_to_st(obj), roster)


# --- parsing --------------------------------------------------------------------


def test_parse_skip():
    assert parse_program("skip") == Skip()


def test_parse_loop_program_shape():
    p = parse_program("x := qry(sum); while (x < 3) { upd(add 1); x := qry(sum) }")
    assert p == Seq(
        Qry("x", "sum"),
        While(Bin("<", Var("x"), Lit(3)), Seq(Upd(("add", 1)), Qry("x", "sum"))),
    )


def test_parse_while_zero():
    assert parse_program("while (0) { skip }") == While(Lit(0), Skip())


def test_parse_print_parse_identity():
    texts = [
        "skip",
        "x := 1 + 2 * y",
        "x := qry(sum); while (x < 3) { upd(add 1); x := qry(sum) }",
        "upd(inc); y := x - 4",
        "while (x = 0) { skip; skip }",
    ]
    for text in texts:
        p = parse_program(text)
        assert parse_program(program_to_text(p)) == p


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_program("x :=\n  qry(")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_program("x ! 3")


# --- expressions ----------------------------------------------------------------


def test_eval_literal_and_var():
    assert eval_expr(Lit(0), ()) == 0
    assert eval_expr(Bin("+", Var("x"), Lit(1)), (("x", 4),)) == 5


def test_eval_truncated_subtraction():
    assert eval_expr(Bin("-", Lit(2), Lit(5)), ()) == 0


def test_eval_comparisons_yield_bits():
    assert eval_expr(Bin("<", Lit(1), Lit(2)), ()) == 1
    assert eval_expr(Bin("=", Lit(1), Lit(2)), ()) == 0


# --- small-step semantics ----------------------------------------------------------


def test_skip_is_terminal():
    host, _ = env_pair()
    cs = ClientState(host.init(), (), Skip())
    assert prog_terminated(cs.prog, cs.store) and not ClientSystem(host, cs).steps(cs)


def test_while_zero_guard_is_terminal():
    host, _ = env_pair()
    cs = ClientState(host.init(), (), While(Lit(0), Skip()))
    assert prog_terminated(cs.prog, cs.store) and not ClientSystem(host, cs).steps(cs)


def test_query_reads_replica_value_and_keeps_env():
    obj = gset_op((5, 42))
    host = OpSystem(obj, ("r1", "r2"))
    c = host.init()
    for op in (("add", 5), ("add", 42)):
        c = next(c2 for e, c2 in host.steps(c) if e.obs_key() == ("update", "r1", op))
    for _ in range(2):
        c = next(c2 for e, c2 in host.steps(c) if e.obs_key() is None and e.replica == "r2")
    cs = ClientState(c, (), Qry("x", "sum"))
    succ = ClientSystem(host, cs).steps(cs)
    qry_succs = [(e, s) for e, s in succ if s.prog == Skip()]
    assert any(dict(s.store).get("x") == 47 for _, s in qry_succs)
    # the environment configuration is untouched by a client query
    assert all(e is None and s.env is c for e, s in qry_succs)


def test_assignment_keeps_the_store_sorted_and_zero_valued_variables():
    """A store is the tuple of its (var, value) items sorted by var.  After
    x := 0 it holds x at 0, not the empty store: the client state differs
    from one that never assigned x, and the k_states/l_states counts of the
    approximation check count them apart."""
    host, _ = env_pair()
    for store, prog, after in (
        ((), Asn("x", Lit(0)), (("x", 0),)),
        ((("y", 1),), Asn("x", Lit(2)), (("x", 2), ("y", 1))),
        ((("x", 5), ("y", 1)), Asn("x", Var("y")), (("x", 1), ("y", 1))),
    ):
        cs = ClientState(host.init(), store, prog)
        assert [s.store for _, s in ClientSystem(host, cs).steps(cs)] == [after]


def test_pure_rules_are_deterministic():
    host, _ = env_pair()
    init = host.init()
    for prog in (Asn("x", Lit(3)), While(Lit(1), Skip()), Seq(Skip(), Asn("y", Lit(1)))):
        cs = ClientState(init, (), prog)
        succ = ClientSystem(host, cs).steps(cs)
        pure = [e for e, s in succ if s.env is init]
        assert pure == [None]


def test_upd_served_by_any_replica():
    host, _ = env_pair((1,))
    cs = ClientState(host.init(), (), Upd(("add", 1)))
    succ = ClientSystem(host, cs).steps(cs)
    served = [e for e, s in succ if s.prog == Skip()]
    assert len(served) == 2  # either replica may serve it
    assert {e.replica for e in served} == {"r1", "r2"}


# --- termination ----------------------------------------------------------------------


def test_can_terminate_skip():
    host, _ = env_pair()
    t = can_terminate(host, ClientState(host.init(), (), Skip()), 4)
    assert t.terminates and t.witness == []


def test_while_one_never_terminates():
    host, _ = env_pair()
    prog = While(Lit(1), Skip())
    t = can_terminate(host, ClientState(host.init(), (), prog), 12)
    assert not t.terminates


def test_qry_gated_loop_terminates_via_delivery():
    host, _ = env_pair((1,))
    prog = parse_program("upd(add 1); x := qry(sum); while (x < 1) { x := qry(sum) }")
    t = can_terminate(host, ClientState(host.init(), (), prog), 16)
    assert t.terminates
    assert t.witness


def test_negative_bound_raises():
    """A negative bound raises whether or not the program can terminate,
    so it is rejected before any search."""
    host, guest = env_pair()
    for prog in (Skip(), While(Lit(1), Skip())):
        with pytest.raises(ValueError):
            can_terminate(host, ClientState(host.init(), (), prog), -1)
        for bound_k, bound_l in ((-1, 5), (5, -1)):
            with pytest.raises(ValueError):
                check_approximation(host, guest, (), prog, bound_k, bound_l)


def _env_events(system, witness):
    """The environment events of a termination witness, read back as the
    steps of system whose rendering they are, from its initial
    configuration on."""
    c = system.init()
    events = []
    for entry in witness:
        if entry["env_event"] is None:
            continue
        e, c = next((e, c2) for e, c2 in system.steps(c)
                    if render_event(e) == entry["env_event"])
        events.append(e)
    return events, c


@pytest.mark.parametrize("side", ["host", "guest"])
@intern_scope
def test_termination_witnesses_replay(side):
    """Over a generated corpus, each terminating witness is an execution of
    the composed system: its environment events replay from the initial
    configuration, and it ends in a terminated program.  The witnesses'
    steps and their replays run in one scope, so their configurations are
    read over one value index."""
    system = dict(zip(("host", "guest"), env_pair((1, 2))))[side]
    programs = generate_programs((("add", 1), ("add", 2)), ("sum",), 60, 5, seed=3)
    terminating = 0
    for prog in programs:
        t = can_terminate(system, ClientState(system.init(), (), prog), 10)
        if not t.terminates:
            continue
        terminating += 1
        events, env = _env_events(system, t.witness)
        assert system.replay(events) == env
        last = t.witness[-1] if t.witness else {"prog": program_to_text(prog), "store": {}}
        assert prog_terminated(parse_program(last["prog"]), tuple(sorted(last["store"].items())))
    assert 0 < terminating < len(programs)


def test_search_steps_each_environment_once():
    stepped = []

    class Counting(OpSystem):
        def steps(self, c):
            stepped.append(c)
            return super().steps(c)

    host = Counting(gset_op((1, 2)), ("r1", "r2"))
    prog = parse_program("x := 1; upd(add 1); upd(add 2); while (x < 2) { x := qry(sum) }")
    t = can_terminate(host, ClientState(host.init(), (), prog), 12)
    assert t.terminates
    assert len(stepped) == len({id(c) for c in stepped}) > 1


@pytest.mark.parametrize("side", ["host", "guest"])
def test_search_stops_where_the_terminated_state_is_found(side, monkeypatch):
    """The search stops once the first terminated client state is appended,
    so it expands exactly the client states up to that state's parent."""
    system = dict(zip(("host", "guest"), env_pair((1,))))[side]
    prog = parse_program("upd(add 1); x := qry(sum); while (x < 1) { x := qry(sum) }")
    cs = ClientState(system.init(), (), prog)
    graph = explore(ClientSystem(system, cs), 16)
    calls = []
    steps = ClientSystem.steps
    monkeypatch.setattr(ClientSystem, "steps", lambda self, c: calls.append(c) or steps(self, c))
    t = can_terminate(system, cs, 16)
    assert t.terminates
    found = t.states_explored - 1
    terminated = [i for i, c in enumerate(graph.nodes) if prog_terminated(c.prog, c.store)]
    assert terminated[0] == found
    parent, _ = graph.parents[found]
    assert len(calls) == parent + 1 < found


# --- approximation ----------------------------------------------------------------------


def test_approximation_pass_both_directions():
    host, guest = env_pair((1,))
    prog = parse_program("upd(add 1); x := qry(sum); while (x = 0) { x := qry(sum) }")
    assert check_approximation(host, guest, (), prog, 16, 16).passed
    assert check_approximation(guest, host, (), prog, 16, 16).passed


def test_approximation_vacuous_is_bound_exhausted():
    host, guest = env_pair()
    prog = While(Lit(1), Skip())
    v = check_approximation(host, guest, (), prog, 10, 10)
    assert v.outcome == "bound-exhausted"


def test_approximation_counterexample_against_broken_guest():
    obj = gset_op((1,))
    host = OpSystem(obj, ("r1", "r2"))
    broken = StSystem(break_query(op_to_st(obj)), ("r1", "r2"))
    prog = parse_program("upd(add 1); x := qry(sum); while (x = 0) { x := qry(sum) }")
    v = check_approximation(host, broken, (), prog, 16, 16)
    assert v.outcome == "counterexample"
    assert v.witness["k_witness"]


def test_witness_stores_render_as_json_objects():
    """Each client state of a witness renders its store as a JSON object of
    its variables, the initial store's included."""
    obj = gset_op((1,))
    host = OpSystem(obj, ("r1", "r2"))
    broken = StSystem(break_query(op_to_st(obj)), ("r1", "r2"))
    prog = parse_program("upd(add 1); x := qry(sum); while (x = 0) { x := qry(sum) }")
    v = check_approximation(host, broken, (("y", 3),), prog, 16, 16)
    stores = [w["store"] for w in v.witness["k_witness"]]
    assert stores and all(type(s) is dict and s["y"] == 3 for s in stores)
    assert stores[-1] == {"x": 1, "y": 3}
    assert json.loads(json.dumps(stores)) == stores


def test_generated_corpus_is_deterministic():
    a = generate_programs((("add", 1),), ("sum",), 30, 4, seed=7)
    b = generate_programs((("add", 1),), ("sum",), 30, 4, seed=7)
    assert [program_to_text(p) for p in a] == [program_to_text(p) for p in b]


def test_prog_terminated_depends_on_store():
    assert prog_terminated(While(Var("x"), Skip()), (("x", 0),))
    assert not prog_terminated(While(Var("x"), Skip()), (("x", 2),))
