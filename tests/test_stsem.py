from __future__ import annotations

from crdt_emu.checker import explore
from crdt_emu.core import Input, initial_config, intern_scope
from crdt_emu.emulation import op_to_st
from crdt_emu.objects import gset_op, gset_st, st_leq
from crdt_emu.stsem import (
    ATOMIC_BROADCAST,
    StSystem,
    st_replica_step,
)
from reference import by_replica, decode


def guest():
    return op_to_st(gset_op((5, 42)))


@intern_scope
def test_replica_step_update_inserts_message():
    obj = guest()
    s2, out = st_replica_step(obj, "r1", 0, Input.upd(("add", 5)))
    assert out.kind == "none"
    (m,) = obj.decode(s2)
    assert m.payload == 5 and m.origin == "r1"


def test_replica_step_none_emits_state():
    obj = gset_st((5,))
    s = frozenset({5})
    s2, out = st_replica_step(obj, "r1", s, Input.none())
    assert s2 == s
    assert out.kind == "send" and out.message == s


@intern_scope
def test_replica_step_delivery_merges():
    obj = guest()
    st = obj.update("r1", ("add", 5), 0)
    st = obj.update("r1", ("add", 42), st)
    s2, out = st_replica_step(obj, "r2", 0, Input.dlvr(st))
    assert s2 == st
    assert obj.query("sum", s2) == 47


@intern_scope
def test_ex_2_4_script_single_merged_state():
    obj = guest()
    system = StSystem(obj, ("r1", "r2"))
    c = system.init()
    for op in (("add", 5), ("add", 42)):
        c = next(c2 for e, c2 in system.steps(c) if e.obs_key() == ("update", "r1", op))
    c = next(
        c2 for e, c2 in system.steps(c) if e.input.kind == "none" and e.replica == "r1"
    )
    entries = list(decode(system, c).buffer)
    assert len(entries) == 1
    r, payload = entries[0]
    assert r == "r2" and len(payload) == 2
    assert payload == obj.decode(c.states[0]) and obj.query("sum", c.states[0]) == 47


def test_deliver_dedups_identical_state_value():
    obj = gset_st((7,))
    system = StSystem(obj, ("r1", "r2"))
    c = system.init()
    c = next(c2 for e, c2 in system.steps(c) if e.input.kind == "upd" and e.replica == "r1")
    c = next(c2 for e, c2 in system.steps(c) if e.input.kind == "none" and e.replica == "r1")
    c = next(c2 for e, c2 in system.steps(c) if e.input.kind == "dlvr" and e.replica == "r2")
    # re-broadcast of the same state value is buffered at most once and
    # cannot be redelivered at r2
    c = next(c2 for e, c2 in system.steps(c) if e.input.kind == "none" and e.replica == "r1")
    assert not any(
        e.input.kind == "dlvr" and e.replica == "r2" for e, _ in system.steps(c)
    )


@intern_scope
def test_atomic_mode_broadcasts_within_update():
    obj = guest()
    system = StSystem(obj, ("r1", "r2"), mode=ATOMIC_BROADCAST)
    c = system.init()
    e, c2 = next(
        (e, c2) for e, c2 in system.steps(c) if e.input.kind == "upd" and e.input.op == ("add", 5)
    )
    assert e.obs_key() is not None
    (dest, s), = decode(system, c2).buffer
    assert dest == "r2"
    assert s == obj.decode(c2.states[0]) and obj.query("sum", c2.states[0]) == 5
    assert e.output.kind == "send"


def test_atomic_mode_has_no_silent_sends():
    system = StSystem(guest(), ("r1", "r2"), mode=ATOMIC_BROADCAST)
    graph = explore(system, 5)
    for _, e, _ in graph.edges:
        if e.obs_key() is None:
            assert e.input.kind == "dlvr"


@intern_scope
def test_send_leaves_state_unchanged_and_deliver_removes_one_entry():
    system = StSystem(guest(), ("r1", "r2"))
    graph = explore(system, 5)
    for i, e, j in graph.edges:
        pre, post = graph.nodes[i], graph.nodes[j]
        if e.input.kind == "none":
            assert pre.states == post.states
        if e.input.kind == "dlvr":
            assert len(decode(system, pre).buffer - decode(system, post).buffer) == 1


@intern_scope
def test_states_monotone_along_executions():
    obj = guest()
    system = StSystem(obj, ("r1", "r2"))
    graph = explore(system, 5)
    for i, _, j in graph.edges:
        pre, post = graph.nodes[i], graph.nodes[j]
        before, after = by_replica(system, pre).states, by_replica(system, post).states
        for r in ("r1", "r2"):
            assert st_leq(obj, before[r], after[r])


def test_init_rejects_bad_rosters():
    import pytest

    with pytest.raises(ValueError):
        initial_config(gset_st((1,)), ())


def test_steps_store_nothing_on_the_configuration():
    # A stored successor list would keep every generated configuration alive.
    system = StSystem(guest(), ("r1", "r2"))
    c = system.init()
    (_, c2), *_ = system.steps(c)
    system.steps(c2)
    for cfg in (c, c2):
        assert not hasattr(cfg, "_steps")
        assert not hasattr(cfg, "__dict__")
