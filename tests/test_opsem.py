from __future__ import annotations

import itertools

from crdt_emu.checker import explore
from crdt_emu.core import (
    Input,
    VectorClock,
    happens_before,
    satisfies_causal_delivery,
)
from crdt_emu.emulation import st_to_op
from crdt_emu.objects import IDENTITY_VALUE, gset_op, gset_st
from crdt_emu.opsem import (
    CAUSAL,
    RELIABLE_ONLY,
    OpSystem,
    _delivery_enabled,
    op_init,
    op_replica_step,
    op_system_steps,
)
from conftest import msg

import pytest


def test_replica_step_update_preps_then_applies():
    obj = gset_op((5,))
    s2, out = op_replica_step(obj, "r1", frozenset(), Input.upd(("add", 5)))
    assert s2 == {5}
    assert out.kind == "send"
    assert out.message.payload == 5


def test_replica_step_delivery_applies_effect():
    obj = gset_op((5, 42))
    s2, out = op_replica_step(obj, "r2", frozenset({5}), Input.dlvr(msg("r1", 2, {"r1": 2}, 42)))
    assert s2 == {5, 42}
    assert out.kind == "none"


def test_replica_step_query_is_stuttering():
    obj = gset_op((5,))
    s = frozenset({5})
    s2, out = op_replica_step(obj, "r1", s, Input.qry("sum"))
    assert s2 == s
    assert out.value == 5


def test_replica_step_none_input_has_no_rule():
    obj = gset_op((5,))
    assert op_replica_step(obj, "r1", frozenset(), Input.none()) is None


def test_replica_step_deterministic():
    obj = gset_op((5,))
    a = op_replica_step(obj, "r1", frozenset(), Input.upd(("add", 5)), clock=VectorClock(), seq=0)
    b = op_replica_step(obj, "r1", frozenset(), Input.upd(("add", 5)), clock=VectorClock(), seq=0)
    assert a == b


def test_init_rejects_bad_rosters():
    obj = gset_op((5,))
    with pytest.raises(ValueError):
        op_init(obj, ())
    with pytest.raises(ValueError):
        op_init(obj, ("r1", "r1"))


def test_init_states_and_successors():
    obj = gset_op((5, 42))
    system = OpSystem(obj, ("r1", "r2"))
    c = system.init()
    assert all(c.states[r] == frozenset() for r in ("r1", "r2"))
    succ = system.steps(c)
    assert not any(l.is_silent for l, _ in succ)
    updates = [l for l, _ in succ if l.kind == "update"]
    assert len(updates) == 2 * 2  # |roster| * |op universe|


def test_update_broadcasts_to_other_replicas():
    obj = gset_op((5, 42))
    system = OpSystem(obj, ("r1", "r2"))
    label, c = system.steps(system.init())[0]
    assert label.op == ("add", 5)
    (dest, m), = c.buffer
    assert dest == "r2" and m.payload == 5


def test_causal_gate_blocks_out_of_order_delivery():
    obj = gset_op((1, 2))
    roster = ("r1", "r2", "r3")

    def run(discipline):
        system = OpSystem(obj, roster, discipline=discipline)
        c = system.init()
        script = [
            ("update", "r1", ("add", 1)),
            ("dlvr", "r2", 1),
            ("update", "r2", ("add", 2)),
        ]
        for kind, r, x in script:
            for l, c2 in system.steps(c):
                if kind == "update" and l.kind == "update" and l.replica == r and l.op == x:
                    c = c2
                    break
                if (
                    kind == "dlvr"
                    and l.is_silent
                    and l.replica == r
                    and c2.trace.head.input.message.payload == x
                ):
                    c = c2
                    break
            else:
                raise AssertionError(f"script step {kind} {r} {x} unavailable")
        return system, c

    system, c = run(CAUSAL)
    m2_at_r3 = [
        l
        for l, c2 in system.steps(c)
        if l.is_silent and l.replica == "r3" and c2.trace.head.input.message.payload == 2
    ]
    assert not m2_at_r3

    system, c = run(RELIABLE_ONLY)
    m2_at_r3 = [
        l
        for l, c2 in system.steps(c)
        if l.is_silent and l.replica == "r3" and c2.trace.head.input.message.payload == 2
    ]
    assert m2_at_r3


def test_prop_3_7_causal_sweep():
    obj = gset_op((1, 2))
    system = OpSystem(obj, ("r1", "r2", "r3"))
    graph = explore(system, 6)
    for cfg in graph.nodes:
        assert satisfies_causal_delivery(cfg.trace)


def test_buffer_conservation_and_sent_growth():
    obj = gset_op((1, 2))
    system = OpSystem(obj, ("r1", "r2"))
    graph = explore(system, 5)
    for i, label, j in graph.edges:
        pre, post = graph.nodes[i], graph.nodes[j]
        assert pre.sent <= post.sent
        if label.is_silent:
            removed = pre.buffer - post.buffer
            assert len(removed) == 1
            assert post.buffer <= pre.buffer


def test_concurrent_delivery_diamond():
    obj = gset_op((1, 2))
    system = OpSystem(obj, ("r1", "r2", "r3"))
    c = system.init()
    # two concurrent updates, then both messages sit in r3's buffer
    c = next(c2 for l, c2 in system.steps(c) if l.kind == "update" and l.replica == "r1")
    c = next(
        c2
        for l, c2 in system.steps(c)
        if l.kind == "update" and l.replica == "r2" and l.op == ("add", 2)
    )
    deliveries = [
        (c2.trace.head.input.message, c2)
        for l, c2 in system.steps(c)
        if l.is_silent and l.replica == "r3"
    ]
    assert len(deliveries) == 2
    (ma, ca), (mb, cb) = deliveries
    ca2 = next(
        c2
        for l, c2 in system.steps(ca)
        if l.is_silent and l.replica == "r3" and c2.trace.head.input.message == mb
    )
    cb2 = next(
        c2
        for l, c2 in system.steps(cb)
        if l.is_silent and l.replica == "r3" and c2.trace.head.input.message == ma
    )
    assert ca2.states["r3"] == cb2.states["r3"] == {1, 2}


def test_reliable_only_violates_causal_delivery_somewhere():
    obj = gset_op((1, 2))
    system = OpSystem(obj, ("r1", "r2", "r3"), discipline=RELIABLE_ONLY)
    graph = explore(system, 6)
    assert any(not satisfies_causal_delivery(cfg.trace) for cfg in graph.nodes)


def test_downsets_are_downward_closed_on_reachable_traces():
    from crdt_emu.core import downset_of, happens_before

    system = OpSystem(gset_op((1, 2)), ("r1", "r2", "r3"))
    graph = explore(system, 6)
    for cfg in graph.nodes:
        for m in cfg.sent:
            ds = downset_of(m, cfg.sent)
            for m1 in cfg.sent:
                for m2 in ds:
                    if happens_before(m1, m2):
                        assert m1 in ds


def test_enabled_delivery_preserves_causal_safety():
    from crdt_emu.core import Event, Input, Output, enabled

    system = OpSystem(gset_op((1, 2)), ("r1", "r2", "r3"))
    graph = explore(system, 5)
    checked = 0
    for cfg in graph.nodes:
        for r, m in sorted(cfg.buffer, key=lambda rm: (rm[0], rm[1].sort_key())):
            if enabled(r, m, cfg.trace):
                extended = cfg.trace.append(Event(r, Input.dlvr(m), Output.none()))
                assert satisfies_causal_delivery(extended)
                checked += 1
    assert checked > 0


def test_delivered_subset_of_sent_on_reachable_traces():
    from crdt_emu.core import delivered, sent

    system = OpSystem(gset_op((1, 2)), ("r1", "r2"))
    graph = explore(system, 5)
    for cfg in graph.nodes:
        s = sent(cfg.trace)
        for r in ("r1", "r2"):
            assert delivered(r, cfg.trace) <= s
            assert cfg.delivered[r] == delivered(r, cfg.trace)
        assert cfg.sent == s


def test_clock_order_characterizes_event_happens_before():
    """On explored traces, the clock order between two sent messages coincides
    with happens-before between their send events (program order, send-to-
    deliver edges, transitivity)."""
    from crdt_emu.core import happens_before

    system = OpSystem(gset_op((1, 2)), ("r1", "r2", "r3"))
    graph = explore(system, 6)
    for cfg in graph.nodes:
        events = cfg.trace.events()
        n = len(events)
        reach = [[False] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if events[i].replica == events[j].replica:
                    reach[i][j] = True
                if (
                    events[i].output.kind == "send"
                    and events[j].input.kind == "dlvr"
                    and events[i].output.message == events[j].input.message
                ):
                    reach[i][j] = True
        for k in range(n):
            for i in range(n):
                if reach[i][k]:
                    for j in range(n):
                        if reach[k][j]:
                            reach[i][j] = True
        send_idx = {
            e.output.message: i
            for i, e in enumerate(events)
            if e.output.kind == "send"
        }
        for m1, i in send_idx.items():
            for m2, j in send_idx.items():
                if m1 is not m2:
                    assert happens_before(m1, m2) == reach[i][j]


def _gate_by_happens_before(obj, c, r, m) -> bool:
    """The causal delivery gate as defined: m not yet delivered at r (by id,
    or by payload under value identity), and every sent causal predecessor
    of m, by happens_before, already delivered there."""
    by_value = obj.message_identity == IDENTITY_VALUE
    if (m.payload in c.delivered_values[r]) if by_value else (m in c.delivered[r]):
        return False
    dlv = c.delivered_values[r] if by_value else c.delivered[r]
    return all(
        (m2.payload if by_value else m2) in dlv for m2 in c.sent if happens_before(m2, m)
    )


@pytest.mark.parametrize(
    "system",
    [
        OpSystem(gset_op((1, 2)), ("r1", "r2", "r3")),
        OpSystem(st_to_op(gset_st((1, 2))), ("r1", "r2", "r3")),
        # reachable without the gate, so buffers hold out-of-order messages
        OpSystem(gset_op((1, 2)), ("r1", "r2", "r3"), discipline=RELIABLE_ONLY),
    ],
    ids=["op-host", "st-to-op-guest", "reliable-only-host"],
)
def test_origin_component_gate_agrees_with_happens_before(system):
    """On every buffered (r, m) of every configuration reachable at depth 6,
    the causal gate decides as the happens_before-based definition."""
    decided = {True: 0, False: 0}
    for c in explore(system, 6).nodes:
        for r, m in c.buffer:
            want = _gate_by_happens_before(system.obj, c, r, m)
            assert _delivery_enabled(system.obj, c, r, m, CAUSAL) == want
            decided[want] += 1
    assert decided[True] and decided[False]


def test_system_steps_unfiltered_allow_op_reuse():
    # the module-level relation has no op gating
    obj = gset_op((5,))
    c = op_init(obj, ("r1", "r2"))
    succ = op_system_steps(obj, ("r1", "r2"), c)
    c2 = [cfg for l, cfg in succ if l.kind == "update" and l.replica == "r1"][0]
    again = op_system_steps(obj, ("r1", "r2"), c2)
    assert any(l.kind == "update" and l.replica == "r1" for l, _ in again)


def test_steps_store_nothing_on_the_configuration():
    # A stored successor list would keep every generated configuration alive.
    system = OpSystem(gset_op((5, 42)), ("r1", "r2"))
    c = system.init()
    (_, c2), *_ = system.steps(c)
    system.steps(c2)
    for cfg in (c, c2):
        assert not hasattr(cfg, "_steps")
        assert not hasattr(cfg, "__dict__")
    assert system.summary(c2) is system.summary(c2)
