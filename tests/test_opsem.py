from __future__ import annotations

import itertools

from crdt_emu import opsem
from crdt_emu.checker import explore
from crdt_emu.core import (
    Input,
    VectorClock,
    downset_bits,
    happens_before,
    initial_config,
    intern_scope,
    value_bit,
)
from crdt_emu.emulation import st_to_op
from crdt_emu.objects import IDENTITY_VALUE, gset_op, gset_st
from crdt_emu.opsem import (
    CAUSAL,
    RELIABLE_ONLY,
    OpSystem,
    _delivery_enabled,
    op_replica_step,
)
from conftest import clock_before, msg, raw_tree
from reference import (
    by_replica,
    clock_join,
    clock_tick,
    decode,
    satisfies_causal_delivery,
    scan_downset_bits,
)

import pytest


def test_replica_step_update_preps_then_applies():
    obj = gset_op((5,))
    s2, out = op_replica_step(obj, "r1", frozenset(), Input.upd(("add", 5)))
    assert s2 == {5}
    assert out.kind == "send"
    assert out.message.payload == 5


def test_replica_step_delivery_applies_effect():
    obj = gset_op((5, 42))
    s2, out = op_replica_step(obj, "r2", frozenset({5}), Input.dlvr(msg("r1", {"r1": 2}, 42)))
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
    a = op_replica_step(obj, "r1", frozenset(), Input.upd(("add", 5)))
    b = op_replica_step(obj, "r1", frozenset(), Input.upd(("add", 5)))
    assert a == b


def test_init_rejects_bad_rosters():
    obj = gset_op((5,))
    with pytest.raises(ValueError):
        initial_config(obj, ())
    with pytest.raises(ValueError):
        initial_config(obj, ("r1", "r1"))


def test_init_states_and_successors():
    obj = gset_op((5, 42))
    system = OpSystem(obj, ("r1", "r2"))
    c = system.init()
    assert all(by_replica(system, c).states[r] == frozenset() for r in ("r1", "r2"))
    succ = system.steps(c)
    assert not any(e.obs_key() is None for e, _ in succ)
    updates = [e for e, _ in succ if e.input.kind == "upd"]
    assert len(updates) == 2 * 2  # |roster| * |op universe|


@intern_scope
def test_update_broadcasts_to_other_replicas():
    obj = gset_op((5, 42))
    system = OpSystem(obj, ("r1", "r2"))
    e, c = system.steps(system.init())[0]
    assert e.input.op == ("add", 5)
    (dest, m), = decode(system, c).buffer
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
            for e, c2 in system.steps(c):
                if kind == "update" and e.obs_key() == ("update", r, x):
                    c = c2
                    break
                if (
                    kind == "dlvr"
                    and e.obs_key() is None
                    and e.replica == r
                    and e.input.message.payload == x
                ):
                    c = c2
                    break
            else:
                raise AssertionError(f"script step {kind} {r} {x} unavailable")
        return system, c

    system, c = run(CAUSAL)
    m2_at_r3 = [
        e
        for e, c2 in system.steps(c)
        if e.obs_key() is None and e.replica == "r3" and e.input.message.payload == 2
    ]
    assert not m2_at_r3

    system, c = run(RELIABLE_ONLY)
    m2_at_r3 = [
        e
        for e, c2 in system.steps(c)
        if e.obs_key() is None and e.replica == "r3" and e.input.message.payload == 2
    ]
    assert m2_at_r3


def test_prop_3_7_causal_sweep():
    """Under the causal discipline every step of the graph, appended to the
    path that reached its source, gives a trace in causal delivery order.
    Every trace within the bound ends in such a step, whichever path it
    takes into the source."""
    obj = gset_op((1, 2))
    system = OpSystem(obj, ("r1", "r2", "r3"))
    graph = explore(system, 6)
    for i, e, _ in graph.edges:
        assert satisfies_causal_delivery(graph.path(i) + (e,))


@intern_scope
def test_buffer_conservation_and_sent_growth():
    obj = gset_op((1, 2))
    system = OpSystem(obj, ("r1", "r2"))
    graph = explore(system, 5)
    for i, e, j in graph.edges:
        pre, post = decode(system, graph.nodes[i]), decode(system, graph.nodes[j])
        assert pre.sent <= post.sent
        if e.obs_key() is None:
            removed = pre.buffer - post.buffer
            assert len(removed) == 1
            assert post.buffer <= pre.buffer


@intern_scope
def test_concurrent_delivery_diamond():
    obj = gset_op((1, 2))
    system = OpSystem(obj, ("r1", "r2", "r3"))
    c = system.init()
    # two concurrent updates, then both messages sit in r3's buffer
    c = next(c2 for e, c2 in system.steps(c) if e.input.kind == "upd" and e.replica == "r1")
    c = next(
        c2
        for e, c2 in system.steps(c)
        if e.input.kind == "upd" and e.replica == "r2" and e.input.op == ("add", 2)
    )
    deliveries = [
        (e.input.message, c2)
        for e, c2 in system.steps(c)
        if e.obs_key() is None and e.replica == "r3"
    ]
    assert len(deliveries) == 2
    (ma, ca), (mb, cb) = deliveries
    ca2 = next(
        c2
        for e, c2 in system.steps(ca)
        if e.obs_key() is None and e.replica == "r3" and e.input.message == mb
    )
    cb2 = next(
        c2
        for e, c2 in system.steps(cb)
        if e.obs_key() is None and e.replica == "r3" and e.input.message == ma
    )
    assert by_replica(system, ca2).states["r3"] == by_replica(system, cb2).states["r3"] == {1, 2}


def test_reliable_only_violates_causal_delivery_somewhere():
    obj = gset_op((1, 2))
    system = OpSystem(obj, ("r1", "r2", "r3"), discipline=RELIABLE_ONLY)
    graph = explore(system, 6)
    assert any(not satisfies_causal_delivery(graph.path(i)) for i in range(len(graph.nodes)))


@intern_scope
def _downsets_after_the_search(monkeypatch, system, step_bound: int, first=()) -> int:
    """Explore system with the values of first already in the value index,
    in that order, then check downset_bits on every explored node: it
    equals the scan over the sent set (``scan_downset_bits``) and is
    downward closed under happens_before.  Each message's predecessor mask
    was first built by the delivery gate while the search ran, when the
    index was shorter, so a node whose sent set reaches past a mask's
    covered length reads it after its lazy extension.  Returns how many
    answers hold a predecessor at or above the length the gate's first
    call covered, ones a mask that was never extended would miss."""
    covered: dict[int, int] = {}

    def first_call_recorded(v, sent):
        covered.setdefault(v, sent.bit_length())
        return downset_bits(v, sent)

    monkeypatch.setattr(opsem, "downset_bits", first_call_recorded)
    for x in first:
        value_bit(x)
    graph = explore(system, step_bound)
    monkeypatch.undo()
    past_first_mask = 0
    for node in graph.nodes:
        sent_set = decode(system, node).sent
        for m in sent_set:
            v = value_bit(m)
            ds = downset_bits(v, node.sent)
            assert ds == scan_downset_bits(v, node.sent)
            past_first_mask += v in covered and ds >> covered[v] != 0
            assert ds & ~node.sent == 0
            for m1 in sent_set:
                assert bool(ds >> value_bit(m1) & 1) == (m1 == m or happens_before(m1, m))
                for m2 in sent_set:
                    if ds >> value_bit(m2) & 1 and happens_before(m1, m2):
                        assert ds >> value_bit(m1) & 1
    return past_first_mask


def test_downsets_are_downward_closed_on_reachable_traces(monkeypatch):
    _downsets_after_the_search(monkeypatch, OpSystem(gset_op((1, 2)), ("r1", "r2", "r3")), 6)


def test_downset_masks_extend_as_the_value_index_grows(monkeypatch):
    """With every message indexed before its causal predecessors, as a
    paired check's guest can index them (a message set's mask is built in
    set order), a message's first mask misses predecessors of other
    executions indexed after it; the answers that need them hold only
    because the mask is extended."""
    system = OpSystem(gset_op((1, 2)), ("r1", "r2", "r3"))
    graph = explore(system, 6)
    messages = {p[1].output.message for p in graph.parents
                if p and p[1].output.kind == "send"}
    successors_first = sorted(messages, key=lambda m: (-sum(n for _, n in m.clock.entries),
                                                       m.sort_key(), m.payload))
    assert _downsets_after_the_search(monkeypatch, system, 6, successors_first)


@intern_scope
def test_enabled_delivery_preserves_causal_safety():
    from crdt_emu.core import Event, Input, Output
    from reference import enabled

    system = OpSystem(gset_op((1, 2)), ("r1", "r2", "r3"))
    graph = explore(system, 5)
    checked = 0
    for i, cfg in enumerate(graph.nodes):
        t = graph.path(i)
        for r, m in sorted(decode(system, cfg).buffer, key=lambda rm: (rm[0], rm[1].sort_key())):
            if enabled(r, m, t):
                extended = t + (Event(r, Input.dlvr(m), Output.none()),)
                assert satisfies_causal_delivery(extended)
                checked += 1
    assert checked > 0


# The three systems whose delivered sets the causal gate decides on: causal
# delivery, reliable-only delivery (a replica's delivered set need not be
# causally closed) and value-identity messages.
GATE_SYSTEMS = pytest.mark.parametrize(
    "system",
    [
        OpSystem(gset_op((1, 2)), ("r1", "r2", "r3")),
        OpSystem(st_to_op(gset_st((1, 2))), ("r1", "r2", "r3")),
        # reachable without the gate, so buffers hold out-of-order messages
        OpSystem(gset_op((1, 2)), ("r1", "r2", "r3"), discipline=RELIABLE_ONLY),
    ],
    ids=["op-host", "st-to-op-guest", "reliable-only-host"],
)


@GATE_SYSTEMS
@intern_scope
def test_delivered_subset_of_sent_on_reachable_traces(system):
    """The stored sent and delivered sets are those of the node's path, and
    sent is the union of the delivered sets: so a configuration's five
    fields identify it exactly as its states, buffer, delivered sets and
    used ops do."""
    from reference import delivered, sent

    graph = explore(system, 5)
    for i, cfg in enumerate(graph.nodes):
        t = graph.path(i)
        s = sent(t)
        by_id = by_replica(system, cfg).delivered
        for r in system.roster:
            assert delivered(r, t) <= s
            assert by_id[r] == delivered(r, t)
        assert decode(system, cfg).sent == s
        assert decode(system, cfg).sent == frozenset().union(*by_id.values())




@GATE_SYSTEMS
def test_clock_order_characterizes_event_happens_before(system):
    """On explored traces, happens-before between two sent messages, by the
    package's origin-component rule and by the pointwise clock order alike,
    coincides with happens-before between their send events (program order,
    send-to-deliver edges, transitivity)."""
    graph = explore(system, 6)
    for i in range(len(graph.nodes)):
        events = graph.path(i)
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
                    assert clock_before(m1.clock, m2.clock) == reach[i][j]


def _gate_by_clock_order(system, c, r, m) -> bool:
    """The causal delivery gate as defined: m not yet delivered at r (by id,
    or by payload under value identity), and every sent causal predecessor
    of m, by the pointwise clock order, already delivered there."""
    by_value = system.obj.message_identity == IDENTITY_VALUE
    have = by_replica(system, c).delivered[r]
    dlv = {m2.payload for m2 in have} if by_value else have
    if (m.payload if by_value else m) in dlv:
        return False
    return all(
        (m2.payload if by_value else m2) in dlv
        for m2 in decode(system, c).sent
        if clock_before(m2.clock, m.clock)
    )


@GATE_SYSTEMS
@intern_scope
def test_origin_component_gate_agrees_with_happens_before(system):
    """On every buffered (r, m) of every configuration reachable at depth 6,
    the causal gate decides as the definition by the clock order."""
    decided = {True: 0, False: 0}
    for c in explore(system, 6).nodes:
        for r, m in decode(system, c).buffer:
            want = _gate_by_clock_order(system, c, r, m)
            k = system.roster.index(r)
            assert _delivery_enabled(system.obj, c, k, value_bit(m), CAUSAL) == want
            decided[want] += 1
    assert decided[True] and decided[False]


@intern_scope
def test_minted_message_follows_from_delivered():
    """On every configuration of the depth-6 graph and the depth-4 raw
    tree, sent is the union of delivered, and each update step at r sends
    the message whose clock is the join of delivered[r]'s clocks ticked at r
    and whose seq counts r's own messages in delivered[r], plus one."""
    roster = ("r1", "r2", "r3")
    systems = [
        OpSystem(gset_op((1, 2)), roster),
        OpSystem(gset_op((1, 2)), roster, discipline=RELIABLE_ONLY),
        OpSystem(st_to_op(gset_st((1, 2))), roster),
    ]
    updates = 0
    for system in systems:
        for graph in (explore(system, 6), raw_tree(system, 4)):
            for c in graph.nodes:
                by_id = by_replica(system, c).delivered
                assert decode(system, c).sent == frozenset().union(*by_id.values())
                for e, c2 in system.steps(c):
                    if e.input.kind != "upd":
                        continue
                    r, m = e.replica, e.output.message
                    clock = VectorClock.of({})
                    for m2 in by_id[r]:
                        clock = clock_join(clock, m2.clock)
                    assert m.clock == clock_tick(clock, r)
                    assert m.seq == 1 + sum(m2.origin == r for m2 in by_id[r])
                    updates += 1
    assert updates


def test_steps_store_nothing_on_the_configuration():
    # A stored successor list would keep every generated configuration alive.
    system = OpSystem(gset_op((5, 42)), ("r1", "r2"))
    c = system.init()
    (_, c2), *_ = system.steps(c)
    system.steps(c2)
    for cfg in (c, c2):
        assert not hasattr(cfg, "_steps")
        assert not hasattr(cfg, "__dict__")
