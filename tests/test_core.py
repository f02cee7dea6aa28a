from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from crdt_emu.core import (
    Event,
    FrozenDict,
    Input,
    Message,
    MessageId,
    Ordering,
    Output,
    TRACE_EMPTY,
    VectorClock,
    bcast,
    concurrent,
    delivered,
    downset,
    enabled,
    happens_before,
    initial_config,
    intern_scope,
    intern_table_sizes,
    mint,
    satisfies_causal_delivery,
    sent,
    vc_compare,
)
from crdt_emu.checker import (
    HOST_BY_GUEST,
    Graph,
    PairedSystem,
    breadth_first,
    check_strong_convergence,
    check_weak_simulation,
    explore,
)
from crdt_emu.emulation import op_to_st, st_to_op
from crdt_emu.objects import gcounter_st, gset_op, gset_st
from crdt_emu.opsem import RELIABLE_ONLY, OpSystem, op_mk_update, op_replica_step
from crdt_emu.stsem import (
    ATOMIC_BROADCAST,
    StSystem,
    st_mk_deliver,
    st_mk_send,
    st_mk_update,
    st_replica_step,
)
from conftest import msg

import pytest


def vc(d):
    return VectorClock.of(d)


# --- vc_compare ----------------------------------------------------------------


def test_vc_compare_identity():
    assert vc_compare(vc({}), vc({})) is Ordering.EQUAL


def test_vc_compare_pointwise_dominance():
    assert vc_compare(vc({"r1": 1}), vc({"r1": 1, "r2": 1})) is Ordering.LESS
    assert vc_compare(vc({"r1": 1, "r2": 1}), vc({"r1": 1})) is Ordering.GREATER


def test_vc_compare_incomparable():
    assert vc_compare(vc({"r1": 1}), vc({"r2": 1})) is Ordering.CONCURRENT


clocks = st.fixed_dictionaries(
    {}, optional={r: st.integers(0, 3) for r in ("r1", "r2", "r3")}
).map(vc)


@given(clocks)
@settings(max_examples=150, derandomize=True)
def test_vc_compare_reflexive(a):
    assert vc_compare(a, a) is Ordering.EQUAL


@given(clocks, clocks)
@settings(max_examples=150, derandomize=True)
def test_vc_compare_antisymmetric(a, b):
    if vc_compare(a, b) is Ordering.LESS:
        assert vc_compare(b, a) is Ordering.GREATER
    if vc_compare(a, b) is Ordering.EQUAL:
        assert a == b


@given(clocks, clocks, clocks)
@settings(max_examples=150, derandomize=True)
def test_vc_compare_transitive(a, b, c):
    if vc_compare(a, b) is Ordering.LESS and vc_compare(b, c) is Ordering.LESS:
        assert vc_compare(a, c) is Ordering.LESS


# --- happens_before -------------------------------------------------------------


def test_happens_before_causal_chain(m1, m2):
    assert happens_before(m1, m2)
    assert not happens_before(m2, m1)


def test_happens_before_irreflexive(m1):
    assert not happens_before(m1, m1)


def test_happens_before_disjoint_clocks(m1, m3):
    assert not happens_before(m1, m3)
    assert concurrent(m1, m3)


# --- trace functions ---------------------------------------------------------------


def upd_event(r, op, m):
    return Event(r, Input.upd(op), Output.send(m))


def dlvr_event(r, m):
    return Event(r, Input.dlvr(m), Output.none())


def trace_of(*events):
    t = TRACE_EMPTY
    for e in events:
        t = t.append(e)
    return t


def test_sent_empty():
    assert sent(TRACE_EMPTY) == frozenset()


def test_sent_single_send(m1):
    t = trace_of(upd_event("r1", ("add", 1), m1))
    assert sent(t) == {m1}


def test_sent_ignores_deliveries(m1):
    t = trace_of(upd_event("r1", ("add", 1), m1), dlvr_event("r2", m1))
    assert sent(t) == {m1}


def test_delivered_includes_self_application(m1):
    t = trace_of(upd_event("r1", ("add", 1), m1))
    assert delivered("r1", t) == {m1}
    assert delivered("r2", t) == frozenset()
    t2 = t.append(dlvr_event("r2", m1))
    assert delivered("r2", t2) == {m1}


def test_downset_minimal(m1):
    t = trace_of(upd_event("r1", ("add", 1), m1))
    assert downset(m1, t) == {m1}


def test_downset_two_chain(m1, m2):
    t = trace_of(
        upd_event("r1", ("add", 1), m1),
        dlvr_event("r2", m1),
        upd_event("r2", ("add", 2), m2),
    )
    assert downset(m2, t) == {m1, m2}


def test_downset_excludes_concurrent(m1, m2, m3):
    big = msg("r3", 2, {"r1": 1, "r3": 2}, 9)  # m1 < big, m3 < big, m2 concurrent
    t = trace_of(
        upd_event("r1", ("add", 1), m1),
        upd_event("r3", ("add", 3), m3),
        upd_event("r2", ("add", 2), m2),
        upd_event("r3", ("add", 9), big),
    )
    assert downset(big, t) == {m1, m3, big}


def test_downset_requires_sent(m1):
    with pytest.raises(ValueError):
        downset(m1, TRACE_EMPTY)


def test_enabled_minimal_message(m1):
    t = trace_of(upd_event("r1", ("add", 1), m1))
    assert enabled("r2", m1, t)


def test_enabled_blocks_redelivery(m1):
    t = trace_of(upd_event("r1", ("add", 1), m1), dlvr_event("r2", m1))
    assert not enabled("r2", m1, t)


def test_enabled_blocks_missing_predecessor(m1, m2):
    t = trace_of(
        upd_event("r1", ("add", 1), m1),
        dlvr_event("r2", m1),
        upd_event("r2", ("add", 2), m2),
    )
    assert not enabled("r3", m2, t)
    # r1 generated m1 itself, so m2 is deliverable there
    assert enabled("r1", m2, t)


def test_causal_delivery_empty():
    assert satisfies_causal_delivery(TRACE_EMPTY)


def test_causal_delivery_violation(m1, m2):
    t = trace_of(
        upd_event("r1", ("add", 1), m1),
        dlvr_event("r2", m1),
        upd_event("r2", ("add", 2), m2),
        dlvr_event("r3", m2),
        dlvr_event("r3", m1),
    )
    assert not satisfies_causal_delivery(t)


def test_causal_delivery_in_order(m1, m2):
    # independent pairwise oracle over all delivery pairs per replica
    t = trace_of(
        upd_event("r1", ("add", 1), m1),
        dlvr_event("r2", m1),
        upd_event("r2", ("add", 2), m2),
        dlvr_event("r3", m1),
        dlvr_event("r3", m2),
    )
    deliveries = [e for e in t if e.input.kind == "dlvr" and e.replica == "r3"]
    for (i, a), (j, b) in itertools.combinations(enumerate(deliveries), 2):
        if happens_before(b.input.message, a.input.message):
            assert j < i
    assert satisfies_causal_delivery(t)


# --- bcast ----------------------------------------------------------------------


def test_bcast_excludes_sender(m1):
    roster = ("r1", "r2", "r3", "r4")
    out = bcast("r3", m1, frozenset(), roster)
    assert out == {("r1", m1), ("r2", m1), ("r4", m1)}


def test_bcast_single_replica(m1):
    assert bcast("r1", m1, frozenset(), ("r1",)) == frozenset()


def test_bcast_idempotent(m1):
    roster = ("r1", "r2")
    once = bcast("r1", m1, frozenset(), roster)
    assert bcast("r1", m1, once, roster) == once


def test_bcast_by_value_dedups(m1):
    other = msg("r1", 2, {"r1": 2}, m1.payload)
    roster = ("r1", "r2")
    once = bcast("r1", m1, frozenset(), roster, by_value=True)
    again = bcast("r1", other, once, roster, by_value=True)
    assert again == once


# --- hash-consing ----------------------------------------------------------------


def test_set_in_either_order_gives_one_map():
    empty = FrozenDict.of({})
    ab = empty.set("a", 1).set("b", 2)
    assert ab is empty.set("b", 2).set("a", 1)
    assert ab is FrozenDict.of({"b": 2, "a": 1})
    assert ab.set("a", 1) is ab


def test_tick_then_join_gives_one_clock():
    zero = VectorClock.of({})
    both = zero.tick("r1").join(zero.tick("r2"))
    assert both is zero.tick("r2").join(zero.tick("r1"))
    assert both is zero.tick("r1").tick("r2")
    assert both is VectorClock.of({"r1": 1, "r2": 1, "r3": 0})


def test_op_host_and_message_set_guest_mint_one_message():
    obj = gset_op((5, 42))
    host = initial_config(obj, ("r1", "r2"))
    after = op_mk_update(obj, ("r1", "r2"), host, "r1", ("add", 5))
    (m,) = after.sent
    assert mint("r1", frozenset(), 5) is m
    assert Message.make("r1", 1, VectorClock.of({"r1": 1}), 5) is m


def test_different_paths_share_maps_clocks_and_events():
    obj = gset_op((5, 42))
    roster = ("r1", "r2")
    c0 = initial_config(obj, roster)
    a1 = op_mk_update(obj, roster, c0, "r1", ("add", 5))
    a2 = op_mk_update(obj, roster, a1, "r2", ("add", 42))
    b1 = op_mk_update(obj, roster, c0, "r2", ("add", 42))
    b2 = op_mk_update(obj, roster, b1, "r1", ("add", 5))
    assert a2 is not b2
    for name in ("states", "buffer", "sent", "delivered", "used_ops"):
        assert getattr(a2, name) is getattr(b2, name)
    assert a2.trace.head is b1.trace.head
    assert b2.trace.head is a1.trace.head


def test_different_paths_share_state_based_sets_and_maps():
    obj = gset_st((5, 42))
    roster = ("r1", "r2")

    def run(first, second):
        c = initial_config(obj, roster)
        for r, op in (first, second):
            c = st_mk_update(obj, roster, c, r, op, "separate-send")
            c = st_mk_send(roster, c, r)
        m = next(m for r, m in c.buffer if r == "r1")
        c = st_mk_deliver(obj, c, "r1", m)
        return c

    a = run(("r1", ("add", 5)), ("r2", ("add", 42)))
    b = run(("r2", ("add", 42)), ("r1", ("add", 5)))
    assert a is not b
    for name in ("states", "buffer", "sent", "delivered", "used_ops"):
        assert getattr(a, name) is getattr(b, name)
    system = StSystem(obj, roster)
    assert system.summary(a) is not system.summary(b)
    assert system.summary(a)[1] is system.summary(b)[1]


def test_every_system_step_is_its_replica_step():
    """The system LTS lifts the replica LTS: each step appends one event of
    one replica r, r's replica step on its old state and the event's input
    gives its new state and the event's output, no other replica's state
    changes, and an update fires at most once per (replica, op).  Checked on
    every step of the unpruned depth-4 graphs of eight 2-replica systems."""
    roster = ("r1", "r2")
    gset, gcounter = gset_st((1, 2)), gcounter_st()
    systems = [
        OpSystem(gset_op((1, 2)), roster),
        OpSystem(gset_op((1, 2)), roster, discipline=RELIABLE_ONLY),
        OpSystem(st_to_op(gset), roster),
        OpSystem(st_to_op(gcounter), roster),
        StSystem(gset, roster),
        StSystem(gset, roster, mode=ATOMIC_BROADCAST),
        StSystem(op_to_st(gset_op((1, 2))), roster),
        StSystem(op_to_st(gset_op((1, 2))), roster, mode=ATOMIC_BROADCAST),
    ]
    for system in systems:
        graph = explore(system, 4, prune=False)
        assert len(graph.edges) > 100
        for i, _, j in graph.edges:
            c, c2 = graph.nodes[i], graph.nodes[j]
            e = c2.trace.head
            r = e.replica
            if system.kind == "op":
                step = op_replica_step(system.obj, r, c.states[r], e.input, c.delivered[r])
            else:
                step = st_replica_step(system.obj, r, c.states[r], e.input, system.mode)
            assert step == (c2.states[r], e.output)
            assert all(c2.states[r2] == c.states[r2] for r2 in roster if r2 != r)
            if e.input.kind == "upd":
                assert (r, e.input.op) not in c.used_ops


def test_plain_constructors_give_equal_values():
    m = Message.make("r1", 1, VectorClock.of({"r1": 1}), 5)
    pairs = [
        (FrozenDict({"a": 1}), FrozenDict.of({"a": 1})),
        (VectorClock((("r1", 1),)), VectorClock.of({"r1": 1})),
        (MessageId("r1", 1), m.id),
        (Message(MessageId("r1", 1), VectorClock((("r1", 1),)), 5), m),
        (Input("upd", op=("add", 5)), Input.upd(("add", 5))),
        (Input("qry", query="sum"), Input.qry("sum")),
        (Input("dlvr", message=m), Input.dlvr(m)),
        (Output("send", message=m), Output.send(m)),
        (Output("ret", value=5), Output.ret(5)),
        (Event("r1", Input.upd(("add", 5)), Output.send(m)),
         Event.of("r1", Input.upd(("add", 5)), Output.send(m))),
    ]
    for plain, canonical in pairs:
        assert plain is not canonical
        assert plain == canonical and canonical == plain
        assert hash(plain) == hash(canonical)
        assert len({plain, canonical}) == 1


def test_inputs_and_outputs_outlive_their_scope():
    """Input and Output cache their hashes.  Values built inside a scope
    that has since exited still compare and hash equal to the canonical
    values that the next scope builds, as set members and as dict keys."""
    m = Message(MessageId("r1", 1), VectorClock((("r1", 1),)), frozenset({5}))

    @intern_scope
    def build():
        return [Input.upd(("add", 5)), Input.qry("sum"), Input.dlvr(m),
                Output.ret(frozenset({5})), Output.send(m)]

    before, after = build(), build()
    for old, new in zip(before, after):
        assert old is not new
        assert old == new and new == old
        assert hash(old) == hash(new)
        assert {old: 1}[new] == 1 and len({old, new}) == 1
    assert hash(Event.of("r1", before[0], before[4])) == hash(Event("r1", after[0], after[4]))


def _tables_empty() -> bool:
    return not any(intern_table_sizes().values())


def test_intern_tables_grow_while_a_search_runs():
    """Driving the search generator directly, outside any check, the tables
    keep every value the steps build: they grow as nodes are taken.  The
    depth-0 explores before and after empty them on return."""
    explore(OpSystem(gset_op((1,)), ("r1",)), 0)
    assert _tables_empty()
    search = breadth_first(OpSystem(gset_op((5, 42)), ("r1", "r2")), 5, Graph())
    next(search)
    start = intern_table_sizes()
    for _ in itertools.islice(search, 50):
        pass
    during = intern_table_sizes()
    assert all(during[k] > start[k] for k in ("FrozenDict", "Message", "Event"))
    explore(OpSystem(gset_op((1,)), ("r1",)), 0)
    assert _tables_empty()


def test_intern_tables_are_empty_after_a_check_returns():
    """The tables hold their values for one check: after explore and after a
    simulation check return, every table is empty, though the returned
    graph and verdict still hold values the check built."""
    graph = explore(OpSystem(gset_op((5, 42)), ("r1", "r2")), 5)
    assert len(graph.nodes) > 1 and _tables_empty()
    obj, roster = gset_op((5, 42)), ("r1", "r2")
    paired = PairedSystem(OpSystem(obj, roster), StSystem(op_to_st(obj), roster), "op-to-st")
    assert check_weak_simulation(paired, "R1", HOST_BY_GUEST, step_bound=5).passed
    assert _tables_empty()


def test_a_raising_check_empties_the_tables_but_its_nested_explore_does_not():
    """check_strong_convergence explores first and only then finds that the
    object is not history-augmented and raises.  Its nested explore returns
    inside the check's scope and leaves the tables as they are, so when the
    check reads the graph its configurations' maps are still the canonical
    ones; the raise leaves the outermost scope and empties every table."""
    seen = []

    class ProbedSystem(OpSystem):
        def query_value(self, c, r, q):
            seen.append((intern_table_sizes(), FrozenDict.of(dict(c.states)) is c.states))
            return super().query_value(c, r, q)

    with pytest.raises(ValueError, match="history-augmented"):
        check_strong_convergence(ProbedSystem(gset_op((5, 42)), ("r1", "r2")), step_bound=4)
    assert _tables_empty()
    [(sizes, canonical)] = seen
    assert canonical and all(sizes[k] > 0 for k in ("FrozenDict", "Message", "Event"))
