from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from crdt_emu import core
from crdt_emu.core import (
    Event,
    Input,
    Message,
    Output,
    VectorClock,
    bcast,
    concurrent,
    happens_before,
    initial_config,
    intern_scope,
    intern_table_sizes,
    mint_from,
    replace_at,
    value_bit,
)
from crdt_emu.checker import (
    Graph,
    PairedSystem,
    breadth_first,
    check_strong_convergence,
    check_weak_simulation,
    explore,
    weak_traces,
)
from crdt_emu.emulation import op_to_st, st_to_op
from crdt_emu.objects import (
    augment_history_op,
    augment_history_st,
    break_query,
    gcounter_st,
    gset_op,
    gset_st,
)
from crdt_emu.opsem import RELIABLE_ONLY, OpSystem, op_mk_update, op_replica_step
from crdt_emu.stsem import (
    ATOMIC_BROADCAST,
    StSystem,
    st_mk_deliver,
    st_mk_send,
    st_mk_update,
    st_replica_step,
)
from conftest import clock_before, msg, raw_tree
from reference import decode, delivered, downset, enabled, satisfies_causal_delivery, sent

import pytest


def vc(d):
    return VectorClock.of(d)


# --- the pointwise clock order (conftest.clock_before) ---------------------------
# The reference that the happens-before tests compare the package rule with.


def test_vc_compare_identity():
    assert not clock_before(vc({}), vc({}))


def test_vc_compare_pointwise_dominance():
    assert clock_before(vc({"r1": 1}), vc({"r1": 1, "r2": 1}))
    assert not clock_before(vc({"r1": 1, "r2": 1}), vc({"r1": 1}))


def test_vc_compare_incomparable():
    assert not clock_before(vc({"r1": 1}), vc({"r2": 1}))
    assert not clock_before(vc({"r2": 1}), vc({"r1": 1}))


clocks = st.fixed_dictionaries(
    {}, optional={r: st.integers(0, 3) for r in ("r1", "r2", "r3")}
).map(vc)


@given(clocks)
@settings(max_examples=150, derandomize=True)
def test_vc_compare_reflexive(a):
    assert not clock_before(a, a)


@given(clocks, clocks)
@settings(max_examples=150, derandomize=True)
def test_vc_compare_antisymmetric(a, b):
    assert not (clock_before(a, b) and clock_before(b, a))


@given(clocks, clocks, clocks)
@settings(max_examples=150, derandomize=True)
def test_vc_compare_transitive(a, b, c):
    if clock_before(a, b) and clock_before(b, c):
        assert clock_before(a, c)


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


def test_sent_empty():
    assert sent(()) == frozenset()


def test_sent_single_send(m1):
    t = (upd_event("r1", ("add", 1), m1),)
    assert sent(t) == {m1}


def test_sent_ignores_deliveries(m1):
    t = (upd_event("r1", ("add", 1), m1), dlvr_event("r2", m1))
    assert sent(t) == {m1}


def test_delivered_includes_self_application(m1):
    t = (upd_event("r1", ("add", 1), m1),)
    assert delivered("r1", t) == {m1}
    assert delivered("r2", t) == frozenset()
    t2 = t + (dlvr_event("r2", m1),)
    assert delivered("r2", t2) == {m1}


def test_downset_minimal(m1):
    t = (upd_event("r1", ("add", 1), m1),)
    assert downset(m1, t) == {m1}


def test_downset_two_chain(m1, m2):
    t = (
        upd_event("r1", ("add", 1), m1),
        dlvr_event("r2", m1),
        upd_event("r2", ("add", 2), m2),
    )
    assert downset(m2, t) == {m1, m2}


def test_downset_excludes_concurrent(m1, m2, m3):
    big = msg("r3", {"r1": 1, "r3": 2}, 9)  # m1 < big, m3 < big, m2 concurrent
    t = (
        upd_event("r1", ("add", 1), m1),
        upd_event("r3", ("add", 3), m3),
        upd_event("r2", ("add", 2), m2),
        upd_event("r3", ("add", 9), big),
    )
    assert downset(big, t) == {m1, m3, big}


def test_downset_requires_sent(m1):
    with pytest.raises(ValueError):
        downset(m1, ())


def test_enabled_minimal_message(m1):
    t = (upd_event("r1", ("add", 1), m1),)
    assert enabled("r2", m1, t)


def test_enabled_blocks_redelivery(m1):
    t = (upd_event("r1", ("add", 1), m1), dlvr_event("r2", m1))
    assert not enabled("r2", m1, t)


def test_enabled_blocks_missing_predecessor(m1, m2):
    t = (
        upd_event("r1", ("add", 1), m1),
        dlvr_event("r2", m1),
        upd_event("r2", ("add", 2), m2),
    )
    assert not enabled("r3", m2, t)
    # r1 generated m1 itself, so m2 is deliverable there
    assert enabled("r1", m2, t)


def test_causal_delivery_empty():
    assert satisfies_causal_delivery(())


def test_causal_delivery_violation(m1, m2):
    t = (
        upd_event("r1", ("add", 1), m1),
        dlvr_event("r2", m1),
        upd_event("r2", ("add", 2), m2),
        dlvr_event("r3", m2),
        dlvr_event("r3", m1),
    )
    assert not satisfies_causal_delivery(t)


def test_causal_delivery_in_order(m1, m2):
    # independent pairwise oracle over all delivery pairs per replica
    t = (
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


def _entries(buffer: int, n: int) -> set:
    """A buffer's (roster position, value bit) entries."""
    return {(b % n, b // n) for b in range(buffer.bit_length()) if buffer >> b & 1}


def test_bcast_excludes_sender():
    out = bcast(2, 5, 0, 4)
    assert _entries(out, 4) == {(0, 5), (1, 5), (3, 5)}


def test_bcast_single_replica():
    assert bcast(0, 5, 0, 1) == 0


def test_bcast_idempotent():
    once = bcast(0, 3, 0, 2)
    assert bcast(0, 3, once, 2) == once


def test_bcast_skips_held_positions():
    out = bcast(0, 7, bcast(1, 2, 0, 3), 3, held=0b100)
    assert _entries(out, 3) == {(0, 2), (2, 2), (1, 7)}


@intern_scope
def test_bcast_by_value_dedups():
    """On a by-value guest, r2's add of 1 sends the payload r3 already
    holds from r1's add of 1, so only r1 gets r2's message."""
    obj = st_to_op(gset_st((1,)))
    roster = ("r1", "r2", "r3")
    c0 = initial_config(obj, roster)
    _, c1 = op_mk_update(obj, roster, c0, 0, 0)
    e2, c2 = op_mk_update(obj, roster, c1, 1, 0)
    (m1,) = {m for _, m in decode(OpSystem(obj, roster), c1).buffer}
    m2 = e2.output.message
    assert m1.payload == m2.payload and m1 != m2
    assert decode(OpSystem(obj, roster), c2).buffer == {("r2", m1), ("r3", m1), ("r1", m2)}


# --- hash-consing ----------------------------------------------------------------


@intern_scope
def test_mint_gives_the_canonical_clock():
    """A minted clock, the join of the consumed clocks ticked at the sender,
    is the one canonical clock of its positive entries."""
    a, b = mint_from("r1", 0, 1), mint_from("r2", 0, 2)
    assert a.clock is VectorClock.of({"r1": 1, "r2": 0})
    both = 1 << value_bit(a) | 1 << value_bit(b)
    assert mint_from("r3", both, 3).clock is VectorClock.of({"r1": 1, "r2": 1, "r3": 1})
    assert mint_from("r1", both, 3).clock is VectorClock.of({"r2": 1, "r1": 2})


@intern_scope
def test_op_host_and_message_set_guest_mint_one_message():
    obj = gset_op((5, 42))
    host = initial_config(obj, ("r1", "r2"))
    _, after = op_mk_update(obj, ("r1", "r2"), host, 0, obj.ops.index(("add", 5)))
    (m,) = decode(OpSystem(obj, ("r1", "r2")), after).sent
    assert mint_from("r1", 0, 5) is m
    assert op_to_st(obj).update("r1", ("add", 5), 0) == 1 << value_bit(m)
    assert Message.make("r1", VectorClock.of({"r1": 1}), 5) is m


@intern_scope
def test_different_paths_share_maps_clocks_and_events():
    obj = gset_op((5, 42))
    roster = ("r1", "r2")
    c0 = initial_config(obj, roster)
    ea1, a1 = op_mk_update(obj, roster, c0, 0, 0)
    ea2, a2 = op_mk_update(obj, roster, a1, 1, 1)
    eb1, b1 = op_mk_update(obj, roster, c0, 1, 1)
    eb2, b2 = op_mk_update(obj, roster, b1, 0, 0)
    assert a2 is not b2
    for name in ("states", "delivered"):
        assert getattr(a2, name) is getattr(b2, name)
    for name in ("buffer", "sent", "used_ops"):
        assert getattr(a2, name) == getattr(b2, name)
    assert ea2 is eb1
    assert eb2 is ea1


@intern_scope
def test_different_paths_share_state_based_sets_and_maps():
    obj = gset_st((5, 42))
    roster = ("r1", "r2")

    def run(first, second):
        c = initial_config(obj, roster)
        for k, j in (first, second):
            _, c = st_mk_update(obj, roster, c, k, j, "separate-send")
            _, c = st_mk_send(roster, c, k)
        v = next(b // 2 for b in range(c.buffer.bit_length()) if c.buffer >> b & 1 and b % 2 == 0)
        _, c = st_mk_deliver(obj, roster, c, 0, v)
        return c

    a = run((0, 0), (1, 1))
    b = run((1, 1), (0, 0))
    assert a is not b
    for name in ("states", "delivered"):
        assert getattr(a, name) is getattr(b, name)
    for name in ("buffer", "sent", "used_ops"):
        assert getattr(a, name) == getattr(b, name)
    assert a == b and hash(a) == hash(b)
    # the per-replica tuples are the canonical ones of their content
    for t in (a.states, a.delivered):
        assert type(t) is tuple and len(t) == len(roster)
        assert all(replace_at(t, k, t[k]) is t for k in range(len(roster)))


@intern_scope
def test_every_system_step_is_its_replica_step():
    """The system LTS lifts the replica LTS: each step appends one event of
    one replica r, r's replica step on its old state and the event's input
    gives its new state and the event's output, no other replica's state
    changes (r's roster position is the only one of ``states`` that
    changes), and an update fires at most once per (replica, op).  Checked
    on every step of the depth-4 raw trees of twelve 2-replica systems,
    among them the history-augmented objects of the convergence sweep and a
    broken-query guest, which shares its update and join with its honest
    twin.  The trees are built outside any check scope, so the rules of all
    twelve read one transition table, and a key that left out the object
    would hand one system's transition to another."""
    roster = ("r1", "r2")
    gset, gcounter = gset_st((1, 2)), gcounter_st()
    message_sets = op_to_st(gset_op((1, 2)))
    systems = [
        OpSystem(gset_op((1, 2)), roster),
        OpSystem(gset_op((1, 2)), roster, discipline=RELIABLE_ONLY),
        OpSystem(st_to_op(gset), roster),
        OpSystem(st_to_op(gcounter), roster),
        StSystem(gset, roster),
        StSystem(gset, roster, mode=ATOMIC_BROADCAST),
        StSystem(message_sets, roster),
        StSystem(op_to_st(gset_op((1, 2))), roster, mode=ATOMIC_BROADCAST),
        StSystem(break_query(message_sets), roster),
        OpSystem(augment_history_op(gset_op((1, 2))), roster),
        StSystem(augment_history_st(gset), roster),
        StSystem(augment_history_st(gset), roster, mode=ATOMIC_BROADCAST),
    ]
    for system in systems:
        graph = raw_tree(system, 4)
        assert len(graph.edges) > 100
        for i, e, j in graph.edges:
            c, c2 = graph.nodes[i], graph.nodes[j]
            r = e.replica
            k = roster.index(r)
            if system.kind == "op":
                step = op_replica_step(system.obj, r, c.states[k], e.input, c.delivered[k])
            else:
                step = st_replica_step(system.obj, r, c.states[k], e.input, system.mode)
            assert step == (c2.states[k], e.output)
            assert all(c2.states[k2] == c.states[k2] for k2 in range(len(roster)) if k2 != k)
            if e.input.kind == "upd":
                assert (r, e.input.op) not in decode(system, c).used_ops


def test_plain_constructors_give_equal_values():
    m = Message.make("r1", VectorClock.of({"r1": 1}), 5)
    pairs = [
        (VectorClock((("r1", 1),)), VectorClock.of({"r1": 1})),
        (Message("r1", VectorClock((("r1", 1),)), 5), m),
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
    m = Message("r1", VectorClock((("r1", 1),)), frozenset({5}))

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
    keep every value the steps build, the configurations' per-replica
    tuples, the value index, values' delivery sort keys, messages' downset
    masks, minted clocks, delivery events, the transition table and a
    by-value guest's payload sets included: they grow as nodes are taken.
    The depth-0 explores before and after empty them on return."""
    explore(OpSystem(gset_op((1,)), ("r1",)), 0)
    assert _tables_empty()
    search = breadth_first(OpSystem(st_to_op(gcounter_st()), ("r1", "r2")), 5, Graph())
    next(search)
    start = intern_table_sizes()
    for _ in itertools.islice(search, 50):
        pass
    during = intern_table_sizes()
    grown = ("tuple", "Message", "Event", "value", "value_bit",
             "delivery_order", "downset", "mint_clock", "delivery_event", "payloads",
             "transition")
    assert all(during[k] > start[k] for k in grown)
    explore(OpSystem(gset_op((1,)), ("r1",)), 0)
    assert _tables_empty()


@intern_scope
def test_derived_tables_keep_one_entry_per_value():
    """Driving the search inside one scope, the tables of derived facts
    grow with the values, not with the buffers or sent sets that reach
    them: at most one downset mask per message, one delivery sort key per
    value and, on a by-value guest, one held-position mask per payload."""
    systems = (
        OpSystem(gset_op((1, 2)), ("r1", "r2", "r3")),
        StSystem(gset_st((1, 2)), ("r1", "r2", "r3")),
        OpSystem(st_to_op(gset_st((1, 2))), ("r1", "r2", "r3")),
    )
    nodes = 0
    for system in systems:
        for _ in breadth_first(system, 6, Graph()):
            nodes += 1
    values = core.VALUES
    messages = [x for x in values if isinstance(x, Message)]
    sizes = intern_table_sizes()
    assert nodes > 10 * len(values)
    assert 0 < sizes["downset"] <= len(messages)
    assert 0 < sizes["delivery_order"] <= len(values)
    assert 0 < sizes["held"] <= len({m.payload for m in messages})


def test_intern_tables_are_empty_after_a_check_returns():
    """The tables hold their values for one check: after explore, after a
    weak trace set and after a simulation check return, every table is
    empty, though the returned graph, traces and verdict still hold values
    the check built."""
    graph = explore(OpSystem(gset_op((5, 42)), ("r1", "r2")), 5)
    assert len(graph.nodes) > 1 and _tables_empty()
    traces = weak_traces(OpSystem(gset_op((5, 42)), ("r1", "r2")), 2, 5)
    assert len(traces) > 1 and _tables_empty()
    obj, roster = gset_op((5, 42)), ("r1", "r2")
    paired = PairedSystem(OpSystem(obj, roster), StSystem(op_to_st(obj), roster))
    assert check_weak_simulation(paired, "R1", step_bound=5).passed
    assert _tables_empty()


def test_a_raising_check_empties_the_tables_but_its_nested_explore_does_not():
    """check_strong_convergence explores first and only then finds that the
    object is not history-augmented and raises.  Its nested explore returns
    inside the check's scope and leaves the tables as they are, so when the
    check reads the graph its configurations' per-replica tuples are still
    the canonical ones; the raise leaves the outermost scope and empties
    every table."""
    seen = []

    class ProbedSystem(OpSystem):
        def query_value(self, c, r, q):
            canonical = all(replace_at(t, 0, t[0]) is t for t in (c.states, c.delivered))
            seen.append((intern_table_sizes(), canonical))
            return super().query_value(c, r, q)

    with pytest.raises(ValueError, match="history-augmented"):
        check_strong_convergence(ProbedSystem(st_to_op(gcounter_st()), ("r1", "r2")), step_bound=4)
    assert _tables_empty()
    [(sizes, canonical)] = seen
    assert canonical and all(sizes[k] > 0 for k in ("tuple", "Message", "Event"))
