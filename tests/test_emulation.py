from __future__ import annotations

import itertools

import pytest

from crdt_emu.checker import explore
from crdt_emu.core import (
    FrozenDict, Message, downset_bits, happens_before, intern_scope, mask_of, value_bit,
)
from crdt_emu.emulation import interp, max_set, op_to_st, st_to_op
from crdt_emu.objects import gcounter_st, gset_op, gset_st
from crdt_emu.opsem import OpSystem
from crdt_emu.stsem import StSystem
from conftest import clock_before, msg
from reference import by_replica, decode, interp_is_order_independent, linear_extensions


def chain():
    m1 = msg("r1", {"r1": 1}, 1)
    m2 = msg("r2", {"r1": 1, "r2": 1}, 2)
    m3 = msg("r3", {"r3": 1}, 3)
    return m1, m2, m3


def test_max_set_empty():
    assert max_set(frozenset()) == frozenset()


def test_max_set_chain_keeps_top():
    m1, m2, _ = chain()
    assert max_set(frozenset({m1, m2})) == {m2}


def test_max_set_antichain_is_identity():
    m1, _, m3 = chain()
    assert max_set(frozenset({m1, m3})) == {m1, m3}


def test_interp_empty_is_initial():
    obj = gset_op((5,))
    assert interp(frozenset(), obj) == obj.initial


def test_interp_example_values():
    obj = gset_op((5, 42))
    m5 = msg("r1", {"r1": 1}, 5)
    m42 = msg("r1", {"r1": 2}, 42)
    h = frozenset({m5, m42})
    assert interp(h, obj) == {5, 42}
    assert obj.query("sum", interp(h, obj)) == 47
    assert obj.query("sum", interp(frozenset({msg('r1', {'r1': 1}, 1)}), obj)) == 1


def test_op_to_st_update_inserts_prepped_message():
    obj = gset_op((5, 42))
    guest = op_to_st(obj)
    h1 = guest.update("r1", ("add", 5), frozenset())
    (m,) = h1
    assert m.payload == 5 and m.origin == "r1" and m.seq == 1
    # inflation: the old state is contained in the new one
    assert frozenset() <= h1


def test_op_to_st_merge_is_union_with_query_agreement():
    obj = gset_op((1, 2))
    guest = op_to_st(obj)
    h1 = guest.update("r1", ("add", 1), frozenset())
    h2 = guest.update("r2", ("add", 2), h1)
    merged = guest.join(h1, h2)
    assert merged == h2
    assert guest.query("sum", merged) == 3


@intern_scope
def test_op_to_st_minted_identity_matches_host_execution():
    """The guest mints exactly the message the op host mints in the matched
    play: same (origin, seq) and clock."""
    obj = gset_op((1, 2))
    host = OpSystem(obj, ("r1", "r2"))
    guest = op_to_st(obj)
    c = host.init()
    c = next(c2 for e, c2 in host.steps(c) if e.input.kind == "upd" and e.replica == "r1")
    c = next(c2 for e, c2 in host.steps(c) if e.obs_key() is None and e.replica == "r2")
    c = next(
        c2
        for e, c2 in host.steps(c)
        if e.input.kind == "upd" and e.replica == "r2" and e.input.op == ("add", 2)
    )
    host_sent = sorted(decode(host, c).sent, key=lambda m: m.sort_key())
    h = guest.update("r1", ("add", 1), frozenset())
    h2 = guest.update("r2", ("add", 2), h)
    guest_sent = sorted(h2, key=lambda m: m.sort_key())
    assert host_sent == guest_sent


def test_footnote_merge_commutes():
    obj = gset_op((1, 2))
    guest = op_to_st(obj)
    h1 = guest.update("r1", ("add", 1), frozenset())
    h2 = guest.update("r2", ("add", 2), frozenset())
    assert guest.join(h1, h2) == guest.join(h2, h1)


def test_st_to_op_prep_is_host_update():
    host = gcounter_st()
    guest = st_to_op(host)
    payload = guest.prep("r1", ("inc",), FrozenDict())
    assert payload == FrozenDict({"r1": 1})
    assert guest.effect(payload, FrozenDict({"r2": 3})) == FrozenDict({"r1": 1, "r2": 3})
    assert guest.message_identity == "value"


def test_st_to_op_effects_always_commute():
    host = gcounter_st()
    guest = st_to_op(host)
    states = [
        FrozenDict(),
        FrozenDict({"r1": 1}),
        FrozenDict({"r1": 2, "r2": 1}),
        FrozenDict({"r2": 3}),
    ]
    for m1, m2, s in itertools.product(states, states, states):
        assert guest.effect(m1, guest.effect(m2, s)) == guest.effect(m2, guest.effect(m1, s))


def test_st_to_op_initial_is_bottom():
    host = gcounter_st()
    guest = st_to_op(host)
    for s in (FrozenDict(), FrozenDict({"r1": 4})):
        assert guest.effect(guest.initial, s) == s


def test_linear_extensions_counts():
    m1, m2, m3 = chain()
    # m1 < m2, m3 concurrent with both: 3 linear extensions
    assert len(list(linear_extensions(frozenset({m1, m2, m3})))) == 3


@intern_scope
def test_guest_lattice_laws_on_reachable_states():
    obj = gset_op((1, 2))
    guest_obj = op_to_st(obj)
    guest_sys = StSystem(guest_obj, ("r1", "r2"))
    graph = explore(guest_sys, 5)
    states = []
    seen = set()
    for cfg in graph.nodes:
        by_id = by_replica(guest_sys, cfg).states
        for r in ("r1", "r2"):
            if by_id[r] not in seen:
                seen.add(by_id[r])
                states.append(by_id[r])
    for a in states:
        assert guest_obj.join(a, a) == a
        for b in states:
            assert guest_obj.join(a, b) == guest_obj.join(b, a)
            for c in states[:8]:
                assert guest_obj.join(guest_obj.join(a, b), c) == guest_obj.join(
                    a, guest_obj.join(b, c)
                )
            # update is inflationary on every reachable state
        for r in ("r1", "r2"):
            for op in guest_obj.ops:
                assert a <= guest_obj.update(r, op, a)


@intern_scope
def test_interp_order_independent_on_reachable_guest_states():
    obj = gset_op((1, 2))
    guest_sys = StSystem(op_to_st(obj), ("r1", "r2"))
    graph = explore(guest_sys, 6)
    seen = set()
    for cfg in graph.nodes:
        for r in ("r1", "r2"):
            h = by_replica(guest_sys, cfg).states[r]
            if h in seen or len(h) > 6:
                continue
            seen.add(h)
            assert interp_is_order_independent(h, obj)
    assert len(seen) > 1


# --- happens-before by the origin component -------------------------------------


def _messages(value, out: set) -> set:
    """Every message inside a configuration field, payloads included."""
    if isinstance(value, Message):
        out.add(value)
        _messages(value.payload, out)
    elif isinstance(value, FrozenDict):
        for _, v in value.items():
            _messages(v, out)
    elif isinstance(value, (frozenset, tuple)):
        for v in value:
            _messages(v, out)
    return out


R3 = ("r1", "r2", "r3")


@pytest.mark.parametrize(
    "system",
    [
        OpSystem(gset_op((1, 2)), R3),
        StSystem(op_to_st(gset_op((1, 2))), R3),  # messages minted by the guest
        OpSystem(st_to_op(gset_st((1, 2))), R3),
    ],
    ids=["op-host", "op-to-st-guest", "st-to-op-guest"],
)
def test_origin_component_decides_happens_before(system):
    """Within one reachable configuration, (origin, seq) tells clocked
    messages apart, and the origin-component rule (Schwarz & Mattern, 1994)
    of core.happens_before and core.downset_bits orders two of them as the
    pointwise clock order does.  Across configurations the rule does not
    hold: two executions can mint the same (origin, seq) with different
    payloads."""
    _check_origin_component(system)


@intern_scope
def _check_origin_component(system):
    ordered = 0
    for node in explore(system, 6).nodes:
        cfg = decode(system, node)
        msgs = [m for m in _messages((cfg.states, cfg.buffer, cfg.sent), set()) if m.clock.entries]
        assert len({m.sort_key() for m in msgs}) == len(msgs)
        every = mask_of(msgs)
        for m2, m in itertools.product(msgs, repeat=2):
            before = clock_before(m2.clock, m.clock)
            assert happens_before(m2, m) == before
            in_downset = downset_bits(value_bit(m), every) >> value_bit(m2) & 1
            assert (m2 is not m and bool(in_downset)) == before
            ordered += before
    assert ordered > 0
