from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crdt_emu.checker import explore
from crdt_emu.core import Message, intern_scope, intern_table_sizes, render
from crdt_emu.emulation import op_to_st, st_to_op
from crdt_emu.objects import (
    augment_history_op,
    augment_history_st,
    break_query,
    check_concurrent_commutation,
    gcounter_st,
    gset_op,
    gset_st,
)
from crdt_emu.opsem import OpSystem
from crdt_emu.stsem import StSystem
from reference import by_replica


def test_gset_op_effect_and_query():
    o = gset_op((5, 42))
    assert o.effect(5, frozenset()) == {5}
    assert o.query("sum", frozenset({5, 42})) == 47
    assert o.query("sum", frozenset()) == 0


def test_gset_op_prep_builds_payload():
    o = gset_op((5, 42))
    assert o.prep("r1", ("add", 5), frozenset()) == 5


def test_gset_st_basics():
    o = gset_st((7,))
    assert o.update("r1", ("add", 7), frozenset()) == {7}
    assert o.join(frozenset({1}), frozenset({2})) == {1, 2}
    # sum oracle
    s = frozenset({1, 2})
    assert o.query("sum", s) == sum(s)


# A G-counter state: the (replica, count) items of the replicas that have
# counted, sorted by replica.
ROSTER = ("r1", "r2", "r3")
gcounter_states = st.dictionaries(st.sampled_from(ROSTER), st.integers(1, 4)).map(
    lambda m: tuple(sorted(m.items()))
)


def _sorted_by_replica(s) -> bool:
    replicas = [r for r, _ in s]
    return type(s) is tuple and replicas == sorted(set(replicas))


@given(gcounter_states, gcounter_states, gcounter_states, st.sampled_from(ROSTER))
@settings(max_examples=150, derandomize=True)
def test_gcounter_st_is_a_pointwise_max_semilattice(a, b, c, r):
    """Over tuple states, the join is the pointwise max and is associative,
    commutative and idempotent; the update adds one at its replica, so it
    is inflationary; every result stays sorted by replica; the sum query
    sums the counts."""
    o = gcounter_st()
    assert o.initial == () and o.update("r1", ("inc",), o.initial) == (("r1", 1),)
    ma, mb = dict(a), dict(b)
    expect = {q: max(ma.get(q, 0), mb.get(q, 0)) for q in ma.keys() | mb.keys()}
    joined = o.join(a, b)
    assert joined == tuple(sorted(expect.items()))
    assert o.join(b, a) == joined
    assert o.join(joined, c) == o.join(a, o.join(b, c))
    assert o.join(a, a) == a
    u = o.update(r, ("inc",), a)
    assert dict(u) == {**ma, r: ma.get(r, 0) + 1}
    assert u != a and o.join(a, u) == u
    assert all(_sorted_by_replica(s) for s in (joined, u, o.join(joined, c)))
    assert o.query("sum", joined) == sum(expect.values())


def test_gcounter_states_render_as_replica_count_pairs():
    s = gcounter_st().join((("r2", 1),), (("r1", 2),))
    assert render(s) == [["r1", 2], ["r2", 1]]


def test_gcounter_states_and_payloads_are_sorted_tuples():
    """On a 3-replica state-based G-counter and on its op-based emulation,
    every reached state and every message payload is a tuple of (replica,
    count) items sorted by replica, each count at least 1, equal to a dict
    replay of the path that first reached it: an update adds one at its
    replica, a delivery takes the pointwise max with the delivered state,
    and a send carries the sender's state."""
    assert "FrozenDict" not in intern_table_sizes()

    def as_state(v):
        return v.payload if isinstance(v, Message) else v

    for system in (StSystem(gcounter_st(), ROSTER), OpSystem(st_to_op(gcounter_st()), ROSTER)):
        graph = explore(system, 6)
        replayed, payloads = [], []
        for i, c in enumerate(graph.nodes):
            if graph.parents[i] is None:
                maps = {r: {} for r in ROSTER}
            else:
                p, e = graph.parents[i]
                maps = {r: dict(m) for r, m in replayed[p].items()}
                m = maps[e.replica]
                if e.input.kind == "upd":
                    m[e.replica] = m.get(e.replica, 0) + 1
                if e.input.kind == "dlvr":
                    payloads.append(as_state(e.input.message))
                    for r, n in payloads[-1]:
                        m[r] = max(m.get(r, 0), n)
                if e.output.kind == "send":
                    payloads.append(as_state(e.output.message))
                    assert payloads[-1] == tuple(sorted(m.items()))
            replayed.append(maps)
            assert c.states == tuple(tuple(sorted(maps[r].items())) for r in ROSTER)
        assert len(graph.nodes) > 100 and max(map(len, payloads)) > 1
        for s in (*payloads, *(s for c in graph.nodes for s in c.states)):
            assert _sorted_by_replica(s) and all(n >= 1 for _, n in s)


# --- lattice laws on reachable states --------------------------------------------


@intern_scope
def reachable_states(system, bound):
    graph = explore(system, bound)
    states = []
    seen = set()
    for cfg in graph.nodes:
        for r in system.roster:
            s = by_replica(system, cfg).states[r]
            if s not in seen:
                seen.add(s)
                states.append(s)
    return states


def test_st_lattice_laws_on_reachable_states():
    for obj in (gset_st((1, 2)), gcounter_st()):
        system = StSystem(obj, ("r1", "r2"))
        states = reachable_states(system, 5)
        for a, b in itertools.product(states, repeat=2):
            assert obj.join(a, b) == obj.join(b, a)
            assert obj.join(a, a) == a
        for a, b, c in itertools.islice(itertools.product(states, repeat=3), 500):
            assert obj.join(obj.join(a, b), c) == obj.join(a, obj.join(b, c))


def test_st_update_inflationary_on_reachable_states():
    for obj in (gset_st((1, 2)), gcounter_st()):
        system = StSystem(obj, ("r1", "r2"))
        for s in reachable_states(system, 5):
            for r in ("r1", "r2"):
                for op in obj.ops:
                    s2 = obj.update(r, op, s)
                    assert obj.join(s, s2) == s2


# --- history augmentation ----------------------------------------------------------


def test_augmented_query_carries_history():
    o = augment_history_op(gset_op((5,)))
    tok = ("r1", 1, ("add", 5))
    assert o.query("sum", (frozenset({5}), frozenset({tok}))) == (5, frozenset({tok}))


def test_augmented_effect_unions_history():
    o = augment_history_op(gset_op((2,)))
    tok = ("r1", 1, ("add", 2))
    payload = (2, frozenset({tok}))
    assert o.effect(payload, (frozenset(), frozenset())) == (
        frozenset({2}),
        frozenset({tok}),
    )


def test_augmented_effects_commute_on_history():
    o = augment_history_op(gset_op((1, 2)))
    p1 = (1, frozenset({("r1", 1, ("add", 1))}))
    p2 = (2, frozenset({("r2", 1, ("add", 2))}))
    s0 = (frozenset(), frozenset())
    one = o.effect(p2, o.effect(p1, s0))
    two = o.effect(p1, o.effect(p2, s0))
    assert one == two
    # history component is a set union, so order is immaterial by construction
    assert one[1] == p1[1] | p2[1]


def test_augmented_st_update_tags_unique_occurrences():
    o = augment_history_st(gset_st((7,)))
    s1 = o.update("r1", ("add", 7), o.initial)
    s2 = o.update("r1", ("add", 7), s1)
    assert len(s2[1]) == 2  # distinct occurrence ids


@intern_scope
def test_augmentation_is_conservative():
    """Erasing the history component of an augmented execution replays as a
    legal base-object execution, step for step."""
    base = gset_op((5, 42))
    aug_system = OpSystem(augment_history_op(base), ("r1", "r2"))
    base_system = OpSystem(base, ("r1", "r2"))
    graph = explore(aug_system, 4)
    for i, node in enumerate(graph.nodes):
        cfg = base_system.init()
        for e in graph.path(i):
            candidates = [
                c2
                for e2, c2 in base_system.steps(cfg)
                if _erases_to(e, e2)
            ]
            assert candidates, f"no base step for {e}"
            cfg = candidates[0]
        aug_states = by_replica(aug_system, node).states
        base_states = by_replica(base_system, cfg).states
        for r in ("r1", "r2"):
            assert aug_states[r][0] == base_states[r]


def _erases_to(aug_event, base_event):
    if aug_event.replica != base_event.replica:
        return False
    if aug_event.input.kind != base_event.input.kind:
        return False
    ai, bi = aug_event.input, base_event.input
    if ai.kind == "upd":
        return ai.op == bi.op
    if ai.kind == "dlvr":
        return ai.message.sort_key() == bi.message.sort_key() and ai.message.payload[0] == bi.message.payload
    if ai.kind == "qry":
        return ai.query == bi.query
    return True


@pytest.mark.parametrize(
    "make_obj",
    [
        lambda: gset_op((1, 2)),
        lambda: gset_st((1, 2)),
        gcounter_st,
        lambda: op_to_st(gset_op((1, 2))),
        lambda: st_to_op(gset_st((1, 2))),
        lambda: augment_history_st(gcounter_st()),
    ],
    ids=["gset-op", "gset-st", "gcounter-st", "op-to-st", "st-to-op", "gcounter-st+hist"],
)
def test_query_outside_the_object_queries_raises(make_obj):
    obj = make_obj()
    assert obj.queries == ("sum",)
    assert obj.query("sum", obj.initial) in (0, (0, frozenset()))
    with pytest.raises(ValueError, match="nope"):
        obj.query("nope", obj.initial)
    # The pathological guest answers every name with its constant.
    assert break_query(obj, 7).query("nope", obj.initial) == 7


def test_query_value_rejects_a_query_outside_the_object():
    system = OpSystem(gset_op((1, 2)), ("r1",))
    init = system.init()
    assert system.query_value(init, "r1", "sum") == 0
    with pytest.raises(ValueError, match="nope"):
        system.query_value(init, "r1", "nope")


# --- concurrent commutation -----------------------------------------------------------


@intern_scope
def test_commutation_on_explored_configs():
    obj = gset_op((1, 2))
    system = OpSystem(obj, ("r1", "r2", "r3"))
    graph = explore(system, 5)
    report = check_concurrent_commutation(obj, system.roster, graph.nodes)
    assert report.ok
    assert report.pairs_checked > 0


@intern_scope
def test_commutation_vacuous_single_message():
    obj = gset_op((1,))
    system = OpSystem(obj, ("r1", "r2"))
    graph = explore(system, 2)
    report = check_concurrent_commutation(obj, system.roster, graph.nodes)
    assert report.ok
    assert report.pairs_checked == 0


@intern_scope
def test_commutation_via_st_to_op_guest():
    from crdt_emu.emulation import st_to_op

    obj = st_to_op(gcounter_st())
    system = OpSystem(obj, ("r1", "r2", "r3"))
    graph = explore(system, 6)
    report = check_concurrent_commutation(obj, system.roster, graph.nodes)
    assert report.ok
