from __future__ import annotations

import itertools

import pytest

from crdt_emu.checker import explore
from crdt_emu.core import FrozenDict
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


def test_gcounter_st_basics():
    o = gcounter_st()
    assert o.update("r1", ("inc",), FrozenDict()) == FrozenDict({"r1": 1})
    a = FrozenDict({"r1": 2, "r2": 1})
    b = FrozenDict({"r1": 1, "r2": 3})
    joined = o.join(a, b)
    # pointwise-max oracle
    expect = {r: max(a.get(r, 0), b.get(r, 0)) for r in ("r1", "r2")}
    assert dict(joined.items()) == expect
    assert o.query("sum", joined) == sum(expect.values())


# --- lattice laws on reachable states --------------------------------------------


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


def test_commutation_on_explored_configs():
    obj = gset_op((1, 2))
    system = OpSystem(obj, ("r1", "r2", "r3"))
    graph = explore(system, 5)
    report = check_concurrent_commutation(obj, system.roster, graph.nodes)
    assert report.ok
    assert report.pairs_checked > 0


def test_commutation_vacuous_single_message():
    obj = gset_op((1,))
    system = OpSystem(obj, ("r1", "r2"))
    graph = explore(system, 2)
    report = check_concurrent_commutation(obj, system.roster, graph.nodes)
    assert report.ok
    assert report.pairs_checked == 0


def test_commutation_via_st_to_op_guest():
    from crdt_emu.emulation import st_to_op

    obj = st_to_op(gcounter_st())
    system = OpSystem(obj, ("r1", "r2", "r3"))
    graph = explore(system, 6)
    report = check_concurrent_commutation(obj, system.roster, graph.nodes)
    assert report.ok
