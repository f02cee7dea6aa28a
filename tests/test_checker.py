from __future__ import annotations

import dataclasses
import functools
import gc
import itertools
import json
from collections import Counter
from pathlib import Path

from crdt_emu import checker, core
from crdt_emu.checker import (
    GUEST_BY_HOST,
    HOST_BY_GUEST,
    PairedSystem,
    Relation,
    Search,
    Side,
    _play_obligations,
    attainable_query_values,
    breadth_first,
    check_causal_safety,
    check_commutation,
    check_strong_convergence,
    check_trace_equivalence,
    check_weak_bisimulation,
    check_weak_simulation,
    constructive_match,
    default_tau_budget,
    explore,
    sim_relation,
    weak_matches,
    weak_moves,
    weak_traces,
)
from crdt_emu.cli import build_systems, load_scenario, run_check
from crdt_emu.client import SKIP, ClientState, can_terminate, check_approximation, parse_program
from crdt_emu.core import (
    Event, Input, Output, canon_key, decoded_event, intern_scope,
    intern_table_sizes, render, render_event,
)
from crdt_emu.emulation import _interp_memo, op_to_st, st_to_op
from crdt_emu.objects import (
    OpObject,
    augment_history_op,
    break_query,
    gcounter_st,
    gset_op,
    gset_st,
)
from crdt_emu.opsem import RELIABLE_ONLY, OpSystem
from crdt_emu.stsem import ATOMIC_BROADCAST, StSystem
from conftest import eager_ball, eager_moves, msg, raw_tree
from reference import (
    by_replica,
    decode,
    decoded_steps,
    delivered,
    deliverable_ordering,
    parse_events,
    reference_init,
    reference_steps,
    reference_system,
    replay_simulation_counterexample,
    satisfies_causal_delivery,
    sent,
)

import pytest

ROSTER2 = ("r1", "r2")
TESTS = Path(__file__).resolve().parent
SHIPPED = sorted((TESTS.parent / "scenarios").glob("*.scenario"))


def paired_gset(values=(5, 42), roster=ROSTER2, discipline="causal", mode="separate-send"):
    obj = gset_op(values)
    host = OpSystem(obj, roster, discipline=discipline)
    guest = StSystem(op_to_st(obj), roster, mode=mode)
    return PairedSystem(host=host, guest=guest)


def paired_gcounter(roster=ROSTER2):
    obj = gcounter_st()
    host = StSystem(obj, roster)
    guest = OpSystem(st_to_op(obj), roster)
    return PairedSystem(host=host, guest=guest)


# --- explore -------------------------------------------------------------------


def test_explore_depth_zero():
    p = paired_gset()
    graph = explore(p.host, 0)
    assert len(graph.nodes) == 1
    assert not graph.edges


def test_explore_edge_count_matches_successors_at_depth_one():
    p = paired_gset()
    graph = explore(p.host, 1)
    assert len(graph.edges) == len(p.host.steps(p.host.init()))


@intern_scope
def test_explore_contains_ex_2_4_prefix():
    p = paired_gset()
    graph = explore(p.host, 2)
    states = {by_replica(p.host, cfg).states["r1"] for cfg in graph.nodes}
    assert frozenset() in states
    assert frozenset({5}) in states
    assert frozenset({5, 42}) in states


@pytest.mark.parametrize("side", ["host", "guest"])
@intern_scope
def test_paths_are_the_configurations_histories(side):
    """A node's path, rebuilt from the graph's parents, replays from the
    initial configuration to the node itself, one event per level.  The
    explore and the replays run in one scope, so their configurations are
    read over one value index."""
    system = paired_gset((1, 2)).side(side)
    graph = explore(system, 4)
    for i, cfg in enumerate(graph.nodes):
        path = graph.path(i)
        assert system.replay(path) == cfg
        assert len(path) == graph.depths[i]


@intern_scope
def test_summary_determines_successors():
    """Dedup by configuration loses nothing: the graph's nodes are the raw
    tree's distinct configurations, and the edges out of each expanded node
    are the steps of every tree node equal to it, whatever path reached that
    tree node.  The explore and the raw tree run in one scope."""
    p = paired_gset((1, 2))
    for system in (p.host, p.guest):
        graph = explore(system, 4)
        tree = raw_tree(system, 4)
        assert set(graph.nodes) == set(tree.nodes)
        assert len(graph.nodes) < len(tree.nodes)
        out = {}
        for i, e, j in graph.edges:
            out.setdefault(graph.nodes[i], []).append((e, graph.nodes[j]))
        for cfg, depth in zip(tree.nodes, tree.depths):
            if depth < 4:
                assert system.steps(cfg) == out[cfg]


@intern_scope
def _keyed_bfs(system, step_bound: int) -> checker.Graph:
    """Breadth-first over system to step_bound with every successor looked
    up in one key table, stuttering ones included: the reference for
    ``breadth_first``, which records a step back to its own source as a
    self-loop without the lookup."""
    g = checker.Graph()
    g.nodes.append(system.init())
    g.depths.append(0)
    g.parents.append(None)
    keys = {g.nodes[0]: 0}
    i = 0
    while i < len(g.nodes):
        if g.depths[i] < step_bound:
            for e, c2 in system.steps(g.nodes[i]):
                j = keys.get(c2)
                if j is None:
                    j = keys[c2] = len(g.nodes)
                    g.nodes.append(c2)
                    g.depths.append(g.depths[i] + 1)
                    g.parents.append((i, e))
                g.edges.append((i, e, j))
        i += 1
    return g


@pytest.mark.parametrize("side", ["host", "guest"])
@intern_scope
def test_explore_equals_a_search_that_looks_every_successor_up(side):
    """The 2-replica op host and the separate-send state-based guest:
    explore's nodes, depths, parents and edges, query self-loops included,
    are those of a search that dedups every successor through its key
    table.  Drained into a fresh graph, ``breadth_first`` keeps no edge,
    yields every node once in index order with steps that concatenate to
    explore's edges, and gives each node but the root a parent step, one
    of its parent's yielded steps, one level above it.  The searches run
    in one scope."""
    system = paired_gset((1, 2)).side(side)
    graph = explore(system, 5)
    assert graph == _keyed_bfs(system, 5)
    assert any(i == j and e.input.kind == "qry" for i, e, j in graph.edges)
    drained = checker.Graph()
    yielded = list(breadth_first(system, 5, drained))
    assert drained.edges == []
    assert [i for i, _ in yielded] == list(range(len(drained.nodes)))
    assert [step for _, steps in yielded for step in steps] == graph.edges
    assert drained.parents[0] is None
    for j in range(1, len(drained.nodes)):
        p, e = drained.parents[j]
        assert (p, e, j) in yielded[p][1]
        assert drained.depths[j] == drained.depths[p] + 1


@intern_scope
def _kernel_mismatches(system, ref, step_bound: int) -> tuple[int, list]:
    """The configurations explore reaches within step_bound whose step list,
    decoded, differs from that of ``reference.reference_steps`` on ref, the
    reference form of system (``reference.reference_system``), from the
    decoded configuration, with the number reached.  The tables explore
    filled stay live in this scope, so the package's step lists are read
    from them."""
    graph = explore(system, step_bound)
    bad = [c for c in graph.nodes
           if decoded_steps(system, c) != reference_steps(ref, decode(system, c))]
    return len(graph.nodes), bad


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_step_lists_equal_the_reference_kernel(path):
    """On the host and guest of every shipped scenario, every configuration
    explore reaches at bound 5 has the step list the reference builds
    without per-scope tables: the same events and successors, in the same
    order."""
    host, paired = build_systems(load_scenario(path))
    for system in (host, paired.guest) if paired else (host,):
        reached, bad = _kernel_mismatches(system, reference_system(system, host), 5)
        assert reached > 1 and not bad, (path.stem, system.kind, len(bad))


@intern_scope
def _replay_mismatches(system, ref, step_bound: int) -> tuple[int, list]:
    """The nodes explore reaches within step_bound that do not decode to the
    configuration ``reference.reference_steps`` on ref, the reference form
    of system, reaches by replaying the node's path, its events read
    through system's decoder, from ``reference.reference_init``, with the
    number reached.  Each path is replayed from its parent's replay, so
    every path is replayed once, step by step."""
    graph = explore(system, step_bound)
    replayed = [reference_init(ref)]
    for i in range(1, len(graph.nodes)):
        p, e = graph.parents[i]
        assert graph.path(i) == graph.path(p) + (e,)
        e = decoded_event(e, system.decode)
        replayed.append(next(c for e2, c in reference_steps(ref, replayed[p]) if e2 == e))
    bad = [i for i, c in enumerate(graph.nodes) if decode(system, c) != replayed[i]]
    return len(graph.nodes), bad


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_nodes_decode_to_the_reference_replay_of_their_paths(path):
    """On the host and guest of every shipped scenario, every configuration
    explore reaches at bound 5 decodes to the frozenset-form configuration
    that the reference kernel reaches by replaying the node's path."""
    host, paired = build_systems(load_scenario(path))
    for system in (host, paired.guest) if paired else (host,):
        reached, bad = _replay_mismatches(system, reference_system(system, host), 5)
        assert reached > 1 and not bad, (path.stem, system.kind, len(bad))


def test_the_kernel_oracle_covers_every_discipline_and_mode():
    """The shipped scenarios run the reference kernel on causal and
    reliable-only op systems and on separate-send and atomic state-based
    ones."""
    seen = set()
    for path in SHIPPED:
        host, paired = build_systems(load_scenario(path))
        for system in (host, paired.guest) if paired else (host,):
            seen.add(system.discipline if system.kind == "op" else system.mode)
    assert seen == {"causal", RELIABLE_ONLY, "separate-send", ATOMIC_BROADCAST}


# --- weak successors ---------------------------------------------------------------


def test_weak_tau_successors_include_self():
    p = paired_gset()
    init = p.host.init()
    succ = [c for c, _ in weak_moves(Side(p.host), init, None, tau_budget=4)]
    assert init in succ


def test_weak_query_successor_after_silent_deliveries():
    p = paired_gset()
    guest = p.guest
    c = guest.init()
    for op in (("add", 5), ("add", 42)):
        c = next(c2 for e, c2 in guest.steps(c) if e.input.kind == "upd" and e.input.op == op)
    c = next(c2 for e, c2 in guest.steps(c) if e.input.kind == "none")
    hits = list(weak_moves(Side(guest), c, ("query", "r2", "sum", 47), tau_budget=4))
    assert hits


def test_no_weak_update_when_universe_exhausted():
    p = paired_gset((5,))
    host = p.host
    c = next(c2 for e, c2 in host.steps(host.init()) if e.input.kind == "upd" and e.replica == "r1")
    hits = list(weak_moves(Side(host), c, ("update", "r1", ("add", 5)), tau_budget=4))
    assert not hits


def test_a_negative_tau_budget_is_a_value_error():
    """A negative tau budget is an error at every entry point that takes
    one, not a budget of 0 (or, to a lazily grown ball, no limit at all)."""
    p = paired_gset()
    guest, init = p.guest, p.guest.init()
    calls = {
        "search": lambda: Search(Relation("R1", p), 4, -1),
        "sim": lambda: check_weak_simulation(p, "R1", step_bound=4, tau_budget=-1),
        "bisim": lambda: check_weak_bisimulation(p, step_bound=4, tau_budget=-1),
        "weak_moves": lambda: list(weak_moves(Side(guest), init, None, -1)),
        "weak_moves-obs": lambda: list(
            weak_moves(Side(guest), init, ("update", "r1", ("add", 5)), -1)),
        "weak_matches": lambda: weak_matches(Side(guest), init, None, -1, lambda _: True),
        "attainable_query_values": lambda: attainable_query_values(
            Side(guest), init, "r1", "sum", -1),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match="negative tau budget"):
            call()
            pytest.fail(name)


def test_a_negative_step_bound_is_a_value_error():
    """A negative step bound is an error, not a search that stops before
    its first obligation and passes: the ex-2-4-bisim pair and the
    cor-4-5 broken guest, both refuted at bound 8, raise at bound -1."""
    scenarios = TESTS.parent / "scenarios"
    _, bisim = build_systems(load_scenario(scenarios / "ex-2-4-bisim.scenario"))
    _, broken = build_systems(load_scenario(scenarios / "cor-4-5-broken-guest.scenario"))
    assert check_weak_bisimulation(bisim, step_bound=8).outcome == "counterexample"
    assert check_weak_simulation(broken, "R1", step_bound=8).outcome == "counterexample"
    for call in (
        lambda: Search(Relation("R1", broken), -1, None),
        lambda: check_weak_bisimulation(bisim, step_bound=-1),
        lambda: check_weak_simulation(broken, "R1", step_bound=-1),
    ):
        with pytest.raises(ValueError, match="negative step bound"):
            call()


def _ex_2_4_configurations(side: str, depth: int = 4):
    """ex-2-4-bisim's system on side, every configuration within depth steps
    of its initial one, and every observable label of a step among them."""
    _, paired = build_systems(load_scenario(TESTS.parent / "scenarios/ex-2-4-bisim.scenario"))
    system = paired.side(side)
    graph = explore(system, depth)
    labels = sorted({obs for _, e, _ in graph.edges if (obs := e.obs_key()) is not None},
                    key=canon_key)
    return system, graph.nodes, [None, *labels]


@pytest.mark.parametrize("side", ["host", "guest"])
@intern_scope
def test_lazy_weak_moves_equal_the_eager_enumeration(side):
    """Oracle for the lazily grown silent balls: on every configuration
    within depth 4 of ex-2-4-bisim's op host and separate-send guest, for
    every tau budget 0-4, tau and every observable label, ``weak_moves``
    yields the landings, paths and order of the whole-ball enumeration.
    Each order of budgets has one Side for all its reads, so its balls are
    warmed in that order and by the configurations read before; a query
    step lands on its source, so the query labels re-enter a ball
    mid-read."""
    system, nodes, labels = _ex_2_4_configurations(side)
    steps, cache = functools.cache(system.steps), {}
    orders = {"ascending": range(5), "descending": range(4, -1, -1)}
    for order, budgets in orders.items():
        lazy = Side(system)
        for cfg in nodes:
            for budget in budgets:
                for obs in labels:
                    got = list(weak_moves(lazy, cfg, obs, budget))
                    assert got == eager_moves(steps, cfg, obs, budget, cache), order


@pytest.mark.parametrize("side", ["host", "guest"])
@intern_scope
def test_a_ball_grown_mid_read_reads_as_the_eager_ball(side):
    """A reader of a ball that another reader grows while the first is
    suspended still reads exactly its own budget's layers."""
    system, nodes, _ = _ex_2_4_configurations(side)
    steps, cache, lazy_steps = functools.cache(system.steps), {}, {}
    for cfg in nodes:
        for outer, inner in itertools.product(range(5), repeat=2):
            reader = Side(system, steps=lazy_steps)   # a cold ball
            first = iter(checker._silent_ball(reader, cfg, outer))
            head = next(first)
            assert list(checker._silent_ball(reader, cfg, inner)) == eager_ball(
                steps, cfg, inner, cache)
            assert [head, *first] == eager_ball(steps, cfg, outer, cache)


@intern_scope
def test_the_bisim_game_builds_only_the_responses_it_reads():
    """On ex-2-4-bisim the game gives the witness that the full response
    lists gave, while building the defender's responses only up to the
    first that survives: 67 host and 1,890 guest step lists, and 109 host
    and 1,948 guest silent balls, where building every response kept 325,
    15,192, 315 and 20,096."""
    _, paired = build_systems(load_scenario(TESTS.parent / "scenarios/ex-2-4-bisim.scenario"))
    search = Search(Relation("bowtie", paired), 8, None)
    game = checker._bisim_game(search, search.a.system.init(), search.b.system.init())
    spine, _ = checker._witness_spine(game)
    play = [{"attacker": side, "event": render_event(e),
             "response": [render_event(r) for r in response]}
            for side, e, response in spine]
    golden = json.loads((TESTS / "golden/ex-2-4-bisim.json").read_text())
    (check,) = golden["checks"]
    assert json.loads(json.dumps(play)) == check["verdict"]["witness"]["play"]
    assert (len(search.a.steps), len(search.b.steps)) == (67, 1_890)
    assert (len(search.a.balls), len(search.b.balls)) == (109, 1_948)


# --- relations ------------------------------------------------------------------------


def test_initial_configurations_related():
    p = paired_gset()
    assert Relation("R1", p).holds(p.host.init(), p.guest.init())
    assert Relation("R2", p).holds(p.guest.init(), p.host.init())
    q = paired_gcounter()
    assert Relation("Q1", q).holds(q.host.init(), q.guest.init())
    assert Relation("Q2", q).holds(q.guest.init(), q.host.init())


def test_ex_2_4_divergent_pair_violates_r1():
    """Op side with two buffered messages vs st side with one merged state,
    after r2 delivered only the first message."""
    p = paired_gset()
    host, guest = p.host, p.guest
    a = host.init()
    for op in (("add", 5), ("add", 42)):
        a = next(c2 for e, c2 in host.steps(a) if e.input.kind == "upd" and e.input.op == op)
    a = next(  # deliver only m(5) at r2
        c2
        for e, c2 in host.steps(a)
        if e.obs_key() is None and e.replica == "r2" and e.input.message.payload == 5
    )
    b = guest.init()
    for op in (("add", 5), ("add", 42)):
        b = next(c2 for e, c2 in guest.steps(b) if e.input.kind == "upd" and e.input.op == op)
    b = next(c2 for e, c2 in guest.steps(b) if e.input.kind == "none")
    rel = Relation("R1", p)
    assert rel.clause(a, b) is not None


def test_relation_direction_validation():
    """A relation that does not fit the pair's emulation direction is
    refused, and a simulation check names no attacking side of its own: R1
    attacks from the host, so asking for it guest-by-host is refused where
    an entry's relation and direction are resolved."""
    p = paired_gset()
    with pytest.raises(ValueError):
        Relation("Q1", p)
    with pytest.raises(ValueError):
        check_weak_simulation(p, "Q1", step_bound=2)
    with pytest.raises(ValueError, match="host-by-guest"):
        sim_relation(p.direction, GUEST_BY_HOST, "R1")


# --- deliverable ------------------------------------------------------------------------


def test_deliverable_empty_set():
    none = frozenset()
    assert deliverable_ordering(none, "r1", none, sent(()), delivered("r1", ())) == ()


def test_deliverable_orders_downset_topologically():
    m1 = msg("r1", {"r1": 1}, 1)
    m2 = msg("r2", {"r1": 1, "r2": 1}, 2)
    t = (
        Event("r1", Input.upd(("add", 1)), Output.send(m1)),
        Event("r2", Input.dlvr(m1), Output.none()),
        Event("r2", Input.upd(("add", 2)), Output.send(m2)),
    )
    b = frozenset({("r3", m1), ("r3", m2)})
    consumed = delivered("r3", t)
    assert deliverable_ordering(frozenset({m1, m2}), "r3", b, sent(t), consumed) == (m1, m2)
    # a message whose undelivered predecessor is outside U is not deliverable
    assert deliverable_ordering(frozenset({m2}), "r3", b, sent(t), consumed) is None


# --- closed-form clauses against subset enumeration ---------------------------------------


class SubsetSearchRelation(Relation):
    """Reference membership: the R2/bowtie and Q1 buffer clauses decided by
    enumerating every candidate subset, smallest first, over decoded
    configurations, each decoded once."""

    def __init__(self, rel_id, paired):
        super().__init__(rel_id, paired)
        self._decoded = {}

    def _decode(self, side, c):
        key = (side, c)
        if key not in self._decoded:
            self._decoded[key] = decode(self.paired.side(side), c)
        return self._decoded[key]

    def _deliverable_merge_exists(self, H, k, op_c):
        op = self._decode("host", op_c)
        Hs = frozenset(core.VALUES[v] for v in core.bits(H))
        r = self.roster[k]
        have = op.delivered[k]
        target = have | Hs
        candidates = sorted(
            (m for r2, m in op.buffer if r2 == r and m in Hs), key=lambda m: m.sort_key()
        )
        for n in range(len(candidates) + 1):
            for U in itertools.combinations(candidates, n):
                Uf = frozenset(U)
                if have | Uf != target:
                    continue
                if deliverable_ordering(Uf, r, op.buffer, op.sent, have) is not None:
                    return True
        return False

    def _q1(self, st_c, op_c):
        st, op = self._decode("host", st_c), self._decode("guest", op_c)
        st_states = dict(zip(self.roster, st.states))
        op_states = dict(zip(self.roster, op.states))
        for r in self.roster:
            if st_states[r] != op_states[r]:
                return "state-agreement"
        obj = self.paired.host.obj
        op_buffer = op.buffer
        for r, s in st.buffer:
            target = obj.join(st_states[r], s)
            if target == st_states[r]:
                continue
            payloads = sorted(
                (m2.payload for r2, m2 in op_buffer if r2 == r), key=canon_key
            )
            if not any(
                functools.reduce(obj.join, C, op_states[r]) == target
                for k in range(len(payloads) + 1)
                for C in itertools.combinations(payloads, k)
            ):
                return "buffer-mergeable"
        return None


def _assert_clauses_match_reference(p, rel_id, a_nodes, b_nodes):
    rel, ref = Relation(rel_id, p), SubsetSearchRelation(rel_id, p)
    verdicts = set()
    for a, b in itertools.product(a_nodes, b_nodes):
        got = rel.clause(a, b)
        assert got == ref.clause(a, b)
        verdicts.add(got)
    return verdicts


@intern_scope
def test_r2_and_bowtie_closed_form_match_subset_search():
    """Host and guest are explored separately, in one scope, so their
    configurations are read over one value index."""
    obj = gset_op((1, 2))
    host = explore(OpSystem(obj, ROSTER2), 6).nodes
    for mode, rel_id, depth in (("separate-send", "R2", 5), (ATOMIC_BROADCAST, "bowtie", 6)):
        p = paired_gset((1, 2), mode=mode)
        guest = explore(p.guest, depth).nodes
        if rel_id == "R2":
            verdicts = _assert_clauses_match_reference(p, rel_id, guest, host)
        else:
            verdicts = _assert_clauses_match_reference(p, rel_id, host, guest)
        assert None in verdicts
        # Every guest state, buffered state and (not causally closed) single
        # message, as H, against every host configuration.  A guest state is
        # itself the bitset of its messages.
        rel, ref = Relation(rel_id, p), SubsetSearchRelation(rel_id, p)
        hs = {core.VALUES[v] for c in guest for _, v in core.entries(c.buffer, len(ROSTER2))}
        hs |= {h for c in guest for h in c.states}
        hs |= {1 << b for H in hs for b in core.bits(H)}
        outcomes = set()
        for H, op_c, k in itertools.product(hs, host, range(len(ROSTER2))):
            got = rel._deliverable_merge_exists(H, k, op_c)
            assert got == ref._deliverable_merge_exists(H, k, op_c)
            outcomes.add(got)
        assert outcomes == {True, False}


@intern_scope
def test_q1_closed_form_matches_subset_search():
    # Three gset values give pairs where some buffered payloads are below
    # the target but do not reach it, and pairs that fail the buffer clause.
    # Host and guest are explored in one scope.
    for obj, depth, failing in (
        (gset_st((1, 2, 3)), 5, {"buffer-mergeable"}),
        (gcounter_st(), 6, set()),
    ):
        host = StSystem(obj, ROSTER2)
        guest = OpSystem(st_to_op(obj), ROSTER2)
        p = PairedSystem(host=host, guest=guest)
        verdicts = _assert_clauses_match_reference(
            p, "Q1", explore(host, depth).nodes, explore(guest, depth).nodes
        )
        assert {None} | failing <= verdicts


def test_q1_fires_each_host_join_and_update_once():
    """The host's replica transitions and the lattice joins that Q1 and the
    matchers read come from the check scope's transition table, so on
    ``thm-a-2-gcounter``'s Q1 check the host object's join and update,
    wrapped to count their calls, run once per distinct argument tuple.
    The guest is the scenario's own, built from the unwrapped object, and
    keeps its own entries.  The wrapped host gives the same report."""
    scenario = load_scenario(TESTS.parent / "scenarios/thm-a-2-gcounter.scenario")
    _, paired = build_systems(scenario)
    calls = {"join": Counter(), "update": Counter()}

    def counted(name, fire):
        def wrapper(*args):
            calls[name][args] += 1
            return fire(*args)
        return wrapper

    base = paired.host.obj
    host_obj = dataclasses.replace(
        base, join=counted("join", base.join), update=counted("update", base.update))
    counting = PairedSystem(dataclasses.replace(paired.host, obj=host_obj), paired.guest)
    verdict = check_weak_simulation(counting, "Q1", step_bound=8)
    assert verdict.passed
    assert verdict.to_report() == check_weak_simulation(paired, "Q1", step_bound=8).to_report()
    for name, per_args in calls.items():
        assert len(per_args) > 10, name
        assert set(per_args.values()) == {1}, name


def _config_classes(system, depth):
    """The nodes of the raw tree, grouped by configuration value: each class
    holds the distinct objects of one configuration, reached along
    different paths."""
    classes = {}
    for cfg in raw_tree(system, depth).nodes:
        classes.setdefault(cfg, []).append(cfg)
    return list(classes.values())


def _broken_guest_pair():
    obj = gset_op((1, 2))
    guest = StSystem(break_query(op_to_st(obj)), ROSTER2)
    return PairedSystem(host=OpSystem(obj, ROSTER2), guest=guest)


def _gset_st_pair():
    obj = gset_st((1, 2))
    return PairedSystem(StSystem(obj, ROSTER2), OpSystem(st_to_op(obj), ROSTER2))


@pytest.mark.parametrize(
    "rel_id, make_pair",
    [
        ("R1", lambda: paired_gset((1, 2))),
        ("R1", lambda: paired_gset((1, 2), discipline=RELIABLE_ONLY)),
        ("R1", _broken_guest_pair),
        ("R2", lambda: paired_gset((1, 2))),
        ("R2", lambda: paired_gset((1, 2), discipline=RELIABLE_ONLY)),
        ("bowtie", lambda: paired_gset((1, 2), mode=ATOMIC_BROADCAST)),
        ("bowtie", lambda: paired_gset((1, 2))),
        ("Q1", paired_gcounter),
        ("Q2", paired_gcounter),
        ("Q1", _gset_st_pair),
        ("Q2", _gset_st_pair),
    ],
    ids=["R1", "R1-reliable-only", "R1-broken-guest", "R2", "R2-reliable-only",
         "bowtie-atomic", "bowtie-separate-send", "Q1-gcounter", "Q2-gcounter",
         "Q1-gset", "Q2-gset"],
)
def test_clause_is_a_function_of_the_summaries(rel_id, make_pair):
    """The premise of deciding each related pair once: equal configurations,
    reached along different paths, give the same clause against every
    configuration of the other side, so the clause reads nothing outside
    the two configurations.  Each class of equal configurations of the
    depth-4 raw tree is checked rep by rep against the first rep of
    every other-side class, both ways."""
    p = make_pair()
    rel = Relation(rel_id, p)
    a_classes = _config_classes(p.side(rel.a_side), 4)
    b_classes = _config_classes(p.side(rel.b_side), 4)
    assert any(len(c) > 1 for c in a_classes) and any(len(c) > 1 for c in b_classes)
    verdicts = set()
    for a_reps, b_reps in itertools.product(a_classes, b_classes):
        want = rel.clause(a_reps[0], b_reps[0])
        assert all(rel.clause(a, b_reps[0]) == want for a in a_reps[1:])
        assert all(rel.clause(a_reps[0], b) == want for b in b_reps[1:])
        verdicts.add(want)
    assert None in verdicts and len(verdicts) > 1


def test_step_events_are_a_function_of_the_summary():
    """Equal configurations, reached along different paths, take the same
    steps: the same events, so the same labels, to the same successors, in
    the same order.  So a step list cached by configuration is exact for
    every member of the class, attacker moves included.  Counts, per
    system, the members of the depth-4 raw tree whose step list
    differs from their class's first."""
    gset, gcounter = gset_st((1, 2)), gcounter_st()
    systems = {
        "op-causal": OpSystem(gset_op((1, 2)), ROSTER2),
        "op-reliable-only": OpSystem(gset_op((1, 2)), ROSTER2, discipline=RELIABLE_ONLY),
        "op-to-st-separate-send": paired_gset((1, 2)).guest,
        "op-to-st-atomic": paired_gset((1, 2), mode=ATOMIC_BROADCAST).guest,
        "gset-st": StSystem(gset, ROSTER2),
        "gcounter-st": StSystem(gcounter, ROSTER2),
        "gset-st-to-op": OpSystem(st_to_op(gset), ROSTER2),
        "gcounter-st-to-op": OpSystem(st_to_op(gcounter), ROSTER2),
    }
    differing = {}
    for name, system in systems.items():
        differing[name] = 0
        for reps in _config_classes(system, 4):
            first, *rest = (system.steps(c) for c in reps)
            differing[name] += sum(events != first for events in rest)
    assert differing == dict.fromkeys(systems, 0)


# --- weak simulation ---------------------------------------------------------------------


def test_r1_and_r2_pass_small():
    p = paired_gset()
    v1 = check_weak_simulation(p, "R1", step_bound=5)
    assert v1.passed and v1.stats["matcher_fraction"] == 1.0
    v2 = check_weak_simulation(p, "R2", step_bound=5)
    assert v2.passed


def test_q1_and_q2_pass_small():
    q = paired_gcounter()
    assert check_weak_simulation(q, "Q1", step_bound=5).passed
    assert check_weak_simulation(q, "Q2", step_bound=5).passed


def test_sim_relation_defaults_and_rejects():
    """The one resolver of a simulation check's relation: the default per
    emulation and check direction, and a ValueError for a relation that is
    unknown, of the wrong type, or does not fit."""
    assert [
        sim_relation(emulate, which)
        for emulate in ("op-to-st", "st-to-op")
        for which in (HOST_BY_GUEST, GUEST_BY_HOST)
    ] == ["R1", "R2", "Q1", "Q2"]
    assert sim_relation("op-to-st", HOST_BY_GUEST, "bowtie") == "bowtie"
    for rel_id, which in (("R9", HOST_BY_GUEST), (["R1"], HOST_BY_GUEST),
                          ("R1", GUEST_BY_HOST), ("Q1", HOST_BY_GUEST), ("R1", "sideways")):
        with pytest.raises(ValueError):
            sim_relation("op-to-st", which, rel_id)
    with pytest.raises(ValueError):
        sim_relation("sideways", HOST_BY_GUEST)


def test_unknown_relation_is_a_value_error():
    p = paired_gset()
    for call in (
        lambda: check_weak_simulation(p, "R9"),
        lambda: Relation("R9", p),
    ):
        with pytest.raises(ValueError, match="unknown relation 'R9'"):
            call()


def test_paired_systems_need_one_roster_in_one_order():
    """The relations compare host and guest configurations position by
    position, so a guest roster in another order, or of other replicas, is
    refused when the pair is built."""
    obj = gset_op((5, 42))
    host = OpSystem(obj, ROSTER2)
    for roster in (ROSTER2[::-1], ("r1", "r3")):
        with pytest.raises(ValueError, match="roster"):
            PairedSystem(host=host, guest=StSystem(op_to_st(obj), roster))
    assert PairedSystem(host, StSystem(op_to_st(obj), ROSTER2)).guest.roster == ROSTER2


def test_paired_systems_need_opposite_kinds_and_derive_the_direction():
    """The emulation direction is the host's kind, not a label that could
    contradict the two systems: a pair of one kind is refused when it is
    built, and every shipped paired scenario's pair emulates in the
    direction its scenario names."""
    obj = gset_op((5, 42))
    for host, guest in ((OpSystem(obj, ROSTER2), OpSystem(obj, ROSTER2)),
                        (StSystem(op_to_st(obj), ROSTER2), StSystem(op_to_st(obj), ROSTER2))):
        with pytest.raises(ValueError, match="both"):
            PairedSystem(host, guest)
    directions = set()
    for path in SHIPPED:
        scenario = load_scenario(path)
        _, paired = build_systems(scenario)
        if paired is not None:
            assert paired.direction == scenario.emulate, path.name
            directions.add(paired.direction)
    assert directions == {"op-to-st", "st-to-op"}


def test_reliable_only_r1_counterexample_and_replay():
    p = paired_gset((1, 2), ("r1", "r2", "r3"), discipline=RELIABLE_ONLY)
    v = check_weak_simulation(p, "R1", step_bound=8)
    assert v.outcome == "counterexample"
    dq = v.witness["distinguishing_query"]
    assert dq["attacker_value"] == 2
    assert dq["defender_options"] == [1, 3]
    assert v.witness["failed_clause"] == "delivered-agreement"
    # the rendered witness alone replays to the same failing obligation
    assert replay_simulation_counterexample(p, "R1", v.witness, tau_budget=6)


def _answers_off_the_weak_moves(monkeypatch) -> tuple[list, list]:
    """Wrap the constructive matcher so that the landing of every chain it
    returns is held against the fallback's moves: it must be a landing of
    ``weak_moves`` from the same defender configuration, under the move
    key's label (tau for a delivery or a send), within the default tau
    budget.  Returns the list each checked answer is appended to and the
    list of the answers that fail."""
    checked, failed = [], []

    def audited(rel, defender, key, b_cfg):
        chain = constructive_match(rel, defender, key, b_cfg)
        if chain is not None:
            landing = chain[-1][1] if chain else b_cfg
            obs = key if isinstance(key, tuple) and key[0] != "dlvr" else None
            moves = weak_moves(Side(defender), b_cfg, obs, default_tau_budget(rel.paired))
            checked.append(key)
            if landing not in (c for c, _ in moves):
                failed.append((key, landing))
        return chain

    monkeypatch.setattr("crdt_emu.checker.constructive_match", audited)
    return checked, failed


def test_matcher_answers_are_weak_moves(monkeypatch):
    """Matcher against fallback on the R1 simulation and both directions of
    the atomic bowtie: each side's steps are answered by the moves that the
    other side's semantics fixes, the atomic guest's update with no send,
    and each answer lands where a weak move of the defender does."""
    checked, failed = _answers_off_the_weak_moves(monkeypatch)
    sim = check_weak_simulation(paired_gset((1, 2)), "R1", step_bound=4)
    bisim = check_weak_bisimulation(paired_gset((1, 2), mode=ATOMIC_BROADCAST), step_bound=4)
    for v in (sim, bisim):
        assert v.passed
        assert v.stats["obligations"] > 0
        assert v.stats["matcher_fraction"] == 1.0
    assert checked and failed == []


# Every passing sim and bisim entry of the shipped scenarios, by scenario
# and relation (None for the bisim entry).
FALLBACK_ORACLE = (
    ("thm-4-2", "R1"),
    ("thm-4-2", "R2"),
    ("thm-4-2-3rid", "R1"),
    ("thm-4-2-3rid", "R2"),
    ("thm-a-2-gset", "Q1"),
    ("thm-a-2-gset", "Q2"),
    ("ex-4-7-convergence", "R1"),
    ("ex-4-7-convergence", "R2"),
    ("thm-4-9-bisim", None),
)


@pytest.mark.parametrize("name, relation", FALLBACK_ORACLE)
def test_fallback_alone_agrees_with_the_matchers(name, relation, monkeypatch):
    """Independent oracle for the constructive matchers: with every matcher
    answering None, the bounded weak-successor search alone discharges each
    obligation, and the check at step bound 6 passes with the same related
    pairs as the matcher run."""
    scenario = load_scenario(TESTS.parent / f"scenarios/{name}.scenario")
    host, paired = build_systems(scenario)
    (entry,) = [
        e for e in scenario.checks
        if e["name"] in ("sim", "bisim") and e.get("relation") == relation
    ]
    entry = dict(entry, step_bound=6)

    def verdict():
        ((_, v),) = run_check(scenario, entry, host, paired)
        return v

    matched = verdict()
    monkeypatch.setattr("crdt_emu.checker.constructive_match", lambda *args: None)
    fallback = verdict()
    assert matched.outcome == fallback.outcome == "pass"
    assert fallback.stats["pairs"] == matched.stats["pairs"]
    assert fallback.stats["matcher_matched"] == 0 < matched.stats["matcher_matched"]


def _illegal_matcher_steps(monkeypatch) -> list:
    """Wrap the constructive matcher so that every step of every chain it
    returns is checked against the defender's own LTS: its event must be
    among the events of the defender's steps from the chain's previous
    configuration.  Returns the list the illegal events are appended to."""
    illegal = []

    def audited(rel, defender, key, b_cfg):
        chain = constructive_match(rel, defender, key, b_cfg)
        prev = b_cfg
        for step in chain or ():
            if step not in defender.steps(prev):
                illegal.append(step[0])
            prev = step[1]
        return chain

    monkeypatch.setattr("crdt_emu.checker.constructive_match", audited)
    return illegal


@pytest.mark.parametrize("name, relation", FALLBACK_ORACLE)
def test_matcher_chains_are_defender_moves_on_shipped_entries(name, relation, monkeypatch):
    """Legal-move oracle for the constructive matchers on the passing
    shipped entries at step bound 5: every answer is a run of the
    defender's own LTS."""
    illegal = _illegal_matcher_steps(monkeypatch)
    scenario = load_scenario(TESTS.parent / f"scenarios/{name}.scenario")
    host, paired = build_systems(scenario)
    (entry,) = [
        e for e in scenario.checks
        if e["name"] in ("sim", "bisim") and e.get("relation") == relation
    ]
    ((_, v),) = run_check(scenario, dict(entry, step_bound=5), host, paired)
    assert v.passed and v.stats["matcher_matched"] > 0
    assert illegal == []


def _shipped_verdict(name: str, relation: str | None, step_bound: int):
    """The verdict of a shipped scenario's sim or bisim entry at step_bound."""
    scenario = load_scenario(TESTS.parent / f"scenarios/{name}.scenario")
    host, paired = build_systems(scenario)
    (entry,) = [
        e for e in scenario.checks
        if e["name"] in ("sim", "bisim") and e.get("relation") == relation
    ]
    ((_, v),) = run_check(scenario, dict(entry, step_bound=step_bound), host, paired)
    return v


@pytest.mark.parametrize(
    "name, relation, step_bound",
    [(name, relation, 5) for name, relation in FALLBACK_ORACLE] + [("thm-4-2-3rid", "R2", 4)],
)
def test_memo_answers_equal_fresh_matches(name, relation, step_bound, monkeypatch):
    """Premise of the driver's answer memo: every answer read back for a
    defender configuration and move key has the landing and the events of a
    fresh constructive match from the current defender configuration.  A
    read-back answer is one that leaves its memo the same size."""
    answer = checker._answer
    answered, differ = [], []

    def audited(rel, defender, memo, key, b_cfg):
        size = None if memo is None else len(memo)
        got = answer(rel, defender, memo, key, b_cfg)
        answered.append(1)
        if size is not None and len(memo) == size:
            chain = constructive_match(rel, defender, key, b_cfg)
            fresh = None if chain is None else (
                chain[-1][1] if chain else b_cfg,
                tuple(e for e, _ in chain))
            if got != fresh:
                differ.append((key, got, fresh))
        return got

    monkeypatch.setattr("crdt_emu.checker._answer", audited)
    v = _shipped_verdict(name, relation, step_bound)
    assert v.passed and len(answered) == v.stats["obligations"]
    assert differ == []


def test_answer_memo_keeps_answers_only_where_they_are_reused(monkeypatch):
    """On thm-4-2 R1 every defender configuration defends one expanded pair,
    so none keeps an answer and the matcher answers every obligation.  On
    R2 a configuration defends many pairs: answers are kept, and most
    obligations are answered from them, without calling the matcher."""
    calls = []
    monkeypatch.setattr(
        "crdt_emu.checker.constructive_match",
        lambda *args: calls.append(1) or constructive_match(*args),
    )
    _, paired = build_systems(load_scenario(TESTS.parent / "scenarios/thm-4-2.scenario"))

    @intern_scope
    def play(rel_id):
        calls.clear()
        search = Search(Relation(rel_id, paired), 8, None)
        v = _play_obligations(search, ("a",), search.a.system.init(), search.b.system.init())
        assert v.passed and v.stats["matcher_fraction"] == 1.0
        kept = [memo for memo in search.b.answers.values() if memo]
        return kept, v.stats["obligations"] - len(calls), v.stats["obligations"]

    kept, read_back, _ = play("R1")
    assert kept == [] and read_back == 0
    kept, read_back, obligations = play("R2")
    assert kept and read_back > obligations // 2


def _atomic(paired: PairedSystem) -> PairedSystem:
    """paired with its state-based side in atomic broadcast mode."""
    side = "guest" if paired.direction == "op-to-st" else "host"
    st = dataclasses.replace(paired.side(side), mode=ATOMIC_BROADCAST)
    return dataclasses.replace(paired, **{side: st})


@pytest.mark.parametrize(
    "rel_id, make_pair, outcome, pairs",
    [
        ("R1", lambda: _atomic(_broken_guest_pair()), "counterexample", 8),
        ("Q2", lambda: _atomic(_gset_st_pair()), "pass", 147),
    ],
    ids=["R1-atomic-broken-guest", "Q2-atomic-gset"],
)
def test_matcher_chains_are_defender_moves_in_atomic_mode(
    rel_id, make_pair, outcome, pairs, monkeypatch
):
    """An atomic-mode state-based defender has no separate send step, so its
    answer to an update is the update alone."""
    illegal = _illegal_matcher_steps(monkeypatch)
    p = make_pair()
    v = check_weak_simulation(p, rel_id, step_bound=5)
    assert (v.outcome, v.stats["pairs"]) == (outcome, pairs)
    assert illegal == []


def test_atomic_mode_r1_counterexample_replays():
    """The witness of a simulation against an atomic-mode guest holds only
    steps of that guest, so it replays."""
    p = _atomic(_broken_guest_pair())
    v = check_weak_simulation(p, "R1", step_bound=6)
    assert v.outcome == "counterexample"
    p.guest.replay(parse_events(v.witness["guest_events"]))
    assert replay_simulation_counterexample(p, "R1", v.witness, default_tau_budget(p))


def test_each_related_pair_is_decided_once(monkeypatch):
    """A landing on a visited pair key is accepted without deciding the
    clause again.  With every obligation discharged by the constructive
    matcher, the clause then runs once for the initial pair and once for
    each new pair: exactly stats["pairs"] times, not once per obligation."""
    calls = []
    clause = Relation.clause
    monkeypatch.setattr(
        Relation, "clause", lambda self, a, b: calls.append(self.id) or clause(self, a, b)
    )
    for rel_id, run in (
        ("R1", lambda: check_weak_simulation(paired_gset(), "R1", step_bound=5)),
        ("Q1", lambda: check_weak_simulation(paired_gcounter(), "Q1", step_bound=5)),
        ("bowtie", lambda: check_weak_bisimulation(paired_gset(mode=ATOMIC_BROADCAST), step_bound=5)),
    ):
        calls.clear()
        v = run()
        assert v.passed and v.stats["matcher_fraction"] == 1.0
        assert v.stats["obligations"] > v.stats["pairs"]
        assert calls == [rel_id] * v.stats["pairs"]


def test_simulation_pass_implies_trace_inclusion():
    """Meta cross-check of the two checkers at a small bound."""
    p = paired_gset((1, 2))
    assert check_weak_simulation(p, "R1", step_bound=6).passed
    th = weak_traces(p.host, 2, 6)
    tg = weak_traces(p.guest, 2, 6)
    assert th <= tg


def test_simulation_deterministic_across_runs():
    verdicts = []
    for _ in range(2):
        p = paired_gset((1, 2), ("r1", "r2", "r3"), discipline=RELIABLE_ONLY)
        v = check_weak_simulation(p, "R1", step_bound=8)
        verdicts.append(json.dumps(v.to_report(), sort_keys=True))
    assert verdicts[0] == verdicts[1]


def test_bound_exhaustion_on_tiny_pair_budget(monkeypatch):
    monkeypatch.setattr(checker, "MAX_PAIRS", 3)
    p = paired_gset((1, 2))
    v = check_weak_simulation(p, "R1", step_bound=6)
    assert v.outcome == "bound-exhausted"
    assert v.stats["matcher_fraction"] == 1.0


# --- weak bisimulation -------------------------------------------------------------------


def test_bisim_atomic_passes():
    p = paired_gset(mode=ATOMIC_BROADCAST)
    v = check_weak_bisimulation(p, step_bound=6)
    assert v.passed


def test_bisim_bound_exhaustion_on_tiny_pair_budget(monkeypatch):
    """Like the simulation check, the bisimulation stops as soon as the
    pair count passes its budget, mid-way through a pair's obligations."""
    monkeypatch.setattr(checker, "MAX_PAIRS", 3)
    p = paired_gset(mode=ATOMIC_BROADCAST)
    v = check_weak_bisimulation(p, step_bound=6)
    assert v.outcome == "bound-exhausted"
    assert v.stats["pairs"] == 4
    assert v.stats["matcher_fraction"] == 1.0


def test_bisim_separate_send_counterexample_values():
    p = paired_gset()
    v = check_weak_bisimulation(p, step_bound=8)
    assert v.outcome == "counterexample"
    dq = v.witness["distinguishing_query"]
    assert dq["attacker_value"] == 5
    assert dq["defender_options"] == [47]
    ops = [
        tuple(step["event"]["input"]["op"])
        for step in v.witness["play"]
        if step["event"]["input"]["kind"] == "upd"
    ]
    assert ("add", 5) in ops and ("add", 42) in ops


def test_bisim_trivial_single_replica_no_ops():
    obj = gset_op(())
    host = OpSystem(obj, ("r1",))
    guest = StSystem(op_to_st(obj), ("r1",))
    p = PairedSystem(host=host, guest=guest)
    v = check_weak_bisimulation(p, step_bound=4)
    assert v.passed


def test_bisim_play_replays_on_both_systems():
    p = paired_gset()
    v = check_weak_bisimulation(p, step_bound=8)
    host_cfg = p.host.replay(parse_events(v.witness["host_events"]))
    guest_cfg = p.guest.replay(parse_events(v.witness["guest_events"]))
    assert host_cfg is not None and guest_cfg is not None


# --- traces -----------------------------------------------------------------------


def test_weak_traces_len_zero():
    p = paired_gset()
    assert weak_traces(p.host, 0, 4) == {()}


def test_weak_traces_rejects_a_negative_length():
    """A negative length bound is an error, as one above the step bound is,
    not an empty check that passes; a negative step bound is reported as
    such whatever the length, as explore reports it."""
    p = paired_gset()
    with pytest.raises(ValueError, match="negative max_len"):
        weak_traces(p.host, -1, 4)
    with pytest.raises(ValueError, match="negative max_len"):
        check_trace_equivalence(p, max_len=-1, step_bound=4)
    with pytest.raises(ValueError, match="exceeds step_bound"):
        weak_traces(p.host, 5, 4)
    for max_len in (-1, 0):
        with pytest.raises(ValueError, match="negative step bound"):
            weak_traces(p.host, max_len, -1)


def test_weak_traces_past_the_recursion_limit():
    """The suffix sets are walked with a stack of their own: query steps
    are self-loops, so at a large step bound the walk stays at one node for
    most of its budget, deeper than Python's recursion limit.  An atomic
    one-op pair closes at depth 4, so at bound 1500 it has the traces it
    has at bound 20, on both sides."""
    p = paired_gset((1,), mode=ATOMIC_BROADCAST)
    for system in (p.host, p.guest):
        assert weak_traces(system, 2, 1500) == weak_traces(system, 2, 20)
    v = check_trace_equivalence(p, max_len=2, step_bound=1500)
    assert v.passed and v.stats == {"host_traces": 21, "guest_traces": 21}


@pytest.mark.parametrize(
    "make_pair",
    [lambda: paired_gset((1, 2)), paired_gcounter, _broken_guest_pair],
    ids=["gset", "gcounter", "broken-guest"],
)
@pytest.mark.parametrize("side", ["host", "guest"])
def test_weak_traces_are_the_labels_of_the_unpruned_paths(make_pair, side):
    """Independent oracle for the memoized trace sets: the observable labels
    read off the path to every node of the raw tree, cut to each length."""
    system = make_pair().side(side)
    graph = raw_tree(system, 5)
    read = {
        tuple(obs for e in graph.path(i) if (obs := e.obs_key()) is not None)
        for i in range(len(graph.nodes))
    }
    for max_len in range(4):
        assert weak_traces(system, max_len, 5) == {t for t in read if len(t) <= max_len}


def test_ex_2_5_causal_query_values_at_r3():
    """From the prefix where the first add causally precedes the second
    (r2 delivers before updating), r3 can observe sums 1 and 3 under causal
    delivery, and additionally 2 when the causal gate is dropped."""
    obj = gset_op((1, 2))

    def r3_values(discipline):
        system = OpSystem(obj, ("r1", "r2", "r3"), discipline=discipline)
        c = system.init()
        c = next(c2 for e, c2 in system.steps(c) if e.input.kind == "upd" and e.replica == "r1")
        c = next(c2 for e, c2 in system.steps(c) if e.obs_key() is None and e.replica == "r2")
        c = next(
            c2
            for e, c2 in system.steps(c)
            if e.input.kind == "upd" and e.replica == "r2" and e.input.op == ("add", 2)
        )
        return set(attainable_query_values(Side(system), c, "r3", "sum", tau_budget=6))

    assert r3_values("causal") == {0, 1, 3}
    assert r3_values(RELIABLE_ONLY) == {0, 1, 2, 3}


def test_trace_equivalence_pass_and_broken_guest():
    p = paired_gset((1, 2))
    assert check_trace_equivalence(p, max_len=3, step_bound=8).passed
    obj = gset_op((1, 2))
    broken = PairedSystem(
        host=OpSystem(obj, ROSTER2),
        guest=StSystem(break_query(op_to_st(obj)), ROSTER2),
    )
    v = check_trace_equivalence(broken, max_len=3, step_bound=8)
    assert v.outcome == "counterexample"
    assert v.witness["trace"]


def test_trace_equivalence_st_to_op():
    q = paired_gcounter()
    assert check_trace_equivalence(q, max_len=3, step_bound=8).passed


# --- convergence and causal sweeps ------------------------------------------------------


def test_strong_convergence_requires_augmented_object():
    p = paired_gset()
    with pytest.raises(ValueError):
        check_strong_convergence(p.host, step_bound=2)


def test_strong_convergence_passes_on_augmented_pair():
    obj = augment_history_op(gset_op((5, 42)))
    host = OpSystem(obj, ROSTER2)
    guest = StSystem(op_to_st(obj), ROSTER2)
    assert check_strong_convergence(host, step_bound=5).passed
    assert check_strong_convergence(guest, step_bound=5).passed


def test_causal_safety_pass_and_fail():
    assert check_causal_safety(paired_gset((1, 2)).host, step_bound=5).passed
    bad = OpSystem(gset_op((1, 2)), ("r1", "r2", "r3"), discipline=RELIABLE_ONLY)
    v = check_causal_safety(bad, step_bound=8)
    assert v.outcome == "counterexample"
    assert v.witness["events"]


def _shortest_causal_violation(system, depth: int) -> tuple[Event, ...] | None:
    """Causal safety by definition: the first path of the raw tree to depth,
    in breadth-first order, that reference.satisfies_causal_delivery
    rejects, so a shortest violating trace; None if every path satisfies
    it."""
    tree = raw_tree(system, depth)
    for i in range(len(tree.nodes)):
        path = tree.path(i)
        if not satisfies_causal_delivery(path):
            return path
    return None


def _witness_events(system, rendered: list[dict]) -> list[Event]:
    """The events of a rendered witness, each read off the one step from the
    configuration before it that renders the same."""
    events, cfg = [], system.init()
    for event in rendered:
        ((e, cfg),) = [(e, c2) for e, c2 in system.steps(cfg) if render_event(e) == event]
        events.append(e)
    return events


@intern_scope
def _explore_counts_through(system, bound: int, events=None) -> dict:
    """The nodes and edges of ``explore(system, bound)`` once the node that
    events reach from the initial configuration is expanded (the last node
    when events is None): the nodes up to the highest one reached by then,
    and the edges out of that node and every node before it.  Explore and
    replay run in one scope."""
    graph = explore(system, bound)
    k = len(graph.nodes) - 1 if events is None else graph.nodes.index(system.replay(events))
    targets = [j for i, _, j in graph.edges if i <= k]
    return {"states": max([k, *targets]) + 1, "edges": len(targets)}


@pytest.mark.parametrize("discipline", ["causal", RELIABLE_ONLY])
@pytest.mark.parametrize(
    "make_obj, roster",
    [
        (lambda: gset_op((1,)), ("a", "b", "c")),
        (lambda: gset_op((1,)), ("c", "b", "a")),
        (lambda: gset_op((1, 2)), ("a", "b", "c")),
        (lambda: gset_op((1, 2)), ("c", "b", "a")),
        (lambda: st_to_op(gcounter_st()), ("a", "b", "c")),
    ],
    ids=["gset1-abc", "gset1-cba", "gset12-abc", "gset12-cba", "gcounter-st-to-op"],
)
def test_causal_safety_matches_the_definition_on_the_raw_tree(make_obj, roster, discipline):
    """At bounds 3 to 5, the sweep gives the outcome of the definition on
    the raw tree, and a witness of the shortest violating length that
    replays, with only its last event breaking causal order.  Its counts
    are explore's nodes and edges up to and including the violating step's
    source node, or all of them on a pass.  The reliable-only G-set of (1, 2) at bound 4 is the case
    a sweep that tests only the first path into each configuration passes:
    its 4-event violation reaches its configuration over a non-tree edge."""
    system = OpSystem(make_obj(), roster, discipline=discipline)
    shortest = _shortest_causal_violation(system, 5)
    assert (shortest is None) == (discipline == "causal")
    for bound in (3, 4, 5):
        v = check_causal_safety(system, bound)
        if shortest is None or len(shortest) > bound:
            assert v.passed
            assert v.stats == _explore_counts_through(system, bound)
            continue
        assert v.outcome == "counterexample"
        events = _witness_events(system, v.witness["events"])
        assert len(events) == len(shortest)
        system.replay(events)
        assert satisfies_causal_delivery(events[:-1])
        assert not satisfies_causal_delivery(events)
        assert v.stats == _explore_counts_through(system, bound, events[:-1])


def test_causal_safety_depth_zero():
    assert check_causal_safety(paired_gset().host, step_bound=0).passed


def test_commutation_sweep():
    host = OpSystem(gset_op((1, 2)), ("r1", "r2", "r3"))
    v = check_commutation(host, step_bound=5)
    assert v.passed and v.stats["pairs_checked"] > 0


def overwrite_register() -> OpObject:
    """The last delivered set wins, so concurrent sets do not commute."""
    return OpObject(
        name="register",
        initial=0,
        ops=(("set", 1), ("set", 2)),
        queries=("get",),
        prep=lambda r, op, s: op[1],
        effect=lambda p, s: p,
        query=lambda q, s: s,
    )


def test_commutation_refutes_an_overwrite_register():
    v = check_commutation(OpSystem(overwrite_register(), ("r1", "r2", "r3")), step_bound=3)
    assert v.outcome == "counterexample"
    assert sorted(v.witness["results"]) == [1, 2]


def test_convergence_refutes_an_augmented_overwrite_register():
    """The witness's events replay from init to a configuration where the
    two named replicas share a history and report the differing values."""
    system = OpSystem(augment_history_op(overwrite_register()), ROSTER2)
    v = check_strong_convergence(system, step_bound=6)
    assert v.outcome == "counterexample"
    w = v.witness
    cfg = system.init()
    for event in w["events"]:
        (cfg,) = [c2 for e, c2 in system.steps(cfg) if render_event(e) == event]
    (v1, h1), (v2, h2) = (system.query_value(cfg, r, w["query"]) for r in w["replicas"])
    assert h1 == h2 and render(h1) == w["history"]
    assert v1 != v2 and [render(v1), render(v2)] == w["values"]


# --- memory ---------------------------------------------------------------------------


def _run_checks_and_drop_them():
    """Every entry point that runs with the cyclic collector paused."""
    assert check_weak_bisimulation(paired_gset(), step_bound=8).outcome == "counterexample"
    assert check_trace_equivalence(paired_gset((1, 2)), max_len=3, step_bound=8).passed
    assert check_weak_simulation(paired_gset(), "R1", step_bound=5).passed
    augmented = OpSystem(augment_history_op(gset_op((5, 42))), ROSTER2)
    assert check_strong_convergence(augmented, step_bound=5).passed
    free = OpSystem(gset_op((1, 2)), ("r1", "r2", "r3"), discipline=RELIABLE_ONLY)
    assert check_causal_safety(free, step_bound=8).outcome == "counterexample"
    assert check_commutation(paired_gset((1, 2)).host, step_bound=4).passed
    assert explore(paired_gset().guest, 5).nodes
    p = paired_gset((1,))
    prog = parse_program("upd(add 1); x := qry(sum); while (x = 0) { x := qry(sum) }")
    assert check_approximation(p.host, p.guest, (), prog, 12, 12).passed


def test_finished_checks_leave_no_cyclic_garbage():
    """A check's search state is freed by reference counting when it returns,
    which is what makes running checks with the cyclic collector paused
    sound: with the collector off, a collection after every entry point has
    run and returned finds nothing at all to reclaim."""
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        _run_checks_and_drop_them()
        gc.set_debug(gc.DEBUG_SAVEALL)
        unreachable = gc.collect()
        found = sorted({type(o).__name__ for o in gc.garbage})
        gc.garbage.clear()
    finally:
        gc.set_debug(debug)
        if enabled:
            gc.enable()
    assert (unreachable, found) == (0, [])


def _library_searches():
    """The searches a library caller runs outside any check, each with a
    function that builds its arguments outside any scope."""
    sim = paired_gset((1, 2), ("r1", "r2", "r3"), discipline=RELIABLE_ONLY)
    cex = check_weak_simulation(sim, "R1", step_bound=8).witness
    prog = parse_program("upd(add 1); x := qry(sum)")
    return [
        (replay_simulation_counterexample, lambda: (sim, "R1", cex, 6)),
        (attainable_query_values, lambda: (Side(sim.guest), sim.guest.init(), "r1", "sum", 4)),
        (sim.host.replay, lambda: (parse_events(cex["host_events"]),)),
        (can_terminate, lambda: (sim.host, ClientState(sim.host.init(), (), prog), 6)),
    ]


@pytest.mark.parametrize("collector_on", [True, False])
def test_checks_restore_the_collector_state(collector_on):
    """A check or library search pauses the cyclic collector only while it
    runs: the caller's setting holds after it returns and after it raises."""
    enabled = gc.isenabled()
    (gc.enable if collector_on else gc.disable)()
    try:
        system = paired_gset().host
        assert check_causal_safety(system, step_bound=2).passed
        assert gc.isenabled() == collector_on
        with pytest.raises(ValueError):
            explore(system, -1)
        assert gc.isenabled() == collector_on
        with pytest.raises(ValueError):
            check_causal_safety(paired_gset().guest, step_bound=2)
        assert gc.isenabled() == collector_on
        for search, make_args in _library_searches():
            assert search(*make_args())
            assert gc.isenabled() == collector_on, search.__name__
        with pytest.raises(ValueError):
            can_terminate(system, ClientState(system.init(), (), SKIP), -1)
        assert gc.isenabled() == collector_on
    finally:
        (gc.enable if enabled else gc.disable)()


def test_library_searches_leave_the_intern_tables_empty():
    """The searches a library caller runs outside any check each run in the
    hash-consing scope of their own: after each returns, every table is
    empty, even though its arguments were built outside any scope."""
    for search, make_args in _library_searches():
        args = make_args()
        assert search(*args)
        assert not any(intern_table_sizes().values()), search.__name__


def test_reports_do_not_depend_on_value_identity():
    """Identity of hash-consed values is only a speed-up.  A passing R1
    simulation and the ex-2-5-no-causal R1 counterexample run twice on the
    same systems.  The tables and the interp memo are emptied after each
    check, so the second run builds new canonical values and interprets its
    message sets afresh.  Both runs give the same reports."""
    passing = paired_gset()
    _, failing = build_systems(load_scenario(TESTS.parent / "scenarios/ex-2-5-no-causal.scenario"))

    def reports():
        out = []
        for p in (passing, failing):
            out.append(check_weak_simulation(p, "R1", step_bound=8).to_report())
            assert not any(intern_table_sizes().values())
            assert not _interp_memo
        return out

    first = reports()
    second = reports()
    assert second == first
    assert first[0]["outcome"] == "pass"
    golden = json.loads((TESTS / "golden/ex-2-5-no-causal.json").read_text())
    assert json.loads(json.dumps(first[1])) == golden["checks"][0]["verdict"]


def test_finished_checks_leave_no_cache_on_the_systems():
    """A paired check's caches belong to its own search value: after a
    simulation counterexample, its replay and a bisimulation counterexample,
    every host and guest system holds only its dataclass fields."""
    sim = paired_gset((1, 2), ("r1", "r2", "r3"), discipline=RELIABLE_ONLY)
    v = check_weak_simulation(sim, "R1", step_bound=8)
    assert v.outcome == "counterexample"
    assert replay_simulation_counterexample(sim, "R1", v.witness, tau_budget=6)
    bisim = paired_gset()
    assert check_weak_bisimulation(bisim, step_bound=8).outcome == "counterexample"
    for system in (sim.host, sim.guest, bisim.host, bisim.guest):
        assert set(vars(system)) == {f.name for f in dataclasses.fields(system)}
