"""Bounded checking of the paired CRDT transition systems.

One breadth-first search, ``breadth_first``, walks a single system's
configurations to a step bound and yields each node's steps.  The
causal-safety sweep and the weak-trace sets read the steps as they come;
``explore`` alone keeps them, as a ``Graph``'s edges, for the convergence
and commutation sweeps.  Each sweep ends in a pass or a counterexample.

The checker decides membership in the candidate simulation relations, and
verifies weak simulations and the weak bisimulation by playing one matching
game: for each reachable related pair and each single step of an attacking
side (one side for a simulation, both for the bisimulation) it finds a
saturated matching step on the other side that lands back in the relation.
A constructive matcher (the defender's canonical move, which its semantics
fixes) is tried first; a bounded search over weak successors is the
fallback.  All verdicts are evidence at the stated bounds, not unbounded
guarantees.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, NamedTuple

from .core import (
    VALUES,
    Config,
    Event,
    Message,
    QueryId,
    ReplicaId,
    Step,
    System,
    bits,
    canon_key,
    downset_bits,
    entries,
    entry_bit,
    happens_before,
    intern_scope,
    join,
    op_bit,
    query_step,
    render,
    render_event,
    value_bit,
)
from .emulation import interp
from .objects import OpObject, StObject, check_concurrent_commutation, st_leq
from .opsem import op_mk_deliver, op_mk_update
from .stsem import ATOMIC_BROADCAST, st_mk_deliver, st_mk_send, st_mk_update

PASS = "pass"
COUNTEREXAMPLE = "counterexample"
BOUND_EXHAUSTED = "bound-exhausted"

OP_TO_ST = "op-to-st"
ST_TO_OP = "st-to-op"

HOST_BY_GUEST = "host-by-guest"
GUEST_BY_HOST = "guest-by-host"

# Relation id -> (sort of first component, sort of second, direction)
RELATION_SORTS: dict[str, tuple[str, str, str]] = {
    "R1": ("host", "guest", OP_TO_ST),
    "R2": ("guest", "host", OP_TO_ST),
    "Q1": ("host", "guest", ST_TO_OP),
    "Q2": ("guest", "host", ST_TO_OP),
    "bowtie": ("host", "guest", OP_TO_ST),
}


@dataclass(frozen=True)
class PairedSystem:
    """Host and guest LTSs of opposite kinds, sharing a roster and op/query
    universes.  The emulation direction is read off the host's kind
    (``direction``), so it cannot contradict the systems.  The relations compare the two sides' per-replica
    tuples position by position, so the rosters must be equal, in the same
    order.  A pair of one kind, or of two rosters, raises ValueError."""

    host: System
    guest: System

    def __post_init__(self):
        if self.host.kind == self.guest.kind:
            raise ValueError(f"host and guest are both {self.host.kind}-based")
        if self.host.roster != self.guest.roster:
            raise ValueError(
                f"host roster {self.host.roster!r} and guest roster "
                f"{self.guest.roster!r} differ"
            )

    @property
    def direction(self) -> str:
        """OP_TO_ST for an op-based host, ST_TO_OP for a state-based one."""
        return OP_TO_ST if self.host.kind == "op" else ST_TO_OP

    def side(self, name: str) -> System:
        return self.host if name == "host" else self.guest


@dataclass
class Verdict:
    outcome: str
    stats: dict
    bounds: dict
    witness: dict | None = None
    detail: str | None = None

    @property
    def passed(self) -> bool:
        return self.outcome == PASS

    def to_report(self) -> dict:
        out = {"outcome": self.outcome, "stats": self.stats, "bounds": self.bounds}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.detail is not None:
            out["detail"] = self.detail
        return out


def _render_obs(obs: tuple) -> dict:
    """An observable label, ``Event.obs_key`` of an update or query, as JSON."""
    if obs[0] == "update":
        return {"kind": "update", "replica": obs[1], "op": list(obs[2])}
    return {"kind": "query", "replica": obs[1], "query": obs[2], "value": render(obs[3])}


def render_label(e: Event) -> dict:
    """The label of the system step that event e fires, as JSON: its
    observable update or query, or tau with the silent rule's name."""
    obs = e.obs_key()
    if obs is not None:
        return _render_obs(obs)
    silent = "dlvr" if e.input.kind == "dlvr" else "send"
    return {"kind": "tau", "replica": e.replica, "silent": silent}


# --- exploration ---------------------------------------------------------------


@dataclass
class Graph:
    """Configurations in breadth-first order with their depths, the (node,
    event) step that first reached each (None for the initial node) and,
    filled by ``explore`` alone, every step between them as (i, event, j)."""

    nodes: list = field(default_factory=list)
    edges: list[tuple[int, Event, int]] = field(default_factory=list)
    depths: list[int] = field(default_factory=list)
    parents: list[tuple[int, Event] | None] = field(default_factory=list)

    def path(self, i: int) -> tuple[Event, ...]:
        """The events of the path that first reached node i, oldest first."""
        events = []
        while (step := self.parents[i]) is not None:
            i, e = step
            events.append(e)
        events.reverse()
        return tuple(events)

    @property
    def stats(self) -> dict:
        return {
            "states": len(self.nodes),
            "edges": len(self.edges),
            "max_depth": max(self.depths, default=0),
        }


def breadth_first(system, step_bound: int, graph: Graph) -> Iterator[tuple[int, list]]:
    """The one search over a single system: breadth-first over the
    configurations reachable within step_bound steps, filling graph's
    nodes, depths and parents but no edge, with equal configurations one
    node.  Once node i is expanded it yields (i, steps), its steps as
    (i, event, j) triples, empty at the bound.  Nodes come once each, in
    index order, so a property of one configuration or of one step is
    decided as the search makes it, and a caller that stops iterating stops
    the search.  A step whose successor is its source object, as every
    query step's is (``core.query_step``), is the self-loop (i, e, i)
    without hashing the configuration; any other successor is looked up in
    the key table, so a step back to an equal configuration is one too."""
    if step_bound < 0:
        raise ValueError("breadth_first: negative step bound")
    nodes, depths, parents = graph.nodes, graph.depths, graph.parents
    init = system.init()
    nodes.append(init)
    depths.append(0)
    parents.append(None)
    keys = {init: 0}
    i = 0
    while i < len(nodes):  # the nodes list is the queue
        steps = []
        if depths[i] < step_bound:
            c = nodes[i]
            for e, c2 in system.steps(c):
                if c2 is c:  # a stuttering step, such as a query: no lookup
                    steps.append((i, e, i))
                    continue
                j = keys.setdefault(c2, len(nodes))
                if j == len(nodes):
                    nodes.append(c2)
                    depths.append(depths[i] + 1)
                    parents.append((i, e))
                steps.append((i, e, j))
        yield i, steps
        i += 1


@intern_scope
def explore(system, step_bound: int) -> Graph:
    """All configurations reachable within step_bound steps, with the steps
    between them: the one walk that keeps an edge list."""
    graph = Graph()
    for _, steps in breadth_first(system, step_bound, graph):
        graph.edges += steps
    return graph


# --- weak successors -------------------------------------------------------------


@dataclass(slots=True)
class Side:
    """One system of a check with the check's three caches for it, all keyed
    by configuration: successor lists, silent balls (one per configuration,
    whatever budgets it is read to, ``_silent_ball``), and the constructive
    answers this side gave as defender (``_answer_memo``).  Each side has
    its own, because a host and a guest configuration can compare equal."""

    system: Any
    steps: dict = field(default_factory=dict)
    balls: dict = field(default_factory=dict)
    answers: dict = field(default_factory=dict)


def _cached_steps(side: Side, cfg) -> list[Step]:
    """The steps of cfg, computed once per configuration.  Sound because a
    step reads nothing outside its configuration, which the step-events
    premise test in ``tests/test_checker.py`` checks on raw trees."""
    hit = side.steps.get(cfg)
    if hit is None:
        hit = side.steps[cfg] = side.system.steps(cfg)
    return hit


def _grow(side: Side, ball: tuple) -> bool:
    """Add the next layer to a ball (``_silent_ball``): the silent
    successors of its frontier, the last layer, that are not yet in it.
    False when the frontier is empty, so the ball is closed."""
    items, ends, seen = ball
    start = ends[-2] if len(ends) > 1 else 0
    if start == ends[-1]:
        return False
    for k in range(start, ends[-1]):
        c, evs = items[k]
        for e, c2 in _cached_steps(side, c):
            if e.obs_key() is not None or c2 in seen:
                continue
            seen.add(c2)
            items.append((c2, evs + (e,)))
    ends.append(len(items))
    return True


def _silent_ball(side: Side, cfg, budget: int) -> Iterator[tuple[Any, tuple[Event, ...]]]:
    """Configurations reachable by at most budget silent steps, including cfg
    itself, in BFS order, each with the events of the first path found.
    The ball for a budget is a prefix of the ball for any larger one, so
    each configuration keeps one ball in ``Side.balls``, (items, ends,
    seen): the items found so far in BFS order, the item count at the end
    of each layer built, and the items' configurations.  A layer is grown
    only when a reader passes the last one built.  A reader indexes into
    the item list rather than holding an iterator over it, so another
    reader of the same ball, such as one entered through a query step,
    whose target is its source, may grow the ball meanwhile.  A negative
    budget raises ValueError."""
    if budget < 0:
        raise ValueError("negative tau budget")
    ball = side.balls.get(cfg)
    if ball is None:
        ball = side.balls[cfg] = ([(cfg, ())], [1], {cfg})
    items, ends, _ = ball
    i = 0
    for layer in range(budget + 1):
        if layer == len(ends) and not _grow(side, ball):
            return
        end = ends[layer]
        while i < end:
            yield items[i]
            i += 1


def weak_moves(side: Side, cfg, obs: tuple | None,
               tau_budget: int) -> Iterator[tuple[Any, tuple[Event, ...]]]:
    """The weak transitions cfg ==obs==> cfg', where obs is an observable
    label (``Event.obs_key``) or None for tau, and the total number of
    silent steps is bounded by tau_budget; tau may be matched by zero
    steps.  Each landing cfg' is yielded once, with the events of the first
    path found: for an observable label, the silent ball of cfg in BFS
    order, each member's obs steps in step order, and the silent ball after
    each to the budget left.  Lazy, so a reader that stops early builds
    only the balls it read.  A negative tau_budget raises ValueError on the
    first read."""
    if obs is None:
        yield from _silent_ball(side, cfg, tau_budget)
        return
    landed = set()
    for c1, evs in _silent_ball(side, cfg, tau_budget):
        used = len(evs)
        for e, c2 in _cached_steps(side, c1):
            if e.obs_key() != obs:
                continue
            mid_evs = evs + (e,)
            for c3, evs3 in _silent_ball(side, c2, tau_budget - used):
                if c3 not in landed:
                    landed.add(c3)
                    yield c3, mid_evs + evs3


def weak_matches(
    side: Side,
    cfg,
    obs: tuple | None,
    tau_budget: int,
    accept: Callable[[Any], bool],
) -> tuple[Any, tuple[Event, ...]] | None:
    """The first weak move (``weak_moves``) of cfg under obs whose landing
    accept holds of, or None.  accept must not change its answer during the
    call, since each landing is tested once.  A negative tau_budget raises
    ValueError."""
    for move in weak_moves(side, cfg, obs, tau_budget):
        if accept(move[0]):
            return move
    return None


@intern_scope
def attainable_query_values(side: Side, cfg, r: ReplicaId, q: QueryId, tau_budget: int) -> list:
    """Query values weakly reachable at replica r (current value included),
    read off side's silent ball of cfg.  A negative tau_budget raises
    ValueError."""
    vals = []
    seen = set()
    for c1, _ in _silent_ball(side, cfg, tau_budget):
        v = side.system.query_value(c1, r, q)
        k = canon_key(v)
        if k not in seen:
            seen.add(k)
            vals.append(v)
    return sorted(vals, key=canon_key)


# --- relations --------------------------------------------------------------------


def _sorts(rel_id: str) -> tuple[str, str, str]:
    sorts = RELATION_SORTS.get(rel_id) if isinstance(rel_id, str) else None
    if sorts is None:
        raise ValueError(f"unknown relation {rel_id!r}")
    return sorts


def sim_relation(emulate: str, which: str, rel_id: str | None = None) -> str:
    """The relation that a weak-simulation check in direction which runs on
    a pair emulating in direction emulate: rel_id if it fits both, or by
    default the first listed relation that does.  Raises ValueError for an
    unknown direction or relation, or a relation that does not fit."""
    if which not in (HOST_BY_GUEST, GUEST_BY_HOST):
        raise ValueError(f"unknown direction {which!r}")
    if emulate not in (OP_TO_ST, ST_TO_OP):
        raise ValueError(f"unknown emulation direction {emulate!r}")
    if rel_id is None:
        return next(r for r, (a, b, d) in RELATION_SORTS.items()
                    if d == emulate and f"{a}-by-{b}" == which)
    a_side, b_side, direction = _sorts(rel_id)
    if direction != emulate:
        raise ValueError(f"relation {rel_id} needs emulate {direction!r}")
    if which != f"{a_side}-by-{b_side}":
        raise ValueError(f"relation {rel_id} checks the {a_side}-by-{b_side} direction")
    return rel_id


class Relation:
    """Membership test for one of the candidate relations, with the first
    failing clause reported for diagnostics.  Both configurations are read
    as bitsets over the scope's value index (``core.Config``), and a
    message-set guest's state is itself its messages' bitset, compared with
    the op side's ``delivered`` as it is.  Its caches are keyed by values
    and bitsets of one check scope, and the relation lives in one check.
    It keeps a cache only where lookups come back to it, a sent set's union
    and an op buffer's payloads; an op buffer's downset buffer is rebuilt
    per clause call, since a simulation decides each pair's clause once and
    almost every pair brings new ones."""

    def __init__(self, rel_id: str, paired: PairedSystem):
        sort_a, sort_b, direction = _sorts(rel_id)
        if paired.direction != direction:
            raise ValueError(f"relation {rel_id} pairs with direction {direction}")
        self.id = rel_id
        self.paired = paired
        self.direction = direction
        self.a_side = sort_a
        self.b_side = sort_b
        self.roster = paired.host.roster
        self.n = len(self.roster)
        op_side = paired.host if direction == OP_TO_ST else paired.guest
        self._op_obj: OpObject = op_side.obj  # type: ignore[assignment]
        self._unions: dict = {}
        self._payloads: dict = {}
        self._payload_buffers: dict = {}

    def clause(self, a: Config, b: Config) -> str | None:
        if self.id == "R1":
            return self._r1(a, b)
        if self.id == "R2":
            return self._r2(a, b)
        if self.id == "Q1":
            return self._q1(a, b)
        if self.id == "Q2":
            return self._q2(a, b)
        return self._bowtie(a, b)

    def holds(self, a: Config, b: Config) -> bool:
        return self.clause(a, b) is None

    # helpers

    def _union_sent(self, st_c: Config) -> int:
        """The messages of a message-set configuration's sent states."""
        cached = self._unions.get(st_c.sent)
        if cached is None:
            cached = 0
            for b in bits(st_c.sent):
                cached |= VALUES[b]
            self._unions[st_c.sent] = cached
        return cached

    def _downset_buffer(self, op_c: Config) -> int:
        """op_c's buffer with each message replaced by its downset in
        op_c's sent set, a message-set buffer."""
        out = 0
        for k, v in entries(op_c.buffer, self.n):
            out |= entry_bit(value_bit(downset_bits(v, op_c.sent)), k, self.n)
        return out

    def _payloads_by_replica(self, op_c: Config) -> dict[int, list]:
        """The payloads of op_c's buffer, grouped by destination roster
        position."""
        cached = self._payloads.get(op_c.buffer)
        if cached is None:
            cached = self._payloads[op_c.buffer] = {}
            for k, v in entries(op_c.buffer, self.n):
                cached.setdefault(k, []).append(VALUES[v].payload)
        return cached

    def _payload_buffer(self, op_c: Config) -> int:
        """op_c's buffer with each message replaced by its payload, a
        state-based buffer."""
        cached = self._payload_buffers.get(op_c.buffer)
        if cached is None:
            cached = 0
            for k, v in entries(op_c.buffer, self.n):
                cached |= entry_bit(value_bit(VALUES[v].payload), k, self.n)
            self._payload_buffers[op_c.buffer] = cached
        return cached

    # R1: op host simulated by message-set guest

    def _r1(self, op_c: Config, st_c: Config) -> str | None:
        if op_c.sent != self._union_sent(st_c):
            return "sent-agreement"
        if op_c.delivered != st_c.states:
            return "delivered-agreement"
        obj = self._op_obj
        for s_op, s_st in zip(op_c.states, st_c.states):
            if s_op != interp(s_st, obj):
                return "state-agreement"
        if self._downset_buffer(op_c) & ~st_c.buffer:
            return "buffer-downset"
        return None

    # R2: message-set guest simulated by op host

    def _r2(self, st_c: Config, op_c: Config) -> str | None:
        # Inclusion, not equality: the update matcher makes the op side send
        # first, and only the inclusion is needed for (and preserved by) the
        # delivery argument.
        if self._union_sent(st_c) & ~op_c.sent:
            return "sent-agreement"
        if st_c.states != op_c.delivered:
            return "delivered-agreement"
        obj = self._op_obj
        for s_st, s_op in zip(st_c.states, op_c.states):
            if interp(s_st, obj) != s_op:
                return "state-agreement"
        if not self._buffer_deliverable(st_c, op_c):
            return "buffer-deliverable"
        return None

    def _buffer_deliverable(self, st_c: Config, op_c: Config) -> bool:
        """Every message set buffered on the message-set side has a
        deliverable merge on the op side (``_deliverable_merge_exists``)."""
        return all(
            self._deliverable_merge_exists(VALUES[v], k, op_c)
            for k, v in entries(st_c.buffer, self.n)
        )

    def _deliverable_merge_exists(self, H: int, k: int, op_c: Config) -> bool:
        """Some deliverable U has Delivered(r) ∪ U = Delivered(r) ∪ H, for
        the replica r at roster position k and the message bitset H.

        A deliverable set is disjoint from Delivered(r), so the only candidate
        is U = H − Delivered(r).  It has a deliverable ordering iff each member
        is buffered for r and all its causal predecessors are in
        Delivered(r) ∪ U: happens-before is acyclic, so delivering U in any
        causal order then meets every gate."""
        have = op_c.delivered[k]
        wanted = H & ~have
        if not wanted:
            return True
        closed = have | H
        buffer, sent, n = op_c.buffer, op_c.sent, self.n
        return all(
            buffer & entry_bit(v, k, n) and not downset_bits(v, sent) & ~closed
            for v in bits(wanted)
        )

    # Q1: state-based host simulated by join-guest

    def _q1(self, st_c: Config, op_c: Config) -> str | None:
        """Besides state agreement, merging any buffered host state must be
        matched by delivering some set C of the guest's buffered payloads:
        op state ⊔ ⊔C = target.  Such a C exists iff joining the op state
        with every buffered payload p ≤ target gives the target: any witness
        C has only members ≤ target, so the join of all of them is ≥ the
        target and ≤ it.  The running join only grows and stays ≤ target, so
        it can stop once it reaches the target.  This relies on the lattice
        laws (associative, commutative, idempotent join) that
        ``test_st_lattice_laws_on_reachable_states`` checks."""
        if st_c.states != op_c.states:
            return "state-agreement"
        obj: StObject = self.paired.host.obj  # type: ignore[assignment]
        payloads = self._payloads_by_replica(op_c)
        for k, v in entries(st_c.buffer, self.n):
            target = join(obj, st_c.states[k], VALUES[v])
            if target == st_c.states[k]:
                continue
            acc = op_c.states[k]
            for p in payloads.get(k, ()):
                if st_leq(obj, p, target):
                    acc = join(obj, acc, p)
                    if acc == target:
                        break
            else:
                return "buffer-mergeable"
        return None

    # Q2: join-guest simulated by state-based host (identity matching)

    def _q2(self, op_c: Config, st_c: Config) -> str | None:
        if op_c.states != st_c.states:
            return "state-agreement"
        if self._payload_buffer(op_c) != st_c.buffer:
            return "buffer-agreement"
        return None

    # bowtie: R1 with the buffer clause made two-way.  The forward direction
    # keeps the exact pending-downset form; the converse asks that delivering
    # any pending state is matchable, which tolerates stale entries whose
    # content was already delivered out of order.

    def _bowtie(self, op_c: Config, st_c: Config) -> str | None:
        bad = self._r1(op_c, st_c)
        if bad is not None:
            return bad
        if not self._buffer_deliverable(st_c, op_c):
            return "buffer-deliverable-converse"
        return None


# --- constructive matchers ---------------------------------------------------------


def _op_deliver_chain(D, cfg, k: int, candidates: int, done) -> list[Step] | None:
    """Deliver the messages of the bitset candidates at roster position k
    through enabled OpDeliver steps, each time the smallest one currently
    enabled by (origin, seq), until done holds of the reached configuration;
    None when no candidate is enabled before that."""
    chain: list[Step] = []
    cur = cfg
    remaining = sorted(bits(candidates), key=lambda v: VALUES[v].sort_key())
    while not done(cur):
        step = None
        for v in remaining:
            step = op_mk_deliver(D.obj, D.roster, cur, k, v, D.discipline)
            if step is not None:
                break
        if step is None:
            return None
        chain.append(step)
        cur = step[1]
        remaining.remove(v)
    return chain


def constructive_match(rel: Relation, defender, key, b_cfg) -> list[Step] | None:
    """The canonical defender moves from b_cfg that answer the attacker step
    whose move key (``_move_key``) is key: the weak move of the defender's
    own LTS that its semantics (op- or state-based, and its broadcast mode)
    and the emulation direction fix.  Returns the chain of defender steps,
    or None when there is no such move.  It reads nothing of the attacker
    but the key, so the chain is a function of key and b_cfg."""
    D = defender
    if isinstance(key, Event):
        return []   # a state-based send is matched by the reflexive step
    tag, k = key[0], D.roster.index(key[1])

    if tag == "update":
        j = D.obj.ops.index(key[2])
        if b_cfg.used_ops & op_bit(k, j, len(D.obj.ops)):
            return None
        if D.kind == "op":
            return [op_mk_update(D.obj, D.roster, b_cfg, k, j)]
        updated = st_mk_update(D.obj, D.roster, b_cfg, k, j, D.mode)
        if D.mode == ATOMIC_BROADCAST:
            return [updated]  # the update broadcasts its state itself
        return [updated, st_mk_send(D.roster, updated[1], k)]

    if tag == "query":
        answered = query_step(D.obj, D.roster, b_cfg, key[1], key[2])
        return [answered] if answered[0].obs_key() == key else None

    x = key[2]   # a delivery: what the defender delivers, or reaches, at k
    if D.kind == "st":
        step = st_mk_deliver(D.obj, D.roster, b_cfg, k, x)
        return None if step is None else [step]

    if rel.direction == OP_TO_ST:
        # deliver the messages of the delivered state that r lacks
        wanted = x & ~b_cfg.delivered[k]
        return _op_deliver_chain(D, b_cfg, k, wanted, lambda c: not wanted & ~c.delivered[k])

    # st-to-op: deliver buffered payloads below the joined state until the
    # defender reaches it
    obj: StObject = rel.paired.host.obj  # type: ignore[assignment]
    below = 0
    for k2, v in entries(b_cfg.buffer, len(D.roster)):
        if k2 == k and join(obj, x, VALUES[v].payload) == x:
            below |= 1 << v
    return _op_deliver_chain(D, b_cfg, k, below, lambda c: c.states[k] == x)


def _move_key(rel: Relation, defender, a_cfg, event):
    """The move key of the attacker step a_cfg --event->, all that the
    defender's answer (``constructive_match``) reads of the attacker: the
    label (``Event.obs_key``) of an update or a query, a state-based send
    itself, or ("dlvr", r, x) for a delivery at r, where x is what the
    defender's move is derived from, by the emulation direction and the
    defender's kind: the value bit of the delivered message's downset or
    of its payload for a state-based defender, the delivered message-set
    state itself, a message bitset, or the joined state."""
    if event.input.kind != "dlvr":
        return event.obs_key() or event
    r, m = event.replica, event.input.message
    if rel.direction == OP_TO_ST:
        if defender.kind == "st":
            return ("dlvr", r, value_bit(downset_bits(value_bit(m), a_cfg.sent)))
        return ("dlvr", r, m)
    if defender.kind == "st":
        return ("dlvr", r, value_bit(m.payload))
    return ("dlvr", r, join(rel.paired.host.obj, a_cfg.states[rel.roster.index(r)], m))


_UNASKED = object()   # a move key absent from an answer memo


def _answer_memo(defender: Side, cfg) -> dict | None:
    """The answers that the defender gave from this configuration, to be
    read and extended, or None on the configuration's first expanded pair,
    where nothing is kept: a configuration that defends a single pair never
    reads its answers, and in R1 every configuration, in Q2 and the bowtie
    check almost every one, defends a single pair."""
    answers = defender.answers
    if cfg not in answers:
        answers[cfg] = None
        return None
    memo = answers[cfg]
    if memo is None:
        memo = answers[cfg] = {}
    return memo


def _answer(rel: Relation, defender, memo: dict | None, key, b_cfg):
    """The constructive answer from b_cfg to the attacker step whose move key
    is key, as (the chain's last configuration, b_cfg itself for the empty
    chain; the chain's events), or None when there is no such move.  The
    matcher reads only key and b_cfg, so memo, b_cfg's answers
    (``_answer_memo``) or None, keeps each answer by its key."""
    answer = _UNASKED if memo is None else memo.get(key, _UNASKED)
    if answer is _UNASKED:
        chain = constructive_match(rel, defender, key, b_cfg)
        answer = None if chain is None else (
            chain[-1][1] if chain else b_cfg, tuple(e for e, _ in chain))
        if memo is not None:
            memo[key] = answer
    return answer


# --- weak simulation check ----------------------------------------------------------


def _evidence(attacker: Side, event, a2_cfg, defender: Side, b_cfg, tau_budget: int):
    """Query-level explanation of the unmatched attacker step --event->
    a2_cfg: the value now observable on the attacker side versus what the
    defender could still offer."""
    r = event.replica
    if event.input.kind == "qry":
        queries = (event.input.query,)
    else:
        queries = attacker.system.obj.queries
    for q in queries:
        attacker_value = attacker.system.query_value(a2_cfg, r, q)
        options = attainable_query_values(defender, b_cfg, r, q, tau_budget)
        if any(canon_key(v) == canon_key(attacker_value) for v in options):
            continue
        current = defender.system.query_value(b_cfg, r, q)
        return {
            "replica": r,
            "query": q,
            "attacker_value": render(attacker_value),
            "defender_current": render(current),
            "defender_options": [
                render(v) for v in options if canon_key(v) != canon_key(current)
            ],
        }
    return None


def default_tau_budget(paired: PairedSystem) -> int:
    return 2 * len(paired.host.roster)


MAX_PAIRS = 2_000_000   # related pairs a paired check visits before it gives up


class Search:
    """One paired check's search: its fixed inputs, the counters and bounds
    it reports, and the relation's two sides with their caches, the first
    side the relation's first component.  A check creates it and drops it on
    return, so no cache outlives the check.  The pair budget is the module
    constant ``MAX_PAIRS``, which the driver reads."""

    def __init__(self, rel: Relation, step_bound: int, tau_budget: int | None):
        if tau_budget is None:
            tau_budget = default_tau_budget(rel.paired)
        if step_bound < 0:
            raise ValueError("negative step bound")
        if tau_budget < 0:
            raise ValueError("negative tau budget")
        self.rel = rel
        self.step_bound = step_bound
        self.tau_budget = tau_budget
        counters = ("pairs", "obligations", "max_depth", "matcher_matched", "fallback_matched")
        self.stats = dict.fromkeys(counters, 0)
        self.bounds = {"step_bound": step_bound, "tau_budget": tau_budget, "relation": rel.id}
        self.a = Side(rel.paired.side(rel.a_side))   # the relation's first side
        self.b = Side(rel.paired.side(rel.b_side))


class _Miss(NamedTuple):
    """The first obligation that no defender move discharges."""

    a_events: tuple[Event, ...]   # path to the attacked pair, first side
    b_events: tuple[Event, ...]   # path to the attacked pair, second side
    side: str                     # the attacker's side of the relation: "a" | "b"
    attacker_event: Event
    attacker_post: Any
    landing: Any                  # where the constructive chain ends
    defender: Any                 # the defender's configuration it started from


def _play_obligations(search: Search, attackers: tuple[str, ...], a0, b0) -> Verdict | _Miss:
    """Breadth-first matching game over related pairs (a, b), a on the
    relation's first side, from the related initial pair (a0, b0).  For each
    attacking side, "a" or "b", every single step of that side's
    configuration must be answered by a weak move of the other side's LTS
    that lands back in the relation: the constructive chain, which the
    defender's semantics fixes, first, the bounded weak-successor search as
    fallback.  Returns the PASS or BOUND_EXHAUSTED verdict, both with the
    matcher/fallback split, or the first obligation no move discharges.
    A pair key is the pair (a, b) itself.  The constructive answer is read
    off the attacker step's move key (``_move_key``) and kept by it per
    defender configuration from its second expanded pair on
    (``_answer_memo``), so a configuration that defends many pairs answers
    each move once.  Either answer's landing passes one test: one on a
    visited pair key is accepted without deciding the clause again, since
    the key was admitted only after its clause held, and the clause
    reads nothing outside the two configurations
    (``tests/test_checker.py::test_clause_is_a_function_of_the_summaries``),
    so each related pair's clause is decided once.  The pair budget,
    ``MAX_PAIRS``, read at run time, is checked as each new pair is added,
    so at most MAX_PAIRS + 1 pairs are counted."""
    rel, stats, tau_budget = search.rel, search.stats, search.tau_budget
    A, B = search.a, search.b
    key0 = (a0, b0)
    # pair key -> (parent key, attacker side, attacker event, defender events)
    parents: dict = {key0: None}
    queue = deque([(key0, 0)])
    stats["pairs"] = 1
    while queue:
        key, depth = queue.popleft()
        stats["max_depth"] = max(stats["max_depth"], depth)
        if depth >= search.step_bound:
            continue
        a, b = key
        for side in attackers:
            X, x, Y, y = (A, a, B, b) if side == "a" else (B, b, A, a)
            memo = _answer_memo(Y, y)
            for event, x2 in X.system.steps(x):
                stats["obligations"] += 1
                pair = (lambda yy: (x2, yy)) if side == "a" else (lambda yy: (yy, x2))
                move = _answer(rel, Y.system, memo, _move_key(rel, Y.system, x, event), y)
                end = y if move is None else move[0]   # where the constructive chain ends
                key2 = pair(end)
                new = key2 not in parents
                if move is not None and (not new or rel.holds(*key2)):
                    stats["matcher_matched"] += 1
                else:
                    move = weak_matches(Y, y, event.obs_key(), tau_budget,
                                        lambda yy: pair(yy) in parents or rel.holds(*pair(yy)))
                    if move is None:
                        return _Miss(*_path_events(parents, key), side, event, x2, end, y)
                    key2 = pair(move[0])
                    new = key2 not in parents
                    stats["fallback_matched"] += 1
                if new:
                    parents[key2] = (key, side, event, move[1])
                    stats["pairs"] += 1
                    queue.append((key2, depth + 1))
                    if stats["pairs"] > MAX_PAIRS:
                        return _verdict(search, BOUND_EXHAUSTED, "pair budget exceeded")
    return _verdict(search, PASS)


def _verdict(search: Search, outcome: str, detail: str | None = None) -> Verdict:
    """The driver's verdict, its stats completed by the share of obligations
    that the constructive matchers discharged."""
    stats = search.stats
    total = stats["matcher_matched"] + stats["fallback_matched"]
    stats["matcher_fraction"] = stats["matcher_matched"] / total if total else 1.0
    return Verdict(outcome, stats, search.bounds, detail=detail)


def _path_events(parents: dict, key) -> tuple[tuple[Event, ...], tuple[Event, ...]]:
    """The events of both sides along the parents path to the pair key."""
    a_evs: list[Event] = []
    b_evs: list[Event] = []
    while parents[key] is not None:
        key, side, attacker_event, defender_events = parents[key]
        x_evs, y_evs = (a_evs, b_evs) if side == "a" else (b_evs, a_evs)
        x_evs.append(attacker_event)
        y_evs.extend(reversed(defender_events))
    a_evs.reverse()
    b_evs.reverse()
    return tuple(a_evs), tuple(b_evs)


@intern_scope
def check_weak_simulation(
    paired: PairedSystem,
    rel_id: str,
    step_bound: int = 8,
    tau_budget: int | None = None,
) -> Verdict:
    """Check that the candidate relation rel_id is a weak simulation on all
    related pairs co-reachable within step_bound attacker steps.  The
    relation fixes the attacker, its first component (``RELATION_SORTS``),
    and must fit the pair's emulation direction, else ValueError.  A
    counterexample's witness holds both sides' rendered events, the
    attacker's ending with the unmatched step; they replay from the initial
    configurations."""
    rel = Relation(rel_id, paired)
    a_name, b_name = rel.a_side, rel.b_side
    search = Search(rel, step_bound, tau_budget)
    a0, b0 = search.a.system.init(), search.b.system.init()
    clause0 = rel.clause(a0, b0)
    if clause0 is not None:
        return Verdict(
            COUNTEREXAMPLE,
            search.stats,
            search.bounds,
            witness={"failed_clause": clause0, "at": "initial-configurations"},
            detail="initial configurations are not related",
        )
    miss = _play_obligations(search, ("a",), a0, b0)
    if isinstance(miss, Verdict):
        return miss
    unmatched, a2 = miss.attacker_event, miss.attacker_post
    a_decode, b_decode = search.a.system.decode, search.b.system.decode
    witness = {
        a_name + "_events": [render_event(e, a_decode) for e in miss.a_events + (unmatched,)],
        b_name + "_events": [render_event(e, b_decode) for e in miss.b_events],
        "unmatched": {
            "side": a_name,
            "label": render_label(unmatched),
            "event": render_event(unmatched, a_decode),
        },
    }
    clause = rel.clause(a2, miss.landing)
    if clause:
        witness["failed_clause"] = clause
    evidence = _evidence(search.a, unmatched, a2, search.b, miss.defender, search.tau_budget)
    if evidence:
        witness["distinguishing_query"] = evidence
    return Verdict(
        COUNTEREXAMPLE,
        search.stats,
        search.bounds,
        witness=witness,
        detail=f"unmatched {a_name} step",
    )


# --- weak bisimulation ---------------------------------------------------------------


@dataclass
class GameWitness:
    side: str                      # which system attacked: "host" | "guest"
    attacker_event: Event
    attacker_cfg: Any              # after the attack
    defender_cfg: Any
    responses: list                # [(events, sub GameWitness)]
    depth_needed: int


def _bisim_game(search: Search, a0, b0) -> GameWitness | None:
    """Bounded weak-bisimilarity game between the two sides.  Searched by
    iterative deepening on the attack depth, so the first witness found is a
    minimal distinguishing experiment (host-side attacks preferred on ties);
    in particular no attack on the spine can be an idle self-loop."""
    memo: dict = {}
    for d in range(1, search.step_bound + 1):
        w = _distinguish(search, memo, a0, b0, d)
        if w is not None:
            return w
    return None


def _distinguish(search: Search, memo: dict, a, b, d: int) -> GameWitness | None:
    """A game witness of depth at most d separating a from b, or None.  An
    attack separates when every weak response to it loses; the responses
    are read lazily (``weak_moves``), and the attack is given up at the
    first one that survives, so the rest are never built.  The memo is the
    caller's, so it is freed when the game returns."""
    A, B, tau_budget = search.a, search.b, search.tau_budget
    key = (a, b)
    hit = memo.get(key)
    if hit is not None:
        kind, val = hit
        if kind == "sep" and val.depth_needed <= d:
            return val
        if kind == "nosep" and val >= d:
            return None
    if d <= 0:
        return None
    for side, X, x, Y, y in (("host", A, a, B, b), ("guest", B, b, A, a)):
        for event, x2 in _cached_steps(X, x):
            subs = []
            needed = 1
            for y2, evs in weak_moves(Y, y, event.obs_key(), tau_budget):
                na, nb = (x2, y2) if side == "host" else (y2, x2)
                w = _distinguish(search, memo, na, nb, d - 1)
                if w is None:
                    break   # this response survives the attack
                subs.append((evs, w))
                needed = max(needed, w.depth_needed + 1)
            else:
                witness = GameWitness(side, event, x2, y, subs, needed)
                memo[key] = ("sep", witness)
                return witness
    prev = memo.get(key)
    if prev is None or (prev[0] == "nosep" and prev[1] < d):
        memo[key] = ("nosep", d)
    return None


def _witness_spine(w: GameWitness) -> tuple[list[tuple[str, Event, tuple[Event, ...]]], GameWitness]:
    """First-response spine of a game witness, ending at the losing leaf."""
    spine = []
    node = w
    while True:
        if not node.responses:
            spine.append((node.side, node.attacker_event, ()))
            return spine, node
        evs, sub = node.responses[0]
        spine.append((node.side, node.attacker_event, evs))
        node = sub


@intern_scope
def check_weak_bisimulation(
    paired: PairedSystem,
    step_bound: int = 8,
    tau_budget: int | None = None,
) -> Verdict:
    """Check the bowtie relation in both directions; if it fails, search for a
    genuine behavioral distinction to report.  The bowtie relation pairs an
    op-based host with a message-set guest, so a state-based host raises
    ValueError."""
    rel = Relation("bowtie", paired)
    search = Search(rel, step_bound, tau_budget)
    A, B = search.a, search.b   # host, guest
    a0, b0 = A.system.init(), B.system.init()

    clause0 = rel.clause(a0, b0)
    if clause0 is not None:
        failure = ("initial-configurations", clause0)
    else:
        miss = _play_obligations(search, ("a", "b"), a0, b0)
        if isinstance(miss, Verdict):
            return miss
        # the clause against the defender's configuration before it answered
        if miss.side == "a":
            failure = ("host-step-unmatched", rel.clause(miss.attacker_post, miss.defender))
        else:
            failure = ("guest-step-unmatched", rel.clause(miss.defender, miss.attacker_post))

    game = _bisim_game(search, a0, b0)
    if game is None:
        return Verdict(
            COUNTEREXAMPLE,
            search.stats,
            search.bounds,
            witness={"failed_clause": failure[1], "at": failure[0]},
            detail="relation fails at bound; no behavioral distinction found at bound",
        )
    spine, leaf = _witness_spine(game)
    events: dict[str, list[Event]] = {"host": [], "guest": []}
    decode = {"host": A.system.decode, "guest": B.system.decode}
    play = []
    for side, attacker_event, defender_events in spine:
        other = "guest" if side == "host" else "host"
        events[side].append(attacker_event)
        events[other].extend(defender_events)
        play.append(
            {
                "attacker": side,
                "event": render_event(attacker_event, decode[side]),
                "response": [render_event(e, decode[other]) for e in defender_events],
            }
        )
    unmatched = leaf.attacker_event
    evidence = None
    if unmatched.input.kind == "qry":
        X, Y = (A, B) if leaf.side == "host" else (B, A)
        evidence = _evidence(X, unmatched, leaf.attacker_cfg, Y, leaf.defender_cfg,
                             search.tau_budget)
    witness = {
        "host_events": [render_event(e, decode["host"]) for e in events["host"]],
        "guest_events": [render_event(e, decode["guest"]) for e in events["guest"]],
        "play": play,
        "unmatched": {
            "side": leaf.side,
            "label": render_label(unmatched),
            "event": render_event(unmatched, decode[leaf.side]),
        },
        "failed_clause": failure[1],
    }
    if evidence:
        witness["distinguishing_query"] = evidence
    return Verdict(
        COUNTEREXAMPLE,
        search.stats,
        search.bounds,
        witness=witness,
        detail="initial configurations are not weakly bisimilar at bound",
    )


# --- weak traces ------------------------------------------------------------------


@intern_scope
def weak_traces(system, max_len: int, step_bound: int) -> frozenset[tuple]:
    """All observable label sequences of length <= max_len realizable within
    step_bound raw steps.  A negative step_bound or max_len, or a max_len
    above step_bound, raises ValueError.

    Computed over ``breadth_first``, one node per distinct configuration; a
    node is unexpanded only at depth step_bound, where no raw budget can
    remain on any path, so merging equal configurations loses no traces.
    Only each step's observable label and target are kept: node i's entry
    of the adjacency list is one flat tuple (label, target, label, target,
    ...), with no tuple per step.  The suffix set of each (node, budget)
    pair is an int bitset over one index of the traces this call has met
    (``_TraceIndex``): a silent edge adds its target's set with ``|``, and
    prepending a label is done once per (label, set).  Only the initial
    node's set is decoded into traces."""
    if step_bound < 0:
        raise ValueError("weak_traces: negative step bound")
    if max_len < 0:
        raise ValueError("weak_traces: negative max_len")
    if max_len > step_bound:
        raise ValueError("weak_traces: max_len exceeds step_bound")
    labels: dict = {}  # one tuple per observable label, shared by its steps
    adj = []
    for _, steps in breadth_first(system, step_bound, Graph()):
        flat = []
        for _, e, j in steps:
            flat += (labels.setdefault(obs := e.obs_key(), obs), j)
        adj.append(tuple(flat))
    index = _TraceIndex(max_len)
    memo: list[dict[int, int]] = [{} for _ in range(step_bound + 1)]
    return frozenset(index.members(_suffixes(adj, index, memo, 0, step_bound)))


class _TraceIndex:
    """The traces of one ``weak_traces`` call, each numbered once: bit k of
    a trace set stands for ``traces[k]``, and bit 0 for the empty trace,
    which every suffix set holds."""

    def __init__(self, max_len: int):
        self.max_len = max_len
        self.traces: list[tuple] = [()]
        self.bits: dict[tuple, int] = {(): 0}
        self.prepended: dict[tuple, int] = {}

    def prepend(self, obs: tuple, suffixes: int) -> int:
        """The set of obs followed by each member of suffixes shorter than
        max_len, computed once per (obs, suffixes)."""
        key = (obs, suffixes)
        out = self.prepended.get(key)
        if out is None:
            out = 0
            for t in self.members(suffixes):
                if len(t) < self.max_len:
                    t2 = (obs,) + t
                    k = self.bits.setdefault(t2, len(self.traces))
                    if k == len(self.traces):
                        self.traces.append(t2)
                    out |= 1 << k
            self.prepended[key] = out
        return out

    def members(self, trace_set: int) -> list[tuple]:
        """The traces of a trace set, in index order."""
        traces = self.traces[: trace_set.bit_length()]
        return [t for k, t in enumerate(traces) if trace_set >> k & 1]


def _suffixes(adj: list, index: _TraceIndex, memo: list, i: int, budget: int) -> int:
    """The set of observable label sequences of length <= max_len from node
    i within budget raw steps, as a bitset over index; memo[budget] is the
    caller's, keyed by node.  A depth-first walk over (node, budget) with an
    explicit stack, so a large budget does not reach the recursion limit:
    query steps are self-loops, so a walk may stay at one node for the
    whole budget.  A frame is [node, budget, edge iterator, set so far,
    label of the edge being followed]; the iterator reads the node's flat
    adjacency tuple in (label, target) pairs.  Edges are followed in
    adjacency order and each target's set is folded in as it is finished,
    so traces are numbered in the same order as by the recursive
    definition."""
    stack = [[i, budget, _pairs(adj[i] if budget > 0 else ()), 1, None]]
    while stack:
        frame = stack[-1]
        node, left, edges = frame[0], frame[1], frame[2]
        for obs, j in edges:
            sub = memo[left - 1].get(j)
            if sub is None:   # finish j first, then fold it in
                frame[4] = obs
                stack.append([j, left - 1, _pairs(adj[j] if left > 1 else ()), 1, None])
                break
            frame[3] |= sub if obs is None else index.prepend(obs, sub)
        else:
            stack.pop()
            out = memo[left][node] = frame[3]
            if stack:
                parent = stack[-1]
                obs = parent[4]
                parent[3] |= out if obs is None else index.prepend(obs, out)
    return out


def _pairs(flat: tuple):
    """The (label, target) pairs of a flat adjacency tuple, in order."""
    it = iter(flat)
    return zip(it, it)


@intern_scope
def check_trace_equivalence(
    paired: PairedSystem, max_len: int = 3, step_bound: int = 10
) -> Verdict:
    """Weak trace sets of host and guest initial configurations must agree."""
    bounds = {"max_trace_len": max_len, "step_bound": step_bound}
    th = weak_traces(paired.host, max_len, step_bound)
    tg = weak_traces(paired.guest, max_len, step_bound)
    stats = {"host_traces": len(th), "guest_traces": len(tg)}
    if th == tg:
        return Verdict(PASS, stats, bounds)
    diff = sorted(th.symmetric_difference(tg), key=canon_key)
    tr = diff[0]
    side = "host" if tr in th else "guest"
    return Verdict(
        COUNTEREXAMPLE,
        stats,
        bounds,
        witness={"trace": [_render_obs(obs) for obs in tr], "only_in": side},
        detail=f"trace realizable only by the {side}",
    )


# --- convergence and causal sweeps ---------------------------------------------------


@intern_scope
def check_strong_convergence(system, step_bound: int = 8) -> Verdict:
    """On a history-augmented object: replicas with equal history components
    must report equal value components, at every reachable configuration."""
    graph = explore(system, step_bound)
    bounds = {"step_bound": step_bound}
    stats = dict(graph.stats)
    probe = system.query_value(graph.nodes[0], system.roster[0], system.obj.queries[0])
    if not (isinstance(probe, tuple) and len(probe) == 2):
        raise ValueError("strong-convergence sweep requires a history-augmented object")
    checked = 0
    for i, cfg in enumerate(graph.nodes):
        for q in system.obj.queries:
            seen: dict = {}
            for r in system.roster:
                v, h = system.query_value(cfg, r, q)
                checked += 1
                other = seen.get(h)
                if other is not None and other[1] != v:
                    witness = {
                        "events": [render_event(e, system.decode) for e in graph.path(i)],
                        "replicas": [other[0], r],
                        "query": q,
                        "values": [render(other[1]), render(v)],
                        "history": render(h),
                    }
                    stats["checked"] = checked
                    return Verdict(
                        COUNTEREXAMPLE, stats, bounds, witness=witness,
                        detail="replicas with equal histories disagree",
                    )
                seen.setdefault(h, (r, v))
    stats["checked"] = checked
    return Verdict(PASS, stats, bounds)


def _inverts(roster: tuple[ReplicaId, ...], c: Config, e: Event, later: dict) -> bool:
    """Delivery event e, fired at configuration c of a system over roster,
    inverts causal delivery order: e's message happens before a message its
    replica r has already delivered, one of ``c.delivered`` at r's roster
    position.  Those messages and e's come from one configuration, so
    core.happens_before orders them.  That set also holds r's own messages,
    but each one's clock joins those r had consumed, so one of them follows
    e's message only if a message r received does.  later is the caller's
    memo, one entry per message bit as in ``core.downset_bits``: the bits
    of the indexed messages that the message happens before, and the index
    length they cover, extended up to ``c.sent.bit_length()`` when the
    index has grown.  Read against r's delivered set, a subset of c.sent,
    the test is one mask test."""
    m = e.input.message
    v = value_bit(m)
    after, seen = later.get(v, (0, 0))
    top = c.sent.bit_length()
    if seen < top:
        for b in range(seen, top):
            m2 = VALUES[b]
            if isinstance(m2, Message) and happens_before(m, m2):
                after |= 1 << b
        later[v] = (after, top)
    return bool(after & c.delivered[roster.index(e.replica)])


@intern_scope
def check_causal_safety(system, step_bound: int = 8) -> Verdict:
    """Every trace of at most step_bound steps satisfies causal delivery
    order.  A trace first violates it at one delivery step, and whether a
    step does is a fact of that step and its source configuration
    (``_inverts``).  So each step is tested as ``breadth_first`` yields it,
    and the sweep stops at the first violating one, counting what the
    search has found by then.  Steps come in breadth-first order, so its
    witness, the path to the step's source and the step, is a shortest
    violating trace.  ``satisfies_causal_delivery`` in
    ``tests/reference.py``, the full pairwise definition, is the reference
    that tests compare this with."""
    if system.kind != "op":
        raise ValueError("causal safety sweep runs on an op-based system")
    bounds = {"step_bound": step_bound, "discipline": system.discipline}
    graph = Graph()
    later: dict = {}
    edges = 0
    for i, steps in breadth_first(system, step_bound, graph):
        edges += len(steps)
        c = graph.nodes[i]
        for _, e, _ in steps:
            if e.input.kind == "dlvr" and _inverts(system.roster, c, e, later):
                return Verdict(
                    COUNTEREXAMPLE,
                    {"states": len(graph.nodes), "edges": edges},
                    bounds,
                    witness={"events": [render_event(x) for x in graph.path(i) + (e,)]},
                    detail="reachable trace violates causal delivery order",
                )
    return Verdict(PASS, {"states": len(graph.nodes), "edges": edges}, bounds)


@intern_scope
def check_commutation(system, step_bound: int = 8) -> Verdict:
    """Concurrent buffered messages commute at every explored configuration."""
    if system.kind != "op":
        raise ValueError("commutation sweep runs on an op-based system")
    graph = explore(system, step_bound)
    bounds = {"step_bound": step_bound}
    report = check_concurrent_commutation(system.obj, system.roster, graph.nodes)
    stats = dict(graph.stats)
    stats["pairs_checked"] = report.pairs_checked
    if report.ok:
        return Verdict(PASS, stats, bounds)
    r, m1, m2, one, two = report.violations[0]
    return Verdict(
        COUNTEREXAMPLE,
        stats,
        bounds,
        witness={
            "replica": r,
            "messages": [render(m1), render(m2)],
            "results": [render(one), render(two)],
        },
        detail="concurrent effects fail to commute",
    )
