"""Bounded checking of the paired CRDT transition systems.

One breadth-first search, ``breadth_first``, walks a single system's
configurations to a step bound.  ``explore`` drains it into a ``Graph``, and
the causal-safety sweep stops it at the first violating configuration; the
convergence and commutation sweeps and the weak-trace sets read the graph.
Each sweep ends in a pass or a counterexample.

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

import functools
import gc
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .core import (
    Config,
    Event,
    Message,
    QueryId,
    ReplicaId,
    System,
    Trace,
    canon_key,
    canon_set,
    causal_past,
    delivered,
    downset_of,
    happens_before,
    intern_scope,
    query_step,
    render,
    render_event,
    sent,
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
    """Host and guest LTSs sharing a roster and op/query universes."""

    host: System
    guest: System
    direction: str

    def side(self, name: str) -> System:
        return self.host if name == "host" else self.guest


@dataclass
class Verdict:
    outcome: str
    stats: dict
    bounds: dict
    witness: dict | None = None
    raw: Any = None
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


def collector_paused(check):
    """Run check inside the hash-consing scope (``core.intern_scope``), with
    the interpreter's cyclic garbage collector paused, and restore the
    collector's state afterwards.  So when the outermost check returns or
    raises, the intern tables are emptied and hold none of its values.  A
    search allocates millions of short-lived containers and builds no
    reference cycles, so a finished check is freed by reference counting
    alone and the collector's scans of those containers reclaim nothing.
    ``tests/test_checker.py::test_finished_checks_leave_no_cyclic_garbage``
    guards that.  Apply it to plain functions only: on a generator it would
    cover building the generator, not the search."""
    scoped = intern_scope(check)

    @functools.wraps(check)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return scoped(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


# --- exploration ---------------------------------------------------------------


@dataclass
class Graph:
    """Configurations in breadth-first order with their depths, and every
    step taken between them as (from index, event, to index)."""

    nodes: list = field(default_factory=list)
    edges: list[tuple[int, Event, int]] = field(default_factory=list)
    depths: list[int] = field(default_factory=list)

    @property
    def stats(self) -> dict:
        return {
            "states": len(self.nodes),
            "edges": len(self.edges),
            "max_depth": max(self.depths, default=0),
        }


def breadth_first(system, step_bound: int, graph: Graph, prune: bool = True) -> Iterator[int]:
    """The one search over a single system: breadth-first over the
    configurations reachable within step_bound steps, filling graph.  Each
    node's index is yielded as the node is taken, before it is expanded, so
    a caller that stops iterating stops the search.  With pruning,
    configurations are identified by their behavior-determining summary;
    without it the graph is the raw tree.  A node's trace is its path."""
    if step_bound < 0:
        raise ValueError("breadth_first: negative step bound")
    nodes, edges, depths = graph.nodes, graph.edges, graph.depths
    init = system.init()
    nodes.append(init)
    depths.append(0)
    keys = {system.summary(init): 0}
    i = 0
    while i < len(nodes):  # the nodes list is the queue
        yield i
        if depths[i] < step_bound:
            for c2 in system.steps(nodes[i]):
                j = len(nodes)
                if prune:
                    j = keys.setdefault(system.summary(c2), j)
                if j == len(nodes):
                    nodes.append(c2)
                    depths.append(depths[i] + 1)
                edges.append((i, c2.trace.head, j))
        i += 1


@collector_paused
def explore(system, step_bound: int, prune: bool = True) -> Graph:
    """All configurations reachable within step_bound steps, with the steps
    between them."""
    graph = Graph()
    for _ in breadth_first(system, step_bound, graph, prune):
        pass
    return graph


# --- weak successors -------------------------------------------------------------


@dataclass(slots=True)
class Side:
    """One system of a check with the check's three caches for it, all keyed
    by summary: successor lists, silent balls, and the constructive answers
    this side gave as defender (``_answer_memo``).  Each side has its own,
    because the host's and the guest's summaries can compare equal."""

    system: Any
    steps: dict = field(default_factory=dict)
    balls: dict = field(default_factory=dict)
    answers: dict = field(default_factory=dict)


def _cached_steps(side: Side, cfg):
    """Successor list shared between configurations with equal summaries.
    Sound because the summary determines the applicable rules and each
    step's event: configurations with equal summaries take the same events
    to successors with equal summaries
    (``tests/test_checker.py::test_step_events_are_a_function_of_the_summary``).
    Only the representatives' older trace events may differ."""
    key = side.system.summary(cfg)
    hit = side.steps.get(key)
    if hit is None:
        hit = side.system.steps(cfg)
        side.steps[key] = hit
    return hit


def _silent_ball(side: Side, cfg, budget: int) -> list[tuple[Any, tuple[Event, ...]]]:
    """Configurations reachable by at most budget silent steps, including cfg
    itself, in BFS order, deduplicated by summary."""
    system, cache = side.system, side.balls
    ball_key = (system.summary(cfg), budget)
    hit = cache.get(ball_key)
    if hit is not None:
        return hit
    out = [(cfg, ())]
    seen = {system.summary(cfg)}
    frontier = [(cfg, ())]
    for _ in range(budget):
        nxt = []
        for c, evs in frontier:
            for c2 in _cached_steps(side, c):
                if c2.trace.head.obs_key() is not None:
                    continue
                key = system.summary(c2)
                if key in seen:
                    continue
                seen.add(key)
                item = (c2, evs + (c2.trace.head,))
                out.append(item)
                nxt.append(item)
        if not nxt:
            break
        frontier = nxt
    cache[ball_key] = out
    return out


def weak_matches(
    side,
    cfg,
    obs: tuple | None,
    tau_budget: int,
    accept: Callable[[Any], bool],
    first_only: bool = True,
) -> list[tuple[Any, tuple[Event, ...]]]:
    """Weak transitions cfg ==obs==> cfg' with accept(cfg'), where obs is an
    observable label (``Event.obs_key``) or None for tau, and the total
    number of silent steps is bounded by tau_budget.  Tau may be matched by
    zero steps.  side is a check's Side, or a bare system."""
    side = side if isinstance(side, Side) else Side(side)  # one-shot: fresh caches
    results: list[tuple[Any, tuple[Event, ...]]] = []
    seen_landings = set()

    def emit(c2, evs) -> bool:
        key = side.system.summary(c2)
        if key in seen_landings:
            return False
        if accept(c2):
            seen_landings.add(key)
            results.append((c2, evs))
            return first_only
        return False

    ball = _silent_ball(side, cfg, tau_budget)
    if obs is None:
        for c1, evs in ball:
            if emit(c1, evs):
                return results
        return results

    for c1, evs in ball:
        used = len(evs)
        for c2 in _cached_steps(side, c1):
            if c2.trace.head.obs_key() != obs:
                continue
            mid_evs = evs + (c2.trace.head,)
            for c3, evs3 in _silent_ball(side, c2, tau_budget - used):
                if emit(c3, mid_evs + evs3):
                    return results
    return results


@intern_scope
def weak_successors(system, cfg, obs: tuple | None, tau_budget: int) -> list:
    """All weak successors of cfg under the observable label obs
    (``Event.obs_key``; None meaning tau), deduplicated by summary."""
    found = weak_matches(system, cfg, obs, tau_budget, lambda _: True, first_only=False)
    return [c for c, _ in found]


@intern_scope
def attainable_query_values(side, cfg, r: ReplicaId, q: QueryId, tau_budget: int) -> list:
    """Query values weakly reachable at replica r (current value included)."""
    side = side if isinstance(side, Side) else Side(side)  # as in weak_matches
    vals = []
    seen = set()
    for c1, _ in _silent_ball(side, cfg, tau_budget):
        v = side.system.query_value(c1, r, q)
        k = canon_key(v)
        if k not in seen:
            seen.add(k)
            vals.append(v)
    return sorted(vals, key=canon_key)


# --- deliverable / mergeable ------------------------------------------------------


def _deliverable_ordering(
    U: frozenset[Message],
    r: ReplicaId,
    buffer: frozenset,
    sent: frozenset[Message],
    consumed: frozenset[Message],
) -> tuple[Message, ...] | None:
    """A linearization of U deliverable at r: each element buffered for r and
    enabled once the previous prefix has been delivered."""
    for m in U:
        if (r, m) not in buffer:
            return None
    done: list[Message] = []
    have = set(consumed)
    remaining = set(U)
    while remaining:
        pick = None
        for m in sorted(remaining, key=lambda m: m.sort_key()):
            if m in have:
                return None  # would re-deliver
            if all(m2 in have for m2 in sent if happens_before(m2, m)):
                pick = m
                break
        if pick is None:
            return None
        done.append(pick)
        have.add(pick)
        remaining.remove(pick)
    return tuple(done)


def deliverable_check(
    U: Iterable[Message], r: ReplicaId, t: Trace, b: frozenset
) -> tuple[Message, ...] | None:
    """Spec surface over a raw trace and buffer."""
    return _deliverable_ordering(frozenset(U), r, b, sent(t), delivered(r, t))


def mergeable_check(C: Iterable, r: ReplicaId, b: frozenset) -> bool:
    """Every state in C is buffered for r."""
    return all((r, s) in b for s in C)


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
    failing clause reported for diagnostics."""

    def __init__(self, rel_id: str, paired: PairedSystem):
        sort_a, sort_b, direction = _sorts(rel_id)
        if paired.direction != direction:
            raise ValueError(f"relation {rel_id} pairs with direction {direction}")
        self.id = rel_id
        self.paired = paired
        self.a_side = sort_a
        self.b_side = sort_b
        self.roster = paired.host.roster
        self._downsets: dict = {}
        self._unions: dict = {}

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

    def _op_obj(self) -> OpObject:
        sys = self.paired.host if self.paired.direction == OP_TO_ST else self.paired.guest
        return sys.obj  # type: ignore[return-value]

    def _downset(self, m: Message, sent: frozenset[Message]) -> frozenset[Message]:
        key = (m, sent)
        cached = self._downsets.get(key)
        if cached is None:
            cached = canon_set(downset_of(m, sent))
            self._downsets[key] = cached
        return cached

    def _union_sent(self, st_c: Config) -> frozenset[Message]:
        cached = self._unions.get(st_c.sent)
        if cached is None:
            cached = frozenset().union(*st_c.sent) if st_c.sent else frozenset()
            self._unions[st_c.sent] = cached
        return cached

    # R1: op host simulated by message-set guest

    def _r1(self, op_c: Config, st_c: Config) -> str | None:
        if op_c.sent != self._union_sent(st_c):
            return "sent-agreement"
        for r in self.roster:
            if op_c.delivered[r] != st_c.states[r]:
                return "delivered-agreement"
        obj = self._op_obj()
        for r in self.roster:
            if op_c.states[r] != interp(st_c.states[r], obj):
                return "state-agreement"
        for r, m in op_c.buffer:
            if (r, self._downset(m, op_c.sent)) not in st_c.buffer:
                return "buffer-downset"
        return None

    # R2: message-set guest simulated by op host

    def _r2(self, st_c: Config, op_c: Config) -> str | None:
        # Inclusion, not equality: the update matcher makes the op side send
        # first, and only the inclusion is needed for (and preserved by) the
        # delivery argument.
        if not self._union_sent(st_c) <= op_c.sent:
            return "sent-agreement"
        for r in self.roster:
            if st_c.states[r] != op_c.delivered[r]:
                return "delivered-agreement"
        obj = self._op_obj()
        for r in self.roster:
            if interp(st_c.states[r], obj) != op_c.states[r]:
                return "state-agreement"
        for r, s in st_c.buffer:
            if not self._deliverable_merge_exists(s, r, op_c):
                return "buffer-deliverable"
        return None

    def _deliverable_merge_exists(self, H: frozenset, r: ReplicaId, op_c: Config) -> bool:
        """Some deliverable U has Delivered(r) ∪ U = Delivered(r) ∪ H.

        A deliverable set is disjoint from Delivered(r), so the only candidate
        is U = H − Delivered(r).  It has a deliverable ordering iff each member
        is buffered for r and all its causal predecessors are in
        Delivered(r) ∪ U: happens-before is acyclic, so delivering U in any
        causal order then meets every gate."""
        have = op_c.delivered[r]
        closed = have | H
        buffer = op_c.buffer
        sent = op_c.sent
        return all(
            (r, m) in buffer and self._downset(m, sent) <= closed
            for m in H
            if m not in have
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
        for r in self.roster:
            if st_c.states[r] != op_c.states[r]:
                return "state-agreement"
        obj: StObject = self.paired.host.obj  # type: ignore[assignment]
        payloads: dict[ReplicaId, list] = {}
        for r, m in op_c.buffer:
            payloads.setdefault(r, []).append(m.payload)
        for r, s in st_c.buffer:
            target = obj.join(st_c.states[r], s)
            if target == st_c.states[r]:
                continue
            acc = op_c.states[r]
            for p in payloads.get(r, ()):
                if st_leq(obj, p, target):
                    acc = obj.join(acc, p)
                    if acc == target:
                        break
            else:
                return "buffer-mergeable"
        return None

    # Q2: join-guest simulated by state-based host (identity matching)

    def _q2(self, op_c: Config, st_c: Config) -> str | None:
        for r in self.roster:
            if op_c.states[r] != st_c.states[r]:
                return "state-agreement"
        if {(r, m.payload) for r, m in op_c.buffer} != st_c.buffer:
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
        for r, s in st_c.buffer:
            if not self._deliverable_merge_exists(s, r, op_c):
                return "buffer-deliverable-converse"
        return None


def in_relation(paired: PairedSystem, rel_id: str, host_cfg, guest_cfg) -> bool:
    """Spec surface: membership with arguments given as (host, guest)."""
    rel = Relation(rel_id, paired)
    if rel.a_side == "host":
        return rel.holds(host_cfg, guest_cfg)
    return rel.holds(guest_cfg, host_cfg)


# --- constructive matchers ---------------------------------------------------------


def _op_deliver_chain(D, cfg, r: ReplicaId, wanted) -> list | None:
    """Deliver exactly `wanted` at r through enabled OpDeliver steps,
    smallest-first among those currently enabled."""
    chain: list = []
    cur = cfg
    remaining = set(wanted)
    while remaining:
        step = None
        for m in sorted(remaining, key=lambda m: m.sort_key()):
            step = op_mk_deliver(D.obj, cur, r, m, D.discipline)
            if step is not None:
                break
        if step is None:
            return None
        chain.append(step)
        cur = step
        remaining.discard(cur.trace.head.input.message)
    return chain


def constructive_match(rel: Relation, defender, a_cfg, a2_cfg, b_cfg) -> list | None:
    """The canonical defender moves for the attacker step a_cfg -> a2_cfg:
    the weak move of the defender's own LTS that answers the step's event,
    fixed by the defender's semantics (op- or state-based, and its
    broadcast mode) and the emulation direction.  Returns the chain of
    defender configurations, or None when there is no such move.  rel is
    the check's relation, whose downset memo the op-to-st delivery shares."""
    event = a2_cfg.trace.head
    r = event.replica
    D = defender
    kind = event.input.kind

    if kind == "upd":
        op = event.input.op
        if (r, op) in b_cfg.used_ops:
            return None
        if D.kind == "op":
            return [op_mk_update(D.obj, D.roster, b_cfg, r, op)]
        updated = st_mk_update(D.obj, D.roster, b_cfg, r, op, D.mode)
        if D.mode == ATOMIC_BROADCAST:
            return [updated]  # the update broadcasts its state itself
        return [updated, st_mk_send(D.roster, updated, r)]

    if kind == "qry":
        answered = query_step(D.obj, b_cfg, r, event.input.query)
        return [answered] if answered.trace.head.obs_key() == event.obs_key() else None

    if kind != "dlvr":
        # a state-based send is matched by the reflexive step
        return [] if event.output.kind == "send" else None
    # The delivered message on an op-based attacker, the state on a
    # state-based one.
    m = event.input.message
    op_to_st = rel.paired.direction == OP_TO_ST

    if D.kind == "st":
        s = rel._downset(m, a_cfg.sent) if op_to_st else m.payload
        step = st_mk_deliver(D.obj, b_cfg, r, s)
        return None if step is None else [step]

    if op_to_st:
        return _op_deliver_chain(D, b_cfg, r, set(m) - set(b_cfg.delivered[r]))

    # st-to-op: deliver buffered payloads below the joined state until the
    # defender reaches it
    obj: StObject = rel.paired.host.obj  # type: ignore[assignment]
    target = obj.join(a_cfg.states[r], m)
    if target == b_cfg.states[r]:
        return []
    chain: list = []
    cur = b_cfg
    while True:
        step = None
        for r2, m2 in sorted(cur.buffer, key=lambda rm: (rm[0], rm[1].sort_key())):
            if r2 != r or obj.join(target, m2.payload) != target:
                continue
            step = op_mk_deliver(D.obj, cur, r, m2, D.discipline)
            if step is not None:
                break
        if step is None:
            return None
        chain.append(step)
        cur = step
        if cur.states[r] == target:
            return chain


_UNASKED = object()   # a move key absent from an answer memo


def _answer_memo(defender: Side, summary) -> dict | None:
    """The answers that the defender gave from this summary, to be read and
    extended, or None on the summary's first expanded pair, where nothing is
    kept: a summary that defends a single pair never reads its answers, and
    in R1 every summary, in Q2 and the bowtie check almost every one,
    defends a single pair."""
    answers = defender.answers
    if summary not in answers:
        answers[summary] = None
        return None
    memo = answers[summary]
    if memo is None:
        memo = answers[summary] = {}
    return memo


def _move_key(rel: Relation, defender, a_cfg, event):
    """What ``constructive_match`` reads of the attacker step a_cfg --event->
    besides the defender's configuration: the (replica, op) of an update,
    the (replica, query, value) of a query, a state-based send itself, and
    for a delivery the value the defender's move is derived from."""
    if event.input.kind != "dlvr":
        return event.obs_key() or event
    r, m = event.replica, event.input.message
    if rel.paired.direction == OP_TO_ST:
        return ("dlvr", r, rel._downset(m, a_cfg.sent) if defender.kind == "st" else m)
    if defender.kind == "st":
        return ("dlvr", r, m.payload)
    return ("dlvr", r, rel.paired.host.obj.join(a_cfg.states[r], m))


def _answer(rel: Relation, defender, memo: dict | None, a_cfg, a2_cfg, b_cfg):
    """The constructive answer to the attacker step a_cfg -> a2_cfg from
    b_cfg, as (the chain's last configuration, or None for the empty chain;
    the chain's events), or None when there is no such move.  Read from memo
    when b_cfg's summary has answered the same move before: the answer's
    landing summary and events are a function of the defender's summary and
    the move key
    (``tests/test_checker.py::test_memo_answers_equal_fresh_matches``)."""
    if memo is not None:
        key = _move_key(rel, defender, a_cfg, a2_cfg.trace.head)
        hit = memo.get(key, _UNASKED)
        if hit is not _UNASKED:
            return hit
    chain = constructive_match(rel, defender, a_cfg, a2_cfg, b_cfg)
    answer = None if chain is None else (
        chain[-1] if chain else None, tuple(c.trace.head for c in chain))
    if memo is not None:
        memo[key] = answer
    return answer


# --- weak simulation check ----------------------------------------------------------


def _evidence(attacker: Side, a2_cfg, defender: Side, b_cfg, tau_budget: int):
    """Query-level explanation of the unmatched attacker step to a2_cfg: the
    value now observable on the attacker side versus what the defender could
    still offer."""
    event = a2_cfg.trace.head
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


@dataclass
class SimCounterexample:
    a_events: tuple[Event, ...]   # ends with the unmatched step
    b_events: tuple[Event, ...]
    clause: str | None
    evidence: dict | None

    def to_witness(self, a_name: str, b_name: str) -> dict:
        unmatched = self.a_events[-1]
        out = {
            a_name + "_events": [render_event(e) for e in self.a_events],
            b_name + "_events": [render_event(e) for e in self.b_events],
            "unmatched": {
                "side": a_name,
                "label": render_label(unmatched),
                "event": render_event(unmatched),
            },
        }
        if self.clause:
            out["failed_clause"] = self.clause
        if self.evidence:
            out["distinguishing_query"] = self.evidence
        return out


def default_tau_budget(paired: PairedSystem) -> int:
    return 2 * len(paired.host.roster)


class Search:
    """One paired check's search: its fixed inputs, the counters and bounds
    it reports, and the relation's two sides with their caches.  A check
    creates it and drops it on return, so no cache outlives the check."""

    def __init__(self, rel: Relation, step_bound: int, tau_budget: int | None,
                 max_pairs: int, audit: bool = False):
        if tau_budget is None:
            tau_budget = default_tau_budget(rel.paired)
        self.rel = rel
        self.step_bound = step_bound
        self.tau_budget = tau_budget
        self.max_pairs = max_pairs
        self.audit = audit
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
    The defender's constructive answers are kept per defender summary from
    its second expanded pair on (``_answer_memo``), so a summary that
    defends many pairs answers each move once.
    A landing on a visited pair key is accepted without deciding the clause
    again: the key was admitted only after its clause held, and the clause
    reads nothing of a configuration but its summary
    (``tests/test_checker.py::test_clause_is_a_function_of_the_summaries``),
    so each related pair's clause is decided once.  The pair budget is
    checked as each new pair is added, so at most max_pairs + 1 pairs are
    counted."""
    rel, stats, tau_budget = search.rel, search.stats, search.tau_budget
    A, B = search.a, search.b
    key0 = (A.system.summary(a0), B.system.summary(b0))
    # pair key -> (parent key, attacker side, attacker event, defender events)
    parents: dict = {key0: None}
    queue = deque([(a0, b0, 0, key0)])
    stats["pairs"] = 1
    while queue:
        a, b, depth, key = queue.popleft()
        stats["max_depth"] = max(stats["max_depth"], depth)
        if depth >= search.step_bound:
            continue
        for side in attackers:
            X, x, Y, y = (A, a, B, b) if side == "a" else (B, b, A, a)
            memo = _answer_memo(Y, key[1] if side == "a" else key[0])
            for x2 in X.system.steps(x):
                stats["obligations"] += 1
                kx = X.system.summary(x2)
                if side == "a":
                    pair_key = lambda yy: (kx, Y.system.summary(yy))
                    holds = lambda yy: rel.holds(x2, yy)
                else:
                    pair_key = lambda yy: (Y.system.summary(yy), kx)
                    holds = lambda yy: rel.holds(yy, x2)
                # the one acceptance test of the matcher, fallback and audit
                accept = lambda yy: pair_key(yy) in parents or holds(yy)
                landing = None
                cand = y   # where the constructive chain ends
                answer = _answer(rel, Y.system, memo, x, x2, y)
                if answer is not None:
                    end, chain_events = answer
                    if end is not None:
                        cand = end
                    key2 = pair_key(cand)
                    new = key2 not in parents
                    if not new or holds(cand):
                        landing = cand
                        stats["matcher_matched"] += 1
                        if search.audit and not weak_matches(
                            Y, y, x2.trace.head.obs_key(), tau_budget, accept
                        ):
                            stats["matcher_fallback_disagreements"] += 1
                if landing is None:
                    found = weak_matches(Y, y, x2.trace.head.obs_key(), tau_budget, accept)
                    if not found:
                        return _Miss(*_path_events(parents, key), side, x2, cand, y)
                    landing, chain_events = found[0]
                    key2 = pair_key(landing)
                    new = key2 not in parents
                    stats["fallback_matched"] += 1
                if new:
                    parents[key2] = (key, side, x2.trace.head, chain_events)
                    stats["pairs"] += 1
                    a2, b2 = (x2, landing) if side == "a" else (landing, x2)
                    queue.append((a2, b2, depth + 1, key2))
                    if stats["pairs"] > search.max_pairs:
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


@collector_paused
def check_weak_simulation(
    paired: PairedSystem,
    rel_id: str | None = None,
    which: str = HOST_BY_GUEST,
    step_bound: int = 8,
    tau_budget: int | None = None,
    max_pairs: int = 2_000_000,
    audit_matchers: bool = False,
) -> Verdict:
    """Check that the candidate relation is a weak simulation on all related
    pairs co-reachable within step_bound attacker steps."""
    rel = Relation(sim_relation(paired.direction, which, rel_id), paired)
    a_name, b_name = rel.a_side, rel.b_side
    search = Search(rel, step_bound, tau_budget, max_pairs, audit_matchers)
    search.stats["matcher_fallback_disagreements"] = 0
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
    a2 = miss.attacker_post
    cex = SimCounterexample(
        a_events=miss.a_events + (a2.trace.head,),
        b_events=miss.b_events,
        clause=rel.clause(a2, miss.landing),
        evidence=_evidence(search.a, a2, search.b, miss.defender, search.tau_budget),
    )
    return Verdict(
        COUNTEREXAMPLE,
        search.stats,
        search.bounds,
        witness=cex.to_witness(a_name, b_name),
        raw=cex,
        detail=f"unmatched {a_name} step",
    )


# --- weak bisimulation ---------------------------------------------------------------


@dataclass
class GameWitness:
    side: str                      # which system attacked: "host" | "guest"
    attacker_cfg: Any              # after the attack, its trace.head
    defender_cfg: Any
    responses: list                # [(events, sub GameWitness)]
    evidence: dict | None
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
    """A game witness of depth at most d separating a from b, or None.  The
    memo is the caller's, so it is freed when the game returns."""
    A, B, tau_budget = search.a, search.b, search.tau_budget
    key = (A.system.summary(a), B.system.summary(b))
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
        for x2 in _cached_steps(X, x):
            responses = weak_matches(
                Y, y, x2.trace.head.obs_key(), tau_budget, lambda _: True, first_only=False
            )
            subs = []
            survived = False
            needed = 1
            for y2, evs in responses:
                na, nb = (x2, y2) if side == "host" else (y2, x2)
                w = _distinguish(search, memo, na, nb, d - 1)
                if w is None:
                    survived = True
                    break
                subs.append((evs, w))
                needed = max(needed, w.depth_needed + 1)
            if survived:
                continue
            evidence = None
            if x2.trace.head.input.kind == "qry" and not responses:
                evidence = _evidence(X, x2, Y, y, tau_budget)
            witness = GameWitness(side, x2, y, subs, evidence, needed)
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
            spine.append((node.side, node.attacker_cfg.trace.head, ()))
            return spine, node
        evs, sub = node.responses[0]
        spine.append((node.side, node.attacker_cfg.trace.head, evs))
        node = sub


@collector_paused
def check_weak_bisimulation(
    paired: PairedSystem,
    step_bound: int = 8,
    tau_budget: int | None = None,
    max_pairs: int = 2_000_000,
) -> Verdict:
    """Check the bowtie relation in both directions; if it fails, search for a
    genuine behavioral distinction to report."""
    if paired.direction != OP_TO_ST:
        raise ValueError("bisimulation check pairs an op host with a message-set guest")
    rel = Relation("bowtie", paired)
    search = Search(rel, step_bound, tau_budget, max_pairs)
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
    host_events: list[Event] = []
    guest_events: list[Event] = []
    play = []
    for side, attacker_event, defender_events in spine:
        (host_events if side == "host" else guest_events).append(attacker_event)
        (guest_events if side == "host" else host_events).extend(defender_events)
        play.append(
            {
                "attacker": side,
                "event": render_event(attacker_event),
                "response": [render_event(e) for e in defender_events],
            }
        )
    unmatched = leaf.attacker_cfg.trace.head
    evidence = leaf.evidence
    if evidence is None and unmatched.input.kind == "qry":
        X = A if leaf.side == "host" else B
        Y = B if leaf.side == "host" else A
        evidence = _evidence(X, leaf.attacker_cfg, Y, leaf.defender_cfg, search.tau_budget)
    witness = {
        "host_events": [render_event(e) for e in host_events],
        "guest_events": [render_event(e) for e in guest_events],
        "play": play,
        "unmatched": {
            "side": leaf.side,
            "label": render_label(unmatched),
            "event": render_event(unmatched),
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
        raw=game,
        detail="initial configurations are not weakly bisimilar at bound",
    )


# --- weak traces ------------------------------------------------------------------


def weak_traces(system, max_len: int, step_bound: int) -> frozenset[tuple]:
    """All observable label sequences of length <= max_len realizable within
    step_bound raw steps.

    Computed over the summary-quotient graph with memoized suffix sets; a node
    is unexpanded only at graph depth step_bound, where no raw budget can
    remain on any path, so the quotient loses no traces."""
    if max_len > step_bound:
        raise ValueError("weak_traces: max_len exceeds step_bound")
    graph = explore(system, step_bound)
    adj: dict[int, list] = {}
    for i, e, j in graph.edges:
        adj.setdefault(i, []).append((e.obs_key(), j))
    return _suffixes(adj, max_len, {}, 0, step_bound)


def _suffixes(adj: dict, max_len: int, memo: dict, i: int, budget: int) -> frozenset:
    """Observable label sequences of length <= max_len from node i within
    budget raw steps; memo is the caller's, keyed by (node, budget)."""
    key = (i, budget)
    hit = memo.get(key)
    if hit is not None:
        return hit
    out = {()}
    if budget > 0:
        for obs, j in adj.get(i, ()):
            sub = _suffixes(adj, max_len, memo, j, budget - 1)
            if obs is None:
                out |= sub
            elif max_len > 0:
                out.add((obs,))
                for t in sub:
                    if len(t) < max_len:
                        out.add((obs,) + t)
    result = frozenset(out)
    memo[key] = result
    return result


@collector_paused
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
        raw=(tr, side),
        detail=f"trace realizable only by the {side}",
    )


# --- convergence and causal sweeps ---------------------------------------------------


@collector_paused
def check_strong_convergence(system, step_bound: int = 8, prune: bool = True) -> Verdict:
    """On a history-augmented object: replicas with equal history components
    must report equal value components, at every reachable configuration."""
    graph = explore(system, step_bound, prune=prune)
    bounds = {"step_bound": step_bound}
    stats = dict(graph.stats)
    probe = system.query_value(graph.nodes[0], system.roster[0], system.obj.queries[0])
    if not (isinstance(probe, tuple) and len(probe) == 2):
        raise ValueError("strong-convergence sweep requires a history-augmented object")
    checked = 0
    for cfg in graph.nodes:
        for q in system.obj.queries:
            seen: dict = {}
            for r in system.roster:
                v, h = system.query_value(cfg, r, q)
                checked += 1
                other = seen.get(h)
                if other is not None and other[1] != v:
                    witness = {
                        "events": [render_event(e) for e in cfg.trace.events()],
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


def _newest_delivery_inverts(t: Trace) -> bool:
    """The newest event of t delivers at some replica r a causal predecessor
    of a message r delivered earlier in t.  For a t whose prefix satisfies
    causal delivery order, this holds iff t violates it; the full pairwise
    definition, core.satisfies_causal_delivery, is the reference that tests
    compare this with.  The messages of one trace come from one execution,
    so they are ordered by the origin component (core.causal_past)."""
    e = t.head
    if e is None or e.input.kind != "dlvr":
        return False
    r, m = e.replica, e.input.message
    origin, seq = m.id.origin, m.id.seq
    node = t.tail
    while node.head is not None:
        e2 = node.head
        if e2.replica == r and e2.input.kind == "dlvr":
            if causal_past(e2.input.message).get(origin, 0) >= seq:
                return True
        node = node.tail
    return False


@collector_paused
def check_causal_safety(system, step_bound: int = 8, prune: bool = True) -> Verdict:
    """Every reachable trace satisfies causal delivery order.  The sweep
    stops at the first violating configuration.  Each node is taken before
    it is expanded, so every node's trace extends a trace already found
    safe, and checking its newest event decides the whole trace."""
    if system.kind != "op":
        raise ValueError("causal safety sweep runs on an op-based system")
    bounds = {"step_bound": step_bound, "discipline": system.discipline}
    graph = Graph()
    for i in breadth_first(system, step_bound, graph, prune):
        cfg = graph.nodes[i]
        if _newest_delivery_inverts(cfg.trace):
            # the configurations taken so far and the steps of those expanded
            return Verdict(
                COUNTEREXAMPLE,
                {"states": i + 1, "edges": len(graph.edges)},
                bounds,
                witness={"events": [render_event(e) for e in cfg.trace.events()]},
                raw=cfg,
                detail="reachable trace violates causal delivery order",
            )
    return Verdict(PASS, {"states": len(graph.nodes), "edges": len(graph.edges)}, bounds)


@collector_paused
def check_commutation(system, step_bound: int = 8, prune: bool = True) -> Verdict:
    """Concurrent buffered messages commute at every explored configuration."""
    if system.kind != "op":
        raise ValueError("commutation sweep runs on an op-based system")
    graph = explore(system, step_bound, prune=prune)
    bounds = {"step_bound": step_bound}
    report = check_concurrent_commutation(system.obj, graph.nodes)
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


# --- witness replay -------------------------------------------------------------------


@intern_scope
def replay_simulation_counterexample(
    paired: PairedSystem, rel_id: str, cex: SimCounterexample, tau_budget: int
) -> bool:
    """Re-execute a counterexample's paths from the initial configurations and
    confirm the reported obligation still fails."""
    rel = Relation(rel_id, paired)
    A = paired.side(rel.a_side)
    B = paired.side(rel.b_side)
    a = A.replay(cex.a_events[:-1])
    b = B.replay(cex.b_events)
    if rel.clause(a, b) is not None:
        return False
    steps = [c for c in A.steps(a) if c.trace.head == cex.a_events[-1]]
    if len(steps) != 1:
        return False
    (a2,) = steps
    obs = a2.trace.head.obs_key()
    found = weak_matches(B, b, obs, tau_budget, lambda bb: rel.holds(a2, bb))
    return not found
