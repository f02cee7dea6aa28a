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
Constructive matchers (the moves the relations were designed around) are
tried first; a bounded search over weak successors is the fallback.  All
verdicts are evidence at the stated bounds, not unbounded guarantees.
"""

from __future__ import annotations

import functools
import gc
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .core import (
    Event,
    Label,
    Message,
    QueryId,
    ReplicaId,
    Trace,
    canon_key,
    causal_past,
    downset_of,
    happens_before,
    render,
    render_event,
)
from .emulation import interp
from .objects import OpObject, StObject, check_concurrent_commutation, st_leq
from .opsem import OpConfig, OpSystem, op_mk_deliver, op_mk_query, op_mk_update
from .stsem import (
    ATOMIC_BROADCAST,
    StConfig,
    StSystem,
    st_mk_deliver,
    st_mk_query,
    st_mk_send,
    st_mk_update,
)

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

    host: OpSystem | StSystem
    guest: OpSystem | StSystem
    direction: str

    def side(self, name: str) -> OpSystem | StSystem:
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


def render_label(l: Label) -> dict:
    out: dict[str, Any] = {"kind": l.kind}
    if l.replica is not None:
        out["replica"] = l.replica
    if l.op is not None:
        out["op"] = list(l.op)
    if l.query is not None:
        out["query"] = l.query
    if l.kind == "query":
        out["value"] = render(l.value)
    if l.silent is not None:
        out["silent"] = l.silent
    return out


def collector_paused(check):
    """Run check with the interpreter's cyclic garbage collector paused, and
    restore its state afterwards.  A search allocates millions of short-lived
    containers and builds no reference cycles, so a finished check is freed
    by reference counting alone and the collector's scans of those containers
    reclaim nothing.  ``tests/test_checker.py::
    test_finished_checks_leave_no_cyclic_garbage`` guards that.  Apply it to
    plain functions only: on a generator it would cover building the
    generator, not the search."""

    @functools.wraps(check)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return check(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


# --- exploration ---------------------------------------------------------------


@dataclass
class Graph:
    """Configurations in breadth-first order with their depths, and every
    step taken between them as (from index, label, to index)."""

    nodes: list = field(default_factory=list)
    edges: list[tuple[int, Label, int]] = field(default_factory=list)
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
            for label, c2 in system.steps(nodes[i]):
                j = len(nodes)
                if prune:
                    j = keys.setdefault(system.summary(c2), j)
                if j == len(nodes):
                    nodes.append(c2)
                    depths.append(depths[i] + 1)
                edges.append((i, label, j))
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
    """One system of a check with the check's two caches for it, both keyed
    by summary: successor lists and silent balls.  Each side has its own,
    because the host's and the guest's summaries can compare equal."""

    system: Any
    steps: dict = field(default_factory=dict)
    balls: dict = field(default_factory=dict)


def _cached_steps(side: Side, cfg):
    """Successor list shared between configurations with equal summaries.
    Sound because the summary determines the applicable rules (a tested
    lemma); the representatives' traces may differ, which only shows in
    bookkeeping fields of reported events."""
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
            for label, c2 in _cached_steps(side, c):
                if not label.is_silent:
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
    label: Label,
    tau_budget: int,
    accept: Callable[[Any], bool],
    first_only: bool = True,
) -> list[tuple[Any, tuple[Event, ...]]]:
    """Weak transitions cfg ==label==> cfg' with accept(cfg'), where the total
    number of silent steps is bounded by tau_budget.  Silent labels may be
    matched by zero steps.  side is a check's Side, or a bare system."""
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
    if label.is_silent:
        for c1, evs in ball:
            if emit(c1, evs):
                return results
        return results

    want = label.obs_key()
    for c1, evs in ball:
        used = len(evs)
        for l2, c2 in _cached_steps(side, c1):
            if l2.obs_key() != want:
                continue
            mid_evs = evs + (c2.trace.head,)
            for c3, evs3 in _silent_ball(side, c2, tau_budget - used):
                if emit(c3, mid_evs + evs3):
                    return results
    return results


def weak_successors(system, cfg, label: Label | None, tau_budget: int) -> list:
    """All weak successors of cfg under the given label (None or a silent
    label meaning tau), deduplicated by summary."""
    lab = label if label is not None else Label.tau("dlvr", "")
    found = weak_matches(system, cfg, lab, tau_budget, lambda _: True, first_only=False)
    return [c for c, _ in found]


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
    from .core import delivered, sent

    return _deliverable_ordering(frozenset(U), r, b, sent(t), delivered(r, t))


def mergeable_check(C: Iterable, r: ReplicaId, b: frozenset) -> bool:
    """Every state in C is buffered for r (compared by payload value)."""
    at_r = {canon_key(m.payload) for r2, m in b if r2 == r}
    return all(canon_key(s) in at_r for s in C)


# --- relations --------------------------------------------------------------------


class Relation:
    """Membership test for one of the candidate relations, with the first
    failing clause reported for diagnostics."""

    def __init__(self, rel_id: str, paired: PairedSystem):
        sort_a, sort_b, direction = RELATION_SORTS[rel_id]
        if paired.direction != direction:
            raise ValueError(f"relation {rel_id} pairs with direction {direction}")
        self.id = rel_id
        self.paired = paired
        self.a_side = sort_a
        self.b_side = sort_b
        self.roster = paired.host.roster
        self._downsets: dict = {}
        self._unions: dict = {}

    def clause(self, a, b) -> str | None:
        if self.id == "R1":
            return self._r1(a, b)
        if self.id == "R2":
            return self._r2(a, b)
        if self.id == "Q1":
            return self._q1(a, b)
        if self.id == "Q2":
            return self._q2(a, b)
        return self._bowtie(a, b)

    def holds(self, a, b) -> bool:
        return self.clause(a, b) is None

    # helpers

    def _op_obj(self) -> OpObject:
        sys = self.paired.host if self.paired.direction == OP_TO_ST else self.paired.guest
        return sys.obj  # type: ignore[return-value]

    def _downset(self, m: Message, sent: frozenset[Message]) -> frozenset[Message]:
        key = (m, sent)
        cached = self._downsets.get(key)
        if cached is None:
            cached = downset_of(m, sent)
            self._downsets[key] = cached
        return cached

    def _union_sent(self, st_c: StConfig) -> frozenset[Message]:
        cached = self._unions.get(st_c.sent_values)
        if cached is None:
            cached = frozenset().union(*st_c.sent_values) if st_c.sent_values else frozenset()
            self._unions[st_c.sent_values] = cached
        return cached

    # R1: op host simulated by message-set guest

    def _r1(self, op_c: OpConfig, st_c: StConfig) -> str | None:
        if op_c.sent != self._union_sent(st_c):
            return "sent-agreement"
        for r in self.roster:
            if op_c.delivered[r] != st_c.states[r]:
                return "delivered-agreement"
        obj = self._op_obj()
        for r in self.roster:
            if op_c.states[r] != interp(st_c.states[r], obj):
                return "state-agreement"
        buffered: dict[ReplicaId, set] = {}
        for r, m in st_c.buffer:
            buffered.setdefault(r, set()).add(m.payload)
        for r, m in op_c.buffer:
            ds = self._downset(m, op_c.sent)
            if ds not in buffered.get(r, ()):
                return "buffer-downset"
        return None

    # R2: message-set guest simulated by op host

    def _r2(self, st_c: StConfig, op_c: OpConfig) -> str | None:
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
        for r, m in st_c.buffer:
            if not self._deliverable_merge_exists(m.payload, r, op_c):
                return "buffer-deliverable"
        return None

    def _deliverable_merge_exists(self, H: frozenset, r: ReplicaId, op_c: OpConfig) -> bool:
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

    def _q1(self, st_c: StConfig, op_c: OpConfig) -> str | None:
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
        for r, m in st_c.buffer:
            target = obj.join(st_c.states[r], m.payload)
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

    def _q2(self, op_c: OpConfig, st_c: StConfig) -> str | None:
        for r in self.roster:
            if op_c.states[r] != st_c.states[r]:
                return "state-agreement"
        op_vals = frozenset((r, canon_key(m.payload)) for r, m in op_c.buffer)
        st_vals = frozenset((r, canon_key(m.payload)) for r, m in st_c.buffer)
        if op_vals != st_vals:
            return "buffer-agreement"
        return None

    # bowtie: R1 with the buffer clause made two-way.  The forward direction
    # keeps the exact pending-downset form; the converse asks that delivering
    # any pending state is matchable, which tolerates stale entries whose
    # content was already delivered out of order.

    def _bowtie(self, op_c: OpConfig, st_c: StConfig) -> str | None:
        bad = self._r1(op_c, st_c)
        if bad is not None:
            return bad
        for r, m in st_c.buffer:
            if not self._deliverable_merge_exists(m.payload, r, op_c):
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
        cur = step[1]
        remaining.discard(cur.trace.head.input.message)
    return chain


def _st_deliver_of_payload(D, cfg, r: ReplicaId, payload) -> list | None:
    for r2, m in sorted(cfg.buffer, key=lambda rm: (rm[0], rm[1].sort_key())):
        if r2 == r and m.payload == payload:
            step = st_mk_deliver(D.obj, cfg, r, m)
            return [step] if step is not None else None
    return None


def constructive_match(
    recipe: str,
    paired: PairedSystem,
    defender_system,
    a_cfg,
    label: Label,
    a2_cfg,
    b_cfg,
) -> list | None:
    """The canonical defender moves for each attacker step under the named
    relation's recipe; returns the chain of defender steps or None when the
    recipe does not apply.  Guest steps of the bowtie use the R2 recipe."""
    event = a2_cfg.trace.head
    r = label.replica
    D = defender_system

    if label.kind == "update":
        if not D.repeat_ops and (r, label.op) in b_cfg.used_ops:
            return None
        if recipe in ("R2", "Q1"):
            return [op_mk_update(D.obj, D.roster, b_cfg, r, label.op)]
        if recipe == "bowtie" and D.mode == ATOMIC_BROADCAST:
            return [st_mk_update(D.obj, D.roster, b_cfg, r, label.op, D.mode)]
        # R1/Q2 (and bowtie in separate mode): update then send
        step1 = st_mk_update(D.obj, D.roster, b_cfg, r, label.op, D.mode)
        step2 = st_mk_send(D.roster, step1[1], r)
        return [step1, step2]

    if label.kind == "query":
        if D.kind == "op":
            step = op_mk_query(D.obj, b_cfg, r, label.query)
        else:
            step = st_mk_query(D.obj, b_cfg, r, label.query)
        return [step] if step[0].obs_key() == label.obs_key() else None

    # silent attacker steps
    if event.output.kind == "send" and event.input.kind == "none":
        # StSend matched by the reflexive step (R2/Q1)
        return []

    if event.input.kind != "dlvr":
        return None
    m = event.input.message

    if recipe in ("R1", "bowtie"):
        return _st_deliver_of_payload(D, b_cfg, r, downset_of(m, a_cfg.sent))

    if recipe == "R2":
        return _op_deliver_chain(D, b_cfg, r, set(m.payload) - set(b_cfg.delivered[r]))

    if recipe == "Q1":
        obj: StObject = paired.host.obj  # type: ignore[assignment]
        target = obj.join(a_cfg.states[r], m.payload)
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
            cur = step[1]
            if cur.states[r] == target:
                return chain

    if recipe == "Q2":
        return _st_deliver_of_payload(D, b_cfg, r, m.payload)

    return None


# --- weak simulation check ----------------------------------------------------------


def _evidence(attacker: Side, a2_cfg, defender: Side, b_cfg, label: Label, tau_budget: int):
    """Query-level explanation of an unmatched step: the value now observable
    on the attacker side versus what the defender could still offer."""
    r = label.replica
    if r is None:
        return None
    queries = (label.query,) if label.kind == "query" else attacker.system.obj.queries
    for q in queries:
        if q is None:
            continue
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
    a_events: tuple[Event, ...]
    b_events: tuple[Event, ...]
    unmatched_label: Label
    unmatched_event: Event | None
    clause: str | None
    evidence: dict | None

    def to_witness(self, a_name: str, b_name: str) -> dict:
        out = {
            a_name + "_events": [render_event(e) for e in self.a_events],
            b_name + "_events": [render_event(e) for e in self.b_events],
            "unmatched": {
                "side": a_name,
                "label": render_label(self.unmatched_label),
                "event": render_event(self.unmatched_event)
                if self.unmatched_event
                else None,
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
    label: Label
    attacker_post: Any
    landing: Any                  # where the constructive chain ends
    defender: Any                 # the defender's configuration it started from


def _play_obligations(
    search: Search, obligations: tuple[tuple[str, str], ...], a0, b0
) -> Verdict | _Miss:
    """Breadth-first matching game over related pairs (a, b), a on the
    relation's first side, from the related initial pair (a0, b0).  Each
    obligation (attacker side, recipe) asks that every single step of that
    side's configuration be answered by a weak step of the other side that
    lands back in the relation: the recipe's constructive chain first, the
    bounded weak-successor search as fallback.  Returns the PASS or
    BOUND_EXHAUSTED verdict, or the first obligation no move discharges.
    The pair budget is checked as each new pair is added, so at most
    max_pairs + 1 pairs are counted."""
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
        for side, recipe in obligations:
            X, x, Y, y = (A, a, B, b) if side == "a" else (B, b, A, a)
            for label, x2 in X.system.steps(x):
                stats["obligations"] += 1
                accept = (
                    (lambda yy: rel.holds(x2, yy)) if side == "a"
                    else (lambda yy: rel.holds(yy, x2))
                )
                landing = None
                chain = constructive_match(recipe, rel.paired, Y.system, x, label, x2, y)
                if chain is not None:
                    cand = chain[-1][1] if chain else y
                    if accept(cand):
                        landing = cand
                        chain_events = tuple(c.trace.head for _, c in chain)
                        stats["matcher_matched"] += 1
                        if search.audit and not weak_matches(Y, y, label, tau_budget, accept):
                            stats["matcher_fallback_disagreements"] += 1
                if landing is None:
                    found = weak_matches(Y, y, label, tau_budget, accept)
                    if not found:
                        near = chain[-1][1] if chain else y
                        return _Miss(*_path_events(parents, key), side, label, x2, near, y)
                    landing, chain_events = found[0]
                    stats["fallback_matched"] += 1
                a2, b2 = (x2, landing) if side == "a" else (landing, x2)
                key2 = (A.system.summary(a2), B.system.summary(b2))
                if key2 not in parents:
                    parents[key2] = (key, side, x2.trace.head, chain_events)
                    stats["pairs"] += 1
                    queue.append((a2, b2, depth + 1, key2))
                    if stats["pairs"] > search.max_pairs:
                        return Verdict(
                            BOUND_EXHAUSTED, stats, search.bounds, detail="pair budget exceeded"
                        )
    total = stats["matcher_matched"] + stats["fallback_matched"]
    stats["matcher_fraction"] = stats["matcher_matched"] / total if total else 1.0
    return Verdict(PASS, stats, search.bounds)


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
    if which not in (HOST_BY_GUEST, GUEST_BY_HOST):
        raise ValueError(f"unknown direction {which!r}")
    if rel_id is None:
        if which == HOST_BY_GUEST:
            rel_id = "R1" if paired.direction == OP_TO_ST else "Q1"
        else:
            rel_id = "R2" if paired.direction == OP_TO_ST else "Q2"
    rel = Relation(rel_id, paired)
    a_name = rel.a_side
    b_name = rel.b_side
    expect_a = "host" if which == HOST_BY_GUEST else "guest"
    if a_name != expect_a:
        raise ValueError(f"relation {rel_id} checks the {a_name}-by-{b_name} direction")
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
    miss = _play_obligations(search, (("a", rel_id),), a0, b0)
    if isinstance(miss, Verdict):
        return miss
    a2 = miss.attacker_post
    cex = SimCounterexample(
        a_events=miss.a_events + (a2.trace.head,),
        b_events=miss.b_events,
        unmatched_label=miss.label,
        unmatched_event=a2.trace.head,
        clause=rel.clause(a2, miss.landing),
        evidence=_evidence(search.a, a2, search.b, miss.defender, miss.label, search.tau_budget),
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
    label: Label
    attacker_event: Event
    attacker_cfg: Any
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
        for label, x2 in _cached_steps(X, x):
            responses = weak_matches(
                Y, y, label, tau_budget, lambda _: True, first_only=False
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
            if label.kind == "query" and not responses:
                evidence = _evidence(X, x2, Y, y, label, tau_budget)
            witness = GameWitness(
                side, label, x2.trace.head, x2, y, subs, evidence, needed
            )
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
        miss = _play_obligations(search, (("a", "bowtie"), ("b", "R2")), a0, b0)
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
    evidence = leaf.evidence
    if evidence is None and leaf.label.kind == "query":
        X = A if leaf.side == "host" else B
        Y = B if leaf.side == "host" else A
        evidence = _evidence(
            X, leaf.attacker_cfg, Y, leaf.defender_cfg, leaf.label, search.tau_budget
        )
    witness = {
        "host_events": [render_event(e) for e in host_events],
        "guest_events": [render_event(e) for e in guest_events],
        "play": play,
        "unmatched": {
            "side": leaf.side,
            "label": render_label(leaf.label),
            "event": render_event(leaf.attacker_event),
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
    for i, label, j in graph.edges:
        adj.setdefault(i, []).append((label.obs_key(), j))
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


def _render_trace(tr: tuple) -> list:
    out = []
    for obs in tr:
        if obs[0] == "update":
            out.append({"kind": "update", "replica": obs[1], "op": list(obs[2])})
        else:
            out.append(
                {"kind": "query", "replica": obs[1], "query": obs[2], "value": render(obs[3])}
            )
    return out


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
        witness={"trace": _render_trace(tr), "only_in": side},
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
    steps = [(l, c) for l, c in A.steps(a) if c.trace.head == cex.a_events[-1]]
    if len(steps) != 1:
        return False
    label, a2 = steps[0]
    found = weak_matches(B, b, label, tau_budget, lambda bb: rel.holds(a2, bb))
    return not found
