"""Reference definitions that tests hold the package against.

The paper defines causal delivery, downsets and deliverability on traces,
and the message-set interpretation over linear extensions of the causal
order.  The checker decides each of these from configuration fields and
closed forms instead (``Config.sent``/``delivered``, ``checker._inverts``,
``Relation._deliverable_merge_exists``, ``emulation.interp``), so the
definitions live here, as oracles that share no rule with it: messages are
ordered by ``conftest.clock_before``, the pointwise order on their clocks,
not by the origin-component rule of ``core.happens_before``.

``by_replica`` reads a configuration's per-replica tuples as maps keyed by
replica id.

``reference_steps`` builds a configuration's step list through the rule
functions, but without the check scope's delivery-order and query tables.

``parse_events`` rebuilds events from their rendered JSON form, so a
witness replays from what a report shows.

``clock_tick`` and ``clock_join`` build the clock that ``core.mint`` gives
a message by ticking and joining plain entry maps.

A trace is a sequence of events, oldest first.
"""

from __future__ import annotations

import random
from typing import Any, Iterator, NamedTuple, Sequence

from crdt_emu.checker import PairedSystem, Relation, Side, weak_matches
from crdt_emu.client import SKIP, Asn, Bin, Expr, Lit, Prog, Qry, Seq, Upd, Var, While
from crdt_emu.core import (
    IN_DLVR,
    IN_QRY,
    IN_UPD,
    OUT_RET,
    OUT_SEND,
    Config,
    Event,
    Input,
    Message,
    Op,
    Output,
    QueryId,
    ReplicaId,
    Step,
    VectorClock,
    canon_key,
    intern_scope,
)
from crdt_emu.emulation import interp
from crdt_emu.objects import OpObject
from crdt_emu.opsem import op_mk_deliver, op_mk_update
from crdt_emu.stsem import SEPARATE_SEND, st_mk_deliver, st_mk_send, st_mk_update
from conftest import clock_before


def before(m1: Message, m2: Message) -> bool:
    """m1 causally precedes m2, read off their clocks pointwise."""
    return clock_before(m1.clock, m2.clock)


def clock_tick(clock: VectorClock, r: ReplicaId) -> VectorClock:
    """clock with r's entry one higher."""
    entries = dict(clock.entries)
    entries[r] = entries.get(r, 0) + 1
    return VectorClock.of(entries)


def clock_join(c1: VectorClock, c2: VectorClock) -> VectorClock:
    """The pointwise maximum of two clocks."""
    entries = dict(c1.entries)
    for r, n in c2.entries:
        entries[r] = max(n, entries.get(r, 0))
    return VectorClock.of(entries)


class ByReplica(NamedTuple):
    """A configuration's per-replica fields, keyed by replica id."""

    states: dict
    delivered: dict


def by_replica(system, c: Config) -> ByReplica:
    """c's ``states`` and ``delivered`` tuples as maps from each replica id
    of system's roster to the entry at its position."""
    return ByReplica(dict(zip(system.roster, c.states)), dict(zip(system.roster, c.delivered)))


# --- trace-level causal machinery -------------------------------------------


def sent(t: Sequence[Event]) -> frozenset[Message]:
    """All messages carried by a send output anywhere in the trace."""
    out = set()
    for e in t:
        if e.output.kind == OUT_SEND:
            out.add(e.output.message)
    return frozenset(out)


def delivered(r: ReplicaId, t: Sequence[Event]) -> frozenset[Message]:
    """Messages r consumed: dlvr events plus messages r generated and
    self-applied during upd events."""
    out = set()
    for e in t:
        if e.replica != r:
            continue
        if e.input.kind == IN_DLVR:
            out.add(e.input.message)
        elif e.input.kind == IN_UPD and e.output.kind == OUT_SEND:
            out.add(e.output.message)
    return frozenset(out)


def downset(m: Message, t: Sequence[Event]) -> frozenset[Message]:
    """m together with its causal predecessors among the sent messages."""
    s = sent(t)
    if m not in s:
        raise ValueError(f"downset: message {m.sort_key()} was never sent in this trace")
    return frozenset(m2 for m2 in s if before(m2, m)) | {m}


def enabled(r: ReplicaId, m: Message, t: Sequence[Event]) -> bool:
    """Deliverability of m at r: not yet delivered there, and every causal
    predecessor already consumed by r (delivered or self-generated)."""
    dlvrd = set()
    for e in t:
        if e.replica == r and e.input.kind == IN_DLVR:
            dlvrd.add(e.input.message)
    if m in dlvrd:
        return False
    consumed = delivered(r, t)
    for m2 in sent(t):
        if before(m2, m) and m2 not in consumed:
            return False
    return True


def satisfies_causal_delivery(t: Sequence[Event]) -> bool:
    """No replica's dlvr events invert the causal order (brute force over
    all pairs of dlvr events per replica)."""
    per_replica: dict[ReplicaId, list[Message]] = {}
    for e in t:
        if e.input.kind == IN_DLVR:
            per_replica.setdefault(e.replica, []).append(e.input.message)
    for msgs in per_replica.values():
        for i, mi in enumerate(msgs):
            for mj in msgs[i + 1 :]:
                if before(mj, mi):
                    return False
    return True


# --- deliverability ------------------------------------------------------------


def deliverable_ordering(
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
            if all(m2 in have for m2 in sent if before(m2, m)):
                pick = m
                break
        if pick is None:
            return None
        done.append(pick)
        have.add(pick)
        remaining.remove(pick)
    return tuple(done)


# --- message-set interpretation ------------------------------------------------


def linear_extensions(h: frozenset[Message]) -> Iterator[tuple[Message, ...]]:
    """All orderings of h consistent with the causal order."""
    msgs = sorted(h, key=lambda m: m.sort_key())

    def rec(remaining: list[Message], acc: list[Message]) -> Iterator[tuple[Message, ...]]:
        if not remaining:
            yield tuple(acc)
            return
        for m in remaining:
            if any(before(m2, m) for m2 in remaining if m2 is not m):
                continue
            rest = [m2 for m2 in remaining if m2 is not m]
            acc.append(m)
            yield from rec(rest, acc)
            acc.pop()

    yield from rec(msgs, [])


def interp_under_order(order: tuple[Message, ...], obj: OpObject) -> Any:
    s = obj.initial
    for m in order:
        s = obj.effect(m.payload, s)
    return s


def interp_is_order_independent(h: frozenset[Message], obj: OpObject) -> bool:
    """Brute-force check that every linear extension of the causal order
    yields the same interpretation (and that interp agrees with them)."""
    expected = interp(h, obj)
    return all(
        interp_under_order(order, obj) == expected for order in linear_extensions(h)
    )


# --- the step kernel -------------------------------------------------------------


def reference_steps(system, c: Config) -> list[Step]:
    """The steps of c on an op-based or state-based system, in the rules'
    order (updates, queries, state-based sends, deliveries), built through
    the rule functions but without ``core.delivery_order`` or the query
    table: the buffer is sorted afresh on every call, an op-based message
    by its (origin, seq) and a state-based state by ``canon_key``, and each
    query event is built anew from plain constructors."""
    obj, roster = system.obj, system.roster
    out: list[Step] = []
    for r in roster:
        for op in obj.ops:
            if (r, op) in c.used_ops:
                continue
            if system.kind == "op":
                out.append(op_mk_update(obj, roster, c, r, op))
            else:
                out.append(st_mk_update(obj, roster, c, r, op, system.mode))
    for r in roster:
        for q in obj.queries:
            answer = Output(OUT_RET, obj.query(q, by_replica(system, c).states[r]))
            out.append((Event(r, Input(IN_QRY, query=q), answer), c))
    if system.kind == "op":
        for r, m in sorted(c.buffer, key=lambda rm: (rm[0], rm[1].origin, rm[1].seq)):
            out.append(op_mk_deliver(obj, roster, c, r, m, system.discipline))
    else:
        if system.mode == SEPARATE_SEND:
            out.extend(st_mk_send(roster, c, r) for r in roster)
        for r, s in sorted(c.buffer, key=lambda rs: (rs[0], canon_key(rs[1]))):
            out.append(st_mk_deliver(obj, roster, c, r, s))
    return [step for step in out if step is not None]


# --- witness replay ------------------------------------------------------------


def parse_events(rendered: list[dict]) -> list[Event]:
    """The events of a rendered event list (``core.render_event``), rebuilt
    from their identity fields alone, without stepping any system."""

    def parse_msg(d):
        m = Message(d["origin"], VectorClock.of(d["clock"]), parse_payload(d["payload"]))
        assert m.seq == d["seq"]
        return m

    def parse_payload(p):
        if isinstance(p, int):
            return p
        return frozenset(parse_msg(x) for x in p)

    def parse_message(x):
        # A rendered list is a state-based guest's state, a dict a message.
        return parse_payload(x) if isinstance(x, list) else parse_msg(x)

    out = []
    for e in rendered:
        i = e["input"]
        if i["kind"] == "upd":
            inp = Input.upd(tuple(i["op"]))
        elif i["kind"] == "qry":
            inp = Input.qry(i["query"])
        elif i["kind"] == "dlvr":
            inp = Input.dlvr(parse_message(i["message"]))
        else:
            inp = Input.none()
        o = e["output"]
        if o["kind"] == "ret":
            outp = Output.ret(o["value"])
        elif o["kind"] == "send":
            outp = Output.send(parse_message(o["message"]))
        else:
            outp = Output.none()
        out.append(Event(e["replica"], inp, outp))
    return out


@intern_scope
def replay_simulation_counterexample(
    paired: PairedSystem, rel_id: str, witness: dict, tau_budget: int
) -> bool:
    """Re-execute a simulation counterexample's rendered witness, the one a
    report shows, from the initial configurations, and confirm the reported
    obligation still fails: both paths replay to a related pair, the
    attacker's last event is its one step there, and no weak move of the
    defender within tau_budget lands back in the relation."""
    rel = Relation(rel_id, paired)
    A = paired.side(rel.a_side)
    B = paired.side(rel.b_side)
    a_events = parse_events(witness[rel.a_side + "_events"])
    b_events = parse_events(witness[rel.b_side + "_events"])
    a = A.replay(a_events[:-1])
    b = B.replay(b_events)
    if rel.clause(a, b) is not None:
        return False
    steps = [c for e, c in A.steps(a) if e == a_events[-1]]
    if len(steps) != 1:
        return False
    (a2,) = steps
    obs = a_events[-1].obs_key()
    found = weak_matches(Side(B), b, obs, tau_budget, lambda bb: rel.holds(a2, bb))
    return found is None


# --- program corpus ------------------------------------------------------------


def generate_programs(
    ops: tuple[Op, ...],
    queries: tuple[QueryId, ...],
    count: int,
    max_depth: int = 4,
    seed: int = 2024,
) -> list[Prog]:
    """Deterministic random corpus of programs over the given universes."""
    rng = random.Random(seed)
    variables = ("x", "y")

    def gen_expr(depth: int) -> Expr:
        if depth <= 0 or rng.random() < 0.5:
            if rng.random() < 0.5:
                return Lit(rng.randrange(0, 4))
            return Var(rng.choice(variables))
        op = rng.choice(("+", "-", "*", "=", "<"))
        return Bin(op, gen_expr(depth - 1), gen_expr(depth - 1))

    def gen_prog(depth: int) -> Prog:
        choices = ["skip", "asn", "upd", "qry", "seq"]
        if depth > 1:
            choices.append("while")
        kind = rng.choice(choices)
        if kind == "skip":
            return SKIP
        if kind == "asn":
            return Asn(rng.choice(variables), gen_expr(depth - 1))
        if kind == "upd":
            return Upd(rng.choice(ops))
        if kind == "qry":
            return Qry(rng.choice(variables), rng.choice(queries))
        if kind == "seq":
            return Seq(gen_prog(depth - 1), gen_prog(depth - 1))
        # loops get a guard that is usually already false or soon falsified
        guard = Bin("<", Var(rng.choice(variables)), Lit(rng.randrange(0, 3)))
        return While(guard, gen_prog(depth - 1))

    return [gen_prog(max_depth) for _ in range(count)]
