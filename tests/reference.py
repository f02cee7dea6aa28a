"""Reference definitions that tests hold the package against.

The paper defines causal delivery, downsets and deliverability on traces,
and the message-set interpretation over linear extensions of the causal
order.  The checker decides each of these from configuration fields and
closed forms instead (``Config.sent``/``delivered``, ``checker._inverts``,
``Relation._deliverable_merge_exists``, ``emulation.interp``), so the
definitions live here, as oracles that share no rule with it: messages are
ordered by ``conftest.clock_before``, the pointwise order on their clocks,
not by the origin-component rule of ``core.happens_before``.

The package's configurations hold int bitsets over the check scope's value
index (``core.Config``), and so do a message-set guest's states: each is
the bitset of its messages (``emulation.op_to_st``).  The frozenset form
they replaced is the oracle here.  ``decode`` turns an index-form
configuration into that form, inside the scope that built it: the buffer a
set of (replica id, value) pairs, ``sent`` and each ``delivered`` entry
sets of values, ``used_ops`` a set of (replica id, op) pairs, and a
message-set guest's states and sent values read through the system's
decoder (``System.decode``) as frozensets of messages.  ``by_replica``
reads a configuration's states and decoded ``delivered`` sets as maps keyed
by replica id.

``message_set_guest`` is the frozenset-form message-set guest: a pairwise
``max_set``, an interpretation, ``message_set_interp``, that peels by
``core.happens_before``, and ``mint`` from a message iterable.
``reference_steps`` is a frozenset-form kernel: the rules of both semantics
written afresh over decoded configurations, from the objects' functions
and plain constructors, sharing no table or bit arithmetic with the
package; ``reference_system`` gives a message-set guest's system the
frozenset-form guest to run, ``reference_init`` is the kernel's initial
configuration and ``decoded_steps`` the package's step list, decoded, to
compare it with.

``parse_events`` rebuilds events from their rendered JSON form, so a
witness replays from what a report shows.

``whole_graph_weak_traces`` is the weak-trace set computed over the whole
``breadth_first`` graph to the step bound, with one memo per budget and no
cut by length, as plain sets of traces: the form ``checker.weak_traces``
had before it expanded a configuration only when a trace can still grow
from it.

``scan_downset_bits`` is the downset of a message in a sent set by a scan
over that set, in index form, to hold ``core.downset_bits``'s lazily
extended per-message masks against.

``clock_tick`` and ``clock_join`` build the clock that ``core.mint_from``
gives a message by ticking and joining plain entry maps.

A trace is a sequence of events, oldest first.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Iterable, Iterator, Sequence

from crdt_emu import core
from crdt_emu.checker import Graph, PairedSystem, Relation, Side, breadth_first, weak_matches
from crdt_emu.client import SKIP, Asn, Bin, Expr, Lit, Prog, Qry, Seq, Upd, Var, While
from crdt_emu.core import (
    IN_DLVR,
    IN_NONE,
    IN_QRY,
    IN_UPD,
    OUT_NONE,
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
    decoded_event,
    happens_before,
    intern_scope,
)
from crdt_emu.emulation import interp
from crdt_emu.objects import IDENTITY_VALUE, OpObject, StObject, break_query
from crdt_emu.opsem import CAUSAL
from crdt_emu.stsem import ATOMIC_BROADCAST, SEPARATE_SEND
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


def _bit_positions(x: int) -> list[int]:
    return [i for i, digit in enumerate(reversed(bin(x)[2:])) if digit == "1"]


def decode(system, c: Config) -> Config:
    """The frozenset form of the index-form configuration c of system, read
    in the scope that built c: for n replicas, buffer bit v * n + k is the
    pair (roster[k], value v), and used-op bit k * len(ops) + j the pair
    (roster[k], ops[j]).  States and values are read through the system's
    decoder, so a message-set guest's are frozensets of messages."""
    roster, ops = system.roster, system.obj.ops
    read = system.decode or (lambda x: x)
    n = len(roster)

    def value_set(x: int) -> frozenset:
        return frozenset(read(core.VALUES[b]) for b in _bit_positions(x))

    return Config(
        states=tuple(read(s) for s in c.states),
        buffer=frozenset(
            (roster[b % n], read(core.VALUES[b // n])) for b in _bit_positions(c.buffer)
        ),
        sent=value_set(c.sent),
        delivered=tuple(value_set(d) for d in c.delivered),
        used_ops=frozenset(
            (roster[b // len(ops)], ops[b % len(ops)]) for b in _bit_positions(c.used_ops)
        ),
    )


class ByReplica:
    """A configuration's per-replica fields, keyed by replica id: ``states``
    as the configuration holds them and the decoded ``delivered`` sets,
    decoded when first read."""

    def __init__(self, system, c: Config):
        self.states = dict(zip(system.roster, c.states))
        self._system, self._c = system, c

    @property
    def delivered(self) -> dict:
        return dict(zip(self._system.roster, decode(self._system, self._c).delivered))


def by_replica(system, c: Config) -> ByReplica:
    """The ``states`` and decoded ``delivered`` tuples of c, an index-form
    configuration of system read in its scope, as maps from each replica id
    of system's roster to the entry at its position."""
    return ByReplica(system, c)


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


def scan_downset_bits(v: int, sent_bits: int) -> int:
    """The downset of the message of bit v in the sent set, both read in the
    scope that built them, by a fresh scan over the sent set: v together
    with each sent message whose (origin, seq) v's sender had consumed, by
    the origin component of v's clock.  ``core.downset_bits`` answers from
    one predecessor mask per message, extended as the value index grows;
    this is the per-(message, sent set) scan that those masks replace."""
    m = core.VALUES[v]
    past = dict(m.clock.entries)
    past[m.origin] = m.seq - 1
    out = 1 << v
    for b in _bit_positions(sent_bits):
        m2 = core.VALUES[b]
        if past.get(m2.origin, 0) >= m2.seq:
            out |= 1 << b
    return out


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


def max_set(h: frozenset[Message]) -> frozenset[Message]:
    """Causally maximal members of h, by a pairwise scan; any two of them
    are concurrent."""
    return frozenset(m for m in h if not any(happens_before(m, m2) for m2 in h))


def message_set_interp(h: frozenset[Message], obj: OpObject) -> Any:
    """Fold the message set h into a state of obj: peel the maximal message
    with the smallest (origin, seq) until none is left, then apply the
    peeled effects from the first peeled last."""
    peeled = []
    while h:
        m = min(max_set(h), key=Message.sort_key)
        peeled.append(m)
        h = h - {m}
    return interp_under_order(tuple(reversed(peeled)), obj)


def mint(r: ReplicaId, consumed: Iterable[Message], payload: Any) -> Message:
    """The message r sends with this payload after consuming the messages
    of consumed: their clocks joined, ticked at r (``clock_join``,
    ``clock_tick``)."""
    clock = VectorClock.of({})
    for m in consumed:
        clock = clock_join(clock, m.clock)
    return Message(r, clock_tick(clock, r), payload)


def message_set_guest(obj: OpObject) -> StObject:
    """The frozenset-form state-based guest of the op-based object obj:
    message sets under union, an update inserting the message minted from
    the set with the payload prepped against its interpretation."""
    return StObject(
        name=obj.name + "->st",
        initial=frozenset(),
        ops=obj.ops,
        queries=obj.queries,
        update=lambda r, op, h: h | {mint(r, h, obj.prep(r, op, message_set_interp(h, obj)))},
        join=lambda a, b: a | b,
        query=lambda q, h: obj.query(q, message_set_interp(h, obj)),
    )


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


def interp_is_order_independent(h: int, obj: OpObject) -> bool:
    """Brute-force check, in the scope that built the message bitset h, that
    every linear extension of the causal order on h's messages yields the
    same interpretation, and that ``emulation.interp`` agrees with them."""
    expected = interp(h, obj)
    msgs = frozenset(core.VALUES[b] for b in _bit_positions(h))
    return all(
        interp_under_order(order, obj) == expected for order in linear_extensions(msgs)
    )


# --- the step kernel -------------------------------------------------------------


def reference_system(system, host):
    """The system the reference kernel runs for the package's system: system
    itself, or for a message-set guest of host (a system with a decoder)
    the same system over host's frozenset-form guest
    (``message_set_guest``), its query broken as system's is
    (``objects.break_query``)."""
    if system.decode is None:
        return system
    guest = message_set_guest(host.obj)
    if system.obj.name.endswith("+broken"):
        guest = break_query(guest)
    return dataclasses.replace(system, obj=guest)


def reference_init(system) -> Config:
    """The frozenset-form initial configuration: every replica at the
    object's initial state, nothing sent."""
    n = len(system.roster)
    empty = frozenset()
    return Config((system.obj.initial,) * n, empty, empty, (empty,) * n, empty)


def _at(t: tuple, k: int, v) -> tuple:
    return t[:k] + (v,) + t[k + 1 :]


def reference_steps(system, c: Config) -> list[Step]:
    """The steps of the frozenset-form configuration c on an op-based or
    state-based system, in the rules' order (updates, queries, state-based
    sends, deliveries), each rule written out over sets: an op-based
    message is minted by ``clock_tick`` and ``clock_join`` and gated by
    ``before``, the buffer is sorted afresh, an op-based message by its
    (origin, seq) and a state-based state by ``canon_key``, and every event
    is built from plain constructors."""
    obj, roster = system.obj, system.roster
    op = system.kind == "op"
    by_value = op and obj.message_identity == IDENTITY_VALUE
    out: list[Step] = []
    for k, r in enumerate(roster):
        s, dlv = c.states[k], c.delivered[k]
        for o in obj.ops:
            if (r, o) in c.used_ops:
                continue
            used = c.used_ops | {(r, o)}
            if op:
                payload = obj.prep(r, o, s)
                m = mint(r, dlv, payload)
                held = {r2 for r2, m2 in c.buffer if m2.payload == payload} if by_value else set()
                dests = {(r2, m) for r2 in roster if r2 != r and r2 not in held}
                out.append((Event(r, Input(IN_UPD, op=o), Output(OUT_SEND, message=m)), Config(
                    _at(c.states, k, obj.effect(payload, s)), c.buffer | dests, c.sent | {m},
                    _at(c.delivered, k, dlv | {m}), used)))
                continue
            s2 = obj.update(r, o, s)
            if system.mode == ATOMIC_BROADCAST:
                dests = {(r2, s2) for r2 in roster if r2 != r}
                out.append((Event(r, Input(IN_UPD, op=o), Output(OUT_SEND, message=s2)), Config(
                    _at(c.states, k, s2), c.buffer | dests, c.sent | {s2}, c.delivered, used)))
            else:
                out.append((Event(r, Input(IN_UPD, op=o), Output(OUT_NONE)), Config(
                    _at(c.states, k, s2), c.buffer, c.sent, c.delivered, used)))
    for k, r in enumerate(roster):
        for q in obj.queries:
            answer = Output(OUT_RET, obj.query(q, c.states[k]))
            out.append((Event(r, Input(IN_QRY, query=q), answer), c))
    if op:
        entries = sorted(c.buffer, key=lambda rm: (rm[0], rm[1].origin, rm[1].seq))
    else:
        if system.mode == SEPARATE_SEND:
            for k, r in enumerate(roster):
                s = c.states[k]
                dests = {(r2, s) for r2 in roster if r2 != r}
                out.append((Event(r, Input(IN_NONE), Output(OUT_SEND, message=s)), Config(
                    c.states, c.buffer | dests, c.sent | {s}, c.delivered, c.used_ops)))
        entries = sorted(c.buffer, key=lambda rs: (rs[0], canon_key(rs[1])))
    for r, x in entries:
        k = roster.index(r)
        dlv = c.delivered[k]
        if op:
            ids = {m2.payload for m2 in dlv} if by_value else dlv
            key = (lambda m2: m2.payload) if by_value else (lambda m2: m2)
            if key(x) in ids:
                continue
            if system.discipline == CAUSAL and any(
                before(m2, x) and key(m2) not in ids for m2 in c.sent
            ):
                continue
            s2 = obj.effect(x.payload, c.states[k])
        else:
            if x in dlv:
                continue
            s2 = obj.join(c.states[k], x)
        out.append((Event(r, Input(IN_DLVR, message=x), Output(OUT_NONE)), Config(
            _at(c.states, k, s2), c.buffer - {(r, x)}, c.sent,
            _at(c.delivered, k, dlv | {x}), c.used_ops)))
    return out


def decoded_steps(system, c: Config) -> list[Step]:
    """The package's steps of the index-form configuration c, each event
    read through the system's decoder and each successor decoded, in c's
    scope."""
    return [(decoded_event(e, system.decode), decode(system, c2)) for e, c2 in system.steps(c)]


# --- weak traces ---------------------------------------------------------------


def whole_graph_weak_traces(system, max_len: int, step_bound: int) -> frozenset[tuple]:
    """The observable label sequences of length <= max_len realizable within
    step_bound raw steps, read off every node ``breadth_first`` reaches
    within step_bound: the suffix set of each (node, budget) pair is
    memoized per budget and built from every step of the node while budget
    remains, whatever length is left.  Recursive, so for bounds well below
    the recursion limit."""
    adj = [
        [(e.obs_key(), j) for _, e, j in steps]
        for _, steps in breadth_first(system, step_bound, Graph())
    ]
    memo: list[dict[int, frozenset[tuple]]] = [{} for _ in range(step_bound + 1)]

    def suffixes(i: int, budget: int) -> frozenset[tuple]:
        out = memo[budget].get(i)
        if out is None:
            found = {()}
            for obs, j in adj[i] if budget > 0 else ():
                sub = suffixes(j, budget - 1)
                found |= sub if obs is None else {(obs,) + t for t in sub if len(t) < max_len}
            out = memo[budget][i] = frozenset(found)
        return out

    return suffixes(0, step_bound)


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
    steps = [c for e, c in A.steps(a) if decoded_event(e, A.decode) == a_events[-1]]
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
