"""Op-based replica and system transition relations.

The system semantics has three rule families: updates (prep, self-apply,
broadcast, all in one observable step), queries (observable, stuttering) and
deliveries (silent, gated by the causal-delivery predicate unless the
discipline is relaxed to reliable-only broadcast).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from .core import (
    Event,
    FrozenDict,
    Input,
    Label,
    Message,
    Op,
    Output,
    QueryId,
    ReplicaId,
    Trace,
    TRACE_EMPTY,
    bcast,
    canon_set,
    causal_past,
    happens_before,  # noqa: F401  perfbench/tracer.py counts calls through this name
    mint,
    replay,
)
from .objects import IDENTITY_VALUE, OpObject

CAUSAL = "causal"
RELIABLE_ONLY = "reliable-only"
DISCIPLINES = (CAUSAL, RELIABLE_ONLY)


@dataclass(frozen=True, eq=False, slots=True)
class OpConfig:
    """Global op-based configuration: trace, replica states, in-flight buffer,
    the messages sent and those each replica consumed, and the used-ops gate.
    Nothing derivable from these is stored: a replica's next message is
    minted from its delivered set (``core.mint``).

    Successor lists are never stored on the instance: a stored list would keep
    every configuration generated from it alive.  Only the summary is cached,
    because dedup reads it for every generated configuration."""

    trace: Trace
    states: FrozenDict            # ReplicaId -> S
    buffer: frozenset             # {(ReplicaId, Message)}
    sent: frozenset               # {Message}, the union of delivered
    delivered: FrozenDict         # ReplicaId -> frozenset[Message], incl. self-applied
    used_ops: frozenset           # {(ReplicaId, Op)} update events so far
    _summary: tuple | None = field(default=None, init=False, repr=False)


def op_init(obj: OpObject, roster: tuple[ReplicaId, ...]) -> OpConfig:
    if not roster:
        raise ValueError("op_init: empty replica roster")
    if len(set(roster)) != len(roster):
        raise ValueError("op_init: duplicate replica ids")
    empty = canon_set(frozenset())
    return OpConfig(
        trace=TRACE_EMPTY,
        states=FrozenDict.of({r: obj.initial for r in roster}),
        buffer=empty,
        sent=empty,
        delivered=FrozenDict.of({r: empty for r in roster}),
        used_ops=empty,
    )


def op_replica_step(
    obj: OpObject,
    r: ReplicaId,
    s: Any,
    i: Input,
    consumed: frozenset = frozenset(),
) -> tuple[Any, Output] | None:
    """The replica state machine: qry is stuttering, dlvr applies the effect,
    upd preps a message, applies it locally and emits it.  The message is
    minted from the messages the replica has consumed (none by default)."""
    if i.kind == "qry":
        return (s, Output.ret(obj.query(i.query, s)))
    if i.kind == "dlvr":
        return (obj.effect(i.message.payload, s), Output.none())
    if i.kind == "upd":
        payload = obj.prep(r, i.op, s)
        return (obj.effect(payload, s), Output.send(mint(r, consumed, payload)))
    return None


def _delivery_enabled(
    obj: OpObject, c: OpConfig, r: ReplicaId, m: Message, discipline: str
) -> bool:
    by_value = obj.message_identity == IDENTITY_VALUE
    dlv = c.delivered[r]
    if by_value:
        dlv = {m2.payload for m2 in dlv}
    if (m.payload if by_value else m) in dlv:
        return False
    if discipline == RELIABLE_ONLY:
        return True
    # m and c.sent come from one configuration, so the origin component
    # decides happens-before; tests compare this gate with happens_before.
    past = causal_past(m)
    for m2 in c.sent:
        if past.get(m2.id.origin, 0) >= m2.id.seq:
            if (m2.payload if by_value else m2) not in dlv:
                return False
    return True


def op_mk_update(
    obj: OpObject, roster: tuple[ReplicaId, ...], c: OpConfig, r: ReplicaId, op
) -> tuple[Label, OpConfig]:
    """One OpUpdate rule instance: prep, self-apply, broadcast."""
    i = Input.upd(op)
    s2, out = op_replica_step(obj, r, c.states[r], i, c.delivered[r])
    m = out.message
    cfg = OpConfig(
        trace=c.trace.append(Event.of(r, i, out)),
        states=c.states.set(r, s2),
        buffer=bcast(r, m, c.buffer, roster, obj.message_identity == IDENTITY_VALUE),
        sent=canon_set(c.sent | {m}),
        delivered=c.delivered.set(r, c.delivered[r] | {m}),
        used_ops=canon_set(c.used_ops | {(r, op)}),
    )
    return (Label.update(r, op), cfg)


def op_mk_query(obj: OpObject, c: OpConfig, r: ReplicaId, q) -> tuple[Label, OpConfig]:
    v = obj.query(q, c.states[r])
    e = Event.of(r, Input.qry(q), Output.ret(v))
    cfg = OpConfig(
        trace=c.trace.append(e),
        states=c.states,
        buffer=c.buffer,
        sent=c.sent,
        delivered=c.delivered,
        used_ops=c.used_ops,
    )
    return (Label.qry(r, q, v), cfg)


def op_mk_deliver(
    obj: OpObject, c: OpConfig, r: ReplicaId, m: Message, discipline: str = CAUSAL
) -> tuple[Label, OpConfig] | None:
    """One OpDeliver instance; None when the delivery gate blocks it."""
    if (r, m) not in c.buffer or not _delivery_enabled(obj, c, r, m, discipline):
        return None
    s2 = obj.effect(m.payload, c.states[r])
    e = Event.of(r, Input.dlvr(m), Output.none())
    cfg = OpConfig(
        trace=c.trace.append(e),
        states=c.states.set(r, s2),
        buffer=canon_set(c.buffer - {(r, m)}),
        sent=c.sent,
        delivered=c.delivered.set(r, c.delivered[r] | {m}),
        used_ops=c.used_ops,
    )
    return (Label.tau("dlvr", r), cfg)


def op_system_steps(
    obj: OpObject,
    roster: tuple[ReplicaId, ...],
    c: OpConfig,
    discipline: str = CAUSAL,
    used_gate: bool = False,
) -> list[tuple[Label, OpConfig]]:
    """All rule instances applicable to c, in deterministic order
    (updates, then queries, then deliveries).  With used_gate, update
    instances already recorded in used_ops are skipped."""
    out: list[tuple[Label, OpConfig]] = []
    for r in roster:
        for op in obj.ops:
            if used_gate and (r, op) in c.used_ops:
                continue
            out.append(op_mk_update(obj, roster, c, r, op))
    for r in roster:
        for q in obj.queries:
            out.append(op_mk_query(obj, c, r, q))
    for r, m in sorted(c.buffer, key=lambda rm: (rm[0], rm[1].sort_key())):
        step = op_mk_deliver(obj, c, r, m, discipline)
        if step is not None:
            out.append(step)
    return out


@dataclass(frozen=True)
class OpSystem:
    """An op-based LTS over a fixed roster.  Unless ``repeat_ops`` is set,
    each (replica, op) pair fires at most once per execution, which keeps the
    explored space finite and makes operation occurrences unique."""

    obj: OpObject
    roster: tuple[ReplicaId, ...]
    discipline: str = CAUSAL
    repeat_ops: bool = False

    kind = "op"

    def init(self) -> OpConfig:
        return op_init(self.obj, self.roster)

    def steps(self, c: OpConfig) -> list[tuple[Label, OpConfig]]:
        return op_system_steps(
            self.obj, self.roster, c, self.discipline, used_gate=not self.repeat_ops
        )

    def summary(self, c: OpConfig) -> tuple:
        """Behavior-determining quotient of a configuration: replica states,
        buffer, delivered sets and the used-ops gate.  Traces are deliberately
        excluded (they only grow), and so is sent, the union of delivered."""
        cached = c._summary
        if cached is None:
            cached = (c.states, c.buffer, c.delivered, c.used_ops)
            object.__setattr__(c, "_summary", cached)
        return cached

    def query_value(self, c: OpConfig, r: ReplicaId, q: QueryId) -> Any:
        return self.obj.query(q, c.states[r])

    def replay(self, events: Iterable[Event]) -> OpConfig:
        return replay(self, events)
