"""State-based replica and system transition relations.

Updates are local; states travel in separate silent send steps (the default
mode) or atomically with the update (the broadcast variant used by the weak
bisimulation result).  Deliveries merge and are deduplicated by the payload
state value, never by message wrapper identity.
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
    VectorClock,
    bcast,
    canon_set,
)
from .objects import StObject

SEPARATE_SEND = "separate-send"
ATOMIC_BROADCAST = "atomic"
MODES = (SEPARATE_SEND, ATOMIC_BROADCAST)


@dataclass(frozen=True, eq=False, slots=True)
class StConfig:
    """Global state-based configuration.  Buffer payloads are states; the
    derived sets track sent and per-replica delivered payload values.
    Only the summary is cached on the instance, never successor lists."""

    trace: Trace
    states: FrozenDict            # ReplicaId -> S
    buffer: frozenset             # {(ReplicaId, Message)} payload = state
    seqs: FrozenDict              # ReplicaId -> send counter (wrapper ids)
    sent_values: frozenset        # {state payload}
    delivered_values: FrozenDict  # ReplicaId -> frozenset[state payload]
    used_ops: frozenset           # {(ReplicaId, Op)}
    _summary: tuple | None = field(default=None, init=False, repr=False)


def st_init(obj: StObject, roster: tuple[ReplicaId, ...]) -> StConfig:
    if not roster:
        raise ValueError("st_init: empty replica roster")
    if len(set(roster)) != len(roster):
        raise ValueError("st_init: duplicate replica ids")
    empty = canon_set(frozenset())
    return StConfig(
        trace=TRACE_EMPTY,
        states=FrozenDict.of({r: obj.initial for r in roster}),
        buffer=empty,
        seqs=FrozenDict.of({r: 0 for r in roster}),
        sent_values=empty,
        delivered_values=FrozenDict.of({r: empty for r in roster}),
        used_ops=empty,
    )


def st_replica_step(
    obj: StObject, r: ReplicaId, s: Any, i: Input
) -> tuple[Any, Output] | None:
    """Replica state machine: qry stutters, dlvr merges, upd applies the
    inflationary update, and a none input emits the current state."""
    if i.kind == "qry":
        return (s, Output.ret(obj.query(i.query, s)))
    if i.kind == "dlvr":
        return (obj.join(s, i.message.payload), Output.none())
    if i.kind == "upd":
        return (obj.update(r, i.op, s), Output.none())
    if i.kind == "none":
        m = _wrap(r, 0, s)
        return (s, Output.send(m))
    return None


def _wrap(r: ReplicaId, seq: int, state: Any) -> Message:
    # State payloads get a fresh wrapper id for bookkeeping; no clock is
    # maintained since nothing orders state-based sends causally.
    return Message.make(r, seq, VectorClock.make(()), state)


def st_mk_update(
    obj: StObject, roster: tuple[ReplicaId, ...], c: StConfig, r: ReplicaId, op, mode: str
) -> tuple[Label, StConfig]:
    """One StUpdate (or StUpdBC in atomic mode) rule instance."""
    s2 = obj.update(r, op, c.states[r])
    if mode == ATOMIC_BROADCAST:
        m = _wrap(r, c.seqs[r] + 1, s2)
        e = Event.of(r, Input.upd(op), Output.send(m))
        cfg = StConfig(
            trace=c.trace.append(e),
            states=c.states.set(r, s2),
            buffer=bcast(r, m, c.buffer, roster, by_value=True),
            seqs=c.seqs.set(r, c.seqs[r] + 1),
            sent_values=canon_set(c.sent_values | {s2}),
            delivered_values=c.delivered_values,
            used_ops=canon_set(c.used_ops | {(r, op)}),
        )
    else:
        e = Event.of(r, Input.upd(op), Output.none())
        cfg = StConfig(
            trace=c.trace.append(e),
            states=c.states.set(r, s2),
            buffer=c.buffer,
            seqs=c.seqs,
            sent_values=c.sent_values,
            delivered_values=c.delivered_values,
            used_ops=canon_set(c.used_ops | {(r, op)}),
        )
    return (Label.update(r, op), cfg)


def st_mk_query(obj: StObject, c: StConfig, r: ReplicaId, q) -> tuple[Label, StConfig]:
    v = obj.query(q, c.states[r])
    e = Event.of(r, Input.qry(q), Output.ret(v))
    cfg = StConfig(
        trace=c.trace.append(e),
        states=c.states,
        buffer=c.buffer,
        seqs=c.seqs,
        sent_values=c.sent_values,
        delivered_values=c.delivered_values,
        used_ops=c.used_ops,
    )
    return (Label.qry(r, q, v), cfg)


def st_mk_send(
    roster: tuple[ReplicaId, ...], c: StConfig, r: ReplicaId
) -> tuple[Label, StConfig]:
    s = c.states[r]
    m = _wrap(r, c.seqs[r] + 1, s)
    e = Event.of(r, Input.none(), Output.send(m))
    cfg = StConfig(
        trace=c.trace.append(e),
        states=c.states,
        buffer=bcast(r, m, c.buffer, roster, by_value=True),
        seqs=c.seqs.set(r, c.seqs[r] + 1),
        sent_values=canon_set(c.sent_values | {s}),
        delivered_values=c.delivered_values,
        used_ops=c.used_ops,
    )
    return (Label.tau("send", r), cfg)


def st_mk_deliver(
    obj: StObject, c: StConfig, r: ReplicaId, m: Message
) -> tuple[Label, StConfig] | None:
    """One StDeliver instance; None when the dedup premise blocks it."""
    if (r, m) not in c.buffer or m.payload in c.delivered_values[r]:
        return None
    s2 = obj.join(c.states[r], m.payload)
    e = Event.of(r, Input.dlvr(m), Output.none())
    cfg = StConfig(
        trace=c.trace.append(e),
        states=c.states.set(r, s2),
        buffer=canon_set(c.buffer - {(r, m)}),
        seqs=c.seqs,
        sent_values=c.sent_values,
        delivered_values=c.delivered_values.set(r, c.delivered_values[r] | {m.payload}),
        used_ops=c.used_ops,
    )
    return (Label.tau("dlvr", r), cfg)


def st_system_steps(
    obj: StObject,
    roster: tuple[ReplicaId, ...],
    c: StConfig,
    mode: str = SEPARATE_SEND,
    used_gate: bool = False,
) -> list[tuple[Label, StConfig]]:
    """All rule instances applicable to c, in deterministic order (updates,
    queries, sends, deliveries).  In atomic mode the update rule broadcasts
    the post-update state itself and there is no separate send rule."""
    out: list[tuple[Label, StConfig]] = []
    for r in roster:
        for op in obj.ops:
            if used_gate and (r, op) in c.used_ops:
                continue
            out.append(st_mk_update(obj, roster, c, r, op, mode))
    for r in roster:
        for q in obj.queries:
            out.append(st_mk_query(obj, c, r, q))
    if mode == SEPARATE_SEND:
        for r in roster:
            out.append(st_mk_send(roster, c, r))
    for r, m in sorted(c.buffer, key=lambda rm: (rm[0], rm[1].sort_key())):
        step = st_mk_deliver(obj, c, r, m)
        if step is not None:
            out.append(step)
    return out


@dataclass(frozen=True)
class StSystem:
    """A state-based LTS over a fixed roster; same op gating convention as
    the op-based system."""

    obj: StObject
    roster: tuple[ReplicaId, ...]
    mode: str = SEPARATE_SEND
    repeat_ops: bool = False

    kind = "st"

    def init(self) -> StConfig:
        return st_init(self.obj, self.roster)

    def steps(self, c: StConfig) -> list[tuple[Label, StConfig]]:
        return st_system_steps(
            self.obj, self.roster, c, self.mode, used_gate=not self.repeat_ops
        )

    def summary(self, c: StConfig) -> tuple:
        cached = c._summary
        if cached is None:
            buffer_values = canon_set(frozenset((r, m.payload) for r, m in c.buffer))
            cached = (c.states, buffer_values, c.sent_values, c.delivered_values, c.used_ops)
            object.__setattr__(c, "_summary", cached)
        return cached

    def query_value(self, c: StConfig, r: ReplicaId, q: QueryId) -> Any:
        return self.obj.query(q, c.states[r])

    def replay(self, events: Iterable[Event]) -> StConfig:
        c = self.init()
        for e in events:
            for _, c2 in self.steps(c):
                head = c2.trace.head
                # Wrapper ids on sent states are bookkeeping; replay matches
                # sends by payload value.
                if head == e or _same_modulo_wrapper(head, e):
                    c = c2
                    break
            else:
                raise ValueError(f"replay: event {e} is not a legal step here")
        return c


def _same_modulo_wrapper(a: Event | None, b: Event) -> bool:
    if a is None or a.replica != b.replica or a.input.kind != b.input.kind:
        return False
    if a.input.kind == "dlvr":
        return (
            b.input.message is not None
            and a.input.message is not None
            and a.input.message.payload == b.input.message.payload
        )
    if a.output.kind == "send" and b.output.kind == "send":
        return (
            a.input == b.input
            and a.output.message.payload == b.output.message.payload
        )
    return False
