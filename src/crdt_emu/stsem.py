"""State-based replica and system transition relations.

Updates are local; states travel in separate silent send steps (the default
mode) or atomically with the update (the broadcast variant used by the weak
bisimulation result).  A sent message is the state itself: a send or
delivery event carries the state, and the buffer holds (replica, state)
pairs, so a set union deduplicates re-sent equal states and a delivery is
deduplicated by the state value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from .core import (
    Event,
    FrozenDict,
    Input,
    Label,
    Output,
    QueryId,
    ReplicaId,
    Trace,
    TRACE_EMPTY,
    bcast,
    canon_key,
    canon_set,
    replay,
)
from .objects import StObject

SEPARATE_SEND = "separate-send"
ATOMIC_BROADCAST = "atomic"
MODES = (SEPARATE_SEND, ATOMIC_BROADCAST)


@dataclass(frozen=True, eq=False, slots=True)
class StConfig:
    """Global state-based configuration.  The buffer holds the sent states
    themselves, one entry per destination and value; the derived sets track
    the sent states and the states each replica has delivered.  Only the
    summary is cached on the instance, never successor lists."""

    trace: Trace
    states: FrozenDict            # ReplicaId -> S
    buffer: frozenset             # {(ReplicaId, S)}
    sent_values: frozenset        # {S}
    delivered_values: FrozenDict  # ReplicaId -> frozenset[S]
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
        sent_values=empty,
        delivered_values=FrozenDict.of({r: empty for r in roster}),
        used_ops=empty,
    )


def st_replica_step(
    obj: StObject, r: ReplicaId, s: Any, i: Input
) -> tuple[Any, Output] | None:
    """Replica state machine: qry stutters, dlvr merges the delivered state,
    upd applies the inflationary update, and a none input sends the current
    state."""
    if i.kind == "qry":
        return (s, Output.ret(obj.query(i.query, s)))
    if i.kind == "dlvr":
        return (obj.join(s, i.message), Output.none())
    if i.kind == "upd":
        return (obj.update(r, i.op, s), Output.none())
    if i.kind == "none":
        return (s, Output.send(s))
    return None


def st_mk_update(
    obj: StObject, roster: tuple[ReplicaId, ...], c: StConfig, r: ReplicaId, op, mode: str
) -> tuple[Label, StConfig]:
    """One StUpdate (or StUpdBC in atomic mode) rule instance."""
    s2 = obj.update(r, op, c.states[r])
    if mode == ATOMIC_BROADCAST:
        e = Event.of(r, Input.upd(op), Output.send(s2))
        buffer = bcast(r, s2, c.buffer, roster)
        sent_values = canon_set(c.sent_values | {s2})
    else:
        e = Event.of(r, Input.upd(op), Output.none())
        buffer, sent_values = c.buffer, c.sent_values
    cfg = StConfig(
        trace=c.trace.append(e),
        states=c.states.set(r, s2),
        buffer=buffer,
        sent_values=sent_values,
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
        sent_values=c.sent_values,
        delivered_values=c.delivered_values,
        used_ops=c.used_ops,
    )
    return (Label.qry(r, q, v), cfg)


def st_mk_send(
    roster: tuple[ReplicaId, ...], c: StConfig, r: ReplicaId
) -> tuple[Label, StConfig]:
    s = c.states[r]
    e = Event.of(r, Input.none(), Output.send(s))
    cfg = StConfig(
        trace=c.trace.append(e),
        states=c.states,
        buffer=bcast(r, s, c.buffer, roster),
        sent_values=canon_set(c.sent_values | {s}),
        delivered_values=c.delivered_values,
        used_ops=c.used_ops,
    )
    return (Label.tau("send", r), cfg)


def st_mk_deliver(
    obj: StObject, c: StConfig, r: ReplicaId, s: Any
) -> tuple[Label, StConfig] | None:
    """One StDeliver instance of the state s buffered for r; None when s is
    not buffered there or the dedup premise blocks it (r has delivered an
    equal state)."""
    if (r, s) not in c.buffer or s in c.delivered_values[r]:
        return None
    e = Event.of(r, Input.dlvr(s), Output.none())
    cfg = StConfig(
        trace=c.trace.append(e),
        states=c.states.set(r, obj.join(c.states[r], s)),
        buffer=canon_set(c.buffer - {(r, s)}),
        sent_values=c.sent_values,
        delivered_values=c.delivered_values.set(r, c.delivered_values[r] | {s}),
        used_ops=c.used_ops,
    )
    return (Label.tau("dlvr", r), cfg)


def _delivery_order(entry: tuple) -> tuple:
    r, s = entry
    return (r, canon_key(s))


def st_system_steps(
    obj: StObject,
    roster: tuple[ReplicaId, ...],
    c: StConfig,
    mode: str = SEPARATE_SEND,
    used_gate: bool = False,
) -> list[tuple[Label, StConfig]]:
    """All rule instances applicable to c, in deterministic order (updates,
    queries, sends, then deliveries by replica and canonical state key).  In
    atomic mode the update rule broadcasts the post-update state itself and
    there is no separate send rule."""
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
    for r, s in sorted(c.buffer, key=_delivery_order):
        step = st_mk_deliver(obj, c, r, s)
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
        """Every field of the configuration but the trace, which only grows."""
        cached = c._summary
        if cached is None:
            cached = (c.states, c.buffer, c.sent_values, c.delivered_values, c.used_ops)
            object.__setattr__(c, "_summary", cached)
        return cached

    def query_value(self, c: StConfig, r: ReplicaId, q: QueryId) -> Any:
        return self.obj.query(q, c.states[r])

    def replay(self, events: Iterable[Event]) -> StConfig:
        return replay(self, events)
