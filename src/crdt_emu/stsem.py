"""State-based replica and system transition relations.

Updates are local; states travel in separate silent send steps (the default
mode) or atomically with the update (the broadcast variant used by the weak
bisimulation result).  A sent message is the state itself: a send or
delivery event carries the state, and the buffer holds (replica, state)
pairs, so a set union deduplicates re-sent equal states and a delivery is
deduplicated by the state value.  The update and delivery rules fire the
replica step, ``st_replica_step``, and take the replica's new state and
output from it, replacing the replica's roster position in the
configuration's tuples (``core.replace_at``); queries are
``core.query_step``.  A replica's ``delivered`` set holds only the states it
received, never its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .core import (
    OUT_SEND,
    Config,
    Event,
    Input,
    Output,
    ReplicaId,
    Step,
    System,
    bcast,
    canon_set,
    delivery_order,
    query_step,
    replace_at,
)
from .objects import StObject

SEPARATE_SEND = "separate-send"
ATOMIC_BROADCAST = "atomic"
MODES = (SEPARATE_SEND, ATOMIC_BROADCAST)


def st_replica_step(
    obj: StObject, r: ReplicaId, s: Any, i: Input, mode: str = SEPARATE_SEND
) -> tuple[Any, Output] | None:
    """Replica state machine: qry stutters, dlvr merges the delivered state,
    upd applies the inflationary update, and a none input sends the current
    state.  mode is the system's broadcast mode: in atomic mode upd also
    sends the updated state.  ``st_mk_update`` and ``st_mk_deliver`` fire
    this step; a state the replica sends is never added to its own
    ``delivered`` set, unlike an op-based replica's message."""
    if i.kind == "qry":
        return (s, Output.ret(obj.query(i.query, s)))
    if i.kind == "dlvr":
        return (obj.join(s, i.message), Output.none())
    if i.kind == "upd":
        s2 = obj.update(r, i.op, s)
        return (s2, Output.send(s2) if mode == ATOMIC_BROADCAST else Output.none())
    if i.kind == "none":
        return (s, Output.send(s))
    return None


def st_mk_update(
    obj: StObject, roster: tuple[ReplicaId, ...], c: Config, r: ReplicaId, op, mode: str
) -> Step:
    """One StUpdate (or StUpdBC in atomic mode) rule instance."""
    k = roster.index(r)
    i = Input.upd(op)
    s2, out = st_replica_step(obj, r, c.states[k], i, mode)
    if out.kind == OUT_SEND:
        buffer, sent = bcast(r, s2, c.buffer, roster), canon_set(c.sent | {s2})
    else:
        buffer, sent = c.buffer, c.sent
    return Event.of(r, i, out), Config(
        replace_at(c.states, k, s2),
        buffer,
        sent,
        c.delivered,
        canon_set(c.used_ops | {(r, op)}),
    )


def st_mk_send(
    roster: tuple[ReplicaId, ...], c: Config, r: ReplicaId
) -> Step:
    s = c.states[roster.index(r)]
    return Event.of(r, Input.none(), Output.send(s)), Config(
        c.states,
        bcast(r, s, c.buffer, roster),
        canon_set(c.sent | {s}),
        c.delivered,
        c.used_ops,
    )


def st_mk_deliver(
    obj: StObject, roster: tuple[ReplicaId, ...], c: Config, r: ReplicaId, s: Any
) -> Step | None:
    """One StDeliver instance of the state s buffered for r; None when s is
    not buffered there or the dedup premise blocks it (r has delivered an
    equal state)."""
    k = roster.index(r)
    if (r, s) not in c.buffer or s in c.delivered[k]:
        return None
    i = Input.dlvr(s)
    s2, out = st_replica_step(obj, r, c.states[k], i)
    return Event.of(r, i, out), Config(
        replace_at(c.states, k, s2),
        canon_set(c.buffer - {(r, s)}),
        c.sent,
        replace_at(c.delivered, k, canon_set(c.delivered[k] | {s})),
        c.used_ops,
    )


def st_system_steps(
    obj: StObject,
    roster: tuple[ReplicaId, ...],
    c: Config,
    mode: str = SEPARATE_SEND,
) -> list[Step]:
    """All rule instances applicable to c, in deterministic order (updates,
    queries, sends, then deliveries by replica and canonical state key,
    ``core.delivery_order``).  An update already recorded in used_ops does
    not fire again.  In atomic mode the update rule broadcasts the
    post-update state itself and there is no separate send rule.  As on
    op-based systems, the buffer's order and the query events are read from
    the check scope's tables, each query step's successor is c itself, and
    every delivery goes through ``st_mk_deliver``."""
    out: list[Step] = []
    for r in roster:
        for op in obj.ops:
            if (r, op) not in c.used_ops:
                out.append(st_mk_update(obj, roster, c, r, op, mode))
    for r in roster:
        for q in obj.queries:
            out.append(query_step(obj, roster, c, r, q))
    if mode == SEPARATE_SEND:
        for r in roster:
            out.append(st_mk_send(roster, c, r))
    for r, s in delivery_order(c.buffer):
        step = st_mk_deliver(obj, roster, c, r, s)
        if step is not None:
            out.append(step)
    return out


@dataclass(frozen=True)
class StSystem(System):
    """A state-based LTS over a fixed roster in a broadcast mode."""

    mode: str = SEPARATE_SEND

    kind = "st"

    def steps(self, c: Config) -> list[Step]:
        return st_system_steps(self.obj, self.roster, c, self.mode)
