"""State-based replica and system transition relations.

Updates are local; states travel in separate silent send steps (the default
mode) or atomically with the update (the broadcast variant used by the weak
bisimulation result).  A sent message is the state itself: a send or
delivery event carries the state, and the buffer holds (replica, state)
entries as bits over the scope's value index (``core.Config``), so a union
deduplicates re-sent equal states and a delivery is deduplicated by the
state value.  The update and delivery rules fire the replica step,
``st_replica_step``, and take the replica's new state and output from it,
replacing the replica's roster position in the configuration's tuples
(``core.replace_at``); queries are ``core.query_step``.  The rules take a
replica by roster position, an op by its position in the object's ops and
a buffered state by its bit.  A replica's ``delivered`` set holds only the
states it received, never its own.
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
    delivery_event,
    delivery_order,
    entry_bit,
    op_bit,
    query_step,
    replace_at,
    send_event,
    value_bit,
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
    obj: StObject, roster: tuple[ReplicaId, ...], c: Config, k: int, j: int, mode: str
) -> Step:
    """One StUpdate (or StUpdBC in atomic mode) rule instance of
    ``obj.ops[j]`` at roster position k."""
    r = roster[k]
    i = Input.upd(obj.ops[j])
    s2, out = st_replica_step(obj, r, c.states[k], i, mode)
    if out.kind == OUT_SEND:
        v = value_bit(s2)
        buffer, sent = bcast(k, v, c.buffer, len(roster)), c.sent | 1 << v
    else:
        buffer, sent = c.buffer, c.sent
    return Event.of(r, i, out), Config(
        replace_at(c.states, k, s2),
        buffer,
        sent,
        c.delivered,
        c.used_ops | op_bit(k, j, len(obj.ops)),
    )


def st_mk_send(roster: tuple[ReplicaId, ...], c: Config, k: int) -> Step:
    """One StSend instance: the replica at roster position k sends its
    current state."""
    v = value_bit(c.states[k])
    return send_event(roster[k], v), Config(
        c.states,
        bcast(k, v, c.buffer, len(roster)),
        c.sent | 1 << v,
        c.delivered,
        c.used_ops,
    )


def st_mk_deliver(
    obj: StObject, roster: tuple[ReplicaId, ...], c: Config, k: int, v: int
) -> Step | None:
    """One StDeliver instance of the state of bit v buffered for roster
    position k; None when it is not buffered there or the dedup premise
    blocks it (the replica has delivered an equal state)."""
    entry = entry_bit(v, k, len(roster))
    dlv = c.delivered[k]
    if not c.buffer & entry or dlv >> v & 1:
        return None
    e = delivery_event(roster[k], v)
    s2, _ = st_replica_step(obj, e.replica, c.states[k], e.input)
    return e, Config(
        replace_at(c.states, k, s2),
        c.buffer & ~entry,
        c.sent,
        replace_at(c.delivered, k, dlv | 1 << v),
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
    nops = len(obj.ops)
    used = c.used_ops
    for k in range(len(roster)):
        for j in range(nops):
            if not used & op_bit(k, j, nops):
                out.append(st_mk_update(obj, roster, c, k, j, mode))
    for r in roster:
        for q in obj.queries:
            out.append(query_step(obj, roster, c, r, q))
    if mode == SEPARATE_SEND:
        for k in range(len(roster)):
            out.append(st_mk_send(roster, c, k))
    for k, v in delivery_order(roster, c.buffer):
        step = st_mk_deliver(obj, roster, c, k, v)
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
