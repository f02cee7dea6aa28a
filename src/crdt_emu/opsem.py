"""Op-based replica and system transition relations.

The system semantics has three rule families: updates (prep, self-apply,
broadcast, all in one observable step), queries (observable, stuttering,
``core.query_step``) and deliveries (silent, gated by the causal-delivery
predicate unless the discipline is relaxed to reliable-only broadcast).  The
update and delivery rules take the replica's new state from the check
scope's transition table (``core.TRANSITIONS``), keyed by object, replica,
op or input and state, and fire the replica step, ``op_replica_step``, only
on a miss; an update keeps its payload there too and mints its message from
the replica's delivered set on every step.  They replace the replica's
roster position in the configuration's ``states`` and ``delivered`` tuples
(``core.replace_at``).  A replica's ``delivered`` set
includes the messages its own updates sent and self-applied.  The rules
take a replica by roster position and an op or message by its position in
the object's ops or its bit in the scope's value index, and every set of
the configuration is an int bitset (``core.Config``): the causal gate is a
mask test on the message's downset in the sent set (``core.downset_bits``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .core import (
    TRANSITIONS,
    VALUES,
    Config,
    Event,
    Input,
    Output,
    ReplicaId,
    Step,
    System,
    bcast,
    bits,
    delivery_event,
    delivery_order,
    downset_bits,
    entry_bit,
    held_positions,
    mint_from,
    op_bit,
    payloads,
    query_step,
    replace_at,
    value_bit,
)
from .objects import IDENTITY_VALUE, OpObject

CAUSAL = "causal"
RELIABLE_ONLY = "reliable-only"
DISCIPLINES = (CAUSAL, RELIABLE_ONLY)


def op_replica_step(
    obj: OpObject,
    r: ReplicaId,
    s: Any,
    i: Input,
    consumed: int = 0,
) -> tuple[Any, Output] | None:
    """The replica state machine: qry is stuttering, dlvr applies the effect,
    upd preps a message, applies it locally and emits it.  The message is
    minted from the messages the replica has consumed, a bitset over the
    value index (none by default)."""
    if i.kind == "qry":
        return (s, Output.ret(obj.query(i.query, s)))
    if i.kind == "dlvr":
        return (obj.effect(i.message.payload, s), Output.none())
    if i.kind == "upd":
        payload = obj.prep(r, i.op, s)
        return (obj.effect(payload, s), Output.send(mint_from(r, consumed, payload)))
    return None


def _delivery_enabled(obj: OpObject, c: Config, k: int, v: int, discipline: str) -> bool:
    """The delivery gate of the message of bit v at the replica in roster
    position k: not yet delivered there, and under the causal discipline no
    causal predecessor in ``c.sent`` missing from its ``delivered`` set.  v
    and c.sent come from one configuration, so ``core.downset_bits``
    orders them, and tests compare this gate with happens_before.  A
    by-value object compares messages by payload."""
    dlv = c.delivered[k]
    if obj.message_identity != IDENTITY_VALUE:
        if dlv >> v & 1:
            return False
        return discipline == RELIABLE_ONLY or not downset_bits(v, c.sent) & ~dlv & ~(1 << v)
    have = payloads(dlv)
    if VALUES[v].payload in have:
        return False
    if discipline == RELIABLE_ONLY:
        return True
    missing = downset_bits(v, c.sent) & ~dlv & ~(1 << v)
    return all(VALUES[b].payload in have for b in bits(missing))


def op_mk_update(
    obj: OpObject, roster: tuple[ReplicaId, ...], c: Config, k: int, j: int
) -> Step:
    """One OpUpdate rule instance of ``obj.ops[j]`` at roster position k:
    prep, self-apply, broadcast.  The new state and the payload are a
    function of (obj, replica, op, state), kept in the transition table;
    the message is minted from the replica's delivered set on every step.
    A by-value object buffers no second entry with an equal payload at a
    destination (``core.held_positions``)."""
    r = roster[k]
    s = c.states[k]
    dlv = c.delivered[k]
    key = (obj, r, obj.ops[j], s)
    fired = TRANSITIONS.get(key)
    if fired is None:
        i = Input.upd(obj.ops[j])
        s2, out = op_replica_step(obj, r, s, i, dlv)
        TRANSITIONS[key] = (s2, out.message.payload, i)
    else:
        s2, payload, i = fired
        out = Output.send(mint_from(r, dlv, payload))
    m = out.message
    v = value_bit(m)
    n = len(roster)
    held = held_positions(v, c.buffer, n) if obj.message_identity == IDENTITY_VALUE else 0
    return Event.of(r, i, out), Config(
        replace_at(c.states, k, s2),
        bcast(k, v, c.buffer, n, held),
        c.sent | 1 << v,
        replace_at(c.delivered, k, dlv | 1 << v),
        c.used_ops | op_bit(k, j, len(obj.ops)),
    )


def op_mk_deliver(
    obj: OpObject,
    roster: tuple[ReplicaId, ...],
    c: Config,
    k: int,
    v: int,
    discipline: str = CAUSAL,
) -> Step | None:
    """One OpDeliver instance of the message of bit v at roster position k;
    None when it is not buffered there or the delivery gate blocks it.  The
    new state is kept in the transition table by (obj, replica, input,
    state)."""
    entry = entry_bit(v, k, len(roster))
    if not c.buffer & entry or not _delivery_enabled(obj, c, k, v, discipline):
        return None
    e = delivery_event(roster[k], v)
    s = c.states[k]
    key = (obj, e.replica, e.input, s)
    s2 = TRANSITIONS.get(key)
    if s2 is None:
        s2 = TRANSITIONS[key] = op_replica_step(obj, e.replica, s, e.input)[0]
    return e, Config(
        replace_at(c.states, k, s2),
        c.buffer & ~entry,
        c.sent,
        replace_at(c.delivered, k, c.delivered[k] | 1 << v),
        c.used_ops,
    )


def op_system_steps(
    obj: OpObject,
    roster: tuple[ReplicaId, ...],
    c: Config,
    discipline: str = CAUSAL,
) -> list[Step]:
    """All rule instances applicable to c, in deterministic order (updates,
    then queries, then deliveries in ``core.delivery_order``).  An update
    already recorded in used_ops does not fire again.  The buffer's
    values' sort keys and each transition come from the check scope's
    tables, so only the first configuration with a given replica state
    evaluates a query or fires an update or a delivery there; each query
    step's successor is c itself.  Every delivery still goes through
    ``op_mk_deliver``."""
    out: list[Step] = []
    nops = len(obj.ops)
    used = c.used_ops
    for k in range(len(roster)):
        for j in range(nops):
            if not used & op_bit(k, j, nops):
                out.append(op_mk_update(obj, roster, c, k, j))
    for r in roster:
        for q in obj.queries:
            out.append(query_step(obj, roster, c, r, q))
    for k, v in delivery_order(roster, c.buffer):
        step = op_mk_deliver(obj, roster, c, k, v, discipline)
        if step is not None:
            out.append(step)
    return out


@dataclass(frozen=True)
class OpSystem(System):
    """An op-based LTS over a fixed roster under a delivery discipline."""

    discipline: str = CAUSAL

    kind = "op"

    def steps(self, c: Config) -> list[Step]:
        return op_system_steps(self.obj, self.roster, c, self.discipline)
