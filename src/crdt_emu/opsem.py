"""Op-based replica and system transition relations.

The system semantics has three rule families: updates (prep, self-apply,
broadcast, all in one observable step), queries (observable, stuttering,
``core.query_step``) and deliveries (silent, gated by the causal-delivery
predicate unless the discipline is relaxed to reliable-only broadcast).  The
update and delivery rules fire the replica step, ``op_replica_step``, and
take the replica's new state and output from it, and replace the
replica's roster position in the configuration's ``states`` and
``delivered`` tuples (``core.replace_at``).  A replica's ``delivered`` set
includes the messages its own updates sent and self-applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .core import (
    Config,
    Event,
    Input,
    Message,
    Output,
    ReplicaId,
    Step,
    System,
    bcast,
    canon_set,
    causal_past,
    delivery_order,
    mint,
    query_step,
    replace_at,
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
    obj: OpObject, c: Config, k: int, m: Message, discipline: str
) -> bool:
    """The delivery gate of m at the replica in roster position k."""
    by_value = obj.message_identity == IDENTITY_VALUE
    dlv = c.delivered[k]
    if by_value:
        dlv = {m2.payload for m2 in dlv}
    if (m.payload if by_value else m) in dlv:
        return False
    if discipline == RELIABLE_ONLY:
        return True
    # m and c.sent come from one configuration, so core.happens_before's
    # origin-component rule orders them; m's causal past is read once for
    # all of c.sent, and tests compare this gate with happens_before.
    past = causal_past(m)
    for m2 in c.sent:
        if past.get(m2.origin, 0) >= m2.seq:
            if (m2.payload if by_value else m2) not in dlv:
                return False
    return True


def op_mk_update(
    obj: OpObject, roster: tuple[ReplicaId, ...], c: Config, r: ReplicaId, op
) -> Step:
    """One OpUpdate rule instance: prep, self-apply, broadcast."""
    k = roster.index(r)
    i = Input.upd(op)
    dlv = c.delivered[k]
    s2, out = op_replica_step(obj, r, c.states[k], i, dlv)
    m = out.message
    return Event.of(r, i, out), Config(
        replace_at(c.states, k, s2),
        bcast(r, m, c.buffer, roster, obj.message_identity == IDENTITY_VALUE),
        canon_set(c.sent | {m}),
        replace_at(c.delivered, k, canon_set(dlv | {m})),
        canon_set(c.used_ops | {(r, op)}),
    )


def op_mk_deliver(
    obj: OpObject,
    roster: tuple[ReplicaId, ...],
    c: Config,
    r: ReplicaId,
    m: Message,
    discipline: str = CAUSAL,
) -> Step | None:
    """One OpDeliver instance; None when the delivery gate blocks it."""
    k = roster.index(r)
    if (r, m) not in c.buffer or not _delivery_enabled(obj, c, k, m, discipline):
        return None
    i = Input.dlvr(m)
    s2, out = op_replica_step(obj, r, c.states[k], i)
    return Event.of(r, i, out), Config(
        replace_at(c.states, k, s2),
        canon_set(c.buffer - {(r, m)}),
        c.sent,
        replace_at(c.delivered, k, canon_set(c.delivered[k] | {m})),
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
    already recorded in used_ops does not fire again.  The buffer's order
    and each query's event come from the check scope's tables, so only the
    first configuration with a given buffer sorts it and only the first
    with a given replica state evaluates a query there; each query step's
    successor is c itself.  Every delivery still goes through
    ``op_mk_deliver``."""
    out: list[Step] = []
    for r in roster:
        for op in obj.ops:
            if (r, op) not in c.used_ops:
                out.append(op_mk_update(obj, roster, c, r, op))
    for r in roster:
        for q in obj.queries:
            out.append(query_step(obj, roster, c, r, q))
    for r, m in delivery_order(c.buffer):
        step = op_mk_deliver(obj, roster, c, r, m, discipline)
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
