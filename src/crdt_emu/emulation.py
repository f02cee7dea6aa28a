"""The two emulation transformers and the message-set interpretation.

Op-based to state-based: guest states are finite message sets under union,
held as message bitsets over the check scope's value index like the host's
``delivered`` sets: 0 is the initial state and ``|`` the join.  A guest
update interprets its current set back into a host state, preps a fresh
message against it, and sets its bit.  Host and guest mint through
``core.mint_from`` from the messages the replica has consumed: the host's
delivered set, the guest's state.  So the guest's message carries the same
origin and clock the op-based host mints in the matched execution.  Reports
read a state through the guest's decoder (``StObject.decode``).

State-based to op-based: guest messages *are* host states; effect is join,
so all message effects commute and identity is by payload value.
"""

from __future__ import annotations

from typing import Any

from .core import (
    INTERP_MEMO, VALUES, Op, QueryId, ReplicaId, bits, downset_bits, mint_from, value_bit,
)
from .objects import IDENTITY_VALUE, OpObject, StObject

# Interpretation results per object, keyed by the exact message bitset.  The
# checker interprets heavily-overlapping sets, so the peel-one-recurse shape
# makes most calls a single lookup.  The memo lives in ``core`` and is
# emptied with the hash-consing tables when the outermost check returns.
_interp_memo: "dict[OpObject, dict]" = INTERP_MEMO


def interp(h: int, obj: OpObject) -> Any:
    """Fold a message bitset into a host state by repeatedly peeling a
    maximal message (smallest (origin, seq) first, for reproducibility) and
    applying its effect on top of the interpretation of the rest.

    Concurrent effects commute for a law-abiding object, so the result does
    not depend on the peeling choice; the commutation sweep checks that, and
    the tests hold interp against every linear extension of the causal
    order.
    """
    return _interp(h, obj)


def _maximal(h: int) -> int:
    """The causally maximal messages of the message bitset h, as a bitset:
    those in no other's downset in h (``core.downset_bits``)."""
    below = 0
    for b in bits(h):
        below |= downset_bits(b, h) ^ 1 << b
    return h & ~below


def _interp(h: int, obj: OpObject) -> Any:
    """The body of ``interp``, which the guest's update and query in
    ``op_to_st`` call directly: peel down to the largest memoized (or empty)
    subset, then apply the peeled effects back up, memoizing every set on
    the way.  The object's memo is looked up on each call, never captured,
    because it is emptied between checks."""
    memo = _interp_memo.setdefault(obj, {})
    peeled = []
    while h:
        state = memo.get(h)
        if state is not None or h in memo:
            break
        b = min(bits(_maximal(h)), key=lambda b: VALUES[b].sort_key())
        peeled.append((h, VALUES[b].payload))
        h ^= 1 << b
    else:
        state = obj.initial
    for whole, payload in reversed(peeled):
        state = obj.effect(payload, state)
        memo[whole] = state
    return state


def op_to_st(obj: OpObject) -> StObject:
    """Construct the state-based guest of an op-based host: message bitsets
    under union, with updates setting the bit of a freshly prepped
    message."""

    def update(r: ReplicaId, op: Op, h: int) -> int:
        payload = obj.prep(r, op, _interp(h, obj))
        return h | 1 << value_bit(mint_from(r, h, payload))

    def query(q: QueryId, h: int) -> Any:
        return obj.query(q, _interp(h, obj))

    return StObject(
        name=obj.name + "->st",
        initial=0,
        ops=obj.ops,
        queries=obj.queries,
        update=update,
        join=lambda a, b: a | b,
        query=query,
        decode=lambda h: frozenset(VALUES[b] for b in bits(h)),
    )


def st_to_op(obj: StObject) -> OpObject:
    """Construct the op-based guest of a state-based host: messages are host
    states, prep is the host update and effect is the join.  Message identity
    is by payload value, matching the state-based delivery dedup."""
    return OpObject(
        name=obj.name + "->op",
        initial=obj.initial,
        ops=obj.ops,
        queries=obj.queries,
        prep=lambda r, op, s: obj.update(r, op, s),
        effect=lambda payload, s: obj.join(s, payload),
        query=obj.query,
        message_identity=IDENTITY_VALUE,
    )
