"""The two emulation transformers and the message-set interpretation.

Op-based to state-based: guest states are finite message sets under union;
a guest update interprets its current set back into a host state, preps a
fresh message against it, and inserts it.  Host and guest mint with one
function, ``core.mint``, from the messages the replica has consumed: the
host's delivered set, the guest's state.  So the guest's message carries the
same origin and clock the op-based host mints in the matched execution.

State-based to op-based: guest messages *are* host states; effect is join,
so all message effects commute and identity is by payload value.
"""

from __future__ import annotations

from typing import Any

from .core import INTERP_MEMO, Message, Op, QueryId, ReplicaId, happens_before, mint
from .objects import IDENTITY_VALUE, OpObject, StObject

MessageSetState = frozenset  # frozenset[Message]

# Interpretation results per object, keyed by the exact message set.  The
# checker interprets heavily-overlapping sets, so the peel-one-recurse shape
# makes most calls a single lookup.  The memo lives in ``core`` and is
# emptied with the hash-consing tables when the outermost check returns.
_interp_memo: "dict[OpObject, dict]" = INTERP_MEMO


def max_set(h: MessageSetState) -> frozenset[Message]:
    """Causally maximal members of h; any two of them are concurrent."""
    return frozenset(
        m for m in h if not any(happens_before(m, m2) for m2 in h)
    )


def interp(h: MessageSetState, obj: OpObject) -> Any:
    """Fold a message set into a host state by repeatedly peeling a maximal
    message (smallest id first, for reproducibility) and applying its effect
    on top of the interpretation of the rest.

    Concurrent effects commute for a law-abiding object, so the result does
    not depend on the peeling choice; the commutation sweep checks that, and
    the tests hold interp against every linear extension of the causal
    order.
    """
    return _interp(h, obj)


def _interp(h: MessageSetState, obj: OpObject) -> Any:
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
        m = min(max_set(h), key=Message.sort_key)
        peeled.append((h, m))
        h = h - {m}
    else:
        state = obj.initial
    for whole, m in reversed(peeled):
        state = obj.effect(m.payload, state)
        memo[whole] = state
    return state


def op_to_st(obj: OpObject) -> StObject:
    """Construct the state-based guest of an op-based host: message sets under
    union, with updates inserting freshly prepped messages."""

    def update(r: ReplicaId, op: Op, h: MessageSetState) -> MessageSetState:
        payload = obj.prep(r, op, _interp(h, obj))
        return h | {mint(r, h, payload)}

    def query(q: QueryId, h: MessageSetState) -> Any:
        return obj.query(q, _interp(h, obj))

    return StObject(
        name=obj.name + "->st",
        initial=frozenset(),
        ops=obj.ops,
        queries=obj.queries,
        update=update,
        join=lambda a, b: a | b,
        query=query,
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
