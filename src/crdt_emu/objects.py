"""Pluggable CRDT object definitions.

An op-based object supplies ``prep``/``effect``/``query`` over message
payloads; a state-based object supplies ``update``/``join``/``query`` over a
join-semilattice.  Shipped objects: the grow-only set in both styles and a
grow-only counter, plus the history-carrying augmentation combinator used by
the strong-convergence transfer check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable

from .core import VALUES, FrozenDict, Op, QueryId, ReplicaId, concurrent, delivery_order

# Message identity regimes for op-based objects.  "id" is the normal case:
# messages are distinct as (origin, clock, payload) values, and within one
# execution by their origin and seq.  "value" is used by guests whose
# messages *are* lattice states: buffer membership and delivery dedup then key
# on the payload value, mirroring the state-based dedup premise.
IDENTITY_ID = "id"
IDENTITY_VALUE = "value"


# Object definitions compare and hash by identity: their functions compare by
# identity anyway, and the interpretation memo looks an object up on every
# interpretation of a message set (``emulation._interp``).


@dataclass(frozen=True, eq=False)
class OpObject:
    name: str
    initial: Any
    ops: tuple[Op, ...]
    queries: tuple[QueryId, ...]
    prep: Callable[[ReplicaId, Op, Any], Any]
    effect: Callable[[Any, Any], Any]
    query: Callable[[QueryId, Any], Any]
    message_identity: str = IDENTITY_ID


@dataclass(frozen=True, eq=False)
class StObject:
    name: str
    initial: Any
    ops: tuple[Op, ...]
    queries: tuple[QueryId, ...]
    update: Callable[[ReplicaId, Op, Any], Any]
    join: Callable[[Any, Any], Any]
    query: Callable[[QueryId, Any], Any]


def st_leq(obj: StObject, a: Any, b: Any) -> bool:
    """Lattice order induced by join: a <= b iff a ⊔ b = b."""
    return obj.join(a, b) == b


# --- shipped objects ----------------------------------------------------------


def _sum_query(q: QueryId, values: Iterable[int]) -> int:
    if q != "sum":
        raise ValueError(f"unknown query {q!r}: this object answers only 'sum'")
    return sum(values)


def gset_op(values: tuple[int, ...] = (5, 42)) -> OpObject:
    """Op-based grow-only integer set: add[k] broadcasts an insert-k payload,
    query sums the elements."""
    return OpObject(
        name="gset-op",
        initial=frozenset(),
        ops=tuple(("add", k) for k in values),
        queries=("sum",),
        prep=lambda r, op, s: op[1],
        effect=lambda payload, s: s | {payload},
        query=_sum_query,
    )


def gset_st(values: tuple[int, ...] = (5, 42)) -> StObject:
    """State-based grow-only integer set: (P(N), ∪) with sum query."""
    return StObject(
        name="gset-st",
        initial=frozenset(),
        ops=tuple(("add", k) for k in values),
        queries=("sum",),
        update=lambda r, op, s: s | {op[1]},
        join=lambda a, b: a | b,
        query=_sum_query,
    )


def _gcounter_join(a: FrozenDict, b: FrozenDict) -> FrozenDict:
    m = dict(a.items())
    for r, n in b.items():
        m[r] = max(m.get(r, 0), n)
    return FrozenDict.of(m)


def gcounter_st() -> StObject:
    """State-based grow-only counter: replica->count maps joined pointwise."""
    return StObject(
        name="gcounter-st",
        initial=FrozenDict.of({}),
        ops=(("inc",),),
        queries=("sum",),
        update=lambda r, op, s: s.set(r, s.get(r, 0) + 1),
        join=_gcounter_join,
        query=lambda q, s: _sum_query(q, (n for _, n in s.items())),
    )


def _add_values(name: str, ops: tuple[Op, ...]) -> tuple[int, ...]:
    for op in ops:
        if not (op[0] == "add" and len(op) == 2 and isinstance(op[1], int)):
            raise ValueError(f"{name} supports add[k] operations only, got {op!r}")
    if not ops:
        raise ValueError("op_universe must list at least one operation")
    return tuple(op[1] for op in ops)


def _gcounter_for(ops: tuple[Op, ...]) -> StObject:
    for op in ops:
        if op != ("inc",):
            raise ValueError(f"gcounter-st supports inc only, got {op!r}")
    if len(ops) != 1:
        raise ValueError("gcounter-st op_universe is [['inc']]")
    return gcounter_st()


# Shipped objects by scenario name.  Each entry builds its object over the
# given operation universe and raises ValueError on operations it lacks.
BUILTIN_OBJECTS: dict[str, Callable[[tuple[Op, ...]], OpObject | StObject]] = {
    "gset-op": lambda ops: gset_op(_add_values("gset-op", ops)),
    "gset-st": lambda ops: gset_st(_add_values("gset-st", ops)),
    "gcounter-st": _gcounter_for,
}


# --- history augmentation ------------------------------------------------------
#
# States become (s, h) where h is a set of operation occurrences.  Occurrences
# are made unique by tagging with (replica, per-replica occurrence index, op);
# the index is recovered from the history itself, since a replica's own
# occurrences always reach its local history immediately.


def _occurrence(r: ReplicaId, op: Op, h: frozenset) -> tuple:
    n = sum(1 for tok in h if tok[0] == r)
    return (r, n + 1, op)


def augment_history_op(o: OpObject) -> OpObject:
    def prep(r: ReplicaId, op: Op, state: tuple) -> tuple:
        s, h = state
        return (o.prep(r, op, s), frozenset({_occurrence(r, op, h)}))

    def effect(payload: tuple, state: tuple) -> tuple:
        mp, h2 = payload
        s, h = state
        return (o.effect(mp, s), h | h2)

    def query(q: QueryId, state: tuple) -> tuple:
        s, h = state
        return (o.query(q, s), h)

    return OpObject(
        name=o.name + "+hist",
        initial=(o.initial, frozenset()),
        ops=o.ops,
        queries=o.queries,
        prep=prep,
        effect=effect,
        query=query,
        message_identity=o.message_identity,
    )


def augment_history_st(o: StObject) -> StObject:
    def update(r: ReplicaId, op: Op, state: tuple) -> tuple:
        s, h = state
        return (o.update(r, op, s), h | {_occurrence(r, op, h)})

    def join(a: tuple, b: tuple) -> tuple:
        return (o.join(a[0], b[0]), a[1] | b[1])

    def query(q: QueryId, state: tuple) -> tuple:
        s, h = state
        return (o.query(q, s), h)

    return StObject(
        name=o.name + "+hist",
        initial=(o.initial, frozenset()),
        ops=o.ops,
        queries=o.queries,
        update=update,
        join=join,
        query=query,
    )


def break_query(o: OpObject | StObject, value: Any = 0) -> OpObject | StObject:
    """Pathological guest for negative tests: queries return a constant."""
    return replace(o, name=o.name + "+broken", query=lambda q, s: value)


# --- concurrent commutation ----------------------------------------------------


@dataclass(frozen=True)
class CommutationReport:
    pairs_checked: int
    violations: tuple[tuple, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_concurrent_commutation(
    obj: OpObject, roster: tuple[ReplicaId, ...], configs
) -> CommutationReport:
    """For every sampled configuration of a system over roster, every
    replica and every pair of concurrent messages buffered there: both
    delivery orders must agree.  A replica's buffered messages are read in
    delivery order (``core.delivery_order``), and its state at its roster
    position; the configurations must come from the caller's scope."""
    checked = 0
    violations = []
    for cfg in configs:
        by_position: dict[int, list] = {}
        for k, v in delivery_order(roster, cfg.buffer):
            by_position.setdefault(k, []).append(VALUES[v])
        for k, msgs in by_position.items():
            r, s = roster[k], cfg.states[k]
            for i, m1 in enumerate(msgs):
                for m2 in msgs[i + 1 :]:
                    if not concurrent(m1, m2):
                        continue
                    checked += 1
                    one = obj.effect(m2.payload, obj.effect(m1.payload, s))
                    two = obj.effect(m1.payload, obj.effect(m2.payload, s))
                    if one != two:
                        violations.append((r, m1, m2, one, two))
    return CommutationReport(checked, tuple(violations))
