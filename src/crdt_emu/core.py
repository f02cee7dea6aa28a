"""Identifiers, vector clocks, messages, events, traces and the causal-order
machinery shared by the op-based and state-based semantics.

Everything here is an immutable value; traces are persistent cons lists so
exploration branches share structure instead of copying.

Values are hash-consed (Filliâtre & Conchon, *Type-safe modular
hash-consing*, 2006): the factories ``FrozenDict.of``/``FrozenDict.set``,
``VectorClock.make`` (behind ``of``/``tick``/``join``), ``Message.make``, the
``Input``/``Output``/``Label`` static constructors, ``Event.of`` and
``canon_set`` return the one live object per equal content, so configurations
reached along different paths share their maps, clocks, messages, events and
frozensets (buffers, sent sets, used-op sets).  Each class has its own table
holding weak references; an entry disappears with the last object that refers
to its value, so the tables need no size bound and never keep a finished
check's values alive.  Identity is only a speed-up: ``__eq__`` and
``__hash__`` stay structural, and the plain constructors still build equal,
non-canonical values.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Any, Iterator, Mapping
from weakref import KeyedRef, ref

ReplicaId = str
Op = tuple          # operation token, e.g. ("add", 5) or ("inc",)
QueryId = str


class Ordering(Enum):
    EQUAL = "equal"
    LESS = "less"
    GREATER = "greater"
    CONCURRENT = "concurrent"


# --- hash-consing ---------------------------------------------------------------


class _InternTable:
    """Content key -> weak reference to the canonical value with that content.

    The reference's callback drops the entry when the value dies, so the table
    holds only values that something else still references."""

    __slots__ = ("refs", "_drop")

    def __init__(self):
        refs: dict = {}
        self.refs = refs

        def drop(ref, refs=refs):
            if refs.get(ref.key) is ref:
                del refs[ref.key]

        self._drop = drop

    def canon(self, key, build, *args):
        """The live value stored under key, else ``build(*args)`` stored."""
        ref = self.refs.get(key)
        if ref is not None:
            hit = ref()
            if hit is not None:
                return hit
        value = build(*args)
        self.refs[key] = KeyedRef(value, self._drop, key)
        return value

    def __len__(self) -> int:
        return len(self.refs)


class _SetTable:
    """Weak reference to the canonical frozenset -> that same reference.

    A frozenset is its own content key.  A weak reference hashes as its
    referent and, while both referents live, compares as they do, so a
    candidate is looked up through ``ref(candidate)`` without keeping it.
    A dead reference still hashes as before and equals only itself, which
    lets its callback find and drop the entry."""

    __slots__ = ("refs", "_drop")

    def __init__(self):
        refs: dict = {}
        self.refs = refs

        def drop(dead, refs=refs):
            if refs.get(dead) is dead:
                del refs[dead]

        self._drop = drop

    def canon(self, s: frozenset) -> frozenset:
        """The live set equal to s, else s stored as canonical."""
        hit = self.refs.get(ref(s))
        if hit is not None:
            live = hit()
            if live is not None:
                return live
        key = ref(s, self._drop)
        self.refs[key] = key
        return s

    def __len__(self) -> int:
        return len(self.refs)


_FROZEN_DICTS = _InternTable()
_CLOCKS = _InternTable()
_MESSAGE_IDS = _InternTable()
_MESSAGES = _InternTable()
_INPUTS = _InternTable()
_OUTPUTS = _InternTable()
_LABELS = _InternTable()
_EVENTS = _InternTable()
_FROZENSETS = _SetTable()

_TABLES = {
    "FrozenDict": _FROZEN_DICTS,
    "VectorClock": _CLOCKS,
    "MessageId": _MESSAGE_IDS,
    "Message": _MESSAGES,
    "Input": _INPUTS,
    "Output": _OUTPUTS,
    "Label": _LABELS,
    "Event": _EVENTS,
    "frozenset": _FROZENSETS,
}


def canon_set(s: frozenset) -> frozenset:
    """The canonical frozenset equal to s."""
    return _FROZENSETS.canon(s)


def intern_table_sizes() -> dict[str, int]:
    """Live entries per hash-consing table."""
    return {name: len(table) for name, table in _TABLES.items()}


class _Weak:
    """Slotted base that lets slotted dataclasses be weakly referenced (the
    ``weakref_slot`` dataclass option needs Python 3.11)."""

    __slots__ = ("__weakref__",)


class FrozenDict(Mapping):
    """Immutable, hashable mapping with deterministic (sorted-key) iteration."""

    __slots__ = ("_map", "_items", "_hash", "__weakref__")

    def __init__(self, mapping: Mapping | tuple = ()):
        m = dict(mapping)
        self._map = m
        self._items = tuple(sorted(m.items(), key=lambda kv: kv[0]))
        self._hash = hash(self._items)

    @staticmethod
    def _from_sorted(items: tuple) -> "FrozenDict":
        """The canonical map with these key-sorted items."""
        return _FROZEN_DICTS.canon(items, FrozenDict._build, items)

    @staticmethod
    def _build(items: tuple) -> "FrozenDict":
        self = FrozenDict.__new__(FrozenDict)
        self._map = dict(items)
        self._items = items
        self._hash = hash(items)
        return self

    @staticmethod
    def of(mapping: Mapping) -> "FrozenDict":
        """The canonical map equal to ``mapping``."""
        items = tuple(sorted(dict(mapping).items(), key=lambda kv: kv[0]))
        return FrozenDict._from_sorted(items)

    def __getitem__(self, key):
        return self._map[key]

    def __iter__(self) -> Iterator:
        return iter(k for k, _ in self._items)

    def __len__(self) -> int:
        return len(self._map)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if isinstance(other, FrozenDict):
            return self._hash == other._hash and self._items == other._items
        return NotImplemented

    def set(self, key, value) -> "FrozenDict":
        # Items stay sorted; splice without re-sorting.
        items = self._items
        for i, (k, _) in enumerate(items):
            if k == key:
                return FrozenDict._from_sorted(items[:i] + ((key, value),) + items[i + 1 :])
            if k > key:
                return FrozenDict._from_sorted(items[:i] + ((key, value),) + items[i:])
        return FrozenDict._from_sorted(items + ((key, value),))

    def get(self, key, default=None):
        return self._map.get(key, default)

    def items(self):
        return self._items

    def __repr__(self) -> str:
        body = ", ".join(f"{k!r}: {v!r}" for k, v in self._items)
        return "{" + body + "}"


@dataclass(frozen=True, slots=True)
class VectorClock(_Weak):
    """Per-replica counters; absent entries read as 0.

    Pointwise comparison of clocks is the partial order used for the
    happens-before relation on messages.
    """

    entries: tuple[tuple[ReplicaId, int], ...] = ()

    @staticmethod
    def make(entries: tuple[tuple[ReplicaId, int], ...]) -> "VectorClock":
        """The canonical clock with these replica-sorted, positive entries."""
        return _CLOCKS.canon(entries, VectorClock, entries)

    @staticmethod
    def of(mapping: Mapping[ReplicaId, int]) -> "VectorClock":
        return VectorClock.make(tuple(sorted((r, n) for r, n in mapping.items() if n > 0)))

    def get(self, r: ReplicaId) -> int:
        for rr, n in self.entries:
            if rr == r:
                return n
        return 0

    def tick(self, r: ReplicaId) -> "VectorClock":
        entries = self.entries
        for i, (rr, n) in enumerate(entries):
            if rr == r:
                return VectorClock.make(entries[:i] + ((r, n + 1),) + entries[i + 1 :])
            if rr > r:
                return VectorClock.make(entries[:i] + ((r, 1),) + entries[i:])
        return VectorClock.make(entries + ((r, 1),))

    def join(self, other: "VectorClock") -> "VectorClock":
        if not other.entries:
            return self
        if not self.entries:
            return other
        m = dict(self.entries)
        for r, n in other.entries:
            if n > m.get(r, 0):
                m[r] = n
        return VectorClock.make(tuple(sorted(m.items())))

    def compare(self, other: "VectorClock") -> Ordering:
        le = ge = True
        keys = {r for r, _ in self.entries} | {r for r, _ in other.entries}
        for r in keys:
            a, b = self.get(r), other.get(r)
            if a < b:
                ge = False
            elif a > b:
                le = False
        if le and ge:
            return Ordering.EQUAL
        if le:
            return Ordering.LESS
        if ge:
            return Ordering.GREATER
        return Ordering.CONCURRENT

    def as_dict(self) -> dict[ReplicaId, int]:
        return dict(self.entries)


def vc_compare(a: VectorClock, b: VectorClock) -> Ordering:
    """Decide the pointwise partial order between two clocks."""
    return a.compare(b)


@dataclass(frozen=True, slots=True)
class MessageId(_Weak):
    origin: ReplicaId
    seq: int

    def sort_key(self) -> tuple:
        return (self.origin, self.seq)


@dataclass(frozen=True, slots=True)
class Message(_Weak):
    """A broadcast payload stamped with a unique (origin, seq) id and the
    sender's clock at send time.

    Within a single execution ids are never reused, so id equality and
    structural equality coincide there; structural equality is used so that
    messages from different exploration branches never collide.  Messages
    built by ``make`` are hash-consed, so equality is usually an identity hit.
    """

    id: MessageId
    clock: VectorClock
    payload: Any
    _hash: int = dc_field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.id, self.clock, self.payload)))

    @staticmethod
    def make(origin: ReplicaId, seq: int, clock: VectorClock, payload: Any) -> "Message":
        """The canonical message with this id, clock and payload."""
        key = (origin, seq, clock, payload)
        return _MESSAGES.canon(key, _new_message, origin, seq, clock, payload)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Message):
            return NotImplemented
        if self._hash != other._hash:
            return False
        return (
            self.id == other.id
            and self.clock == other.clock
            and self.payload == other.payload
        )

    def sort_key(self) -> tuple:
        return self.id.sort_key()


def _new_message(origin: ReplicaId, seq: int, clock: VectorClock, payload: Any) -> Message:
    return Message(_MESSAGE_IDS.canon((origin, seq), MessageId, origin, seq), clock, payload)


def happens_before(m1: Message, m2: Message) -> bool:
    """m1 is a strict causal predecessor of m2 (clock strictly below)."""
    return vc_compare(m1.clock, m2.clock) is Ordering.LESS


def causal_past(m: Message) -> dict[ReplicaId, int]:
    """The highest seq that m's sender had seen from each origin when it sent
    m: m's clock with m's own send taken back out (clock[origin] == seq for
    every minted message).  For two messages of one execution, m2 happens
    before m iff causal_past(m).get(m2.id.origin, 0) >= m2.id.seq (Schwarz &
    Mattern, 1994).  Two executions can mint the same (origin, seq) with
    different payloads, so never compare messages of different
    configurations, or keep the result in a cache shared across them."""
    past = dict(m.clock.entries)
    past[m.id.origin] = m.id.seq - 1
    return past


def concurrent(m1: Message, m2: Message) -> bool:
    return not happens_before(m1, m2) and not happens_before(m2, m1)


# --- events -----------------------------------------------------------------

IN_NONE = "none"
IN_UPD = "upd"
IN_QRY = "qry"
IN_DLVR = "dlvr"

OUT_NONE = "none"
OUT_RET = "ret"
OUT_SEND = "send"


@dataclass(frozen=True, slots=True)
class Input(_Weak):
    kind: str
    op: Op | None = None
    query: QueryId | None = None
    message: Message | None = None

    @staticmethod
    def none() -> "Input":
        return INPUT_NONE

    @staticmethod
    def upd(op: Op) -> "Input":
        return _INPUTS.canon((IN_UPD, op), Input, IN_UPD, op)

    @staticmethod
    def qry(q: QueryId) -> "Input":
        return _INPUTS.canon((IN_QRY, q), Input, IN_QRY, None, q)

    @staticmethod
    def dlvr(m: Message) -> "Input":
        return _INPUTS.canon((IN_DLVR, m), Input, IN_DLVR, None, None, m)


@dataclass(frozen=True, slots=True)
class Output(_Weak):
    kind: str
    value: Any = None
    message: Message | None = None

    @staticmethod
    def none() -> "Output":
        return OUTPUT_NONE

    @staticmethod
    def ret(v: Any) -> "Output":
        return _OUTPUTS.canon((OUT_RET, v), Output, OUT_RET, v)

    @staticmethod
    def send(m: Message) -> "Output":
        return _OUTPUTS.canon((OUT_SEND, m), Output, OUT_SEND, None, m)


INPUT_NONE = Input(IN_NONE)
OUTPUT_NONE = Output(OUT_NONE)


@dataclass(frozen=True, slots=True)
class Event(_Weak):
    """One replica transition: (replica, input, output)."""

    replica: ReplicaId
    input: Input
    output: Output

    @staticmethod
    def of(r: ReplicaId, i: Input, o: Output) -> "Event":
        """The canonical event with these parts."""
        return _EVENTS.canon((r, i, o), Event, r, i, o)


@dataclass(frozen=True, slots=True, eq=False)
class Trace:
    """Append-only event trace as a persistent cons list (newest at head)."""

    head: Event | None
    tail: "Trace | None"
    length: int

    def append(self, e: Event) -> "Trace":
        return Trace(e, self, self.length + 1)

    def events(self) -> tuple[Event, ...]:
        """Materialize oldest-first."""
        out = []
        node = self
        while node.head is not None:
            out.append(node.head)
            node = node.tail  # type: ignore[assignment]
        out.reverse()
        return tuple(out)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events())

    def __len__(self) -> int:
        return self.length


TRACE_EMPTY = Trace(None, None, 0)


# --- labels -----------------------------------------------------------------

LBL_UPDATE = "update"
LBL_QUERY = "query"
LBL_TAU = "tau"


@dataclass(frozen=True, slots=True)
class Label(_Weak):
    """System-level transition label; tau labels are the silent ones."""

    kind: str
    replica: ReplicaId | None = None
    op: Op | None = None
    query: QueryId | None = None
    value: Any = None
    silent: str | None = None  # "dlvr" | "send"

    @staticmethod
    def update(r: ReplicaId, op: Op) -> "Label":
        return _LABELS.canon((LBL_UPDATE, r, op), Label, LBL_UPDATE, r, op)

    @staticmethod
    def qry(r: ReplicaId, q: QueryId, v: Any) -> "Label":
        return _LABELS.canon((LBL_QUERY, r, q, v), Label, LBL_QUERY, r, None, q, v)

    @staticmethod
    def tau(kind: str, r: ReplicaId) -> "Label":
        return _LABELS.canon((LBL_TAU, r, kind), Label, LBL_TAU, r, None, None, None, kind)

    @property
    def is_silent(self) -> bool:
        return self.kind == LBL_TAU

    def obs_key(self) -> tuple | None:
        """Observable identity used for weak matching; None for tau."""
        if self.kind == LBL_UPDATE:
            return (LBL_UPDATE, self.replica, self.op)
        if self.kind == LBL_QUERY:
            return (LBL_QUERY, self.replica, self.query, self.value)
        return None


# --- trace-level causal machinery -------------------------------------------


def sent(t: Trace) -> frozenset[Message]:
    """All messages carried by a send output anywhere in the trace."""
    out = set()
    for e in t:
        if e.output.kind == OUT_SEND:
            out.add(e.output.message)
    return frozenset(out)


def delivered(r: ReplicaId, t: Trace) -> frozenset[Message]:
    """Messages r consumed: dlvr events plus messages r generated and
    self-applied during upd events."""
    out = set()
    for e in t:
        if e.replica != r:
            continue
        if e.input.kind == IN_DLVR:
            out.add(e.input.message)
        elif e.input.kind == IN_UPD and e.output.kind == OUT_SEND:
            out.add(e.output.message)
    return frozenset(out)


def downset_of(m: Message, sent_set: frozenset[Message]) -> frozenset[Message]:
    return frozenset(m2 for m2 in sent_set if happens_before(m2, m)) | {m}


def downset(m: Message, t: Trace) -> frozenset[Message]:
    """m together with its causal predecessors among the sent messages."""
    s = sent(t)
    if m not in s:
        raise ValueError(f"downset: message {m.id} was never sent in this trace")
    return downset_of(m, s)


def enabled(r: ReplicaId, m: Message, t: Trace) -> bool:
    """Deliverability of m at r: not yet delivered there, and every causal
    predecessor already consumed by r (delivered or self-generated)."""
    dlvrd = set()
    for e in t:
        if e.replica == r and e.input.kind == IN_DLVR:
            dlvrd.add(e.input.message)
    if m in dlvrd:
        return False
    consumed = delivered(r, t)
    for m2 in sent(t):
        if happens_before(m2, m) and m2 not in consumed:
            return False
    return True


def satisfies_causal_delivery(t: Trace) -> bool:
    """No replica's dlvr events invert the causal order (brute force over
    all pairs of dlvr events per replica)."""
    per_replica: dict[ReplicaId, list[Message]] = {}
    for e in t:
        if e.input.kind == IN_DLVR:
            per_replica.setdefault(e.replica, []).append(e.input.message)
    for msgs in per_replica.values():
        for i, mi in enumerate(msgs):
            for mj in msgs[i + 1 :]:
                if happens_before(mj, mi):
                    return False
    return True


def buffer_add(
    buffer: frozenset[tuple[ReplicaId, Message]],
    dest: ReplicaId,
    m: Message,
    by_value: bool,
) -> frozenset[tuple[ReplicaId, Message]]:
    if by_value:
        for r2, m2 in buffer:
            if r2 == dest and m2.payload == m.payload:
                return buffer
    return buffer | {(dest, m)}


def bcast(
    r: ReplicaId,
    m: Message,
    buffer: frozenset[tuple[ReplicaId, Message]],
    roster: tuple[ReplicaId, ...],
    by_value: bool = False,
) -> frozenset[tuple[ReplicaId, Message]]:
    """Add one copy of m per destination replica other than the sender; the
    result is canonical."""
    out = buffer
    for r2 in roster:
        if r2 != r:
            out = buffer_add(out, r2, m, by_value)
    return canon_set(out)


# --- canonical ordering / rendering ------------------------------------------


def canon_key(v: Any) -> tuple:
    """Total, deterministic sort key over the value shapes used in states,
    payloads and stores."""
    if v is None:
        return (0,)
    if isinstance(v, bool):
        return (1, int(v))
    if isinstance(v, int):
        return (2, v)
    if isinstance(v, str):
        return (3, v)
    if isinstance(v, MessageId):
        return (4, v.origin, v.seq)
    if isinstance(v, VectorClock):
        return (5, v.entries)
    if isinstance(v, Message):
        return (6, v.id.origin, v.id.seq, v.clock.entries, canon_key(v.payload))
    if isinstance(v, tuple):
        return (7, tuple(canon_key(x) for x in v))
    if isinstance(v, frozenset):
        return (8, tuple(sorted(canon_key(x) for x in v)))
    if isinstance(v, FrozenDict):
        return (9, tuple((k, canon_key(x)) for k, x in v.items()))
    raise TypeError(f"canon_key: unsupported value {v!r}")


def render(v: Any) -> Any:
    """Render a value as JSON-compatible data, deterministically ordered."""
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, MessageId):
        return {"origin": v.origin, "seq": v.seq}
    if isinstance(v, VectorClock):
        return {r: n for r, n in v.entries}
    if isinstance(v, Message):
        return {
            "origin": v.id.origin,
            "seq": v.id.seq,
            "clock": render(v.clock),
            "payload": render(v.payload),
        }
    if isinstance(v, tuple):
        return [render(x) for x in v]
    if isinstance(v, frozenset):
        return [render(x) for x in sorted(v, key=canon_key)]
    if isinstance(v, FrozenDict):
        return {str(k): render(x) for k, x in v.items()}
    raise TypeError(f"render: unsupported value {v!r}")


def render_input(i: Input) -> dict:
    out: dict[str, Any] = {"kind": i.kind}
    if i.kind == IN_UPD:
        out["op"] = list(i.op)  # type: ignore[arg-type]
    elif i.kind == IN_QRY:
        out["query"] = i.query
    elif i.kind == IN_DLVR:
        out["message"] = render(i.message)
    return out


def render_output(o: Output) -> dict:
    out: dict[str, Any] = {"kind": o.kind}
    if o.kind == OUT_RET:
        out["value"] = render(o.value)
    elif o.kind == OUT_SEND:
        out["message"] = render(o.message)
    return out


def render_event(e: Event) -> dict:
    return {
        "replica": e.replica,
        "input": render_input(e.input),
        "output": render_output(e.output),
    }
