"""Identifiers, vector clocks, messages, events, traces, the configuration
type, the system skeleton and query rule, and the causal-order machinery
shared by the op-based and state-based semantics.

Everything here is an immutable value; traces are persistent cons lists so
exploration branches share structure instead of copying.

Values are hash-consed (Filliâtre & Conchon, *Type-safe modular
hash-consing*, 2006): the factories ``FrozenDict.of``/``FrozenDict.set``,
``VectorClock.make`` (behind ``of``/``tick``/``join``), ``Message.make``, the
``Input``/``Output`` static constructors, ``Event.of`` and ``canon_set``
return one object per equal content, so configurations reached along
different paths share their maps, clocks, messages, events and frozensets
(buffers, sent sets, used-op sets), and an event or clock a step builds
again is a table hit.  A system step is labelled by its event alone
(``Event.obs_key``).  Each class has its own table of plain references,
whose lifetime is one check: every check, ``explore`` and library search
runs inside ``intern_scope``, and when the outermost scope exits every
table is emptied, together with the message-set interpretation memo
(``INTERP_MEMO``), so a finished check keeps none of its values alive.
Identity is only a speed-up: ``__eq__`` and ``__hash__`` stay structural,
so values that outlive their check (verdicts, witnesses) stay correct
against the next check's canonical values, and the plain constructors still
build equal, non-canonical values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Any, Iterable, Iterator, Mapping

ReplicaId = str
Op = tuple          # operation token, e.g. ("add", 5) or ("inc",)
QueryId = str


class Ordering(Enum):
    EQUAL = "equal"
    LESS = "less"
    GREATER = "greater"
    CONCURRENT = "concurrent"


# --- hash-consing ---------------------------------------------------------------

# One table per class, content key -> the canonical value with that content;
# a frozenset is its own key.  Plain dicts: a value stays canonical until the
# outermost ``intern_scope`` exits and empties every table.
_FROZEN_DICTS: dict = {}
_CLOCKS: dict = {}
_MESSAGE_IDS: dict = {}
_MESSAGES: dict = {}
_INPUTS: dict = {}
_OUTPUTS: dict = {}
_EVENTS: dict = {}
_FROZENSETS: dict = {}

_TABLES = {
    "FrozenDict": _FROZEN_DICTS,
    "VectorClock": _CLOCKS,
    "MessageId": _MESSAGE_IDS,
    "Message": _MESSAGES,
    "Input": _INPUTS,
    "Output": _OUTPUTS,
    "Event": _EVENTS,
    "frozenset": _FROZENSETS,
}

# Interpretation results of ``emulation.interp``: op object -> {message set:
# state}.  Emptied with the tables, so a later check never compares its
# message sets with those of an earlier one.
INTERP_MEMO: dict = {}

_scope_depth = 0


def _canon(table: dict, key, build, *args):
    """The value stored under key, else ``build(*args)`` stored."""
    value = table.get(key)
    if value is None:
        value = table[key] = build(*args)
    return value


def canon_set(s: frozenset) -> frozenset:
    """The canonical frozenset equal to s."""
    return _FROZENSETS.setdefault(s, s)


def intern_table_sizes() -> dict[str, int]:
    """Entries per hash-consing table."""
    return {name: len(table) for name, table in _TABLES.items()}


def intern_scope(search):
    """Run search inside the hash-consing scope.  Scopes nest by a depth
    count; when the outermost one exits, by return or by raise, every table
    and ``INTERP_MEMO`` are emptied, so a finished search keeps none of its
    values alive and the next one starts from empty tables.  Apply it to
    plain functions only: on a generator it would cover building the
    generator, not the search."""

    @functools.wraps(search)
    def scoped(*args, **kwargs):
        global _scope_depth
        _scope_depth += 1
        try:
            return search(*args, **kwargs)
        finally:
            _scope_depth -= 1
            if not _scope_depth:
                for table in _TABLES.values():
                    table.clear()
                INTERP_MEMO.clear()

    return scoped


class FrozenDict(Mapping):
    """Immutable, hashable mapping with deterministic (sorted-key) iteration."""

    __slots__ = ("_map", "_items", "_hash")

    def __init__(self, mapping: Mapping | tuple = ()):
        m = dict(mapping)
        self._map = m
        self._items = tuple(sorted(m.items(), key=lambda kv: kv[0]))
        self._hash = hash(self._items)

    @staticmethod
    def _from_sorted(items: tuple) -> "FrozenDict":
        """The canonical map with these key-sorted items."""
        return _canon(_FROZEN_DICTS, items, FrozenDict._build, items)

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
class VectorClock:
    """Per-replica counters; absent entries read as 0.

    Pointwise comparison of clocks is the partial order used for the
    happens-before relation on messages.
    """

    entries: tuple[tuple[ReplicaId, int], ...] = ()

    @staticmethod
    def make(entries: tuple[tuple[ReplicaId, int], ...]) -> "VectorClock":
        """The canonical clock with these replica-sorted, positive entries."""
        return _canon(_CLOCKS, entries, VectorClock, entries)

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


def vc_compare(a: VectorClock, b: VectorClock) -> Ordering:
    """Decide the pointwise partial order between two clocks."""
    return a.compare(b)


@dataclass(frozen=True, slots=True)
class MessageId:
    origin: ReplicaId
    seq: int

    def sort_key(self) -> tuple:
        return (self.origin, self.seq)


@dataclass(frozen=True, slots=True)
class Message:
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
        return _canon(_MESSAGES, key, _new_message, origin, seq, clock, payload)

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
    return Message(_canon(_MESSAGE_IDS, (origin, seq), MessageId, origin, seq), clock, payload)


def happens_before(m1: Message, m2: Message) -> bool:
    """m1 is a strict causal predecessor of m2 (clock strictly below)."""
    return vc_compare(m1.clock, m2.clock) is Ordering.LESS


def causal_past(m: Message) -> dict[ReplicaId, int]:
    """The highest seq that m's sender had seen from each origin when it sent
    m: m's clock with m's own send taken back out (clock[origin] == seq
    holds by construction of ``mint``).  For two messages of one execution,
    m2 happens before m iff causal_past(m).get(m2.id.origin, 0) >= m2.id.seq
    (Schwarz & Mattern, 1994).  Two executions can mint the same
    (origin, seq) with different payloads, so never compare messages of
    different configurations, or keep the result in a cache shared across
    them."""
    past = dict(m.clock.entries)
    past[m.id.origin] = m.id.seq - 1
    return past


def mint(r: ReplicaId, consumed: frozenset[Message], payload: Any) -> Message:
    """The message r sends with this payload after consuming exactly the
    messages in consumed: its clock is their clocks' join ticked at r, and
    its seq is that clock's r entry.  The join is taken in one pass, so only
    the final clock is built."""
    top: dict[ReplicaId, int] = {}
    for m in consumed:
        for rr, n in m.clock.entries:
            if n > top.get(rr, 0):
                top[rr] = n
    seq = top[r] = top.get(r, 0) + 1
    return Message.make(r, seq, VectorClock.make(tuple(sorted(top.items()))), payload)


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
class Input:
    """A replica's input.  A dlvr input's ``message`` is the delivered
    ``Message`` on op-based events and the delivered state itself on
    state-based ones."""

    kind: str
    op: Op | None = None
    query: QueryId | None = None
    message: Message | Any = None
    _hash: int = dc_field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.kind, self.op, self.query, self.message)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def none() -> "Input":
        return INPUT_NONE

    @staticmethod
    def upd(op: Op) -> "Input":
        return _canon(_INPUTS, (IN_UPD, op), Input, IN_UPD, op)

    @staticmethod
    def qry(q: QueryId) -> "Input":
        return _canon(_INPUTS, (IN_QRY, q), Input, IN_QRY, None, q)

    @staticmethod
    def dlvr(m: Message | Any) -> "Input":
        return _canon(_INPUTS, (IN_DLVR, m), Input, IN_DLVR, None, None, m)


@dataclass(frozen=True, slots=True)
class Output:
    """A replica's output.  A send output's ``message`` is the broadcast
    ``Message`` on op-based events and the sent state itself on
    state-based ones."""

    kind: str
    value: Any = None
    message: Message | Any = None
    _hash: int = dc_field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.kind, self.value, self.message)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def none() -> "Output":
        return OUTPUT_NONE

    @staticmethod
    def ret(v: Any) -> "Output":
        return _canon(_OUTPUTS, (OUT_RET, v), Output, OUT_RET, v)

    @staticmethod
    def send(m: Message | Any) -> "Output":
        return _canon(_OUTPUTS, (OUT_SEND, m), Output, OUT_SEND, None, m)


INPUT_NONE = Input(IN_NONE)
OUTPUT_NONE = Output(OUT_NONE)


@dataclass(frozen=True, slots=True)
class Event:
    """One replica transition: (replica, input, output)."""

    replica: ReplicaId
    input: Input
    output: Output

    @staticmethod
    def of(r: ReplicaId, i: Input, o: Output) -> "Event":
        """The canonical event with these parts."""
        return _canon(_EVENTS, (r, i, o), Event, r, i, o)

    def obs_key(self) -> tuple | None:
        """The observable label of the system step this event fires, used
        for weak matching: ("update", r, op) for an upd input, ("query", r,
        q, v) for a qry input answered ret(v), and None for the silent
        delivery and send steps."""
        if self.input.kind == IN_UPD:
            return ("update", self.replica, self.input.op)
        if self.input.kind == IN_QRY:
            return ("query", self.replica, self.input.query, self.output.value)
        return None


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


# --- configurations and the shared rules -----------------------------------


@dataclass(frozen=True, eq=False, slots=True)
class Config:
    """A global configuration of either semantics: the trace, each replica's
    state, the in-flight buffer, the messages sent, those each replica has
    delivered, and the (replica, op) pairs whose update has fired.  Nothing
    derivable from these is stored.  The update and delivery rules of both
    semantics fire the replica step and store its new state; queries go
    through ``query_step``.

    On op-based systems a message is a clocked ``Message``, and a replica's
    ``delivered`` set includes the messages its own updates sent and
    self-applied; its next message is minted from that set (``mint``).  On
    state-based systems a message is the sent state itself, and
    ``delivered`` holds only the states the replica received, never its own.

    Successor lists are never stored on the instance: a stored list would keep
    every configuration generated from it alive.  Only the summary is cached,
    because dedup reads it for every generated configuration."""

    trace: Trace
    states: FrozenDict            # ReplicaId -> S
    buffer: frozenset             # {(ReplicaId, message)}, one per destination
    sent: frozenset               # {message}
    delivered: FrozenDict         # ReplicaId -> frozenset[message]
    used_ops: frozenset           # {(ReplicaId, Op)} update events so far
    _summary: tuple | None = dc_field(default=None, init=False, repr=False)


def initial_config(obj, roster: tuple[ReplicaId, ...]) -> Config:
    """Every replica at the object's initial state, nothing sent."""
    if not roster:
        raise ValueError("initial_config: empty replica roster")
    if len(set(roster)) != len(roster):
        raise ValueError("initial_config: duplicate replica ids")
    empty = canon_set(frozenset())
    return Config(
        trace=TRACE_EMPTY,
        states=FrozenDict.of({r: obj.initial for r in roster}),
        buffer=empty,
        sent=empty,
        delivered=FrozenDict.of({r: empty for r in roster}),
        used_ops=empty,
    )


def query_step(obj, c: Config, r: ReplicaId, q: QueryId) -> Config:
    """The query rule of both semantics: r answers q from its state, and only
    the trace changes."""
    e = Event.of(r, Input.qry(q), Output.ret(obj.query(q, c.states[r])))
    return Config(c.trace.append(e), c.states, c.buffer, c.sent, c.delivered, c.used_ops)


@dataclass(frozen=True)
class System:
    """A system LTS over a fixed roster.  A subclass gives its rules
    (``steps``), the summary that identifies its configurations, and its
    delivery discipline or broadcast mode.  A rule returns the successor
    configuration; the step's event, from which its label is read
    (``Event.obs_key``), is the successor's ``trace.head``.  The update and
    delivery rules fire its replica step and take the replica's new state
    and output from it; the query rule is ``query_step`` and the state-based
    send emits the current state.  An op-based replica's ``delivered`` set
    includes its own messages, a state-based replica's does not (see
    ``Config``).  Each (replica, op) pair fires at most once per execution,
    which keeps the explored space finite and makes operation occurrences
    unique."""

    obj: Any
    roster: tuple[ReplicaId, ...]

    def init(self) -> Config:
        return initial_config(self.obj, self.roster)

    def query_value(self, c: Config, r: ReplicaId, q: QueryId) -> Any:
        return self.obj.query(q, c.states[r])

    @intern_scope
    def replay(self, events: Iterable[Event]) -> Config:
        """Re-execute a recorded event list from the initial configuration;
        raises if some event is not a legal step here."""
        c = self.init()
        for e in events:
            for c2 in self.steps(c):
                if c2.trace.head == e:
                    c = c2
                    break
            else:
                raise ValueError(f"replay: event {e} is not a legal step here")
        return c


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
