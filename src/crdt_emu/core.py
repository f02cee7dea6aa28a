"""Vector clocks, messages (origin, clock, payload), events, the
configuration type, the system skeleton and query rule, and the causal order
shared by the op-based and state-based semantics: one rule,
``happens_before``, orders the messages of an execution by the origin
component of the later one's clock.

Everything here is an immutable value.  A configuration holds no history: a
step is an (event, configuration) pair, and a trace is the sequence of
events along a path, which the searches rebuild from the parents they keep.
A replica is a position in its system's roster: a configuration keeps its
replicas' states and delivered sets as tuples in roster order.

Values are hash-consed (Filliâtre & Conchon, *Type-safe modular
hash-consing*, 2006): the factories ``replace_at``,
``FrozenDict.of``/``FrozenDict.set``, ``VectorClock.make`` (behind ``of``),
``Message.make``, the ``Input``/``Output`` static constructors,
``Event.of`` and ``canon_set`` return one object per equal content, so
configurations reached along different paths share their per-replica
tuples, clocks, messages, events, maps (a G-counter's states) and
frozensets (buffers, sent sets, delivered sets, used-op sets), and an event
or clock a step builds again is a table hit.  A system step is labelled by
its event alone (``Event.obs_key``).  Each class has its own table of plain
references, and two more tables keep what the steps derive from those
values: a canonical buffer's delivery order (``delivery_order``) and a
query's event per (object, replica, query, replica state) (``query_step``),
so neither is recomputed for every successor.  Every table's lifetime is one check: every
check, ``explore`` and library search runs inside ``intern_scope``, which
also pauses the cyclic garbage collector, and when the outermost scope
exits every table is emptied, together with the message-set interpretation
memo (``INTERP_MEMO``), so a finished check keeps none of its values alive.
Identity is only a speed-up: ``__eq__`` and ``__hash__`` stay structural,
so values that outlive their check (verdicts, witnesses) stay correct
against the next check's canonical values, and the plain constructors still
build equal, non-canonical values.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass, field as dc_field
from typing import Any, Iterable, Iterator, Mapping, NamedTuple

ReplicaId = str
Op = tuple          # operation token, e.g. ("add", 5) or ("inc",)
QueryId = str


# --- hash-consing ---------------------------------------------------------------

# One table per class, content key -> the canonical value with that content;
# a frozenset, and a configuration's per-replica tuple, is its own key.
# Plain dicts: a value stays canonical until the outermost ``intern_scope``
# exits and empties every table.
_FROZEN_DICTS: dict = {}
_CLOCKS: dict = {}
_MESSAGES: dict = {}
_INPUTS: dict = {}
_OUTPUTS: dict = {}
_EVENTS: dict = {}
_FROZENSETS: dict = {}
_TUPLES: dict = {}
# Derived facts, looked up as often as the values they come from: canonical
# buffer -> its entries in delivery order (``delivery_order``), and (object,
# replica, query, replica state) -> the query's event (``query_step``).
_DELIVERY_ORDERS: dict = {}
_QUERY_EVENTS: dict = {}

_TABLES = {
    "FrozenDict": _FROZEN_DICTS,
    "VectorClock": _CLOCKS,
    "Message": _MESSAGES,
    "Input": _INPUTS,
    "Output": _OUTPUTS,
    "Event": _EVENTS,
    "frozenset": _FROZENSETS,
    "tuple": _TUPLES,
    "delivery_order": _DELIVERY_ORDERS,
    "query_step": _QUERY_EVENTS,
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


def replace_at(t: tuple, k: int, v) -> tuple:
    """The canonical tuple equal to t with position k replaced by v."""
    t = t[:k] + (v,) + t[k + 1 :]
    return _TUPLES.setdefault(t, t)


def intern_table_sizes() -> dict[str, int]:
    """Entries per hash-consing table."""
    return {name: len(table) for name, table in _TABLES.items()}


def intern_scope(search):
    """Run search inside the hash-consing scope, with the interpreter's
    cyclic garbage collector paused.  Scopes nest by a depth count; when the
    outermost one exits, by return or by raise, every table and
    ``INTERP_MEMO`` are emptied, so a finished search keeps none of its
    values alive and the next one starts from empty tables.  Each scope
    restores the caller's collector setting as it exits.  A search allocates
    millions of short-lived containers and builds no reference cycles, so it
    is freed by reference counting alone and the collector's scans of those
    containers would reclaim nothing
    (``tests/test_checker.py::test_finished_checks_leave_no_cyclic_garbage``).
    Apply it to plain functions only: on a generator it would cover building
    the generator, not the search."""

    @functools.wraps(search)
    def scoped(*args, **kwargs):
        global _scope_depth
        collector_was_on = gc.isenabled()
        gc.disable()
        _scope_depth += 1
        try:
            return search(*args, **kwargs)
        finally:
            _scope_depth -= 1
            if not _scope_depth:
                for table in _TABLES.values():
                    table.clear()
                INTERP_MEMO.clear()
            if collector_was_on:
                gc.enable()

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
    """Per-replica counters; absent entries read as 0.  A message carries
    its sender's clock at send time, and ``happens_before`` reads it."""

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


@dataclass(frozen=True, slots=True)
class Message:
    """A broadcast payload stamped with its origin replica and the origin's
    clock at send time.  Its ``seq``, the clock's origin entry, is read once
    at construction: it numbers the origin's sends, so within one execution
    (origin, seq) tells two messages apart.  Equality is structural, so that
    messages from different exploration branches never collide.  Messages
    built by ``make`` are hash-consed, so equality is usually an identity hit.
    """

    origin: ReplicaId
    clock: VectorClock
    payload: Any
    seq: int = dc_field(init=False, repr=False, compare=False, default=0)
    _hash: int = dc_field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self):
        object.__setattr__(self, "seq", self.clock.get(self.origin))
        object.__setattr__(self, "_hash", hash((self.origin, self.clock, self.payload)))

    @staticmethod
    def make(origin: ReplicaId, clock: VectorClock, payload: Any) -> "Message":
        """The canonical message with this origin, clock and payload."""
        key = (origin, clock, payload)
        return _canon(_MESSAGES, key, Message, origin, clock, payload)

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> tuple:
        return (self.origin, self.seq)


def happens_before(m1: Message, m2: Message) -> bool:
    """m1 is a strict causal predecessor of m2: m2's sender had consumed m1
    when it sent m2, that is, m2's clock at m1's origin, less m2's own send
    when the two origins are equal, reaches m1's seq (Schwarz & Mattern,
    1994).  The rule holds for two messages of one execution, where each
    origin's clocks rise with its sends.  Two executions can mint the same
    (origin, seq) with different payloads, so never compare messages of
    different configurations, or keep the result in a cache shared across
    them."""
    return m2.clock.get(m1.origin) - (m1.origin == m2.origin) >= m1.seq


def causal_past(m: Message) -> dict[ReplicaId, int]:
    """The highest seq that m's sender had seen from each origin when it sent
    m: m's clock with m's own send taken back out.  For two messages of one
    execution, m2 happens before m iff causal_past(m).get(m2.origin, 0) >=
    m2.seq, the rule of ``happens_before`` read once for every m2."""
    past = dict(m.clock.entries)
    past[m.origin] = m.seq - 1
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
    top[r] = top.get(r, 0) + 1
    return Message.make(r, VectorClock.make(tuple(sorted(top.items()))), payload)


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


# --- configurations and the shared rules -----------------------------------


class Config(NamedTuple):
    """A global configuration of either semantics: each replica's state, the
    in-flight buffer, the messages sent, those each replica has delivered,
    and the (replica, op) pairs whose update has fired.  A replica is a
    position in its system's roster: ``states`` and ``delivered`` are
    canonical tuples in roster order, and a rule that changes one replica
    replaces one position (``replace_at``).  Buffer entries, ``used_ops``
    and events keep replica ids, and ``System.query_value`` reads a state
    by id.  It holds no history: a step is an (event, configuration) pair,
    and a search that reports a path keeps the events along it.  A
    configuration is its own dedup, cache and pair key.  The update and
    delivery rules of both semantics fire the replica step and store its
    new state; queries go through ``query_step``.

    On op-based systems a message is a clocked ``Message``, and a replica's
    ``delivered`` set includes the messages its own updates sent and
    self-applied; its next message is minted from that set (``mint``), and
    ``sent`` is the union of the ``delivered`` sets.  On state-based systems
    a message is the sent state itself, and ``delivered`` holds only the
    states the replica received, never its own."""

    states: tuple                 # S per replica, roster order
    buffer: frozenset             # {(ReplicaId, message)}, one per destination
    sent: frozenset               # {message}
    delivered: tuple              # frozenset[message] per replica, roster order
    used_ops: frozenset           # {(ReplicaId, Op)} update events so far


Step = tuple[Event, Config]       # a rule instance: its event and successor


def initial_config(obj, roster: tuple[ReplicaId, ...]) -> Config:
    """Every replica at the object's initial state, nothing sent."""
    if not roster:
        raise ValueError("initial_config: empty replica roster")
    if len(set(roster)) != len(roster):
        raise ValueError("initial_config: duplicate replica ids")
    empty = canon_set(frozenset())
    states = (obj.initial,) * len(roster)
    delivered = (empty,) * len(roster)
    return Config(
        states=_TUPLES.setdefault(states, states),
        buffer=empty,
        sent=empty,
        delivered=_TUPLES.setdefault(delivered, delivered),
        used_ops=empty,
    )


def query_step(
    obj, roster: tuple[ReplicaId, ...], c: Config, r: ReplicaId, q: QueryId
) -> Step:
    """The query rule of both semantics: r answers q from its state, read at
    r's position in roster, and the configuration stays c itself, so a
    search records the step as a self-loop without looking c up.  The
    event is a function of (obj, r, q, r's state); it is built and the query
    evaluated once per check scope, and every later step from an equal state
    is a table hit."""
    s = c.states[roster.index(r)]
    key = (obj, r, q, s)
    e = _QUERY_EVENTS.get(key)
    if e is None:
        e = _QUERY_EVENTS[key] = Event.of(r, Input.qry(q), Output.ret(obj.query(q, s)))
    return (e, c)


@dataclass(frozen=True)
class System:
    """A system LTS over a fixed roster.  A subclass gives its rules
    (``steps``) and its delivery discipline or broadcast mode.  A rule
    returns the step as (event, successor configuration); the step's label
    is read off its event (``Event.obs_key``).  The update and delivery
    rules fire its replica step and take the replica's new state and output
    from it; the query rule is ``query_step`` and the state-based send emits
    the current state.  An op-based replica's ``delivered`` set includes its
    own messages, a state-based replica's does not (see ``Config``).  Each
    (replica, op) pair fires at most once per execution, which keeps the
    explored space finite and makes operation occurrences unique."""

    obj: Any
    roster: tuple[ReplicaId, ...]

    def init(self) -> Config:
        return initial_config(self.obj, self.roster)

    def query_value(self, c: Config, r: ReplicaId, q: QueryId) -> Any:
        """The value of q at replica r, read by id."""
        return self.obj.query(q, c.states[self.roster.index(r)])

    @intern_scope
    def replay(self, events: Iterable[Event]) -> Config:
        """Re-execute a recorded event list from the initial configuration;
        raises if some event is not a legal step here."""
        c = self.init()
        for e in events:
            for e2, c2 in self.steps(c):
                if e2 == e:
                    c = c2
                    break
            else:
                raise ValueError(f"replay: event {e} is not a legal step here")
        return c


def downset_of(m: Message, sent_set: frozenset[Message]) -> frozenset[Message]:
    """m together with its causal predecessors among sent_set."""
    return frozenset(m2 for m2 in sent_set if happens_before(m2, m)) | {m}


def bcast(
    r: ReplicaId,
    m: Message,
    buffer: frozenset[tuple[ReplicaId, Message]],
    roster: tuple[ReplicaId, ...],
    by_value: bool = False,
) -> frozenset[tuple[ReplicaId, Message]]:
    """Add one copy of m per destination replica other than the sender, in
    one union; by value, a destination that already holds an entry with m's
    payload gets none.  The result is canonical."""
    held = {r2 for r2, m2 in buffer if m2.payload == m.payload} if by_value else ()
    return canon_set(buffer | {(r2, m) for r2 in roster if r2 != r and r2 not in held})


def _delivery_key(entry: tuple) -> tuple:
    r, m = entry
    return (r, m.sort_key() if isinstance(m, Message) else canon_key(m))


def delivery_order(buffer: frozenset) -> tuple:
    """The entries of a canonical buffer in the order both semantics try
    their deliveries: by destination replica, then by message, an op-based
    ``Message`` by its origin and seq, a state-based state by ``canon_key``.
    Sorted once per buffer per check scope; every later expansion of a
    configuration with this buffer is a table hit."""
    order = _DELIVERY_ORDERS.get(buffer)
    if order is None:
        order = _DELIVERY_ORDERS[buffer] = tuple(sorted(buffer, key=_delivery_key))
    return order


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
    if isinstance(v, VectorClock):
        return (5, v.entries)
    if isinstance(v, Message):
        return (6, v.origin, v.seq, v.clock.entries, canon_key(v.payload))
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
    if isinstance(v, VectorClock):
        return {r: n for r, n in v.entries}
    if isinstance(v, Message):
        return {
            "origin": v.origin,
            "seq": v.seq,
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
