"""Vector clocks, messages (origin, clock, payload), events, the
configuration type, the system skeleton and query rule, and the causal order
shared by the op-based and state-based semantics: one rule,
``happens_before``, orders the messages of an execution by the origin
component of the later one's clock.

Everything here is an immutable value.  A configuration holds no history: a
step is an (event, configuration) pair, and a trace is the sequence of
events along a path, which the searches rebuild from the parents they keep.
A replica is a position in its system's roster: a configuration keeps its
replicas' states and delivered sets as tuples in roster order.  Its buffer,
sent, delivered and used-op sets are int bitsets over the check scope's
value index (``value_bit``): bit v of a sent or delivered set stands for
the value the index holds at v, a message on op-based systems and a sent
state on state-based ones; see ``Config`` for the buffer and used-op bits.
So a step is a few int operations, and values are looked up in the index
only to build events, to run the object's functions and to render reports.

Values are hash-consed (Filliâtre & Conchon, *Type-safe modular
hash-consing*, 2006): the factories ``replace_at``,
``FrozenDict.of``/``FrozenDict.set``, ``VectorClock.make`` (behind ``of``),
``Message.make``, the ``Input``/``Output`` static constructors and
``Event.of`` return one object per equal content, so configurations reached
along different paths share their per-replica tuples, clocks, messages,
events and maps (a G-counter's states), and an event or clock a step builds
again is a table hit.  A system step is labelled by its event alone
(``Event.obs_key``).  Each class has its own table of plain references, and
more tables keep what the steps derive from those values: a buffer's
delivery order (``delivery_order``), a message's downset in a sent set
(``downset_bits``), the clock a replica mints from a delivered set
(``mint_from``), a delivery's or state-based send's event
(``delivery_event``, ``send_event``) and a query's
event per (object, replica, query, replica state) (``query_step``), so
none is recomputed for every successor.  Every table's lifetime is one
check: every check, ``explore`` and library search runs inside
``intern_scope``, which also pauses the cyclic garbage collector, and when
the outermost scope exits every table is emptied, the value index
included, together with the message-set interpretation memo
(``INTERP_MEMO``), so a finished check keeps none of its values alive.  So
an index-form configuration only means something inside the scope that
built it: code that reads configurations from more than one entry point
runs them all in one enclosing scope.  Identity is only a speed-up for the
values themselves: ``__eq__`` and ``__hash__`` stay structural, so values
that outlive their check (verdicts, witnesses) stay correct against the
next check's canonical values, and the plain constructors still build
equal, non-canonical values.
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
# a configuration's per-replica tuple is its own key.  Plain dicts: a value
# stays canonical until the outermost ``intern_scope`` exits and empties
# every table.
_FROZEN_DICTS: dict = {}
_CLOCKS: dict = {}
_MESSAGES: dict = {}
_INPUTS: dict = {}
_OUTPUTS: dict = {}
_EVENTS: dict = {}
_TUPLES: dict = {}
# The value index: value -> its bit, and bit -> value (``value_bit``).
_VALUE_BITS: dict = {}
VALUES: list = []
# Derived facts, looked up as often as the values they come from: (roster,
# buffer) -> its entries in delivery order (``delivery_order``), (message
# bit, sent set) -> the message's downset there (``downset_bits``),
# (replica, consumed set) -> the clock it mints with (``mint_from``),
# (replica, value bit) -> the delivery's event (``delivery_event``) and a
# state-based send's (``send_event``), a
# message set -> its messages' payloads (``payloads``), and
# (object, replica, query, replica state) -> the query's event
# (``query_step``).
_DELIVERY_ORDERS: dict = {}
_DOWNSETS: dict = {}
_MINT_CLOCKS: dict = {}
_DELIVERY_EVENTS: dict = {}
_SEND_EVENTS: dict = {}
_PAYLOAD_SETS: dict = {}
_QUERY_EVENTS: dict = {}

_TABLES = {
    "FrozenDict": _FROZEN_DICTS,
    "VectorClock": _CLOCKS,
    "Message": _MESSAGES,
    "Input": _INPUTS,
    "Output": _OUTPUTS,
    "Event": _EVENTS,
    "tuple": _TUPLES,
    "value_bit": _VALUE_BITS,
    "value": VALUES,
    "delivery_order": _DELIVERY_ORDERS,
    "downset": _DOWNSETS,
    "mint_clock": _MINT_CLOCKS,
    "delivery_event": _DELIVERY_EVENTS,
    "send_event": _SEND_EVENTS,
    "payloads": _PAYLOAD_SETS,
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


def value_bit(v) -> int:
    """The bit that stands for value v in this scope's value index; a value
    met for the first time takes the next free bit.  ``VALUES[b]`` is the
    value of bit b."""
    b = _VALUE_BITS.get(v)
    if b is None:
        b = _VALUE_BITS[v] = len(VALUES)
        VALUES.append(v)
    return b


def bits(x: int) -> Iterator[int]:
    """The positions of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def mask_of(vs: Iterable) -> int:
    """The bitset of the values vs over this scope's value index."""
    out = 0
    for v in vs:
        out |= 1 << value_bit(v)
    return out


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


def _ticked_join(r: ReplicaId, consumed: Iterable[Message]) -> VectorClock:
    """The join of the consumed messages' clocks ticked at r, taken in one
    pass, so only the final clock is built."""
    top: dict[ReplicaId, int] = {}
    for m in consumed:
        for rr, n in m.clock.entries:
            if n > top.get(rr, 0):
                top[rr] = n
    top[r] = top.get(r, 0) + 1
    return VectorClock.make(tuple(sorted(top.items())))


def mint(r: ReplicaId, consumed: Iterable[Message], payload: Any) -> Message:
    """The message r sends with this payload after consuming exactly the
    messages in consumed: its clock is their clocks' join ticked at r, and
    its seq is that clock's r entry.  A message-set guest mints from its
    state (``emulation.op_to_st``)."""
    return Message.make(r, _ticked_join(r, consumed), payload)


def mint_from(r: ReplicaId, consumed: int, payload: Any) -> Message:
    """``mint`` from the messages of the bitset consumed, as an op-based
    replica mints from its delivered set.  The clock is joined once per
    (r, consumed) per check scope."""
    key = (r, consumed)
    clock = _MINT_CLOCKS.get(key)
    if clock is None:
        clock = _MINT_CLOCKS[key] = _ticked_join(r, [VALUES[b] for b in bits(consumed)])
    return Message.make(r, clock, payload)


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
    in-flight buffer, the values sent, those each replica has delivered,
    and the (replica, op) pairs whose update has fired.  A replica is a
    position in its system's roster: ``states`` and ``delivered`` are
    canonical tuples in roster order, and a rule that changes one replica
    replaces one position (``replace_at``).  ``System.query_value`` reads a
    state by replica id.  It holds no history: a step is an (event,
    configuration) pair, and a search that reports a path keeps the events
    along it.  A configuration is its own dedup, cache and pair key.  The
    update and delivery rules of both semantics fire the replica step and
    store its new state; queries go through ``query_step``.

    The four sets are int bitsets over the check scope's value index
    (``value_bit``), so a configuration only means something inside the
    ``intern_scope`` that built it.  For n replicas and the object's ops:
    bit v of ``sent`` and of a ``delivered`` entry stands for the value
    ``VALUES[v]``; bit v * n + k of ``buffer`` for that value in flight to
    the replica at roster position k (``entry_bit``, ``entries``); and bit
    k * len(ops) + j of ``used_ops`` for the update of ``ops[j]`` at
    position k (``op_bit``).

    On op-based systems a value is a clocked ``Message``, and a replica's
    ``delivered`` set includes the messages its own updates sent and
    self-applied; its next message is minted from that set (``mint_from``),
    and ``sent`` is the union of the ``delivered`` sets.  On state-based
    systems a value is the sent state itself, and ``delivered`` holds only
    the states the replica received, never its own."""

    states: tuple                 # S per replica, roster order
    buffer: int                   # bit v * n + k: value v in flight to k
    sent: int                     # bit v: value v sent
    delivered: tuple              # int per replica, roster order: bit v delivered
    used_ops: int                 # bit k * len(ops) + j: ops[j] fired at k


Step = tuple[Event, Config]       # a rule instance: its event and successor


def initial_config(obj, roster: tuple[ReplicaId, ...]) -> Config:
    """Every replica at the object's initial state, nothing sent."""
    if not roster:
        raise ValueError("initial_config: empty replica roster")
    if len(set(roster)) != len(roster):
        raise ValueError("initial_config: duplicate replica ids")
    states = (obj.initial,) * len(roster)
    delivered = (0,) * len(roster)
    return Config(
        states=_TUPLES.setdefault(states, states),
        buffer=0,
        sent=0,
        delivered=_TUPLES.setdefault(delivered, delivered),
        used_ops=0,
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
        raises if some event is not a legal step here.  Like ``explore``'s
        nodes, the configuration it returns is read inside an enclosing
        scope."""
        c = self.init()
        for e in events:
            for e2, c2 in self.steps(c):
                if e2 == e:
                    c = c2
                    break
            else:
                raise ValueError(f"replay: event {e} is not a legal step here")
        return c


def downset_bits(v: int, sent: int) -> int:
    """The message of bit v together with its causal predecessors among the
    messages of the sent set, as a bitset.  The message and sent must come
    from one configuration (``happens_before``).  Computed once per (v,
    sent) per check scope."""
    key = (v, sent)
    out = _DOWNSETS.get(key)
    if out is None:
        m = VALUES[v]
        past = dict(m.clock.entries)   # the highest seq m's sender had seen
        past[m.origin] = m.seq - 1     # per origin, m's own send taken out
        out = 1 << v
        for b in bits(sent):
            m2 = VALUES[b]
            if past.get(m2.origin, 0) >= m2.seq:
                out |= 1 << b
        _DOWNSETS[key] = out
    return out


def send_event(r: ReplicaId, v: int) -> Event:
    """The event of replica r sending the state of bit v on its own, built
    once per (r, v) per check scope."""
    key = (r, v)
    e = _SEND_EVENTS.get(key)
    if e is None:
        e = _SEND_EVENTS[key] = Event.of(r, INPUT_NONE, Output.send(VALUES[v]))
    return e


def payloads(x: int) -> frozenset:
    """The payloads of the messages of the bitset x, once per set per check
    scope: how a by-value object tells messages apart."""
    out = _PAYLOAD_SETS.get(x)
    if out is None:
        out = _PAYLOAD_SETS[x] = frozenset(VALUES[b].payload for b in bits(x))
    return out


def entry_bit(v: int, k: int, n: int) -> int:
    """The buffer bit of the value of bit v in flight to roster position k
    of n."""
    return 1 << (v * n + k)


def entries(buffer: int, n: int) -> list[tuple[int, int]]:
    """A buffer's (roster position, value bit) entries for n replicas, in
    bit order."""
    return [(b % n, b // n) for b in bits(buffer)]


def op_bit(k: int, j: int, nops: int) -> int:
    """The used-op bit of op j of nops fired at roster position k."""
    return 1 << (k * nops + j)


def bcast(k: int, v: int, buffer: int, n: int, held: int = 0) -> int:
    """buffer with one entry of the value of bit v for each of the n roster
    positions other than the sender's, k, and other than those in the
    position bitset held, in one union."""
    return buffer | (((1 << n) - 1) & ~(1 << k) & ~held) << (v * n)


def _delivery_key(roster: tuple[ReplicaId, ...], entry: tuple[int, int]) -> tuple:
    k, v = entry
    x = VALUES[v]
    return (roster[k], x.sort_key() if isinstance(x, Message) else canon_key(x))


def delivery_order(roster: tuple[ReplicaId, ...], buffer: int) -> tuple[tuple[int, int], ...]:
    """The entries of a buffer of a system over roster, as (roster position,
    value bit) pairs, in the order both semantics try their deliveries: by
    destination replica id, then by message, an op-based ``Message`` by its
    origin and seq, a state-based state by ``canon_key``; never by bit
    order.  Sorted once per (roster, buffer) per check scope; every later
    expansion of a configuration with this buffer is a table hit."""
    key = (roster, buffer)
    order = _DELIVERY_ORDERS.get(key)
    if order is None:
        order = entries(buffer, len(roster))
        order.sort(key=functools.partial(_delivery_key, roster))
        order = _DELIVERY_ORDERS[key] = tuple(order)
    return order


def delivery_event(r: ReplicaId, v: int) -> Event:
    """The event of delivering the value of bit v at replica r.  A delivery
    outputs nothing in both semantics, so the event is built once per (r,
    v) per check scope, and a rule fires its replica step on the event's
    input."""
    key = (r, v)
    e = _DELIVERY_EVENTS.get(key)
    if e is None:
        e = _DELIVERY_EVENTS[key] = Event.of(r, Input.dlvr(VALUES[v]), OUTPUT_NONE)
    return e


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
