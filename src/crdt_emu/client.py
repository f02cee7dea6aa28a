"""Client programs over a CRDT environment.

A small imperative language (skip, assignment, sequencing, while, CRDT update
and query) stepped against a configuration of one of the system semantics.
The environment may take silent steps at any time; updates and queries are
served by a nondeterministically chosen replica.  A program composed with
its environment is one more system (``ClientSystem``); termination search
is a bounded ``breadth_first`` walk of it to a terminated program state, and
the approximation check compares possible termination across two
environments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from .checker import BOUND_EXHAUSTED, COUNTEREXAMPLE, PASS, Graph, Verdict, breadth_first
from .core import Event, Op, QueryId, intern_scope, render, render_event


# --- expressions ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Lit:
    value: int


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Bin:
    op: str  # + - * = <
    left: "Expr"
    right: "Expr"


Expr = Lit | Var | Bin


def eval_expr(e: Expr, store: tuple) -> int:
    """Total evaluation over naturals against a store (``ClientState``);
    subtraction truncates at zero and comparisons yield 0/1."""
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        return dict(store).get(e.name, 0)
    l = eval_expr(e.left, store)
    r = eval_expr(e.right, store)
    if e.op == "+":
        return l + r
    if e.op == "-":
        return max(0, l - r)
    if e.op == "*":
        return l * r
    if e.op == "=":
        return 1 if l == r else 0
    if e.op == "<":
        return 1 if l < r else 0
    raise ValueError(f"unknown operator {e.op!r}")


# --- programs --------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Skip:
    pass


@dataclass(frozen=True, slots=True)
class Asn:
    var: str
    expr: Expr


@dataclass(frozen=True, slots=True)
class While:
    cond: Expr
    body: "Prog"


@dataclass(frozen=True, slots=True)
class Seq:
    first: "Prog"
    second: "Prog"


@dataclass(frozen=True, slots=True)
class Upd:
    op: Op


@dataclass(frozen=True, slots=True)
class Qry:
    var: str
    query: QueryId


Prog = Skip | Asn | While | Seq | Upd | Qry

SKIP = Skip()


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"\s+|(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<sym>:=|[;(){}+\-*=<])"
)


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        chunk = m.group(0)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, chunk, line, col))
        for ch in chunk:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, text, line, col = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text or 'end of input'!r}", line, col)

    def fail(self, message: str):
        _, text, line, col = self.peek()
        raise ParseError(message, line, col)

    # program := stmt (";" stmt)*
    def program(self) -> Prog:
        stmts = [self.statement()]
        while self.peek()[1] == ";":
            self.next()
            stmts.append(self.statement())
        p = stmts[-1]
        for s in reversed(stmts[:-1]):
            p = Seq(s, p)
        return p

    def statement(self) -> Prog:
        kind, text, line, col = self.peek()
        if text == "skip":
            self.next()
            return SKIP
        if text == "while":
            self.next()
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            self.expect("{")
            body = self.program()
            self.expect("}")
            return While(cond, body)
        if text == "upd":
            self.next()
            self.expect("(")
            name_tok = self.next()
            if name_tok[0] != "name":
                raise ParseError("expected operation name", name_tok[2], name_tok[3])
            args = []
            while self.peek()[0] == "num":
                args.append(int(self.next()[1]))
            self.expect(")")
            return Upd((name_tok[1], *args))
        if kind == "name":
            self.next()
            self.expect(":=")
            k2, t2, _, _ = self.peek()
            if t2 == "qry":
                self.next()
                self.expect("(")
                q_tok = self.next()
                if q_tok[0] != "name":
                    raise ParseError("expected query name", q_tok[2], q_tok[3])
                self.expect(")")
                return Qry(text, q_tok[1])
            return Asn(text, self.expr())
        raise ParseError(f"expected a statement, found {text or 'end of input'!r}", line, col)

    # expr := additive (("=" | "<") additive)?
    def expr(self) -> Expr:
        left = self.additive()
        if self.peek()[1] in ("=", "<"):
            op = self.next()[1]
            right = self.additive()
            return Bin(op, left, right)
        return left

    def additive(self) -> Expr:
        left = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            left = Bin(op, left, self.term())
        return left

    def term(self) -> Expr:
        left = self.factor()
        while self.peek()[1] == "*":
            self.next()
            left = Bin("*", left, self.factor())
        return left

    def factor(self) -> Expr:
        kind, text, line, col = self.next()
        if kind == "num":
            return Lit(int(text))
        if kind == "name":
            return Var(text)
        if text == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ParseError(f"expected an expression, found {text or 'end of input'!r}", line, col)


def parse_program(text: str) -> Prog:
    """Parse the concrete syntax; raises ParseError with line/column."""
    parser = _Parser(text)
    p = parser.program()
    kind, text2, line, col = parser.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {text2!r}", line, col)
    return p


def expr_to_text(e: Expr) -> str:
    if isinstance(e, Lit):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    return f"({expr_to_text(e.left)} {e.op} {expr_to_text(e.right)})"


def program_to_text(p: Prog) -> str:
    if isinstance(p, Skip):
        return "skip"
    if isinstance(p, Asn):
        return f"{p.var} := {expr_to_text(p.expr)}"
    if isinstance(p, While):
        return f"while ({expr_to_text(p.cond)}) {{ {program_to_text(p.body)} }}"
    if isinstance(p, Seq):
        return f"{program_to_text(p.first)}; {program_to_text(p.second)}"
    if isinstance(p, Upd):
        return "upd(" + " ".join(str(x) for x in p.op) + ")"
    if isinstance(p, Qry):
        return f"{p.var} := qry({p.query})"
    raise TypeError(f"not a program: {p!r}")


# --- small-step semantics -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ClientState:
    env: Any            # op or st configuration
    store: tuple        # (var, nat) items sorted by var; absent = 0
    prog: Prog


def prog_terminated(p: Prog, store: tuple) -> bool:
    if isinstance(p, Skip):
        return True
    if isinstance(p, While):
        return eval_expr(p.cond, store) == 0
    return False


def _assign(store: tuple, var: str, v: int) -> tuple:
    """The store with var set to v, its items still sorted by var."""
    m = dict(store)
    m[var] = v
    return tuple(sorted(m.items()))


def _prog_steps(
    system, env, env_steps: list, store: tuple, p: Prog
) -> list[tuple[Event | None, Any, tuple, Prog]]:
    """Program-driven successors as (env event, env', store', prog') tuples,
    where the event is None when the environment did not step; excludes the
    environment-only silent rule.  env_steps is system.steps(env)."""
    if isinstance(p, Skip):
        return []
    if isinstance(p, Asn):
        return [(None, env, _assign(store, p.var, eval_expr(p.expr, store)), SKIP)]
    if isinstance(p, While):
        if eval_expr(p.cond, store) == 0:
            return []
        return [(None, env, store, Seq(p.body, p))]
    if isinstance(p, Upd):
        return [
            (e, env2, store, SKIP)
            for e, env2 in env_steps
            if e.input.kind == "upd" and e.input.op == p.op
        ]
    if isinstance(p, Qry):
        return [
            (None, env, _assign(store, p.var, system.query_value(env, r, p.query)), SKIP)
            for r in system.roster
        ]
    if isinstance(p, Seq):
        if prog_terminated(p.first, store):
            return [(None, env, store, p.second)]
        return [
            (e, env2, store2, Seq(p2, p.second))
            for e, env2, store2, p2 in _prog_steps(system, env, env_steps, store, p.first)
        ]
    raise TypeError(f"not a program: {p!r}")


class ClientSystem:
    """A client program composed with its CRDT environment system env, as
    one more system for ``checker.breadth_first``: its configurations are
    client states, starting from start.  The environment's step list is
    kept per environment configuration in this value, so client states
    that share an environment step it once; the cache goes when the value
    does."""

    def __init__(self, env, start: ClientState):
        self.env = env
        self.start = start
        self._env_steps: dict = {}

    def init(self) -> ClientState:
        return self.start

    def steps(self, cs: ClientState) -> list[tuple[Event | None, ClientState]]:
        """Successors of a client state, each with the environment's event
        or None when the environment did not step: the environment's silent
        steps, then the program's.  None once the program has terminated
        (``prog_terminated``)."""
        if prog_terminated(cs.prog, cs.store):
            return []
        env_steps = self._env_steps.get(cs.env)
        if env_steps is None:
            env_steps = self._env_steps[cs.env] = self.env.steps(cs.env)
        out = [
            (e, ClientState(env2, cs.store, cs.prog))
            for e, env2 in env_steps
            if e.obs_key() is None
        ]
        for e, env2, store2, p2 in _prog_steps(self.env, cs.env, env_steps, cs.store, cs.prog):
            out.append((e, ClientState(env2, store2, p2)))
        return out


@dataclass
class Termination:
    terminates: bool
    states_explored: int
    witness: list[dict] | None


@intern_scope
def can_terminate(system, cs: ClientState, step_bound: int) -> Termination:
    """Whether some execution from cs reaches a terminated program state
    within step_bound steps: a ``breadth_first`` walk of the client system,
    stopped at the first terminated client state it finds.  Each client
    state is tested when the walk yields the node whose expansion found it
    (the initial one at the first yield), so no state queued ahead of it is
    expanded; the walk keeps no step.  Client states are numbered in the
    order they are found, so that state's index plus one is the number of
    client states found when it was; with no such state, every client
    state within the bound is counted.  The witness is the path that first
    reached it.  A negative bound raises ValueError."""
    graph = Graph()
    tested = 0
    for _ in breadth_first(ClientSystem(system, cs), step_bound, graph):
        for i in range(tested, len(graph.nodes)):
            node = graph.nodes[i]
            if prog_terminated(node.prog, node.store):
                return Termination(True, i + 1, _witness(graph, i, system.decode))
        tested = len(graph.nodes)
    return Termination(False, len(graph.nodes), None)


def _witness(graph: Graph, i: int, decode) -> list[dict]:
    """The client states along the path that first reached node i, after
    the initial one, each with the environment's event into it."""
    witness = []
    while (step := graph.parents[i]) is not None:
        prev, env_event = step
        node = graph.nodes[i]
        witness.append(
            {
                "prog": program_to_text(node.prog),
                "store": {k: render(v) for k, v in node.store},
                "env_event": render_event(env_event, decode) if env_event else None,
            }
        )
        i = prev
    witness.reverse()
    return witness


@intern_scope
def check_approximation(
    sys_k,
    sys_l,
    store: tuple,
    prog: Prog,
    bound_k: int,
    bound_l: int,
) -> Verdict:
    """If the program can terminate in the K environment, it must also be able
    to terminate in the L environment.  A negative bound raises ValueError
    before either environment is searched."""
    if bound_k < 0 or bound_l < 0:
        raise ValueError("check_approximation: negative step bound")
    bounds = {"bound_k": bound_k, "bound_l": bound_l}
    cs_k = ClientState(sys_k.init(), store, prog)
    tk = can_terminate(sys_k, cs_k, bound_k)
    stats = {"k_states": tk.states_explored, "k_terminates": tk.terminates}
    if not tk.terminates:
        return Verdict(
            BOUND_EXHAUSTED,
            stats,
            bounds,
            detail="no terminating execution found in the K environment at bound",
        )
    cs_l = ClientState(sys_l.init(), store, prog)
    tl = can_terminate(sys_l, cs_l, bound_l)
    stats["l_states"] = tl.states_explored
    stats["l_terminates"] = tl.terminates
    if tl.terminates:
        return Verdict(PASS, stats, bounds)
    return Verdict(
        COUNTEREXAMPLE,
        stats,
        bounds,
        witness={"program": program_to_text(prog), "k_witness": tk.witness},
        detail="K terminates but L cannot within bound",
    )
