"""Client programs over a CRDT environment.

A small imperative language (skip, assignment, sequencing, while, CRDT update
and query) stepped against a configuration of one of the system semantics.
The environment may take silent steps at any time; updates and queries are
served by a nondeterministically chosen replica.  Termination search is a
bounded breadth-first reachability of a terminated program state, and the
approximation check compares possible termination across two environments.
"""

from __future__ import annotations

import random
import re
from collections import deque
from dataclasses import dataclass
from typing import Any

from .checker import (
    BOUND_EXHAUSTED,
    COUNTEREXAMPLE,
    PASS,
    Verdict,
    collector_paused,
)
from .core import FrozenDict, Op, QueryId, render, render_event


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


def eval_expr(e: Expr, store: FrozenDict) -> int:
    """Total evaluation over naturals; subtraction truncates at zero and
    comparisons yield 0/1."""
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        return store.get(e.name, 0)
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
    store: FrozenDict   # Var -> nat, absent = 0
    prog: Prog


def prog_terminated(p: Prog, store: FrozenDict) -> bool:
    if isinstance(p, Skip):
        return True
    if isinstance(p, While):
        return eval_expr(p.cond, store) == 0
    return False


def _prog_steps(
    system, env, env_steps: list, store: FrozenDict, p: Prog
) -> list[tuple[Any, FrozenDict, Prog, str]]:
    """Program-driven successors as (env', store', prog', action) tuples;
    excludes the environment-only silent rule.  env_steps is
    system.steps(env)."""
    if isinstance(p, Skip):
        return []
    if isinstance(p, Asn):
        v = eval_expr(p.expr, store)
        return [(env, store.set(p.var, v), SKIP, "asn")]
    if isinstance(p, While):
        if eval_expr(p.cond, store) == 0:
            return []
        return [(env, store, Seq(p.body, p), "while-step")]
    if isinstance(p, Upd):
        out = []
        for label, env2 in env_steps:
            if label.kind == "update" and label.op == p.op:
                out.append((env2, store, SKIP, f"upd@{label.replica}"))
        return out
    if isinstance(p, Qry):
        out = []
        for r in system.roster:
            v = system.query_value(env, r, p.query)
            out.append((env, store.set(p.var, v), SKIP, f"qry@{r}"))
        return out
    if isinstance(p, Seq):
        if prog_terminated(p.first, store):
            return [(env, store, p.second, "seq-done")]
        return [
            (env2, store2, Seq(p2, p.second), act)
            for env2, store2, p2, act in _prog_steps(system, env, env_steps, store, p.first)
        ]
    raise TypeError(f"not a program: {p!r}")


def client_steps(
    system, cs: ClientState, memo: dict | None = None
) -> tuple[list[ClientState], bool]:
    """Successors of a client state and whether it has terminated.  A memo,
    when given, caches successor lists by environment configuration across
    calls, so client states that share an environment step it once."""
    if prog_terminated(cs.prog, cs.store):
        return ([], True)
    env_steps = None if memo is None else memo.get(cs.env)
    if env_steps is None:
        env_steps = system.steps(cs.env)
        if memo is not None:
            memo[cs.env] = env_steps
    out = []
    for label, env2 in env_steps:
        if label.is_silent:
            out.append(ClientState(env2, cs.store, cs.prog))
    for env2, store2, p2, _ in _prog_steps(system, cs.env, env_steps, cs.store, cs.prog):
        out.append(ClientState(env2, store2, p2))
    return (out, False)


@dataclass
class Termination:
    terminates: bool
    steps: int
    states_explored: int
    witness: list[dict] | None


def can_terminate(system, cs: ClientState, step_bound: int) -> Termination:
    """Breadth-first search for any execution reaching a terminated program
    state within step_bound steps."""

    def key(c: ClientState):
        return (system.summary(c.env), c.store, c.prog)

    if prog_terminated(cs.prog, cs.store):
        return Termination(True, 0, 1, [])
    k0 = key(cs)
    parents: dict = {k0: None}
    queue = deque([(cs, 0)])
    explored = 1
    env_steps: dict = {}  # dropped on return, so no configuration outlives the search
    while queue:
        c, d = queue.popleft()
        if d >= step_bound:
            continue
        succs, _ = client_steps(system, c, env_steps)
        kc = key(c)
        for c2 in succs:
            k2 = key(c2)
            if k2 in parents:
                continue
            parents[k2] = (kc, c, c2)
            explored += 1
            if prog_terminated(c2.prog, c2.store):
                witness = []
                node = k2
                while parents[node] is not None:
                    node, prev, cur = parents[node]
                    env_event = (
                        cur.env.trace.head
                        if cur.env.trace.length > prev.env.trace.length
                        else None
                    )
                    witness.append(
                        {
                            "prog": program_to_text(cur.prog),
                            "store": {k: render(v) for k, v in cur.store.items()},
                            "env_event": render_event(env_event) if env_event else None,
                        }
                    )
                witness.reverse()
                return Termination(True, d + 1, explored, witness)
            queue.append((c2, d + 1))
    return Termination(False, step_bound, explored, None)


@collector_paused
def check_approximation(
    sys_k,
    sys_l,
    store: FrozenDict,
    prog: Prog,
    bound_k: int,
    bound_l: int,
) -> Verdict:
    """If the program can terminate in the K environment, it must also be able
    to terminate in the L environment."""
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
        raw=tk,
        detail="K terminates but L cannot within bound",
    )


# --- program corpus -------------------------------------------------------------------


def generate_programs(
    ops: tuple[Op, ...],
    queries: tuple[QueryId, ...],
    count: int,
    max_depth: int = 4,
    seed: int = 2024,
) -> list[Prog]:
    """Deterministic random corpus of programs over the given universes."""
    rng = random.Random(seed)
    variables = ("x", "y")

    def gen_expr(depth: int) -> Expr:
        if depth <= 0 or rng.random() < 0.5:
            if rng.random() < 0.5:
                return Lit(rng.randrange(0, 4))
            return Var(rng.choice(variables))
        op = rng.choice(("+", "-", "*", "=", "<"))
        return Bin(op, gen_expr(depth - 1), gen_expr(depth - 1))

    def gen_prog(depth: int) -> Prog:
        choices = ["skip", "asn", "upd", "qry", "seq"]
        if depth > 1:
            choices.append("while")
        kind = rng.choice(choices)
        if kind == "skip":
            return SKIP
        if kind == "asn":
            return Asn(rng.choice(variables), gen_expr(depth - 1))
        if kind == "upd":
            return Upd(rng.choice(ops))
        if kind == "qry":
            return Qry(rng.choice(variables), rng.choice(queries))
        if kind == "seq":
            return Seq(gen_prog(depth - 1), gen_prog(depth - 1))
        # loops get a guard that is usually already false or soon falsified
        guard = Bin("<", Var(rng.choice(variables)), Lit(rng.randrange(0, 3)))
        return While(guard, gen_prog(depth - 1))

    return [gen_prog(max_depth) for _ in range(count)]
