"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Bounds are pinned here: step bound 8 (10 for the trace criterion), tau budget
2*|roster|, trace length 3, at least 100 client programs of AST depth <= 4.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import time

import pytest

from crdt_emu.checker import (
    HOST_BY_GUEST,
    PairedSystem,
    check_causal_safety,
    check_commutation,
    check_strong_convergence,
    check_trace_equivalence,
    check_weak_bisimulation,
    check_weak_simulation,
    explore,
    sim_relation,
    weak_traces,
)
from crdt_emu.client import check_approximation
from crdt_emu.core import intern_scope
from crdt_emu.emulation import op_to_st, st_to_op
from crdt_emu.objects import (
    augment_history_op,
    break_query,
    gcounter_st,
    gset_op,
    gset_st,
)
from crdt_emu.opsem import RELIABLE_ONLY, OpSystem
from crdt_emu.stsem import ATOMIC_BROADCAST, StSystem
from reference import by_replica, generate_programs, interp_is_order_independent

STEP_BOUND = 8
TRACE_BOUND = 10
MAX_TRACE_LEN = 3

ROSTERS = (("r1", "r2"), ("r1", "r2", "r3"))


def tau(roster):
    return 2 * len(roster)


def gset_pair(values, roster, discipline="causal", mode="separate-send", augment=False):
    obj = gset_op(values)
    if augment:
        obj = augment_history_op(obj)
    host = OpSystem(obj, roster, discipline=discipline)
    guest = StSystem(op_to_st(obj), roster, mode=mode)
    return PairedSystem(host=host, guest=guest)


def st_pair(obj, roster):
    host = StSystem(obj, roster)
    guest = OpSystem(st_to_op(obj), roster)
    return PairedSystem(host=host, guest=guest)


def report(criterion: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status} ({elapsed:.1f}s)"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


def test_criterion_1_ex_2_4_bisim_counterexample():
    started = time.monotonic()
    paired = gset_pair((5, 42), ("r1", "r2"))
    v = check_weak_bisimulation(paired, step_bound=STEP_BOUND, tau_budget=tau(("r1", "r2")))
    elapsed = time.monotonic() - started
    dq = (v.witness or {}).get("distinguishing_query", {})
    ops = {
        tuple(step["event"]["input"]["op"])
        for step in (v.witness or {}).get("play", ())
        if step["event"]["input"]["kind"] == "upd"
    }
    ok = (
        v.outcome == "counterexample"
        and dq.get("attacker_value") == 5
        and dq.get("defender_options") == [47]
        and 5 not in dq.get("defender_options", ())
        and {("add", 5), ("add", 42)} <= ops
        and elapsed < 10
    )
    report(
        "1 (separate-send bisim rejects with 5 vs 47-only)",
        ok,
        elapsed,
        f"op query {dq.get('attacker_value')} vs st options {dq.get('defender_options')}",
    )


def test_criterion_2_ex_2_5_causal_order():
    started = time.monotonic()
    roster = ("r1", "r2", "r3")
    free = gset_pair((1, 2), roster, discipline=RELIABLE_ONLY)
    v_free = check_weak_simulation(
        free, "R1", step_bound=STEP_BOUND, tau_budget=tau(roster)
    )
    causal = gset_pair((1, 2), roster)
    v_causal = check_weak_simulation(
        causal, "R1", step_bound=STEP_BOUND, tau_budget=tau(roster)
    )
    elapsed = time.monotonic() - started
    dq = (v_free.witness or {}).get("distinguishing_query", {})
    ok = (
        v_free.outcome == "counterexample"
        and dq.get("attacker_value") == 2
        and dq.get("defender_options") == [1, 3]
        and v_causal.passed
        and elapsed < 30
    )
    report(
        "2 (reliable-only rejects with 2 vs {1,3}; causal passes)",
        ok,
        elapsed,
        f"op query {dq.get('attacker_value')} vs st options {dq.get('defender_options')}",
    )


def test_criterion_3_thm_4_2_and_4_4():
    started = time.monotonic()
    ok = True
    details = []
    for roster in ROSTERS:
        paired = gset_pair((1, 2), roster)
        for rel in ("R1", "R2"):
            v = check_weak_simulation(
                paired, rel, step_bound=STEP_BOUND, tau_budget=tau(roster)
            )
            frac = v.stats.get("matcher_fraction", 0.0)
            details.append(f"{rel}@{len(roster)}rid {v.outcome} matchers {frac:.3f}")
            ok = ok and v.passed and frac >= 0.95
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 300
    report("3 (R1/R2 weak simulations, zero failures)", ok, elapsed, "; ".join(details))


def test_criterion_4_thm_a_2_and_a_3():
    started = time.monotonic()
    ok = True
    details = []
    for obj_name, obj in (("gcounter", gcounter_st()), ("gset", gset_st((1, 2)))):
        for roster in ROSTERS:
            paired = st_pair(obj, roster)
            for rel in ("Q1", "Q2"):
                v = check_weak_simulation(
                    paired, rel, step_bound=STEP_BOUND, tau_budget=tau(roster)
                )
                frac = v.stats.get("matcher_fraction", 0.0)
                details.append(f"{obj_name}/{rel}@{len(roster)}rid {v.outcome}")
                ok = ok and v.passed and frac >= 0.95
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 300
    report("4 (Q1/Q2 weak simulations, zero failures)", ok, elapsed, "; ".join(details))


def test_criterion_5_thm_4_9_bisim():
    started = time.monotonic()
    ok = True
    details = []
    for roster in ROSTERS:
        paired = gset_pair((1, 2), roster, mode=ATOMIC_BROADCAST)
        v = check_weak_bisimulation(paired, step_bound=STEP_BOUND, tau_budget=tau(roster))
        details.append(f"{len(roster)}rid {v.outcome} ({v.stats['obligations']} obligations)")
        ok = ok and v.passed
    elapsed = time.monotonic() - started
    report("5 (atomic-broadcast bowtie is a weak bisimulation)", ok, elapsed, "; ".join(details))


def test_criterion_6_cor_4_5_trace_equivalence():
    started = time.monotonic()
    p_op = gset_pair((5, 42), ("r1", "r2"))
    v_op = check_trace_equivalence(p_op, max_len=MAX_TRACE_LEN, step_bound=TRACE_BOUND)
    p_st = st_pair(gcounter_st(), ("r1", "r2"))
    v_st = check_trace_equivalence(p_st, max_len=MAX_TRACE_LEN, step_bound=TRACE_BOUND)
    obj = gset_op((5, 42))
    broken = PairedSystem(
        host=OpSystem(obj, ("r1", "r2")),
        guest=StSystem(break_query(op_to_st(obj)), ("r1", "r2")),
    )
    v_bad = check_trace_equivalence(broken, max_len=MAX_TRACE_LEN, step_bound=TRACE_BOUND)
    elapsed = time.monotonic() - started
    ok = (
        v_op.passed
        and v_st.passed
        and v_bad.outcome == "counterexample"
        and bool(v_bad.witness["trace"])
        and elapsed < 10
    )
    report(
        "6 (weak trace sets agree; broken guest rejected)",
        ok,
        elapsed,
        f"op-to-st {v_op.stats['host_traces']} traces; distinguishing trace of length "
        f"{len(v_bad.witness['trace'])}",
    )


def test_criterion_7_prop_3_7_causal_safety():
    started = time.monotonic()
    causal = OpSystem(gset_op((1, 2)), ("r1", "r2", "r3"))
    v_ok = check_causal_safety(causal, step_bound=STEP_BOUND)
    free = OpSystem(gset_op((1, 2)), ("r1", "r2", "r3"), discipline=RELIABLE_ONLY)
    v_bad = check_causal_safety(free, step_bound=STEP_BOUND)
    elapsed = time.monotonic() - started
    ok = v_ok.passed and v_bad.outcome == "counterexample"
    report(
        "7 (causal discipline enforces causal delivery; relaxed one violates)",
        ok,
        elapsed,
        f"swept {v_ok.stats['states']} configurations",
    )


def test_criterion_8_ex_4_7_convergence_transfer():
    started = time.monotonic()
    paired = gset_pair((5, 42), ("r1", "r2"), augment=True)
    host_sweep = check_strong_convergence(paired.host, step_bound=STEP_BOUND)
    r1 = check_weak_simulation(paired, "R1", step_bound=STEP_BOUND)
    r2 = check_weak_simulation(paired, "R2", step_bound=STEP_BOUND)
    guest_sweep = check_strong_convergence(paired.guest, step_bound=STEP_BOUND)
    elapsed = time.monotonic() - started
    transfer_consistent = (not (host_sweep.passed and r1.passed and r2.passed)) or guest_sweep.passed
    ok = host_sweep.passed and guest_sweep.passed and r1.passed and r2.passed and transfer_consistent
    report(
        "8 (history-augmented strong convergence, host and guest + transfer)",
        ok,
        elapsed,
        f"host {host_sweep.stats['checked']} checks, guest {guest_sweep.stats['checked']}",
    )


def test_criterion_9_thm_5_2_client_corpus():
    started = time.monotonic()
    pairs = []
    op_obj = gset_op((1,))
    pairs.append(
        (
            "op-to-st",
            OpSystem(op_obj, ("r1", "r2")),
            StSystem(op_to_st(op_obj), ("r1", "r2")),
            (("add", 1),),
        )
    )
    st_obj = gcounter_st()
    pairs.append(
        (
            "st-to-op",
            StSystem(st_obj, ("r1", "r2")),
            OpSystem(st_to_op(st_obj), ("r1", "r2")),
            (("inc",),),
        )
    )
    ok = True
    details = []
    for direction, host, guest, ops in pairs:
        paired = PairedSystem(host=host, guest=guest)
        sim = check_weak_simulation(
            paired, sim_relation(direction, HOST_BY_GUEST), step_bound=6
        )
        ok = ok and sim.passed
        programs = generate_programs(ops, ("sum",), 110, max_depth=4)
        assert len(programs) >= 100
        counts = {"pass": 0, "bound-exhausted": 0, "counterexample": 0}
        for prog in programs:
            for k, l in ((host, guest), (guest, host)):
                v = check_approximation(k, l, (), prog, 12, 12)
                counts[v.outcome] += 1
        ok = ok and counts["counterexample"] == 0 and counts["pass"] > 100
        details.append(f"{direction}: {counts}")
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 600
    report("9 (client cotermination across both emulations)", ok, elapsed, "; ".join(details))


@intern_scope
def test_criterion_10_interp_well_definedness():
    started = time.monotonic()
    obj = gset_op((1, 2))
    guest_obj = op_to_st(obj)
    checked = 0
    ok = True
    for roster in ROSTERS:
        guest_sys = StSystem(guest_obj, roster)
        graph = explore(guest_sys, STEP_BOUND)
        seen = set()
        for cfg in graph.nodes:
            for r in roster:
                h = by_replica(guest_sys, cfg).states[r]
                if h in seen or h.bit_count() > 6:
                    continue
                seen.add(h)
                checked += 1
                ok = ok and interp_is_order_independent(h, obj)
        # footnote regression: the message-set merge commutes
        states = list(seen)[:50]
        for a in states:
            for b in states:
                ok = ok and guest_obj.join(a, b) == guest_obj.join(b, a)
    elapsed = time.monotonic() - started
    report(
        "10 (interp is order-independent; merge commutes)",
        ok and checked > 10,
        elapsed,
        f"{checked} reachable message sets",
    )


def test_criterion_11_concurrent_commutation():
    started = time.monotonic()
    ok = True
    details = []
    systems = []
    for roster in ROSTERS:
        systems.append((f"gset-op@{len(roster)}rid", OpSystem(gset_op((1, 2)), roster)))
        systems.append(
            (f"gcounter-guest@{len(roster)}rid", OpSystem(st_to_op(gcounter_st()), roster))
        )
    systems.append(("gset-st-guest@2rid", OpSystem(st_to_op(gset_st((1, 2))), ("r1", "r2"))))
    for name, system in systems:
        v = check_commutation(system, step_bound=STEP_BOUND)
        ok = ok and v.passed
        details.append(f"{name}: {v.stats['pairs_checked']} pairs")
    elapsed = time.monotonic() - started
    report("11 (concurrent effects commute on all explored configurations)", ok, elapsed, "; ".join(details))
