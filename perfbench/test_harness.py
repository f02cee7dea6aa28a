"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

The site-coverage test runs one traced pass of every workload (about two
minutes); the others take seconds.
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import COUNTEREXAMPLE, PASS, Expect  # noqa: E402

# Cheap checks (a few seconds at most) from every workload.
CHEAP = {
    "simulate": {"Q2-gcounter"},
    "sweep": {"commutation", "traces-st-op"},
    "refute": {"R1-reliable-only", "causal-reliable-only", "R1-broken", "R2-broken",
               "qry-loop-broken"},
}


def _pass(workload: str, seed: int, tmp: Path, only=None, trace=False, edit=None):
    specs = workloads.build(workload, seed)
    if edit is not None:
        edit(specs)
    work = tmp / f"{workload}-{seed}"
    workloads.write(specs, work)
    t = None
    if trace:
        t = tracer.Tracer()
        t.install()
    try:
        rows, _ = worker.run_pass(specs, worker.setup(specs, work), t, only)
    finally:
        if t is not None:
            t.uninstall()
    return rows, t


def _signature(rows, with_digest=True):
    return [(r["id"], r["outcome"], r["counts"], r["digest"] if with_digest else None)
            for r in rows if not r["group"]]


def _find(specs, check_id):
    return next(c for s in specs for c in s.checks if c.id == check_id)


def test_judge_compares_outcome_and_witness_facts():
    witness = {"distinguishing_query": {"attacker_value": 5, "defender_options": [47]}}
    good = Expect((COUNTEREXAMPLE,), (("attacker_value", 5), ("defender_options", [47])))
    assert workloads.judge(good, COUNTEREXAMPLE, witness) is None
    assert workloads.judge(good, PASS, None) is not None
    wrong = Expect((COUNTEREXAMPLE,), (("attacker_value", 47),))
    assert "attacker_value" in workloads.judge(wrong, COUNTEREXAMPLE, witness)
    either = Expect((COUNTEREXAMPLE,), (("attacker_value", workloads.OneOf((9, 5))),))
    assert workloads.judge(either, COUNTEREXAMPLE, witness) is None
    neither = Expect((COUNTEREXAMPLE,), (("attacker_value", workloads.OneOf((9, 47))),))
    assert "one of" in workloads.judge(neither, COUNTEREXAMPLE, witness)


def test_known_answer_gate_rejects_a_wrong_expectation(tmp_path):
    only = {"R1-reliable-only"}
    rows, _ = _pass("refute", 7, tmp_path / "right", only)
    assert [r["wrong"] for r in rows] == [None]

    d = workloads.draw(7)

    def swap_values(specs):
        # Ex 2.5 shows v2 against {v1, v1+v2}; claim v1 instead
        _find(specs, "R1-reliable-only").expect = (
            Expect((COUNTEREXAMPLE,), (("attacker_value", d.v1),)),)

    rows, _ = _pass("refute", 7, tmp_path / "values", only, edit=swap_values)
    assert rows[0]["wrong"] and "attacker_value" in rows[0]["wrong"]

    def claim_pass(specs):
        _find(specs, "R1-reliable-only").expect = (Expect((PASS,)),)

    rows, _ = _pass("refute", 7, tmp_path / "outcome", only, edit=claim_pass)
    assert rows[0]["wrong"] and "outcome" in rows[0]["wrong"]


def test_a_raising_check_is_a_wrong_verdict(tmp_path):
    def break_entry(specs):
        _find(specs, "R1-broken").entry = {"name": "sim", "relation": "no-such-relation"}

    rows, _ = _pass("refute", 7, tmp_path, {"R1-broken"}, edit=break_entry)
    assert rows[0]["outcome"] == "error" and rows[0]["wrong"].startswith("raised")


@pytest.mark.parametrize("workload", sorted(CHEAP))
def test_counts_repeat_and_do_not_depend_on_the_seed(tmp_path, workload):
    first, _ = _pass(workload, 1, tmp_path / "a", CHEAP[workload])
    again, _ = _pass(workload, 1, tmp_path / "b", CHEAP[workload])
    other, _ = _pass(workload, 2, tmp_path / "c", CHEAP[workload])
    assert first and all(r["wrong"] is None for r in first + other)
    assert _signature(first) == _signature(again)
    assert _signature(first, with_digest=False) == _signature(other, with_digest=False)


@pytest.mark.parametrize("workload", sorted(CHEAP))
def test_traced_pass_matches_untraced(tmp_path, workload):
    plain, _ = _pass(workload, 3, tmp_path / "plain", CHEAP[workload])
    traced, t = _pass(workload, 3, tmp_path / "traced", CHEAP[workload], trace=True)
    assert _signature(plain) == _signature(traced)
    assert t.spans and all("end" in s for s in t.spans)


def test_wrappers_are_removed_cleanly():
    def current():
        out = {}
        for _, _, module, path, _ in tracer.SITES:
            owner, name = tracer._resolve(module, path)
            out[(module, path)] = owner.__dict__[name]
        return out

    before = current()
    callbacks = list(gc.callbacks)
    t = tracer.Tracer()
    t.install()
    assert not t.missing
    assert all(current()[k] is not v for k, v in before.items())
    t.uninstall()
    assert all(current()[k] is v for k, v in before.items())
    assert gc.callbacks == callbacks


def test_every_site_is_called_on_its_workload(tmp_path):
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    for workload in workloads.WORKLOADS:
        rows, t = _pass(workload, 5, tmp_path, trace=True)
        assert all(r["wrong"] is None for r in rows)
        idle = [f"{m}.{p}" for _, _, m, p, home in tracer.SITES
                if home == workload and not t.site_calls[f"{m}.{p}"]]
        assert not idle, f"{workload}: sites never called: {idle}"
        assert set(t.metrics(rows)) | {"trace.overhead_ratio"} == names


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "refute", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
