"""Verdict-checked benchmark of the crdt-emu bounded checker.

    python3 perfbench/run.py --workload {simulate,sweep,refute} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The seed generates the workload's
scenario and client-program files under ``perfbench/_work``; each pass of
the workload then runs in a fresh worker process (``worker.py``) through
``cli.load_scenario`` -> ``cli.build_systems`` -> ``cli.run_check``, and
every verdict is compared with its known answer (``workloads.py``).

``--trace 0``: passes until ``--seconds`` have elapsed (at least one), with
set-up-only workers before and after them.  Reports ``wall_s`` (the time of
the checks, each check at its fastest over the passes), ``setup_s`` (median
of import plus scenario loading and system building) and ``peak_rss_mb``
(median of the workers' ``ru_maxrss``).

``--trace 1``: one untraced and one traced pass.  Reports the per-layer
figures of the traced pass and the tracing overhead, and requires both
passes to give identical verdicts, work counts and report digests.

Wrong verdicts (a check that raised, or whose outcome or witness facts differ
from the known answer) are the ``failed`` operations; ``attempted`` counts
verdict rows.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 10
DEADLINE_S = 170.0  # a run ends within three minutes even if a worker hangs


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], env: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def _signature(rows: list[dict]) -> list[tuple]:
    """What must not change between passes: verdicts, counts, digests."""
    return [(r["id"], r["outcome"], sorted(r["counts"].items()), r["digest"]) for r in rows]


def _wall_s(passes: list[dict]) -> float:
    """Sum over the checks of each check's fastest time across the passes.
    The machine's slow spells last seconds and only ever add time; the
    fastest pass of a check is the one they hit least.  A median of two
    passes would be their mean and keep half of a spell."""
    times = defaultdict(list)
    for p in passes:
        for r in p["rows"]:
            times[r["id"]].append(r["s"])
    return sum(min(ts) for ts in times.values())


def _summary_lines(rows: list[dict]) -> list[str]:
    """One line per check; the rows of a group (the client corpus) summed."""
    lines = []
    groups: dict[str, list[dict]] = defaultdict(list)
    order = []
    for r in rows:
        key = r["group"] or r["id"]
        if key not in groups:
            order.append(key)
        groups[key].append(r)
    for key in order:
        rs = groups[key]
        outcomes = defaultdict(int)
        counts = defaultdict(int)
        for r in rs:
            outcomes[r["outcome"]] += 1
            for k, v in r["counts"].items():
                counts[k] += v
        digest = rs[0]["digest"] if len(rs) == 1 else combined_digest([r["digest"] for r in rs])
        wrong = [f"{r['id']}: {r['wrong']}" for r in rs if r["wrong"]]
        lines.append(
            f"check {key:22s} {','.join(f'{k}={v}' for k, v in outcomes.items()):28s} "
            f"{sum(r['s'] for r in rs):8.3f} s  digest {digest}  "
            + " ".join(f"{k}={v}" for k, v in counts.items())
            + ("  WRONG " + "; ".join(wrong) if wrong else "")
        )
    return lines


def combined_digest(parts: list[str]) -> str:
    return hashlib.sha256("".join(parts).encode()).hexdigest()[:16]


def _traced(workload: str, seed: int, base: list[str], env: dict, deadline: float):
    """One untraced and one traced pass; the per-layer metrics."""
    plain = _worker(base, env, deadline)
    traced = _worker(base + ["--trace"], env, deadline)
    layers = traced["layers"]
    layers["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"], "ratio")
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{workload}-{seed}.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "spans": traced["spans"]}),
        encoding="utf-8",
    )
    return [plain, traced], {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}


def _timed(seconds: float, base: list[str], env: dict, deadline: float):
    """Passes for ``seconds`` (at least one); the end-to-end metrics."""
    # set-up samples before and after the passes, so that a slow spell of
    # the machine does not decide the median alone
    setups = [_worker(base + ["--setup-only"], env, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    passes = []
    started = time.monotonic()
    while not passes or time.monotonic() - started < seconds:
        passes.append(_worker(base, env, deadline))
    setups += [_worker(base + ["--setup-only"], env, deadline)["setup_s"]
               for _ in range(SETUP_SAMPLES)]
    setups += [p["setup_s"] for p in passes]
    return passes, {
        "wall_s": {"value": _wall_s(passes), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(p["peak_rss_mb"] for p in passes), "unit": "MB"},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "crdt_emu" / "__init__.py").is_file():
        raise BenchError(f"no crdt_emu sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    work = HERE / "_work" / f"{workload}-{seed}-{os.getpid()}"
    # String hashing is fixed: its per-process randomisation moves the time
    # of a pass by several percent through set and dict layouts.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    base = ["--workload", workload, "--seed", str(seed), "--dir", str(work)]
    try:
        workloads.write(workloads.build(workload, seed), work)
        if trace:
            passes, metrics = _traced(workload, seed, base, env, deadline)
        else:
            passes, metrics = _timed(seconds, base, env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    same = all(_signature(p["rows"]) == _signature(passes[0]["rows"]) for p in passes)
    rows = [r for p in passes for r in p["rows"]]
    failed = sum(1 for r in rows if r["wrong"])
    for line in _summary_lines(passes[0]["rows"]):
        print(line)
    if not same:
        print("MISMATCH: passes differ in verdicts, counts or digests")
    print(f"passes {len(passes)}  wrong_verdicts {failed / len(rows):.4f} share of checks "
          f"({failed}/{len(rows)})")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return {
        "correct": failed == 0 and same,
        "attempted": len(rows),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills and reaps the running
    # worker, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
