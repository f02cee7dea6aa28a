"""One pass of a workload in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --dir D [--setup-only] [--trace]

``D`` holds the scenario files ``run.py`` wrote for (W, N).  The worker
imports ``crdt_emu``, loads and builds every scenario (the set-up), then runs
every check through ``cli.run_check`` and compares each verdict with its
known answer.  It prints one JSON object on stdout.  With ``--trace`` the
calls into the package are wrapped from outside (see ``tracer.py``) and the
per-layer figures are added to the output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def digest(report: dict) -> str:
    text = json.dumps(report, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def counts_of(stats: dict) -> dict:
    return {k: v for k, v in stats.items() if isinstance(v, int) and not isinstance(v, bool)}


def setup(specs: list[workloads.ScenarioSpec], work_dir: Path) -> list:
    """Load and build every scenario: [(scenario, host, paired)]."""
    from crdt_emu import cli

    loaded = []
    for spec in specs:
        scenario = cli.load_scenario(work_dir / f"{spec.name}.scenario")
        host, paired = cli.build_systems(scenario)
        loaded.append((scenario, host, paired))
    return loaded


def run_pass(specs: list[workloads.ScenarioSpec], loaded: list, tracer=None,
             only: set[str] | None = None) -> tuple[list[dict], float]:
    """Run the checks (those in ``only``, if given) and judge each verdict
    row.  Returns the rows and the summed time of the checks.  Each
    scenario's systems are released once its checks are done."""
    from crdt_emu import cli

    rows = []
    wall_s = 0.0
    for i, spec in enumerate(specs):
        scenario, host, paired = loaded[i]
        for check in spec.checks:
            if only is not None and check.id not in only:
                continue
            if tracer is not None:
                tracer.begin_check(check.id)
            t0 = time.perf_counter()
            try:
                results = cli.run_check(scenario, check.entry, host, paired)
                error = None
            except Exception as exc:  # a raising check is a wrong verdict
                traceback.print_exc(file=sys.stderr)
                results, error = [], f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_check()
            wall_s += elapsed
            if error is None and len(results) != len(check.expect):
                error = f"{len(results)} verdict rows, expected {len(check.expect)}"
            if error is not None:
                rows.append({"id": check.id, "group": check.group, "outcome": "error",
                             "wrong": error, "counts": {}, "digest": "-", "s": elapsed})
                continue
            for k, ((_, verdict), expect) in enumerate(zip(results, check.expect)):
                rows.append({
                    "id": check.id if len(results) == 1 else f"{check.id}#{k}",
                    "group": check.group,
                    "outcome": verdict.outcome,
                    "wrong": workloads.judge(expect, verdict.outcome, verdict.witness),
                    "counts": counts_of(verdict.stats),
                    "digest": digest(verdict.to_report()),
                    "s": elapsed if k == 0 else 0.0,
                })
        if tracer is not None:
            tracer.read_caches([host] + ([paired.guest] if paired is not None else []))
        loaded[i] = None
    return rows, wall_s


def run(workload: str, seed: int, work_dir: Path, setup_only: bool, trace: bool) -> dict:
    specs = workloads.build(workload, seed)
    tracer = None
    started = time.perf_counter()
    import crdt_emu  # the import is part of the set-up

    if not Path(crdt_emu.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"crdt_emu was imported from {crdt_emu.__file__}, not from {SRC}")
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        for site in tracer.missing:
            print(f"trace: {site} not found; its figures read 0", file=sys.stderr)
    loaded = setup(specs, work_dir)
    setup_s = time.perf_counter() - started
    if setup_only:
        return {"setup_s": setup_s}
    try:
        rows, wall_s = run_pass(specs, loaded, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rows": rows,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(rows)
        out["spans"] = tracer.spans
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    out = run(args.workload, args.seed, args.dir, args.setup_only, args.trace)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
