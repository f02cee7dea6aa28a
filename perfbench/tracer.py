"""Outside-in tracing of the ``crdt_emu`` package.

Nothing here edits the package's source.  ``Tracer.install`` replaces the
functions and methods listed in ``SITES`` with wrappers, at every place the
package looks them up: names bound by ``from ... import`` are patched in the
importing module, methods on their class.  ``Tracer.uninstall`` puts the
originals back.  Three kinds of wrapper:

- ``span``: coarse layer entries.  Each call is kept as a span (id, name,
  start, end, the id of the enclosing span, and the check it belongs to) and
  also feeds the per-function aggregates.
- ``timed``: hot calls.  Per-function count, total and self time, where self
  time is the call's duration minus that of the timed calls made inside it.
- ``count``: leaf value functions, counted only, so the tracing cost stays
  small on calls made millions of times.  Their time shows up in the self
  time of the timed caller.

The interpreter's cyclic GC is observed through ``gc.callbacks``; no GC
setting is changed.
"""

from __future__ import annotations

import functools
import gc
import importlib
import time
from collections import Counter, defaultdict

PKG = "crdt_emu"

# (kind, metric key, module, attribute path, the workload that must call it)
SITES: list[tuple[str, str, str, str, str]] = [
    ("span", "cli.load_scenario", "cli", "load_scenario", "simulate"),
    ("span", "cli.build_systems", "cli", "build_systems", "simulate"),
    ("span", "checker.check_weak_simulation", "cli", "check_weak_simulation", "simulate"),
    ("span", "checker.check_weak_bisimulation", "cli", "check_weak_bisimulation", "simulate"),
    ("span", "checker.check_trace_equivalence", "cli", "check_trace_equivalence", "sweep"),
    ("span", "checker.check_strong_convergence", "cli", "check_strong_convergence", "sweep"),
    ("span", "checker.check_causal_safety", "cli", "check_causal_safety", "sweep"),
    ("span", "checker.check_commutation", "cli", "check_commutation", "sweep"),
    ("span", "client.check_approximation", "client", "check_approximation", "refute"),
    ("span", "checker.explore", "checker", "explore", "sweep"),
    ("span", "checker.weak_traces", "checker", "weak_traces", "sweep"),
    ("span", "checker.bisim_game", "checker", "_bisim_game", "refute"),
    ("timed", "checker.relation", "checker", "Relation.clause", "simulate"),
    ("timed", "checker.constructive_match", "checker", "constructive_match", "simulate"),
    # the guest-side bowtie matcher, counted as a constructive matcher
    ("timed", "checker.constructive_match", "checker", "_bowtie_guest_match", "simulate"),
    ("timed", "checker.weak_matches", "checker", "weak_matches", "refute"),
    ("timed", "checker.silent_ball", "checker", "_silent_ball", "refute"),
    ("timed", "checker.evidence", "checker", "_evidence", "refute"),
    ("timed", "opsem.op_system_steps", "opsem", "op_system_steps", "sweep"),
    ("timed", "stsem.st_system_steps", "stsem", "st_system_steps", "sweep"),
    ("timed", "core.satisfies_causal_delivery", "core", "satisfies_causal_delivery", "sweep"),
    ("timed", "objects.check_concurrent_commutation",
     "checker", "check_concurrent_commutation", "sweep"),
    ("timed", "client.can_terminate", "client", "can_terminate", "refute"),
    ("count", "checker.cached_steps", "checker", "_cached_steps", "refute"),
    ("count", "opsem.op_mk_deliver", "opsem", "op_mk_deliver", "sweep"),
    ("count", "opsem.op_mk_deliver", "checker", "op_mk_deliver", "simulate"),
    ("count", "emulation.interp", "emulation", "interp", "simulate"),
    ("count", "emulation.interp", "checker", "interp", "simulate"),
    ("count", "core.happens_before", "core", "happens_before", "sweep"),
    ("count", "core.happens_before", "opsem", "happens_before", "sweep"),
    ("count", "core.happens_before", "checker", "happens_before", "simulate"),
    ("count", "core.happens_before", "emulation", "happens_before", "simulate"),
    ("count", "core.VectorClock.compare", "core", "VectorClock.compare", "sweep"),
    ("count", "core.Message.__eq__", "core", "Message.__eq__", "sweep"),
    ("count", "core.FrozenDict.set", "core", "FrozenDict.set", "sweep"),
]

RELATIONS = ("R1", "R2", "Q1", "Q2", "bowtie")


def _resolve(module: str, path: str):
    owner = importlib.import_module(f"{PKG}.{module}")
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    return owner, name


class Tracer:
    """Wrappers, spans and aggregates for one traced pass."""

    def __init__(self):
        self.calls: Counter = Counter()        # per metric key, timed calls
        self.site_calls: Counter = Counter()   # per "module.attribute" site
        self.missing: list[str] = []           # sites the package no longer has
        self.total: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.found = 0                 # weak_matches calls that found a match
        self.explored = Counter()      # states/edges of the graphs explore returned
        self.caches = Counter()        # entries read off the systems
        self.gc_s = 0.0
        self.gc_collections = 0
        self.gc_gen2 = 0
        self.spans: list[dict] = []
        self.patched: list[tuple[object, str, object]] = []
        self._frames: list[list[float]] = []   # child time of each open timed call
        self._open: list[int] = []             # indices of open spans
        self._check = None
        self._gc_t0 = 0.0

    # --- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        """Wrap every site.  A site the package no longer has is listed in
        ``missing`` and its metrics read 0."""
        for kind, key, module, path, _ in SITES:
            owner, name = _resolve(module, path)
            original = getattr(owner, "__dict__", {}).get(name)
            if original is None:
                self.missing.append(f"{module}.{path}")
                continue
            self.patched.append((owner, name, original))
            setattr(owner, name, self._wrap(kind, key, f"{module}.{path}", original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        while self.patched:
            owner, name, original = self.patched.pop()
            setattr(owner, name, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
            return
        self.gc_s += time.perf_counter() - self._gc_t0
        self.gc_collections += 1
        if info.get("generation") == 2:
            self.gc_gen2 += 1

    # --- wrappers ---------------------------------------------------------------

    def _wrap(self, kind: str, key: str, site: str, fn):
        calls, site_calls = self.calls, self.site_calls
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                site_calls[site] += 1
                return fn(*args, **kwargs)
            return counted

        clock = time.perf_counter
        frames, total, self_s = self._frames, self.total, self.self_s
        by_relation = key == "checker.relation"
        is_span = kind == "span"
        after = self._after.get(key)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            k = f"{key}.{args[0].id}" if by_relation else key
            span = self._open_span(k) if is_span else None
            frame = [0.0]
            frames.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                dur = t1 - t0
                if frames:
                    frames[-1][0] += dur
                calls[k] += 1
                site_calls[site] += 1
                total[k] += dur
                self_s[k] += dur - frame[0]
                if span is not None:
                    self._close_span(span, t0, t1)
            if after is not None:
                after(self, result)
            return result

        return timed

    def _note_explore(self, graph) -> None:
        self.explored["states"] += len(graph.nodes)
        self.explored["edges"] += len(graph.edges)

    def _note_match(self, found) -> None:
        if found:
            self.found += 1

    _after = {"checker.explore": _note_explore, "checker.weak_matches": _note_match}

    # --- spans -----------------------------------------------------------------

    def _open_span(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append({"id": idx, "name": name, "parent": parent, "check": self._check})
        self._open.append(idx)
        return idx

    def _close_span(self, idx: int, start: float, end: float) -> None:
        self._open.pop()
        self.spans[idx]["start"] = start
        self.spans[idx]["end"] = end

    def begin_check(self, check_id: str) -> None:
        self._check = check_id
        span = self._open_span(f"check:{check_id}")
        self._frames.append([0.0])
        self.spans[span]["start"] = time.perf_counter()

    def end_check(self) -> None:
        t1 = time.perf_counter()
        self._frames.pop()
        span = self._open[-1]
        self._close_span(span, self.spans[span]["start"], t1)
        self._check = None

    # --- caches ----------------------------------------------------------------

    def read_caches(self, systems) -> None:
        """Add the sizes of the checker's per-system caches and of the
        interpretation memo of each system's object."""
        from crdt_emu import emulation

        for system in systems:
            self.caches["steps"] += len(getattr(system, "_steps_by_summary", ()))
            self.caches["balls"] += len(getattr(system, "_balls_by_summary", ()))
            self.caches["interp"] += len(emulation._interp_memo.get(system.obj, ()))

    # --- report ----------------------------------------------------------------

    def metrics(self, rows: list[dict]) -> dict[str, tuple[float, str]]:
        c, s = Counter(self.calls), self.self_s
        for kind, key, module, path, _ in SITES:
            if kind == "count":
                c[key] += self.site_calls[f"{module}.{path}"]
        out: dict[str, tuple[float, str]] = {}

        def calls_and_self(key: str) -> None:
            out[f"{key}.calls"] = (c[key], "count")
            out[f"{key}.self_s"] = (s[key], "s")

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        stats = Counter()
        for row in rows:
            stats.update(row["counts"])

        for rel in RELATIONS:
            calls_and_self(f"checker.relation.{rel}")
        calls_and_self("checker.constructive_match")
        matched = stats["matcher_matched"]
        out["checker.matcher_fraction"] = (
            ratio(matched, matched + stats["fallback_matched"]), "ratio")
        calls_and_self("opsem.op_system_steps")
        calls_and_self("stsem.st_system_steps")
        out["opsem.op_mk_deliver.calls"] = (c["opsem.op_mk_deliver"], "count")
        out["checker.explore.self_s"] = (s["checker.explore"], "s")
        out["checker.explore.states"] = (self.explored["states"], "count")
        out["checker.explore.edges"] = (self.explored["edges"], "count")
        out["checker.explore.dedup_ratio"] = (
            ratio(self.explored["states"], self.explored["edges"]), "ratio")
        out["checker.weak_traces.self_s"] = (s["checker.weak_traces"], "s")
        calls_and_self("core.satisfies_causal_delivery")
        out["objects.check_concurrent_commutation.self_s"] = (
            s["objects.check_concurrent_commutation"], "s")
        for key in ("core.happens_before", "core.VectorClock.compare",
                    "core.Message.__eq__", "core.FrozenDict.set", "emulation.interp"):
            out[f"{key}.calls"] = (c[key], "count")
        out["emulation.interp_memo.entries"] = (self.caches["interp"], "count")
        calls_and_self("checker.weak_matches")
        out["checker.weak_matches.found_ratio"] = (
            ratio(self.found, c["checker.weak_matches"]), "ratio")
        calls_and_self("checker.silent_ball")
        out["checker.bisim_game.self_s"] = (s["checker.bisim_game"], "s")
        out["checker.evidence.self_s"] = (s["checker.evidence"], "s")
        for cache, lookups in (("steps", c["checker.cached_steps"]),
                               ("balls", c["checker.silent_ball"])):
            entries = self.caches[cache]
            out[f"checker.{cache}_cache.entries"] = (entries, "count")
            out[f"checker.{cache}_cache.hit_ratio"] = (
                ratio(lookups - entries, lookups), "ratio")
        for key in ("pairs", "obligations", "states"):
            out[f"checker.{key}"] = (stats[key], "count")
        out["runtime.gc_s"] = (self.gc_s, "s")
        out["runtime.gc_collections"] = (self.gc_collections, "count")
        out["runtime.gc_gen2_collections"] = (self.gc_gen2, "count")
        calls_and_self("client.can_terminate")
        out["client.states"] = (stats["k_states"] + stats["l_states"], "count")
        out["cli.load_scenario.s"] = (self.total["cli.load_scenario"], "s")
        out["cli.build_systems.s"] = (self.total["cli.build_systems"], "s")
        return out
