from __future__ import annotations

import pytest

from crdt_emu.checker import Graph
from crdt_emu.core import Message, VectorClock


def msg(origin: str, clock: dict[str, int], payload) -> Message:
    return Message(origin, VectorClock.of(clock), payload)


def clock_before(a: VectorClock, b: VectorClock) -> bool:
    """The pointwise strict order on clocks: a != b and no entry of a above
    b's.  A reference for happens-before that does not use the package's
    origin-component rule (``core.happens_before``)."""
    return a != b and all(n <= b.get(r) for r, n in a.entries)


def raw_tree(system, depth: int) -> Graph:
    """The unpruned tree of system to depth, in breadth-first order: one
    node per path of at most depth steps from the initial configuration, so
    equal configurations reached along different paths are distinct nodes,
    and every node but the root is the target of exactly its parent step,
    kept as (node, event) and as an edge.
    Built by its own loop, not ``checker.breadth_first``, so that tests can
    hold the package's search, which keeps one node per configuration,
    against it."""
    tree = Graph()
    tree.nodes.append(system.init())
    tree.depths.append(0)
    tree.parents.append(None)
    i = 0
    while i < len(tree.nodes):
        if tree.depths[i] < depth:
            for e, c2 in system.steps(tree.nodes[i]):
                tree.parents.append((i, e))
                tree.edges.append((i, e, len(tree.nodes)))
                tree.nodes.append(c2)
                tree.depths.append(tree.depths[i] + 1)
        i += 1
    return tree


def eager_ball(steps, cfg, budget: int, cache: dict) -> list:
    """The silent ball of cfg to budget, built whole: configurations
    reachable by at most budget silent steps, cfg first, in BFS order, each
    with the events of the first path found.  steps maps a configuration to
    its steps, and cache is the caller's, keyed by (cfg, budget).  The
    reference for ``checker._silent_ball``, which
    builds one ball per configuration a layer at a time."""
    hit = cache.get((cfg, budget))
    if hit is not None:
        return hit
    out = [(cfg, ())]
    seen = {cfg}
    frontier = [(cfg, ())]
    for _ in range(budget):
        nxt = []
        for c, evs in frontier:
            for e, c2 in steps(c):
                if e.obs_key() is not None or c2 in seen:
                    continue
                seen.add(c2)
                item = (c2, evs + (e,))
                out.append(item)
                nxt.append(item)
        if not nxt:
            break
        frontier = nxt
    cache[(cfg, budget)] = out
    return out


def eager_moves(steps, cfg, obs, budget: int, cache: dict) -> list:
    """Every weak move cfg ==obs==> cfg' within budget silent steps (obs
    None for tau), each landing once with the events of the first path
    found, enumerated over whole balls.  The reference for
    ``checker.weak_moves``."""
    ball = eager_ball(steps, cfg, budget, cache)
    if obs is None:
        return list(ball)
    out, landed = [], set()
    for c1, evs in ball:
        for e, c2 in steps(c1):
            if e.obs_key() != obs:
                continue
            for c3, evs3 in eager_ball(steps, c2, budget - len(evs), cache):
                if c3 not in landed:
                    landed.add(c3)
                    out.append((c3, evs + (e,) + evs3))
    return out


@pytest.fixture
def m1():
    return msg("r1", {"r1": 1}, 1)


@pytest.fixture
def m2():
    # causally after m1: sent by r2 after delivering m1
    return msg("r2", {"r1": 1, "r2": 1}, 2)


@pytest.fixture
def m3():
    # concurrent with both m1 and m2
    return msg("r3", {"r3": 1}, 3)

