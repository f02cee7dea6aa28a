from __future__ import annotations

import pytest

from crdt_emu.core import Message, VectorClock


def msg(origin: str, clock: dict[str, int], payload) -> Message:
    return Message(origin, VectorClock.of(clock), payload)


def clock_before(a: VectorClock, b: VectorClock) -> bool:
    """The pointwise strict order on clocks: a != b and no entry of a above
    b's.  A reference for happens-before that does not use the package's
    origin-component rule (``core.happens_before``)."""
    return a != b and all(n <= b.get(r) for r, n in a.entries)


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

