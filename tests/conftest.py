from __future__ import annotations

import pytest

from crdt_emu.core import Message, MessageId, VectorClock


def msg(origin: str, seq: int, clock: dict[str, int], payload) -> Message:
    return Message(MessageId(origin, seq), VectorClock.of(clock), payload)


@pytest.fixture
def m1():
    return msg("r1", 1, {"r1": 1}, 1)


@pytest.fixture
def m2():
    # causally after m1: sent by r2 after delivering m1
    return msg("r2", 1, {"r1": 1, "r2": 1}, 2)


@pytest.fixture
def m3():
    # concurrent with both m1 and m2
    return msg("r3", 1, {"r3": 1}, 3)


def stepped(system, c) -> list:
    """The successors of c as (event, configuration) pairs: a step's event
    is its successor's newest trace event."""
    return [(c2.trace.head, c2) for c2 in system.steps(c)]
