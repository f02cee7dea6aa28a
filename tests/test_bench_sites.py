"""The package names that the benchmark's tracer wraps are still there.

``perfbench/tracer.py`` patches functions and methods by name from outside
the package, and a site the package no longer has makes its figures read 0
without failing the run.  This test installs the tracer and fails when a
site goes missing beyond those already known to be gone.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from crdt_emu import emulation

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Sites whose code was removed or replaced; the benchmark lists them until
# its next change.
KNOWN_MISSING = {
    "checker._bowtie_guest_match",
    "opsem.happens_before",
    "core.VectorClock.compare",
    "core.satisfies_causal_delivery",   # a test reference, in tests/reference.py
    # Deleted with core.FrozenDict: G-counter states and client stores are
    # sorted tuples, so the benchmark's per-layer count reads 0.
    "core.FrozenDict.set",
    # A message-set guest state is a message bitset: interp peels by
    # core.downset_bits, and emulation no longer imports happens_before.
    "emulation.happens_before",
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_its_sites():
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        missing = set(tracer.missing)
    finally:
        tracer.uninstall()
    assert missing <= KNOWN_MISSING
    # read directly by the tracer's cache figures, not wrapped
    assert isinstance(emulation._interp_memo, dict)
