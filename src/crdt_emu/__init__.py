"""Executable semantics for op-based and state-based CRDT systems, the
emulation transformers between them, and a bounded checker for the
simulation, trace, convergence and client-cotermination properties."""

from .core import (
    Config,
    Event,
    Input,
    Message,
    Output,
    System,
    VectorClock,
    bcast,
    happens_before,
    initial_config,
    query_step,
)
from .objects import (
    OpObject,
    StObject,
    augment_history_op,
    augment_history_st,
    check_concurrent_commutation,
    gcounter_st,
    gset_op,
    gset_st,
)
from .opsem import OpSystem, op_replica_step, op_system_steps
from .stsem import StSystem, st_replica_step, st_system_steps
from .emulation import interp, op_to_st, st_to_op
from .checker import (
    PairedSystem,
    Verdict,
    check_causal_safety,
    check_strong_convergence,
    check_trace_equivalence,
    check_weak_bisimulation,
    check_weak_simulation,
    explore,
    weak_traces,
)
from .client import (
    ClientState,
    ClientSystem,
    can_terminate,
    check_approximation,
    eval_expr,
    parse_program,
    program_to_text,
)

__version__ = "0.1.0"
