"""Cooling a damped single-mode resonator by periodic reset-qubit kicks.

The protocol couples the mode to a freshly reset two-level system for a
short resonant window at a fixed repetition rate; every kick with the
qubit in its ground state removes at most one quantum.  This package
simulates the resulting population dynamics, solves its steady states,
applies qubit-imperfection corrections, and maps circuit-level device
quantities to protocol parameters.
"""
from .model import (
    TAIL_TOL,
    KickMap,
    PhononDistribution,
    ProtocolParams,
    apply_kick,
    build_kick_map,
    default_n_max,
    mean_phonon,
    number_state,
    thermal_distribution,
)
from .dynamics import (
    ANALYTIC_PRODUCT,
    LONG_TIME,
    NULL_SPACE,
    EvolutionTrace,
    GeneratorMatrix,
    SteadyStateResult,
    build_generator,
    damping_propagator,
    evolve,
    evolve_stroboscopic,
    kick_fluctuation,
    steady_state_analytic,
    steady_state_longtime,
    steady_state_numeric,
)
from .corrections import (
    QubitEnvironment,
    cooling_floor,
    corrected_steady_state,
    kick_fidelity,
    relaxation_rate,
    thermal_excitation_probability,
)
from .device import (
    DeviceParams,
    ScheduleReport,
    coupling_from_geometry,
    derive_protocol,
    duty_cycle_schedule,
    gate_fluctuation_coupling,
)
from .oracle import embed_bipartite, jc_unitary, kick_oracle
from .errors import (
    ConvergenceError,
    DegenerateKernelError,
    DiagonalClosureError,
    NonNormalizableError,
    TruncationOverflowWarning,
    ValidityWarning,
)

__version__ = "0.1.0"

__all__ = [
    "TAIL_TOL",
    "ANALYTIC_PRODUCT",
    "NULL_SPACE",
    "LONG_TIME",
    "PhononDistribution",
    "KickMap",
    "ProtocolParams",
    "GeneratorMatrix",
    "EvolutionTrace",
    "SteadyStateResult",
    "QubitEnvironment",
    "DeviceParams",
    "ScheduleReport",
    "apply_kick",
    "build_kick_map",
    "build_generator",
    "cooling_floor",
    "corrected_steady_state",
    "coupling_from_geometry",
    "damping_propagator",
    "default_n_max",
    "derive_protocol",
    "duty_cycle_schedule",
    "embed_bipartite",
    "evolve",
    "evolve_stroboscopic",
    "gate_fluctuation_coupling",
    "jc_unitary",
    "kick_fidelity",
    "kick_fluctuation",
    "kick_oracle",
    "mean_phonon",
    "number_state",
    "relaxation_rate",
    "steady_state_analytic",
    "steady_state_longtime",
    "steady_state_numeric",
    "thermal_distribution",
    "thermal_excitation_probability",
    "ConvergenceError",
    "DegenerateKernelError",
    "DiagonalClosureError",
    "NonNormalizableError",
    "TruncationOverflowWarning",
    "ValidityWarning",
]
