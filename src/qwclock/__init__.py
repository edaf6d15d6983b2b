"""Continuous-time quantum-walk clock for an autonomous quantum computer.

A cursor excitation walks along an open XY chain and applies one program
primitive to a register qubit per link crossed.  The package provides the
exact spectral dynamics of the cursor, the asymptotic computation-speed
laws, the Bloch/entropy evolution of the clocked register, multi-excitation
clock states, and a dense brute-force oracle for cross-checking.
"""

from .chain import (
    ChainSpec,
    CursorWavefunction,
    NormalizationError,
    PositionStatistics,
    ResourceLimitError,
    amplitude_kernel,
    basis_state,
    chain_hamiltonian,
    eigenbasis,
    eigenfunction,
    eigenvalue,
    gamma_state,
    launchpad_state,
    position_statistics,
    propagate,
    propagator,
)
from .multi import (
    JointSpeedLaw,
    OccupationSet,
    SectorState,
    count_past_link_distribution,
    joint_speed_law,
    propagate_free_sector,
    propagate_single_link,
    sector_energy,
    single_link_densities,
    slater_amplitude,
)
from .oracle import (
    DenseHamiltonian,
    partial_trace,
    sector_occupations,
    von_neumann_entropy,
)
from .oracle import build as build_dense_hamiltonian
from .oracle import evolve as evolve_dense
from .register import (
    GroverParams,
    MachineState,
    PrimitiveProgram,
    RegisterTrajectory,
    alternating_program,
    asymptotic_speed_cdf,
    bessel_struve_approx,
    bloch_polar,
    bloch_vector,
    entropy,
    entropy_from_r,
    estimation_reflection,
    grover_initial_state,
    grover_params,
    identity_program,
    lindblad_coefficients,
    local_maxima,
    local_minima,
    machine_trajectory,
    measure_clock,
    measure_register_sigma3,
    optimal_readout,
    oracle_reflection,
    register_density,
    register_state_sequence,
    register_trajectory,
    rotation_about_2,
    rotation_window_program,
    single_link_program,
    toy_program,
)
from .special import speed_characteristic_kernel
from .speed import (
    EmpiricalSpeed,
    MomentumProfile,
    SpeedLaw,
    empirical_speed,
    law_general,
    law_localized,
    law_pad_ck,
    law_pad_cn,
    law_shifted,
    momentum_amplitude,
    momentum_profile,
    pad_cn_mean_exact,
    pad_cn_variance_large_n,
)

__version__ = "0.1.0"
