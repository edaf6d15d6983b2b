"""Continuous-time quantum-walk clock for an autonomous quantum computer.

A cursor excitation walks along an open XY chain and applies one program
primitive to a register qubit per link crossed.  The package provides the
exact spectral dynamics of the cursor, the asymptotic computation-speed
laws, the Bloch/entropy evolution of the clocked register, multi-excitation
clock states, and a dense brute-force oracle for cross-checking.

Importing the package sets numpy's OpenBLAS to one thread, a process-wide
side effect, so that outputs do not depend on the BLAS thread count.  It
is skipped when OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS is
set; qwclock._blas.REPORT says what was done.
"""

from . import _blas  # noqa: F401  (pins BLAS before any product runs)
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
    position_moments,
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
    bloch_vector,
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
    oracle_reflection,
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
    SpeedLaw,
    empirical_speed,
    law_general,
    law_localized,
    law_pad_ck,
    law_pad_cn,
    law_shifted,
    momentum_amplitude,
    pad_cn_mean_exact,
    pad_cn_variance_large_n,
)

__version__ = "0.1.0"
