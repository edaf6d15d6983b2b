"""Exact single-excitation dynamics of the open XY cursor chain.

The chain has s sites, hopping coupling lam, and fixed boundary conditions
v(0) = v(s+1) = 0.  Everything in this module is spectral: eigenvalues
e_k = -lam*cos(k*pi/(s+1)), sine eigenmodes v_k(x), and propagation by
basis transform.  Site indices are 1-based throughout.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChainSpec",
    "CursorWavefunction",
    "PositionStatistics",
    "NormalizationError",
    "ResourceLimitError",
    "eigenvalue",
    "eigenfunction",
    "eigenbasis",
    "chain_hamiltonian",
    "amplitude_kernel",
    "propagator",
    "propagate",
    "basis_state",
    "position_statistics",
    "launchpad_state",
    "gamma_state",
]

# diagnostic bound on norm drift; states are never silently renormalized
NORM_DRIFT_TOL = 1e-9
# the one size limit: bytes a run may allocate by shape, checked beforehand
MEMORY_BUDGET = 4 * 2**30


class NormalizationError(ValueError):
    """A state's norm drifted past the diagnostic bound."""


class ResourceLimitError(RuntimeError):
    """The estimated memory of a requested instance exceeds MEMORY_BUDGET."""


def _check_memory(nbytes, what: str) -> None:
    """Refuse an estimate of nbytes (exact for ints; nan and inf fail) before allocating."""
    if not nbytes <= MEMORY_BUDGET:
        raise ResourceLimitError(f"{what} exceeds the {MEMORY_BUDGET >> 30} GiB memory budget")


@dataclass(frozen=True)
class ChainSpec:
    """Static configuration of a run: s cursor sites, hopping coupling lam."""

    s: int
    lam: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.s, (int, np.integer)) or self.s < 2:
            raise ValueError(f"chain length must be an integer >= 2, got s={self.s}")
        if not self.lam > 0:
            raise ValueError(f"coupling must be positive, got lam={self.lam}")


def _check_site(spec: ChainSpec, x: int, name: str = "x") -> None:
    if not 1 <= x <= spec.s:
        raise ValueError(f"{name}={x} outside 1..{spec.s}")


@dataclass(frozen=True, eq=False)
class CursorWavefunction:
    """Normalized amplitudes over the s chain sites (site x at index x-1)."""

    spec: ChainSpec
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.spec.s,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({self.spec.s},)"
            )
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if abs(norm2 - 1.0) > NORM_DRIFT_TOL:
            raise NormalizationError(f"state norm^2 = {norm2!r} deviates from 1")

    def amplitude(self, x: int) -> complex:
        _check_site(self.spec, x)
        return complex(self.amplitudes[x - 1])

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True, eq=False)
class PositionStatistics:
    """Site distribution of a cursor state with its first two moments."""

    distribution: np.ndarray
    mean: float
    variance: float


def eigenvalue(spec: ChainSpec, k: int) -> float:
    """Energy e_k = -lam*cos(k*pi/(s+1)) of the k-th chain mode."""
    _check_site(spec, k, "k")
    return -spec.lam * np.cos(k * np.pi / (spec.s + 1))


def eigenfunction(spec: ChainSpec, k: int, x: int) -> float:
    """Mode amplitude v_k(x) = sqrt(2/(s+1)) * sin(k*pi*x/(s+1))."""
    _check_site(spec, k, "k")
    _check_site(spec, x)
    return np.sqrt(2.0 / (spec.s + 1)) * np.sin(k * np.pi * x / (spec.s + 1))


@functools.lru_cache(maxsize=32)
def eigenbasis(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray]:
    """All energies and modes at once.

    Returns (e, V) with e[k-1] the energies and V[x-1, k-1] = v_k(x);
    V is real, symmetric and orthogonal.  Arrays are cached read-only.
    """
    s = spec.s
    # V, two temporaries and the complex copy _complex_modes keeps beside it
    _check_memory(40 * s * s, f"eigenbasis of s={s} sites")
    k = np.arange(1, s + 1)
    e = -spec.lam * np.cos(k * np.pi / (s + 1))
    V = np.sqrt(2.0 / (s + 1)) * np.sin(np.pi * np.outer(k, k) / (s + 1))
    e.flags.writeable = False
    V.flags.writeable = False
    return e, V


@functools.lru_cache(maxsize=32)
def _complex_modes(spec: ChainSpec) -> np.ndarray:
    """V cast to complex once, cached read-only (budgeted by eigenbasis).

    V is exactly symmetric, so the kernel uses this copy untransposed for
    both of its products; V.T would pick another BLAS flag and other bits.
    """
    Vc = eigenbasis(spec)[1].astype(complex)
    Vc.flags.writeable = False
    return Vc


def chain_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Tridiagonal matrix of the chain restricted to one excitation."""
    h = np.zeros((spec.s, spec.s))
    off = -spec.lam / 2.0
    idx = np.arange(spec.s - 1)
    h[idx, idx + 1] = off
    h[idx + 1, idx] = off
    return h


def amplitude_kernel(spec: ChainSpec, t: float, x: int) -> complex:
    """Transition amplitude c(t, x; s) from site 1 to site x after time t.

    Direct O(s) spectral sum:
    (2/(s+1)) * sum_k exp(i*lam*t*cos(k*pi/(s+1))) sin(k*pi/(s+1)) sin(k*pi*x/(s+1)).
    """
    _check_site(spec, x)
    s = spec.s
    k = np.arange(1, s + 1)
    a = k * np.pi / (s + 1)
    phases = np.exp(1j * spec.lam * t * np.cos(a))
    return complex(2.0 / (s + 1) * np.sum(phases * np.sin(a) * np.sin(a * x)))


def propagator(spec: ChainSpec, t: float) -> np.ndarray:
    """Unitary s x s matrix exp(-i*H*t) of the one-excitation chain."""
    e, V = eigenbasis(spec)
    return (V * np.exp(-1j * e * t)) @ V.T


def basis_state(spec: ChainSpec, x: int) -> CursorWavefunction:
    """Cursor localized at site x."""
    _check_site(spec, x)
    amps = np.zeros(spec.s, dtype=complex)
    amps[x - 1] = 1.0
    return CursorWavefunction(spec, amps)


def _evolve_modes(spec: ChainSpec, amps: np.ndarray, times) -> np.ndarray:
    """Free chain evolution of d amplitude columns over a time grid.

    Maps (s, d) site amplitudes to (s, T, d):
    psi(t, x) = sum_k exp(-i e_k t) v_k(x) (sum_y v_k(y) psi0(y)).
    This is the package's one spectral transform; callers check the norm.
    Times do not mix, so a grid may be evolved in chunks; for d = 2 the bits
    do not depend on the chunk width (a one-column product may round otherwise).
    """
    s, T, d = spec.s, len(times), amps.shape[1]
    # V, its complex copy and about three (s, T, d) complex temporaries; in a
    # trajectory T is one chunk's width, so this is checked chunk by chunk
    _check_memory(24 * s * s + 48 * s * T * d, f"evolving s={s} sites over {T} times")
    e = eigenbasis(spec)[0]
    Vc = _complex_modes(spec)
    coeff = Vc @ amps  # (s, d)
    phases = np.exp(-1j * np.outer(e, times))  # (s, T)
    return np.tensordot(Vc, phases[:, :, None] * coeff[:, None, :], axes=(1, 0))


def propagate(psi0: CursorWavefunction, t: float) -> CursorWavefunction:
    """Evolve a cursor state for time t in the sine eigenbasis.

    Raises NormalizationError if the norm drifts beyond NORM_DRIFT_TOL.
    """
    spec = psi0.spec
    amps = _evolve_modes(spec, psi0.amplitudes[:, None], [t])[:, 0, 0]
    norm2 = float(np.sum(np.abs(amps) ** 2))
    if abs(norm2 - 1.0) > NORM_DRIFT_TOL:
        raise NormalizationError(f"norm^2 drifted to {norm2!r} after propagation")
    return CursorWavefunction(spec, amps)


def _site_statistics(p: np.ndarray) -> PositionStatistics:
    """Mean and variance of the site index under the distribution p."""
    x = np.arange(1, p.size + 1)
    mean = float(np.dot(x, p))
    variance = float(np.dot(x * x, p) - mean**2)
    return PositionStatistics(distribution=p, mean=mean, variance=variance)


def position_statistics(psi: CursorWavefunction) -> PositionStatistics:
    """Distribution |psi(x)|^2 with mean and variance of the site index."""
    return _site_statistics(psi.probabilities())


def launchpad_state(spec: ChainSpec, epsilon: int, k: int) -> CursorWavefunction:
    """Eigenstate |c_k> of the chain restricted to the pad {1..epsilon}.

    psi(x) = sqrt(2/(eps+1)) * sin(k*pi*x/(eps+1)) for x <= eps, zero beyond.
    For epsilon = 2n-1, k = n this is the flat alternating state with
    amplitude +-1/sqrt(n) on odd sites.
    """
    if not 1 <= epsilon <= spec.s:
        raise ValueError(f"pad size epsilon={epsilon} outside 1..{spec.s}")
    if not 1 <= k <= epsilon:
        raise ValueError(f"pad mode k={k} outside 1..{epsilon}")
    amps = np.zeros(spec.s, dtype=complex)
    x = np.arange(1, epsilon + 1)
    amps[:epsilon] = np.sqrt(2.0 / (epsilon + 1)) * np.sin(k * np.pi * x / (epsilon + 1))
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
    return CursorWavefunction(spec, amps)


def gamma_state(spec: ChainSpec, n: int) -> CursorWavefunction:
    """Three-mode pad state on {1..2n-1} that boosts mean speed.

    psi(x) proportional to (1 + cos(pi*x/(2n))) * sin(pi*x/2); the
    sqrt(2/(3n)) prefactor is only asymptotically normalizing, so the
    state is renormalized exactly after construction.
    """
    if n < 1 or 2 * n - 1 > spec.s:
        raise ValueError(f"pad width 2n-1 = {2 * n - 1} outside 1..{spec.s}")
    amps = np.zeros(spec.s, dtype=complex)
    x = np.arange(1, 2 * n)
    amps[: 2 * n - 1] = (
        np.sqrt(2.0 / (3.0 * n))
        * (1.0 + np.cos(np.pi * x / (2.0 * n)))
        * np.sin(np.pi * x / 2.0)
    )
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
    return CursorWavefunction(spec, amps)
