"""Dynamics with several clocking excitations on the chain.

The n-excitation sector is spanned by strictly increasing occupation-site
lists.  Free propagation is the antisymmetrized product of single-particle
propagations (equivalently, the expansion over determinant eigenstates);
a single active link dresses each configuration with a power of the link
primitive counted by how many excitations sit past the link.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .chain import NORM_DRIFT_TOL, ChainSpec, NormalizationError, eigenvalue, propagator
from .chain import _check_memory
from .oracle import sector_occupations
from .quadrature import composite_gauss_legendre

__all__ = [
    "OccupationSet",
    "SectorState",
    "JointSpeedLaw",
    "slater_amplitude",
    "sector_energy",
    "propagate_free_sector",
    "propagate_single_link",
    "single_link_densities",
    "count_past_link_distribution",
    "joint_speed_law",
]


def _check_sector_memory(s: int, n: int, d: int) -> None:
    """Budget the C(s, n) labels, the s x s propagator and about four d*s^n tensors;
    every SectorState passes this, so propagate_free_sector is budgeted too."""
    labels = math.comb(s, n) * (64 + 16 * n)
    _check_memory(labels + 64 * s * s + 64 * d * s**n, f"sector s={s}, n={n}, d={d}")


@dataclass(frozen=True)
class OccupationSet:
    """Strictly increasing list of occupied sites (or of mode numbers)."""

    sites: tuple[int, ...]

    def __post_init__(self) -> None:
        sites = tuple(int(x) for x in self.sites)
        object.__setattr__(self, "sites", sites)
        if len(sites) == 0:
            raise ValueError("occupation set must not be empty")
        if sites[0] < 1 or any(a >= b for a, b in zip(sites, sites[1:])):
            raise ValueError(
                f"sites must be strictly increasing positive integers, got {sites}"
            )

    def __len__(self) -> int:
        return len(self.sites)

    def __iter__(self):
        return iter(self.sites)


def _as_sites(obj) -> tuple[int, ...]:
    if isinstance(obj, OccupationSet):
        return obj.sites
    return OccupationSet(tuple(obj)).sites


def slater_amplitude(spec: ChainSpec, momenta, sites) -> float:
    """det[v_{k_i}(x_j)]: amplitude of an occupation list in a mode list.

    Label lists need not be ordered here (the determinant carries the
    permutation sign); occupation states themselves are always ordered.
    """
    k = np.array([int(v) for v in momenta])
    x = np.array([int(v) for v in sites])
    if len(k) != len(x):
        raise ValueError(f"size mismatch: {len(k)} momenta vs {len(x)} sites")
    if len(k) == 0:
        raise ValueError("label lists must not be empty")
    for label in (k, x):
        if label.min() < 1 or label.max() > spec.s:
            raise ValueError(f"labels {label.tolist()} outside 1..{spec.s}")
    matrix = np.sqrt(2.0 / (spec.s + 1)) * np.sin(
        np.pi * np.outer(k, x) / (spec.s + 1)
    )
    return float(np.linalg.det(matrix))


def sector_energy(spec: ChainSpec, momenta) -> float:
    """Sum of the single-mode energies of the occupied modes."""
    return float(sum(eigenvalue(spec, k) for k in _as_sites(momenta)))


@functools.lru_cache(maxsize=32)
def _occupation_array(s: int, n: int) -> np.ndarray:
    """The (C(s, n), n) occupation labels as one cached, read-only array."""
    arr = np.array(sector_occupations(s, n), dtype=int)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class SectorState:
    """Amplitudes over (register basis label, occupation list), total norm 1.

    amplitudes[z, i] multiplies register label z and the i-th occupation
    list in lexicographic order; d = 1 encodes a bare cursor.
    """

    spec: ChainSpec
    n: int
    amplitudes: np.ndarray  # (d, C(s, n)) complex

    def __post_init__(self) -> None:
        if not 1 <= self.n <= self.spec.s:
            raise ValueError(f"excitation number n={self.n} outside 1..{self.spec.s}")
        arr = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", arr)
        _check_sector_memory(self.spec.s, self.n, arr.shape[0] if arr.ndim == 2 else 1)
        m = len(sector_occupations(self.spec.s, self.n))
        if arr.ndim != 2 or arr.shape[1] != m:
            raise ValueError(f"amplitudes have shape {arr.shape}, expected (d, {m})")
        norm2 = float(np.sum(np.abs(arr) ** 2))
        if not abs(norm2 - 1.0) <= NORM_DRIFT_TOL:
            raise NormalizationError(f"sector norm^2 = {norm2!r} deviates from 1")

    @property
    def d(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def occupations(self) -> tuple[tuple[int, ...], ...]:
        return sector_occupations(self.spec.s, self.n)

    @classmethod
    def from_product(
        cls, spec: ChainSpec, sites, register_state=None
    ) -> "SectorState":
        """Basis occupation list, optionally tensored with a register vector."""
        occupied = _as_sites(sites)
        if occupied[-1] > spec.s:
            raise ValueError(f"sites {occupied} exceed the chain length s={spec.s}")
        n = len(occupied)
        reg = np.asarray([1.0] if register_state is None else register_state, dtype=complex)
        _check_sector_memory(spec.s, n, reg.size)  # before the labels are listed
        labels = sector_occupations(spec.s, n)
        amps = np.zeros((reg.size, len(labels)), dtype=complex)
        amps[:, labels.index(occupied)] = reg
        return cls(spec, n, amps)

    def to_vector(self) -> np.ndarray:
        """Flatten with the register label varying fastest (oracle layout)."""
        return self.amplitudes.T.reshape(-1)

    def register_density_matrix(self) -> np.ndarray:
        return self.amplitudes @ self.amplitudes.conj().T

    def occupation_probabilities(self) -> np.ndarray:
        return np.sum(np.abs(self.amplitudes) ** 2, axis=0)


def _embed_antisymmetric(amps: np.ndarray, s: int, n: int) -> np.ndarray:
    """Scatter (d, C(s, n)) ordered amplitudes onto the n-leg antisymmetric tensor.

    The tensor is stored leg-1-major, (l1, d, l2, ..., ln): the layout in which
    np.tensordot hands the first leg to its product.
    """
    subs = _occupation_array(s, n) - 1
    full = np.zeros((s, amps.shape[0]) + (s,) * (n - 1), dtype=complex)
    for perm in permutations(range(n)):
        sign = (-1) ** sum(a > b for a, b in combinations(perm, 2))  # inversion parity
        idx = tuple(subs[:, j] for j in perm)
        full[(idx[0], slice(None)) + idx[1:]] = (sign * amps).T
    return full


def _extract_ordered(full: np.ndarray, s: int, n: int) -> np.ndarray:
    subs = _occupation_array(s, n) - 1
    idx = tuple(subs[:, j] for j in range(n))
    return full[(slice(None),) + idx]


def _free_sample(u: np.ndarray, start: np.ndarray, out: np.ndarray, spare: np.ndarray, n: int):
    """Free-sector amplitudes (d, C(s, n)) of the embedded start after the propagator u.

    Leg by leg as np.tensordot did, with each leg's operand copied to the same
    C-ordered layout, but into the work buffers out and spare.  (For n = 2,
    d = 1 np.tensordot passed a transposed view; OpenBLAS gives the same bits.)
    """
    s = u.shape[0]
    np.dot(u, start.reshape(s, -1), out=out.reshape(s, -1))
    full = np.moveaxis(out, 0, 1)  # (d, l1, ..., ln), leg 1 updated
    for axis in range(2, n + 1):
        np.copyto(spare, np.moveaxis(full, axis, 0))
        np.dot(u, spare.reshape(s, -1), out=out.reshape(s, -1))
        full = np.moveaxis(out, 0, axis)
    ordered = _extract_ordered(full, s, n)
    # each ordered amplitude appears n! times in the tensor, carrying its sign
    norm2 = float(np.sum(np.abs(ordered) ** 2))
    if not abs(norm2 - 1.0) <= NORM_DRIFT_TOL:
        raise NormalizationError(f"sector norm^2 drifted to {norm2!r}")
    return ordered


def _free_sector_samples(spec: ChainSpec, n: int, amps: np.ndarray, times):
    """Yield the free-sector amplitudes of a start at each time: the start is
    embedded once, so a run holds three d * s^n tensors and allocates none per sample."""
    start = _embed_antisymmetric(amps, spec.s, n)
    out, spare = np.empty_like(start), np.empty_like(start)  # both (s, d, s, ..., s)
    for t in times:
        yield _free_sample(propagator(spec, t), start, out, spare, n)


def propagate_free_sector(state: SectorState, t: float) -> SectorState:
    """Evolve under the bare chain: one single-particle propagator per leg."""
    amps = next(_free_sector_samples(state.spec, state.n, state.amplitudes, [t]))
    return SectorState(state.spec, state.n, amps)


def _counts_past(s: int, n: int, x0: int) -> np.ndarray:
    return np.sum(_occupation_array(s, n) > x0, axis=1)


def count_past_link_distribution(state: SectorState, x0: int) -> np.ndarray:
    """Probability that exactly m of the n excitations sit past site x0."""
    if not 1 <= x0 <= state.spec.s:
        raise ValueError(f"x0={x0} outside 1..{state.spec.s}")
    counts = _counts_past(state.spec.s, state.n, x0)
    weights = state.occupation_probabilities()
    probs = np.zeros(state.n + 1)
    for m in range(state.n + 1):
        probs[m] = float(weights[counts == m].sum())
    return probs


def _single_link_samples(state: SectorState, x0: int, g: np.ndarray, times):
    """Yield the amplitudes (d, C(s, n)) at each time with primitive g on link x0;
    the start is checked and undressed once, before the first sample."""
    if x0 < state.n:
        raise ValueError(f"active link x0={x0} must be >= n={state.n}")
    if x0 > state.spec.s - 1:
        raise ValueError(f"active link x0={x0} outside 1..{state.spec.s - 1}")
    g = np.asarray(g, dtype=complex)
    if g.shape != (state.d, state.d):
        raise ValueError(f"primitive has shape {g.shape}, expected {(state.d,) * 2}")
    if not np.abs(g.conj().T @ g - np.eye(state.d)).max() <= 1e-12:
        raise ValueError("primitive must be unitary")

    counts = _counts_past(state.spec.s, state.n, x0)
    powers = [np.linalg.matrix_power(g, m) for m in range(state.n + 1)]
    masks = [(m, mask) for m in range(state.n + 1) if (mask := counts == m).any()]

    undressed = np.empty_like(state.amplitudes)
    for m, mask in masks:
        undressed[:, mask] = powers[m].conj().T @ state.amplitudes[:, mask]

    def redress(free):
        dressed = np.empty_like(free)
        for m, mask in masks:
            dressed[:, mask] = powers[m] @ free[:, mask]
        return dressed

    # map, unlike a for-loop variable, keeps no sample alive while the next is evolved
    yield from map(redress, _free_sector_samples(state.spec, state.n, undressed, times))


def propagate_single_link(
    state: SectorState, x0: int, g: np.ndarray, t: float
) -> SectorState:
    """Evolve with primitive g on link x0 only.

    Each configuration carries the register factor g^(count of excitations
    past x0); undressing by those powers reduces the dynamics to the free
    sector, which is propagated and then re-dressed.
    """
    return SectorState(state.spec, state.n, next(_single_link_samples(state, x0, g, [t])))


def single_link_densities(state: SectorState, x0: int, g: np.ndarray, times) -> np.ndarray:
    """Register density matrices, shape (T, d, d), with primitive g on link x0 only.

    One start evolved over a time grid: it is checked, undressed and embedded
    once, and each time costs n leg products of the d * s^n tensor.  Raises
    ValueError before the first sample, and NormalizationError if the norm
    drifts beyond NORM_DRIFT_TOL at any time.
    """
    times = np.asarray(times, dtype=float)
    _check_memory(16 * state.d**2 * times.size, f"register densities at {times.size} times")
    rho = np.empty((times.size, state.d, state.d), dtype=complex)
    densities = map(lambda amps: amps @ amps.conj().T, _single_link_samples(state, x0, g, times))
    for i, rho_t in enumerate(densities):  # no sample's amplitudes outlive it
        rho[i] = rho_t
    return rho


class JointSpeedLaw:
    """Joint limit law of the two speeds for the |{1,2}> start.

    Defined by its p-space integrand 64 sin^2 p1 sin^2 p2 (2 - sin^2 p1 -
    sin^2 p2) / pi^2 under v_i = sin p_i; the density lives on the ordered
    support 0 < v1 < v2 < 1 (leftmost slower).
    """

    def density(self, v1, v2):
        """64 v1^2 v2^2 (2 - v1^2 - v2^2) / (pi^2 sqrt((1 - v1^2)(1 - v2^2)))."""
        a1, a2 = np.broadcast_arrays(
            np.atleast_1d(np.asarray(v1, dtype=float)),
            np.atleast_1d(np.asarray(v2, dtype=float)),
        )
        out = np.zeros(a1.shape)
        inside = (a1 > 0.0) & (a1 < a2) & (a2 < 1.0)
        if inside.any():
            b1, b2 = a1[inside], a2[inside]
            out[inside] = self._integrand_p(np.arcsin(b1), np.arcsin(b2)) / np.sqrt(
                (1.0 - b1**2) * (1.0 - b2**2)
            )
        if np.ndim(v1) == 0 and np.ndim(v2) == 0:
            return float(out[0])
        return out

    def normalization(self) -> float:
        """Double integral over the ordered triangle; 1 up to quadrature error."""
        p2, w2 = composite_gauss_legendre(0.0, np.pi / 2, panels=16, order=32)
        total = 0.0
        for p, w in zip(p2, w2):
            _, w1, g = self._slice_p(p)
            total += w * float(w1 @ g)
        return total

    @staticmethod
    def _integrand_p(p1, p2) -> np.ndarray:
        s1, s2 = np.sin(p1) ** 2, np.sin(p2) ** 2
        return 64.0 * s1 * s2 * (2.0 - s1 - s2) / np.pi**2

    def _slice_p(self, p2: float):
        """Nodes, weights and integrand over p1 in (0, p2) at fixed p2."""
        p1, w1 = composite_gauss_legendre(0.0, p2, panels=4, order=16)
        return p1, w1, self._integrand_p(p1, p2)

    def marginal_rightmost(self, v2: float) -> float:
        """Density of the faster speed: integral of f(., v2) over (0, v2)."""
        if not 0.0 < v2 < 1.0:
            return 0.0
        _, w1, g = self._slice_p(float(np.arcsin(v2)))
        return float(w1 @ g) / float(np.sqrt(1.0 - v2**2))

    def conditional_mean_leftmost(self, v2: float) -> float:
        """E(V1 | V2 = v2); equals 3 v2/4 up to O(v2^5) corrections."""
        if not 0.0 < v2 < 1.0:
            raise ValueError(f"v2={v2} outside (0, 1)")
        p1, w1, g = self._slice_p(float(np.arcsin(v2)))
        return float(w1 @ (np.sin(p1) * g)) / float(w1 @ g)


def joint_speed_law() -> JointSpeedLaw:
    """Joint speed law of two free excitations started on sites {1, 2}."""
    return JointSpeedLaw()
