"""Brute-force ground truth on small instances.

Builds the composite register-cursor Hamiltonian as a dense Hermitian
matrix, either on the full spin space (dimension d*2^s) or restricted to
a fixed excitation-number sector (dimension d*C(s, n)), evolves by exact
eigendecomposition and exposes the reduced density operators.  Every
analytic path in the package is cross-checked against this module.
A build whose dense matrices would exceed chain.MEMORY_BUDGET raises
ResourceLimitError before any label or matrix is made.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .chain import ChainSpec, ResourceLimitError, _check_memory

__all__ = [
    "ResourceLimitError",
    "DenseHamiltonian",
    "build",
    "evolve",
    "partial_trace",
    "von_neumann_entropy",
    "number_operator",
    "sector_occupations",
]

def _program_unitaries(program, s: int) -> np.ndarray:
    arr = np.asarray(getattr(program, "unitaries", program), dtype=complex)
    if arr.ndim != 3 or arr.shape[0] != s - 1 or arr.shape[1] != arr.shape[2]:
        raise ValueError(
            f"expected (s-1, d, d) link unitaries for s={s}, got shape {arr.shape}"
        )
    return arr


@dataclass(frozen=True, eq=False)
class DenseHamiltonian:
    """Dense Hermitian matrix with its basis labeling.

    Basis index = cursor_index * d + register_index (register varies
    fastest).  Cursor labels are occupation-site tuples, lexicographically
    ordered; on the full space they are all subsets of {1..s} grouped by
    excitation number.
    """

    spec: ChainSpec
    d: int
    sector: int | None
    cursor_labels: tuple[tuple[int, ...], ...]
    matrix: np.ndarray

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def cursor_index(self, sites) -> int:
        return self._label_map[tuple(sorted(int(x) for x in sites))]

    @functools.cached_property
    def _label_map(self) -> dict:
        return {label: i for i, label in enumerate(self.cursor_labels)}

    def basis_vector(self, register_state, sites) -> np.ndarray:
        """Product state (register vector) x |sites occupied>."""
        reg = np.asarray(register_state, dtype=complex)
        if reg.shape != (self.d,):
            raise ValueError(f"register vector has shape {reg.shape}, expected ({self.d},)")
        vec = np.zeros(self.dimension, dtype=complex)
        base = self.cursor_index(sites) * self.d
        vec[base : base + self.d] = reg
        return vec

    @functools.cached_property
    def _eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(np.linalg.eigh(self.matrix))

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        return self._eigensystem


@functools.lru_cache(maxsize=256)
def sector_occupations(s: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All size-n occupation lists on {1..s}, lexicographically ordered."""
    return tuple(combinations(range(1, s + 1), n))


def _full_labels(s: int) -> tuple[tuple[int, ...], ...]:
    labels: list[tuple[int, ...]] = []
    for n in range(s + 1):
        labels.extend(sector_occupations(s, n))
    return tuple(labels)


def build(spec: ChainSpec, program, sector: int | None = 1) -> DenseHamiltonian:
    """Dense Hamiltonian, restricted to the n-excitation sector or full.

    The hopping moves one excitation across a link x while the register
    picks up U_x (rightward) or U_x^dagger (leftward).
    """
    s = spec.s
    unitaries = _program_unitaries(program, s)
    d = unitaries.shape[1]

    if sector is not None and not 0 <= sector <= s:
        raise ValueError(f"sector n={sector} outside 0..{s}")
    dim = d * (2**s if sector is None else math.comb(s, sector))
    # the matrix and up to five more of its size: its adjoint and their
    # difference here, then eigh's copy, workspace and eigenvectors
    _check_memory(96 * dim * dim, f"dense sector={sector} at s={s}, d={d}")
    labels = _full_labels(s) if sector is None else sector_occupations(s, sector)

    index = {label: i for i, label in enumerate(labels)}
    h = np.zeros((dim, dim), dtype=complex)
    amp = -spec.lam / 2.0
    for i, occupied in enumerate(labels):
        occ = set(occupied)
        for x in occupied:
            if x + 1 > s or (x + 1) in occ:
                continue
            moved = tuple(sorted(occ - {x} | {x + 1}))
            j = index[moved]
            block = amp * unitaries[x - 1]
            h[j * d : (j + 1) * d, i * d : (i + 1) * d] += block
            h[i * d : (i + 1) * d, j * d : (j + 1) * d] += block.conj().T
    herm_dev = np.abs(h - h.conj().T).max()
    if not herm_dev <= 1e-13:
        raise AssertionError(f"built matrix deviates from Hermitian by {herm_dev:g}")
    return DenseHamiltonian(
        spec=spec, d=d, sector=sector, cursor_labels=labels, matrix=h
    )


def evolve(ham: DenseHamiltonian, state: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) applied through the cached eigendecomposition."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (ham.dimension,):
        raise ValueError(f"state has shape {state.shape}, expected ({ham.dimension},)")
    vals, vecs = ham.eigensystem()
    return vecs @ (np.exp(-1j * vals * t) * (vecs.conj().T @ state))


def partial_trace(state: np.ndarray, d: int, keep: str) -> np.ndarray:
    """Reduced density operator of a composite vector (register fastest).

    keep="register" gives the d x d register operator, keep="cursor" the
    operator on the cursor labels.
    """
    state = np.asarray(state, dtype=complex)
    if state.size % d != 0:
        raise ValueError(f"state of size {state.size} is not divisible by d={d}")
    a = state.reshape(-1, d)
    if keep == "register":
        return a.T @ a.conj()
    if keep == "cursor":
        return a @ a.conj().T
    raise ValueError(f"keep must be 'register' or 'cursor', got {keep!r}")


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-Tr(rho ln rho) from the eigenvalues, in nats; nan for a non-finite rho."""
    rho = np.asarray(rho, dtype=complex)
    if not np.isfinite(rho).all():
        return float("nan")
    vals = np.linalg.eigvalsh(rho)
    vals = vals[vals > 1e-15]
    return float(-np.sum(vals * np.log(vals)))


def number_operator(s: int, d: int) -> np.ndarray:
    """Total excitation number on the full space, diagonal in the basis.

    The full space's labels are grouped by excitation number n, C(s, n) of
    each, the register fastest; so the diagonal holds each n d C(s, n) times,
    and no label is listed.  Budgeted: the matrix and its diagonal.
    """
    dim = d * 2**s
    _check_memory(8 * dim * (dim + 2), f"number operator at s={s}, d={d}")
    counts = [d * math.comb(s, n) for n in range(s + 1)]
    return np.diag(np.repeat(np.arange(s + 1.0), counts))
