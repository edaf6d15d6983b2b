"""Exact single-excitation dynamics of the open XY cursor chain.

The chain has s sites, hopping coupling lam, and fixed boundary conditions
v(0) = v(s+1) = 0.  Everything in this module is spectral: eigenvalues
e_k = -lam*cos(k*pi/(s+1)), sine eigenmodes v_k(x), and propagation by
basis transform.  Site indices are 1-based throughout.
"""

from __future__ import annotations

import functools
import os
import threading
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
    "position_moments",
    "launchpad_state",
    "gamma_state",
]

# diagnostic bound on norm drift; states are never silently renormalized
NORM_DRIFT_TOL = 1e-9
# the one size limit: bytes a run may allocate by shape, checked beforehand
MEMORY_BUDGET = 4 * 2**30
# the BLAS library's GEMM workspace, counted in every estimate: OpenBLAS
# touched 1 to 8.4 MiB of it in the first large product of a process
_BLAS_WORKSPACE = 16 * 2**20
# chains of at least this many sites take the FFT sine transform, shorter ones
# the dense GEMM: the crossover measured at a trajectory's chunk width
_FFT_SITES = 640
# bytes per time chunk of a trajectory: of the kernel's (s, d) complex output
# on the GEMM path, where wide products are fast, and of all the chunk's
# temporaries on the FFT path, where a chunk that stays in cache is fast
_CHUNK_BYTES = 4 * 2**20
_FFT_CHUNK_BYTES = 2**20
# a uniform grid's phases take exact cos and sin at every _PHASE_ANCHOR-th
# sample only, and one product with a table of offsets in between; and the
# bytes per time chunk of a one-column trajectory on the FFT path.  Both are
# measured: from 16 anchors the (s, 15) table, or a chunk's arrays, pass the
# allocator's 128 KiB mmap threshold at s = 769, which added 0.15 to 0.25 MB
# of peak RSS and saved no time
_PHASE_ANCHOR = 8
_COLUMN_CHUNK_BYTES = 3 * 2**17
# bytes of phases per window of a one-column sweep below _FFT_SITES sites
_MOMENT_WINDOW_BYTES = 2**16


def _cpus() -> int:
    """The number of CPUs this process may run on (its affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _each(fn, count: int) -> None:
    """Call fn(i) for every i in range(count), spread over _cpus() threads.

    The calling thread and one daemon thread per further CPU (no more
    threads than calls) claim the indices in increasing order under a lock,
    under the caller's numpy error state; once a call raises, no index is
    claimed after it.  After the join, the exception of the lowest index is
    raised: the one a serial loop would meet first.  Calls that write
    disjoint outputs give the bits of that loop at any thread count.
    """
    lock = threading.Lock()
    indices = iter(range(count))
    errors: dict[int, BaseException] = {}
    errstate = np.geterr()

    def work() -> None:
        with np.errstate(**errstate):
            while True:
                with lock:
                    i = None if errors else next(indices, None)
                if i is None:
                    return
                try:
                    fn(i)
                except BaseException as exc:  # raised again after the join
                    with lock:
                        errors[i] = exc

    helpers = [threading.Thread(target=work, daemon=True) for _ in range(min(_cpus(), count) - 1)]
    for thread in helpers:
        thread.start()
    work()
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[min(errors)]


class NormalizationError(ValueError):
    """A state's norm drifted past the diagnostic bound."""


class ResourceLimitError(RuntimeError):
    """The estimated memory of a requested instance exceeds MEMORY_BUDGET."""


def _check_memory(nbytes, what: str) -> None:
    """Refuse an estimate of nbytes (exact for ints; nan and inf fail) before allocating."""
    if not nbytes + _BLAS_WORKSPACE <= MEMORY_BUDGET:
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
    """Normalized amplitudes over the s chain sites (site x at index x-1).

    The amplitudes are a read-only copy of the given ones, so the mode
    coefficients cached from them on the first propagation stay valid.
    """

    spec: ChainSpec
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.spec.s,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({self.spec.s},)"
            )
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm2 - 1.0) <= NORM_DRIFT_TOL:
            raise NormalizationError(f"state norm^2 = {norm2!r} deviates from 1")

    def amplitude(self, x: int) -> complex:
        _check_site(self.spec, x)
        return complex(self.amplitudes[x - 1])

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    @functools.cached_property
    def _coefficients(self) -> np.ndarray:
        """(s, 1) sine-mode coefficients, computed once per state and read-only."""
        coeff = _mode_coefficients(self.spec, self.amplitudes[:, None])
        coeff.flags.writeable = False
        return coeff


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
def _energies(spec: ChainSpec) -> np.ndarray:
    """Energies e[k-1] = -lam*cos(k*pi/(s+1)), cached read-only (O(s) bytes)."""
    k = np.arange(1, spec.s + 1)
    e = -spec.lam * np.cos(k * np.pi / (spec.s + 1))
    e.flags.writeable = False
    return e


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
    V = np.sqrt(2.0 / (s + 1)) * np.sin(np.pi * np.outer(k, k) / (s + 1))
    V.flags.writeable = False
    return _energies(spec), V


@functools.lru_cache(maxsize=32)
def _complex_modes(spec: ChainSpec) -> np.ndarray:
    """V cast to complex once, cached read-only (budgeted by eigenbasis).

    V is exactly symmetric, so the kernel uses this copy untransposed for
    both of its products; V.T would pick another BLAS flag and other bits.
    """
    Vc = eigenbasis(spec)[1].astype(complex)
    Vc.flags.writeable = False
    return Vc


def _sine_transform(ext: np.ndarray) -> np.ndarray:
    """V @ y for every row of ext, in place, by one FFT of the odd extension.

    ext has shape (..., 2(s+1)) and holds c * y in entries 1..s, with
    c = i/2 sqrt(2/(s+1)).  Entries 0 and s+1 are zeroed and entries
    s+2.. become -c * y[::-1]; the FFT's entries 1..s are then
    -2i c sum_x sin(pi k x/(s+1)) y(x) = (V @ y)[k-1] (Martucci, IEEE Trans.
    Signal Process. 42, 1038 (1994)).  Returns the (..., s) view of them.
    Each row is transformed alone, so its bits do not depend on the batch.
    """
    s = ext.shape[-1] // 2 - 1
    ext[..., 0] = ext[..., s + 1] = 0.0
    np.negative(ext[..., s:0:-1], out=ext[..., s + 2 :])
    return np.fft.fft(ext, axis=-1, out=ext)[..., 1 : s + 1]


def _sine_scale(s: int) -> complex:
    """The factor c = i/2 sqrt(2/(s+1)) that _sine_transform expects in its input."""
    return 0.5j * np.sqrt(2.0 / (s + 1))


def _mode_coefficients(spec: ChainSpec, amps: np.ndarray) -> np.ndarray:
    """(s, d) mode coefficients V @ amps of (s, d) site amplitudes.

    The GEMM over the cached complex V below _FFT_SITES sites, the FFT sine
    transform (no V) from there on.
    """
    s = spec.s
    if s < _FFT_SITES:
        return _complex_modes(spec) @ amps
    ext = np.empty((amps.shape[1], 2 * (s + 1)), dtype=complex)
    np.multiply(amps.T, _sine_scale(s), out=ext[:, 1 : s + 1])
    return _sine_transform(ext).T


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


def _evolve_modes(spec: ChainSpec, coeff: np.ndarray, times) -> np.ndarray:
    """Free chain evolution of d amplitude columns over a time grid.

    Maps the (s, d) mode coefficients coeff = _mode_coefficients(spec, psi0)
    of site amplitudes psi0 to (s, T, d):
    psi(t, x) = sum_k exp(-i e_k t) v_k(x) (sum_y v_k(y) psi0(y)).
    This is the package's one spectral transform; callers compute coeff once
    per start and check the norm.  Below _FFT_SITES sites it is a GEMM over
    the cached complex V, one product per sample for d = 1; from there on
    the FFT sine transform, which returns a strided view.  Times do not mix,
    so a grid may be evolved in chunks (_grid_chunks), and a sample's bits
    depend on that sample alone on every path.  On the GEMM path this holds
    with one BLAS thread: a threaded GEMM splits its columns by their count,
    so its bits may follow the width.
    """
    s, T, d = spec.s, len(times), coeff.shape[1]
    e = _energies(spec)
    if s >= _FFT_SITES:
        # the (T, d, 2(s+1)) extension and the (T, s) phase arguments, no V
        _check_memory(32 * (s + 1) * T * d + 8 * s * T, f"evolving s={s} sites over {T} times")
        ext = np.empty((T, d, 2 * (s + 1)), dtype=complex)
        body = ext[:, :, 1 : s + 1]
        # the phases exp(-i e_k t) go straight into the first column, which
        # the others then scale; no (s, T, d) product exists beside ext
        _phases(e, times, out=body[:, 0])
        scaled = _sine_scale(s) * coeff.T  # (d, s)
        np.multiply(body[:, :1], scaled[1:], out=body[:, 1:])
        body[:, 0] *= scaled[0]
        return _sine_transform(ext).transpose(2, 0, 1)
    # V, its complex copy and about three (s, T, d) complex temporaries; in a
    # trajectory T is one chunk's width, so this is checked chunk by chunk
    _check_memory(24 * s * s + 48 * s * T * d, f"evolving s={s} sites over {T} times")
    Vc = _complex_modes(spec)
    if d > 1:
        phases = np.exp(-1j * np.outer(e, times))  # (s, T)
        return np.tensordot(Vc, phases[:, :, None] * coeff[:, None, :], axes=(1, 0))
    # each sample's product overwrites its phases: a T-column product would
    # round otherwise than T one-column products
    psi = np.exp(-1j * np.outer(times, e))  # (T, s)
    for row in psi:
        row[:] = np.dot(Vc, row[:, None] * coeff)[:, 0]
    return psi.T[:, :, None]


def _phases(e: np.ndarray, times, out=None) -> np.ndarray:
    """(T, s) phases exp(-i e_k t) from exact cos and sin of t * (-e_k)."""
    arg = np.multiply.outer(times, -e)
    if out is None:
        out = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)
    return out


def _uniform_step(times):
    """The step h of a uniform grid, None for any other grid.

    A grid of T >= 2 samples is uniform when |t_j - (t_0 + j h)| <= 4 ulp of
    max|t| for every j, with h = (t_{T-1} - t_0)/(T-1).
    """
    T = len(times)
    if T < 2:
        return None
    h = (times[-1] - times[0]) / (T - 1)
    dev = np.abs(times - (times[0] + h * np.arange(T))).max()
    return float(h) if dev <= 4 * np.spacing(np.abs(times).max()) else None


def _column_step(spec: ChainSpec, times):
    """The step on which _evolve_column may evolve a grid, None where it may not.

    That is the uniform step (_uniform_step) of a chain of at least
    _FFT_SITES sites, and None below them or on any other grid.
    """
    return _uniform_step(times) if spec.s >= _FFT_SITES else None


def _evolve_column(
    spec: ChainSpec, coeff: np.ndarray, times, step: float, held: int, site_bytes: int
):
    """Free evolution of one amplitude column over a uniform time grid, window by window.

    The FFT path of _evolve_modes for d = 1, on a grid of step
    `step = _column_step(spec, times)`, which is not None.  Yields
    (window, psi) for the windows _grid_chunks picks, psi the (chunk, s)
    view of psi(t_j, x) = sum_k exp(-i e_k t_j) v_k(x) coeff[k] for the
    (s, 1) coeff = _mode_coefficients(spec, psi0); psi is valid until the
    next window.  `held` and `site_bytes` are the caller's, as for
    _grid_chunks; the offset table and the anchor row are counted here.

    Sample j has the anchor a = j - j % _PHASE_ANCHOR and takes
    (exp(-i e t_a) c coeff) exp(-i e (j - a) h), with c = _sine_scale(s) and
    h = step: exact cos and sin at the anchors only, and the offsets
    exp(-i e m h), m = 1 .. _PHASE_ANCHOR - 1, from one table per run.  The
    bits depend on j only, never on the window.
    """
    s, K = spec.s, _PHASE_ANCHOR
    e = _energies(spec)
    # the offset table with the anchor row, and the phase temporaries of an anchor
    windows = _grid_chunks(spec, times, 1, held + (16 * K + 24) * s, site_bytes)
    offsets = _phases(e, step * np.arange(1, K))
    scaled = _sine_scale(s) * coeff[:, 0]
    anchor = row = None
    for window in windows:
        start, stop = window.start, window.stop
        ext = np.empty((stop - start, 2 * (s + 1)), dtype=complex)
        body = ext[:, 1 : s + 1]
        for a in range(start - start % K, stop, K):
            if a != anchor:
                anchor, row = a, _phases(e, times[a : a + 1])[0] * scaled
            if a >= start:
                body[a - start] = row
            lo, hi = max(a + 1, start), min(a + K, stop)
            np.multiply(row, offsets[lo - a - 1 : hi - a - 1], out=body[lo - start : hi - start])
        yield window, _sine_transform(ext)


def _grid_chunks(spec: ChainSpec, times, d: int, held: int, site_bytes: int, workers: int = 1):
    """The windows in which a sweep evolves d columns over a time grid.

    The caller holds `held` bytes for the whole run and `site_bytes` per site
    and sample beside the kernel's own temporaries, which are 16 d B per site
    and sample on the GEMM path (plus V and its complex copy) and 32 d B per
    site of the 2(s+1)-entry extension on the FFT path.  The run's estimate,
    with the widest chunk once per worker evolving one at a time (up to
    `workers`, no more than there are chunks), is checked once here, before
    any window is evolved.  A chunk of one column holds
    _MOMENT_WINDOW_BYTES of phases on the GEMM path and _COLUMN_CHUNK_BYTES
    on the FFT path; of more columns, _CHUNK_BYTES of output on the GEMM path
    and _FFT_CHUNK_BYTES on the FFT path.
    """
    s, T = spec.s, len(times)
    if s >= _FFT_SITES:
        basis, per_sample = 0, (32 * d + site_bytes) * (s + 1)
        width = max(1, (_FFT_CHUNK_BYTES if d > 1 else _COLUMN_CHUNK_BYTES) // per_sample)
    else:
        basis, per_sample = 24 * s * s, (16 * d + site_bytes) * s
        width = max(1, (_CHUNK_BYTES if d > 1 else _MOMENT_WINDOW_BYTES) // (16 * d * s))
    nbytes = held + basis + per_sample * min(width, T) * min(workers, -(-T // width))
    _check_memory(nbytes, f"trajectory of s={s} sites over {T} times")
    return (slice(start, min(start + width, T)) for start in range(0, T, width))


def propagate(psi0: CursorWavefunction, t: float) -> CursorWavefunction:
    """Evolve a cursor state for time t in the sine eigenbasis.

    The state's mode coefficients are computed on its first propagation and
    reused by later ones.  Raises NormalizationError if the norm drifts
    beyond NORM_DRIFT_TOL.
    """
    spec = psi0.spec
    amps = _evolve_modes(spec, psi0._coefficients, [t])[:, 0, 0]
    _drift_checked(amps)
    return CursorWavefunction(spec, amps)


def _drift_checked(amps: np.ndarray) -> np.ndarray:
    """|amps|^2 of evolved amplitudes; NormalizationError if their sum drifted past NORM_DRIFT_TOL."""
    p = np.abs(amps) ** 2
    norm2 = float(np.sum(p))
    if not abs(norm2 - 1.0) <= NORM_DRIFT_TOL:
        raise NormalizationError(f"norm^2 drifted to {norm2!r} after propagation")
    return p


def position_moments(psi0: CursorWavefunction, times) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of the site index of psi0 evolved to each of `times`.

    Each sample has the bits of position_statistics(propagate(psi0, t)), at
    any CPU count, and the first sample whose norm drifts past NORM_DRIFT_TOL
    raises propagate's NormalizationError.  _each spreads _grid_chunks'
    windows over the CPUs, each evolved by _evolve_modes.
    """
    spec, coeff, times = psi0.spec, psi0._coefficients, np.asarray(times)
    s, T = spec.s, len(times)
    workers = _cpus()
    # the two moment columns, and per thread one sample's column, product and
    # squares; per site and sample, the kernel's phase arguments (and on the
    # GEMM path the phases' complex temporary)
    held = 16 * T + 64 * s * workers
    windows = list(_grid_chunks(spec, times, 1, held, 8 if s >= _FFT_SITES else 24, workers))
    mean, variance = np.empty(T), np.empty(T)

    def sweep(i):
        window = windows[i]
        amps = _evolve_modes(spec, coeff, times[window])[:, :, 0].T
        for j, row in zip(range(window.start, window.stop), amps):
            stats = _site_statistics(_drift_checked(row))
            mean[j], variance[j] = stats.mean, stats.variance

    _each(sweep, len(windows))
    return mean, variance


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
