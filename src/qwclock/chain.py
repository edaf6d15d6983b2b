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
# of peak RSS and saved no time.  The position average counts 96 B per
# extended site and sample, a third of it the extension, so its extension
# stays within that threshold (5 samples at s = 769)
_PHASE_ANCHOR = 8
_COLUMN_CHUNK_BYTES = 3 * 2**17
# bytes of phases per window of a one-column sweep below _FFT_SITES sites, and
# of basis rows per block of its GEMVs, which all of a window's samples take
# while the block is in cache: of 0.5 to 2 MiB, 1.5 MiB (of a core's 2 MiB
# L2) was fastest at 257, 513 and 639 sites, on one CPU and on two
_MOMENT_WINDOW_BYTES = 2**16
_GEMV_BLOCK_BYTES = 3 * 2**19
# rows per block of the sine basis build: 8 s B a row, so a block stays under
# the allocator's 128 KiB mmap threshold below _FFT_SITES sites
_BASIS_BLOCK_ROWS = 16
# _each spreads calls that each touch at least this many bytes, as declared by
# their caller, and runs cheaper ones on the calling thread: the crossover of
# one CPU against two measured over multi samples (0.92 and 0.94 MiB slower on
# two, 1.31 MiB faster) and gamma CDF points (1.02 MiB faster, 0.70 MiB either)
_SPREAD_BYTES = 2**20


def _cpus() -> int:
    """The number of CPUs this process may run on (its affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _workers(cost: int) -> int:
    """The threads _each runs calls of `cost` bytes touched each on, before it caps
    them at the call count: one per CPU from _SPREAD_BYTES a call, else the calling
    thread alone.  Every estimate that holds a buffer per thread counts these."""
    return _cpus() if cost >= _SPREAD_BYTES else 1


def _each(fn, count: int, cost: int) -> None:
    """Call fn(i) for every i in range(count), each call touching `cost` bytes,
    spread over _workers(cost) threads.

    The calling thread and one daemon thread per further worker (no more
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

    workers = min(_workers(cost), count)
    helpers = [threading.Thread(target=work, daemon=True) for _ in range(workers - 1)]
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


def _check_norm(norm2, what: str) -> None:
    """The one norm check: NormalizationError naming the first norm^2 in norm2
    (a value or an array of them) outside NORM_DRIFT_TOL of 1; nan fails."""
    ok = np.abs(np.subtract(norm2, 1.0)) <= NORM_DRIFT_TOL
    if not ok.all():
        first = np.ravel(norm2)[np.argmin(ok)]
        raise NormalizationError(f"{what} norm^2 = {float(first)!r} deviates from 1")


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
        _check_norm(np.sum(np.abs(amps) ** 2), "state")

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


def eigenbasis(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray]:
    """All energies and modes at once.

    Returns (e, V) with e[k-1] the energies and V[x-1, k-1] = v_k(x); V is
    real, symmetric and orthogonal, the read-only real part of _complex_modes.
    """
    return _energies(spec), _complex_modes(spec).real


@functools.lru_cache(maxsize=1)
def _complex_modes(spec: ChainSpec) -> np.ndarray:
    """The sine basis V as complex, the one cached copy of it (read-only).

    The cache keeps the last chain's basis only: the one basis every
    estimate counts (a CLI run uses one chain).

    Built in blocks of _BASIS_BLOCK_ROWS rows over the upper triangle, each
    block written into the real part of a zeroed complex array and mirrored
    into the lower triangle, so no real s x s array exists beside it.  V is
    exactly symmetric (x*k == k*x gives one argument), so the kernel uses it
    untransposed for both of its products; V.T would pick another BLAS flag
    and other bits.
    """
    s = spec.s
    rows = _BASIS_BLOCK_ROWS
    _check_memory(16 * s * s + 8 * (rows + 1) * s, f"eigenbasis of s={s} sites")  # V, x, a block
    x, scale = np.arange(1.0, s + 1), np.sqrt(2.0 / (s + 1))
    Vc = np.zeros((s, s), dtype=complex)
    V = Vc.real
    for r in range(0, s, rows):
        # the products x*k are exact in float64 (s^2 < 2^53), so the sines keep
        # the integer formula's bits; an outer product by matmul allocates no
        # iterator buffers, as a broadcast multiply does (up to 128 KiB)
        block = x[r : r + rows, None] @ x[None, r:]
        block *= np.pi
        block /= s + 1
        np.sin(block, out=block)
        block *= scale
        V[r : r + rows, r:] = block
        V[r:, r : r + rows] = block.T
        del block  # freed before the next block is made
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
    """Unitary s x s matrix exp(-i*H*t) of the one-excitation chain, its columns at every site."""
    return _propagator_columns(spec, slice(None))(t)


def _propagator_columns(spec: ChainSpec, sites):
    """columns(t, out): the (s, a) columns (Vc * exp(-1j e t)) @ Vc[sites].T of propagator
    at the a 0-based sites, written into out's phases, Vc * phases and columns if given.
    Vc[sites] is a C-ordered copy, so its transpose reaches BLAS with Vc.T's flag: at a
    multiple of 4 sites the columns keep the whole product's bits (not one column)."""
    Vc = _complex_modes(spec)
    rows, arg = Vc[sites].T, -1j * _energies(spec)

    def columns(t, out=(None, None, None)):
        phases, scaled, u = out
        phases = np.exp(np.multiply(arg, t, out=phases), out=phases)
        return np.matmul(np.multiply(Vc, phases, out=scaled), rows, out=u)

    return columns


def basis_state(spec: ChainSpec, x: int) -> CursorWavefunction:
    """Cursor localized at site x."""
    _check_site(spec, x)
    amps = np.zeros(spec.s, dtype=complex)
    amps[x - 1] = 1.0
    return CursorWavefunction(spec, amps)


def _phases(e: np.ndarray, times) -> np.ndarray:
    """(T, s) phases exp(-i e_k t) from exact cos and sin of t * (-e_k)."""
    arg = np.multiply.outer(times, -e)
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
    """The step on which _evolve may anchor a grid's phases, None where it may not.

    That is the uniform step (_uniform_step) of a chain of at least
    _FFT_SITES sites; None below them, on any other grid, and where
    max|e| max|t| is inf, which the anchored phases would hide from the norm
    check.  The step is passed to both _grid_chunks and _evolve.
    """
    step = _uniform_step(times) if spec.s >= _FFT_SITES else None
    bound = float(np.abs(_energies(spec)).max()) * float(np.abs(times).max(initial=0.0))
    return step if np.isfinite(bound) else None


def _evolve(spec: ChainSpec, coeff: np.ndarray, times, windows, step=None):
    """Free chain evolution of d amplitude columns over a time grid, window by window.

    The package's one spectral transform.  Maps the (s, d) mode coefficients
    coeff = _mode_coefficients(spec, psi0) of site amplitudes psi0 to
    psi(t, x) = sum_k exp(-i e_k t) v_k(x) (sum_y v_k(y) psi0(y)), and yields
    (window, psi) for each slice of `windows`, psi of shape (chunk, d, s).
    Callers compute coeff once per start, take the windows from _grid_chunks,
    which budgets them, and check the norm.

    Below _FFT_SITES sites each window is a GEMM over the cached complex V:
    for d = 1 one GEMV per sample and block of V's rows, a block of
    _GEMV_BLOCK_BYTES (one block up to 313 sites) taken by all of the
    window's samples in one matmul while it is in cache; for d > 1 one
    tensordot.  psi is then a transposed view.  From there on each window
    fills the odd extension of the FFT sine transform in one buffer, the
    first window's, which must be the widest; psi is a view of it, valid
    until the next window.  Sample j takes (exp(-i e t_a) c coeff)
    exp(-i e (j - a) h) from its anchor a = j - j % K, with
    c = _sine_scale(s).  With no step every sample is an anchor (K = 1).
    With step = h = _column_step(spec, times), not None, K = _PHASE_ANCHOR:
    exact cos and sin at the anchors only, and the offsets exp(-i e m h),
    m = 1 .. K - 1, from one table per run; the windows must then run in
    order from sample 0, since the last anchor's row is carried into the
    next window.

    A sample's bits depend on that sample alone, never on its window.  On the
    GEMM path this holds with one BLAS thread: a threaded GEMM splits its
    columns by their count, so its bits may follow the width.
    """
    s, d = spec.s, coeff.shape[1]
    e = _energies(spec)
    if s < _FFT_SITES:
        Vc = _complex_modes(spec)
        for window in windows:
            if d > 1:
                phases = np.exp(-1j * np.outer(e, times[window]))  # (s, chunk)
                psi = np.tensordot(Vc, phases[:, :, None] * coeff[:, None, :], axes=(1, 0))
                yield window, psi.transpose(1, 2, 0)
            else:
                # per block of basis rows, one matmul over the window's
                # stacked (s, 1) columns: one GEMV per sample, each with the
                # block while it is in cache, written over the phases.  A
                # chunk-column product, or a one-row block (numpy's vector
                # dot), would round otherwise.  The phases have the bits of
                # np.exp(-1j * arguments), in place: the products with -1j
                # are exact, so their order is free, and the cast to complex
                # is a copy, not numpy's buffered cast.  The columns are
                # multiplied one by one: a broadcast multiply allocates an
                # iteration buffer as large as its output
                psi = np.outer(times[window], e).astype(complex).reshape(-1, s, 1)
                psi *= -1j
                np.exp(psi, out=psi)
                columns = np.empty_like(psi)
                for phases, column in zip(psi, columns):
                    np.multiply(phases, coeff, out=column)
                # blocks of 2 rows or more: the last one takes a one-row remainder
                edges = [*range(0, s - 1, max(2, _GEMV_BLOCK_BYTES // (16 * s))), s]
                for lo, hi in zip(edges, edges[1:]):
                    np.matmul(Vc[lo:hi], columns, out=psi[:, lo:hi])
                yield window, psi.mT
        return
    K = 1 if step is None else _PHASE_ANCHOR
    offsets = None if step is None else _phases(e, step * np.arange(1, K))
    scaled = _sine_scale(s) * coeff.T  # (d, s)
    buf = row = None
    for window in windows:
        start, stop = window.start, window.stop
        if buf is None:  # the first window, the widest
            buf = np.empty((stop - start, d, 2 * (s + 1)), dtype=complex)
        ext = buf[: stop - start]
        body = ext[..., 1 : s + 1]
        first = start + -start % K  # the window's first anchor
        if first < stop:  # with a step, a window narrower than K may hold no anchor
            anchors = body[first - start :: K]
            np.multiply(_phases(e, times[first:stop:K])[:, None], scaled, out=anchors)
        if step is not None:
            for a in range(start - start % K, stop, K):
                if a >= start:
                    row = body[a - start]
                lo, hi = max(a + 1, start), min(a + K, stop)
                out = body[lo - start : hi - start]
                np.multiply(row, offsets[lo - a - 1 : hi - a - 1, None], out=out)
            if a >= start:  # the transform overwrites the last anchor's row
                row = row.copy()
        yield window, _sine_transform(ext)


def _grid_chunks(
    spec: ChainSpec, times, d: int, held: int, site_bytes: int, workers: int = 1, step=None
):
    """The windows in which _evolve evolves d columns over a time grid.

    The caller holds `held` bytes for the whole run and `site_bytes` per site
    and sample beside the kernel's own temporaries, which are 16 d B per site
    and sample on the GEMM path (32 B for one column: its phases and the
    window's columns), plus the cached complex V, and 32 d B per site of the
    2(s+1)-entry extension (and 16 d s of scaled coefficients a call) on the
    FFT path.  Given the step of an
    anchored grid (_column_step), the kernel's further ones are counted here:
    the offset table, carried anchor row and anchor phases, (16 K + 24) s B
    with K = _PHASE_ANCHOR, and 32 B per extended site and sample for the
    copy _sine_transform's np.negative makes of its overlapping input (the
    FFT, given its input as out, copies nothing).  The run's estimate,
    with the widest chunk once per worker evolving one at a time (up to
    `workers`, no more than there are chunks), is checked once here, on the
    calling thread, before any window is evolved; no evolution is budgeted
    elsewhere, a one-sample one included.  A chunk of one column holds
    _MOMENT_WINDOW_BYTES of phases on the GEMM path and _COLUMN_CHUNK_BYTES
    on the FFT path; of more columns, _CHUNK_BYTES of output on the GEMM path
    and _FFT_CHUNK_BYTES on the FFT path.
    """
    s, T = spec.s, len(times)
    if step is not None:
        held, site_bytes = held + (16 * _PHASE_ANCHOR + 24) * s, site_bytes + 32
    if s >= _FFT_SITES:
        basis, per_call, per_sample = 0, 16 * d * s, (32 * d + site_bytes) * (s + 1)
        width = max(1, (_FFT_CHUNK_BYTES if d > 1 else _COLUMN_CHUNK_BYTES) // per_sample)
    else:
        # one column holds its phases and the window's columns: 32 B per site and sample
        basis, per_call, per_sample = 16 * s * s, 0, (16 * max(d, 2) + site_bytes) * s
        width = max(1, (_CHUNK_BYTES if d > 1 else _MOMENT_WINDOW_BYTES) // (16 * d * s))
    per_call += per_sample * min(width, T)
    nbytes = held + basis + per_call * min(workers, -(-T // width))
    _check_memory(nbytes, f"trajectory of s={s} sites over {T} times")
    return (slice(start, min(start + width, T)) for start in range(0, T, width))


def propagate(psi0: CursorWavefunction, t: float) -> CursorWavefunction:
    """Evolve a cursor state for time t in the sine eigenbasis.

    The state's mode coefficients are computed on its first propagation and
    reused by later ones.  The evolved state checks its own norm.
    """
    spec = psi0.spec
    # the state's coefficients and the chain's energies, made by a first call
    # and kept; per site, the state's copy and its squares
    window = _grid_chunks(spec, [t], 1, 24 * spec.s, 32)
    _, psi = next(_evolve(spec, psi0._coefficients, [t], window))
    return CursorWavefunction(spec, psi[0, 0])


def position_moments(psi0: CursorWavefunction, times) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of the site index of psi0 evolved to each of `times`.

    Each sample has the bits of position_statistics(propagate(psi0, t)), at
    any CPU count.  _each spreads _grid_chunks' windows over the CPUs (from
    _SPREAD_BYTES touched a window, as from 240 sites on), each evolved
    alone by _evolve with exact phases, as propagate's one sample is.  A
    window's squares |psi|^2 and norms^2 take one call each; per sample, the
    moments are two dot products with the site weights, built once per run.
    After the sweep, the norm^2 series is checked as propagate checks one
    sample: the first drifting sample raises.
    """
    spec, coeff, times = psi0.spec, psi0._coefficients, np.asarray(times)
    s, T = spec.s, len(times)
    # a full window reads the s x s basis once, beside its phases and columns,
    # on the GEMM path, and its extension once per FFT pass on the FFT path
    fft = s >= _FFT_SITES
    touched = (_COLUMN_CHUNK_BYTES * (2 * s + 2).bit_length() if fft
               else 16 * s * s + 2 * _MOMENT_WINDOW_BYTES)
    workers = _workers(touched)
    # the moment and norm^2 columns, the site weights, and per thread 32 s B for
    # the window's Python objects and numpy's small buffers, which no per-site
    # count covers (_grid_chunks counts the FFT path's scaled coefficients);
    # per site and sample, the kernel's phase arguments, and on the GEMM path
    # the buffer of their broadcast outer product, on the FFT path the phases
    # beside the extension and _sine_transform's copy of its reflection.  A
    # window's squares come after these are freed
    held = 24 * T + 16 * s + 32 * s * workers
    windows = list(_grid_chunks(spec, times, 1, held, 48 if fft else 24, workers))
    mean, variance, norm2 = np.empty(T), np.empty(T), np.empty(T)
    x, x2 = _site_weights(s)

    def sweep(i):
        window, psi = next(_evolve(spec, coeff, times, windows[i : i + 1]))
        p = np.abs(psi[:, 0])
        np.square(p, out=p)
        norm2[window] = p.sum(axis=1)
        for j, row in zip(range(window.start, window.stop), p):
            mean[j], variance[j] = _moments(row, x, x2)

    _each(sweep, len(windows), touched)
    _check_norm(norm2, "state")
    return mean, variance


def _site_weights(s: int) -> tuple[np.ndarray, np.ndarray]:
    """The site indices x = 1..s and their squares, as float64: the operands
    np.dot casts the integer ones to."""
    x = np.arange(1.0, s + 1)
    return x, x * x


def _moments(p: np.ndarray, x: np.ndarray, x2: np.ndarray) -> tuple[float, float]:
    """Mean and variance of the site index under the distribution p, given the
    _site_weights; the mean clipped to [1, s] (nan stays nan), the variance from
    the unclipped mean."""
    mean = float(np.dot(x, p))
    variance = float(np.dot(x2, p) - mean**2)
    # min and max return their first argument, so nan, when a comparison fails
    return float(max(min(mean, p.size), 1)), variance


def _site_statistics(p: np.ndarray) -> PositionStatistics:
    """The distribution p with the mean and variance of its site index (_moments)."""
    return PositionStatistics(p, *_moments(p, *_site_weights(p.size)))


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
