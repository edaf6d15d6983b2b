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
import threading
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from . import chain
from .chain import ChainSpec, eigenvalue
from .chain import _check_memory, _check_norm, _check_site, _each
from .quadrature import composite_gauss_legendre
from .register import _check_unitary

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


# a start whose d*s^n complex (the tensor a sample filled before its legs were trimmed to
# the labels' columns) is at most this many bytes is evolved whole, all d register labels
# in each leg's product, which keeps OpenBLAS's bits and was the faster at 442 kB; a
# larger one label by label, which holds less
_WHOLE_START_BYTES = 2**19


def _check_sweep(s: int, n: int, d: int, a: int, samples: int) -> tuple[int, list[int], int]:
    """Budget a sweep of `samples` times over a start on a active sites before it allocates;
    return its width (d labels at once up to _WHOLE_START_BYTES of d*s^n, else 1), legs
    (_leg_columns) and bytes touched a sample.  Held once: Vc, e, Vc[sites] and -1j e; the
    labels with their counts, count-group order, its inverse and 2 width gather offsets;
    the legs' tables; the amplitudes, their undressed copy and the d*a^n start; 32 KiB of
    Python objects (13 to 22 KiB traced).  Per thread: the phases, Vc * phases, numpy's
    buffer for it, the columns, the widest leg's s x M and a x M pair, labels and a spare."""
    c, width = math.comb(s, n), d if 16 * d * s**n <= _WHOLE_START_BYTES else 1
    legs = _leg_columns(s, n, width, a)
    # a sample touches Vc, Vc * phases and its read (3 s^2 entries), and per start
    # each leg's a x M operand, taken and read (3 a M), and its s x M product
    touched = 16 * (3 * s * s + d // width * (s + 3 * a) * sum(legs))
    held = 8 * s * (2 * s + 2 * a + 3) + 8 * c * (n + 3 + 2 * width) + 8 * a * sum(legs[1:])
    held += 32 * d * c + 16 * d * a**n + 2**15
    columns = 16 * (s * (s + a + 1) + min(s * s, np.getbufsize()))
    per_thread = columns + 16 * (s + a) * max(legs) + 32 * d * c
    workers = min(chain._workers(touched), samples)
    _check_memory(held + workers * per_thread, f"sector s={s}, n={n}, d={d}")
    return width, legs, touched


def _check_product_start(s: int, n: int, d: int) -> None:
    """Refuse before it is built a product start on sites 1..n whose sweep cannot fit."""
    _check_sweep(s, n, d, min(s, n + -n % 4), chain._cpus())


def _check_state_memory(s: int, n: int, d: int) -> None:
    """Budget what a SectorState holds, before its labels are listed: labels and
    from_product's match (9 n + 1 B each), amplitudes and |amplitudes|^2 (32 d B each) and
    4 KiB of objects."""
    _check_memory(math.comb(s, n) * (9 * n + 1 + 32 * d) + 2**12, f"sector s={s}, n={n}, d={d}")


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
    matrix = np.sqrt(2.0 / (spec.s + 1)) * np.sin(np.pi * np.outer(k, x) / (spec.s + 1))
    return float(np.linalg.det(matrix))


def sector_energy(spec: ChainSpec, momenta) -> float:
    """Sum of the single-mode energies of the occupied modes."""
    return float(sum(eigenvalue(spec, k) for k in _as_sites(momenta)))


@functools.lru_cache(maxsize=1)
def _occupation_array(s: int, n: int) -> np.ndarray:
    """The (C(s, n), n) occupation labels, 0-based, listed once into one cached read-only array.

    The cache keeps the last sector's labels only, the one array the sector
    estimates count.
    """
    arr = np.fromiter(combinations(range(s), n), dtype=(int, n), count=math.comb(s, n))
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
        _check_state_memory(self.spec.s, self.n, arr.shape[0] if arr.ndim == 2 else 1)
        m = math.comb(self.spec.s, self.n)
        if arr.ndim != 2 or arr.shape[1] != m:
            raise ValueError(f"amplitudes have shape {arr.shape}, expected (d, {m})")
        _check_norm(np.sum(np.abs(arr) ** 2), "sector")

    @property
    def d(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def occupations(self) -> tuple[tuple[int, ...], ...]:
        """The occupation lists, 1-based tuples in the amplitudes' order."""
        return tuple(map(tuple, (_occupation_array(self.spec.s, self.n) + 1).tolist()))

    @classmethod
    def from_product(cls, spec: ChainSpec, sites, register_state=None) -> "SectorState":
        """Basis occupation list, optionally tensored with a register vector."""
        occupied = _as_sites(sites)
        if occupied[-1] > spec.s:
            raise ValueError(f"sites {occupied} exceed the chain length s={spec.s}")
        n = len(occupied)
        reg = np.asarray([1.0] if register_state is None else register_state, dtype=complex)
        _check_state_memory(spec.s, n, reg.size)  # before the labels are listed
        start = np.argmax((_occupation_array(spec.s, n) == np.subtract(occupied, 1)).all(axis=1))
        amps = np.zeros((reg.size, math.comb(spec.s, n)), dtype=complex)
        amps[:, start] = reg
        return cls(spec, n, amps)

    def to_vector(self) -> np.ndarray:
        """Flatten with the register label varying fastest (oracle layout)."""
        return self.amplitudes.T.reshape(-1)

    def register_density_matrix(self) -> np.ndarray:
        return self.amplitudes @ self.amplitudes.conj().T

    def occupation_probabilities(self) -> np.ndarray:
        return np.sum(np.abs(self.amplitudes) ** 2, axis=0)


def _embed_antisymmetric(amps: np.ndarray, occupied: np.ndarray, n: int) -> np.ndarray:
    """Scatter (d, C(s, n)) ordered amplitudes onto the n-leg antisymmetric tensor over the
    a sites of the (s,) mask occupied, which holds every site of a label with a nonzero
    amplitude.

    Only the labels over those sites are scattered.  The tensor is stored
    leg-1-major, (l1, d, l2, ..., ln), each leg a wide, and returned as the first
    leg's (a, M_1) operand.  Where every site is occupied, it is the d * s^n tensor.
    """
    labels = _occupation_array(occupied.size, n)
    inside = occupied[labels].all(axis=1)  # the labels over the occupied sites
    subs = (np.cumsum(occupied) - 1)[labels[inside]]  # their sites, numbered 0..a-1
    a, amps = np.count_nonzero(occupied), amps[:, inside]
    full = np.zeros((a, amps.shape[0]) + (a,) * (n - 1), dtype=complex)
    for perm in permutations(range(n)):
        sign = (-1) ** sum(i > j for i, j in combinations(perm, 2))  # inversion parity
        first, *rest = (subs[:, j] for j in perm)  # no tuple(generator): free-list garbage
        full[(first, slice(None), *rest)] = (sign * amps).T
    return full.reshape(a, -1)


def _free_sample(u: np.ndarray, start: np.ndarray, product: np.ndarray, legs, labels):
    """Write into labels the free-sector amplitudes (width, C(s, n)) of the embedded
    start after the propagator, and return it.

    u holds the propagator's s x a columns at the start's a active sites, start is leg 1's
    (a, M_1) operand.  legs holds views into a thread's work pair: leg 1's (s, M_1)
    product; per later leg its table, its (a, M_k) operand taken through it from the last
    product, and its (s, M_k) product; then the labels' offsets in the last product
    (_gather).  Only columns some label reads are multiplied; all s sites active at n <= 2
    give np.tensordot's products.  Unchecked: the caller's state or density checks the norm.
    """
    first, later, offsets = legs
    np.dot(u, start, out=first)
    for table, operand, out in later:  # "clip" fills operand unbuffered ("raise" buffers out=)
        product.take(table, out=operand, mode="clip")
        np.dot(u, operand, out=out)
    return product.take(offsets, out=labels, mode="clip")


def _leg_columns(s: int, n: int, width: int, a: int) -> list[int]:
    """The column counts M_1, ..., M_n of _free_sample's leg operands, from the label
    counts alone: the start's width * a^(n-1), then leg k's (z, head, l_{k+1}, ...,
    l_n), with a head for each of the C(s - n + k - 1, k - 1) distinct (k-1)-prefixes
    of the labels, padded to a multiple of 4 so that every column some label reads
    is in OpenBLAS's 4-column kernel, as in the untrimmed product.  At n <= 2 leg 2
    keeps all s heads, unpadded, the untrimmed operand: trimmed, head s - 2, which
    that product rounds in the remainder kernel, moved bits at (s, n, d) = (10, 2, 1)."""
    if n <= 2:
        return [width * a ** (n - 1)] + [width * s] * (n - 1)
    counts = (width * math.comb(s - n + k - 1, k - 1) * a ** (n - k) for k in range(2, n + 1))
    return [width * a ** (n - 1)] + [-(-m // 4) * 4 for m in counts]


@functools.lru_cache(maxsize=1)
def _gather(s: int, n: int, width: int, a: int) -> tuple[np.ndarray, ...]:
    """_free_sample's tables: for each leg k >= 2 the (a, M_k) offsets of its operand
    in the last product, then the (width, C(s, n)) offsets of the labels in leg n's.

    Leg k's product is stored (l_k, z, head, l_{k+1}, ..., l_n): l_k over all s
    sites, z over the width register labels, the head numbering the distinct
    prefixes (l_1, ..., l_{k-1}) in lex order, the later legs over the a active
    sites.  _occupation_array lists the labels in lex order, so equal prefixes are
    neighbours, and a label's head index counts the changes of its prefix before
    it.  Leg k + 1's operand entry (l_{k+1}, z, h, ...) at the head h of (l_1, ...,
    l_k) reads leg k's entry (l_k, z, the head of (l_1, ..., l_{k-1}), l_{k+1}, ...).
    Its padding columns read offset 0.  Built with numpy operations and cached for the
    last (s, n, width, a), as _occupation_array caches its labels; left writeable, as
    numpy's take copies a read-only index array on every call (295 kB at (13, 5)).
    """
    labels = _occupation_array(s, n)
    columns = _leg_columns(s, n, width, a)
    heads, head, tables = 1, np.zeros(len(labels), dtype=int), []
    changed = np.zeros(len(labels), dtype=bool)  # where the prefix (l_1, ..., l_{k-1}) changes
    changed[0] = True
    for k in range(2, n + 1):
        if n <= 2:  # all s heads, as _leg_columns counts them
            last, parent, head = np.arange(s), np.zeros(s, dtype=int), labels[:, 0]
        else:
            changed[1:] |= labels[1:, k - 2] != labels[:-1, k - 2]
            last, parent, head = labels[changed, k - 2], head[changed], np.cumsum(changed) - 1
        tail = a ** (n - k)  # l_{k+1}, ..., l_n
        table = np.zeros((a, columns[k - 1]), dtype=int)
        table[:, : width * len(last) * tail] = (
            np.arange(a)[:, None, None, None] * tail
            + np.arange(width)[:, None, None] * heads * a * tail
            + (last * columns[k - 2] + parent * a * tail)[:, None]
            + np.arange(tail)
        ).reshape(a, -1)
        tables.append(table)
        heads = len(last)
    tables.append(labels[:, -1] * columns[-1] + np.arange(width)[:, None] * heads + head)
    return tuple(tables)


def _free_sector_sweep(
    spec: ChainSpec, n: int, amps: np.ndarray, times, emit, order=slice(None)
) -> None:
    """Call emit(i, free, spare) with the free-sector amplitudes free (d, C(s, n)) at each
    times[i], labels in `order` (lex by default), and a spare of free's shape: buffers of
    the thread's, which its next sample overwrites; _each spreads the samples over the
    CPUs when they touch enough bytes.  The start is embedded once over its active sites,
    its labels' sites padded to a multiple of 4 (1..4 for a product start on 1..n, n <= 4),
    whole up to _WHOLE_START_BYTES of d*s^n, else label by label.  Each thread's first
    sample makes the buffers and views every later one writes.  Budgeted first."""
    d, s = amps.shape[0], spec.s
    occupied = np.zeros(s, dtype=bool)
    occupied[_occupation_array(s, n)[amps.any(axis=0)]] = True
    # padded with the lowest free sites to a multiple of 4 (or to all s), for the
    # bits of all s sites: OpenBLAS's complex kernels take 4 columns at a time
    # and round a remainder column, or a lone one, otherwise
    occupied[np.flatnonzero(~occupied)[: -np.count_nonzero(occupied) % 4]] = True
    sites = np.flatnonzero(occupied)
    a = sites.size
    width, legs, touched = _check_sweep(s, n, d, a, len(times))
    starts = [_embed_antisymmetric(amps[z : z + width], occupied, n) for z in range(0, d, width)]
    *tables, offsets = _gather(s, n, width, a)
    offsets = np.ascontiguousarray(offsets[:, order])  # take copies any other index array
    columns = chain._propagator_columns(spec, sites)
    local = threading.local()

    def buffers():
        product, operand = np.empty(s * max(legs), complex), np.empty(a * max(legs), complex)
        later = tuple(
            (t, operand[: t.size].reshape(t.shape), product[: t.shape[1] * s].reshape(s, -1))
            for t in tables
        )
        views = product[: legs[0] * s].reshape(s, -1), later, offsets
        free, spare = np.empty((2, d, offsets.shape[1]), complex)
        out = np.empty(s, complex), np.empty((s, s), complex), np.empty((s, a), complex)
        return out, product, views, free, spare, list(free.reshape(-1, width, free.shape[1]))

    def sample(i):
        if not hasattr(local, "work"):
            local.work = buffers()
        out, product, views, free, spare, labels = local.work
        u = columns(times[i], out)
        for start, into in zip(starts, labels):
            _free_sample(u, start, product, views, into)
        emit(i, free, spare)

    _each(sample, len(times), touched)


def propagate_free_sector(state: SectorState, t: float) -> SectorState:
    """Evolve under the bare chain: one single-particle propagator per leg."""
    amps = []  # the one sample's buffer, which no later sample reuses
    _free_sector_sweep(state.spec, state.n, state.amplitudes, [t], lambda i, a, _: amps.append(a))
    return SectorState(state.spec, state.n, amps[0])


def _counts_past(s: int, n: int, x0: int) -> np.ndarray:
    return np.sum(_occupation_array(s, n) >= x0, axis=1)  # 0-based: past site x0


def count_past_link_distribution(state: SectorState, x0: int) -> np.ndarray:
    """Probability that exactly m of the n excitations sit past site x0."""
    _check_site(state.spec, x0, "x0")
    counts = _counts_past(state.spec.s, state.n, x0)
    weights = state.occupation_probabilities()
    probs = np.zeros(state.n + 1)
    for m in range(state.n + 1):
        probs[m] = float(weights[counts == m].sum())
    return probs


def _single_link_sweep(state: SectorState, x0: int, g: np.ndarray, times, emit) -> None:
    """Call emit(i, amps, spare) with the amplitudes (d, C(s, n)) at each times[i],
    primitive g on link x0, and a spare buffer of their shape, both the thread's; the
    start is checked and undressed once, before the first sample."""
    if x0 < state.n:
        raise ValueError(f"active link x0={x0} must be >= n={state.n}")
    if x0 > state.spec.s - 1:
        raise ValueError(f"active link x0={x0} outside 1..{state.spec.s - 1}")
    g = np.asarray(g, dtype=complex)
    if g.shape != (state.d, state.d):
        raise ValueError(f"primitive has shape {g.shape}, expected {(state.d,) * 2}")
    _check_unitary(g)

    counts = _counts_past(state.spec.s, state.n, x0)
    powers = [np.linalg.matrix_power(g, m) for m in range(state.n + 1)]
    order = np.argsort(counts, kind="stable")  # the count groups, each in lex order
    ends = np.cumsum(np.bincount(counts, minlength=state.n + 1))
    groups = [(m, lo, hi) for m, (lo, hi) in enumerate(zip([0, *ends], ends)) if hi > lo]

    undressed = np.empty_like(state.amplitudes)
    for m, lo, hi in groups:
        idx = order[lo:hi]
        undressed[:, idx] = powers[m].conj().T @ state.amplitudes[:, idx]
    inverse = np.argsort(order)

    def redress(i, free, spare):  # free in count-group order, each group a block of columns
        for m, lo, hi in groups:  # into a C-ordered view: an F-ordered out= moved bits
            np.matmul(powers[m], free[:, lo:hi], out=spare[:, lo:hi])
        emit(i, spare.take(inverse, axis=1, out=free, mode="clip"), spare)  # back in lex order

    _free_sector_sweep(state.spec, state.n, undressed, times, redress, order)


def propagate_single_link(state: SectorState, x0: int, g: np.ndarray, t: float) -> SectorState:
    """Evolve with primitive g on link x0 only.

    Each configuration carries the register factor g^(count of excitations
    past x0); undressing by those powers reduces the dynamics to the free
    sector, which is propagated and then re-dressed.
    """
    amps = []
    _single_link_sweep(state, x0, g, [t], lambda i, a, _: amps.append(a))
    return SectorState(state.spec, state.n, amps[0])


def single_link_densities(state: SectorState, x0: int, g: np.ndarray, times) -> np.ndarray:
    """Register density matrices, shape (T, d, d), with primitive g on link x0 only.

    One start evolved over a time grid: it is checked, undressed and embedded
    once over its a active sites, and each time costs the propagator's s x a
    columns there and n leg products, leg k widening its leg from a to s sites
    over only the columns that some label reads (label by label above
    _WHOLE_START_BYTES of d * s^n).
    _each spreads the samples over the CPUs when each touches at least
    chain._SPREAD_BYTES; each gets the bits it gets alone, so rho does not
    depend on the CPU count.  rho is budgeted with its traces' norm check
    (32 B per time).  Raises ValueError before the first sample, the
    lowest failing sample's error, and NormalizationError, after the sweep, if
    the trace of any density (the sector's norm^2) drifted.
    """
    times = np.asarray(times, dtype=float)
    _check_memory((16 * state.d**2 + 32) * times.size, f"register densities at {times.size} times")
    rho = np.empty((times.size, state.d, state.d), dtype=complex)

    def density(i, a, spare):
        np.matmul(a, np.conjugate(a, out=spare).T, out=rho[i])

    _single_link_sweep(state, x0, g, times, density)
    _check_norm(np.trace(rho, axis1=1, axis2=2).real, "sector")
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
            root = np.sqrt((1.0 - b1**2) * (1.0 - b2**2))
            out[inside] = self._integrand_p(np.arcsin(b1), np.arcsin(b2)) / root
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
