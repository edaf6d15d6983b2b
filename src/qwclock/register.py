"""One-qubit register clocked by the cursor walk.

The machine state in the one-excitation sector is stored as a spinor per
chain site.  Conjugating site x by the accumulated link unitaries
W(x) = U_{x-1} ... U_1 turns the dynamics into free chain propagation of
each register component, so evolution, Bloch trajectories, entropy and
measurement collapse are all exact, at O(s^2) cost per sample below the
FFT crossover and O(s log s) from it on.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .chain import (
    ChainSpec,
    CursorWavefunction,
    PositionStatistics,
    _Record,
    _Value,
    _check_norm,
    _check_site,
    _column_step,
    _evolve,
    _grid_chunks,
    _mode_coefficients,
    _site_statistics,
)
from .special import speed_characteristic_kernel

__all__ = [
    "SIGMA1",
    "SIGMA2",
    "SIGMA3",
    "GroverParams",
    "grover_params",
    "rotation_about_2",
    "oracle_reflection",
    "estimation_reflection",
    "grover_initial_state",
    "PrimitiveProgram",
    "identity_program",
    "toy_program",
    "alternating_program",
    "rotation_window_program",
    "single_link_program",
    "register_state_sequence",
    "MachineState",
    "bloch_vector",
    "entropy_from_r",
    "RegisterTrajectory",
    "register_trajectory",
    "machine_trajectory",
    "LindbladFit",
    "lindblad_coefficients",
    "bessel_struve_approx",
    "measure_clock",
    "measure_register_sigma3",
    "asymptotic_speed_cdf",
    "local_maxima",
    "local_minima",
]

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)

_UNITARY_TOL = 1e-12
_R_DEGENERATE = 1e-12
# the in-plane bound on |s2| = |Tr(rho sigma_2)|
_PLANE_TOL = 1e-9


# ---------------------------------------------------------------------------
# search parameterization

class GroverParams(_Value):
    """Rotation-step parameters for a search over mu-bit words."""

    def __init__(self, mu: int, chi: float, theta: float, alpha: float) -> None:
        vars(self).update(mu=mu, chi=chi, theta=theta, alpha=alpha)


def grover_params(mu: int) -> GroverParams:
    """chi = arcsin(2^(-mu/2)), theta = pi - 2 chi, alpha = -4 chi."""
    if not (isinstance(mu, (int, np.integer)) and mu >= 1):
        raise ValueError(f"mu must be a positive integer, got {mu!r}")
    chi = float(np.arcsin(2.0 ** (-mu / 2.0)))
    return GroverParams(mu=int(mu), chi=chi, theta=np.pi - 2.0 * chi, alpha=-4.0 * chi)


def rotation_about_2(alpha: float) -> np.ndarray:
    """exp(-i alpha sigma_2 / 2), a real rotation in the 1-3 Bloch plane."""
    c, s = np.cos(alpha / 2.0), np.sin(alpha / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def oracle_reflection() -> np.ndarray:
    """Reflection about the target state |sigma_3 = +1>."""
    return np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)


def estimation_reflection(theta: float) -> np.ndarray:
    """Reflection about the flat initial search state at Bloch angle theta."""
    iota = np.array([np.cos(theta / 2.0), np.sin(theta / 2.0)], dtype=complex)
    return 2.0 * np.outer(iota, iota.conj()) - _ID2


def grover_initial_state(params: GroverParams) -> np.ndarray:
    """(cos(theta/2), sin(theta/2)): the flat superposition of the search."""
    return np.array([np.cos(params.theta / 2.0), np.sin(params.theta / 2.0)], dtype=complex)


# ---------------------------------------------------------------------------
# link programs

def _check_unitary(ops: np.ndarray) -> None:
    """The one unitarity check, of a (..., d, d) stack of link operators (a
    program's, or multi's single-link primitive): ValueError unless each is
    unitary to _UNITARY_TOL; nan fails."""
    eye = np.eye(ops.shape[-1])
    dev = np.abs(ops.conj().swapaxes(-1, -2) @ ops - eye).max()
    if not dev <= _UNITARY_TOL:
        raise ValueError(f"link operators deviate from unitarity by {dev:g}")


class PrimitiveProgram:
    """The 2x2 unitaries U_1 .. U_{s-1} applied on the chain links."""

    def __init__(self, unitaries) -> None:
        arr = np.asarray(unitaries, dtype=complex)
        if arr.ndim != 3 or arr.shape[1:] != (2, 2) or arr.shape[0] < 1:
            raise ValueError(f"expected (s-1, 2, 2) unitaries, got shape {arr.shape}")
        _check_unitary(arr)
        arr.flags.writeable = False
        self.unitaries = arr
        self.s = arr.shape[0] + 1

    @cached_property
    def cumulative(self) -> np.ndarray:
        """W[x-1] = U_{x-1} ... U_1 (W[0] = identity), shape (s, 2, 2)."""
        w = np.empty((self.s, 2, 2), dtype=complex)
        w[0] = _ID2
        for x in range(1, self.s):
            w[x] = self.unitaries[x - 1] @ w[x - 1]
        w.flags.writeable = False
        return w


def identity_program(s: int) -> PrimitiveProgram:
    return PrimitiveProgram(np.broadcast_to(_ID2, (s - 1, 2, 2)).copy())


def toy_program(s: int, alpha: float) -> PrimitiveProgram:
    """The same rotation by alpha on every link."""
    return PrimitiveProgram(np.broadcast_to(rotation_about_2(alpha), (s - 1, 2, 2)).copy())


def alternating_program(s: int, theta: float) -> PrimitiveProgram:
    """Oracle reflection on odd links, estimation reflection on even links."""
    a, b = oracle_reflection(), estimation_reflection(theta)
    for refl in (a, b):
        if not np.abs(refl @ refl - _ID2).max() <= _UNITARY_TOL:
            raise ValueError("reflection is not an involution")
    ops = np.empty((s - 1, 2, 2), dtype=complex)
    ops[0::2] = a
    ops[1::2] = b
    return PrimitiveProgram(ops)


def rotation_window_program(s: int, alpha: float, start: int, count: int) -> PrimitiveProgram:
    """Rotation by alpha on links start .. start+count-1, identity elsewhere."""
    if count < 0 or not 1 <= start <= s - 1 or start + count - 1 > s - 1:
        raise ValueError(
            f"window start={start}, count={count} does not fit links 1..{s - 1}"
        )
    ops = np.broadcast_to(_ID2, (s - 1, 2, 2)).copy()
    ops[start - 1 : start - 1 + count] = rotation_about_2(alpha)
    return PrimitiveProgram(ops)


def single_link_program(s: int, x0: int, g: np.ndarray) -> PrimitiveProgram:
    """g on link x0, identity on every other link."""
    if not 1 <= x0 <= s - 1:
        raise ValueError(f"active link x0={x0} outside 1..{s - 1}")
    ops = np.broadcast_to(_ID2, (s - 1, 2, 2)).copy()
    ops[x0 - 1] = np.asarray(g, dtype=complex)
    return PrimitiveProgram(ops)


def register_state_sequence(program: PrimitiveProgram, r1) -> np.ndarray:
    """|R(x)> = U_{x-1} ... U_1 |R(1)> for x = 1..s, shape (s, 2)."""
    r1 = np.asarray(r1, dtype=complex)
    _check_norm(np.sum(np.abs(r1) ** 2), "register state")
    return np.einsum("xij,j->xi", program.cumulative, r1)


# ---------------------------------------------------------------------------
# machine state in the one-excitation sector

class MachineState(_Record):
    """Register (x) cursor state: one spinor per chain site, total norm 1."""

    def __init__(self, spec: ChainSpec, program: PrimitiveProgram, spinors: np.ndarray) -> None:
        arr = np.asarray(spinors, dtype=complex)  # (s, 2)
        vars(self).update(spec=spec, program=program, spinors=arr)
        if arr.shape != (spec.s, 2):
            raise ValueError(f"spinors have shape {arr.shape}, expected ({spec.s}, 2)")
        if program.s != spec.s:
            raise ValueError("program length does not match the chain")
        _check_norm(np.sum(np.abs(arr) ** 2), "machine")

    @classmethod
    def from_product(
        cls, program: PrimitiveProgram, r1, psi0: CursorWavefunction
    ) -> "MachineState":
        """|R(1)> (x) psi0, the standard unentangled start."""
        r1 = np.asarray(r1, dtype=complex)
        return cls(psi0.spec, program, np.outer(psi0.amplitudes, r1))

    def comoving_components(self) -> np.ndarray:
        """Spinors in the frame W(x)^dagger, where the walk is free; (s, 2)."""
        return np.einsum("xji,xj->xi", self.program.cumulative.conj(), self.spinors)

    def evolve(self, t: float) -> "MachineState":
        """Exact evolution for time t (each comoving component walks freely)."""
        # held: the mode coefficients, 32 B per site, or 64 as a view of their FFT
        # extension from 640 sites on; per site, the evolved spinors and their squares
        window = _grid_chunks(self.spec, [t], 2, 64 * self.spec.s, 64)
        coeff = _mode_coefficients(self.spec, self.comoving_components())
        _, psi = next(_evolve(self.spec, coeff, [t], window))
        spinors = np.einsum("xij,xj->xi", self.program.cumulative, psi[0].T)
        return MachineState(self.spec, self.program, spinors)

    def register_density_matrix(self) -> np.ndarray:
        """Reduced 2x2 density operator of the register."""
        return np.einsum("xi,xj->ij", self.spinors, self.spinors.conj())

    def cursor_distribution(self) -> np.ndarray:
        """Probability of finding the cursor at each site."""
        return np.sum(np.abs(self.spinors) ** 2, axis=1)

    def position_statistics(self) -> PositionStatistics:
        return _site_statistics(self.cursor_distribution())


# ---------------------------------------------------------------------------
# Bloch representation and entropy

def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """(s1, s2, s3) = Tr(rho sigma_j)."""
    rho = np.asarray(rho, dtype=complex)
    return np.array([2.0 * rho[1, 0].real, 2.0 * rho[1, 0].imag, (rho[0, 0] - rho[1, 1]).real])


def _xlnx(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    pos = p > 0.0
    out[pos] = p[pos] * np.log(p[pos])
    return out


def entropy_from_r(r) -> np.ndarray:
    """Binary von Neumann entropy (nats) of a qubit with Bloch radius r."""
    arr = np.clip(np.atleast_1d(np.asarray(r, dtype=float)), 0.0, 1.0)
    s = -(_xlnx((1.0 + arr) / 2.0) + _xlnx((1.0 - arr) / 2.0))
    return float(s[0]) if np.ndim(r) == 0 else s


def bessel_struve_approx(params: GroverParams, lam: float, t: float) -> complex:
    """Closed-form r(t) e^{i gamma(t)} for the toy run, via Bessel/Struve.

    (2 e^{i(theta-alpha)}/T) (J1(T) - T J2(T) + i (T H0(T) - H1(T))) with
    T = alpha*lam*t; valid deep in the ballistic window 1 << lam*t < s.
    """
    T = params.alpha * lam * t
    return np.exp(1j * (params.theta - params.alpha)) * speed_characteristic_kernel(T)


# ---------------------------------------------------------------------------
# trajectories

class RegisterTrajectory(_Record):
    """Bloch/entropy/readout time series of the register on a time grid, one array each."""

    def __init__(
        self, times, s1, s2, s3, r, gamma, gamma_defined, entropy, p_success, lam1, lam2
    ) -> None:
        vars(self).update(
            times=times, s1=s1, s2=s2, s3=s3, r=r, gamma=gamma, gamma_defined=gamma_defined,
            entropy=entropy, p_success=p_success, lam1=lam1, lam2=lam2,
        )

    @classmethod
    def from_coherence(cls, times, coherence, s3, p_success) -> "RegisterTrajectory":
        """The series of a register with rho[1, 0] = coherence and Bloch s3 over times.

        The one owner of every register quantity: s1, s2, r, the in-plane angle
        gamma (the last defined one carried where r < 1e-12), the entropy and
        lam1, lam2 = (1 +- r)/2, lam1 the bound of the best projective readout,
        on (cos(gamma/2), sin(gamma/2)); p_success is the caller's target probability.
        """
        s1 = 2.0 * coherence.real
        s2 = 2.0 * coherence.imag
        r = np.sqrt(s1**2 + s2**2 + s3**2)
        defined = r >= _R_DEGENERATE
        return cls(
            times=times,
            s1=s1,
            s2=s2,
            s3=s3,
            r=r,
            gamma=np.unwrap(_fill_undefined(np.arctan2(s1, s3), defined)),
            gamma_defined=defined,
            entropy=entropy_from_r(r),
            p_success=p_success,
            lam1=(1.0 + r) / 2.0,
            lam2=(1.0 - r) / 2.0,
        )


def _fill_undefined(raw: np.ndarray, defined: np.ndarray) -> np.ndarray:
    """Carry the last defined angle across degenerate (r ~ 0) samples."""
    if defined.all():
        return raw
    if not defined.any():
        return np.zeros_like(raw)
    idx = np.where(defined, np.arange(raw.size), -1)
    np.maximum.accumulate(idx, out=idx)
    idx = np.where(idx < 0, int(np.argmax(defined)), idx)
    return raw[idx]


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """Sum over sites strictly row by row, so the bits never depend on the chunk width.

    numpy adds the rows of a C-ordered array in sequence, one vector add per
    row; it would sum a single column pairwise, so that one is accumulated.
    Serves _chunk_sums (machine_trajectory) only; the position average
    contracts its sites in one einsum per window.
    """
    a = np.ascontiguousarray(a)
    if a[0].size < 2:
        return np.cumsum(a, axis=0)[-1]
    return np.add.reduce(a, axis=0)


def _chunk_sums(W: np.ndarray, psi: np.ndarray):
    """rho[1, 0], s3 and norm^2 of the register over one chunk of comoving
    components psi, (chunk, 2, s), dressed by the cumulative links W."""
    phi0, phi1 = psi[:, 0].T, psi[:, 1].T  # (s, chunk)
    chi0, chi1 = (W[:, i, 0, None] * phi0 + W[:, i, 1, None] * phi1 for i in range(2))
    p0 = np.abs(chi0) ** 2
    p1 = np.abs(chi1) ** 2
    return _sum_rows(chi0.conj() * chi1), _sum_rows(p0 - p1), _sum_rows(p0 + p1)


def machine_trajectory(machine: MachineState, times) -> RegisterTrajectory:
    """Sample the register state on a time grid (batched spectral transform).

    Times are offsets from the machine's current state.  The grid is evolved
    in the chunks chain._grid_chunks picks, each reduced to the Bloch vector
    and norm before the next, so temporaries are O(s * chunk), not O(s * T).
    Raises NormalizationError if the norm drifts at any time.
    """
    times = np.asarray(times, dtype=float)
    # held: the O(T) results (three sums here, about ten series in the
    # trajectory) and the comoving components with their mode coefficients
    # (160 B per site with the FFT's extension); per site and sample: the
    # dressing chi0, chi1, p0, p1 and the row-sum temporaries
    windows = _grid_chunks(machine.spec, times, 2, 128 * times.size + 160 * machine.spec.s, 80)
    coeff = _mode_coefficients(machine.spec, machine.comoving_components())
    cross = np.empty(times.size, dtype=complex)
    s3 = np.empty(times.size)
    norm2 = np.empty(times.size)
    for window, psi in _evolve(machine.spec, coeff, times, windows):
        cross[window], s3[window], norm2[window] = _chunk_sums(machine.program.cumulative, psi)
    return _checked_trajectory(times, cross, s3, norm2)


def _check_plane(s2, what: str) -> None:
    """The one in-plane check: ValueError naming the first s2 in s2 (a value or an
    array of them) above _PLANE_TOL in magnitude; nan fails."""
    ok = np.abs(s2) <= _PLANE_TOL
    if not ok.all():
        first = np.ravel(s2)[np.argmin(ok)]
        raise ValueError(f"{what} leaves the 1-3 Bloch plane, s2 = {float(first)!r}")


def _stays_in_plane(program: PrimitiveProgram, r1: np.ndarray, psi0: CursorWavefunction) -> bool:
    """Whether psi0 (x) r1 keeps s2 = 0 at every time: real links and r1, and either
    every link a rotation (det +1), whose dressing keeps the sigma_2 part of each
    cross term of rho, and those sum to 0 over the sites; or psi0(x) = i^x a(x), a
    real up to one phase (as at one site), which makes every cross term real, the
    free propagator being imaginary between the sublattices."""
    if program.unitaries.imag.any() or r1.imag.any():
        return False
    U = program.unitaries.real
    if (U[:, 0, 0] * U[:, 1, 1] > U[:, 0, 1] * U[:, 1, 0]).all():
        return True
    z = psi0.amplitudes * np.array([1, -1j, -1, 1j])[np.arange(1, psi0.spec.s + 1) % 4]
    k = np.argmax(np.abs(z))
    return bool((z.real * z[k].imag == z.imag * z[k].real).all())


def _checked_trajectory(times, coherence, s3, norm2) -> RegisterTrajectory:
    """The trajectory of a register with rho[1, 0] = coherence and Bloch s3 over
    times; NormalizationError if norm2, the machine's norm^2, drifted at any time."""
    _check_norm(norm2, "machine")
    return RegisterTrajectory.from_coherence(times, coherence, s3, (1.0 + s3) / 2.0)


def _position_average(
    program: PrimitiveProgram, b: np.ndarray, psi0: CursorWavefunction, times, step: float
) -> RegisterTrajectory:
    """Trajectory of the comoving start psi0 (x) b over a uniform grid, a position average.

    rho(t) = sum_x P_t(x) W(x) b b^dagger W(x)^dagger, with P_t the free
    walk's site distribution from psi0, evolved as one column.  Each site
    weighs Re and Im of [Wb]_1 conj([Wb]_0), |[Wb]_0|^2 - |[Wb]_1|^2 and 1
    (the norm), and each window's four site sums are one einsum contraction
    of P with the weights.  einsum reduces every (sample, weight) pair over
    the sites by itself, so a sample's bits do not depend on the window's
    row count; a BLAS product would route a one-row window to GEMV, which
    rounds otherwise than the GEMM of a wider one.
    """
    s, T = psi0.spec.s, times.size
    u = np.einsum("xij,j->xi", program.cumulative, b)  # W(x) b
    cross = u[:, 1] * u[:, 0].conj()
    weights = np.empty((4, s))
    weights[0], weights[1] = cross.real, cross.imag
    weights[2] = np.abs(u[:, 0]) ** 2 - np.abs(u[:, 1]) ** 2
    weights[3] = 1.0
    sums = np.empty((T, 4))
    # held: the O(T) results and, per site, the weights, W b and the start's
    # coefficients; per site and sample: P with its two squares, and the last
    # window's P while this one's is squared
    windows = _grid_chunks(psi0.spec, times, 1, 128 * T + 160 * s, 32, step=step)
    for window, psi in _evolve(psi0.spec, psi0._coefficients, times, windows, step):
        p = np.square(psi.real) + np.square(psi.imag)  # (chunk, 1, s)
        np.einsum("ij,kj->ik", p[:, 0], weights, out=sums[window])
    return _checked_trajectory(times, sums[:, 0] + 1j * sums[:, 1], sums[:, 2], sums[:, 3])


def register_trajectory(
    program: PrimitiveProgram, r1, psi0: CursorWavefunction, times
) -> RegisterTrajectory:
    """Trajectory for the product start |R(1)> (x) psi0.

    Where chain._column_step allows one free column, and W(x) is the same at
    every site x0 of psi0's support, the comoving start is psi0 (x) b with
    b = W(x0)^dagger R(1), and the register density is a position average of
    that column (_position_average).  Every other case runs machine_trajectory.
    Either route checks the norm, then, where _stays_in_plane holds (every CLI
    start), s2 = 0 to _PLANE_TOL: ValueError at the first sample off the plane.
    """
    machine = MachineState.from_product(program, r1, psi0)
    r1, times = np.asarray(r1, dtype=complex), np.asarray(times, dtype=float)
    step = _column_step(psi0.spec, times)
    W = program.cumulative
    support = np.flatnonzero(psi0.amplitudes)
    if step is None or not (W[support] == W[support[0]]).all():
        traj = machine_trajectory(machine, times)
    else:
        traj = _position_average(program, W[support[0]].conj().T @ r1, psi0, times, step)
    if _stays_in_plane(program, r1, psi0):
        _check_plane(traj.s2, "register")
    return traj


class LindbladFit(NamedTuple):
    dgamma_dt: float
    dlnr_dt: float
    residual: float
    flagged: bool


def _rho_from_bloch(s1: float, s2: float, s3: float) -> np.ndarray:
    return 0.5 * (_ID2 + s1 * SIGMA1 + s2 * SIGMA2 + s3 * SIGMA3)


def lindblad_coefficients(traj: RegisterTrajectory, t: float) -> LindbladFit:
    """Central-difference drift coefficients and the master-equation residual.

    Returns (dgamma/dt, d ln r/dt) at the grid point nearest t and the max
    entry norm of d rho/dt - [rotation term + double-commutator term].
    Flagged (d ln r/dt = nan) when r is degenerate near t.  The difference's
    three samples alone must be evenly spaced, to 4 ulp of their largest |t|.
    """
    times = traj.times
    if times.size < 3:
        raise ValueError("trajectory needs at least 3 samples")
    i = int(np.argmin(np.abs(times - t)))
    if i == 0 or i == times.size - 1:
        raise ValueError(f"t={t} has no interior grid point for central differences")
    local = times[i - 1 : i + 2]
    if not abs(np.diff(local, 2)[0]) <= 4 * np.spacing(np.abs(local).max()):
        raise ValueError(f"trajectory grid must be uniform around t={t}")
    h = float(local[2] - local[0]) / 2.0

    dgamma = (traj.gamma[i + 1] - traj.gamma[i - 1]) / (2.0 * h)
    flagged = bool(np.min(traj.r[i - 1 : i + 2]) < _R_DEGENERATE)
    if flagged:
        dlnr = float("nan")
    else:
        dlnr = (np.log(traj.r[i + 1]) - np.log(traj.r[i - 1])) / (2.0 * h)

    rho_m = _rho_from_bloch(traj.s1[i - 1], traj.s2[i - 1], traj.s3[i - 1])
    rho_0 = _rho_from_bloch(traj.s1[i], traj.s2[i], traj.s3[i])
    rho_p = _rho_from_bloch(traj.s1[i + 1], traj.s2[i + 1], traj.s3[i + 1])
    drho = (rho_p - rho_m) / (2.0 * h)

    comm = SIGMA2 @ rho_0 - rho_0 @ SIGMA2
    double = SIGMA2 @ comm - comm @ SIGMA2
    rhs = -0.5j * dgamma * comm
    if not flagged:
        rhs = rhs + 0.25 * dlnr * double
    residual = float(np.abs(drho - rhs).max())
    return LindbladFit(float(dgamma), float(dlnr), residual, flagged)


# ---------------------------------------------------------------------------
# measurements

def measure_clock(machine: MachineState, x0: int) -> MachineState:
    """Collapse after the cursor has been observed at site x0."""
    _check_site(machine.spec, x0, "x0")
    spinor = machine.spinors[x0 - 1]
    weight = float(np.sum(np.abs(spinor) ** 2))
    if not weight >= 1e-24:
        raise ValueError(f"cursor has zero probability at site {x0}")
    collapsed = np.zeros_like(machine.spinors)
    collapsed[x0 - 1] = spinor / np.sqrt(weight)
    return MachineState(machine.spec, machine.program, collapsed)


def measure_register_sigma3(
    machine: MachineState, outcome: int
) -> tuple[MachineState, float]:
    """Project the register on (I + outcome*sigma_3)/2 and renormalize.

    Returns the collapsed composite state and the outcome probability.
    The cursor marginal is generally changed, since the state is entangled.
    """
    if outcome not in (+1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome!r}")
    column = 0 if outcome == +1 else 1
    prob = float(np.sum(np.abs(machine.spinors[:, column]) ** 2))
    if not prob >= 1e-24:
        raise ValueError(f"outcome {outcome:+d} has zero probability")
    collapsed = np.zeros_like(machine.spinors)
    collapsed[:, column] = machine.spinors[:, column] / np.sqrt(prob)
    return MachineState(machine.spec, machine.program, collapsed), prob


def asymptotic_speed_cdf(machine: MachineState):
    """Limit CDF of Q/t for the machine: a mixture over register components.

    Each comoving component walks freely, so the speed law is the weighted
    mixture of the general laws of the normalized components.
    """
    from .speed import law_general

    phi = machine.comoving_components()
    parts = []
    for j in range(2):
        weight = float(np.sum(np.abs(phi[:, j]) ** 2))
        if weight < 1e-12:
            continue
        component = CursorWavefunction(
            machine.spec, phi[:, j] / np.sqrt(weight)
        )
        parts.append((weight, law_general(component).cdf))

    def cdf(v):
        return sum(w * np.asarray(f(v), dtype=float) for w, f in parts)

    return cdf


# ---------------------------------------------------------------------------
# grid utilities

def local_maxima(values) -> np.ndarray:
    """Indices of samples strictly above both neighbors."""
    v = np.asarray(values, dtype=float)
    hits = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
    return np.nonzero(hits)[0] + 1


def local_minima(values) -> np.ndarray:
    """Indices of samples strictly below both neighbors."""
    v = np.asarray(values, dtype=float)
    hits = (v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])
    return np.nonzero(hits)[0] + 1
