import functools
import threading
import tracemalloc

import numpy as np
import pytest

import qwclock as qc
from qwclock import chain, multi, register
from qwclock.register import SIGMA2, machine_trajectory


def toy_setup(mu=7, s=129):
    params = qc.grover_params(mu)
    spec = qc.ChainSpec(s)
    program = qc.toy_program(s, params.alpha)
    r1 = qc.grover_initial_state(params)
    psi0 = qc.basis_state(spec, 1)
    return params, spec, program, r1, psi0


def test_grover_params_exact_mu2():
    params = qc.grover_params(2)
    assert abs(params.chi - np.pi / 6.0) < 1e-15
    assert abs(params.theta - 2.0 * np.pi / 3.0) < 1e-15
    assert abs(params.alpha + 2.0 * np.pi / 3.0) < 1e-15


def test_grover_params_mu7():
    params = qc.grover_params(7)
    assert abs(params.chi - 0.0885038431440155) < 1e-13
    assert abs(params.theta - 2.9645849673017621) < 1e-13
    assert abs(params.alpha + 0.3540153725760619) < 1e-13


def test_grover_params_validation():
    with pytest.raises(ValueError):
        qc.grover_params(0)


def test_estimation_oracle_product_is_rotation():
    params = qc.grover_params(7)
    a = qc.oracle_reflection()
    b = qc.estimation_reflection(params.theta)
    assert np.abs(b @ a - qc.rotation_about_2(params.alpha)).max() < 1e-12
    assert np.abs(a @ a - np.eye(2)).max() < 1e-12
    assert np.abs(b @ b - np.eye(2)).max() < 1e-12


def test_program_rejects_non_unitary():
    ops = np.broadcast_to(np.eye(2, dtype=complex), (4, 2, 2)).copy()
    ops[1] *= 1.5
    with pytest.raises(ValueError):
        qc.PrimitiveProgram(ops)


def test_rotation_window_validation():
    with pytest.raises(ValueError):
        qc.rotation_window_program(10, 0.3, 8, 3)  # spills past link 9
    with pytest.raises(ValueError):
        qc.rotation_window_program(10, 0.3, 0, 2)


def test_register_sequence_identity_program():
    r1 = np.array([0.6, 0.8], dtype=complex)
    seq = qc.register_state_sequence(qc.identity_program(7), r1)
    assert np.abs(seq - r1[None, :]).max() < 1e-15


def test_register_sequence_toy_bloch_angles():
    params, _, program, r1, _ = toy_setup(s=12)
    seq = qc.register_state_sequence(program, r1)
    for x in (1, 2, 7):
        angle = params.theta + (x - 1) * params.alpha
        expected = np.array([np.cos(angle / 2.0), np.sin(angle / 2.0)])
        assert np.abs(seq[x - 1] - expected).max() < 1e-12


def test_register_sequence_alternating_matches_rotation_powers():
    params = qc.grover_params(5)
    program = qc.alternating_program(40, params.theta)
    r1 = qc.grover_initial_state(params)
    seq = qc.register_state_sequence(program, r1)
    rot = qc.rotation_about_2(params.alpha)
    state = r1.copy()
    for k in range(18):
        assert np.abs(seq[2 * k] - state).max() < 1e-12
        state = rot @ state


def test_register_density_initial_state_pure():
    params, spec, program, r1, psi0 = toy_setup(s=17)
    rho = qc.register_density(program, r1, psi0, 0.0)
    assert np.abs(rho - np.outer(r1, r1.conj())).max() < 1e-13
    assert abs(np.linalg.norm(qc.bloch_vector(rho)) - 1.0) < 1e-12
    assert qc.entropy(rho) < 1e-12


def test_register_density_is_state():
    params, spec, program, r1, psi0 = toy_setup(s=33)
    for t in (3.0, 11.0, 40.0):
        rho = qc.register_density(program, r1, psi0, t)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_trajectory_strictly_inside_disc():
    params, spec, program, r1, psi0 = toy_setup()
    times = np.arange(0.1, 129.0, 0.7)
    traj = qc.register_trajectory(program, r1, psi0, times)
    assert traj.r.max() < 1.0
    assert (traj.r**2 - (traj.s1**2 + traj.s2**2 + traj.s3**2) < 1e-12).all()


def test_trajectory_plane_confinement():
    params, spec, program, r1, psi0 = toy_setup()
    traj = qc.register_trajectory(program, r1, psi0, np.arange(0.0, 150.0, 1.0))
    assert np.abs(traj.s2).max() < 1e-12


def test_trajectory_eigenvalue_identities():
    _, _, program, r1, psi0 = toy_setup(s=17)
    traj = qc.register_trajectory(program, r1, psi0, np.arange(0.0, 20.0, 0.5))
    assert np.abs(traj.lam1 + traj.lam2 - 1.0).max() < 1e-14
    assert np.abs(traj.lam1 - (1.0 + traj.r) / 2.0).max() < 1e-14
    assert (traj.entropy >= -1e-15).all()
    assert (traj.entropy <= np.log(2.0) + 1e-15).all()


def test_bloch_polar_cases():
    pure_up = np.diag([1.0, 0.0]).astype(complex)
    polar = qc.bloch_polar(pure_up)
    assert polar.defined and abs(polar.r - 1.0) < 1e-15 and abs(polar.gamma) < 1e-15

    params = qc.grover_params(6)
    iota = qc.grover_initial_state(params)
    polar = qc.bloch_polar(np.outer(iota, iota.conj()))
    assert abs(polar.r - 1.0) < 1e-12
    assert abs(polar.gamma - params.theta) < 1e-12

    mixed = 0.5 * np.eye(2, dtype=complex)
    polar = qc.bloch_polar(mixed, prev_gamma=0.37)
    assert not polar.defined
    assert polar.gamma == 0.37

    off_plane = 0.5 * (np.eye(2) + 0.5 * SIGMA2)
    with pytest.raises(ValueError):
        qc.bloch_polar(off_plane)


def test_entropy_values():
    assert qc.entropy_from_r(1.0) == 0.0
    assert qc.entropy_from_r(0.0) == np.log(2.0)
    assert abs(qc.entropy_from_r(0.5) - 0.5623351446188083) < 1e-15
    assert qc.entropy(0.5 * np.eye(2, dtype=complex)) == np.log(2.0)


def test_bessel_struve_approx_limit_and_window():
    params, spec, program, r1, psi0 = toy_setup()
    assert abs(
        qc.bessel_struve_approx(params, 1.0, 0.0)
        - np.exp(1j * (params.theta - params.alpha))
    ) < 1e-12
    # ballistic window: the approximation tracks the exact polar radius to
    # about 3 percent (frozen from the exact comparison; see notes)
    worst = 0.0
    for t in (15.0, 40.0, 60.0):
        rho = qc.register_density(program, r1, psi0, t)
        polar = qc.bloch_polar(rho)
        approx = qc.bessel_struve_approx(params, 1.0, t)
        worst = max(worst, abs(abs(approx) - polar.r) / polar.r)
        assert abs(approx) <= 1.0 + 1e-12
    assert worst < 0.035


def test_lindblad_residual_toy_run():
    params, spec, program, r1, psi0 = toy_setup()
    h = 1e-3
    for t in (5.5, 30.0, 75.0, 99.5):
        traj = qc.register_trajectory(program, r1, psi0, np.array([t - h, t, t + h]))
        fit = qc.lindblad_coefficients(traj, t)
        assert not fit.flagged
        assert fit.residual < 1e-6


def test_lindblad_identity_program():
    _, spec, program, r1, psi0 = toy_setup(s=17)
    program = qc.identity_program(17)
    h = 1e-3
    traj = qc.register_trajectory(program, r1, psi0, np.array([5.0 - h, 5.0, 5.0 + h]))
    fit = qc.lindblad_coefficients(traj, 5.0)
    assert fit.dgamma_dt == 0.0
    assert fit.residual < 1e-10


def test_lindblad_commutator_preserves_radius():
    # the rotation part alone cannot change r: Tr(rho [sigma2, rho]) = 0
    params, spec, program, r1, psi0 = toy_setup(s=17)
    for t in (2.0, 9.0):
        rho = qc.register_density(program, r1, psi0, t)
        comm = SIGMA2 @ rho - rho @ SIGMA2
        assert abs(np.trace(rho @ comm)) < 1e-14


def test_lindblad_grid_validation():
    _, _, program, r1, psi0 = toy_setup(s=9)
    traj = qc.register_trajectory(program, r1, psi0, np.array([0.0, 0.1, 0.3]))
    with pytest.raises(ValueError):
        qc.lindblad_coefficients(traj, 0.1)
    traj = qc.register_trajectory(program, r1, psi0, np.array([0.0, 0.1, 0.2]))
    with pytest.raises(ValueError):
        qc.lindblad_coefficients(traj, 0.0)


def test_from_coherence_carries_the_last_defined_angle():
    """Undefined samples (r < 1e-12) at the start and in the middle: each carries
    the last defined angle, the leading ones the first defined angle, and
    gamma_defined marks them all."""
    angle = np.array([0.0, 0.0, 0.3, 0.5, 0.0, -0.2, 0.1])
    radius = np.array([0.0, 1e-13, 0.8, 0.6, 0.0, 0.9, 0.7])
    s1, s3 = radius * np.sin(angle), radius * np.cos(angle)
    traj = qc.RegisterTrajectory.from_coherence(np.arange(7.0), s1 / 2.0, s3, np.full(7, 0.5))
    raw = np.arctan2(s1, s3)
    assert traj.gamma_defined.tolist() == [False, False, True, True, False, True, True]
    assert np.array_equal(traj.gamma, raw[[2, 2, 2, 3, 3, 5, 6]])


def test_lindblad_fit_on_a_long_uniform_grid():
    """0.1 * arange(100000) is uniform, though its steps drift by up to 1.8e-12
    (1 ulp of its last time): each fit agrees to 1e-12 with the fit on the
    grid's own three samples around t."""
    _, _, program, r1, psi0 = toy_setup(s=9)
    times = 0.1 * np.arange(100_000)
    traj = qc.register_trajectory(program, r1, psi0, times)
    for t in (1.0, 5000.0, 9999.8):
        i = int(np.argmin(np.abs(times - t)))
        own = qc.register_trajectory(program, r1, psi0, times[i - 1 : i + 2])
        fit, local = qc.lindblad_coefficients(traj, t), qc.lindblad_coefficients(own, t)
        assert not fit.flagged and not local.flagged
        assert np.allclose(fit[:3], local[:3], rtol=0.0, atol=1e-12), t


def test_optimal_readout():
    params = qc.grover_params(5)
    iota = qc.grover_initial_state(params)
    readout = qc.optimal_readout(np.outer(iota, iota.conj()))
    assert abs(readout.success_bound - 1.0) < 1e-12
    assert abs(abs(np.vdot(readout.state, iota)) - 1.0) < 1e-12
    assert not readout.degenerate

    degenerate = qc.optimal_readout(0.5 * np.eye(2, dtype=complex))
    assert degenerate.degenerate
    assert abs(degenerate.success_bound - 0.5) < 1e-15


def test_success_probability_bounded_by_lam1():
    params, spec, program, r1, psi0 = toy_setup()
    traj = qc.register_trajectory(program, r1, psi0, np.arange(0.0, 155.0, 0.1))
    assert (traj.p_success <= traj.lam1 + 1e-12).all()


def test_success_maxima_decrease_before_reflection():
    params, spec, program, r1, psi0 = toy_setup()
    times = np.arange(0.0, 129.0, 0.1)
    traj = qc.register_trajectory(program, r1, psi0, times)
    peaks = traj.p_success[qc.local_maxima(traj.p_success)]
    assert len(peaks) >= 5
    assert (np.diff(peaks) < 0.0).all()


def test_alternating_entropy_minimum_at_first_success_maximum():
    params, spec, _, r1, psi0 = toy_setup()
    program = qc.alternating_program(spec.s, params.theta)
    times = np.arange(0.0, 3 * spec.s, 0.1)
    traj = qc.register_trajectory(program, r1, psi0, times)
    first_max = qc.local_maxima(traj.p_success)[0]
    first_min = qc.local_minima(traj.entropy)[0]
    assert abs(int(first_max) - int(first_min)) <= 2
    # an entropy local maximum occurs before that point
    assert qc.local_maxima(traj.entropy)[0] < first_min


def test_measure_clock_collapse():
    params, spec, program, r1, psi0 = toy_setup(s=40)
    machine = qc.MachineState.from_product(program, r1, psi0)
    again = qc.measure_clock(machine, 1)
    assert np.abs(again.spinors - machine.spinors).max() < 1e-14
    with pytest.raises(ValueError):
        qc.measure_clock(machine, 7)  # zero probability at t = 0
    with pytest.raises(ValueError):
        qc.measure_clock(machine, 0)

    evolved = machine.evolve(9.0)
    collapsed = qc.measure_clock(evolved, 6)
    dist = collapsed.cursor_distribution()
    assert abs(dist[5] - 1.0) < 1e-12
    seq = qc.register_state_sequence(program, r1)
    fidelity = abs(np.vdot(seq[5], collapsed.spinors[5]))
    assert abs(fidelity - 1.0) < 1e-12


def test_measure_clock_slowdown():
    params = qc.grover_params(7)
    spec = qc.ChainSpec(200)
    program = qc.toy_program(200, params.alpha)
    machine = qc.MachineState.from_product(
        program, qc.grover_initial_state(params), qc.basis_state(spec, 1)
    ).evolve(12.0)
    collapsed = qc.measure_clock(machine, 10)
    ts = np.arange(30.0, 120.0 + 1e-9, 3.0)
    means = [collapsed.evolve(t).position_statistics().mean for t in ts]
    slope = np.polyfit(ts, means, 1)[0]
    assert abs(slope / qc.law_shifted(10).mean - 1.0) < 0.03


def test_measure_register_outcomes():
    params, spec, program, r1, psi0 = toy_setup()
    machine = qc.MachineState.from_product(program, r1, psi0).evolve(10.5)
    plus, p_plus = qc.measure_register_sigma3(machine, +1)
    minus, p_minus = qc.measure_register_sigma3(machine, -1)
    assert abs(p_plus + p_minus - 1.0) < 1e-12
    # outcome +1 at the first success maximum: pure post-measurement state
    rho = plus.register_density_matrix()
    assert abs(np.linalg.norm(qc.bloch_vector(rho)) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        qc.measure_register_sigma3(machine, 2)


def test_measure_register_changes_speed_cdf():
    params, spec, program, r1, psi0 = toy_setup()
    machine = qc.MachineState.from_product(program, r1, psi0).evolve(10.5)
    minus, _ = qc.measure_register_sigma3(machine, -1)
    v = np.linspace(0.01, 0.99, 99)
    undisturbed = qc.asymptotic_speed_cdf(machine)(v)
    disturbed = qc.asymptotic_speed_cdf(minus)(v)
    assert np.abs(disturbed - undisturbed).max() > 0.05
    # the unmeasured machine keeps the localized law
    assert np.abs(undisturbed - qc.law_localized().cdf(v)).max() < 1e-10


def test_measure_register_zero_probability_outcome():
    spec = qc.ChainSpec(6)
    program = qc.identity_program(6)
    machine = qc.MachineState.from_product(
        program, np.array([1.0, 0.0]), qc.basis_state(spec, 1)
    )
    with pytest.raises(ValueError):
        qc.measure_register_sigma3(machine, -1)


def test_trajectory_degenerate_gamma_flagged():
    # a maximally entangled start has r = 0: gamma is carried, flagged
    spec = qc.ChainSpec(6)
    program = qc.identity_program(6)
    spinors = np.zeros((6, 2), dtype=complex)
    spinors[0, 0] = 1.0 / np.sqrt(2.0)
    spinors[1, 1] = 1.0 / np.sqrt(2.0)
    machine = qc.MachineState(spec, program, spinors)
    traj = machine_trajectory(machine, np.array([0.0, 0.5, 1.0]))
    assert not traj.gamma_defined[0]
    assert np.isfinite(traj.gamma).all()


def test_machine_norm_validation():
    spec = qc.ChainSpec(4)
    program = qc.identity_program(4)
    bad = np.zeros((4, 2), dtype=complex)
    bad[0, 0] = 0.5
    with pytest.raises(qc.NormalizationError):
        qc.MachineState(spec, program, bad)


def test_kernel_norm_drift_raises_on_every_path(monkeypatch):
    evolve = chain._evolve

    def drifting(*args):
        for window, psi in evolve(*args):
            yield window, psi * (1.0 + 1e-6)

    monkeypatch.setattr(chain, "_evolve", drifting)
    monkeypatch.setattr(register, "_evolve", drifting)
    _, _, program, r1, psi0 = toy_setup(mu=4, s=17)
    machine = qc.MachineState.from_product(program, r1, psi0)
    with pytest.raises(qc.NormalizationError):
        qc.propagate(psi0, 1.0)
    with pytest.raises(qc.NormalizationError):
        machine.evolve(1.0)
    with pytest.raises(qc.NormalizationError):
        machine_trajectory(machine, np.array([0.0, 1.0]))

    # a grid of two chunks that drifts in its one-sample last chunk only
    times = 0.01 * np.arange(_trajectory_chunks(17, 1)[0] + 1)

    def drifting_late(spec, coeff, t, windows, step=None):
        for window, psi in evolve(spec, coeff, t, windows, step):
            scale = np.where(np.asarray(t)[window] >= times[-1], 1.0 + 1e-6, 1.0)
            yield window, psi * scale[:, None, None]

    monkeypatch.setattr(register, "_evolve", drifting_late)
    machine_trajectory(machine, times[:-1])
    with pytest.raises(qc.NormalizationError):
        machine_trajectory(machine, times)

    # the position average evolves one column: a start at site 1 takes it from 640 sites
    monkeypatch.setattr(register, "_evolve", drifting)
    monkeypatch.setattr(register, "machine_trajectory", _must_not_run)
    _, _, long_program, _, long_psi0 = toy_setup(mu=4, s=chain._FFT_SITES)
    with pytest.raises(qc.NormalizationError):
        qc.register_trajectory(long_program, r1, long_psi0, np.array([0.0, 1.0]))

    # the sector path evolves one start over the grid: only its last time drifts
    columns = chain._propagator_columns

    def drifting_last(spec, sites):
        at = columns(spec, sites)
        return lambda t, out: at(t, out) * (1.0 + 1e-6 if t == times[-1] else 1.0)

    monkeypatch.setattr(chain, "_propagator_columns", drifting_last)
    state = qc.SectorState.from_product(qc.ChainSpec(8), (1, 2, 3), r1)
    g = program.unitary(1)
    qc.single_link_densities(state, 4, g, times[-4:-1])
    with pytest.raises(qc.NormalizationError):
        qc.single_link_densities(state, 4, g, times[-4:])


def _trajectory_chunks(s, T):
    """Chunk width and checked estimate of a trajectory of s sites over T times,
    written out: 4 MiB of (s, 2) complex samples on the GEMM path, and 1 MiB
    of 144 B per extended site on the FFT path; the O(T) results, 160 B per
    site, the cached complex V below 640 sites, the FFT path's (2, s) scaled
    coefficients (32 B per site), and the widest chunk."""
    if s >= 640:
        width, basis, per_sample = max(1, 2**20 // (144 * (s + 1))), 32 * s, 144 * (s + 1)
    else:
        width, basis, per_sample = max(1, 4 * 2**20 // (32 * s)), 16 * s * s, 112 * s
    return width, 128 * T + 160 * s + basis + per_sample * min(width, T)


def _recording_widths(widths):
    """register's kernel, recording the sample count of each window it evolves."""
    evolve = register._evolve

    def recorded(*args):
        for window, psi in evolve(*args):
            widths.append(psi.shape[0])
            yield window, psi

    return recorded


def _evolve_whole(spec, coeff, times):
    """The kernel's (T, d, s) evolution of a grid as one window."""
    return next(chain._evolve(spec, coeff, times, [slice(0, len(times))]))[1]


@pytest.mark.parametrize("s,width", [(17, 7710), (639, 205), (640, 11), (769, 9), (2049, 3)])
def test_trajectory_windows_and_estimate_pinned(s, width, monkeypatch):
    """machine_trajectory evolves, and checks to the byte, the chunks written out above."""
    checked, evolved = [], []
    check_memory = chain._check_memory

    def recording_check(nbytes, what):
        if what.startswith("trajectory of"):
            checked.append(nbytes)
        check_memory(nbytes, what)

    monkeypatch.setattr(chain, "_check_memory", recording_check)
    monkeypatch.setattr(register, "_evolve", _recording_widths(evolved))
    machine = _random_machine(s)
    for T in (1, width - 1, width, 2 * width + 1):
        checked.clear()
        evolved.clear()
        machine_trajectory(machine, 0.5 * np.arange(T))
        assert _trajectory_chunks(s, T)[0] == width
        assert checked == [_trajectory_chunks(s, T)[1]]
        assert evolved == [width] * (T // width) + ([T % width] if T % width else [])


@pytest.mark.parametrize("s", [200, 400])
def test_trajectory_estimate_bounds_its_traced_peak(s, monkeypatch):
    """Below 640 sites the trajectory's checked estimate (the cached complex V at
    16 s^2 B among it) is at or above the peak tracemalloc sees over building
    the basis and the trajectory.  The machine is the caller's input, built
    untraced: its links, cumulative unitaries and start (about 100 B per site,
    which the CLI's per-site check counts) are no allocation of the trajectory,
    and the first machine of a process imports numpy.random (about 700 kB)."""
    checked = []
    check_memory = chain._check_memory

    def recording_check(nbytes, what):
        if what.startswith("trajectory of"):
            checked.append(nbytes)
        check_memory(nbytes, what)

    monkeypatch.setattr(chain, "_check_memory", recording_check)
    machine = _random_machine(s)
    chain._complex_modes.cache_clear()
    tracemalloc.start()
    try:
        chain._complex_modes(machine.spec)
        machine_trajectory(machine, 0.5 * np.arange(300))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checked == [_trajectory_chunks(s, 300)[1]]
    assert peak <= checked[0] < 2 * peak


@pytest.mark.parametrize("s", [200, 400, 769, 1025])
def test_evolve_estimate_bounds_its_traced_peak(s, monkeypatch):
    """MachineState.evolve's one-sample window is checked at 160 s B beside the
    cached complex V (16 s^2) below 640 sites, and at 224 s + 128 B from 640 on:
    the mode coefficients (64 s, a view of their FFT extension), the evolved
    spinors and their squares (64 s), and the kernel's two-column sample (32 s
    on the GEMM path; on the FFT path its 64 B per extended site and 32 s of
    scaled coefficients).  On a later call, the basis traced and held, the
    traced peak is at or under that estimate and over half of it."""
    checked = []
    check_memory = chain._check_memory

    def recording_check(nbytes, what):
        checked.append(nbytes)
        check_memory(nbytes, what)

    monkeypatch.setattr(chain, "_check_memory", recording_check)
    machine = _random_machine(s)
    machine.evolve(0.5)  # the FFT plans, the cumulative links and the energies
    chain._complex_modes.cache_clear()
    tracemalloc.start()
    try:
        if s < chain._FFT_SITES:
            chain._complex_modes(machine.spec)  # the basis, traced and held
        tracemalloc.reset_peak()
        checked.clear()
        machine.evolve(3.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checked == [16 * s * s + 160 * s if s < 640 else 224 * s + 128]
    assert peak <= checked[0] < 2 * peak


def _route_chunks(s, T):
    """Chunk width and checked estimate of a position-average trajectory of s
    sites over T times, written out: 384 KiB of 96 B per extended site (the
    one-column extension and the FFT's copy of it, P with its two squares,
    the last window's P), so the extension stays within the allocator's
    128 KiB mmap threshold; the O(T) results, 160 B per site, 16 B per site
    for each of the 8 rows of offsets and anchor, 24 B per site of anchor
    temporaries, 16 B per site of scaled coefficients, and the widest chunk."""
    width = max(1, 3 * 2**17 // (96 * (s + 1)))
    return width, 128 * T + 160 * s + 168 * s + 96 * (s + 1) * min(width, T)


@pytest.mark.parametrize("s,width", [(640, 6), (769, 5), (2049, 1)])
def test_position_average_windows_and_estimate_pinned(s, width, monkeypatch):
    """The position average evolves, and checks to the byte, the chunks written out above."""
    checked, evolved = [], []
    check_memory = chain._check_memory

    def recording_check(nbytes, what):
        if what.startswith("trajectory of"):
            checked.append(nbytes)
        check_memory(nbytes, what)

    monkeypatch.setattr(chain, "_check_memory", recording_check)
    monkeypatch.setattr(register, "_evolve", _recording_widths(evolved))
    monkeypatch.setattr(register, "machine_trajectory", _must_not_run)
    _, _, program, r1, psi0 = toy_setup(mu=5, s=s)
    for T in (2, max(2, width), width + 1, 2 * width + 1):  # one sample is no uniform grid
        checked.clear()
        evolved.clear()
        qc.register_trajectory(program, r1, psi0, 0.5 * np.arange(T))
        assert _route_chunks(s, T)[0] == width
        assert checked == [_route_chunks(s, T)[1]]
        assert evolved == [width] * (T // width) + ([T % width] if T % width else [])


@pytest.mark.parametrize("s", [769, 2049])
def test_position_average_estimate_bounds_its_traced_peak(s, monkeypatch):
    """The position average's checked estimate is at or above the peak
    tracemalloc sees over the route, and within twice that peak."""
    checked = []
    check_memory = chain._check_memory

    def recording_check(nbytes, what):
        if what.startswith("trajectory of"):
            checked.append(nbytes)
        check_memory(nbytes, what)

    monkeypatch.setattr(chain, "_check_memory", recording_check)
    monkeypatch.setattr(register, "machine_trajectory", _must_not_run)
    _, _, program, r1, psi0 = toy_setup(mu=5, s=s)
    times = 0.5 * np.arange(300)
    qc.register_trajectory(program, r1, psi0, times[:2])  # the FFT plans, built once
    checked.clear()
    tracemalloc.start()
    try:
        qc.register_trajectory(program, r1, psi0, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checked == [_route_chunks(s, times.size)[1]]
    assert peak <= checked[0] < 2 * peak


@pytest.mark.parametrize("s", [640, 769])
def test_position_average_bits_do_not_depend_on_window_width(s, monkeypatch):
    """One grid evolved in windows of 1, 2 and 5 samples, and a prefix of it,
    give the same s1, s2 and s3 bytes: no window of any row count, a one-row
    one included, reduces its sites otherwise than a wider one."""
    _, _, program, r1, psi0 = toy_setup(mu=6, s=s)
    times = 0.5 * np.arange(23)  # an exact step, so every prefix has the same h
    widths = []
    monkeypatch.setattr(register, "_evolve", _recording_widths(widths))
    monkeypatch.setattr(register, "machine_trajectory", _must_not_run)
    runs = []
    for width in (1, 2, 5):
        widths.clear()
        monkeypatch.setattr(chain, "_COLUMN_CHUNK_BYTES", width * 96 * (s + 1))
        runs.append(qc.register_trajectory(program, r1, psi0, times))
        assert widths[0] == width and sum(widths) == times.size
    prefix = qc.register_trajectory(program, r1, psi0, times[:7])
    for field in ("s1", "s2", "s3"):
        expected = getattr(runs[0], field).tobytes()
        for traj in runs[1:]:
            assert getattr(traj, field).tobytes() == expected, field
        assert getattr(prefix, field).tobytes() == getattr(runs[0], field)[:7].tobytes(), field


@pytest.mark.parametrize("s", [513, 769])
@pytest.mark.parametrize("cpus", [1, 3])
def test_every_evolution_is_budgeted_once_on_the_calling_thread(s, cpus, monkeypatch):
    """_grid_chunks is the one budget of every evolution: each _evolve call,
    through either module's binding, follows a `trajectory of` check made
    on the calling thread before its first window, and no memory check runs
    on a helper thread."""
    events, caller = [], threading.get_ident()
    check_memory = chain._check_memory

    def recording_check(nbytes, what):
        events.append((threading.get_ident(), what))
        check_memory(nbytes, what)

    def recording(evolve):
        def recorded(*args):
            events.append((threading.get_ident(), "evolve"))
            yield from evolve(*args)

        return recorded

    machine = _random_machine(s)
    psi0 = qc.launchpad_state(qc.ChainSpec(s), 5, 3)
    monkeypatch.setattr(chain, "_check_memory", recording_check)
    monkeypatch.setattr(chain, "_evolve", recording(chain._evolve))
    monkeypatch.setattr(register, "_evolve", recording(register._evolve))
    monkeypatch.setattr(chain, "_cpus", lambda: cpus)
    times = 0.5 * np.arange(40)
    for run in (
        lambda: qc.propagate(psi0, 2.0),
        lambda: machine.evolve(2.0),
        lambda: chain.position_moments(psi0, times),
        lambda: machine_trajectory(machine, times),
    ):
        events.clear()
        run()
        assert any(what == "evolve" for _, what in events)
        budgeted = False
        for thread, what in events:
            if what == "evolve":
                assert budgeted, events
            else:
                assert thread == caller, what
                budgeted = budgeted or what.startswith("trajectory of")


def _must_not_run(*args, **kwargs):
    raise AssertionError("took the path this start should not take")


def _route_starts(s, seed=0):
    """Every CLI start (toy, alternating, telomere, flat and gamma pads) with a
    complex register start, as (name, program, r1, psi0)."""
    rng = np.random.default_rng(seed)
    r1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    r1 /= np.linalg.norm(r1)
    params = qc.grover_params(7)
    spec = qc.ChainSpec(s)
    site1 = qc.basis_state(spec, 1)
    past_pad = qc.rotation_window_program(s, params.alpha, 9, 11)  # the pads span sites 1..9
    return [
        ("toy", qc.toy_program(s, params.alpha), r1, site1),
        ("alternating", qc.alternating_program(s, params.theta), r1, site1),
        ("telomere", qc.rotation_window_program(s, params.alpha, 1, 11), r1, site1),
        ("flat", past_pad, r1, qc.launchpad_state(spec, 9, 5)),
        ("gamma", past_pad, r1, qc.gamma_state(spec, 5)),
    ]


@pytest.mark.parametrize("s", [640, 769, 2049])
def test_position_average_matches_machine_trajectory(s, monkeypatch):
    """Every CLI start takes the one-column route from 640 sites on and keeps
    the Bloch vector of the two-column machine trajectory to 1e-13."""
    times = (2.5 * s / 200) * np.arange(200)  # past the first reflection
    for name, program, r1, psi0 in _route_starts(s):
        expected = machine_trajectory(qc.MachineState.from_product(program, r1, psi0), times)
        with monkeypatch.context() as patch:
            patch.setattr(register, "machine_trajectory", _must_not_run)
            traj = qc.register_trajectory(program, r1, psi0, times)
        for field in ("s1", "s2", "s3", "r", "p_success"):
            dev = np.abs(getattr(traj, field) - getattr(expected, field)).max()
            assert dev < 1e-13, (name, field, dev)


def test_position_average_against_dense_oracle():
    """The one-column route at the crossover (s + 1 = 641 prime) against the
    dense sector-1 oracle, with random links past a site-1 start."""
    from qwclock import oracle

    machine, ham = _dense_random_machine(chain._FFT_SITES, 1)
    program = machine.program
    r1 = np.array([0.6, 0.8j])
    psi0 = qc.basis_state(machine.spec, 1)
    times = np.linspace(0.0, 1.3 * machine.spec.s, 9)
    traj = qc.register_trajectory(program, r1, psi0, times)
    vec0 = qc.MachineState.from_product(program, r1, psi0).spinors.reshape(-1)
    for i, t in enumerate(times):
        rho = oracle.partial_trace(oracle.evolve(ham, vec0, t), 2, "register")
        s1, s2, s3 = qc.bloch_vector(rho)
        assert abs(traj.s1[i] - s1) < 1e-10
        assert abs(traj.s2[i] - s2) < 1e-10
        assert abs(traj.s3[i] - s3) < 1e-10


@pytest.mark.parametrize("s", [769, 2049])
def test_position_average_bitwise_equals_whole_grid_formula(s):
    """The chunked route against its whole-grid formula, anchors included, bit
    for bit.  Sample j takes its phases from the anchor a = j - j % K: exact
    cos and sin at t_a times c V psi0, then one product with exp(-i e (j-a) h)
    for j > a; the site sums are one einsum over the whole grid.  The grid
    spans anchors that straddle chunks; at 769 sites it ends in a short
    chunk, at 2049 every chunk is one sample."""
    _, _, program, r1, psi0 = toy_setup(mu=6, s=s)
    K = chain._PHASE_ANCHOR
    times = 0.37 * np.arange(4 * K + 1)  # width 5 leaves a short last chunk
    traj = qc.register_trajectory(program, r1, psi0, times)

    spec = psi0.spec
    c = 0.5j * np.sqrt(2.0 / (s + 1))
    scaled = c * _odd_fft(psi0.amplitudes * c)  # c V psi0
    e = -spec.lam * np.cos(np.arange(1, s + 1) * np.pi / (s + 1))

    def phases(t):
        arg = np.multiply.outer(t, -e)
        out = np.empty(arg.shape, dtype=complex)
        out.real, out.imag = np.cos(arg), np.sin(arg)
        return out

    h = (times[-1] - times[0]) / (times.size - 1)
    offsets = phases(h * np.arange(1, K))
    body = np.empty((times.size, s), dtype=complex)
    for j in range(times.size):
        a = j - j % K
        body[j] = phases(times[a : a + 1])[0] * scaled
        if j > a:
            body[j] = body[j] * offsets[j - a - 1]
    psi = _odd_fft(body)  # (T, s)
    p = psi.real**2 + psi.imag**2
    u = np.einsum("xij,j->xi", program.cumulative, r1)  # W(1) = 1, so b = r1
    cross = u[:, 1] * u[:, 0].conj()
    weights = np.stack([cross.real, cross.imag, np.abs(u[:, 0]) ** 2 - np.abs(u[:, 1]) ** 2])
    total = np.einsum("ij,kj->ik", p, weights)  # (T, 3), every sample at once
    assert np.array_equal(traj.s1, 2.0 * total[:, 0])
    assert np.array_equal(traj.s2, 2.0 * total[:, 1])
    assert np.array_equal(traj.s3, total[:, 2])


def test_position_average_other_cases_equal_machine_trajectory(monkeypatch):
    """A non-uniform grid, a start whose support spans differing W, and a chain
    below the crossover run the two-column machine trajectory, bit for bit."""
    monkeypatch.setattr(register, "_position_average", _must_not_run)
    s = chain._FFT_SITES
    params = qc.grover_params(5)
    spec = qc.ChainSpec(s)
    uniform = 0.5 * np.arange(40)
    rough = uniform.copy()
    rough[7] += 1e-9
    cases = [
        (qc.toy_program(s, params.alpha), qc.basis_state(spec, 1), rough),
        (qc.toy_program(s, params.alpha), qc.gamma_state(spec, 3), uniform),
        (qc.toy_program(s - 1, params.alpha), qc.basis_state(qc.ChainSpec(s - 1), 1), uniform),
    ]
    r1 = qc.grover_initial_state(params)
    for program, psi0, times in cases:
        traj = qc.register_trajectory(program, r1, psi0, times)
        expected = machine_trajectory(qc.MachineState.from_product(program, r1, psi0), times)
        for field in ("s1", "s2", "s3", "r", "gamma"):
            assert np.array_equal(getattr(traj, field), getattr(expected, field)), field


def test_uniform_step():
    """Uniform within 4 ulp of max|t| of t_0 + j h, h = (t_{T-1} - t_0)/(T-1)."""
    grid = 0.1 * np.arange(1000)
    assert chain._uniform_step(grid) == (grid[-1] - grid[0]) / 999
    assert chain._uniform_step(3.0 + 0.37 * np.arange(50)) is not None
    nudged = grid.copy()
    nudged[500] += 5 * np.spacing(grid[-1])
    assert chain._uniform_step(nudged) is None
    nudged[500] = grid[500] + 3 * np.spacing(grid[-1])
    assert chain._uniform_step(nudged) is not None
    assert chain._uniform_step(np.array([1.0])) is None
    assert chain._uniform_step(np.array([0.0, 1.0, 3.0])) is None


@functools.lru_cache(maxsize=1)
def _dense_random_machine(s, seed):
    """A _random_machine with the dense sector-1 oracle of its program, built once."""
    from qwclock import oracle

    machine = _random_machine(s, seed)
    return machine, oracle.build(machine.spec, machine.program, sector=1)


def _random_machine(s, seed=0):
    """Random real orthogonal links (as every CLI program has), complex register start."""
    rng = np.random.default_rng(seed)
    links, _ = np.linalg.qr(rng.standard_normal((s - 1, 2, 2)))
    r1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi0 = qc.gamma_state(qc.ChainSpec(s), 3)
    return qc.MachineState.from_product(qc.PrimitiveProgram(links), r1 / np.linalg.norm(r1), psi0)


def _odd_fft(y):
    """Entries 1..s of one FFT of the odd extension [0, y, 0, -y[::-1]] along
    the last axis: -2i sum_x sin(pi k x/(s+1)) y(x)."""
    s = y.shape[-1]
    ext = np.zeros(y.shape[:-1] + (2 * (s + 1),), dtype=complex)
    ext[..., 1 : s + 1] = y
    ext[..., s + 2 :] = -y[..., ::-1]
    return np.fft.fft(ext, axis=-1)[..., 1 : s + 1]


def _fft_evolution(spec, amps, times):
    """The FFT path's (s, T, d) evolution of site amplitudes over a whole grid,
    written out; c = i/2 sqrt(2/(s+1)) turns _odd_fft into V @ y."""
    s = spec.s
    c = 0.5j * np.sqrt(2.0 / (s + 1))
    coeff = _odd_fft(amps.T * c)  # V @ amps, (d, s)
    e = -spec.lam * np.cos(np.arange(1, s + 1) * np.pi / (s + 1))
    arg = np.multiply.outer(times, -e)
    phases = np.empty(arg.shape, dtype=complex)
    phases.real, phases.imag = np.cos(arg), np.sin(arg)
    return _odd_fft(phases[:, None, :] * (c * coeff)[None]).transpose(2, 0, 1)


@pytest.mark.parametrize("s", [24, 129, 769, 2049])
def test_machine_trajectory_bitwise_equals_unchunked_formula(s):
    """Chunked trajectory against the whole-grid formula of its kernel, bit for bit.

    s = 24 and 129 take the GEMM kernel, 769 and 2049 the FFT kernel.  The
    grid's last chunk holds one sample: numpy sums one column pairwise,
    so only a row-sequential reduction keeps the bits of the whole-grid sum.
    Two cases keep only the value, not the last bit: a grid of one sample
    (pairwise there, row by row now), and links with complex entries, where
    numpy's complex multiply may round the explicit 2x2 dressing otherwise
    than einsum does.
    """
    machine = _random_machine(s)
    times = 0.37 * np.arange(_trajectory_chunks(s, 1)[0] + 1)
    traj = machine_trajectory(machine, times)

    if s < chain._FFT_SITES:
        e, V = chain.eigenbasis(machine.spec)
        coeff = V.T @ machine.comoving_components()
        phases = np.exp(-1j * np.outer(e, times))
        phi = np.tensordot(V, phases[:, :, None] * coeff[:, None, :], axes=(1, 0))
    else:
        phi = _fft_evolution(machine.spec, machine.comoving_components(), times)
    # C order: np.sum over axis 0 then adds the rows in sequence
    chi = np.einsum("xij,xtj->xti", machine.program.cumulative, phi, order="C")
    cross = np.sum(chi[:, :, 0].conj() * chi[:, :, 1], axis=0)
    s3 = np.sum(np.abs(chi[:, :, 0]) ** 2 - np.abs(chi[:, :, 1]) ** 2, axis=0)
    assert np.array_equal(traj.s1, 2.0 * cross.real)
    assert np.array_equal(traj.s2, 2.0 * cross.imag)
    assert np.array_equal(traj.s3, s3)


@pytest.mark.parametrize("s", [17, 40, 513, 769, 2049])
def test_fft_kernel_matches_gemm_kernel(s, monkeypatch):
    """Both kernels at one size: coefficients and evolution agree to 1e-13.

    s + 1 = 41 is prime, where pocketfft takes its Bluestein algorithm.
    """
    rng = np.random.default_rng(s)
    spec = qc.ChainSpec(s)
    amps = rng.standard_normal((s, 2)) + 1j * rng.standard_normal((s, 2))
    amps /= np.linalg.norm(amps, axis=0)
    times = np.array([0.0, 0.7, 13.0, 250.5, 2.0 * s])
    results = []
    for crossover in (10**9, 2):  # GEMM, then FFT
        monkeypatch.setattr(chain, "_FFT_SITES", crossover)
        coeff = chain._mode_coefficients(spec, amps)
        results.append((coeff, _evolve_whole(spec, coeff, times)))
    (coeff_gemm, phi_gemm), (coeff_fft, phi_fft) = results
    assert np.abs(coeff_fft - chain._complex_modes(spec) @ amps).max() < 1e-13
    assert np.abs(coeff_fft - coeff_gemm).max() < 1e-13
    assert np.abs(phi_fft - phi_gemm).max() < 1e-13


@pytest.mark.parametrize("s", [640, 769, 1020, 2049])
def test_fft_bits_do_not_depend_on_batch(s):
    """Each column of the sine transform has the same bits alone as in any batch."""
    rng = np.random.default_rng(s)
    ext = np.empty((37, 2 * (s + 1)), dtype=complex)
    ext[:, 1 : s + 1] = rng.standard_normal((37, s)) + 1j * rng.standard_normal((37, s))
    rows = [ext[i].copy() for i in range(37)]
    batch = chain._sine_transform(ext[:5].copy())
    whole = chain._sine_transform(ext)
    for i, row in enumerate(rows):
        alone = chain._sine_transform(row)
        assert np.array_equal(whole[i], alone)
        if i < 5:
            assert np.array_equal(batch[i], alone)


def test_fft_trajectory_against_dense_oracle():
    """A trajectory on the FFT path (s = the crossover, s + 1 = 641 prime) and
    the machine's own evolution match the dense sector-1 oracle (d = 2)."""
    from qwclock import oracle

    s = chain._FFT_SITES
    machine, ham = _dense_random_machine(s, 1)
    vec0 = machine.spinors.reshape(-1)
    times = np.array([0.0, 3.7, 0.5 * s, 1.3 * s])
    traj = machine_trajectory(machine, times)
    for i, t in enumerate(times):
        dense = oracle.evolve(ham, vec0, t)
        s1, s2, s3 = qc.bloch_vector(oracle.partial_trace(dense, 2, "register"))
        assert abs(traj.s1[i] - s1) < 1e-10
        assert abs(traj.s2[i] - s2) < 1e-10
        assert abs(traj.s3[i] - s3) < 1e-10
        assert np.abs(machine.evolve(t).spinors.reshape(-1) - dense).max() < 1e-10


@pytest.mark.parametrize("d", [1, 2])
def test_evolve_modes_bitwise_equals_real_basis_formula(d):
    """The cached complex V, used untransposed, gives the bits of V.T and the
    real V; one column is evolved sample by sample, as propagate does."""
    rng = np.random.default_rng(d)
    for s in (17, 513):
        spec = qc.ChainSpec(s)
        amps = rng.standard_normal((s, d)) + 1j * rng.standard_normal((s, d))
        times = np.array([0.0, 0.7, 13.0, 250.5])
        e, V = chain.eigenbasis(spec)

        def formula(grid):
            phases = np.exp(-1j * np.outer(e, grid))
            return np.tensordot(V, phases[:, :, None] * (V.T @ amps)[:, None, :], axes=(1, 0))

        for grid in (times, *([t] for t in times)):  # one time per call, as in propagate
            if d == 1:
                expected = np.concatenate([formula([t]) for t in grid], axis=1)
            else:
                expected = formula(grid)
            coeff = chain._complex_modes(spec) @ amps
            assert np.array_equal(_evolve_whole(spec, coeff, grid).transpose(2, 0, 1), expected)


def test_propagate_reuses_cached_coefficients_bitwise():
    """Repeated propagations of one state reuse its coefficients, with the bits of
    the formula that recomputed them per call."""
    rng = np.random.default_rng(3)
    for s in (17, 513):
        spec = qc.ChainSpec(s)
        amps = rng.standard_normal(s) + 1j * rng.standard_normal(s)
        psi = qc.CursorWavefunction(spec, amps / np.linalg.norm(amps))
        e, V = chain.eigenbasis(spec)
        Vc = V.astype(complex)
        for t in (0.0, 0.7, 13.0, 250.5):
            coeff = Vc @ psi.amplitudes[:, None]
            phases = np.exp(-1j * np.outer(e, [t]))
            expected = np.tensordot(Vc, phases[:, :, None] * coeff[:, None, :], axes=(1, 0))
            assert np.array_equal(qc.propagate(psi, t).amplitudes, expected[:, 0, 0])
            if t == 0.0:
                cached = vars(psi)["_coefficients"]
        assert vars(psi)["_coefficients"] is cached


def test_trajectory_budget_refuses_long_grid(monkeypatch):
    # chunks bound the spinors, not the O(T) results: 4e7 times are refused up front
    _, _, program, r1, psi0 = toy_setup(mu=4, s=17)
    machine = qc.MachineState.from_product(program, r1, psi0)
    monkeypatch.setattr(register, "_evolve", None)  # nothing is evolved
    with pytest.raises(qc.ResourceLimitError):
        machine_trajectory(machine, np.broadcast_to(0.0, (40_000_000,)))


def test_cached_arrays_read_only():
    spec = qc.ChainSpec(9)
    given = np.full(9, 1.0 / 3.0)
    psi = qc.CursorWavefunction(spec, given)
    given[0] = 0.0  # the state holds its own copy
    assert psi.amplitudes[0] == 1.0 / 3.0
    long_psi = qc.basis_state(qc.ChainSpec(chain._FFT_SITES), 1)  # FFT coefficients
    cached = [
        *chain.eigenbasis(spec),
        chain._complex_modes(spec),
        multi._occupation_array(9, 3),
        psi.amplitudes,
        psi._coefficients,
        long_psi._coefficients,
    ]
    assert np.array_equal(chain._complex_modes(spec), chain.eigenbasis(spec)[1])
    for arr in cached:
        with pytest.raises(ValueError):
            arr[0] = 0


def test_basis_caches_hold_one_entry():
    """The basis and label caches keep one entry, the one each estimate counts:
    a run over many chains or sectors leaves the last one only."""
    for s in range(200, 210):
        chain._complex_modes(qc.ChainSpec(s))
        multi._occupation_array(s, 2)
    for cache in (chain._complex_modes, multi._occupation_array):
        info = cache.cache_info()
        assert info.maxsize == 1 and info.currsize == 1, cache
    assert chain._complex_modes(qc.ChainSpec(209)).shape == (209, 209)
    assert chain._complex_modes.cache_info().hits >= 1


def test_local_extrema_helpers():
    y = np.array([0.0, 1.0, 0.5, 2.0, 1.5, 1.5])
    assert list(qc.local_maxima(y)) == [1, 3]
    assert list(qc.local_minima(y)) == [2]


def _nan_spinors(machine):
    """The machine with nan spinors, past MachineState's own check."""
    object.__setattr__(machine, "spinors", np.full_like(machine.spinors, np.nan))
    return machine


def _nan_trajectory(s, times=(0.0, 2.0)):
    """A toy trajectory whose phases overflow to nan at t = 2."""
    program, r1 = qc.toy_program(s, 0.3), np.array([1.0, 0.0])
    return qc.register_trajectory(program, r1, qc.basis_state(qc.ChainSpec(s, 1e308), 1), times)


_NAN_CHECKS = {
    "PrimitiveProgram": (lambda: qc.PrimitiveProgram(np.full((2, 2, 2), np.nan)), "unitarity"),
    "alternating_program": (lambda: qc.alternating_program(5, np.nan), "involution"),
    "register_state_sequence": (
        lambda: qc.register_state_sequence(qc.identity_program(3), [np.nan, 0.0]),
        r"register state norm\^2 = nan",
    ),
    "MachineState": (
        lambda: qc.MachineState(qc.ChainSpec(3), qc.identity_program(3), np.full((3, 2), np.nan)),
        "machine norm",
    ),
    "bloch_polar": (lambda: qc.bloch_polar(np.full((2, 2), complex(np.nan, np.nan))), "1-3 Bloch plane"),
    "register_trajectory two columns": (lambda: _nan_trajectory(17), r"machine norm\^2 = nan"),
    "register_trajectory one column": (
        lambda: _nan_trajectory(chain._FFT_SITES), r"machine norm\^2 = nan"
    ),
    # the anchors at t = 0, 0.8 and 1.6 and the offsets up to 0.7 stay finite
    "register_trajectory one column, overflow between anchors": (
        lambda: _nan_trajectory(700, np.linspace(0.0, 2.0, 21)), r"machine norm\^2 = nan"
    ),
    "measure_clock": (
        lambda: qc.measure_clock(_nan_spinors(_random_machine(9)), 1), "zero probability"
    ),
    "measure_register_sigma3": (
        lambda: qc.measure_register_sigma3(_nan_spinors(_random_machine(9)), 1), "zero probability"
    ),
}


@pytest.mark.parametrize("entry", sorted(_NAN_CHECKS))
def test_nan_fails_the_invariant_check(entry):
    """nan fails each check that a value past its tolerance fails, with its message."""
    call, message = _NAN_CHECKS[entry]
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=message):
        call()


def test_register_imports_no_kernel_constant():
    """chain alone picks the kernel path and the windows: register imports no
    crossover, grid test, budget check or window size from it."""
    import ast

    tree = ast.parse(open(register.__file__).read())
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "chain"
        for alias in node.names
    }
    assert "_evolve" in names  # the scan sees the chain import
    assert not names & {"_FFT_SITES", "_uniform_step", "_check_memory"}
    assert not [name for name in names if name.endswith("_BYTES")]
