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
    evolve_modes = chain._evolve_modes

    def drifting(spec, amps, times):
        return evolve_modes(spec, amps, times) * (1.0 + 1e-6)

    monkeypatch.setattr(chain, "_evolve_modes", drifting)
    monkeypatch.setattr(register, "_evolve_modes", drifting)
    _, _, program, r1, psi0 = toy_setup(mu=4, s=17)
    machine = qc.MachineState.from_product(program, r1, psi0)
    with pytest.raises(qc.NormalizationError):
        qc.propagate(psi0, 1.0)
    with pytest.raises(qc.NormalizationError):
        machine.evolve(1.0)
    with pytest.raises(qc.NormalizationError):
        machine_trajectory(machine, np.array([0.0, 1.0]))

    # a grid of two chunks that drifts in its one-sample last chunk only
    times = 0.01 * np.arange(_chunk_width(17) + 1)

    def drifting_late(spec, amps, t):
        scale = np.where(np.asarray(t) >= times[-1], 1.0 + 1e-6, 1.0)
        return evolve_modes(spec, amps, t) * scale[None, :, None]

    monkeypatch.setattr(register, "_evolve_modes", drifting_late)
    machine_trajectory(machine, times[:-1])
    with pytest.raises(qc.NormalizationError):
        machine_trajectory(machine, times)


def _chunk_width(s):
    return max(1, register._CHUNK_BYTES // (32 * s))


def _random_machine(s, seed=0):
    """Random real orthogonal links (as every CLI program has), complex register start."""
    rng = np.random.default_rng(seed)
    links, _ = np.linalg.qr(rng.standard_normal((s - 1, 2, 2)))
    r1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi0 = qc.gamma_state(qc.ChainSpec(s), 3)
    return qc.MachineState.from_product(qc.PrimitiveProgram(links), r1 / np.linalg.norm(r1), psi0)


@pytest.mark.parametrize("s", [24, 129, 769, 2049])
def test_machine_trajectory_bitwise_equals_unchunked_formula(s):
    """Chunked trajectory against the whole-grid formula it replaced, bit for bit.

    The grid's last chunk holds one sample: numpy sums one column pairwise,
    so only a row-sequential reduction keeps the bits of the whole-grid sum.
    Two cases keep only the value, not the last bit: a grid of one sample
    (pairwise there, row by row now), and links with complex entries, where
    numpy's complex multiply may round the explicit 2x2 dressing otherwise
    than einsum does.
    """
    machine = _random_machine(s)
    times = 0.37 * np.arange(_chunk_width(s) + 1)
    traj = machine_trajectory(machine, times)

    e, V = chain.eigenbasis(machine.spec)
    coeff = V.T @ machine.comoving_components()
    phases = np.exp(-1j * np.outer(e, times))
    phi = np.tensordot(V, phases[:, :, None] * coeff[:, None, :], axes=(1, 0))
    chi = np.einsum("xij,xtj->xti", machine.program.cumulative, phi)
    cross = np.sum(chi[:, :, 0].conj() * chi[:, :, 1], axis=0)
    s3 = np.sum(np.abs(chi[:, :, 0]) ** 2 - np.abs(chi[:, :, 1]) ** 2, axis=0)
    assert np.array_equal(traj.s1, 2.0 * cross.real)
    assert np.array_equal(traj.s2, 2.0 * cross.imag)
    assert np.array_equal(traj.s3, s3)


@pytest.mark.parametrize("d", [1, 2])
def test_evolve_modes_bitwise_equals_real_basis_formula(d):
    """The cached complex V, used untransposed, gives the bits of V.T and the real V."""
    rng = np.random.default_rng(d)
    for s in (17, 513):
        spec = qc.ChainSpec(s)
        amps = rng.standard_normal((s, d)) + 1j * rng.standard_normal((s, d))
        times = np.array([0.0, 0.7, 13.0, 250.5])
        e, V = chain.eigenbasis(spec)
        for grid in (times, *([t] for t in times)):  # one time per call, as in propagate
            phases = np.exp(-1j * np.outer(e, grid))
            expected = np.tensordot(V, phases[:, :, None] * (V.T @ amps)[:, None, :], axes=(1, 0))
            assert np.array_equal(chain._evolve_modes(spec, amps, grid), expected)


def test_trajectory_budget_refuses_long_grid(monkeypatch):
    # chunks bound the spinors, not the O(T) results: 4e7 times are refused up front
    _, _, program, r1, psi0 = toy_setup(mu=4, s=17)
    machine = qc.MachineState.from_product(program, r1, psi0)
    monkeypatch.setattr(register, "_evolve_modes", None)  # nothing is evolved
    with pytest.raises(qc.ResourceLimitError):
        machine_trajectory(machine, np.broadcast_to(0.0, (40_000_000,)))


def test_cached_arrays_read_only():
    spec = qc.ChainSpec(9)
    cached = [*chain.eigenbasis(spec), chain._complex_modes(spec), multi._occupation_array(9, 3)]
    assert np.array_equal(chain._complex_modes(spec), chain.eigenbasis(spec)[1])
    for arr in cached:
        with pytest.raises(ValueError):
            arr[0] = 0


def test_local_extrema_helpers():
    y = np.array([0.0, 1.0, 0.5, 2.0, 1.5, 1.5])
    assert list(qc.local_maxima(y)) == [1, 3]
    assert list(qc.local_minima(y)) == [2]
