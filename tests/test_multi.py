import dataclasses
import weakref
from itertools import combinations, permutations

import numpy as np
import pytest

import qwclock as qc
from qwclock import cli, multi, oracle


def test_occupation_set_validation():
    qc.OccupationSet((1, 3, 7))
    with pytest.raises(ValueError):
        qc.OccupationSet((3, 1))
    with pytest.raises(ValueError):
        qc.OccupationSet((2, 2, 5))  # repeated site: excluded
    with pytest.raises(ValueError):
        qc.OccupationSet((0, 1))
    with pytest.raises(ValueError):
        qc.OccupationSet(())


def test_slater_single_mode_reduces_to_eigenfunction():
    spec = qc.ChainSpec(7)
    for k in (1, 4, 7):
        for x in (2, 5):
            assert abs(
                qc.slater_amplitude(spec, (k,), (x,)) - qc.eigenfunction(spec, k, x)
            ) < 1e-14


def test_slater_row_swap_antisymmetry():
    spec = qc.ChainSpec(6)
    forward = qc.slater_amplitude(spec, (2, 5), (1, 4))
    swapped = qc.slater_amplitude(spec, (5, 2), (1, 4))
    assert abs(forward + swapped) < 1e-14


def test_slater_size_mismatch():
    spec = qc.ChainSpec(6)
    with pytest.raises(ValueError):
        qc.slater_amplitude(spec, (1, 2), (3,))


def test_slater_orthonormality_s6_n2():
    spec = qc.ChainSpec(6)
    subsets = list(combinations(range(1, 7), 2))
    v = np.array(
        [[qc.slater_amplitude(spec, K, M) for M in subsets] for K in subsets]
    )
    assert np.abs(v @ v.T - np.eye(len(subsets))).max() < 1e-12


@pytest.mark.parametrize("s,n", [(5, 2), (6, 3), (8, 3)])
def test_slater_isometry(s, n):
    spec = qc.ChainSpec(s)
    subsets = list(combinations(range(1, s + 1), n))
    v = np.array(
        [[qc.slater_amplitude(spec, K, M) for M in subsets] for K in subsets]
    )
    assert np.abs(v @ v.T - np.eye(len(subsets))).max() < 1e-10


def test_sector_energy_values():
    spec = qc.ChainSpec(5)
    assert abs(qc.sector_energy(spec, (1, 5))) < 1e-14  # symmetric pair cancels
    assert abs(qc.sector_energy(spec, (1, 2)) - (-1.3660254037844388)) < 1e-13
    assert abs(qc.sector_energy(spec, (1, 2, 3, 4, 5))) < 1e-14  # full band


def test_free_sector_identity_at_zero_time():
    spec = qc.ChainSpec(6)
    state = qc.SectorState.from_product(spec, (2, 4))
    out = qc.propagate_free_sector(state, 0.0)
    assert np.abs(out.amplitudes - state.amplitudes).max() < 1e-14


@pytest.mark.parametrize("t", [1.0, 10.0, 40.0])
def test_free_sector_norm_preserved(t):
    spec = qc.ChainSpec(7)
    state = qc.SectorState.from_product(spec, (1, 2, 3))
    out = qc.propagate_free_sector(state, t)
    assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-10


def test_free_sector_matches_dense_oracle():
    spec = qc.ChainSpec(6)
    state = qc.SectorState.from_product(spec, (1, 2))
    bare = np.ones((5, 1, 1), dtype=complex)
    ham = oracle.build(spec, bare, sector=2)
    for t in (1.0, 6.0, 40.0):
        analytic = qc.propagate_free_sector(state, t)
        dense = oracle.evolve(ham, state.to_vector(), t)
        assert np.abs(analytic.to_vector() - dense).max() < 1e-10


def test_free_sector_with_register_matches_dense_oracle():
    spec = qc.ChainSpec(6)
    r1 = np.array([0.6, 0.8j], dtype=complex)
    state = qc.SectorState.from_product(spec, (1, 3), r1)
    ham = oracle.build(spec, qc.identity_program(6), sector=2)
    for t in (2.0, 9.0):
        analytic = qc.propagate_free_sector(state, t)
        dense = oracle.evolve(ham, state.to_vector(), t)
        assert np.abs(analytic.to_vector() - dense).max() < 1e-10


def test_free_sector_matches_determinant_expansion():
    # independent route: expand over determinant eigenstates with phases
    spec = qc.ChainSpec(6)
    state = qc.SectorState.from_product(spec, (1, 2))
    t = 3.7
    subsets = state.occupations
    out = np.zeros(len(subsets), dtype=complex)
    for K in combinations(range(1, 7), 2):
        v = np.array([qc.slater_amplitude(spec, K, M) for M in subsets])
        out += np.exp(-1j * qc.sector_energy(spec, K) * t) * (v @ state.amplitudes[0]) * v
    analytic = qc.propagate_free_sector(state, t)
    assert np.abs(analytic.amplitudes[0] - out).max() < 1e-12


def test_two_particle_antisymmetrized_product_rule():
    spec = qc.ChainSpec(8)
    x1, x2 = 2, 5
    state = qc.SectorState.from_product(spec, (x1, x2))
    t = 4.1
    u = qc.propagator(spec, t)
    analytic = qc.propagate_free_sector(state, t)
    for i, (y1, y2) in enumerate(state.occupations):
        det = u[y1 - 1, x1 - 1] * u[y2 - 1, x2 - 1] - u[y1 - 1, x2 - 1] * u[y2 - 1, x1 - 1]
        assert abs(analytic.amplitudes[0, i] - det) < 1e-10


def test_single_link_identity_equals_free():
    spec = qc.ChainSpec(7)
    r1 = np.array([1.0, 0.0], dtype=complex)
    state = qc.SectorState.from_product(spec, (1, 2), r1)
    free = qc.propagate_free_sector(state, 5.0)
    linked = qc.propagate_single_link(state, 3, np.eye(2, dtype=complex), 5.0)
    assert np.abs(free.amplitudes - linked.amplitudes).max() < 1e-12


def test_single_link_matches_dense_oracle():
    params = qc.grover_params(4)
    g = qc.rotation_about_2(params.alpha)
    r1 = qc.grover_initial_state(params)
    # s=30 lies past the old fixed cap s <= 24
    for s, x0 in ((8, 4), (30, 5)):
        spec = qc.ChainSpec(s)
        state = qc.SectorState.from_product(spec, (1, 2), r1)
        ham = oracle.build(spec, qc.single_link_program(s, x0, g), sector=2)
        for t in (1.0, 6.0, 18.0):
            analytic = qc.propagate_single_link(state, x0, g, t)
            dense = oracle.evolve(ham, state.to_vector(), t)
            assert np.abs(analytic.to_vector() - dense).max() < 1e-10, (s, t)


def test_single_link_register_is_count_weighted_mixture():
    params = qc.grover_params(4)
    spec = qc.ChainSpec(10)
    g = qc.rotation_about_2(params.alpha)
    r1 = qc.grover_initial_state(params)
    state0 = qc.SectorState.from_product(spec, (1, 2), r1)
    state = qc.propagate_single_link(state0, 5, g, 7.0)
    probs = qc.count_past_link_distribution(state, 5)
    rho = np.zeros((2, 2), dtype=complex)
    rho0 = np.outer(r1, r1.conj())
    for m, p in enumerate(probs):
        gm = np.linalg.matrix_power(g, m)
        rho += p * gm @ rho0 @ gm.conj().T
    assert np.abs(state.register_density_matrix() - rho).max() < 1e-12


def test_single_link_register_state_properties():
    params = qc.grover_params(4)
    spec = qc.ChainSpec(9)
    g = qc.rotation_about_2(params.alpha)
    state = qc.SectorState.from_product(spec, (1, 2), qc.grover_initial_state(params))
    for t in (2.0, 11.0):
        rho = qc.propagate_single_link(state, 4, g, t).register_density_matrix()
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_single_link_validation(monkeypatch):
    spec = qc.ChainSpec(8)
    state = qc.SectorState.from_product(spec, (1, 2, 3), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        qc.propagate_single_link(state, 2, np.eye(2, dtype=complex), 1.0)  # x0 < n
    with pytest.raises(ValueError):
        qc.propagate_single_link(state, 8, np.eye(2, dtype=complex), 1.0)
    with pytest.raises(ValueError):
        qc.propagate_single_link(state, 4, 1.5 * np.eye(2, dtype=complex), 1.0)
    # a trajectory is refused before its first sample is evolved
    monkeypatch.setattr(multi, "propagator", None)
    for x0, g in ((2, np.eye(2)), (8, np.eye(2)), (4, 1.5 * np.eye(2)), (4, np.eye(3))):
        with pytest.raises(ValueError):
            qc.single_link_densities(state, x0, g, [0.0, 1.0, 2.0])


def test_single_link_densities_keep_no_sample_alive(monkeypatch):
    """When a sample starts, the previous propagator and amplitudes are freed
    (at n = 1, s = 3000 a kept propagator alone adds 144 MB)."""
    refs = []
    unitary, extract = multi.propagator, multi._extract_ordered

    def propagator(spec, t):
        assert all(ref() is None for ref in refs), "a previous sample is still referenced"
        u = unitary(spec, t)
        refs.append(weakref.ref(u))
        return u

    def extract_ordered(full, s, n):
        amps = extract(full, s, n)
        refs.append(weakref.ref(amps))
        return amps

    monkeypatch.setattr(multi, "propagator", propagator)
    monkeypatch.setattr(multi, "_extract_ordered", extract_ordered)
    state = qc.SectorState.from_product(qc.ChainSpec(9), (1, 2), np.array([0.6, 0.8]))
    qc.single_link_densities(state, 4, qc.rotation_about_2(0.3), [0.5, 1.0, 1.5])
    assert len(refs) == 6


def _per_sample_free(spec, n, amps, t):
    """One free sample as evolved before single_link_densities: embed the
    (d, l1, ..., ln) tensor, one tensordot per leg, extract."""
    subs = np.array(list(combinations(range(spec.s), n)))
    full = np.zeros((amps.shape[0],) + (spec.s,) * n, dtype=complex)
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        full[(slice(None),) + tuple(subs[:, j] for j in perm)] = sign * amps
    u = qc.propagator(spec, t)
    for axis in range(1, n + 1):
        full = np.moveaxis(np.tensordot(u, full, axes=(1, axis)), 0, axis)
    return full[(slice(None),) + tuple(subs[:, j] for j in range(n))]


def _per_sample_single_link(state, x0, g, t):
    """The free sample of the undressed start, re-dressed."""
    n = state.n
    subs = np.array(list(combinations(range(1, state.spec.s + 1), n)))
    counts = np.sum(subs > x0, axis=1)
    powers = [np.linalg.matrix_power(g, m) for m in range(n + 1)]
    masks = [counts == m for m in range(n + 1)]
    undressed = np.empty_like(state.amplitudes)
    for m, mask in enumerate(masks):
        if mask.any():
            undressed[:, mask] = powers[m].conj().T @ state.amplitudes[:, mask]
    free = _per_sample_free(state.spec, n, undressed, t)
    dressed = np.empty_like(free)
    for m, mask in enumerate(masks):
        if mask.any():
            dressed[:, mask] = powers[m] @ free[:, mask]
    return dressed


@pytest.mark.parametrize(
    "s,n,d", [(10, 2, 2), (16, 4, 2), (7, 3, 2), (13, 4, 1), (9, 1, 2), (8, 2, 1)]
)
def test_single_link_densities_bitwise_equal_per_sample_formula(s, n, d):
    """The trajectory gives every sample the bits of the per-sample formula.

    At (8, 2, 1), oracle-check's free start, np.tensordot hands the second
    leg to BLAS as a transposed view, where the trajectory copies it first.
    """
    rng = np.random.default_rng(10 * s + n)
    spec = qc.ChainSpec(s)
    m = len(list(combinations(range(s), n)))
    amps = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
    state = qc.SectorState(spec, n, amps / np.linalg.norm(amps))
    g, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    x0 = (n + s - 1) // 2
    times = np.array([0.0, 0.9, 3.7, 2.5 * s])
    rho = qc.single_link_densities(state, x0, g, times)
    assert rho.shape == (times.size, d, d)
    for i, t in enumerate(times):
        expected = _per_sample_single_link(state, x0, g, t)
        assert np.array_equal(rho[i], expected @ expected.conj().T), t
        assert np.array_equal(qc.propagate_single_link(state, x0, g, t).amplitudes, expected)
        free = _per_sample_free(spec, n, state.amplitudes, t)
        assert np.array_equal(qc.propagate_free_sector(state, t).amplitudes, free)


@pytest.mark.parametrize("s,x0,mu", [(9, 3, 4), (16, 8, 6), (24, 5, 9)])
def test_one_excitation_sector_matches_register_trajectory(s, x0, mu):
    """One excitation two ways: the sector's densities through
    RegisterTrajectory.from_coherence, as the multi CLI runs them, and the
    machine's trajectory."""
    params = qc.grover_params(mu)
    g, r1 = qc.rotation_about_2(params.alpha), qc.grover_initial_state(params)
    spec = qc.ChainSpec(s)
    times = 0.25 * np.arange(12 * s + 1)
    sector = cli._multi_trajectory(qc.SectorState.from_product(spec, (1,), r1), x0, g, times)
    machine = qc.register_trajectory(
        qc.single_link_program(s, x0, g), r1, qc.basis_state(spec, 1), times
    )
    for field in dataclasses.fields(qc.RegisterTrajectory):
        a, b = (np.asarray(getattr(traj, field.name), dtype=float) for traj in (sector, machine))
        assert np.abs(a - b).max() < 1e-12, field.name


def test_count_past_link_distribution():
    spec = qc.ChainSpec(8)
    state = qc.SectorState.from_product(spec, (1, 2, 3), np.array([1.0, 0.0]))
    probs = qc.count_past_link_distribution(state, 6)
    assert abs(probs[0] - 1.0) < 1e-14
    assert abs(probs.sum() - 1.0) < 1e-14


def test_count_past_link_matches_dense_oracle():
    params = qc.grover_params(4)
    spec = qc.ChainSpec(8)
    g = qc.rotation_about_2(params.alpha)
    r1 = qc.grover_initial_state(params)
    state0 = qc.SectorState.from_product(spec, (1, 2), r1)
    x0 = 4
    state = qc.propagate_single_link(state0, x0, g, 6.0)
    probs = qc.count_past_link_distribution(state, x0)

    ham = oracle.build(spec, qc.single_link_program(8, x0, g), sector=2)
    dense = oracle.evolve(ham, state0.to_vector(), 6.0).reshape(-1, 2)
    dense_probs = np.zeros(3)
    for i, label in enumerate(ham.cursor_labels):
        m = sum(1 for x in label if x > x0)
        dense_probs[m] += float(np.sum(np.abs(dense[i]) ** 2))
    assert np.abs(probs - dense_probs).max() < 1e-10


def test_single_link_grover_plateau():
    # three excitations crossing one rotation link drive the register toward
    # the three-step search state before reflections undo it
    params = qc.grover_params(4)
    spec = qc.ChainSpec(20)
    g = qc.rotation_about_2(params.alpha)
    r1 = qc.grover_initial_state(params)
    state0 = qc.SectorState.from_product(spec, (1, 2, 3), r1)
    target = np.cos((params.theta + 3 * params.alpha) / 2.0) ** 2
    best_p = 0.0
    best_count = 0.0
    for t in np.arange(10.0, 40.0, 2.0):
        state = qc.propagate_single_link(state0, 6, g, t)
        best_p = max(best_p, state.register_density_matrix()[0, 0].real)
        best_count = max(best_count, qc.count_past_link_distribution(state, 6)[3])
    assert abs(best_p - target) < 0.02
    assert best_count > 0.85


def test_sector_state_desk_cap(monkeypatch):
    # the memory budget fires before the C(s, n) occupation lists are enumerated
    def no_labels(s, n):
        raise AssertionError(f"listed C({s}, {n}) labels past the budget")

    monkeypatch.setattr("qwclock.multi.sector_occupations", no_labels)
    with pytest.raises(qc.ResourceLimitError):
        qc.SectorState.from_product(qc.ChainSpec(400), (1, 2, 3, 4))
    with pytest.raises(qc.ResourceLimitError):
        qc.SectorState.from_product(qc.ChainSpec(100_000), (1, 2))
    with pytest.raises(qc.ResourceLimitError):
        qc.SectorState(qc.ChainSpec(400), 4, np.ones((2, 1)))
    # the register dimension d scales the d*s^n tensors: this s=60, n=3
    # sector fits with a bare cursor and is refused with d=2**9
    monkeypatch.undo()
    assert qc.SectorState.from_product(qc.ChainSpec(60), (1, 2, 3)).d == 1
    with pytest.raises(qc.ResourceLimitError):
        qc.SectorState.from_product(qc.ChainSpec(60), (1, 2, 3), np.eye(512)[0])


def test_joint_law_normalization():
    law = qc.joint_speed_law()
    assert abs(law.normalization() - 1.0) < 1e-6


def test_joint_law_conditional_mean():
    law = qc.joint_speed_law()
    for v2 in (0.05, 0.1):
        assert abs(law.conditional_mean_leftmost(v2) / v2 - 0.75) < 1e-3
    with pytest.raises(ValueError):
        law.conditional_mean_leftmost(1.5)


def test_joint_law_density_values():
    law = qc.joint_speed_law()
    v1 = np.array([0.05, 0.2, 0.3, 0.6, 0.9])
    v2 = np.array([0.1, 0.7, 0.5, 0.95, 0.99])
    literal = (
        64.0 * v1**2 * v2**2 * (2.0 - v1**2 - v2**2)
        / (np.pi**2 * np.sqrt((1.0 - v1**2) * (1.0 - v2**2)))
    )
    assert np.abs(law.density(v1, v2) / literal - 1.0).max() < 1e-12
    for a, b, ref in zip(v1, v2, literal):
        assert abs(law.density(float(a), float(b)) / ref - 1.0) < 1e-12


def test_joint_law_support_and_symmetry():
    law = qc.joint_speed_law()
    assert law.density(0.5, 0.3) == 0.0  # outside the ordered support
    assert law.density(0.3, 0.5) > 0.0
    assert law.density(0.5, 1.2) == 0.0
    # the core formula is v1 <-> v2 symmetric, so the square integral is 2
    from qwclock.quadrature import composite_gauss_legendre

    p, w = composite_gauss_legendre(0.0, np.pi / 2)
    s2 = np.sin(p) ** 2
    inner = 64.0 * np.outer(s2, s2) * (2.0 - s2[:, None] - s2[None, :]) / np.pi**2
    square = float(w @ inner @ w)
    assert abs(square - 2.0) < 1e-10


def test_joint_law_marginal():
    law = qc.joint_speed_law()
    # marginal of the rightmost speed integrates to 1 over (0, 1)
    from qwclock.quadrature import composite_gauss_legendre

    p, w = composite_gauss_legendre(0.0, np.pi / 2, panels=16, order=32)
    total = sum(
        wi * law.marginal_rightmost(float(np.sin(pi))) * float(np.cos(pi))
        for pi, wi in zip(p, w)
    )
    assert abs(total - 1.0) < 1e-6


def _nan_sector_checks():
    spec, huge = qc.ChainSpec(6), qc.ChainSpec(6, 1e308)  # lam * t overflows at t = 2
    g = qc.rotation_about_2(0.3)
    return {
        "SectorState": (lambda: multi.SectorState(spec, 2, np.full((1, 15), np.nan)), "sector norm"),
        "propagate_free_sector": (
            lambda: multi.propagate_free_sector(multi.SectorState.from_product(huge, (1, 2)), 2.0),
            "drifted to nan",
        ),
        "single_link_densities": (
            lambda: multi.single_link_densities(
                multi.SectorState.from_product(huge, (1, 2), [1.0, 0.0]), 3, g, [0.0, 2.0]
            ),
            "drifted to nan",
        ),
        "single_link_densities primitive": (
            lambda: multi.single_link_densities(
                multi.SectorState.from_product(spec, (1, 2), [1.0, 0.0]), 3,
                np.full((2, 2), np.nan), [0.0],
            ),
            "unitary",
        ),
    }


@pytest.mark.parametrize("entry", sorted(_nan_sector_checks()))
def test_nan_fails_the_sector_checks(entry):
    call, message = _nan_sector_checks()[entry]
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=message):
        call()
