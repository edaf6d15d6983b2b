import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwclock as qc
from qwclock import chain
from qwclock.chain import NORM_DRIFT_TOL


def test_spec_validation():
    with pytest.raises(ValueError):
        qc.ChainSpec(1)
    with pytest.raises(ValueError):
        qc.ChainSpec(5, 0.0)
    with pytest.raises(ValueError):
        qc.ChainSpec(5, -1.0)


def test_eigenvalue_values():
    assert np.isclose(qc.eigenvalue(qc.ChainSpec(3), 1), -np.cos(np.pi / 4), atol=1e-15)
    assert abs(qc.eigenvalue(qc.ChainSpec(3), 2)) < 1e-15
    assert np.isclose(
        qc.eigenvalue(qc.ChainSpec(5, 2.0), 5), -2.0 * np.cos(5 * np.pi / 6), atol=1e-14
    )
    assert np.isclose(qc.eigenvalue(qc.ChainSpec(5, 2.0), 5), np.sqrt(3.0), atol=1e-14)


def test_eigenvalue_out_of_range():
    spec = qc.ChainSpec(4)
    with pytest.raises(ValueError):
        qc.eigenvalue(spec, 0)
    with pytest.raises(ValueError):
        qc.eigenvalue(spec, 5)


def test_eigenfunction_values():
    assert np.isclose(
        qc.eigenfunction(qc.ChainSpec(3), 1, 2), np.sqrt(0.5), atol=1e-15
    )
    assert abs(qc.eigenfunction(qc.ChainSpec(3), 2, 2)) < 1e-15


def test_eigenfunction_orthonormal_s7():
    spec = qc.ChainSpec(7)
    v = np.array(
        [[qc.eigenfunction(spec, k, x) for k in range(1, 8)] for x in range(1, 8)]
    )
    assert np.abs(v.T @ v - np.eye(7)).max() < 1e-13


@pytest.mark.parametrize("s", [2, 3, 8, 17, 33, 64])
def test_spectral_correctness(s):
    spec = qc.ChainSpec(s, 1.3)
    h = qc.chain_hamiltonian(spec)
    e, v = qc.eigenbasis(spec)
    assert np.abs(h @ v - v * e).max() < 1e-12


def test_kernel_initial_condition():
    spec = qc.ChainSpec(6)
    amps = [qc.amplitude_kernel(spec, 0.0, x) for x in range(1, 7)]
    assert np.isclose(amps[0], 1.0, atol=1e-13)
    assert np.abs(amps[1:]).max() < 1e-13


def test_kernel_two_site_closed_form():
    spec = qc.ChainSpec(2)
    for t in (0.3, 0.7, 3.1, 11.0):
        c = qc.amplitude_kernel(spec, t, 2)
        assert abs(c - 1j * np.sin(t / 2.0)) < 1e-13
        assert np.isclose(abs(c) ** 2, np.sin(t / 2.0) ** 2, atol=1e-13)


@pytest.mark.parametrize("t", [0.7, 3.1, 12.9])
def test_kernel_unitarity_s9(t):
    spec = qc.ChainSpec(9)
    total = sum(abs(qc.amplitude_kernel(spec, t, x)) ** 2 for x in range(1, 10))
    assert abs(total - 1.0) < 1e-10


def test_propagate_matches_kernel():
    spec = qc.ChainSpec(8)
    psi = qc.propagate(qc.basis_state(spec, 1), 2.7)
    for x in range(1, 9):
        assert abs(psi.amplitude(x) - qc.amplitude_kernel(spec, 2.7, x)) < 1e-12


def test_propagate_stationary_eigenstate():
    spec = qc.ChainSpec(9)
    for k in (1, 4, 9):
        mode = qc.launchpad_state(spec, 9, k)  # pad = whole chain
        out = qc.propagate(mode, 5.3)
        phase = np.exp(-1j * qc.eigenvalue(spec, k) * 5.3)
        assert np.abs(out.amplitudes - phase * mode.amplitudes).max() < 1e-12
        before = qc.position_statistics(mode)
        after = qc.position_statistics(out)
        assert np.abs(after.distribution - before.distribution).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=40.0))
def test_unitarity_and_time_reversal(t):
    spec = qc.ChainSpec(11)
    psi0 = qc.gamma_state(spec, 3)
    psi_t = qc.propagate(psi0, t)
    assert abs(np.sum(np.abs(psi_t.amplitudes) ** 2) - 1.0) < 1e-10
    back = qc.propagate(psi_t, -t)
    assert np.abs(back.amplitudes - psi0.amplitudes).max() < 1e-10


def test_propagate_against_dense_oracle():
    from qwclock import oracle

    for s in (4, 8, 10):
        spec = qc.ChainSpec(s)
        bare = np.ones((s - 1, 1, 1), dtype=complex)
        ham = oracle.build(spec, bare, sector=1)
        psi0 = qc.basis_state(spec, 1)
        for t in (0.9, 4.2, 13.7):
            analytic = qc.propagate(psi0, t).amplitudes
            dense = oracle.evolve(ham, psi0.amplitudes, t)
            assert np.abs(analytic - dense).max() < 1e-10


def test_position_statistics_delta():
    spec = qc.ChainSpec(7)
    stats = qc.position_statistics(qc.basis_state(spec, 1))
    assert stats.mean == 1.0
    assert abs(stats.variance) < 1e-14


def test_position_statistics_flat_pad():
    spec = qc.ChainSpec(20)
    stats = qc.position_statistics(qc.launchpad_state(spec, 9, 5))
    assert abs(stats.mean - 5.0) < 1e-12
    assert abs(stats.variance - 8.0) < 1e-11  # (n^2 - 1)/3 with n = 5


def test_mean_position_slope_s50():
    spec = qc.ChainSpec(50)
    psi0 = qc.basis_state(spec, 1)
    ts = np.arange(5.0, 20.0 + 1e-9, 0.5)
    means = [qc.position_statistics(qc.propagate(psi0, t)).mean for t in ts]
    slope = np.polyfit(ts, means, 1)[0]
    assert abs(slope / (8.0 / (3.0 * np.pi)) - 1.0) < 0.03


def test_launchpad_flat_alternating():
    spec = qc.ChainSpec(12)
    state = qc.launchpad_state(spec, 9, 5)
    expected = np.zeros(12)
    expected[0::2][:5] = np.array([1, -1, 1, -1, 1]) / np.sqrt(5.0)
    assert np.abs(state.amplitudes - expected).max() < 1e-12


def test_launchpad_single_site_pad():
    spec = qc.ChainSpec(5)
    state = qc.launchpad_state(spec, 1, 1)
    assert np.abs(state.amplitudes - qc.basis_state(spec, 1).amplitudes).max() < 1e-14


@pytest.mark.parametrize("epsilon", [1, 2, 5, 9])
def test_launchpad_norms(epsilon):
    spec = qc.ChainSpec(12)
    for k in range(1, epsilon + 1):
        amps = qc.launchpad_state(spec, epsilon, k).amplitudes
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-12


def test_launchpad_invalid():
    spec = qc.ChainSpec(6)
    with pytest.raises(ValueError):
        qc.launchpad_state(spec, 7, 1)
    with pytest.raises(ValueError):
        qc.launchpad_state(spec, 4, 5)
    with pytest.raises(ValueError):
        qc.launchpad_state(spec, 4, 0)


def test_gamma_state_support_and_signs():
    spec = qc.ChainSpec(12)
    state = qc.gamma_state(spec, 5)
    amps = state.amplitudes.real
    assert np.abs(state.amplitudes.imag).max() == 0.0
    assert np.abs(amps[1::2]).max() < 1e-14  # even sites empty
    odd = amps[0:9:2]
    assert (np.sign(odd) == [1, -1, 1, -1, 1]).all()
    assert np.abs(amps[9:]).max() == 0.0
    assert abs(np.sum(amps**2) - 1.0) < 1e-12


def test_gamma_overlap_with_flat_pad():
    # gamma_n = (c_n + c_{n+1}/2 + c_{n-1}/2)/sqrt(3/2), so the overlap
    # with c_n is exactly 2/3 after squaring
    spec = qc.ChainSpec(12)
    g = qc.gamma_state(spec, 5)
    c5 = qc.launchpad_state(spec, 9, 5)
    overlap2 = abs(np.vdot(c5.amplitudes, g.amplitudes)) ** 2
    assert abs(overlap2 - 2.0 / 3.0) < 1e-12
    for k in (4, 6):
        ck = qc.launchpad_state(spec, 9, k)
        assert abs(abs(np.vdot(ck.amplitudes, g.amplitudes)) ** 2 - 1.0 / 6.0) < 1e-12


def test_gamma_invalid():
    with pytest.raises(ValueError):
        qc.gamma_state(qc.ChainSpec(5), 4)
    with pytest.raises(ValueError):
        qc.gamma_state(qc.ChainSpec(5), 0)


def test_reflection_recurrence():
    spec = qc.ChainSpec(30)
    psi0 = qc.basis_state(spec, 1)
    ts = np.arange(1.0, 45.0 + 1e-9, 1.0)
    means = np.array(
        [qc.position_statistics(qc.propagate(psi0, t)).mean for t in ts]
    )
    assert means[-1] < means.max() - 1.0


def test_constructor_rejects_unnormalized():
    spec = qc.ChainSpec(4)
    with pytest.raises(qc.NormalizationError):
        qc.CursorWavefunction(spec, np.array([1.0, 1.0, 0.0, 0.0]))
    # just inside the diagnostic bound is accepted
    amps = np.zeros(4, dtype=complex)
    amps[0] = np.sqrt(1.0 + 0.5 * NORM_DRIFT_TOL)
    qc.CursorWavefunction(spec, amps)


def test_amplitude_accessor_bounds():
    spec = qc.ChainSpec(4)
    psi = qc.basis_state(spec, 2)
    assert psi.amplitude(2) == 1.0 + 0.0j
    with pytest.raises(ValueError):
        psi.amplitude(0)
    with pytest.raises(ValueError):
        psi.amplitude(5)


def test_each_calls_every_index_once_under_contention(monkeypatch):
    """More threads than CPUs and a short switch interval: no claim is lost or repeated."""
    monkeypatch.setattr(chain, "_cpus", lambda: 8)
    hits = np.zeros(3000, dtype=int)

    def hit(i):
        hits[i] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=chain._each, args=(hit, hits.size))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert (hits == 1).all()


def test_each_raises_the_lowest_index_exception(monkeypatch):
    """Index 2 raises first in time; index 1, which a serial loop meets first, wins."""
    monkeypatch.setattr(chain, "_cpus", lambda: 3)
    raised = threading.Event()

    def fail(i):
        if i == 1:
            raised.wait(timeout=10)
            raise ValueError("index 1")
        if i == 2:
            raised.set()
            raise ValueError("index 2")

    with pytest.raises(ValueError, match="index 1"):
        chain._each(fail, 10)
    assert raised.is_set()


@pytest.mark.parametrize("fails", [False, True])
def test_each_leaves_no_helper_thread_alive(fails, monkeypatch):
    monkeypatch.setattr(chain, "_cpus", lambda: 4)
    threads, before = set(), threading.active_count()

    def work(i):
        threads.add(threading.current_thread())
        time.sleep(0.002)
        if fails and i == 5:
            raise RuntimeError("index 5")

    if fails:
        with pytest.raises(RuntimeError):
            chain._each(work, 12)
    else:
        chain._each(work, 12)
    assert len(threads) > 1
    assert not any(t.is_alive() for t in threads - {threading.current_thread()})
    assert threading.active_count() == before


def test_each_keeps_the_callers_numpy_error_state(monkeypatch):
    monkeypatch.setattr(chain, "_cpus", lambda: 3)
    states = {}

    def record(i):
        time.sleep(0.002)
        states[threading.current_thread()] = np.geterr()

    with np.errstate(all="ignore"):
        chain._each(record, 9)
        expected = np.geterr()
    assert len(states) > 1
    assert all(state == expected for state in states.values())


@pytest.mark.parametrize("s", [33, 513, 639, 640, 769])
@pytest.mark.parametrize("cpus", [1, 3])
def test_position_moments_bitwise_equal_propagate(s, cpus, monkeypatch):
    """Every sample has the bits of position_statistics(propagate(psi0, t)),
    the per-sample loop the CLI ran, over several windows and threads."""
    monkeypatch.setattr(chain, "_cpus", lambda: cpus)
    psi0 = qc.launchpad_state(qc.ChainSpec(s), 5, 3)
    times = 0.7 * np.arange(40)
    mean, variance = chain.position_moments(psi0, times)
    stats = [qc.position_statistics(qc.propagate(psi0, t)) for t in times]
    assert np.array_equal(mean, [st.mean for st in stats])
    assert np.array_equal(variance, [st.variance for st in stats])


def _sweep_estimate(s, T, cpus):
    """The position sweep's checked estimate, written out: the two moment
    columns (16 B per sample), each thread's one-sample temporaries (64 B per
    site), and one window per thread that evolves one (no more threads than
    windows), as wide as the grid when the grid is narrower.  Below 640 sites
    V and its complex copy (24 s^2) and windows of 65536 B of phases, 40 B per
    site and sample with their arguments; from 640 sites on one-column
    windows of 384 KiB of 40 B per extended site and sample (extension and
    phase arguments)."""
    held = 16 * T + 64 * s * cpus
    if s < 640:
        width = 65536 // (16 * s)
        return held + 24 * s * s + 40 * s * min(width, T) * min(cpus, -(-T // width))
    width = 3 * 2**17 // (40 * (s + 1))
    return held + 40 * (s + 1) * min(width, T) * min(cpus, -(-T // width))


@pytest.mark.parametrize("s", [513, 769])
def test_position_sweep_estimate_counts_a_window_per_thread(s, monkeypatch):
    """The estimate is checked once, to the byte, before any window is evolved."""
    events = []
    check_memory, each = chain._check_memory, chain._each

    def recording_check(nbytes, what):
        if not what.startswith("evolving"):  # the kernel's own check, window by window
            events.append(nbytes)
        check_memory(nbytes, what)

    def recording_each(fn, count):
        events.append("evolve")
        each(fn, count)

    psi0 = qc.basis_state(qc.ChainSpec(s), 1)
    psi0._coefficients  # noqa: B018  (the cached eigenbasis is checked here, once)
    monkeypatch.setattr(chain, "_check_memory", recording_check)
    monkeypatch.setattr(chain, "_each", recording_each)
    for T in (1, 30):
        for cpus in (1, 2, 3):
            monkeypatch.setattr(chain, "_cpus", lambda: cpus)
            events.clear()
            chain.position_moments(psi0, np.arange(float(T)))
            assert events == [_sweep_estimate(s, T, cpus), "evolve"]


# lam * t overflows to inf at t = 2, so the phases, and every evolved amplitude, are nan
_NAN_CHECKS = {
    "CursorWavefunction": lambda: qc.CursorWavefunction(qc.ChainSpec(3), [np.nan, 0.0, 0.0]),
    "propagate": lambda: qc.propagate(qc.basis_state(qc.ChainSpec(33, 1e308), 1), 2.0),
    "position_moments GEMM": lambda: qc.position_moments(
        qc.basis_state(qc.ChainSpec(33, 1e308), 1), [0.0, 2.0]
    ),
    "position_moments FFT": lambda: qc.position_moments(
        qc.basis_state(qc.ChainSpec(769, 1e308), 1), [0.0, 2.0]
    ),
}


@pytest.mark.parametrize("entry", sorted(_NAN_CHECKS))
def test_nan_norm_fails_the_norm_check(entry):
    with np.errstate(all="ignore"), pytest.raises(qc.NormalizationError, match="nan"):
        _NAN_CHECKS[entry]()


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("s", [17, 513, 639, 640, 769])
def test_evolve_modes_sample_bits_depend_on_that_sample_alone(s, d):
    """A grid evolved whole gives each sample the bits it gets evolved alone,
    on both paths and for one or two columns."""
    rng = np.random.default_rng(s + d)
    spec = qc.ChainSpec(s)
    amps = rng.standard_normal((s, d)) + 1j * rng.standard_normal((s, d))
    coeff = chain._mode_coefficients(spec, amps / np.linalg.norm(amps, axis=0))
    times = 0.37 * np.arange(40)
    whole = chain._evolve_modes(spec, coeff, times)
    for j, t in enumerate(times):
        assert np.array_equal(whole[:, j], chain._evolve_modes(spec, coeff, [t])[:, 0]), j
