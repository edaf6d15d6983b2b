import sys
import threading
import tracemalloc

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


def _real_modes(s):
    """The real sine basis by the formula eigenbasis once cached beside its complex cast."""
    k = np.arange(1, s + 1)
    return np.sqrt(2.0 / (s + 1)) * np.sin(np.pi * np.outer(k, k) / (s + 1))


def test_complex_modes_bitwise_equal_the_real_formula_cast():
    """The one cached basis has, at every size below the FFT path, the bits of
    the real formula cast to complex."""
    build = chain._complex_modes.__wrapped__  # uncached: 638 bases, each built once
    for s in range(2, chain._FFT_SITES):
        Vc = build(qc.ChainSpec(s))
        bits = Vc.view(np.int64)  # real and imaginary parts interleaved
        assert np.array_equal(bits[:, 0::2], _real_modes(s).view(np.int64)), s
        assert not bits[:, 1::2].any(), s  # +0.0, as the cast wrote


def test_eigenbasis_is_a_view_of_the_one_cached_basis():
    """eigenbasis keeps no cache and allocates no real V: its V is the read-only
    real part of _complex_modes' array, with the formula's bits."""
    spec = qc.ChainSpec(300)
    assert not hasattr(chain.eigenbasis, "cache_info")
    Vc, energies = chain._complex_modes(spec), chain._energies(spec)
    tracemalloc.start()
    try:
        e, V = qc.eigenbasis(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 300  # no s x s array; a real V would take 720,000 B
    assert V.base is Vc and not V.flags.writeable
    assert np.array_equal(V, _real_modes(300)) and e is energies


@pytest.mark.parametrize("s", [*range(2, 80), 129, 257, 513])
def test_propagator_bitwise_equals_the_real_basis_formula(s):
    """propagator multiplies with the cached complex basis, and keeps the bits of
    (V * phases) @ V.T with the real V."""
    spec = qc.ChainSpec(s, 1.3)
    V = _real_modes(s)
    for t in (0.0, 0.45, 2.7, 31.0, 1e4):
        expected = (V * np.exp(-1j * chain._energies(spec) * t)) @ V.T
        assert qc.propagator(spec, t).tobytes() == expected.tobytes(), t


@pytest.mark.parametrize("s", [*range(8, 70), 100, 129, 257])
def test_propagator_columns_bitwise_equal_the_propagators_columns(s):
    """The columns at a multiple of 4 sites, one s x a product, have the bits of
    the whole s x s propagator's columns there: sites 5..8, 1..8, {3, 10, 11, 12}
    where they fit, and a random set of 4, 8 or 12 sites.  So do columns written
    into a sweep's buffers, reused from one time to the next."""
    spec, rng = qc.ChainSpec(s), np.random.default_rng(s)
    sets = [np.arange(4, 8), np.arange(8), np.array([2, 9, 10, 11])]
    sets = [sites for sites in sets if sites[-1] < s]
    sets.append(np.sort(rng.choice(s, size=4 * rng.integers(1, min(3, s // 4) + 1), replace=False)))
    for sites in sets:
        columns = chain._propagator_columns(spec, sites)
        out = np.empty(s, complex), np.empty((s, s), complex), np.empty((s, sites.size), complex)
        for t in (0.3, 7.1, 0.3):
            expected = qc.propagator(spec, t).take(sites, axis=1).tobytes()
            assert columns(t).tobytes() == expected, (t, sites)
            assert columns(t, out) is out[2] and out[2].tobytes() == expected, (t, sites)


def test_basis_estimate_pinned_and_bounds_its_traced_slope(monkeypatch):
    """The basis build is checked at 16 s^2 + 8 (16 + 1) s B (the complex V,
    the mode numbers and one block of 16 rows of sines) before any array
    exists.  At 300 and 600 sites its traced peak is within the arrays'
    headers and the block loop's objects (under 2 KiB) of that estimate, and
    from one to the other it grows no faster than the estimate, nor less than
    half as fast; the complex V alone stays."""
    checked = []
    check_memory = chain._check_memory

    def recording_check(nbytes, what):
        checked.append(nbytes)
        check_memory(nbytes, what)

    monkeypatch.setattr(chain, "_check_memory", recording_check)
    build = chain._complex_modes.__wrapped__
    peaks, held = [], []
    for s in (300, 600):
        tracemalloc.start()
        try:
            Vc = build(qc.ChainSpec(s))
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
        held.append(current - Vc.nbytes)
    assert checked == [16 * s * s + 136 * s for s in (300, 600)]
    assert all(peak <= nbytes + 2048 for peak, nbytes in zip(peaks, checked))
    traced, estimated = peaks[1] - peaks[0], checked[1] - checked[0]
    assert traced <= estimated < 2 * traced
    assert max(held) < 1024  # nothing of size s or s^2 stays beside the basis


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
        assert abs(psi.amplitudes[x - 1] - qc.amplitude_kernel(spec, 2.7, x)) < 1e-12


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


def test_each_calls_every_index_once_under_contention(monkeypatch):
    """More threads than CPUs and a short switch interval: no claim is lost or repeated."""
    monkeypatch.setattr(chain, "_cpus", lambda: 8)
    hits = np.zeros(3000, dtype=int)

    def hit(i):
        hits[i] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=chain._each, args=(hit, hits.size, chain._SPREAD_BYTES))
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
        chain._each(fail, 10, chain._SPREAD_BYTES)
    assert raised.is_set()


@pytest.mark.parametrize("fails", [False, True])
def test_each_leaves_no_helper_thread_alive(fails, monkeypatch):
    monkeypatch.setattr(chain, "_cpus", lambda: 4)
    threads, before = set(), threading.active_count()
    second = threading.Event()

    def work(i):
        threads.add(threading.current_thread())
        if len(threads) > 1:
            second.set()
        if i == 0:  # the first claimed call waits until a second thread has entered
            second.wait(timeout=10)
        if fails and i == 5:
            raise RuntimeError("index 5")

    if fails:
        with pytest.raises(RuntimeError):
            chain._each(work, 12, chain._SPREAD_BYTES)
    else:
        chain._each(work, 12, chain._SPREAD_BYTES)
    assert len(threads) > 1
    assert not any(t.is_alive() for t in threads - {threading.current_thread()})
    assert threading.active_count() == before


def test_each_keeps_the_callers_numpy_error_state(monkeypatch):
    monkeypatch.setattr(chain, "_cpus", lambda: 3)
    states = {}
    second = threading.Event()

    def record(i):
        states[threading.current_thread()] = np.geterr()
        if len(states) > 1:
            second.set()
        if i == 0:  # the first claimed call waits until a second thread has entered
            second.wait(timeout=10)

    with np.errstate(all="ignore"):
        chain._each(record, 9, chain._SPREAD_BYTES)
        expected = np.geterr()
    assert len(states) > 1
    assert all(state == expected for state in states.values())


def test_each_claims_increasing_indices_on_every_thread(monkeypatch):
    """From _SPREAD_BYTES a call, several threads run the calls, each thread's
    indices in increasing order, every index once."""
    monkeypatch.setattr(chain, "_cpus", lambda: 3)
    seen: dict[threading.Thread, list[int]] = {}
    second = threading.Event()

    def record(i):
        seen.setdefault(threading.current_thread(), []).append(i)
        if len(seen) > 1:
            second.set()
        if i == 0:  # the first claimed call waits until a second thread has entered
            second.wait(timeout=10)

    chain._each(record, 30, chain._SPREAD_BYTES)
    assert len(seen) > 1 and sorted(sum(seen.values(), [])) == list(range(30))
    assert all(claimed == sorted(claimed) for claimed in seen.values())


@pytest.mark.parametrize("fails", [False, True])
def test_each_runs_cheap_calls_in_order_on_the_calling_thread(fails, monkeypatch):
    """Below _SPREAD_BYTES a call, on any CPU count, the calling thread makes
    every call in index order under the caller's numpy error state, and
    starts no thread; the lowest failing index raises and nothing after it
    runs."""
    monkeypatch.setattr(chain, "_cpus", lambda: 8)
    calls, before = [], threading.active_count()

    def record(i):
        calls.append((i, threading.current_thread(), np.geterr()))
        assert threading.active_count() == before
        if fails and i in (4, 7):
            raise RuntimeError(f"index {i}")

    with np.errstate(all="ignore"):
        expected = np.geterr()
        if fails:
            with pytest.raises(RuntimeError, match="index 4"):
                chain._each(record, 12, chain._SPREAD_BYTES - 1)
        else:
            chain._each(record, 12, chain._SPREAD_BYTES - 1)
    assert [i for i, _, _ in calls] == list(range(5 if fails else 12))
    assert {thread for _, thread, _ in calls} == {threading.current_thread()}
    assert all(state == expected for _, _, state in calls)
    assert threading.active_count() == before


def test_workers_follow_the_declared_cost(monkeypatch):
    """One function decides the thread count from the declared cost alone:
    every CPU from _SPREAD_BYTES a call, one thread below it."""
    for cpus in (1, 2, 5):
        monkeypatch.setattr(chain, "_cpus", lambda: cpus)
        assert chain._workers(chain._SPREAD_BYTES - 1) == 1
        assert chain._workers(chain._SPREAD_BYTES) == cpus


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


def _one_gemv_per_sample(psi0, times):
    """The GEMM path written out, (T, s): per sample, one np.dot of the whole
    complex basis with the column exp(-1j * (t e)) * coeff."""
    Vc, e = chain._complex_modes(psi0.spec), chain._energies(psi0.spec)
    columns = (np.exp(-1j * (t * e))[:, None] * psi0._coefficients for t in times)
    return np.array([np.dot(Vc, column)[:, 0] for column in columns])


@pytest.mark.parametrize(
    "s,rows", [(61, 4), (65, 2), (97, 6), (130, 7), (33, None), (513, None), (639, None)]
)
def test_gemv_blocks_keep_the_one_gemv_bits(s, rows, monkeypatch):
    """The GEMM path's row blocks give propagate and position_moments the bits
    of one GEMV per sample.  Blocks of `rows` rows, or the constant's own (one
    block at 33 sites, 3 at 513, 5 at 639).  At 61, 65 and 97 sites the last
    block takes a one-row remainder; 6 and 7 rows are no multiple of 4."""
    if rows is not None:
        monkeypatch.setattr(chain, "_GEMV_BLOCK_BYTES", 16 * s * rows)
    monkeypatch.setattr(chain, "_cpus", lambda: 1)
    psi0 = qc.launchpad_state(qc.ChainSpec(s), 5, 3)
    times = 0.7 * np.arange(100)
    expected = _one_gemv_per_sample(psi0, times)
    for t, amps in zip(times, expected):
        assert np.array_equal(qc.propagate(psi0, t).amplitudes, amps), t
    stats = [chain._site_statistics(np.abs(amps) ** 2) for amps in expected]
    mean, variance = chain.position_moments(psi0, times)
    assert np.array_equal(mean, [st.mean for st in stats])
    assert np.array_equal(variance, [st.variance for st in stats])


def _sweep_estimate(s, T, cpus):
    """The position sweep's checked estimate, written out: the two moment
    columns and the norm^2 column (24 B per sample), the site weights x and
    x*x (16 B per site), each thread's 32 B per site of room for the window's
    Python objects and small buffers, and one window per thread that evolves
    one (no more threads than windows), as wide as the grid when the grid is
    narrower.  Below 640 sites the cached complex V (16 s^2) and windows of
    65536 B of phases, 56 B per site and sample with the window's columns,
    the phase arguments and the buffer of their broadcast outer product; a
    window there touches the basis and 128 KiB, so below 240 sites (under
    1 MiB) one thread runs the sweep on any CPU count.  From 640 sites on
    one-column windows of 384 KiB of 80 B per extended site and sample (the
    extension, numpy's copy of it with 8 B of ufunc buffer, and the phase
    arguments), each beside the 16 B per site of scaled coefficients its
    _evolve call makes."""
    if s < 640:
        width = 65536 // (16 * s)
        threads = cpus if 16 * s * s + 2 * 65536 >= 2**20 else 1
        held = 24 * T + 16 * s + 32 * s * threads + 16 * s * s
        return held + 56 * s * min(width, T) * min(threads, -(-T // width))
    width = 3 * 2**17 // (80 * (s + 1))
    held = 24 * T + 16 * s + 32 * s * cpus
    return held + (16 * s + 80 * (s + 1) * min(width, T)) * min(cpus, -(-T // width))


@pytest.mark.parametrize("s", [513, 769])
def test_position_sweep_estimate_counts_a_window_per_thread(s, monkeypatch):
    """The estimate is checked once, to the byte, before any window is evolved."""
    events = []
    check_memory, each = chain._check_memory, chain._each

    def recording_check(nbytes, what):
        events.append(nbytes)
        check_memory(nbytes, what)

    def recording_each(fn, count, cost):
        events.append("evolve")
        each(fn, count, cost)

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


@pytest.mark.parametrize("s", [200, 400])
def test_position_sweep_estimate_bounds_its_traced_peak(s, monkeypatch):
    """Below 640 sites, on one thread, the sweep's checked estimate (the cached
    complex V at 16 s^2 B among it) is at or above the peak tracemalloc sees
    over the sweep, the basis held."""
    checked = []
    check_memory = chain._check_memory

    def recording_check(nbytes, what):
        checked.append(nbytes)
        check_memory(nbytes, what)

    monkeypatch.setattr(chain, "_check_memory", recording_check)
    monkeypatch.setattr(chain, "_cpus", lambda: 1)
    chain._complex_modes.cache_clear()
    psi0 = qc.basis_state(qc.ChainSpec(s), 1)
    times = 0.5 * np.arange(100.0)
    tracemalloc.start()
    try:
        psi0._coefficients  # noqa: B018  (the basis, traced and held)
        tracemalloc.reset_peak()
        checked.clear()
        chain.position_moments(psi0, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checked == [_sweep_estimate(s, 100, 1)]
    assert peak <= checked[0] < 2 * peak


@pytest.mark.parametrize("s", [200, 400])
def test_propagate_estimate_bounds_its_traced_peak(s, monkeypatch):
    """propagate's one-sample window is checked at 16 s^2 + 88 s B: the cached
    complex V, the state's mode coefficients and the chain's energies (24 s,
    made by a state's first propagation and kept), and the sample's phases
    and column, the state's copy and its squares (64 s).  On a later call, with the basis
    traced and held, the traced peak is at or under that estimate and over
    half of it; the coefficients and energies, made before the trace, leave
    room for the call's Python objects (under 3 KiB), which no estimate
    counts and which a first call holds beside its estimate."""
    checked = []
    check_memory = chain._check_memory

    def recording_check(nbytes, what):
        checked.append(nbytes)
        check_memory(nbytes, what)

    monkeypatch.setattr(chain, "_check_memory", recording_check)
    psi0 = qc.basis_state(qc.ChainSpec(s), 1)
    qc.propagate(psi0, 0.5)  # the state's coefficients and the chain's energies
    chain._complex_modes.cache_clear()
    tracemalloc.start()
    try:
        chain._complex_modes(psi0.spec)  # the basis, traced and held
        tracemalloc.reset_peak()
        checked.clear()
        qc.propagate(psi0, 3.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checked == [16 * s * s + 88 * s]
    assert peak <= checked[0] < 2 * peak


@pytest.mark.parametrize("s", [769, 1025])
def test_position_sweep_fft_estimate_bounds_its_traced_peak(s, monkeypatch):
    """From 640 sites on, on one thread, the sweep's checked estimate is at or
    above the peak tracemalloc sees over 400 samples and within twice it: it
    counts the window's phases beside the extension, and the copy that
    _sine_transform's np.negative makes of its overlapping input."""
    checked = []
    check_memory = chain._check_memory

    def recording_check(nbytes, what):
        checked.append(nbytes)
        check_memory(nbytes, what)

    monkeypatch.setattr(chain, "_check_memory", recording_check)
    monkeypatch.setattr(chain, "_cpus", lambda: 1)
    psi0 = qc.basis_state(qc.ChainSpec(s), s // 2)
    times = 0.5 * np.arange(400.0)
    chain.position_moments(psi0, times[:2])  # the FFT plans and the state's coefficients, once
    checked.clear()
    tracemalloc.start()
    try:
        chain.position_moments(psi0, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checked == [_sweep_estimate(s, 400, 1)]
    assert peak <= checked[0] < 2 * peak


def test_site_statistics_clip_the_mean_to_the_sites():
    """The mean lies in [1, s] and nan stays nan; the variance keeps the
    unclipped mean's bits."""
    for p, mean in (([1.0 - 1e-15, 0.0, 0.0], 1.0), ([0.0, 0.0, 1.0 + 1e-15], 3.0)):
        stats = chain._site_statistics(np.array(p))
        raw = float(np.dot(np.arange(1, 4), p))
        assert stats.mean == mean != raw
        assert stats.variance == float(np.dot(np.arange(1, 4) ** 2, p) - raw**2)
    assert np.isnan(chain._site_statistics(np.array([np.nan, 0.0, 0.0])).mean)


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
    whole = _evolve_whole(spec, coeff, times)
    for j, t in enumerate(times):
        assert np.array_equal(whole[j], _evolve_whole(spec, coeff, [t])[0]), j


def _evolve_whole(spec, coeff, times, step=None):
    """The kernel's (T, d, s) evolution of a grid as one window."""
    return next(chain._evolve(spec, coeff, times, [slice(0, len(times))], step))[1]


def _evolve_in_windows(spec, coeff, times, width, step=None):
    """The kernel's (T, d, s) evolution of a grid in windows of `width` samples,
    each copied out before the next reuses the extension."""
    windows = [slice(i, min(i + width, len(times))) for i in range(0, len(times), width)]
    evolved = chain._evolve(spec, coeff, times, windows, step)
    return np.concatenate([psi.copy() for _, psi in evolved])


def _anchored_formula(spec, coeff, times, h):
    """The anchored FFT evolution written out, (T, d, s): sample j takes exact
    cos and sin at its anchor a = j - j % K, times c coeff, times
    exp(-i e (j - a) h), then one FFT of the odd extension."""
    s, K = spec.s, chain._PHASE_ANCHOR
    c = 0.5j * np.sqrt(2.0 / (s + 1))
    e = -spec.lam * np.cos(np.arange(1, s + 1) * np.pi / (s + 1))

    def phases(t):
        arg = np.multiply.outer(t, -e)
        out = np.empty(arg.shape, dtype=complex)
        out.real, out.imag = np.cos(arg), np.sin(arg)
        return out

    offsets = phases(h * np.arange(1, K))
    body = np.empty((len(times), coeff.shape[1], s), dtype=complex)
    for j in range(len(times)):
        a = j - j % K
        body[j] = phases(times[a : a + 1])[0] * (c * coeff.T)
        if j > a:
            body[j] = body[j] * offsets[j - a - 1]
    ext = np.zeros(body.shape[:-1] + (2 * (s + 1),), dtype=complex)
    ext[..., 1 : s + 1] = body
    ext[..., s + 2 :] = -body[..., ::-1]
    return np.fft.fft(ext, axis=-1)[..., 1 : s + 1]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("s,anchored", [(513, False), (769, False), (769, True)])
def test_evolve_sample_bits_do_not_depend_on_the_window(s, anchored, d):
    """One grid evolved in windows of 1, 2, 3, 5, 8 and 9 samples gives every
    sample the bits of width-1 windows: on the GEMM route, and on the FFT
    route with exact and with anchored phases, for one or two columns.  With
    an anchor every 8 samples, windows of 3, 5 and 9 start and end between
    anchors, and windows of 3 and 5 hold none (samples 9..11, 10..14).  The
    anchored route also has the bits of its formula written out."""
    rng = np.random.default_rng(s + d)
    spec = qc.ChainSpec(s)
    amps = rng.standard_normal((s, d)) + 1j * rng.standard_normal((s, d))
    coeff = chain._mode_coefficients(spec, amps / np.linalg.norm(amps, axis=0))
    times = 0.37 * np.arange(4 * chain._PHASE_ANCHOR + 3)
    step = chain._column_step(spec, times) if anchored else None
    assert anchored == (step is not None)
    one = _evolve_in_windows(spec, coeff, times, 1, step)
    assert one.shape == (times.size, d, s)
    for width in (2, 3, 5, 8, 9):
        assert np.array_equal(_evolve_in_windows(spec, coeff, times, width, step), one), width
    if anchored:
        assert np.array_equal(one, _anchored_formula(spec, coeff, times, step))
