import functools
import itertools
import math
import sys
import threading
import time
import tracemalloc
from itertools import combinations, permutations

import numpy as np
import pytest

import qwclock as qc
from qwclock import chain, cli, multi, oracle


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
    monkeypatch.setattr(chain, "_propagator_columns", None)
    for x0, g in ((2, np.eye(2)), (8, np.eye(2)), (4, 1.5 * np.eye(2)), (4, np.eye(3))):
        with pytest.raises(ValueError):
            qc.single_link_densities(state, x0, g, [0.0, 1.0, 2.0])


def _wrapped_columns(wrap):
    """chain._propagator_columns (as now set) whose columns(t, out) become
    wrap(columns, t, out)."""
    factory = chain._propagator_columns
    return lambda spec, sites: functools.partial(wrap, factory(spec, sites))


def test_single_link_densities_keep_no_sample_alive(monkeypatch):
    """Every sample a thread runs writes its propagator columns and amplitudes
    into the buffers that thread made on its first sample, so no previous sample
    is alive beside them (at n = 1, s = 3000 a kept s x s propagator alone added
    144 MB), and no thread writes into another's.  A whole start, and a start
    label by label; the cut lowered, so that these samples spread over 3
    threads."""
    monkeypatch.setattr(chain, "_SPREAD_BYTES", 0)
    seen = []  # (thread, what, address of the data written)
    free_sample = multi._free_sample

    def recording_columns(columns, t, out):
        u = columns(t, out)
        seen.append((threading.get_ident(), "columns", u.ctypes.data))
        return u

    def recording_sample(u, start, product, legs, labels):
        amps = free_sample(u, start, product, legs, labels)
        seen.append((threading.get_ident(), "amplitudes", amps.ctypes.data))
        return amps

    monkeypatch.setattr(chain, "_propagator_columns", _wrapped_columns(recording_columns))
    monkeypatch.setattr(multi, "_free_sample", recording_sample)
    state = qc.SectorState.from_product(qc.ChainSpec(9), (1, 2), np.array([0.6, 0.8]))
    for cpus in (1, 3):
        for whole in (True, False):
            monkeypatch.setattr(chain, "_cpus", lambda: cpus)
            monkeypatch.setattr(multi, "_WHOLE_START_BYTES", float("inf") if whole else 0)
            seen.clear()
            qc.single_link_densities(state, 4, qc.rotation_about_2(0.3), 0.5 * np.arange(1.0, 13.0))
            assert len(seen) == 12 * (2 if whole else 3)  # the columns and one or d gathers
            buffers = {(thread, what, address) for thread, what, address in seen}
            assert len({(what, address) for _, what, address in buffers}) == len(buffers)
            for thread in {thread for thread, _, _ in seen}:
                # one columns buffer, and the one or d rows of one amplitudes buffer
                assert sum(owner == thread for owner, _, _ in buffers) == (2 if whole else 3)


# (mu, g, s, x0, t_max) of multi_small.csv's argv and of the multi-sector
# benchmark workload's argv at seeds 1, 2 and 3 (its t_max is 4 s, step 1)
_MULTI_RUNS = [(4, 2, 10, 4, 10.0), (4, 4, 16, 13, 64.0), (2, 4, 16, 5, 64.0), (5, 4, 16, 13, 64.0)]


@pytest.mark.parametrize("mu,n,s,x0,t_max", _MULTI_RUNS)
def test_single_link_densities_bits_do_not_depend_on_the_thread_count(
    mu, n, s, x0, t_max, monkeypatch
):
    """Bitwise the same densities on 1, 2 and 3 threads (more threads than most
    hosts' CPUs, switching often, the cut lowered so that these samples spread):
    threads share only the read-only start and tables."""
    monkeypatch.setattr(chain, "_SPREAD_BYTES", 0)
    values = {"mu": mu, "g": n, "s": s, "x0": x0, "coupling": 1.0}
    state, x0, g = cli._multi_start(values)
    times = cli._time_grid(0.0, t_max, 1.0)
    rho, interval = [], sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(chain, "_cpus", lambda: cpus)
            rho.append(qc.single_link_densities(state, x0, g, times))
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(rho[0], rho[1]) and np.array_equal(rho[0], rho[2])


def _failing_at(fails, delays=None):
    """chain._propagator_columns, whose columns raise ValueError('sample <t>') at
    the times in fails, each after its delay in seconds."""

    def failing(columns, t, out):
        time.sleep((delays or {}).get(t, 0.0))
        if t in fails:
            raise ValueError(f"sample {t:g}")
        return columns(t, out)

    return _wrapped_columns(failing)


def test_single_link_densities_raise_the_lowest_failing_sample(monkeypatch):
    """Samples 2 and 5 fail, sample 5 first in time when threads run: the error
    of sample 2, which a serial loop meets first, is raised on any thread count
    (the cut lowered, so that these samples spread)."""
    monkeypatch.setattr(chain, "_SPREAD_BYTES", 0)
    state = qc.SectorState.from_product(qc.ChainSpec(9), (1, 2), np.array([0.6, 0.8]))
    monkeypatch.setattr(chain, "_propagator_columns", _failing_at({2.0, 5.0}, {2.0: 0.1}))
    for cpus in (1, 2, 3):
        monkeypatch.setattr(chain, "_cpus", lambda: cpus)
        with pytest.raises(ValueError, match="^sample 2$"):
            qc.single_link_densities(state, 4, qc.rotation_about_2(0.3), np.arange(8.0))


def test_single_link_densities_leave_no_thread_behind(monkeypatch):
    """Samples run on several threads (the cut lowered: these samples touch a few
    kB), and no helper thread outlives the call, whether it returns or raises."""
    monkeypatch.setattr(chain, "_SPREAD_BYTES", 0)
    state = qc.SectorState.from_product(qc.ChainSpec(9), (1, 2), np.array([0.6, 0.8]))
    ran_on = set()
    second = threading.Event()
    def recording_columns(columns, t, out):
        ran_on.add(threading.get_ident())
        if len(ran_on) > 1:
            second.set()
        if t == 0.0:  # the first claimed sample waits until a second thread has entered
            second.wait(timeout=10)
        return columns(t, out)

    monkeypatch.setattr(chain, "_propagator_columns", _failing_at({9.0}))
    monkeypatch.setattr(chain, "_propagator_columns", _wrapped_columns(recording_columns))
    monkeypatch.setattr(chain, "_cpus", lambda: 3)
    before = set(threading.enumerate())
    qc.single_link_densities(state, 4, qc.rotation_about_2(0.3), np.arange(9.0))
    assert len(ran_on) > 1 and set(threading.enumerate()) == before
    with pytest.raises(ValueError, match="sample 9"):
        qc.single_link_densities(state, 4, qc.rotation_about_2(0.3), np.arange(12.0))
    assert set(threading.enumerate()) == before


def _active_sites(s, n):
    """The sites a product start on sites 1..n is embedded over: n, padded to a
    multiple of 4 (BLAS's complex kernels take 4 columns at a time), or all s."""
    return min(s, -(-n // 4) * 4)


def _leg_columns(s, n, width, a):
    """The column counts of the legs' operands, written out: the start's width
    a^(n-1), then leg k's width x heads x a^(n-k), padded to a multiple of 4,
    with a head for each distinct (k-1)-prefix of the labels, counted from the
    label tuples; at n <= 2 leg 2 has all s heads, unpadded."""
    if n <= 2:
        return [width * a ** (n - 1)] + [width * s] * (n - 1)
    labels = list(combinations(range(s), n))
    heads = [len({label[: k - 1] for label in labels}) for k in range(2, n + 1)]
    return [width * a ** (n - 1)] + [
        -(-width * h * a ** (n - k) // 4) * 4 for k, h in zip(range(2, n + 1), heads)
    ]


def _sector_sweep_estimate(s, n, d, workers, width, a):
    """The sector sweep's estimate, written out: held once, the cached s x s basis
    Vc, the a x s copy Vc[sites] and -1j e (16 B per entry, shared by the
    threads) and the energies e (8 B per site), the C(s, n) labels at 8 (n + 3 + 2 width) B each (8 n for the
    array, 8 for the count past the link, 8 for the count-group order and 8 for
    its inverse, 8 width for the gather offsets in lex order and 8 width in
    count-group order), the legs' operand tables (8 B per offset, a per column
    of legs 2..n), the state's (d, C(s, n)) amplitudes and their undressed copy,
    the d a^n start embedded over its a (padded) active sites (16 B each), and
    32 KiB for the Python objects and small arrays; per worker the phases, Vc * phases and the s x a columns (16 B per entry) with
    numpy's buffer for the broadcast Vc * phases (16 B per entry, at most
    np.getbufsize() entries), a work pair of the widest leg's s x M product and
    its a x M operand, and two (d, C(s, n)) arrays: the labels' buffer and a
    spare, which holds the redressed labels in count-group order, then the
    density's conjugate."""
    c, legs = math.comb(s, n), _leg_columns(s, n, width, a)
    columns = 16 * (s * (s + a + 1) + min(s * s, np.getbufsize()))
    per_thread = columns + 16 * (s + a) * max(legs) + 32 * d * c
    held = 16 * s * (s + a + 1) + 8 * s + 8 * c * (n + 3 + 2 * width) + 8 * a * sum(legs[1:])
    return held + 32 * d * c + 16 * d * a**n + 2**15 + workers * per_thread


@pytest.mark.parametrize("s,n,width", [(9, 2, 2), (16, 4, 1)])
def test_sector_sweep_estimate_counts_a_work_pair_per_thread(s, n, width, monkeypatch):
    """The estimate is checked once, to the byte, before any sample is evolved:
    a whole start (9 sites, 2.6 kB of d s^n) and a start label by label (16
    sites, 2 MiB of d s^n), each a product start on sites 1..n.  Their samples
    touch less than _SPREAD_BYTES each, so one pair is counted at any CPU count;
    with the cut lowered, one per thread (no more threads than samples)."""
    events = []
    check_memory, each = multi._check_memory, multi._each

    def recording_check(nbytes, what):
        if what.startswith("sector"):
            events.append(nbytes)
        check_memory(nbytes, what)

    def recording_each(fn, count, cost):
        events.append("evolve")
        each(fn, count, cost)

    state = qc.SectorState.from_product(qc.ChainSpec(s), range(1, n + 1), [0.6, 0.8])
    monkeypatch.setattr(multi, "_check_memory", recording_check)
    monkeypatch.setattr(multi, "_each", recording_each)
    for cut in (chain._SPREAD_BYTES, 0):
        monkeypatch.setattr(chain, "_SPREAD_BYTES", cut)
        for T, cpus in itertools.product((1, 4), (1, 2, 3)):
            monkeypatch.setattr(chain, "_cpus", lambda: cpus)
            events.clear()
            qc.single_link_densities(state, n + 1, qc.rotation_about_2(0.3), np.arange(float(T)))
            workers = 1 if cut else min(cpus, T)
            expected = _sector_sweep_estimate(s, n, 2, workers, width, _active_sites(s, n))
            assert events == [expected, "evolve"]


def _traced_sweep(s, n, monkeypatch):
    """The last checked sector estimate and the peak tracemalloc sees, on one
    thread, over building a product start on sites 1..n and its densities at
    4 samples, labels and basis included."""
    checked = []
    check_memory = multi._check_memory

    def recording_check(nbytes, what):
        checked.append(nbytes)
        check_memory(nbytes, what)

    monkeypatch.setattr(multi, "_check_memory", recording_check)
    monkeypatch.setattr(chain, "_cpus", lambda: 1)
    multi._occupation_array.cache_clear()
    multi._gather.cache_clear()
    chain._complex_modes.cache_clear()
    chain._energies.cache_clear()
    tracemalloc.start()
    try:
        state = qc.SectorState.from_product(qc.ChainSpec(s), range(1, n + 1), [0.6, 0.8])
        qc.single_link_densities(state, n + 1, qc.rotation_about_2(0.3), np.arange(4.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    width = 2 if 32 * s**n <= multi._WHOLE_START_BYTES else 1
    assert checked[-1] == _sector_sweep_estimate(s, n, 2, 1, width, _active_sites(s, n))
    return checked[-1], peak


@pytest.mark.parametrize("s,n", [(16, 3), (16, 4), (20, 3), (256, 2), (256, 1), (512, 1), (13, 5)])
def test_sector_sweep_estimate_bounds_its_traced_peak(s, n, monkeypatch):
    """On one thread the sweep's checked estimate is at or above the traced
    peak and within twice it: a whole start (16 sites, n = 3, 131 kB of
    d s^n) and starts label by label (n = 4, 2 MiB of d s^n; 256 sites at
    n = 2, 2 MiB, where a sample once built the 1 MiB s x s propagator).  At
    n = 1 the s x s basis Vc and Vc * phases hold most of the peak.  At n = 5
    the embed runs 120 permutations, whose index tuples once stayed in
    Python's free lists (6 kB past the estimate)."""
    checked, peak = _traced_sweep(s, n, monkeypatch)
    assert peak <= checked < 2 * peak


def _traced(fn):
    """fn() and the peak tracemalloc sees over it."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("s,n,d", [(10, 3, 2), (16, 4, 2), (12, 4, 1), (40, 2, 3)])
def test_sector_state_estimate_bounds_its_traced_peak(s, n, d, monkeypatch):
    """from_product and the constructor are checked, to the byte, at what a state
    holds: the C(s, n) labels (8 n B each) with from_product's match of its sites
    against them (n + 1 B each), the (d, C(s, n)) amplitudes and the norm check's
    |amplitudes|^2 (32 d B each), and 4 KiB for its Python objects and array
    headers.  Each holds at most that: a product start, which makes all of it and
    holds more than half, and a dense start, whose amplitudes are the caller's.  That dense start's free sample checks
    its sweep at a = s, then its result's state."""
    checked = []
    check_memory = multi._check_memory

    def recording_check(nbytes, what):
        checked.append(nbytes)
        check_memory(nbytes, what)

    monkeypatch.setattr(multi, "_check_memory", recording_check)
    monkeypatch.setattr(chain, "_cpus", lambda: 1)
    rng, spec, m = np.random.default_rng(s + n + d), qc.ChainSpec(s), math.comb(s, n)
    expected = m * (9 * n + 1 + 32 * d) + 4096
    amps = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
    reg = np.eye(d)[0]
    amps /= np.linalg.norm(amps)
    for product, build in (
        (True, lambda: qc.SectorState.from_product(spec, range(1, n + 1), reg)),
        (False, lambda: qc.SectorState(spec, n, amps)),
    ):
        multi._occupation_array.cache_clear()
        checked.clear()
        state, peak = _traced(build)
        assert set(checked) == {expected} and peak <= expected
        assert not product or expected < 2 * peak
    chain._complex_modes.cache_clear()
    multi._gather.cache_clear()
    checked.clear()
    _, peak = _traced(lambda: qc.propagate_free_sector(state, 1.3))
    width = d if 16 * d * s**n <= multi._WHOLE_START_BYTES else 1
    assert checked == [_sector_sweep_estimate(s, n, d, 1, width, s), expected]
    assert peak <= max(checked)


@pytest.mark.parametrize("d", [2, 4])
def test_density_estimate_bounds_its_traced_slope(d, monkeypatch):
    """single_link_densities checks (16 d^2 + 32) B per time, to the byte: rho,
    its traces and the norm check's two real temporaries.  From 2,000 times to
    6,000 the traced peak grows no faster than that and more than half as fast."""
    checked = []
    check_memory = multi._check_memory

    def recording_check(nbytes, what):
        if what.startswith("register densities"):
            checked.append(nbytes)
        check_memory(nbytes, what)

    monkeypatch.setattr(multi, "_check_memory", recording_check)
    monkeypatch.setattr(chain, "_cpus", lambda: 1)
    state = qc.SectorState.from_product(qc.ChainSpec(6), (1,), np.eye(d)[0])
    grids = [np.linspace(0.0, 1.0, T) for T in (2000, 6000)]
    peaks = [_traced(lambda: qc.single_link_densities(state, 3, np.eye(d), t))[1] for t in grids]
    assert checked == [(16 * d * d + 32) * T for T in (2000, 6000)]
    traced, estimated = peaks[1] - peaks[0], checked[1] - checked[0]
    assert traced <= estimated < 2 * traced


def test_no_sample_builds_the_whole_propagator(monkeypatch):
    """Every sector path takes the propagator's columns at the active sites and
    never the s x s unitary: densities, a free sample and a single-link sample,
    of a product start and of a start over every site."""

    def must_not_run(*args, **kwargs):
        raise AssertionError("a sample built the s x s propagator")

    for module in (chain, multi, qc):
        monkeypatch.setattr(module, "propagator", must_not_run, raising=False)
    spec, g = qc.ChainSpec(9), qc.rotation_about_2(0.3)
    rng = np.random.default_rng(9)
    amps = rng.standard_normal((2, math.comb(9, 2))) + 1j
    for state in (
        qc.SectorState.from_product(spec, (1, 2), [0.6, 0.8]),
        qc.SectorState(spec, 2, amps / np.linalg.norm(amps)),
    ):
        assert qc.single_link_densities(state, 4, g, np.arange(4.0)).shape == (4, 2, 2)
        qc.propagate_free_sector(state, 1.5)
        qc.propagate_single_link(state, 4, g, 1.5)


@pytest.mark.parametrize("sizes", [(16, 24), (28, 33)], ids=["whole", "label by label"])
def test_sector_sweep_estimate_bounds_its_traced_slope(sizes, monkeypatch):
    """At n = 3, on one thread, from the smaller chain to the larger the checked
    estimate grows at least as fast as the traced peak and less than twice as
    fast: whole starts (131 and 442 kB of d s^n) and starts label by label
    (702 kB and 1.15 MB)."""
    (small, small_peak), (large, large_peak) = (_traced_sweep(s, 3, monkeypatch) for s in sizes)
    traced, estimated = large_peak - small_peak, large - small
    assert traced <= estimated < 2 * traced


@pytest.mark.parametrize("s,n", [(16, 3), (16, 4), (256, 1)])
def test_a_sample_allocates_only_numpys_broadcast_buffer(s, n, monkeypatch):
    """On one thread, a sweep's traced peak over 40 times exceeds that over 4 by
    at most rho's 16 d^2 + 32 B per further time, and from its third sample on,
    each sample allocates only numpy's buffer for the broadcast Vc * phases (16 B
    per entry, at most np.getbufsize() entries) and that ufunc's iterator (under
    2 KiB): the columns, legs, redress and density write into the thread's
    buffers, made on its first sample."""
    monkeypatch.setattr(chain, "_cpus", lambda: 1)
    marks = np.zeros((40, 2), dtype=np.int64)

    def marking_columns(columns, t, out):
        marks[int(t)] = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        return columns(t, out)

    state = qc.SectorState.from_product(qc.ChainSpec(s), range(1, n + 1), [0.6, 0.8])
    g = qc.rotation_about_2(0.3)
    run = [lambda T=T: qc.single_link_densities(state, n + 1, g, np.arange(T)) for T in (4.0, 40.0)]
    peaks = [_traced(densities)[1] for densities in run]
    assert peaks[1] - peaks[0] <= (16 * 2 * 2 + 32) * 36
    monkeypatch.setattr(chain, "_propagator_columns", _wrapped_columns(marking_columns))
    _traced(run[1])
    current, peak = marks[2:-1, 0], marks[3:, 1]  # a sample's start, the peak up to the next
    assert (peak - current <= 16 * min(s * s, np.getbufsize()) + 2048).all()


@pytest.mark.parametrize(
    "s,n,whole", [(9, 1, True), (13, 5, True), (13, 5, False), (16, 4, True), (16, 4, False)]
)
@pytest.mark.parametrize("spread", [False, True], ids=["serial", "spread"])
def test_reused_buffers_keep_the_per_sample_bits(s, n, whole, spread, monkeypatch):
    """Densities whose samples are written into each thread's reused buffers have
    the bits of the per-sample formula at every time: at n = 1, where leg 1 is
    the only leg, at n = 5 on 13 sites, and at multi-sector's 16 sites, n = 4;
    each start whole and label by label; with _SPREAD_BYTES as set (one thread
    here) and at 0 over 3 threads.  (At n = 1 label by label, past the CLI's
    budget, each label's leg 1 is a one-column product, which rounds otherwise.)"""
    if spread:
        monkeypatch.setattr(chain, "_SPREAD_BYTES", 0)
        monkeypatch.setattr(chain, "_cpus", lambda: 3)
    monkeypatch.setattr(multi, "_WHOLE_START_BYTES", float("inf") if whole else 0)
    rng = np.random.default_rng(100 * s + n)
    reg = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    state = qc.SectorState.from_product(qc.ChainSpec(s), range(1, n + 1), reg / np.linalg.norm(reg))
    g, x0, times = _random_unitary(rng, 2), (n + s - 1) // 2, 0.9 * np.arange(6.0)
    rho = qc.single_link_densities(state, x0, g, times)
    for i, t in enumerate(times):
        expected = _per_sample_single_link(state, x0, g, t)
        assert np.array_equal(rho[i], expected @ expected.conj().T), t


@pytest.mark.parametrize("s,n", [(5, 1), (6, 3), (9, 4), (7, 7)])
def test_occupation_array_lists_the_labels_once_zero_based(s, n):
    labels = multi._occupation_array(s, n)
    assert labels.shape == (math.comb(s, n), n) and labels.dtype == int
    assert np.array_equal(labels, np.array(oracle.sector_occupations(s, n)) - 1)
    # SectorState.occupations lists the oracle's tuples, built from this array
    state = qc.SectorState.from_product(qc.ChainSpec(s), tuple(range(1, n + 1)))
    assert state.occupations == oracle.sector_occupations(s, n)
    assert all(type(x) is int for label in state.occupations for x in label)


def test_multi_imports_nothing_from_the_oracle():
    """The analytic sector layer does not import the reference it is checked against."""
    import ast

    tree = ast.parse(open(multi.__file__).read())
    imported = [
        name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for name in (node.module, *(alias.name for alias in node.names))
    ]
    assert "chain" in imported  # the scan sees the package imports
    assert "oracle" not in imported


def test_no_sector_computation_lists_tuples_or_copies_the_labels(monkeypatch):
    """No multi computation lists label tuples (oracle.sector_occupations or
    SectorState.occupations), and the label table takes part in no
    arithmetic per sample: the ufuncs on it are the same for a sweep of one
    sample as for one of five.  The tables are built once for the two sweeps,
    single_link_densities' and propagate_free_sector's, which share (s, n,
    width, a), and cached: per leg table (legs 2 and 3 at n = 3) one
    comparison of neighbouring labels' sites and one offset product, and one
    product for the labels' gather."""
    calls = []

    class RecordingLabels(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            calls.append(ufunc.__name__)
            plain = [x.view(np.ndarray) if isinstance(x, RecordingLabels) else x for x in inputs]
            return getattr(ufunc, method)(*plain, **kwargs)

    def no_tuples(s, n):
        raise AssertionError(f"listed C({s}, {n}) label tuples")

    labels = multi._occupation_array
    monkeypatch.setattr(oracle, "sector_occupations", no_tuples)
    no_state_tuples = property(lambda state: no_tuples(state.spec.s, state.n))
    monkeypatch.setattr(multi.SectorState, "occupations", no_state_tuples)
    monkeypatch.setattr(multi, "_occupation_array", lambda s, n: labels(s, n).view(RecordingLabels))
    spec, g = qc.ChainSpec(9), qc.rotation_about_2(0.3)
    seen = []
    for T in (1, 5):
        calls.clear()
        multi._gather.cache_clear()
        state = qc.SectorState.from_product(spec, (2, 3, 5), [0.6, 0.8])
        qc.count_past_link_distribution(state, 4)
        qc.single_link_densities(state, 4, g, np.arange(float(T)))
        qc.propagate_free_sector(state, float(T))
        seen.append(list(calls))
    sweep = ["not_equal", "multiply", "not_equal", "multiply", "multiply"]
    assert seen[0] == ["equal", "greater_equal", "greater_equal", *sweep]
    # propagate_free_sector counts nothing, and each further sample adds nothing
    assert seen[1] == seen[0]


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


def _assert_per_sample_bits(state, g, tol=0.0):
    """The densities, single-link amplitudes and free amplitudes of state at four
    times equal the per-sample formula's: bitwise, or to tol."""
    s, n, d = state.spec.s, state.n, state.d
    same = np.array_equal if tol == 0 else (lambda a, b: np.abs(a - b).max() <= tol)
    x0 = (n + s - 1) // 2
    times = np.array([0.0, 0.9, 3.7, 2.5 * s])
    rho = qc.single_link_densities(state, x0, g, times)
    assert rho.shape == (times.size, d, d)
    for i, t in enumerate(times):
        expected = _per_sample_single_link(state, x0, g, t)
        assert same(rho[i], expected @ expected.conj().T), t
        assert same(qc.propagate_single_link(state, x0, g, t).amplitudes, expected), t
        free = _per_sample_free(state.spec, n, state.amplitudes, t)
        assert same(qc.propagate_free_sector(state, t).amplitudes, free), t


def _random_unitary(rng, d):
    g, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return g


@pytest.mark.parametrize(
    "s,n,x0", [(16, 4, 13), (20, 3, 10), (256, 2, 128), (13, 5, 9), (9, 3, 6), (10, 2, 8)]
)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_grouped_redress_bitwise_equals_the_scatter_per_count(s, n, x0, d):
    """The sweep redresses each count group as one block of contiguous columns
    and restores lex order with one take; a single-link sample has the bits of
    the free sample of the undressed start redressed with index arrays,
    free[:, idx] = powers[m] @ free[:, idx].  (9, 3, 6) and (10, 2, 8) have a
    group of one label, the one whose n sites are all past x0."""
    rng = np.random.default_rng(s + 10 * n + 100 * d)
    m = math.comb(s, n)
    amps = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
    state = qc.SectorState(qc.ChainSpec(s), n, amps / np.linalg.norm(amps))
    g = _random_unitary(rng, d)
    counts = np.sum(multi._occupation_array(s, n) >= x0, axis=1)
    powers = [np.linalg.matrix_power(g, k) for k in range(n + 1)]
    indices = [idx for k in range(n + 1) if (idx := np.flatnonzero(counts == k)).size]
    assert (min(idx.size for idx in indices) == 1) == ((s, x0) in {(9, 6), (10, 8)})
    undressed = np.empty_like(state.amplitudes)
    for idx in indices:
        undressed[:, idx] = powers[counts[idx[0]]].conj().T @ state.amplitudes[:, idx]
    free = qc.propagate_free_sector(qc.SectorState(state.spec, n, undressed), 1.7).amplitudes
    for idx in indices:
        free[:, idx] = powers[counts[idx[0]]] @ free[:, idx]
    assert np.array_equal(qc.propagate_single_link(state, x0, g, 1.7).amplitudes, free)


def test_gather_tables_are_built_once_for_a_sector(monkeypatch):
    """One-sample sweeps of one sector share the cached tables: a free sample, a
    single-link sample and densities at any x0 build them once, and the cache
    keeps the last (s, n, width, a) only."""
    state = qc.SectorState.from_product(qc.ChainSpec(10), (1, 2), [0.6, 0.8])
    g = qc.rotation_about_2(0.3)
    multi._gather.cache_clear()
    qc.propagate_free_sector(state, 1.0)
    qc.propagate_single_link(state, 4, g, 1.0)
    qc.single_link_densities(state, 7, g, np.arange(3.0))
    info = multi._gather.cache_info()
    assert (info.misses, info.hits, info.maxsize, info.currsize) == (1, 2, 1, 1)


@pytest.mark.parametrize(
    "s,n,d",
    [(10, 2, 2), (16, 4, 2), (7, 3, 2), (13, 4, 1), (9, 1, 2), (8, 2, 1)]
    + [(9, 4, 1), (11, 3, 2), (13, 3, 1)],
)
def test_single_link_densities_bitwise_equal_per_sample_formula(s, n, d):
    """The trajectory gives every sample the bits of the per-sample formula.

    At (8, 2, 1), oracle-check's free start, np.tensordot hands the second
    leg to BLAS as a transposed view, where the trajectory copies it first.
    The last three start over all sites at an s that is no multiple of 4, so
    leg 1's operand has a remainder column and the later legs' operands are
    trimmed to the labels' heads and padded to a multiple of 4.
    """
    rng = np.random.default_rng(10 * s + n)
    m = len(list(combinations(range(s), n)))
    amps = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
    state = qc.SectorState(qc.ChainSpec(s), n, amps / np.linalg.norm(amps))
    _assert_per_sample_bits(state, _random_unitary(rng, d))


# (s, n) of _MULTI_RUNS, oracle-check's free start, the label-side CLI start --g 3 --s 33
# and (13, 5), whose 8 active sites give every trimmed leg an 8-row operand
_PRODUCT_SHAPES = sorted(
    {(s, n) for _, n, s, _, _ in _MULTI_RUNS} | {(9, 1), (8, 2), (13, 4), (33, 3), (13, 5)}
)


@pytest.mark.parametrize("s,n", _PRODUCT_SHAPES)
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("whole", [None, True], ids=["as run", "whole"])
def test_product_starts_bitwise_equal_per_sample_formula(s, n, d, whole, monkeypatch):
    """A product start on sites 1..n, embedded over its padded active sites
    only, gets the bits of the per-sample formula, which multiplies all s
    columns of the propagator into the full tensor.  As run, (16, 4) and
    (33, 3) at d = 2 and (13, 5) go label by label (over 512 KiB of d s^n)
    and the rest whole; the second run takes each start whole."""
    if whole:
        monkeypatch.setattr(multi, "_WHOLE_START_BYTES", float("inf"))
    rng = np.random.default_rng(100 * s + 10 * n + d)
    reg = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    state = qc.SectorState.from_product(qc.ChainSpec(s), range(1, n + 1), reg / np.linalg.norm(reg))
    _assert_per_sample_bits(state, _random_unitary(rng, d))


@pytest.mark.parametrize("s,n,d", [(9, 2, 2), (10, 3, 1), (12, 2, 1), (13, 4, 2)])
def test_partially_supported_starts_match_per_sample_formula(s, n, d):
    """A general start whose labels cover only n + 2 of the s sites is embedded
    over those, padded to a multiple of 4; it agrees with the per-sample
    formula to 1e-14 (BLAS may round the narrower products otherwise)."""
    rng = np.random.default_rng(10 * s + n)
    labels = multi._occupation_array(s, n)
    over = np.isin(labels, rng.choice(s, size=n + 2, replace=False)).all(axis=1)
    keep = over & (rng.random(len(labels)) < 0.7)
    keep[np.flatnonzero(over)[0]] = True
    amps = np.where(keep, rng.standard_normal((d, len(labels))) + 1j, 0.0)
    state = qc.SectorState(qc.ChainSpec(s), n, amps / np.linalg.norm(amps))
    _assert_per_sample_bits(state, _random_unitary(rng, d), tol=1e-14)


@pytest.mark.parametrize("s,n,whole", [(9, 1, True), (10, 2, True), (33, 3, False), (16, 4, False)])
def test_product_start_legs_multiply_its_active_rows(s, n, whole, monkeypatch):
    """Every sample multiplies the propagator's columns at the start's sites 1..n,
    padded to 4, into operands of that many rows: the start, as leg 1's (a, M_1)
    operand, then one (a, M_k) operand per later leg, taken through its table.  Its work pair is the widest
    leg's s x M product and a x M operand: no leg of a product start returns to
    s rows (4 here, where a whole tensor has 9 to 33), and from n = 3 on the
    widest product holds fewer entries than the width s^n tensor."""
    columns, shapes = [], set()
    free_sample = multi._free_sample
    a, width = _active_sites(s, n), 2 if whole else 1

    def recording_sample(u, start, product, legs, labels):
        columns.append(u.copy())
        tables = tuple(table.shape for table, _, _ in legs[1])
        operands = {operand.base.size for _, operand, _ in legs[1]}
        shapes.add((u.shape, start.shape, product.size, frozenset(operands), tables))
        return free_sample(u, start, product, legs, labels)

    monkeypatch.setattr(multi, "_free_sample", recording_sample)
    monkeypatch.setattr(chain, "_cpus", lambda: 1)
    spec, times = qc.ChainSpec(s), np.arange(3.0)
    state = qc.SectorState.from_product(spec, range(1, n + 1), [0.6, 0.8])
    qc.single_link_densities(state, n, qc.rotation_about_2(0.3), times)
    assert a == 4 < s and len(columns) == times.size * 2 // width  # d / width labels per sample
    for k, u in enumerate(columns):
        assert np.array_equal(u, qc.propagator(spec, times[k * width // 2])[:, :a])
    legs = _leg_columns(s, n, width, a)
    tables = tuple((a, m) for m in legs[1:])
    operands = frozenset([a * max(legs)] if n > 1 else [])  # leg 1 multiplies the start
    assert shapes == {((s, a), (a, legs[0]), s * max(legs), operands, tables)}
    assert n < 3 or max(legs) < width * s ** (n - 1)  # trimmed from n = 3 on


def test_legs_multiply_only_the_columns_some_label_reads(monkeypatch):
    """At multi-sector's shape (16 sites, n = 4, one register label at a time,
    4 active sites) the legs' operands have 64, 208, 364 and 456 columns: the
    start's 4^3, then 13 heads x 4^2, 91 x 4 and 455 padded to 456.  That is
    s a (64 + 208 + 364 + 456) = 69,888 complex multiply-adds per label, where
    operands over all s sites of the earlier legs took 348,160."""
    widths = []
    free_sample = multi._free_sample

    def recording_sample(u, start, product, legs, labels):
        widths.append([start.shape[1]] + [table.shape[1] for table, _, _ in legs[1]])
        return free_sample(u, start, product, legs, labels)

    monkeypatch.setattr(multi, "_free_sample", recording_sample)
    state = qc.SectorState.from_product(qc.ChainSpec(16), range(1, 5), [0.6, 0.8])
    qc.single_link_densities(state, 13, qc.rotation_about_2(0.3), np.arange(2.0))
    assert widths == [[64, 208, 364, 456]] * 4  # two samples of two labels each
    assert multi._leg_columns(16, 4, 1, 4) == _leg_columns(16, 4, 1, 4) == [64, 208, 364, 456]
    assert 16 * 4 * sum(widths[0]) == 69_888


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
    fields = ["times", "s1", "s2", "s3", "r", "gamma", "gamma_defined", "entropy"]
    fields += ["p_success", "lam1", "lam2"]
    assert list(vars(sector)) == list(vars(machine)) == fields  # every field, none missed
    for field in fields:
        a, b = (np.asarray(getattr(traj, field), dtype=float) for traj in (sector, machine))
        assert np.abs(a - b).max() < 1e-12, field


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

    monkeypatch.setattr("qwclock.oracle.sector_occupations", no_labels)
    monkeypatch.setattr(multi, "_occupation_array", no_labels)
    with pytest.raises(qc.ResourceLimitError):
        qc.SectorState.from_product(qc.ChainSpec(400), (1, 2, 3, 4))
    with pytest.raises(qc.ResourceLimitError):
        qc.SectorState.from_product(qc.ChainSpec(100_000), (1, 2))
    with pytest.raises(qc.ResourceLimitError):
        qc.SectorState(qc.ChainSpec(400), 4, np.ones((2, 1)))
    # the register dimension d scales what a state holds: this s=60, n=3 sector
    # fits with a bare cursor, and at d=2**12 its amplitudes (2.2 GB, and as much
    # again for the norm check) are refused before the labels are listed
    with pytest.raises(qc.ResourceLimitError):
        qc.SectorState.from_product(qc.ChainSpec(60), (1, 2, 3), np.eye(1, 2**12)[0])
    monkeypatch.undo()
    assert qc.SectorState.from_product(qc.ChainSpec(60), (1, 2, 3)).d == 1
    # a state checks only what it holds, so one that fits is refused at its first
    # sweep, before the basis or the start is built: at s=20000, n=1 the state
    # holds 0.6 MB and the sweep's two s x s arrays need 12.8 GB
    state = qc.SectorState.from_product(qc.ChainSpec(20_000), (1,), [0.6, 0.8])
    monkeypatch.setattr(chain, "_complex_modes", no_labels)
    monkeypatch.setattr(multi, "_embed_antisymmetric", no_labels)
    with pytest.raises(qc.ResourceLimitError, match="sector s=20000, n=1, d=2"):
        qc.single_link_densities(state, 3, qc.rotation_about_2(0.3), [0.0, 1.0])


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
            r"sector norm\^2 = nan",
        ),
        "single_link_densities": (
            lambda: multi.single_link_densities(
                multi.SectorState.from_product(huge, (1, 2), [1.0, 0.0]), 3, g, [0.0, 2.0]
            ),
            r"sector norm\^2 = nan",
        ),
        "single_link_densities primitive": (
            lambda: multi.single_link_densities(
                multi.SectorState.from_product(spec, (1, 2), [1.0, 0.0]), 3,
                np.full((2, 2), np.nan), [0.0],
            ),
            "unitarity",
        ),
    }


@pytest.mark.parametrize("entry", sorted(_nan_sector_checks()))
def test_nan_fails_the_sector_checks(entry):
    call, message = _nan_sector_checks()[entry]
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=message):
        call()
