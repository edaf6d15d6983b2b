import math
import tracemalloc

import numpy as np
import pytest

import qwclock as qc
from qwclock import oracle


def test_two_site_single_excitation_block():
    spec = qc.ChainSpec(2, 1.0)
    bare = np.ones((1, 1, 1), dtype=complex)
    ham = oracle.build(spec, bare, sector=1)
    expected = np.array([[0.0, -0.5], [-0.5, 0.0]])
    assert np.abs(ham.matrix - expected).max() < 1e-15


def test_toy_spectrum_has_register_multiplicity():
    params = qc.grover_params(4)
    spec = qc.ChainSpec(4)
    ham = oracle.build(spec, qc.toy_program(4, params.alpha), sector=1)
    values = np.linalg.eigvalsh(ham.matrix)
    expected = np.sort(np.repeat([-np.cos(k * np.pi / 5.0) for k in range(1, 5)], 2))
    assert np.abs(values - expected).max() < 1e-12


def test_full_space_commutes_with_number_operator():
    params = qc.grover_params(4)
    spec = qc.ChainSpec(6)
    ham = oracle.build(spec, qc.toy_program(6, params.alpha), sector=None)
    n3 = oracle.number_operator(6, 2)
    assert np.abs(ham.matrix @ n3 - n3 @ ham.matrix).max() == 0.0
    # the diagonal counts the excitations of each of the full space's labels
    sizes = np.repeat([len(label) for label in ham.cursor_labels], ham.d)
    assert np.array_equal(n3, np.diag(sizes.astype(float)))


def test_sector_blocks_are_disjoint():
    # matrix elements never connect different excitation numbers
    params = qc.grover_params(4)
    spec = qc.ChainSpec(5)
    ham = oracle.build(spec, qc.toy_program(5, params.alpha), sector=None)
    sizes = np.repeat([len(label) for label in ham.cursor_labels], ham.d)
    off = sizes[:, None] != sizes[None, :]
    assert np.abs(ham.matrix[off]).max() == 0.0


def test_hermiticity():
    params = qc.grover_params(3)
    spec = qc.ChainSpec(7)
    for sector in (1, 2, None):
        ham = oracle.build(spec, qc.toy_program(7, params.alpha), sector=sector)
        assert np.abs(ham.matrix - ham.matrix.conj().T).max() < 1e-13


def test_eigensystem_residual():
    params = qc.grover_params(4)
    spec = qc.ChainSpec(8)
    ham = oracle.build(spec, qc.toy_program(8, params.alpha), sector=1)
    values, vectors = ham.eigensystem()
    residual = np.abs(ham.matrix @ vectors - vectors * values).max()
    assert residual <= 1e-10 * np.abs(ham.matrix).max()


def test_evolve_identity_and_conservation():
    params = qc.grover_params(4)
    spec = qc.ChainSpec(6)
    ham = oracle.build(spec, qc.toy_program(6, params.alpha), sector=1)
    state = ham.basis_vector(np.array([0.6, 0.8]), (1,))
    assert np.abs(oracle.evolve(ham, state, 0.0) - state).max() < 1e-13
    e0 = np.vdot(state, ham.matrix @ state).real
    for t in (3.0, 17.0):
        out = oracle.evolve(ham, state, t)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-11
        assert abs(np.vdot(out, ham.matrix @ out).real - e0) < 1e-11


def test_evolve_matches_chain_kernel_with_register():
    params = qc.grover_params(4)
    spec = qc.ChainSpec(8)
    program = qc.toy_program(8, params.alpha)
    ham = oracle.build(spec, program, sector=1)
    r1 = qc.grover_initial_state(params)
    state = ham.basis_vector(r1, (1,))
    seq = qc.register_state_sequence(program, r1)
    for t in (2.0, 7.5):
        dense = oracle.evolve(ham, state, t).reshape(-1, 2)
        for x in range(1, 9):
            expected = qc.amplitude_kernel(spec, t, x) * seq[x - 1]
            assert np.abs(dense[x - 1] - expected).max() < 1e-10


def test_partial_trace_product_state():
    reg = np.array([0.6, 0.8j], dtype=complex)
    cursor = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2.0)
    state = np.kron(cursor, reg)
    rho_r = oracle.partial_trace(state, 2, "register")
    rho_c = oracle.partial_trace(state, 2, "cursor")
    assert abs(oracle.von_neumann_entropy(rho_r)) < 1e-12
    assert abs(oracle.von_neumann_entropy(rho_c)) < 1e-12
    assert np.abs(rho_r - np.outer(reg, reg.conj())).max() < 1e-14


def test_partial_trace_validation():
    with pytest.raises(ValueError):
        oracle.partial_trace(np.ones(5), 2, "register")
    with pytest.raises(ValueError):
        oracle.partial_trace(np.ones(6), 2, "both")


def test_entropy_symmetry_of_marginals():
    params = qc.grover_params(7)
    spec = qc.ChainSpec(9)
    program = qc.toy_program(9, params.alpha)
    ham = oracle.build(spec, program, sector=1)
    state = ham.basis_vector(qc.grover_initial_state(params), (1,))
    for t in (1.0, 4.0, 9.5):
        evolved = oracle.evolve(ham, state, t)
        s_register = oracle.von_neumann_entropy(
            oracle.partial_trace(evolved, 2, "register")
        )
        s_cursor = oracle.von_neumann_entropy(
            oracle.partial_trace(evolved, 2, "cursor")
        )
        assert abs(s_register - s_cursor) < 1e-10


def test_register_marginal_matches_analytic_path():
    params = qc.grover_params(7)
    spec = qc.ChainSpec(9)
    program = qc.toy_program(9, params.alpha)
    ham = oracle.build(spec, program, sector=1)
    r1 = qc.grover_initial_state(params)
    state = ham.basis_vector(r1, (1,))
    evolved = oracle.evolve(ham, state, 4.0)
    dense_rho = oracle.partial_trace(evolved, 2, "register")
    analytic_rho = qc.register_density(program, r1, qc.basis_state(spec, 1), 4.0)
    assert np.abs(dense_rho - analytic_rho).max() < 1e-10


def test_machine_matches_oracle_with_alternating_program():
    # non-commuting link operators: the comoving machine path stays exact
    params = qc.grover_params(4)
    spec = qc.ChainSpec(8)
    program = qc.alternating_program(8, params.theta)
    ham = oracle.build(spec, program, sector=1)
    machine = qc.MachineState.from_product(
        program, qc.grover_initial_state(params), qc.basis_state(spec, 1)
    )
    vec0 = machine.spinors.reshape(-1)
    for t in (1.5, 7.0, 16.0):
        analytic = machine.evolve(t).spinors.reshape(-1)
        dense = oracle.evolve(ham, vec0, t)
        assert np.abs(analytic - dense).max() < 1e-10


def test_two_active_links_dense_path():
    # two non-commuting primitives on separated links lose the dressed
    # determinant structure; the dense path is the only route and must
    # still produce a sound state
    params = qc.grover_params(4)
    s = 8
    ops = np.broadcast_to(np.eye(2, dtype=complex), (s - 1, 2, 2)).copy()
    ops[2] = qc.oracle_reflection()  # link 3
    ops[5] = qc.estimation_reflection(params.theta)  # link 6
    program = qc.PrimitiveProgram(ops)
    spec = qc.ChainSpec(s)
    ham = oracle.build(spec, program, sector=2)
    state = qc.SectorState.from_product(spec, (1, 2), qc.grover_initial_state(params))
    evolved = oracle.evolve(ham, state.to_vector(), 9.0)
    assert abs(np.linalg.norm(evolved) - 1.0) < 1e-11
    rho = oracle.partial_trace(evolved, 2, "register")
    assert abs(np.trace(rho).real - 1.0) < 1e-11
    assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_size_cap(monkeypatch):
    params = qc.grover_params(2)
    with pytest.raises(qc.ResourceLimitError):
        oracle.build(qc.ChainSpec(18), qc.toy_program(18, params.alpha), sector=None)
    # dimension 2 * 2**16 is under the old 2e5 dimension cap but needs 256 GiB;
    # the budget refuses it, and sector 3 at s=40, before any label is listed
    monkeypatch.setattr("qwclock.oracle._full_labels", _no_labels)
    monkeypatch.setattr("qwclock.oracle.sector_occupations", _no_labels)
    with pytest.raises(qc.ResourceLimitError):
        oracle.build(qc.ChainSpec(16), qc.toy_program(16, params.alpha), sector=None)
    with pytest.raises(qc.ResourceLimitError):
        oracle.build(qc.ChainSpec(40), qc.toy_program(40, params.alpha), sector=3)
    with pytest.raises(qc.ResourceLimitError):
        oracle.number_operator(30, 2)


def _no_labels(*args):
    raise AssertionError("labels listed past the memory budget")


def _traced_checks(monkeypatch, fn):
    """The estimates fn checks and the peak tracemalloc sees over it."""
    checked = []
    check_memory = oracle._check_memory

    def recording_check(nbytes, what):
        checked.append(nbytes)
        check_memory(nbytes, what)

    monkeypatch.setattr(oracle, "_check_memory", recording_check)
    oracle.sector_occupations.cache_clear()
    tracemalloc.start()
    try:
        fn()
        return checked, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("s,sector", [(100, 1), (200, 1), (16, 2), (24, 2)])
def test_build_estimate_bounds_its_traced_peak(s, sector, monkeypatch):
    """build checks 96 dim^2 B, to the byte, and that is at or above the peak
    tracemalloc sees over the build and its eigensystem, and within twice it:
    the matrix, its adjoint and their difference hold 48 dim^2 B.  eigh's copy,
    workspace and eigenvectors come after the build, and LAPACK's workspace is
    allocated where tracemalloc does not see it."""
    spec, program = qc.ChainSpec(s), qc.toy_program(s, 0.3)
    dim = 2 * math.comb(s, sector)
    checked, peak = _traced_checks(
        monkeypatch, lambda: oracle.build(spec, program, sector=sector).eigensystem()
    )
    assert checked == [96 * dim * dim]
    assert peak <= checked[0] < 2 * peak


@pytest.mark.parametrize("s,d", [(9, 2), (11, 1)])
def test_number_operator_estimate_bounds_its_traced_peak(s, d, monkeypatch):
    """number_operator checks 8 dim (dim + 2) B, to the byte: the dim x dim
    matrix and its diagonal, with no label listed; that is at or above the
    peak tracemalloc sees and within twice it."""
    dim = d * 2**s
    monkeypatch.setattr("qwclock.oracle._full_labels", _no_labels)
    checked, peak = _traced_checks(monkeypatch, lambda: oracle.number_operator(s, d))
    assert checked == [8 * dim * (dim + 2)]
    assert peak <= checked[0] < 2 * peak


def test_basis_labeling_round_trip():
    spec = qc.ChainSpec(5)
    bare = np.ones((4, 1, 1), dtype=complex)
    ham = oracle.build(spec, bare, sector=2)
    labels = ham.cursor_labels
    assert labels == tuple(
        (a, b) for a in range(1, 6) for b in range(a + 1, 6)
    )
    for i, label in enumerate(labels):
        assert ham.cursor_index(label) == i
        assert ham.index(0, label) == i
    assert ham.eigensystem() is ham.eigensystem()  # decomposed once, then cached
    vec = ham.basis_vector(np.array([1.0]), (2, 4))
    assert vec[ham.index(0, (2, 4))] == 1.0
    assert np.abs(vec).sum() == 1.0


def test_sector_validation():
    spec = qc.ChainSpec(5)
    bare = np.ones((4, 1, 1), dtype=complex)
    with pytest.raises(ValueError):
        oracle.build(spec, bare, sector=6)
    with pytest.raises(ValueError):
        oracle.build(spec, np.ones((3, 1, 1), dtype=complex), sector=1)


def test_nan_links_fail_the_hermiticity_check():
    with pytest.raises(AssertionError, match="Hermitian"):
        oracle.build(qc.ChainSpec(3), np.full((2, 1, 1), np.nan), sector=1)
