import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import qwclock as qc
from qwclock import chain, speed
from qwclock.quadrature import composite_gauss_legendre

MEAN_LOCALIZED = 8.0 / (3.0 * np.pi)


def quad_moments(law):
    p, w = composite_gauss_legendre(0.0, np.pi / 2)
    g = law.integrand_p(p)
    return float(w @ (np.sin(p) * g)), float(w @ (np.sin(p) ** 2 * g))


def test_localized_moments():
    law = qc.law_localized()
    assert law.mean == MEAN_LOCALIZED
    assert law.second_moment == 0.75
    assert abs(law.variance - 0.029493805210042412) < 1e-15
    mean_q, second_q = quad_moments(law)
    assert abs(mean_q - MEAN_LOCALIZED) < 1e-12
    assert abs(second_q - 0.75) < 1e-12


def test_localized_normalization_and_cdf():
    law = qc.law_localized()
    assert abs(law.normalization() - 1.0) < 1e-10
    assert law.cdf(0.0) == 0.0
    assert law.cdf(1.0) == 1.0
    assert law.cdf(2.0) == 1.0
    v = np.linspace(0.0, 1.0, 101)
    assert (np.diff(law.cdf(v)) >= -1e-14).all()


def test_density_zero_outside_support():
    law = qc.law_localized()
    assert law.density(-0.5) == 0.0
    assert law.density(0.0) == 0.0
    assert law.density(1.0) == 0.0
    assert law.density(1.7) == 0.0


def test_shifted_x0_one_equals_localized():
    shifted = qc.law_shifted(1)
    localized = qc.law_localized()
    v = np.linspace(0.01, 0.99, 57)
    assert np.abs(shifted.density(v) - localized.density(v)).max() < 1e-12
    assert abs(shifted.mean - localized.mean) < 1e-15
    assert np.abs(shifted.cdf(v) - localized.cdf(v)).max() < 1e-12


def test_shifted_mean_values():
    assert abs(qc.law_shifted(2).mean - 8.0 / (4.0 * np.pi - np.pi / 4.0)) < 1e-15
    assert abs(qc.law_shifted(2).mean - 0.6790610905254202) < 1e-14


@pytest.mark.parametrize("x0", [1, 2, 7, 25])
def test_shifted_quadrature_matches_closed_moments(x0):
    law = qc.law_shifted(x0)
    mean_q, second_q = quad_moments(law)
    assert abs(mean_q - law.mean) < 1e-8
    assert abs(second_q - law.second_moment) < 1e-8


def test_shifted_slowdown_ratio():
    ratio = qc.law_shifted(50).mean / qc.law_localized().mean
    assert abs(ratio / 0.75 - 1.0) < 1e-3


def test_shifted_cdf_density_consistency():
    # numerical derivative of the shifted CDF against the general-law density
    spec = qc.ChainSpec(8)
    x0 = 3
    shifted = qc.law_shifted(x0)
    general = qc.law_general(qc.basis_state(spec, x0))
    h = 1e-5
    for v in np.linspace(0.1, 0.9, 17):
        deriv = (shifted.cdf(v + h) - shifted.cdf(v - h)) / (2.0 * h)
        assert abs(deriv - general.density(v)) < 1e-6


def test_shifted_validation():
    with pytest.raises(ValueError):
        qc.law_shifted(0)
    with pytest.raises(ValueError):
        qc.law_shifted(-3)


@settings(max_examples=15, deadline=None)
@given(x0=st.integers(min_value=1, max_value=40))
def test_shifted_normalization_property(x0):
    assert abs(qc.law_shifted(x0).normalization() - 1.0) < 1e-8


def test_general_delta_reduces_to_localized():
    spec = qc.ChainSpec(10)
    law = qc.law_general(qc.basis_state(spec, 1))
    localized = qc.law_localized()
    v = np.linspace(0.01, 0.99, 45)
    assert np.abs(law.density(v) - localized.density(v)).max() < 1e-12
    assert abs(law.mean - localized.mean) < 1e-12
    assert abs(law.second_moment - 0.75) < 1e-12


def test_general_rejects_unnormalized():
    from types import SimpleNamespace

    spec = qc.ChainSpec(6)
    bad = SimpleNamespace(spec=spec, amplitudes=np.full(6, 0.5 + 0.0j))
    with pytest.raises(ValueError):
        qc.law_general(bad)


def test_general_gamma_normalization():
    spec = qc.ChainSpec(9)
    law = qc.law_general(qc.gamma_state(spec, 5))
    assert abs(law.normalization() - 1.0) < 1e-8


def test_momentum_profile_parseval():
    """Parseval: the integral of |Psi(p)|^2 over (0, pi) is 1 for a unit state (16
    panels of 32 Gauss-Legendre nodes)."""
    spec = qc.ChainSpec(12)
    p, w = composite_gauss_legendre(0.0, np.pi, 16, 32)
    for psi in (
        qc.basis_state(spec, 1),
        qc.launchpad_state(spec, 9, 3),
        qc.gamma_state(spec, 5),
    ):
        assert abs(w @ np.abs(qc.momentum_amplitude(psi, p)) ** 2 - 1.0) < 1e-8


def test_pad_ck_matches_general_law():
    spec = qc.ChainSpec(12)
    v = np.linspace(0.005, 0.995, 100)
    for k in range(1, 10):
        closed = qc.law_pad_ck(9, k)
        general = qc.law_general(qc.launchpad_state(spec, 9, k))
        assert np.abs(closed.density(v) - general.density(v)).max() < 1e-10


def test_pad_ck_means_ordered():
    means = [qc.law_pad_ck(9, k).mean for k in range(1, 6)]
    assert (np.diff(means) > 0.0).all()


@pytest.mark.parametrize("k", range(1, 10))
def test_pad_ck_normalization(k):
    assert abs(qc.law_pad_ck(9, k).normalization() - 1.0) < 1e-8


def test_pad_ck_reduces_to_pad_cn():
    ck = qc.law_pad_ck(9, 5)
    cn = qc.law_pad_cn(5)
    v = np.linspace(0.001, 0.999, 400)
    assert np.abs(ck.density(v) - cn.density(v)).max() < 1e-9
    assert abs(ck.mean - cn.mean) < 1e-10
    assert abs(ck.second_moment - cn.second_moment) < 1e-10


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 7, 8, 9])
def test_pad_ck_removable_singularity(k):
    # the closed form is 0/0 at v = sin(k pi/(eps+1)); the evaluation must
    # stay continuous there.  For k > 5 the point sits at arcsin v =
    # pi - k pi/(eps+1), past the fold of v = sin p.
    law = qc.law_pad_ck(9, k)
    v_star = np.sin(k * np.pi / 10.0)
    at = law.density(v_star)
    near = law.density(np.array([v_star - 1e-7, v_star + 1e-7]))
    assert np.isfinite(at)
    assert np.abs(near - at).max() < 1e-4 * max(1.0, abs(at))


def test_pad_ck_validation():
    with pytest.raises(ValueError):
        qc.law_pad_ck(9, 0)
    with pytest.raises(ValueError):
        qc.law_pad_ck(9, 10)


def test_pad_cn_moments():
    law = qc.law_pad_cn(5)
    assert abs(law.normalization() - 1.0) < 1e-10
    assert law.second_moment == 1.0 - 1.0 / 20.0
    assert abs(law.mean - 0.9682476228907633) < 1e-14
    assert abs(law.mean - (1.0 - 1.0 / (10.0 * np.pi))) < 1e-4
    mean_q, second_q = quad_moments(law)
    assert abs(mean_q - law.mean) < 1e-8
    assert abs(second_q - 0.95) < 1e-10


def test_pad_cn_n1_reduces_to_localized():
    law = qc.law_pad_cn(1)
    localized = qc.law_localized()
    v = np.linspace(0.01, 0.99, 45)
    assert np.abs(law.density(v) - localized.density(v)).max() < 1e-12
    assert abs(law.mean - localized.mean) < 1e-14


def test_pad_cn_validation():
    with pytest.raises(ValueError):
        qc.law_pad_cn(0)


def test_pad_cn_exact_mean_budgeted_before_its_terms(monkeypatch):
    """The exact mean holds 32 B per term at its peak: law_pad_cn(10^12) (about
    29 TiB) is refused before any array exists, and from 10^5 to 10^6 terms the
    traced peak grows no faster than the checked estimate, nor less than half as fast."""
    with pytest.raises(qc.ResourceLimitError, match="n=1000000000000"):
        qc.law_pad_cn(10**12)
    estimates, peaks = [], []
    check_memory = speed._check_memory

    def recording_check(nbytes, what):
        estimates.append(nbytes)
        check_memory(nbytes, what)

    monkeypatch.setattr(speed, "_check_memory", recording_check)
    for n in (10**5, 10**6):
        tracemalloc.start()
        try:
            qc.pad_cn_mean_exact(n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert estimates == [32 * 10**5, 32 * 10**6]
    traced, estimated = peaks[1] - peaks[0], estimates[1] - estimates[0]
    assert traced <= estimated < 2 * traced


def test_uncertainty_product():
    # var(Q_n) = (n^2 - 1)/3 against the large-n speed variance
    for n in (5, 8, 12):
        product = (n**2 - 1) / 3.0 * qc.pad_cn_variance_large_n(n)
        target = n * (4.0 - np.pi) / (12.0 * np.pi)
        assert abs(product / target - 1.0) < 0.05


def test_empirical_speed_mean_s129():
    spec = qc.ChainSpec(129)
    emp = qc.empirical_speed(spec, qc.basis_state(spec, 1), 60.0)
    assert abs(emp.mean / MEAN_LOCALIZED - 1.0) < 0.03


def test_empirical_variance_fit_flat_pad():
    # var(Q(t)) ~ const + t^2 (4 - pi)/(4 pi n) for the c_n start
    spec = qc.ChainSpec(50)
    psi0 = qc.launchpad_state(spec, 9, 5)
    ts = np.arange(9.0, 41.0 + 1e-9, 0.5)
    var = [qc.position_statistics(qc.propagate(psi0, t)).variance for t in ts]
    design = np.vstack([np.ones_like(ts), ts**2]).T
    coef = np.linalg.lstsq(design, np.array(var), rcond=None)[0][1]
    assert abs(coef / qc.pad_cn_variance_large_n(5) - 1.0) < 0.10


def test_empirical_speed_requires_positive_time():
    spec = qc.ChainSpec(6)
    with pytest.raises(ValueError):
        qc.empirical_speed(spec, qc.basis_state(spec, 1), 0.0)


def test_empirical_speed_degenerate_small_time():
    spec = qc.ChainSpec(6)
    psi0 = qc.launchpad_state(spec, 3, 2)
    emp = qc.empirical_speed(spec, psi0, 1e-9)
    assert np.abs(emp.masses - psi0.probabilities()).max() < 1e-12
    assert np.abs(emp.speeds - np.arange(1, 7) / 1e-9).max() < 1e-3


@pytest.mark.parametrize(
    "law",
    [
        qc.law_localized(),
        qc.law_shifted(3),
        qc.law_pad_cn(5),
        qc.law_pad_ck(9, 3),
        qc.law_general(qc.gamma_state(qc.ChainSpec(64, 1.0), 5)),
    ],
    ids=lambda law: law.family,
)
def test_law_characteristic_matches_adaptive_quadrature(law):
    # independent route: scipy's adaptive quadrature of the v-space density
    for T in (0.5, -0.5, 7.0, -7.0, 40.0, -40.0, 300.0, -300.0):
        parts = [
            quad(lambda p: law.density(np.sin(p)) * np.cos(p) * trig(T * np.sin(p)),
                 0.0, np.pi / 2, limit=500)[0]
            for trig in (np.cos, np.sin)
        ]
        assert abs(law.characteristic(T) - complex(*parts)) < 1e-10, T


def test_convergence_in_law():
    # The empirical CDF of Q/t approaches the localized law; the sup distance
    # is dominated by the ballistic-edge atoms and decays slowly (~t^(-1/3)).
    # At s=200, t=80 it is 0.115 (frozen), well above the 0.05 the module
    # invariant hoped for; the distance decreasing along doubled (s, t) is
    # the substantive convergence statement.
    law_cdf = qc.law_localized().cdf
    distances = []
    for s, t in ((200, 80.0), (400, 160.0), (800, 320.0)):
        spec = qc.ChainSpec(s)
        emp = qc.empirical_speed(spec, qc.basis_state(spec, 1), t)
        distances.append(emp.kolmogorov_distance(law_cdf))
    assert abs(distances[0] - 0.1148) < 5e-3
    assert distances[0] > distances[1] > distances[2]
    assert distances[2] < 0.07


def test_law_general_refuses_nan_amplitudes():
    """A nan norm fails the normalization check (set past the state's own check)."""
    psi = qc.basis_state(qc.ChainSpec(5), 1)
    object.__setattr__(psi, "amplitudes", np.full(5, np.nan + 0j))
    with pytest.raises(ValueError, match=r"initial state norm\^2 = nan"):
        qc.law_general(psi)


def test_law_general_estimate_bounds_its_traced_slope(monkeypatch):
    """On one thread, from 1,999 to 3,999 sites, the checked estimate grows at
    least as fast as the peak tracemalloc sees over the law, its density and its
    CDF, and less than twice as fast; each further thread adds one thread's part.
    (On two threads the traced peak depends on how the threads overlap.)"""
    estimates, peaks = [], []
    check_memory = speed._check_memory

    def recording_check(nbytes, what):
        estimates.append(nbytes)
        check_memory(nbytes, what)

    monkeypatch.setattr(speed, "_check_memory", recording_check)
    monkeypatch.setattr(chain, "_cpus", lambda: 1)
    v = np.arange(1, 9) / 9.0
    for n in (1000, 2000):
        psi0 = qc.gamma_state(qc.ChainSpec(2 * n - 1), n)
        tracemalloc.start()
        try:
            law = qc.law_general(psi0)
            law.density(v)
            law.cdf(v)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    traced, estimated = peaks[1] - peaks[0], estimates[1] - estimates[0]
    assert traced <= estimated < 2 * traced
    for cpus in (2, 3):
        monkeypatch.setattr(chain, "_cpus", lambda: cpus)
        speed._check_law_memory(3999, "law")
    thread = estimates[2] - estimates[1]
    assert thread == estimates[3] - estimates[2] and estimates[1] - thread == 16 * 3999


def test_law_general_refuses_before_its_first_integrand_call(monkeypatch):
    """A state on 399,999 sites (about 4.9 GB of quadrature temporaries per
    thread) is refused before any momentum amplitude is computed."""

    def must_not_run(*args):
        raise AssertionError("computed an integrand past the budget")

    psi0 = qc.gamma_state(qc.ChainSpec(399_999), 5)
    monkeypatch.setattr(speed, "momentum_amplitude", must_not_run)
    with pytest.raises(qc.ResourceLimitError, match="399999 sites"):
        qc.law_general(psi0)
