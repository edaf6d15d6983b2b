import numpy as np
import scipy.special as sp

from qwclock.special import speed_characteristic_kernel
from qwclock.quadrature import composite_gauss_legendre


def test_kernel_matches_scipy_closed_form():
    # (2/T) (J1 - T J2 + i (T H0 - H1)), DLMF 10.9.1 / 11.5, from scipy
    grid = np.linspace(0.01, 200.0, 4001)
    for T in np.concatenate([grid, -grid]):
        re = sp.jv(1, T) - T * sp.jv(2, T)
        im = T * sp.struve(0, T) - sp.struve(1, T)
        assert abs(speed_characteristic_kernel(T) - (2.0 / T) * (re + 1j * im)) < 1e-12, T


def test_kernel_at_zero():
    assert speed_characteristic_kernel(0.0) == 1.0 + 0.0j


def test_kernel_small_argument_series():
    T = 1e-3
    value = speed_characteristic_kernel(T)
    assert abs(value - (1.0 + 1j * 8.0 * T / (3.0 * np.pi))) < 1e-6


def test_kernel_conjugate_symmetry():
    for T in (0.7, 5.0, 22.0):
        assert abs(
            speed_characteristic_kernel(-T) - np.conj(speed_characteristic_kernel(T))
        ) < 1e-14


def test_kernel_equals_density_characteristic_function():
    # independent route: quadrature of exp(iTv) against the localized density
    p, w = composite_gauss_legendre(0.0, np.pi / 2)
    integrand = 4.0 * np.sin(p) ** 2 / np.pi
    for T, tol in ((0.5, 1e-12), (3.0, 1e-12), (12.0, 1e-10), (25.0, 1e-6), (38.0, 1e-8)):
        direct = complex(w @ (np.exp(1j * T * np.sin(p)) * integrand))
        assert abs(speed_characteristic_kernel(T) - direct) < tol


def test_kernel_modulus_bounded():
    for T in np.linspace(0.01, 40.0, 200):
        assert abs(speed_characteristic_kernel(T)) <= 1.0 + 1e-10
