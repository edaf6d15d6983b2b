"""Characteristic function of the localized speed law.

E[exp(i T V)] = (2/T) (J1(T) - T J2(T) + i (T H0(T) - H1(T))) (DLMF
10.9.1, 11.5), evaluated as the quadrature of the law's own p-space
integrand (`SpeedLaw.characteristic`).
"""

from __future__ import annotations

import numpy as np

from .speed import law_localized

__all__ = ["speed_characteristic_kernel"]


def speed_characteristic_kernel(T: float) -> complex:
    """E[exp(i T V)] for the localized start; 1 + i 8T/(3 pi) - 3T^2/8 near 0."""
    if abs(T) < 1e-8:
        return 1.0 + 1j * 8.0 * T / (3.0 * np.pi) - 3.0 * T**2 / 8.0
    return law_localized().characteristic(T)
