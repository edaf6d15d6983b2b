"""Asymptotic computation-speed laws and empirical speed extraction.

Each initial-state family of the cursor walk has a limiting distribution
for Q/t (sites advanced per unit time) supported on (0, 1).  The laws
here carry a density, a CDF and exact moments.  All integrals are done
under the substitution v = sin p, which removes the (1-v^2)^(-1/2) and
(1-v^2)^(-3/2) endpoint blowups analytically; quadrature is composite
Gauss-Legendre with 512 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .chain import NORM_DRIFT_TOL, ChainSpec, CursorWavefunction, propagate
from .quadrature import composite_gauss_legendre, integrate

__all__ = [
    "SpeedLaw",
    "MomentumProfile",
    "EmpiricalSpeed",
    "law_localized",
    "law_shifted",
    "law_general",
    "law_pad_ck",
    "law_pad_cn",
    "pad_cn_mean_exact",
    "pad_cn_variance_large_n",
    "momentum_amplitude",
    "momentum_profile",
    "empirical_speed",
]

# one-sided nudge applied at the removable 0/0 points of the pad-ck density
_SINGULAR_EPS = 1e-12
_SINGULAR_OFFSET = 1e-9


@dataclass(frozen=True, eq=False)
class SpeedLaw:
    """Limit law of the computation speed V for one initial-state family."""

    family: str
    density: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    mean: float
    second_moment: float
    variance: float
    # integrand in p-space: density(sin p) * cos p, bounded on (0, pi/2)
    integrand_p: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def normalization(self) -> float:
        """Integral of the density over (0, 1); 1 up to quadrature error."""
        return integrate(self.integrand_p, 0.0, np.pi / 2)


def _unit_interval_density(core: Callable[[np.ndarray], np.ndarray]):
    """Wrap a core formula with the (0, 1) indicator, scalar-safe."""

    def density(v):
        arr = np.atleast_1d(np.asarray(v, dtype=float))
        out = np.zeros_like(arr)
        inside = (arr > 0.0) & (arr < 1.0)
        if inside.any():
            out[inside] = core(arr[inside])
        return float(out[0]) if np.ndim(v) == 0 else out

    return density


def _clamped_cdf(core: Callable[[np.ndarray], np.ndarray]):
    def cdf(v):
        arr = np.atleast_1d(np.asarray(v, dtype=float))
        out = np.zeros_like(arr)
        out[arr >= 1.0] = 1.0
        inside = (arr > 0.0) & (arr < 1.0)
        if inside.any():
            out[inside] = core(arr[inside])
        return float(out[0]) if np.ndim(v) == 0 else out

    return cdf


def _cdf_by_quadrature(integrand_p):
    """CDF(v) = integral of the p-space integrand over (0, arcsin v)."""

    def core(v):
        tops = np.arcsin(v)
        return np.array([integrate(integrand_p, 0.0, float(p)) for p in tops])

    return _clamped_cdf(core)


def _moments_by_quadrature(integrand_p) -> tuple[float, float]:
    p, w = composite_gauss_legendre(0.0, np.pi / 2)
    g = integrand_p(p)
    sin_p = np.sin(p)
    mean = float(w @ (sin_p * g))
    second = float(w @ (sin_p**2 * g))
    return mean, second


def law_localized() -> SpeedLaw:
    """Speed law for a cursor starting localized at site 1.

    density 4 v^2 / (pi sqrt(1 - v^2)), mean 8/(3 pi),
    variance 3/4 - (8/(3 pi))^2.
    """
    density = _unit_interval_density(
        lambda v: 4.0 * v**2 / (np.pi * np.sqrt(1.0 - v**2))
    )
    cdf = _clamped_cdf(
        lambda v: (2.0 / np.pi) * (np.arcsin(v) - v * np.sqrt(1.0 - v**2))
    )
    mean = 8.0 / (3.0 * np.pi)
    return SpeedLaw(
        family="localized",
        density=density,
        cdf=cdf,
        mean=mean,
        second_moment=0.75,
        variance=0.75 - mean**2,
        integrand_p=lambda p: 4.0 * np.sin(p) ** 2 / np.pi,
    )


def law_shifted(x0: int) -> SpeedLaw:
    """Speed law after the cursor has been observed at site x0.

    CDF (2 arcsin v)/pi - sin(2 x0 arcsin v)/(pi x0) on (0, 1), clamped to 1
    for v >= 1; mean 8/(4 pi - pi/x0^2).
    """
    if not (isinstance(x0, (int, np.integer)) and x0 >= 1):
        raise ValueError(f"x0 must be a positive integer, got {x0!r}")
    x0 = int(x0)

    density = _unit_interval_density(
        lambda v: 4.0 * np.sin(x0 * np.arcsin(v)) ** 2 / (np.pi * np.sqrt(1.0 - v**2))
    )
    cdf = _clamped_cdf(
        lambda v: 2.0 * np.arcsin(v) / np.pi
        - np.sin(2.0 * x0 * np.arcsin(v)) / (np.pi * x0)
    )
    mean = 8.0 / (4.0 * np.pi - np.pi / x0**2)
    second = 0.75 if x0 == 1 else 0.5
    return SpeedLaw(
        family=f"shifted(x0={x0})",
        density=density,
        cdf=cdf,
        mean=mean,
        second_moment=second,
        variance=second - mean**2,
        integrand_p=lambda p: 4.0 * np.sin(x0 * p) ** 2 / np.pi,
    )


def momentum_amplitude(psi0: CursorWavefunction, p) -> np.ndarray:
    """Momentum profile Psi(p) = sqrt(2/pi) sum_x sin(p x) psi0(x)."""
    arr = np.atleast_1d(np.asarray(p, dtype=float))
    x = np.arange(1, psi0.spec.s + 1)
    values = np.sqrt(2.0 / np.pi) * np.sin(np.outer(arr, x)) @ psi0.amplitudes
    return values[0] if np.ndim(p) == 0 else values


@dataclass(frozen=True, eq=False)
class MomentumProfile:
    """Psi(p) sampled on a quadrature grid over (0, pi)."""

    p: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def norm_squared(self) -> float:
        """Parseval check: integral of |Psi|^2 over (0, pi), 1 for a unit state."""
        return float(self.weights @ np.abs(self.values) ** 2)


def momentum_profile(
    psi0: CursorWavefunction, panels: int = 16, order: int = 32
) -> MomentumProfile:
    p, w = composite_gauss_legendre(0.0, np.pi, panels, order)
    return MomentumProfile(p=p, values=momentum_amplitude(psi0, p), weights=w)


def law_general(psi0: CursorWavefunction) -> SpeedLaw:
    """Speed law for an arbitrary finite-support initial cursor state.

    density (|Psi(arcsin v)|^2 + |Psi(pi - arcsin v)|^2) / sqrt(1 - v^2);
    moments and CDF by quadrature.
    """
    norm2 = float(np.sum(np.abs(psi0.amplitudes) ** 2))
    if abs(norm2 - 1.0) > NORM_DRIFT_TOL:
        raise ValueError(f"initial state must be normalized, norm^2 = {norm2!r}")

    def integrand_p(p):
        return (
            np.abs(momentum_amplitude(psi0, p)) ** 2
            + np.abs(momentum_amplitude(psi0, np.pi - np.asarray(p, float))) ** 2
        )

    density = _unit_interval_density(
        lambda v: integrand_p(np.arcsin(v)) / np.sqrt(1.0 - v**2)
    )
    mean, second = _moments_by_quadrature(integrand_p)
    return SpeedLaw(
        family="general",
        density=density,
        cdf=_cdf_by_quadrature(integrand_p),
        mean=mean,
        second_moment=second,
        variance=second - mean**2,
        integrand_p=integrand_p,
    )


def law_pad_ck(epsilon: int, k: int) -> SpeedLaw:
    """Speed law for the pad eigenstate |c_k> on {1..epsilon}.

    The closed form has removable 0/0 points where 2v^2 = 1 - cos(2k pi/(eps+1));
    evaluation nudges such grid points sideways by 1e-9, where the density is
    continuous.  For epsilon = 2n-1 and k = n this reduces to law_pad_cn(n).
    """
    if not 1 <= k <= epsilon:
        raise ValueError(f"need 1 <= k <= epsilon, got k={k}, epsilon={epsilon}")
    c2k = np.cos(2.0 * k * np.pi / (epsilon + 1))
    sk2 = np.sin(k * np.pi / (epsilon + 1)) ** 2
    v_star = np.sin(k * np.pi / (epsilon + 1))

    def core(v):
        v = v.copy()
        near = np.abs(v - v_star) < _SINGULAR_EPS
        if near.any():
            shifted = v_star + _SINGULAR_OFFSET
            if shifted >= 1.0:
                shifted = v_star - _SINGULAR_OFFSET
            v[near] = shifted
        num = (
            4.0
            * (3.0 - 2.0 * v**2 + c2k)
            * sk2
            * np.sin((epsilon + 1) * np.arcsin(v)) ** 2
        )
        den = (
            np.pi
            * np.sqrt(1.0 - v**2)
            * (epsilon + 1)
            * (2.0 * v**2 + c2k - 1.0) ** 2
        )
        return num / den

    def integrand_p(p):
        p = np.asarray(p, dtype=float).copy()
        near = np.abs(np.cos(2.0 * p) - c2k) < 1e-13
        if near.any():
            p[near] += _SINGULAR_OFFSET
        num = 4.0 * (3.0 - 2.0 * np.sin(p) ** 2 + c2k) * sk2 * np.sin((epsilon + 1) * p) ** 2
        den = np.pi * (epsilon + 1) * (c2k - np.cos(2.0 * p)) ** 2
        return num / den

    mean, second = _moments_by_quadrature(integrand_p)
    return SpeedLaw(
        family=f"pad-ck(epsilon={epsilon},k={k})",
        density=_unit_interval_density(core),
        cdf=_cdf_by_quadrature(integrand_p),
        mean=mean,
        second_moment=second,
        variance=second - mean**2,
        integrand_p=integrand_p,
    )


def pad_cn_mean_exact(n: int) -> float:
    """Exact mean speed of the flat pad state: (4/pi) sum_h (1/(4h-3) - 1/(4h-1))."""
    h = np.arange(1, n + 1)
    return float(4.0 / np.pi * np.sum(1.0 / (4 * h - 3) - 1.0 / (4 * h - 1)))


def pad_cn_variance_large_n(n: int) -> float:
    """Large-n variance (4 - pi)/(4 pi n) of the flat pad speed."""
    return (4.0 - np.pi) / (4.0 * np.pi * n)


def law_pad_cn(n: int) -> SpeedLaw:
    """Speed law for the flat alternating pad state on {1..2n-1}.

    density sin^2(2n arcsin v) / (pi n (1 - v^2)^(3/2)); exact mean from the
    alternating partial sum; second moment 1 - 1/(4n).
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    n = int(n)
    density = _unit_interval_density(
        lambda v: np.sin(2.0 * n * np.arcsin(v)) ** 2
        / (np.pi * n * (1.0 - v**2) ** 1.5)
    )

    def integrand_p(p):
        return np.sin(2.0 * n * p) ** 2 / (np.pi * n * np.cos(p) ** 2)

    mean = pad_cn_mean_exact(n)
    second = 1.0 - 1.0 / (4.0 * n)
    return SpeedLaw(
        family=f"pad-cn(n={n})",
        density=density,
        cdf=_cdf_by_quadrature(integrand_p),
        mean=mean,
        second_moment=second,
        variance=second - mean**2,
        integrand_p=integrand_p,
    )


@dataclass(frozen=True, eq=False)
class EmpiricalSpeed:
    """Finite-time speed distribution: mass |psi(t,x)|^2 at v = x/t."""

    speeds: np.ndarray
    masses: np.ndarray
    mean: float
    variance: float

    def cdf(self, v) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(v, dtype=float))
        out = np.array([float(self.masses[self.speeds <= u].sum()) for u in arr])
        return float(out[0]) if np.ndim(v) == 0 else out

    def characteristic(self, z) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(z, dtype=float))
        out = np.exp(1j * np.outer(arr, self.speeds)) @ self.masses
        return complex(out[0]) if np.ndim(z) == 0 else out

    def kolmogorov_distance(self, cdf) -> float:
        """Sup-norm distance between this step CDF and a reference CDF."""
        ref = np.asarray(cdf(self.speeds), dtype=float)
        steps = np.cumsum(self.masses)
        below = np.concatenate(([0.0], steps[:-1]))
        return float(np.maximum(np.abs(ref - steps), np.abs(ref - below)).max())


def empirical_speed(
    spec: ChainSpec, psi0: CursorWavefunction, t: float
) -> EmpiricalSpeed:
    """Speed distribution of a finite chain at time t: masses at v = x/t."""
    if not t > 0:
        raise ValueError(f"time must be positive, got t={t}")
    if psi0.spec != spec:
        raise ValueError("psi0 was built for a different chain spec")
    masses = propagate(psi0, t).probabilities()
    speeds = np.arange(1, spec.s + 1) / t
    mean = float(speeds @ masses)
    variance = float((speeds**2) @ masses - mean**2)
    return EmpiricalSpeed(speeds=speeds, masses=masses, mean=mean, variance=variance)
