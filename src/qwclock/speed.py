"""Asymptotic computation-speed laws and empirical speed extraction.

Each initial-state family of the cursor walk has a limiting distribution
for Q/t (sites advanced per unit time) supported on (0, 1).  A law is
defined by its p-space integrand g(p) = f(sin p) cos p under the
substitution v = sin p, which removes the (1-v^2)^(-1/2) and
(1-v^2)^(-3/2) endpoint blowups analytically.  The density, the CDF and
the moments derive from g, with composite Gauss-Legendre quadrature of
512 nodes, unless the family has a closed form for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import chain
from .chain import ChainSpec, CursorWavefunction, _check_memory, _check_norm, _each, propagate
from .chain import _Record
from .quadrature import composite_gauss_legendre, integrate

__all__ = [
    "SpeedLaw",
    "EmpiricalSpeed",
    "law_localized",
    "law_shifted",
    "law_general",
    "law_pad_ck",
    "law_pad_cn",
    "pad_cn_mean_exact",
    "pad_cn_variance_large_n",
    "momentum_amplitude",
    "empirical_speed",
]

# sideways nudge in p applied at the removable 0/0 points of the pad-ck law
_SINGULAR_OFFSET = 1e-9
# bytes per site of law_general: the state's amplitudes, and per thread one
# quadrature point's site indices and (512, s) scaled sine matrix with its complex
# cast, 24 B per node (traced slope on two threads: 24,583 to 24,592 B per site)
_LAW_SITE_BYTES, _POINT_SITE_BYTES = 16, 8 + 24 * 512
# bytes per site that one CDF point of law_general touches, its cost to chain._each:
# each of its two momentum amplitudes writes and reads the (512, s) phases, sines,
# scaled sines and their complex cast, 80 B per node
_POINT_TOUCHED_SITE_BYTES = 160 * 512


@dataclass(frozen=True, eq=False)
class SpeedLaw:
    """Limit law of the computation speed V for one initial-state family."""

    family: str
    density: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    mean: float
    second_moment: float
    # integrand in p-space: density(sin p) * cos p, bounded on (0, pi/2)
    integrand_p: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    @property
    def variance(self) -> float:
        return self.second_moment - self.mean**2

    def normalization(self) -> float:
        """Integral of the density over (0, 1); 1 up to quadrature error."""
        return integrate(self.integrand_p, 0.0, np.pi / 2)

    def characteristic(self, T: float) -> complex:
        """E[exp(i T V)] = integral of exp(i T sin p) g(p) over (0, pi/2).

        One 32-node panel per 16 units of |T| (at least 16 panels) keeps
        the oscillating integrand resolved.
        """
        panels = max(16, int(np.ceil(abs(T) / 16.0)))
        p, w = composite_gauss_legendre(0.0, np.pi / 2, panels)
        return complex(w @ (np.exp(1j * T * np.sin(p)) * self.integrand_p(p)))


def _on_unit_interval(core: Callable[[np.ndarray], np.ndarray], from_one: float):
    """Evaluate core on (0, 1): 0 below, from_one at v >= 1; scalar-safe."""

    def wrapped(v):
        arr = np.atleast_1d(np.asarray(v, dtype=float))
        out = np.zeros_like(arr)
        out[arr >= 1.0] = from_one
        inside = (arr > 0.0) & (arr < 1.0)
        if inside.any():
            out[inside] = core(arr[inside])
        return float(out[0]) if np.ndim(v) == 0 else out

    return wrapped


def _law(
    family: str, integrand_p, density=None, cdf=None, moments=None, point_bytes=0
) -> SpeedLaw:
    """Law from its p-space integrand; closed forms replace the derived parts.  A
    quadrature CDF declares point_bytes touched per point to chain._each (0: a
    closed-form integrand's 512-node arrays, which stay on the calling thread)."""
    if density is None:
        def density(v):
            return integrand_p(np.arcsin(v)) / np.sqrt(1.0 - v**2)
    if cdf is None:
        def cdf(v):
            top, out = np.arcsin(v), np.empty(len(v))

            def point(i):  # one full rule per point, spread over the CPUs when costly
                out[i] = integrate(integrand_p, 0.0, float(top[i]))

            _each(point, len(v), point_bytes)
            return out
    if moments is None:
        p, w = composite_gauss_legendre(0.0, np.pi / 2)
        g = integrand_p(p)
        sin_p = np.sin(p)
        moments = float(w @ (sin_p * g)), float(w @ (sin_p**2 * g))
    return SpeedLaw(
        family=family,
        density=_on_unit_interval(density, 0.0),
        cdf=_on_unit_interval(cdf, 1.0),
        mean=moments[0],
        second_moment=moments[1],
        integrand_p=integrand_p,
    )


def law_localized() -> SpeedLaw:
    """Speed law for a cursor starting localized at site 1.

    density 4 v^2 / (pi sqrt(1 - v^2)), mean 8/(3 pi),
    variance 3/4 - (8/(3 pi))^2.
    """
    return _law(
        "localized",
        lambda p: 4.0 * np.sin(p) ** 2 / np.pi,
        density=lambda v: 4.0 * v**2 / (np.pi * np.sqrt(1.0 - v**2)),
        cdf=lambda v: (2.0 / np.pi) * (np.arcsin(v) - v * np.sqrt(1.0 - v**2)),
        moments=(8.0 / (3.0 * np.pi), 0.75),
    )


def law_shifted(x0: int) -> SpeedLaw:
    """Speed law after the cursor has been observed at site x0.

    CDF (2 arcsin v)/pi - sin(2 x0 arcsin v)/(pi x0) on (0, 1), clamped to 1
    for v >= 1; mean 8/(4 pi - pi/x0^2).
    """
    if not (isinstance(x0, (int, np.integer)) and x0 >= 1):
        raise ValueError(f"x0 must be a positive integer, got {x0!r}")
    x0 = int(x0)
    return _law(
        f"shifted(x0={x0})",
        lambda p: 4.0 * np.sin(x0 * p) ** 2 / np.pi,
        density=lambda v: 4.0
        * np.sin(x0 * np.arcsin(v)) ** 2
        / (np.pi * np.sqrt(1.0 - v**2)),
        cdf=lambda v: 2.0 * np.arcsin(v) / np.pi
        - np.sin(2.0 * x0 * np.arcsin(v)) / (np.pi * x0),
        moments=(8.0 / (4.0 * np.pi - np.pi / x0**2), 0.75 if x0 == 1 else 0.5),
    )


def momentum_amplitude(psi0: CursorWavefunction, p) -> np.ndarray:
    """Momentum profile Psi(p) = sqrt(2/pi) sum_x sin(p x) psi0(x)."""
    arr = np.atleast_1d(np.asarray(p, dtype=float))
    x = np.arange(1, psi0.spec.s + 1)
    values = np.sqrt(2.0 / np.pi) * np.sin(np.outer(arr, x)) @ psi0.amplitudes
    return values[0] if np.ndim(p) == 0 else values


def law_general(psi0: CursorWavefunction) -> SpeedLaw:
    """Speed law for an arbitrary finite-support initial cursor state.

    integrand |Psi(p)|^2 + |Psi(pi - p)|^2, i.e. density
    (|Psi(arcsin v)|^2 + |Psi(pi - arcsin v)|^2) / sqrt(1 - v^2);
    moments and CDF by quadrature.
    """
    _check_norm(np.sum(np.abs(psi0.amplitudes) ** 2), "initial state")
    _check_law_memory(psi0.spec.s, f"speed law of a state on {psi0.spec.s} sites")

    def integrand_p(p):
        return (
            np.abs(momentum_amplitude(psi0, p)) ** 2
            + np.abs(momentum_amplitude(psi0, np.pi - np.asarray(p, float))) ** 2
        )

    return _law("general", integrand_p, point_bytes=_POINT_TOUCHED_SITE_BYTES * psi0.spec.s)


def _check_law_memory(s: int, what: str) -> None:
    """Budget law_general on s sites before its first integrand call: its moments
    run on the calling thread, its CDF points on chain._workers threads."""
    workers = chain._workers(_POINT_TOUCHED_SITE_BYTES * s)
    _check_memory((_LAW_SITE_BYTES + _POINT_SITE_BYTES * workers) * s, what)


def law_pad_ck(epsilon: int, k: int) -> SpeedLaw:
    """Speed law for the pad eigenstate |c_k> on {1..epsilon}.

    The integrand has removable 0/0 points where cos(2p) = cos(2k pi/(eps+1));
    evaluation nudges such points sideways by 1e-9 in p, where it is
    continuous.  For epsilon = 2n-1 and k = n this reduces to law_pad_cn(n).
    """
    if not 1 <= k <= epsilon:
        raise ValueError(f"need 1 <= k <= epsilon, got k={k}, epsilon={epsilon}")
    c2k = np.cos(2.0 * k * np.pi / (epsilon + 1))
    sk2 = np.sin(k * np.pi / (epsilon + 1)) ** 2

    def integrand_p(p):
        p = np.asarray(p, dtype=float).copy()
        near = np.abs(np.cos(2.0 * p) - c2k) < 1e-13
        if near.any():
            p[near] += _SINGULAR_OFFSET
        num = 4.0 * (3.0 - 2.0 * np.sin(p) ** 2 + c2k) * sk2 * np.sin((epsilon + 1) * p) ** 2
        den = np.pi * (epsilon + 1) * (c2k - np.cos(2.0 * p)) ** 2
        return num / den

    return _law(f"pad-ck(epsilon={epsilon},k={k})", integrand_p)


def pad_cn_mean_exact(n: int) -> float:
    """Exact mean speed of the flat pad state: (4/pi) sum_h (1/(4h-3) - 1/(4h-1))."""
    _check_pad_cn_memory(n, f"exact pad-cn mean over n={n} terms")
    h = np.arange(1, n + 1)
    return float(4.0 / np.pi * np.sum(1.0 / (4 * h - 3) - 1.0 / (4 * h - 1)))


def _check_pad_cn_memory(n: int, what: str) -> None:
    """Budget pad_cn_mean_exact's n terms, 32 B each at their peak (traced)."""
    _check_memory(32 * int(n), what)


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
    return _law(
        f"pad-cn(n={n})",
        lambda p: np.sin(2.0 * n * p) ** 2 / (np.pi * n * np.cos(p) ** 2),
        density=lambda v: np.sin(2.0 * n * np.arcsin(v)) ** 2
        / (np.pi * n * (1.0 - v**2) ** 1.5),
        moments=(pad_cn_mean_exact(n), 1.0 - 1.0 / (4.0 * n)),
    )


class EmpiricalSpeed(_Record):
    """Finite-time speed distribution: mass |psi(t,x)|^2 at v = x/t."""

    def __init__(self, speeds: np.ndarray, masses: np.ndarray, mean: float, variance: float):
        vars(self).update(speeds=speeds, masses=masses, mean=mean, variance=variance)

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
