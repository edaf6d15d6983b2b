"""The four benchmark workloads: generated CLI flags and output checks.

Each workload is one deterministic ``qwclock`` CLI scenario.  The seed picks
parameters that leave the work size unchanged; the program receives only
the generated flags.  Every output is checked untimed, in two ways:

* invariants on every row, and
* a comparison of every row with a reference that does not run the path
  under test: a sparse Hamiltonian built here and evolved with
  ``scipy.sparse.linalg.expm_multiply`` (trajectory, multi-sector), the
  eigenvectors of ``scipy.linalg.eigh_tridiagonal`` (cursor-sweep), and the
  exact antiderivative of the speed law's trigonometric integrand
  (speed-table).

A value matches its reference when ``|got - ref| <= 1e-10 * max(1, |ref|)``.
CSV bytes differ with the BLAS thread count, so nothing compares hashes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

REF_TOL = 1e-10
ROW_TOL = 1e-12  # identities between columns of one row (15 significant digits)


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty CSV")
    header = lines[0].split(",")
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if table.shape != (len(lines) - 1, len(header)):
        raise ValueError(f"ragged CSV: {table.shape} for header {header}")
    return header, table


def _far(got, ref, tol=REF_TOL) -> int:
    """Number of entries outside |got - ref| <= tol * max(1, |ref|)."""
    got, ref = np.asarray(got, float), np.asarray(ref, float)
    return int(np.count_nonzero(~(np.abs(got - ref) <= tol * np.maximum(1.0, np.abs(ref)))))


def _grover(mu: int) -> tuple[np.ndarray, np.ndarray]:
    """Link rotation exp(-i alpha sigma_2/2) and start register of a mu-bit search."""
    chi = math.asin(2.0 ** (-mu / 2.0))
    theta, alpha = math.pi - 2.0 * chi, -4.0 * chi
    c, s = math.cos(alpha / 2.0), math.sin(alpha / 2.0)
    return np.array([[c, -s], [s, c]]), np.array([math.cos(theta / 2.0), math.sin(theta / 2.0)])


def _bloch(states: np.ndarray) -> dict[str, np.ndarray]:
    """Register Bloch data of composite states, shape (times, cursor, 2)."""
    rho00 = np.sum(np.abs(states[:, :, 0]) ** 2, axis=1)
    rho11 = np.sum(np.abs(states[:, :, 1]) ** 2, axis=1)
    rho10 = np.sum(states[:, :, 1] * states[:, :, 0].conj(), axis=1)
    s1, s2, s3 = 2.0 * rho10.real, 2.0 * rho10.imag, rho00 - rho11
    return {"p_target": rho00, "s1": s1, "s3": s3, "r": np.sqrt(s1**2 + s2**2 + s3**2)}


def _entropy(r: np.ndarray) -> np.ndarray:
    """Binary entropy in nats of a qubit with Bloch radius r."""
    out = np.zeros_like(r)
    for p in ((1.0 + r) / 2.0, (1.0 - r) / 2.0):
        p = np.clip(p, 0.0, 1.0)
        pos = p > 0.0
        out[pos] -= p[pos] * np.log(p[pos])
    return out


def _sector_hamiltonian(s: int, n: int, links: dict[int, np.ndarray]):
    """Sparse hopping Hamiltonian of n excitations with a qubit register.

    A hop across link x applies links.get(x, I) rightward and its adjoint
    leftward; basis index = 2 * occupation index + register index.
    """
    import scipy.sparse as sp

    labels = list(combinations(range(1, s + 1), n))
    index = {label: i for i, label in enumerate(labels)}
    rows, cols, vals = [], [], []
    for i, label in enumerate(labels):
        occupied = set(label)
        for x in label:
            if x + 1 > s or x + 1 in occupied:
                continue
            j = index[tuple(sorted(occupied - {x} | {x + 1}))]
            u = links.get(x, np.eye(2))
            for a in range(2):
                for b in range(2):
                    if u[a, b] != 0.0:
                        rows += [2 * j + a, 2 * i + b]
                        cols += [2 * i + b, 2 * j + a]
                        vals += [-0.5 * u[a, b], -0.5 * np.conj(u[a, b])]
    dim = 2 * len(labels)
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=complex), index


def _evolve_on_grid(ham, psi0: np.ndarray, times: np.ndarray, chunk: int = 512):
    """exp(-i H t) psi0 on a uniform grid, chunk by chunk to bound memory."""
    from scipy.sparse.linalg import expm_multiply

    a = -1j * ham
    state, now = psi0, 0.0
    for lo in range(0, len(times), chunk):
        grid = times[lo : lo + chunk]
        if grid[0] != now:
            state = expm_multiply(a * (grid[0] - now), state)
        block = expm_multiply(a, state, start=0.0, stop=grid[-1] - grid[0],
                              num=len(grid), endpoint=True)
        block = block.reshape(len(grid), psi0.size)
        yield block
        state, now = block[-1], grid[-1]


@dataclass(frozen=True)
class Workload:
    """One CLI scenario at a fixed work size; subclasses fill in the physics."""

    name: str
    hot_layer: str

    def params(self, seed: int) -> dict:
        raise NotImplementedError

    def argv(self, params: dict) -> list[str]:
        raise NotImplementedError

    def header(self) -> list[str]:
        raise NotImplementedError

    def times(self) -> np.ndarray:
        raise NotImplementedError

    def rows(self) -> int:
        return len(self.times())

    def invariants(self, params: dict, cols: dict) -> list[str]:
        raise NotImplementedError

    def reference(self, params: dict, cols: dict) -> dict[str, np.ndarray]:
        """Reference columns at the CSV's grid, computed without qwclock."""
        raise NotImplementedError

    def check(self, params: dict, text: str, ref: dict | None = None):
        """Problems found in one CSV output, and the reference used.

        Pass the returned reference back in to check further outputs of the
        same parameters without recomputing it.
        """
        try:
            header, table = parse_csv(text)
        except ValueError as exc:
            return [f"unparsable CSV: {exc}"], ref
        if header != self.header():
            return [f"header {header} != {self.header()}"], ref
        if table.shape[0] != self.rows():
            return [f"{table.shape[0]} rows, expected {self.rows()}"], ref
        if not np.isfinite(table).all():
            return ["non-finite value"], ref
        cols = dict(zip(header, table.T))
        problems = self.invariants(params, cols)
        if ref is None:
            ref = self.reference(params, cols)
        for name, values in ref.items():
            bad = _far(cols[name], values)
            if bad:
                worst = float(np.max(np.abs(cols[name] - values)))
                problems.append(f"{name}: {bad} rows differ from the reference (max {worst:.3g})")
        return problems, ref


def _time_grid(t_max: float, step: float) -> np.ndarray:
    return step * np.arange(int(math.floor(t_max / step + 1e-9)) + 1)


def _grid_problems(name: str, got: np.ndarray, expected: np.ndarray) -> list[str]:
    bad = _far(got, expected, ROW_TOL)
    return [f"{name}: {bad} rows off the grid"] if bad else []


@dataclass(frozen=True)
class Trajectory(Workload):
    """bloch: one batched machine_trajectory call, s = sites."""

    sites: int = 769
    step: float = 0.5

    def params(self, seed):
        return {"mu": random.Random(seed).randint(4, 16)}

    def argv(self, p):
        return ["bloch", "--mu", str(p["mu"]), "--s", str(self.sites), "--step", str(self.step)]

    def header(self):
        return ["t", "s1", "s3", "r", "gamma"]

    def times(self):
        return _time_grid(float(self.sites), self.step)

    def invariants(self, p, c):
        problems = _grid_problems("t", c["t"], self.times())
        if np.any(c["r"] > 1.0 + ROW_TOL):
            problems.append("r > 1")
        # the rotation program keeps the register in the 1-3 plane
        for name, got, want in (
            ("r", c["r"], np.hypot(c["s1"], c["s3"])),
            ("gamma", c["r"] * np.sin(c["gamma"]), c["s1"]),
            ("gamma", c["r"] * np.cos(c["gamma"]), c["s3"]),
        ):
            if _far(got, want, ROW_TOL):
                problems.append(f"{name} inconsistent with s1, s3")
        return problems

    def reference(self, p, c):
        u, r1 = _grover(p["mu"])
        ham, _ = _sector_hamiltonian(self.sites, 1, {x: u for x in range(1, self.sites)})
        psi0 = np.zeros(2 * self.sites, dtype=complex)
        psi0[:2] = r1
        parts = [_bloch(block.reshape(len(block), self.sites, 2))
                 for block in _evolve_on_grid(ham, psi0, c["t"])]
        return {k: np.concatenate([part[k] for part in parts]) for k in ("s1", "s3", "r")}


@dataclass(frozen=True)
class CursorSweep(Workload):
    """mean-q: one chain.propagate call per time sample."""

    sites: int = 513
    step: float = 1.0

    def params(self, seed):
        return {"n": random.Random(seed).randint(1, min(32, (self.sites + 1) // 2))}

    def argv(self, p):
        return ["mean-q", "--s", str(self.sites), "--n", str(p["n"]), "--step", str(self.step)]

    def header(self):
        return ["t", "mean_q"]

    def times(self):
        return _time_grid(float(self.sites), self.step)

    def invariants(self, p, c):
        problems = _grid_problems("t", c["t"], self.times())
        if np.any(c["mean_q"] < 1.0) or np.any(c["mean_q"] > self.sites):
            problems.append(f"mean_q outside [1, {self.sites}]")
        return problems

    def reference(self, p, c):
        from scipy.linalg import eigh_tridiagonal

        s, n = self.sites, p["n"]
        energies, modes = eigh_tridiagonal(np.zeros(s), np.full(s - 1, -0.5))
        psi0 = np.zeros(s)
        psi0[0 : 2 * n - 1 : 2] = (-1.0) ** np.arange(n) / math.sqrt(n)  # flat pad c_n
        coeff = modes.T @ psi0
        x = np.arange(1, s + 1)
        mean = np.empty(len(c["t"]))
        for lo in range(0, len(mean), 256):
            t = c["t"][lo : lo + 256]
            psi = modes @ (np.exp(-1j * np.outer(energies, t)) * coeff[:, None])
            mean[lo : lo + 256] = x @ np.abs(psi) ** 2
        return {"mean_q": mean}


@dataclass(frozen=True)
class MultiSector(Workload):
    """multi: the d x s^n tensor of propagate_free_sector per time sample."""

    excitations: int = 4
    sites: int = 16
    step: float = 1.0

    def params(self, seed):
        rng = random.Random(seed)
        return {"mu": rng.randint(2, 10), "x0": rng.randint(self.excitations, self.sites - 1)}

    def argv(self, p):
        return ["multi", "--mu", str(p["mu"]), "--g", str(self.excitations),
                "--s", str(self.sites), "--x0", str(p["x0"]), "--step", str(self.step)]

    def header(self):
        return ["t", "p_target", "entropy", "s1", "s3", "r"]

    def times(self):
        return _time_grid(4.0 * self.sites, self.step)

    def invariants(self, p, c):
        problems = _grid_problems("t", c["t"], self.times())
        if np.any(c["r"] > 1.0 + ROW_TOL):
            problems.append("r > 1")
        if np.any(c["r"] < np.hypot(c["s1"], c["s3"]) - ROW_TOL):
            problems.append("r < |(s1, s3)|")
        if _far(c["p_target"], (1.0 + c["s3"]) / 2.0, ROW_TOL):
            problems.append("p_target != (1 + s3)/2")
        if _far(c["entropy"], _entropy(c["r"]), ROW_TOL):
            problems.append("entropy inconsistent with r")
        return problems

    def reference(self, p, c):
        g, r1 = _grover(p["mu"])
        ham, index = _sector_hamiltonian(self.sites, self.excitations, {p["x0"]: g})
        psi0 = np.zeros(ham.shape[0], dtype=complex)
        start = 2 * index[tuple(range(1, self.excitations + 1))]
        psi0[start : start + 2] = r1
        parts = [_bloch(block.reshape(len(block), -1, 2))
                 for block in _evolve_on_grid(ham, psi0, c["t"])]
        ref = {k: np.concatenate([part[k] for part in parts])
               for k in ("p_target", "s1", "s3", "r")}
        ref["entropy"] = _entropy(ref["r"])
        return ref


@dataclass(frozen=True)
class SpeedTable(Workload):
    """speed-density, gamma family: one 512-node quadrature per CDF point."""

    pad: int = 20
    grid: int = 1000

    def params(self, seed):
        return {}

    def argv(self, p):
        return ["speed-density", "--family", "gamma", "--n", str(self.pad), "--grid", str(self.grid)]

    def header(self):
        return ["v", "f", "F"]

    def rows(self):
        return self.grid

    def invariants(self, p, c):
        problems = _grid_problems("v", c["v"], np.arange(1, self.grid + 1) / (self.grid + 1.0))
        if np.any(c["f"] < 0.0):
            problems.append("f < 0")
        if np.any(c["F"] < 0.0) or np.any(c["F"] > 1.0 + ROW_TOL):
            problems.append("F outside [0, 1]")
        if np.any(np.diff(c["F"]) < 0.0):
            problems.append("F decreases")
        return problems

    def reference(self, p, c):
        """Exact density and CDF of the three-mode pad state.

        The p-space integrand is (2/pi) sum_xy C_xy sin(px) sin(py) with
        C = a a^T + b b^T, a = psi0 and b_x = (-1)^(x+1) psi0(x) (from
        Psi(pi - p)), so its antiderivative is a finite sum of sines.
        """
        n = self.pad
        x = np.arange(1, 2 * n)
        psi0 = (1.0 + np.cos(np.pi * x / (2.0 * n))) * np.sin(np.pi * x / 2.0)
        psi0 /= np.linalg.norm(psi0)
        a, b = psi0, (-1.0) ** (x + 1) * psi0
        cxy = np.outer(a, a) + np.outer(b, b)
        top = np.arcsin(c["v"])
        density = (2.0 / np.pi) * ((np.sin(np.outer(top, x)) @ a) ** 2
                                   + (np.sin(np.outer(top, x)) @ b) ** 2)
        # sin(px) sin(py) = (cos((x-y)p) - cos((x+y)p))/2; group C by frequency
        k = np.arange(1, 4 * n)
        by_diff = np.bincount(np.abs(x[:, None] - x[None, :]).ravel(), cxy.ravel(), 4 * n)
        by_sum = np.bincount((x[:, None] + x[None, :]).ravel(), cxy.ravel(), 4 * n)
        cdf = (by_diff[0] * top + np.sin(np.outer(top, k)) @ ((by_diff[1:] - by_sum[1:]) / k)) / np.pi
        return {"f": density / np.sqrt(1.0 - c["v"] ** 2), "F": cdf}


WORKLOADS = {
    w.name: w
    for w in (
        Trajectory("trajectory", "register"),
        CursorSweep("cursor-sweep", "chain"),
        MultiSector("multi-sector", "multi"),
        SpeedTable("speed-table", "quadrature"),
    )
}
