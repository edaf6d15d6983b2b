"""Scenario runner emitting deterministic CSV.

Each subcommand maps onto one library computation with explicit
parameters.  Output is comma-separated with a header row, 15 significant
digits, LF line endings; identical flags produce byte-identical output.
Exit codes: 0 success, 1 oracle-check deviation >= 1e-10, 2 parameter
error (non-finite float flags and unwritable --out paths included), 3
resource error (a memory estimate, checked before allocating, over
chain.MEMORY_BUDGET, or running out of memory).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import chain, multi, oracle, register, speed
from .chain import ResourceLimitError, _check_memory

_CHECK_TOL = 1e-10
_ROW_BYTES = 400  # memory per emitted CSV row, measured


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    out = float(value)
    if not np.isfinite(out):
        raise ValueError(f"refusing to emit non-finite value {out!r}")
    if out == 0.0:
        out = 0.0  # normalize -0.0
    return format(out, ".15g")


def _emit(header, rows, out_path) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _time_grid(t_min: float, t_max: float, step: float, flags=None) -> np.ndarray:
    """Grid t_min, t_min + step, ... <= t_max; `flags` names it in errors."""
    if step <= 0:
        raise ValueError(f"time step must be positive, got step={step}")
    if t_max <= t_min:
        raise ValueError(f"need t-max > t-min, got {t_max} <= {t_min}")
    count = np.floor((t_max - t_min) / step + 1e-9) + 1
    flags = flags or f"--t-min {t_min!r} to --t-max {t_max!r} by --step {step!r}"
    _check_memory(_ROW_BYTES * count, f"time grid {flags} of {count:.3g} samples")
    return t_min + step * np.arange(int(count))


def _load_scenario(path: str) -> dict:
    values: dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"scenario line {line!r} is not key=value")
            key, val = line.split("=", 1)
            values[key.strip()] = val.strip()
    return values


class _Opt:
    """One long-form option with a type and a (possibly derived) default."""

    def __init__(self, name, typ, default, help, required=False):
        self.name = name
        self.typ = typ
        self.default = default
        self.help = help
        self.required = required

    @property
    def attr(self) -> str:
        return self.name.replace("-", "_")


def _resolve(options, args, scenario) -> dict:
    values: dict[str, object] = {}
    for opt in options:
        given = getattr(args, opt.attr)
        if given is not None:
            values[opt.name] = given
        elif opt.name in scenario:
            values[opt.name] = opt.typ(scenario[opt.name])
        else:
            default = opt.default(values) if callable(opt.default) else opt.default
            if default is None and opt.required:
                raise ValueError(f"missing required option --{opt.name}")
            values[opt.name] = default
        value = values[opt.name]
        if opt.typ is float and value is not None and not math.isfinite(value):
            raise ValueError(f"--{opt.name} must be a finite number, got {value!r}")
    unknown = set(scenario) - {opt.name for opt in options}
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    return values


def _grid_options(t_max_default):
    return [
        _Opt("t-min", float, 0.0, "start of the time grid"),
        _Opt("t-max", float, t_max_default, "end of the time grid"),
        _Opt("step", float, 0.1, "time grid step"),
    ]


def _toy_setup(mu: int, s: int, coupling: float):
    params = register.grover_params(mu)
    spec = chain.ChainSpec(s, coupling)
    program = register.toy_program(s, params.alpha)
    r1 = register.grover_initial_state(params)
    psi0 = chain.basis_state(spec, 1)
    return params, spec, program, r1, psi0


def _default_sites(values) -> int:
    s = 2 ** values["mu"] + 1
    _check_memory(8 * s * s, f"--mu {values['mu']} with 2**mu + 1 sites")  # V alone
    return s


# ---------------------------------------------------------------------------
# subcommand runners

# CSV columns that are not a RegisterTrajectory field of the same name
_SERIES = {
    "S": lambda traj: traj.entropy,
    "p_target": lambda traj: traj.p_success,
    "p_other": lambda traj: 1.0 - traj.p_success,
}
_PAD_COLUMNS = ["p_target", "entropy", "s1", "s3", "r"]


def _trajectory_runner(start, columns):
    """Runner for a register trajectory; start(v) gives (program, r1, psi0)."""

    def run(v):
        program, r1, psi0 = start(v)
        times = _time_grid(v["t-min"], v["t-max"], v["step"])
        traj = register.register_trajectory(program, r1, psi0, times)
        series = [
            _SERIES[col](traj) if col in _SERIES else getattr(traj, col)
            for col in columns
        ]
        return ["t", *columns], zip(times, *series)

    return run


def _toy_start(v):
    _, _, program, r1, psi0 = _toy_setup(v["mu"], v["s"], v["coupling"])
    return program, r1, psi0


def _launchpad_start(v):
    params = register.grover_params(v["mu"])
    spec = chain.ChainSpec(v["s"], v["coupling"])
    count = v["num-active"]
    if count is None:
        try:
            count = int(np.floor(np.pi / 4.0 * 2 ** (v["mu"] / 2.0)))
        except OverflowError:
            raise ValueError(
                f"--mu {v['mu']} overflows the --num-active default "
                "floor(pi/4 2^(mu/2)); give --num-active"
            ) from None
    variant = v["variant"]
    if variant == "telomere":
        program = register.rotation_window_program(spec.s, params.alpha, 1, count)
        psi0 = chain.basis_state(spec, 1)
    elif variant in ("flat", "gamma"):
        epsilon = 2 * v["n"] - 1
        program = register.rotation_window_program(
            spec.s, params.alpha, epsilon, count
        )
        psi0 = (
            chain.launchpad_state(spec, epsilon, v["n"])
            if variant == "flat"
            else chain.gamma_state(spec, v["n"])
        )
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return program, register.grover_initial_state(params), psi0


def _alternating_start(v):
    params = register.grover_params(v["mu"])
    spec = chain.ChainSpec(v["s"], v["coupling"])
    program = register.alternating_program(spec.s, params.theta)
    return program, register.grover_initial_state(params), chain.basis_state(spec, 1)


def _position_runner(column, moment):
    """Runner for one moment of the free cursor's site distribution over time."""

    def run(v):
        spec = chain.ChainSpec(v["s"], v["coupling"])
        if v["n"] is not None:
            psi0 = chain.launchpad_state(spec, 2 * v["n"] - 1, v["n"])
        else:
            psi0 = chain.basis_state(spec, 1)
        times = _time_grid(v["t-min"], v["t-max"], v["step"])
        rows = [
            (t, getattr(chain.position_statistics(chain.propagate(psi0, t)), moment))
            for t in times
        ]
        return ["t", column], rows

    return run


def _speed_law_from(v) -> speed.SpeedLaw:
    family = v["family"]
    if family == "localized":
        return speed.law_localized()
    if family == "shifted":
        return speed.law_shifted(v["x0"])
    if family == "pad-ck":
        return speed.law_pad_ck(v["epsilon"], v["k"])
    if family == "pad-cn":
        return speed.law_pad_cn(v["n"])
    if family == "gamma":
        spec = chain.ChainSpec(max(2, 2 * v["n"] - 1))
        return speed.law_general(chain.gamma_state(spec, v["n"]))
    raise ValueError(f"unknown speed family {family!r}")


def _run_speed_density(v):
    law = _speed_law_from(v)
    grid = v["grid"]
    if grid < 1:
        raise ValueError(f"grid must be at least 1, got {grid}")
    _check_memory(_ROW_BYTES * grid, f"--grid {grid}")
    vv = np.arange(1, grid + 1) / (grid + 1.0)
    return ["v", "f", "F"], zip(vv, law.density(vv), law.cdf(vv))


def _run_multi(v):
    params = register.grover_params(v["mu"])
    spec = chain.ChainSpec(v["s"], v["coupling"])
    g = register.rotation_about_2(params.alpha)
    r1 = register.grover_initial_state(params)
    state0 = multi.SectorState.from_product(spec, tuple(range(1, v["g"] + 1)), r1)
    times = _time_grid(v["t-min"], v["t-max"], v["step"])
    rows = []
    for t in times:
        state = multi.propagate_single_link(state0, v["x0"], g, t)
        rho = state.register_density_matrix()
        s1, s2, s3 = register.bloch_vector(rho)
        r = float(np.sqrt(s1**2 + s2**2 + s3**2))
        rows.append(
            (t, rho[0, 0].real, register.entropy_from_r(r), s1, s3, r)
        )
    return ["t", *_PAD_COLUMNS], rows


def _run_measure(v):
    _, spec, program, r1, psi0 = _toy_setup(v["mu"], v["s"], v["coupling"])
    tau = v["tau"]
    if tau is None or tau <= 0:
        raise ValueError("measurement time --tau must be positive")
    signs = {"plus": +1, "minus": -1}
    if v["outcome"] not in signs:
        raise ValueError(f"--outcome must be plus or minus, got {v['outcome']!r}")
    step = v["step"]
    t_max = v["t-max"] if v["t-max"] is not None else 4.0 * tau
    if t_max - tau <= step:
        raise ValueError(
            f"--t-max must exceed --tau plus --step, got --t-max {t_max!r}, "
            f"--tau {tau!r}, --step {step!r}"
        )
    machine = register.MachineState.from_product(program, r1, psi0).evolve(tau)
    collapsed, probability = register.measure_register_sigma3(machine, signs[v["outcome"]])
    flags = f"--tau {tau!r} to --t-max {t_max!r} by --step {step!r}"
    offsets = _time_grid(step, t_max - tau, step, flags)
    traj = register.machine_trajectory(collapsed, offsets)
    rows = [
        (tau + dt, s1, s3, r, gm, probability)
        for dt, s1, s3, r, gm in zip(offsets, traj.s1, traj.s3, traj.r, traj.gamma)
    ]
    return ["t", "s1", "s3", "r", "gamma", "p_outcome"], rows


def _run_oracle_check(v):
    if v["s"] < 3:
        raise ValueError(f"oracle-check needs --s >= 3, got --s {v['s']}")
    checks = []
    params, spec, program, r1, psi0 = _toy_setup(v["mu"], v["s"], v["coupling"])
    # every budget is checked before the first dense matrix: states, then the largest build
    free0 = multi.SectorState.from_product(spec, (1, 2))
    link0 = multi.SectorState.from_product(spec, (1, 2), r1)
    x0 = max(2, spec.s // 2)
    g = register.rotation_about_2(params.alpha)
    ham_link = oracle.build(spec, register.single_link_program(spec.s, x0, g), sector=2)
    ham = oracle.build(spec, program, sector=1)
    machine0 = register.MachineState.from_product(program, r1, psi0)
    vec0 = machine0.spinors.reshape(-1)
    times = np.linspace(0.5, 2.5 * spec.s, 12)
    dev_state = 0.0
    dev_rho = 0.0
    dev_entropy = 0.0
    for t in times:
        analytic = machine0.evolve(t)
        dense = oracle.evolve(ham, vec0, t)
        dev_state = max(dev_state, np.abs(analytic.spinors.reshape(-1) - dense).max())
        rho_dense = oracle.partial_trace(dense, 2, "register")
        dev_rho = max(
            dev_rho, np.abs(analytic.register_density_matrix() - rho_dense).max()
        )
        dev_entropy = max(
            dev_entropy,
            abs(
                oracle.von_neumann_entropy(rho_dense)
                - oracle.von_neumann_entropy(oracle.partial_trace(dense, 2, "cursor"))
            ),
        )
    checks.append(("machine_evolution", dev_state))
    checks.append(("register_density", dev_rho))
    checks.append(("entropy_symmetry", dev_entropy))

    bare = np.ones((spec.s - 1, 1, 1), dtype=complex)
    ham_free = oracle.build(spec, bare, sector=2)
    dev_free = 0.0
    for t in (1.0, 0.75 * spec.s):
        a = multi.propagate_free_sector(free0, t)
        b = oracle.evolve(ham_free, free0.to_vector(), t)
        dev_free = max(dev_free, np.abs(a.to_vector() - b).max())
    checks.append(("free_sector", dev_free))

    dev_link = 0.0
    for t in (1.0, 0.75 * spec.s):
        a = multi.propagate_single_link(link0, x0, g, t)
        b = oracle.evolve(ham_link, link0.to_vector(), t)
        dev_link = max(dev_link, np.abs(a.to_vector() - b).max())
    checks.append(("single_link_sector", dev_link))

    failed = any(dev >= _CHECK_TOL for _, dev in checks)
    return ["check", "max_deviation"], checks, failed


# ---------------------------------------------------------------------------
# command table

def _commands():
    coupling = _Opt("coupling", float, 1.0, "hopping coupling (units 1/time)")

    def toy_options(t_max_per_site):
        return [
            _Opt("mu", int, 7, "marked-word bit length"),
            _Opt("s", int, _default_sites, "number of cursor sites"),
            coupling,
            *_grid_options(lambda v: t_max_per_site * v["s"]),
        ]

    def position_options(s_default):
        return [
            _Opt("s", int, s_default, "number of cursor sites"),
            _Opt("n", int, None, "start from the flat pad state c_n (default: site 1)"),
            coupling,
            *_grid_options(lambda v: float(v["s"])),
        ]

    return {
        "bloch": (
            "Bloch-plane curve (s1, s3) of the clocked register",
            toy_options(1.0),
            _trajectory_runner(_toy_start, ["s1", "s3", "r", "gamma"]),
        ),
        "entropy": (
            "register entropy S(t) for the rotation program",
            toy_options(2.0),
            _trajectory_runner(_toy_start, ["S"]),
        ),
        "probability": (
            "target probability with its readout bounds lam1, lam2",
            toy_options(1.2),
            _trajectory_runner(_toy_start, ["p_target", "p_other", "lam1", "lam2"]),
        ),
        "mean-q": (
            "mean cursor position over time",
            position_options(129),
            _position_runner("mean_q", "mean"),
        ),
        "var-q": (
            "cursor position variance over time",
            position_options(50),
            _position_runner("var_q", "variance"),
        ),
        "speed-density": (
            "density and CDF of an asymptotic speed law",
            [
                _Opt(
                    "family",
                    str,
                    "localized",
                    "localized | shifted | pad-ck | pad-cn | gamma",
                ),
                _Opt("x0", int, 1, "observed site (family shifted)"),
                _Opt("epsilon", int, 9, "pad size (family pad-ck)"),
                _Opt("k", int, 1, "pad mode (family pad-ck)"),
                _Opt("n", int, 5, "pad half-width (families pad-cn, gamma)"),
                _Opt("grid", int, 1000, "number of interior v points"),
            ],
            _run_speed_density,
        ),
        "launchpad": (
            "pad scenarios: telomere, flat pad c_n, or three-mode pad",
            [
                _Opt("variant", str, "flat", "telomere | flat | gamma"),
                _Opt("mu", int, 10, "marked-word bit length"),
                _Opt("s", int, 50, "number of cursor sites"),
                _Opt("n", int, 5, "pad half-width (pad size 2n-1)"),
                _Opt("num-active", int, None, "active links (default floor(pi/4 2^(mu/2)))"),
                coupling,
                *_grid_options(lambda v: 3.0 * v["s"]),
            ],
            _trajectory_runner(_launchpad_start, _PAD_COLUMNS),
        ),
        "alternating": (
            "alternating oracle/estimation program",
            toy_options(3.0),
            _trajectory_runner(_alternating_start, _PAD_COLUMNS),
        ),
        "multi": (
            "several excitations crossing a single active link",
            [
                _Opt("mu", int, 4, "marked-word bit length"),
                _Opt("g", int, 3, "number of clocking excitations"),
                _Opt("x0", int, 6, "active link"),
                _Opt("s", int, 20, "number of cursor sites"),
                coupling,
                *_grid_options(lambda v: 4.0 * v["s"]),
            ],
            _run_multi,
        ),
        "measure": (
            "register measured at time tau; post-measurement trajectory",
            [
                _Opt("mu", int, 7, "marked-word bit length"),
                _Opt("s", int, _default_sites, "number of cursor sites"),
                _Opt("tau", float, None, "measurement time", required=True),
                _Opt("outcome", str, "plus", "plus | minus"),
                coupling,
                *_grid_options(None)[1:],  # the grid starts one step after tau
            ],
            _run_measure,
        ),
        "oracle-check": (
            "cross-module equivalence suite against the dense oracle",
            [
                _Opt("mu", int, 4, "marked-word bit length"),
                _Opt("s", int, 8, "number of cursor sites"),
                coupling,
            ],
            _run_oracle_check,
        ),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwclock",
        description="Scenario runner for the quantum-walk clock library (CSV output).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, runner) in _commands().items():
        p = sub.add_parser(name, help=help_text)
        for opt in options:
            p.add_argument(f"--{opt.name}", type=opt.typ, default=None, help=opt.help)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--scenario", default=None, help="key=value file of defaults")
        p.set_defaults(options=options, runner=runner)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # one stderr line at most: non-finite values fail the norm checks or _fmt
        with np.errstate(all="ignore"):
            scenario = _load_scenario(args.scenario) if args.scenario else {}
            values = _resolve(args.options, args, scenario)
            header, rows, *failed = args.runner(values)  # oracle-check adds a flag
            _emit(header, rows, args.out)
    except (ResourceLimitError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if any(failed):
        print(f"error: oracle-check deviation >= {_CHECK_TOL:g}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
