"""Scenario runner emitting deterministic CSV.

Each subcommand maps onto one library computation with explicit
parameters.  Output is comma-separated with a header row, 15 significant
digits, LF line endings; identical flags produce byte-identical output, at
any CPU count (mean-q and var-q windows, multi samples and the quadrature
speed laws' CDF points run over the CPUs of the process's affinity mask
when each touches at least chain._SPREAD_BYTES, and on one thread else).
Exit codes: 0 success, 1 oracle-check deviation >= 1e-10, 2 parameter
error (non-finite float flags and unwritable --out paths included), 3
resource error (a memory estimate, checked before allocating, over
chain.MEMORY_BUDGET, or running out of memory).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

import numpy as np

from . import chain, multi, oracle, register, speed
from .chain import ResourceLimitError, _check_memory

_CHECK_TOL = 1e-10
_ROW_BYTES = 400  # memory per emitted CSV row (traced: 168 B a row, multi)
_EMIT_ROWS = 256  # rows per block of CSV text, a few dozen kB
# memory per chain site of a whole run on a short grid: the program's
# unitaries and their unitarity check, cumulative products, start state,
# spinors and a one-sample chunk (traced: 467 B a site, measure);
# chain._complex_modes checks the s x s basis itself
_SITE_BYTES = 512


def _emit(header, columns, out_path) -> None:
    """Write equal-length columns (arrays, or sequences of floats or strings) as CSV.

    Numbers print to 15 significant digits, -0.0 as 0.  Every numeric column
    is checked to be finite before the first byte is written; the rows are
    then formatted from Python floats and written _EMIT_ROWS at a time, so a
    long table never holds all its values as Python objects, or all its text.
    """
    # + 0.0 turns -0.0 into 0.0
    columns = [c if isinstance(c[0], str) else np.asarray(c, dtype=float) + 0.0 for c in columns]
    for col in columns:
        if isinstance(col, np.ndarray) and not np.isfinite(col).all():
            bad = float(col[~np.isfinite(col)][0])
            raise ValueError(f"refusing to emit non-finite value {bad!r}")
    row_format = ",".join("%.15g" if isinstance(c, np.ndarray) else "%s" for c in columns) + "\n"
    with open(out_path, "w", newline="") if out_path else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _EMIT_ROWS):
            block = (col[start : start + _EMIT_ROWS] for col in columns)
            rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in block))
            fh.write("".join(row_format % row for row in rows))


def _time_grid(t_min: float, t_max: float, step: float, flags=None) -> np.ndarray:
    """Grid t_min, t_min + step, ... <= t_max; `flags` names it in errors."""
    if step <= 0:
        raise ValueError(f"--step must be positive, got --step {step!r}")
    if t_max <= t_min:
        raise ValueError(
            f"--t-max must be greater than --t-min, got --t-max {t_max!r} and --t-min {t_min!r}"
        )
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
        vars(self).update(name=name, typ=typ, default=default, help=help, required=required)


def _resolve(options, args, scenario) -> dict:
    values = {}
    for opt in options:
        given = getattr(args, opt.name.replace("-", "_"))
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


def _chain_spec(s: int, coupling: float) -> chain.ChainSpec:
    """The chain of --s sites and --coupling, checked (against the budget too)
    before any array exists."""
    _at_least("s", s, 2)
    if not coupling > 0:
        raise ValueError(f"--coupling must be positive, got --coupling {coupling!r}")
    _check_memory(_SITE_BYTES * s, f"--s {s} sites")
    return chain.ChainSpec(s, coupling)


def _grover(mu: int) -> register.GroverParams:
    """The search parameters of --mu, checked to be at least 1."""
    _at_least("mu", mu, 1)
    return register.grover_params(mu)


def _toy_setup(v):
    params = _grover(v["mu"])
    spec = _chain_spec(v["s"], v["coupling"])
    program = register.toy_program(spec.s, params.alpha)
    r1 = register.grover_initial_state(params)
    psi0 = chain.basis_state(spec, 1)
    return params, spec, program, r1, psi0


def _at_least(flag: str, value: int, low: int, bound=None) -> None:
    """Refuse --flag below low; bound names low when another flag sets it."""
    if value < low:
        raise ValueError(f"--{flag} must be at least {bound or low}, got --{flag} {value}")


def _pad_size(n: int, s=None) -> int:
    """The pad size 2n-1 of --n, checked to fit --s sites when s is given."""
    _at_least("n", n, 1)
    if s is not None and 2 * n - 1 > s:
        raise ValueError(f"--n {n} gives a pad of 2n-1 = {2 * n - 1} sites, more than --s {s}")
    return 2 * n - 1


def _default_sites(values) -> int:
    s = 2 ** values["mu"] + 1
    _check_memory(_SITE_BYTES * s, f"--mu {values['mu']} with 2**mu + 1 sites")
    return s


# ---------------------------------------------------------------------------
# subcommand runners

# CSV columns that are not a RegisterTrajectory field of the same name, and
# the two of chain.position_moments' (mean, variance)
_SERIES = {
    "S": lambda traj: traj.entropy,
    "p_target": lambda traj: traj.p_success,
    "p_other": lambda traj: 1.0 - traj.p_success,
    "mean_q": lambda moments: moments[0],
    "var_q": lambda moments: moments[1],
}
_PAD_COLUMNS = ["p_target", "entropy", "s1", "s3", "r"]


def _trajectory_runner(start, columns, trajectory=None):
    """Runner for a series over the time grid: trajectory(*start(v), times).

    The default, register.register_trajectory, is looked up at each call,
    so a wrapper installed on the module after import sees it.
    """

    def run(v):
        args = start(v)  # every parameter is checked before the grid
        times = _time_grid(v["t-min"], v["t-max"], v["step"])
        traj = (trajectory or register.register_trajectory)(*args, times)
        series = [
            _SERIES[col](traj) if col in _SERIES else getattr(traj, col)
            for col in columns
        ]
        return ["t", *columns], [times, *series]

    return run


def _toy_start(v):
    return _toy_setup(v)[2:]  # program, r1, psi0


def _launchpad_start(v):
    params = _grover(v["mu"])
    spec = _chain_spec(v["s"], v["coupling"])
    count = v["num-active"]
    if count is None:
        try:
            count = int(np.floor(np.pi / 4.0 * 2 ** (v["mu"] / 2.0)))
        except OverflowError:
            raise ValueError(
                f"--mu {v['mu']} overflows the --num-active default "
                "floor(pi/4 2^(mu/2)); give --num-active"
            ) from None
    _at_least("num-active", count, 0)
    variant = v["variant"]
    if variant == "telomere":
        if count > spec.s - 1:
            raise ValueError(
                f"--num-active {count} needs links 1..{count}, "
                f"but --s {spec.s} has links 1..{spec.s - 1}"
            )
        epsilon, psi0 = 1, chain.basis_state(spec, 1)
    elif variant in ("flat", "gamma"):
        epsilon = _pad_size(v["n"])
        last = epsilon + max(count, 1) - 1  # the window's last link
        if last > spec.s - 1:
            raise ValueError(
                f"--n {v['n']} and --num-active {count} need links {epsilon}..{last}, "
                f"but --s {spec.s} has links 1..{spec.s - 1}"
            )
        psi0 = (
            chain.launchpad_state(spec, epsilon, v["n"])
            if variant == "flat"
            else chain.gamma_state(spec, v["n"])
        )
    else:
        raise ValueError(f"unknown variant {variant!r}")
    program = register.rotation_window_program(spec.s, params.alpha, epsilon, count)
    return program, register.grover_initial_state(params), psi0


def _alternating_start(v):
    params = _grover(v["mu"])
    spec = _chain_spec(v["s"], v["coupling"])
    program = register.alternating_program(spec.s, params.theta)
    return program, register.grover_initial_state(params), chain.basis_state(spec, 1)


def _position_start(v):
    spec = _chain_spec(v["s"], v["coupling"])
    if v["n"] is not None:
        return (chain.launchpad_state(spec, _pad_size(v["n"], spec.s), v["n"]),)
    return (chain.basis_state(spec, 1),)


def _speed_law_from(v) -> speed.SpeedLaw:
    family = v["family"]
    if family == "localized":
        return speed.law_localized()
    if family == "shifted":
        _at_least("x0", v["x0"], 1)
        return speed.law_shifted(v["x0"])
    if family == "pad-ck":
        epsilon, k = v["epsilon"], v["k"]
        _at_least("epsilon", epsilon, 1)
        if not 1 <= k <= epsilon:
            raise ValueError(f"--k must be between 1 and --epsilon {epsilon}, got --k {k}")
        return speed.law_pad_ck(epsilon, k)
    if family == "pad-cn":
        _pad_size(v["n"])
        speed._check_pad_cn_memory(v["n"], f"--n {v['n']}")
        return speed.law_pad_cn(v["n"])
    if family == "gamma":
        s = max(2, _pad_size(v["n"]))
        speed._check_law_memory(s, f"--n {v['n']} with a chain of {s} sites")
        return speed.law_general(chain.gamma_state(chain.ChainSpec(s), v["n"]))
    raise ValueError(f"unknown speed family {family!r}")


def _run_speed_density(v):
    law = _speed_law_from(v)
    grid = v["grid"]
    _at_least("grid", grid, 1)
    # a gamma law's density makes (grid, s) sines with their complex cast: 24 B a site and row,
    # s = max(2, 2n - 1) <= 2n
    _check_memory((_ROW_BYTES + 48 * v["n"] * (v["family"] == "gamma")) * grid, f"--grid {grid}")
    vv = np.arange(1, grid + 1) / (grid + 1.0)
    return ["v", "f", "F"], [vv, law.density(vv), law.cdf(vv)]


def _multi_start(v):
    n, x0 = v["g"], v["x0"]
    _at_least("g", n, 1)
    params = _grover(v["mu"])
    spec = _chain_spec(v["s"], v["coupling"])
    if n > spec.s:
        raise ValueError(f"--g {n} excitations do not fit on --s {spec.s} sites")
    _at_least("x0", x0, n, f"--g {n}")
    if x0 > spec.s - 1:
        raise ValueError(f"--x0 must be at most --s {spec.s} minus 1, got --x0 {x0}")
    r1 = register.grover_initial_state(params)
    multi._check_product_start(spec.s, n, r1.size)  # the state holds less than its sweeps
    state0 = multi.SectorState.from_product(spec, range(1, n + 1), r1)
    return state0, x0, register.rotation_about_2(params.alpha)


def _multi_trajectory(state0, x0, g, times) -> register.RegisterTrajectory:
    rho = multi.single_link_densities(state0, x0, g, times)
    p0 = rho[:, 0, 0].real  # the target population itself, not (1 + s3)/2
    s3 = (rho[:, 0, 0] - rho[:, 1, 1]).real
    return register.RegisterTrajectory.from_coherence(times, rho[:, 1, 0], s3, p0)


def _run_measure(v):
    _, spec, program, r1, psi0 = _toy_setup(v)
    tau = v["tau"]
    if tau <= 0:
        raise ValueError("measurement time --tau must be positive")
    signs = {"plus": +1, "minus": -1}
    if v["outcome"] not in signs:
        raise ValueError(f"--outcome must be plus or minus, got {v['outcome']!r}")
    step, t_max, end = v["step"], v["t-max"], f"--t-max {v['t-max']!r}"
    if t_max is None:
        t_max, end = 4.0 * tau, "the --t-max default 4 tau"
        if not math.isfinite(t_max):  # a given --t-max is finite (_resolve)
            raise ValueError(f"--tau {tau!r} overflows {end}; give --t-max")
    if t_max - tau <= step:
        raise ValueError(
            f"--t-max must exceed --tau plus --step, got {end}, "
            f"--tau {tau!r}, --step {step!r}"
        )
    machine = register.MachineState.from_product(program, r1, psi0).evolve(tau)
    collapsed, probability = register.measure_register_sigma3(machine, signs[v["outcome"]])
    offsets = _time_grid(step, t_max - tau, step, f"--tau {tau!r} to {end} by --step {step!r}")
    traj = register.machine_trajectory(collapsed, offsets)
    columns = [tau + offsets, traj.s1, traj.s3, traj.r, traj.gamma, [probability] * offsets.size]
    return ["t", "s1", "s3", "r", "gamma", "p_outcome"], columns


def _run_oracle_check(v):
    if v["s"] < 3:
        raise ValueError(f"oracle-check needs --s >= 3, got --s {v['s']}")
    params, spec, program, r1, psi0 = _toy_setup(v)
    # every budget is checked before its stage allocates: the largest build first, before
    # any label is listed, then the states, which hold far less
    x0 = max(2, spec.s // 2)
    g = register.rotation_about_2(params.alpha)
    ham_link = oracle.build(spec, register.single_link_program(spec.s, x0, g), sector=2)
    free0 = multi.SectorState.from_product(spec, (1, 2))
    link0 = multi.SectorState.from_product(spec, (1, 2), r1)
    ham = oracle.build(spec, program, sector=1)
    machine0 = register.MachineState.from_product(program, r1, psi0)
    vec0 = machine0.spinors.reshape(-1)
    # the table of comparisons: each one's deviation at each of its samples
    checks = dict(
        machine_evolution=[], register_density=[], entropy_symmetry=[],
        free_sector=[], single_link_sector=[],
    )
    state, rho, entropy, free, link = checks.values()
    for t in np.linspace(0.5, 2.5 * spec.s, 12):
        analytic = machine0.evolve(t)
        dense = oracle.evolve(ham, vec0, t)
        rho_dense = oracle.partial_trace(dense, 2, "register")
        rho_cursor = oracle.partial_trace(dense, 2, "cursor")
        state.append(np.abs(analytic.spinors.reshape(-1) - dense).max())
        rho.append(np.abs(analytic.register_density_matrix() - rho_dense).max())
        entropy.append(
            abs(oracle.von_neumann_entropy(rho_dense) - oracle.von_neumann_entropy(rho_cursor))
        )
    ham_free = oracle.build(spec, np.ones((spec.s - 1, 1, 1), dtype=complex), sector=2)
    for devs, start, ham_sector, propagate, args in (
        (free, free0, ham_free, multi.propagate_free_sector, ()),
        (link, link0, ham_link, multi.propagate_single_link, (x0, g)),
    ):
        for t in (1.0, 0.75 * spec.s):
            analytic = propagate(start, *args, t).to_vector()
            devs.append(np.abs(analytic - oracle.evolve(ham_sector, start.to_vector(), t)).max())
    # np.max keeps a nan, which _emit refuses (exit 2)
    worst = np.array([np.max(devs) for devs in checks.values()])
    return ["check", "max_deviation"], [list(checks), worst], not (worst < _CHECK_TOL).all()


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
            _trajectory_runner(_position_start, ["mean_q"], chain.position_moments),
        ),
        "var-q": (
            "cursor position variance over time",
            position_options(50),
            _trajectory_runner(_position_start, ["var_q"], chain.position_moments),
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
            _trajectory_runner(_multi_start, _PAD_COLUMNS, _multi_trajectory),
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


def build_parser(command=None) -> argparse.ArgumentParser:
    """The CLI parser.  Given a subcommand's name, only that subcommand is built (all
    that parsing its command line reads), its usage naming them all as the whole
    parser's does; else every one is listed, and gets its options if no word is given."""
    parser = argparse.ArgumentParser(
        prog="qwclock",
        description="Scenario runner for the quantum-walk clock library (CSV output).",
    )
    commands = _commands()
    names = "{" + ",".join(commands) + "}" if command in commands else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=names)
    for name, (help_text, options, runner) in commands.items():
        if names and name != command:
            continue
        p = sub.add_parser(name, help=help_text)
        if command not in (None, name):
            continue
        for opt in options:
            p.add_argument(f"--{opt.name}", type=opt.typ, default=None, help=opt.help)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--scenario", default=None, help="key=value file of defaults")
        p.set_defaults(options=options, runner=runner)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        # one stderr line at most: non-finite values fail the norm checks or _emit
        with np.errstate(all="ignore"):
            scenario = _load_scenario(args.scenario) if args.scenario else {}
            values = _resolve(args.options, args, scenario)
            header, columns, *failed = args.runner(values)  # oracle-check adds a flag
            _emit(header, columns, args.out)
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
