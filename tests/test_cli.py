import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwclock as qc
from qwclock import chain, cli, multi, speed
from qwclock.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


def test_bloch_columns_and_grid(capsys):
    code, out = run_cli(
        ["bloch", "--mu", "4", "--s", "17", "--t-max", "5", "--step", "0.5"], capsys
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "s1", "s3", "r", "gamma"]
    assert rows.shape == (11, 5)  # declared grid length
    assert np.isfinite(rows).all()
    assert abs(rows[0, 3] - 1.0) < 1e-12  # starts pure


def test_determinism_byte_identical(capsys):
    argv = ["entropy", "--mu", "4", "--s", "17", "--t-max", "8", "--step", "0.4"]
    _, first = run_cli(argv, capsys)
    _, second = run_cli(argv, capsys)
    assert first == second
    assert "\r" not in first


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.csv"
    code, out = run_cli(
        ["mean-q", "--s", "9", "--t-max", "2", "--step", "1", "--out", str(path)],
        capsys,
    )
    assert code == 0
    assert out == ""
    text = path.read_bytes().decode()
    assert text.startswith("t,mean_q\n")
    assert text.endswith("\n")
    assert len(text.strip().split("\n")) == 4


def test_speed_density_normalized(capsys):
    code, out = run_cli(
        ["speed-density", "--family", "localized", "--grid", "200"], capsys
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["v", "f", "F"]
    assert rows.shape == (200, 3)
    # the law behind the table integrates to 1
    assert abs(qc.law_localized().normalization() - 1.0) < 1e-8
    # emitted CDF is monotone; F(200/201) = 0.8734 for this edge-singular law
    assert (np.diff(rows[:, 2]) >= -1e-12).all()
    assert abs(rows[-1, 2] - 0.873347) < 1e-4


@pytest.mark.parametrize(
    "argv",
    [
        ["speed-density", "--family", "pad-ck", "--epsilon", "9", "--k", "3", "--grid", "50"],
        ["speed-density", "--family", "pad-cn", "--n", "4", "--grid", "50"],
        ["speed-density", "--family", "gamma", "--n", "4", "--grid", "50"],
        ["speed-density", "--family", "shifted", "--x0", "7", "--grid", "50"],
    ],
)
def test_speed_density_families(argv, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows.shape[0] == 50
    assert np.isfinite(rows).all()


def test_var_q_flat_pad_start(capsys):
    code, out = run_cli(
        ["var-q", "--s", "20", "--n", "3", "--t-max", "4", "--step", "1"], capsys
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert abs(rows[0, 1] - (3**2 - 1) / 3.0) < 1e-10


def test_launchpad_variants(capsys):
    for variant in ("telomere", "flat", "gamma"):
        code, out = run_cli(
            [
                "launchpad",
                "--variant",
                variant,
                "--mu",
                "6",
                "--s",
                "24",
                "--n",
                "3",
                "--t-max",
                "6",
                "--step",
                "2",
            ],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "p_target", "entropy", "s1", "s3", "r"]
        assert rows.shape == (4, 6)


def test_alternating_runs(capsys):
    code, out = run_cli(
        ["alternating", "--mu", "4", "--s", "17", "--t-max", "4", "--step", "1"],
        capsys,
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows.shape == (5, 6)


def test_multi_runs(capsys):
    code, out = run_cli(
        ["multi", "--mu", "4", "--g", "2", "--x0", "4", "--s", "10", "--t-max", "3", "--step", "1"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "p_target", "entropy", "s1", "s3", "r"]
    assert rows.shape == (4, 6)
    assert np.isfinite(rows).all()


def test_measure_requires_tau(capsys):
    code, _ = run_cli(["measure", "--mu", "4", "--s", "17"], capsys)
    assert code == 2


def test_measure_trajectory(capsys):
    code, out = run_cli(
        [
            "measure",
            "--mu", "4",
            "--s", "17",
            "--tau", "3.0",
            "--outcome", "minus",
            "--t-max", "7",
            "--step", "1",
        ],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "s1", "s3", "r", "gamma", "p_outcome"]
    assert rows[0, 0] == 4.0
    assert (rows[:, 5] == rows[0, 5]).all()
    assert 0.0 < rows[0, 5] < 1.0


def test_measure_grid_error_names_flags(capsys):
    argv = ["measure", "--mu", "4", "--s", "17", "--tau", "3", "--t-max", "2.5"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: --t-max must exceed --tau plus --step, "
        "got --t-max 2.5, --tau 3.0, --step 0.1\n"
    )
    # a defaulted --t-max is named as the default, not as a value never given
    assert main(["measure", "--s", "17", "--tau", "4", "--step", "20"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: --t-max must exceed --tau plus --step, "
        "got the --t-max default 4 tau, --tau 4.0, --step 20.0\n"
    )


def test_oracle_check_passes(capsys, monkeypatch):
    # s=3 is the smallest chain with a link for two excitations; s=25 was
    # refused by the old fixed sector caps (s <= 24)
    for s in ("6", "3", "25"):
        code, out = run_cli(["oracle-check", "--s", s, "--mu", "4"], capsys)
        assert code == 0, s
        lines = out.strip().split("\n")
        assert lines[0] == "check,max_deviation"
        assert len(lines) == 6
        for line in lines[1:]:
            name, dev = line.split(",")
            assert float(dev) < 1e-10
    # a failed check still emits the table, then exits 1 with one stderr line
    monkeypatch.setattr("qwclock.cli._CHECK_TOL", 0.0)
    assert main(["oracle-check", "--s", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("check,max_deviation\n")
    assert captured.err == "error: oracle-check deviation >= 0\n"


# each oracle-check comparison group: its dense Hamiltonian's (sector, register
# dimension), and the index of one of its samples
@pytest.mark.parametrize("group,sample", [
    ((1, 2), 0), ((1, 2), 11),  # machine state, register density and entropy symmetry
    ((2, 1), 0), ((2, 1), 1),  # the free sector
    ((2, 2), 0), ((2, 2), 1),  # the single-link sector
], ids=["machine-first", "machine-last", "free-first", "free-last", "link-first", "link-last"])
def test_oracle_check_refuses_a_nan_deviation(group, sample, capsys, monkeypatch):
    """A nan dense sample never passes: exit 2 with one error line, no table and no traceback."""
    evolve, seen = qc.oracle.evolve, []

    def nan_at_sample(ham, state, t):
        out = evolve(ham, state, t)
        if (ham.sector, ham.d) == group:
            seen.append(t)
            if len(seen) == sample + 1:
                out[0] = np.nan
        return out

    monkeypatch.setattr("qwclock.oracle.evolve", nan_at_sample)
    code = main(["oracle-check"])
    captured = capsys.readouterr()
    assert len(seen) > sample
    assert code == 2 and captured.out == ""
    assert captured.err == "error: refusing to emit non-finite value nan\n"


def test_parameter_errors_exit_2(capsys, tmp_path, monkeypatch):
    assert run_cli(["bloch", "--mu", "0"], capsys)[0] == 2
    assert run_cli(["bloch", "--s", "17", "--step", "-1"], capsys)[0] == 2
    assert run_cli(["bloch", "--s", "17", "--t-max", "-5"], capsys)[0] == 2
    assert run_cli(["speed-density", "--family", "nope"], capsys)[0] == 2
    assert run_cli(["launchpad", "--variant", "nope"], capsys)[0] == 2
    assert main(["measure", "--s", "17", "--tau", "4", "--outcome", "nope"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --outcome must be plus or minus, got 'nope'\n"
    # 4 tau, the --t-max default, overflows: refused naming --tau, not a --t-max never given
    assert main(["measure", "--s", "17", "--tau", "1e308"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --tau 1e+308 overflows the --t-max default 4 tau; give --t-max\n"
    nonfinite = [("bloch", flag, value)
                 for flag in ("t-min", "t-max", "step", "coupling")
                 for value in ("inf", "-inf", "nan")]
    nonfinite += [("measure", "tau", value) for value in ("inf", "nan")]
    for sub, flag, value in nonfinite:
        assert main([sub, "--s", "17", f"--{flag}={value}"]) == 2, (flag, value)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"--{flag} must be a finite number" in err
    missing = tmp_path / "missing" / "x.csv"
    assert main(["bloch", "--mu", "4", "--s", "17", "--out", str(missing)]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not missing.parent.exists()
    # measure's grid starts one step after --tau, so it takes no --t-min
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--s", "17", "--tau", "4", "--t-min", "3", "--t-max", "8"])
    assert exc.value.code == 2
    capsys.readouterr()
    # two excitations need a link x0 >= 2: refused before any state or dense build
    with monkeypatch.context() as patch:
        patch.setattr("qwclock.oracle.build", _must_not_run)
        patch.setattr("qwclock.multi.SectorState.from_product", _must_not_run)
        assert main(["oracle-check", "--s", "2"]) == 2
    assert capsys.readouterr().err == "error: oracle-check needs --s >= 3, got --s 2\n"
    # pad and excitation counts are checked in the runner, naming the flags given
    for argv, line in [
        (["mean-q", "--s", "9", "--n", "0"], "--n must be at least 1, got --n 0"),
        (["mean-q", "--s", "9", "--n", "6"], "--n 6 gives a pad of 2n-1 = 11 sites, more than --s 9"),
        (["var-q", "--s", "9", "--n", "6"], "--n 6 gives a pad of 2n-1 = 11 sites, more than --s 9"),
        (["speed-density", "--family", "gamma", "--n", "0"], "--n must be at least 1, got --n 0"),
        (["launchpad", "--variant", "gamma", "--n", "0", "--mu", "4", "--s", "17"],
         "--n must be at least 1, got --n 0"),
        (["launchpad", "--variant", "flat", "--n", "20", "--mu", "4", "--s", "17"],
         "--n 20 and --num-active 3 need links 39..41, but --s 17 has links 1..16"),
        (["multi", "--g", "0", "--s", "8"], "--g must be at least 1, got --g 0"),
        (["multi", "--g", "9", "--s", "8"], "--g 9 excitations do not fit on --s 8 sites"),
        (["multi", "--g", "3", "--s", "8", "--x0", "2"], "--x0 must be at least --g 3, got --x0 2"),
        (["multi", "--g", "2", "--s", "8", "--x0", "8"],
         "--x0 must be at most --s 8 minus 1, got --x0 8"),
        (["speed-density", "--family", "pad-cn", "--n", "0"], "--n must be at least 1, got --n 0"),
        (["speed-density", "--family", "pad-ck", "--epsilon", "0"],
         "--epsilon must be at least 1, got --epsilon 0"),
        (["speed-density", "--family", "pad-ck", "--k", "10"],
         "--k must be between 1 and --epsilon 9, got --k 10"),
        (["speed-density", "--family", "shifted", "--x0", "0"],
         "--x0 must be at least 1, got --x0 0"),
        (["launchpad", "--variant", "flat", "--n", "3", "--s", "17", "--mu", "4",
          "--num-active", "-1"], "--num-active must be at least 0, got --num-active -1"),
        (["bloch", "--mu", "0"], "--mu must be at least 1, got --mu 0"),
        (["bloch", "--s", "1"], "--s must be at least 2, got --s 1"),
        (["bloch", "--coupling", "0"], "--coupling must be positive, got --coupling 0.0"),
        (["speed-density", "--grid", "0"], "--grid must be at least 1, got --grid 0"),
        (["launchpad", "--variant", "telomere", "--s", "2"],
         "--num-active 25 needs links 1..25, but --s 2 has links 1..1"),
        (["bloch", "--s", "17", "--step", "0"], "--step must be positive, got --step 0.0"),
        (["measure", "--s", "17", "--tau", "4", "--step", "0"],
         "--step must be positive, got --step 0.0"),
        (["mean-q", "--s", "17", "--t-min", "5", "--t-max", "4"],
         "--t-max must be greater than --t-min, got --t-max 4.0 and --t-min 5.0"),
        # a coupling that overflows lam * t makes nan phases, which fail the norm checks
        (["mean-q", "--s", "33", "--coupling", "1e308", "--t-max", "2"],
         "state norm^2 = nan deviates from 1"),
        (["bloch", "--mu", "4", "--s", "17", "--coupling", "1e308", "--t-max", "2"],
         "machine norm^2 = nan deviates from 1"),
        # and from 640 sites, where the one-column route's anchored phases stay finite
        (["bloch", "--mu", "4", "--s", "700", "--coupling", "1e308", "--t-max", "2"],
         "machine norm^2 = nan deviates from 1"),
    ]:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"error: {line}\n", argv
    # the --num-active default floor(pi/4 2^(mu/2)) overflows a float from --mu 2048
    for argv in (["--mu", "2048", "--s", "17", "--t-max", "1"], ["--mu", "100000"]):
        assert main(["launchpad", *argv]) == 2, argv
        assert capsys.readouterr().err == (
            f"error: --mu {argv[1]} overflows the --num-active default "
            "floor(pi/4 2^(mu/2)); give --num-active\n"
        )


def test_mean_q_lies_on_the_sites(capsys):
    """A mean over sites 1..s lies in [1, s]; summed rounding once printed
    0.999999999999999 for the cursor at site 1."""
    assert main(["mean-q", "--s", "513", "--n", "1", "--step", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    means = np.array([float(row.split(",")[1]) for row in rows])
    assert means.size == 514 and ((means >= 1.0) & (means <= 513.0)).all()


def test_emit_normalizes_negative_zero_and_refuses_non_finite(tmp_path, capsys):
    from qwclock.cli import _emit

    _emit(["name", "x", "y"], [("a", "b"), np.array([-0.0, 1.0 / 3.0]), [2.5, -1e-300]], None)
    assert capsys.readouterr().out == "name,x,y\na,0,2.5\nb,0.333333333333333,-1e-300\n"
    out = tmp_path / "x.csv"
    for bad in (np.nan, -np.inf):
        with pytest.raises(ValueError, match=f"refusing to emit non-finite value {bad!r}"):
            _emit(["x"], [np.array([1.0] * 300 + [bad])], str(out))
    assert not out.exists()


def test_trajectory_runner_looks_up_the_trajectory_per_call(capsys, monkeypatch):
    """A wrapper installed on register.register_trajectory after import runs,
    as a tracer's span does."""
    calls = []
    trajectory = qc.register.register_trajectory

    def wrapper(*args):
        calls.append(len(args[-1]))
        return trajectory(*args)

    monkeypatch.setattr(qc.register, "register_trajectory", wrapper)
    assert run_cli(["bloch", "--mu", "4", "--s", "17", "--t-max", "2"], capsys)[0] == 0
    assert calls == [21]


def _must_not_run(*args, **kwargs):
    raise AssertionError("ran past the check that should refuse first")


def _one_line_naming(capsys, *flags):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert all(flag in err for flag in flags), err


def test_resource_cap_exit_3(capsys, monkeypatch):
    # the sector budget is checked before the C(400, 4) labels are listed;
    # multi --s 30 --g 2 now runs (test_multi checks it against the oracle)
    with monkeypatch.context() as patch:
        patch.setattr("qwclock.oracle.sector_occupations", _must_not_run)
        patch.setattr("qwclock.multi._occupation_array", _must_not_run)
        assert main(["multi", "--s", "400", "--g", "4"]) == 3
        _one_line_naming(capsys, "s=400", "n=4")
        # at s = 150 the state (2 GB) fits and its sweep does not: refused before either
        assert main(["multi", "--s", "150", "--g", "4", "--x0", "13"]) == 3
        _one_line_naming(capsys, "s=150", "n=4")
    argv = ["multi", "--s", "30", "--g", "2", "--x0", "5", "--t-max", "1", "--step", "1"]
    assert run_cli(argv, capsys)[0] == 0
    # time grids past the budget, down to one whose sample count is infinite
    for grid in (["--t-max", "1e308"], ["--step", "1e-300"], ["--t-max", "1e20", "--step", "1"]):
        assert main(["bloch", "--mu", "4", "--s", "17", *grid]) == 3, grid
        _one_line_naming(capsys, "--t-min", "--t-max", "--step")
    # s = 10^8 sites: the per-site estimate refuses before the program exists
    with monkeypatch.context() as patch:
        patch.setattr("qwclock.register.PrimitiveProgram", _must_not_run)
        assert main(["bloch", "--mu", "4", "--s", "100000000", "--t-max", "1", "--step", "1"]) == 3
    _one_line_naming(capsys, "--s 100000000")
    # s = 100000 sites runs on the FFT kernel, which never builds the 160 GB complex V
    with monkeypatch.context() as patch:
        patch.setattr("qwclock.chain.eigenbasis", _must_not_run)
        patch.setattr("qwclock.chain._complex_modes", _must_not_run)
        argv = ["bloch", "--mu", "4", "--s", "100000", "--t-max", "1", "--step", "1"]
        assert run_cli(argv, capsys)[0] == 0
    # the derived --s default 2**mu + 1, checked in integer arithmetic
    for mu in ("100000", "1000", "40"):
        assert main(["bloch", "--mu", mu]) == 3, mu
        _one_line_naming(capsys, f"--mu {mu}")
    assert main(["measure", "--s", "17", "--tau", "4", "--t-max", "1e308"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--t-min" not in err
    assert all(flag in err for flag in ("--tau", "--t-max", "--step"))
    # a defaulted --t-max is named as the default, not as a value never given
    assert main(["measure", "--s", "17", "--tau", "1e307"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--t-max 4e" not in err
    assert all(flag in err for flag in ("--tau 1e+307", "the --t-max default 4 tau", "--step"))

    # oracle-check refuses before any dense matrix, label or sector state: at
    # s=10000 and at s=83 in its largest build, checked first
    with monkeypatch.context() as patch:
        patch.setattr("qwclock.multi.SectorState.from_product", _must_not_run)
        patch.setattr("qwclock.oracle.sector_occupations", _must_not_run)
        patch.setattr("qwclock.multi._occupation_array", _must_not_run)
        assert main(["oracle-check", "--s", "10000"]) == 3
    _one_line_naming(capsys, "s=10000")
    with monkeypatch.context() as patch:
        patch.setattr("qwclock.oracle.sector_occupations", _must_not_run)
        assert main(["oracle-check", "--s", "83"]) == 3
    _one_line_naming(capsys, "s=83")

    def out_of_memory(values):
        raise MemoryError()

    monkeypatch.setattr("qwclock.cli._run_speed_density", out_of_memory)
    assert main(["speed-density"]) == 3
    assert capsys.readouterr().err == "error: out of memory\n"


def test_gamma_speed_law_refused_before_its_chain_exists(capsys, monkeypatch):
    """speed-density --family gamma budgets its chain's sites and each thread's
    quadrature temporaries: --n 200000 (399,999 sites) exits 3 within a second,
    naming --n, before the state is built."""
    monkeypatch.setattr("qwclock.chain.gamma_state", _must_not_run)
    start = time.perf_counter()
    assert main(["speed-density", "--family", "gamma", "--n", "200000"]) == 3
    assert time.perf_counter() - start < 1.0
    _one_line_naming(capsys, "--n 200000")


def test_pad_cn_speed_law_refused_before_its_exact_mean(capsys, monkeypatch):
    """speed-density --family pad-cn budgets the exact mean's 32 B per term:
    --n 10^12 and --n 2^27 (4 GiB) exit 3 naming --n, before the law is built."""
    monkeypatch.setattr("qwclock.speed.law_pad_cn", _must_not_run)
    for n in ("1000000000000", "134217728"):
        assert main(["speed-density", "--family", "pad-cn", "--n", n]) == 3, n
        _one_line_naming(capsys, f"--n {n}")


def test_scenario_file_with_override(tmp_path, capsys):
    scenario = tmp_path / "run.scn"
    scenario.write_text("mu=4\ns=17\nt-max=5\nstep=1\n# comment line\n")
    code, out = run_cli(["entropy", "--scenario", str(scenario)], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows.shape == (6, 2)
    # command line overrides the file
    code, out = run_cli(
        ["entropy", "--scenario", str(scenario), "--t-max", "2"], capsys
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows.shape == (3, 2)


def test_scenario_file_unknown_key(tmp_path, capsys):
    scenario = tmp_path / "run.scn"
    scenario.write_text("mu=4\nbogus=1\n")
    code, _ = run_cli(["entropy", "--scenario", str(scenario)], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["multi", "--help"], ["frobnicate"], [], ["multi", "--g", "x"], ["bloch", "--bogus", "1"]],
)
def test_one_subcommand_parser_keeps_every_byte(argv, capsys):
    """main builds the parser for argv[0] alone, and it exits with the code and
    prints the stdout and stderr bytes of the whole parser: help, usage (which
    names every subcommand) and errors.  Given a subcommand, it builds only that
    one; given anything else, all of them."""
    results = []
    for parser in (cli.build_parser(argv[0] if argv else None), cli.build_parser()):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        results.append((exc.value.code, *capsys.readouterr()))
    assert results[0] == results[1]
    assert results[0][0] == (0 if "--help" in argv else 2)
    (sub,) = (a for a in cli.build_parser(argv[0] if argv else None)._actions if a.choices)
    known = argv[:1] if argv[:1] in (["multi"], ["bloch"]) else list(cli._commands())
    assert list(sub.choices) == known


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


# Flag values for the exit-code contract: every size is either tiny or far
# past the memory budget, so no example allocates much.
_F = ["-1", "0", "0.5", "3", "1e-300", "1e20", "1e308", "inf", "nan"]
_I = ["-1", "0", "1", "2", "3"]
_S = ["-1", "1", "2", "3", "5", "9", "20000"]
_MU = [None, "-1", "1", "2", "4", "40", "100000"]
_GRID = {
    "t-min": [None, *_F],
    "t-max": ["-1", "0.5", "3", "1e20", "1e308", "nan"],
    "step": ["-1", "0", "0.5", "1", "1e-300", "inf"],
}
_TOY = {"mu": _MU, "s": [None, *_S], "coupling": [None, *_F], **_GRID}
_POSITION = {"s": _S, "n": [None, *_I], "coupling": [None, *_F], **_GRID}
_FLAGS = {
    "bloch": _TOY,
    "entropy": _TOY,
    "probability": _TOY,
    "alternating": _TOY,
    "mean-q": _POSITION,
    "var-q": _POSITION,
    "speed-density": {
        "family": [None, "localized", "shifted", "pad-ck", "pad-cn", "gamma", "nope"],
        "x0": [None, *_I],
        "epsilon": [None, *_I, "9"],
        "k": [None, *_I],
        "n": [None, *_I],
        "grid": ["-1", "0", "3", "1000000000000"],
    },
    "launchpad": {
        "variant": [None, "telomere", "flat", "gamma", "nope"],
        "mu": _MU,
        "s": [None, *_S],
        "n": [None, *_I],
        "num-active": [None, *_I],
        "coupling": [None, *_F],
        **_GRID,
    },
    "multi": {"mu": _MU, "g": [None, *_I], "x0": [None, *_I], "s": _S, **_GRID},
    "measure": {
        "mu": _MU,
        "s": [None, *_S],
        "tau": [None, *_F],
        "outcome": [None, "plus", "minus", "nope"],
        "t-max": [None, *_GRID["t-max"]],
        "step": [None, *_GRID["step"]],
    },
    "oracle-check": {"mu": _MU, "s": [None, *_S], "coupling": [None, *_F]},
}


@st.composite
def _cli_argv(draw):
    sub = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [sub]
    for flag, values in _FLAGS[sub].items():
        value = draw(st.sampled_from(values))
        if value is not None:
            argv.append(f"--{flag}={value}")
    out = draw(st.sampled_from([None, "ok.csv", "missing/x.csv"]))
    return argv, out


def test_exit_code_contract(capsys, tmp_path):
    """0 ok, 1 oracle-check only, 2 or 3 with exactly one stderr line."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_cli_argv())
    def check(case):
        argv, out = case
        if out is not None:
            argv = [*argv, "--out", str(tmp_path / out)]
        with warnings.catch_warnings(record=True) as caught:  # stderr lines, too
            warnings.simplefilter("always")
            code = main(argv)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert code in (0, 2, 3) or (code == 1 and argv[0] == "oracle-check"), argv
        if code != 0:
            assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)
            assert not caught, (argv, [str(w.message) for w in caught])

    check()


_NUMPY_ONLY = """
import sys
sys.modules["scipy"] = None  # any scipy import now fails
from qwclock.cli import main
runs = [
    ["bloch", "--mu", "4", "--s", "9", "--t-max", "2", "--step", "1"],
    ["bloch", "--mu", "4", "--s", "700", "--t-max", "2", "--step", "1"],  # the FFT kernel
    ["entropy", "--mu", "4", "--s", "9", "--t-max", "2", "--step", "1"],
    ["probability", "--mu", "4", "--s", "9", "--t-max", "2", "--step", "1"],
    ["mean-q", "--s", "9", "--t-max", "2", "--step", "1"],
    ["var-q", "--s", "9", "--n", "2", "--t-max", "2", "--step", "1"],
    ["speed-density", "--family", "gamma", "--n", "3", "--grid", "3"],
    ["launchpad", "--mu", "4", "--s", "12", "--n", "2", "--t-max", "2", "--step", "1"],
    ["alternating", "--mu", "4", "--s", "9", "--t-max", "2", "--step", "1"],
    ["multi", "--mu", "4", "--g", "2", "--x0", "3", "--s", "6", "--t-max", "2", "--step", "1"],
    ["measure", "--mu", "4", "--s", "9", "--tau", "1", "--t-max", "3", "--step", "1"],
    ["oracle-check", "--mu", "4", "--s", "4"],
]
print([main(argv) for argv in runs])
"""


def test_runtime_needs_numpy_only():
    """Every subcommand runs with scipy unimportable; scipy is test-only."""
    package_root = str(Path(qc.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _NUMPY_ONLY],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert result.returncode == 0, result.stderr
    codes = result.stdout.strip().splitlines()[-1]
    assert codes == str([0] * 12), codes


_SPREAD = [
    ["speed-density", "--family", "gamma", "--n", "20", "--grid", "200"],
    ["speed-density", "--family", "pad-ck", "--grid", "200"],
    *(["mean-q", "--s", s, "--n", "3", "--step", "1"] for s in ("33", "513", "769")),
    *(["var-q", "--s", s, "--step", "1"] for s in ("33", "513", "769")),
]


# each loop's declared cost per call against the cut: True where it spreads.  The
# multi-sector workload, default multi and multi_small.csv's run are slower on two
# CPUs than on one; a cursor-sweep window, a speed-table point and a 256-site
# multi sample are faster.  A GEMM-path mean-q window reads its basis once, so
# below 240 sites it touches under 1 MiB
_DECISIONS = [
    ("multi --mu 4 --g 4 --s 16 --x0 13 --step 1", False),
    ("multi", False),
    ("multi --mu 4 --g 2 --x0 4 --s 10 --t-max 10 --step 1", False),
    ("speed-density --family pad-ck --grid 20", False),
    ("mean-q --s 129 --step 0.5", False),
    ("mean-q --s 239 --t-max 40", False),
    ("mean-q --s 240 --t-max 40", True),
    ("mean-q --s 513 --n 9 --step 1", True),
    ("speed-density --family gamma --n 20 --grid 20", True),
    ("multi --g 2 --s 256 --x0 128 --t-max 1", True),
    ("mean-q --s 769 --step 1", True),
]


@pytest.mark.parametrize("args,spread", _DECISIONS, ids=[args for args, _ in _DECISIONS])
def test_loops_spread_by_their_declared_cost(args, spread, monkeypatch):
    costs, each = [], chain._each

    def recording_each(fn, count, cost):
        costs.append(cost)
        each(fn, count, cost)

    for module in (chain, multi, speed):
        monkeypatch.setattr(module, "_each", recording_each)
    assert main(args.split() + ["--out", os.devnull]) == 0
    assert costs and all((cost >= chain._SPREAD_BYTES) == spread for cost in costs)


@pytest.mark.parametrize("argv", _SPREAD, ids=" ".join)
def test_output_bytes_do_not_depend_on_the_cpu_count(argv, monkeypatch, capsys):
    outputs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(chain, "_cpus", lambda: cpus)
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.mark.parametrize("s,drifts", [(513, (9, 15)), (769, (20, 25))])
def test_position_drift_exits_2_with_the_per_sample_line(s, drifts, monkeypatch, capsys):
    """Two samples drift, by different amounts, in different windows.  At any
    CPU count the CLI exits 2 with the line chain.propagate raises at the
    first of them, which the per-sample loop printed.  Below 640 sites a
    complex time takes the phases off the unit circle; from 640 sites on the
    kernel's output is scaled."""
    grid = cli._time_grid(0.0, float(s), 1.0)
    if s < chain._FFT_SITES:
        time_grid = cli._time_grid

        def drifting_grid(*args):
            times = time_grid(*args).astype(complex)
            times[list(drifts)] += [1e-4j, 2e-4j]
            return times

        monkeypatch.setattr(cli, "_time_grid", drifting_grid)
        grid = drifting_grid(0.0, float(s), 1.0)
    else:
        evolve = chain._evolve

        def drifting(spec, coeff, times, windows, step=None):
            for window, psi in evolve(spec, coeff, times, windows, step):
                scale = 1.0 + np.isin(np.asarray(times)[window], grid[drifts[0]]) * 1e-6
                scale += np.isin(np.asarray(times)[window], grid[drifts[1]]) * 2e-6
                yield window, psi * scale[:, None, None]

        monkeypatch.setattr(chain, "_evolve", drifting)
    psi0 = chain.basis_state(chain.ChainSpec(s), 1)
    for t in grid[: drifts[0]]:
        chain.propagate(psi0, t)
    with pytest.raises(qc.NormalizationError) as first:
        chain.propagate(psi0, grid[drifts[0]])
    for cpus in (1, 2, 3):
        monkeypatch.setattr(chain, "_cpus", lambda: cpus)
        assert main(["mean-q", "--s", str(s), "--step", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {first.value}\n"


def _traced_slope(argv, sizes, tmp_path, monkeypatch):
    """The estimates cli checks over main(argv.format(size)) at each size, and the slope of
    its traced peak from sizes[0] to sizes[1].  One thread; each traced run starts with a
    cold basis cache, as a CLI process does, after one untraced run at a hundredth of the
    smaller size has made what any run makes once."""
    checked, check_memory = [], cli._check_memory

    def recording_check(nbytes, what):
        checked.append(nbytes)
        check_memory(nbytes, what)

    monkeypatch.setattr(chain, "_cpus", lambda: 1)
    out = ["--out", str(tmp_path / "out.csv")]
    assert main([*argv.format(max(2, sizes[0] // 100)).split(), *out]) == 0
    monkeypatch.setattr(cli, "_check_memory", recording_check)
    peaks = []
    for size in sizes:
        chain._complex_modes.cache_clear()
        tracemalloc.start()
        try:
            assert main([*argv.format(size).split(), *out]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return checked, (peaks[1] - peaks[0]) / (sizes[1] - sizes[0])


def test_row_estimate_bounds_the_traced_slope_of_a_trajectory(tmp_path, monkeypatch):
    """_time_grid checks _ROW_BYTES = 400 B per sample, to the byte, and a run holds less
    per row.  multi has the most columns (six, as launchpad, alternating and measure
    have) and holds the most per row, its densities and their check beside the register
    series: 168 B a row from 3,001 rows to 9,001 (bloch and measure 124 B a row from
    100,001 to 300,001, past the windows that hold their peak at fewer)."""
    argv = "multi --g 1 --s 9 --x0 4 --t-max {} --step 1"
    checked, slope = _traced_slope(argv, (3000, 9000), tmp_path, monkeypatch)
    assert cli._ROW_BYTES == 400
    assert checked == [cli._SITE_BYTES * 9, 400 * 3001, cli._SITE_BYTES * 9, 400 * 9001]
    assert slope <= cli._ROW_BYTES


@pytest.mark.parametrize(
    "family,n,sizes", [("localized", 0, (10000, 30000)), ("gamma", 12, (500, 1500))]
)
def test_grid_estimate_bounds_the_traced_slope_of_a_speed_density(
    family, n, sizes, tmp_path, monkeypatch
):
    """speed-density checks (_ROW_BYTES + 48 n) B per --grid point, to the byte, for the
    gamma law of --n n (and _ROW_BYTES for a closed-form law): its density makes
    (grid, s) sines with their complex cast, 24 B a site and row, on s = 2n - 1 sites (2
    at n = 1).  A run holds less per point: 63 + 24 s B for gamma at n = 5, 20 and 40
    from 3,000 points to 9,000, and 57 B for localized.  At n = 12 the slope is above
    _ROW_BYTES alone, which the check once was."""
    argv = f"speed-density --family {family} --n {max(n, 1)} --grid {{}}"
    checked, slope = _traced_slope(argv, sizes, tmp_path, monkeypatch)
    assert checked == [(cli._ROW_BYTES + 48 * n) * grid for grid in sizes]
    assert slope <= cli._ROW_BYTES + 48 * n
    assert not n or slope > cli._ROW_BYTES


@pytest.mark.parametrize(
    "argv", ["measure --mu 3 --s {} --tau 1 --t-max 1.15", "bloch --mu 3 --s {} --t-max 0.05"]
)
def test_site_estimate_bounds_the_traced_slope_of_a_one_sample_run(argv, tmp_path, monkeypatch):
    """_chain_spec checks _SITE_BYTES = 512 B per site, to the byte, before the chain
    exists.  On a one-sample grid on the FFT path, which builds no s x s basis (the
    GEMM path's basis checks itself), from 2,000 sites to 6,000 the traced peak grows
    by 467 B a site for measure and 435 for bloch: no more than the estimate, and more
    than half of it."""
    checked, slope = _traced_slope(argv, (2000, 6000), tmp_path, monkeypatch)
    assert cli._SITE_BYTES == 512
    assert checked == [512 * 2000, 400, 512 * 6000, 400]
    assert slope <= cli._SITE_BYTES < 2 * slope
