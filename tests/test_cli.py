import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwclock as qc
from qwclock import chain, cli
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


def test_parameter_errors_exit_2(capsys, tmp_path, monkeypatch):
    assert run_cli(["bloch", "--mu", "0"], capsys)[0] == 2
    assert run_cli(["bloch", "--s", "17", "--step", "-1"], capsys)[0] == 2
    assert run_cli(["bloch", "--s", "17", "--t-max", "-5"], capsys)[0] == 2
    assert run_cli(["speed-density", "--family", "nope"], capsys)[0] == 2
    assert run_cli(["launchpad", "--variant", "nope"], capsys)[0] == 2
    assert main(["measure", "--s", "17", "--tau", "4", "--outcome", "nope"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --outcome must be plus or minus, got 'nope'\n"
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
         "norm^2 drifted to nan after propagation"),
        (["bloch", "--mu", "4", "--s", "17", "--coupling", "1e308", "--t-max", "2"],
         "norm^2 drifted by nan along the trajectory"),
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
        patch.setattr("qwclock.multi.sector_occupations", _must_not_run)
        assert main(["multi", "--s", "400", "--g", "4"]) == 3
    _one_line_naming(capsys, "s=400", "n=4")
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
    # s = 100000 sites runs on the FFT kernel, which never builds the 80 GB V
    with monkeypatch.context() as patch:
        patch.setattr("qwclock.chain.eigenbasis", _must_not_run)
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

    # oracle-check refuses before any dense matrix: at s=10000 in its sector
    # states, before their labels; at s=83 in its largest build, built first
    with monkeypatch.context() as patch:
        patch.setattr("qwclock.oracle.build", _must_not_run)
        patch.setattr("qwclock.multi.sector_occupations", _must_not_run)
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
        evolve_modes = chain._evolve_modes

        def drifting(spec, coeff, times):
            scale = 1.0 + np.isin(np.asarray(times), grid[drifts[0]]) * 1e-6
            scale += np.isin(np.asarray(times), grid[drifts[1]]) * 2e-6
            return evolve_modes(spec, coeff, times) * scale[None, :, None]

        monkeypatch.setattr(chain, "_evolve_modes", drifting)
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
