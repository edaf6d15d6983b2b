import numpy as np
import pytest

import qwclock as qc
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


def test_oracle_check_passes(capsys):
    code, out = run_cli(["oracle-check", "--s", "6", "--mu", "4"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "check,max_deviation"
    assert len(lines) == 6
    for line in lines[1:]:
        name, dev = line.split(",")
        assert float(dev) < 1e-10


def test_parameter_errors_exit_2(capsys, tmp_path):
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


def test_resource_cap_exit_3(capsys, monkeypatch):
    code, _ = run_cli(
        ["multi", "--s", "30", "--g", "2", "--x0", "5", "--t-max", "1", "--step", "1"],
        capsys,
    )
    assert code == 3
    # a time grid whose sample count overflows to infinity
    assert main(["bloch", "--mu", "4", "--s", "17", "--t-max", "1e308"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert all(flag in err for flag in ("--t-min", "--t-max", "--step"))
    assert main(["measure", "--s", "17", "--tau", "4", "--t-max", "1e308"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--t-min" not in err
    assert all(flag in err for flag in ("--tau", "--t-max", "--step"))

    def no_dense_build(*args, **kwargs):
        raise AssertionError("dense matrix built before the sector cap check")

    with monkeypatch.context() as patch:
        patch.setattr("qwclock.oracle.build", no_dense_build)
        assert main(["oracle-check", "--s", "25"]) == 3
    assert capsys.readouterr().err.count("\n") == 1

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
