"""Byte-stable golden CSV files, generated once and checked thereafter."""

from pathlib import Path

import pytest

from qwclock.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = [
    ("bloch_mu4_s17.csv", ["bloch", "--mu", "4", "--s", "17", "--t-max", "8", "--step", "0.5"]),
    ("entropy_mu4_s17.csv", ["entropy", "--mu", "4", "--s", "17", "--t-max", "12", "--step", "0.5"]),
    ("speed_localized_g40.csv", ["speed-density", "--family", "localized", "--grid", "40"]),
    ("speed_padcn_n5_g40.csv", ["speed-density", "--family", "pad-cn", "--n", "5", "--grid", "40"]),
    (
        "speed_shifted_x3_g40.csv",
        ["speed-density", "--family", "shifted", "--x0", "3", "--grid", "40"],
    ),
    ("speed_gamma_n5_g40.csv", ["speed-density", "--family", "gamma", "--n", "5", "--grid", "40"]),
    (
        "launchpad_gamma.csv",
        ["launchpad", "--variant", "gamma", "--mu", "6", "--s", "24", "--n", "3",
         "--t-max", "12", "--step", "1"],
    ),
    (
        "multi_small.csv",
        ["multi", "--mu", "4", "--g", "2", "--x0", "4", "--s", "10",
         "--t-max", "10", "--step", "1"],
    ),
    (
        "measure_minus.csv",
        ["measure", "--mu", "4", "--s", "17", "--tau", "4.0", "--outcome", "minus",
         "--t-max", "12", "--step", "1"],
    ),
    (
        "probability_mu4_s17.csv",
        ["probability", "--mu", "4", "--s", "17", "--t-max", "8", "--step", "0.5"],
    ),
    (
        "alternating_mu4_s17.csv",
        ["alternating", "--mu", "4", "--s", "17", "--t-max", "12", "--step", "0.5"],
    ),
    (
        "launchpad_telomere.csv",
        ["launchpad", "--variant", "telomere", "--mu", "6", "--s", "24",
         "--t-max", "12", "--step", "1"],
    ),
    (
        "launchpad_flat.csv",
        ["launchpad", "--variant", "flat", "--mu", "6", "--s", "24", "--n", "3",
         "--t-max", "12", "--step", "1"],
    ),
    ("mean_q_s33_n3.csv", ["mean-q", "--s", "33", "--n", "3", "--t-max", "16", "--step", "1"]),
    ("var_q_s33.csv", ["var-q", "--s", "33", "--t-max", "16", "--step", "1"]),
]


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_csv(name, argv, tmp_path):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()
