import dataclasses
import json

import pytest

import run
import scenarios

TINY = {
    "trajectory": {"sites": 17},
    "cursor-sweep": {"sites": 33},
    "multi-sector": {"excitations": 2, "sites": 8},
    "speed-table": {"pad": 3, "grid": 50},
}
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    return dataclasses.replace(scenarios.WORKLOADS[name], **TINY[name])


@pytest.fixture
def cli(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    from qwclock import cli

    return cli


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(scenarios.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_of_each_workload(name, trace, cli):
    metrics, ops, details = run.run_workload(tiny(name), seed=3, seconds=0, trace=trace)
    assert len(ops) == 1 + run.MIN_CALLS
    assert [op.failed for op in ops] == [False] * len(ops)
    assert ops[0].argv == ["oracle-check"]
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(run.select(wanted, metrics)) == {m["name"] for m in wanted}
    if trace:
        hot = tiny(name).hot_layer
        assert metrics[hot + ".calls"] > 0
        assert 0.0 < metrics["trace.coverage"] <= 1.0
        assert {span[-1] for span in details["spans"]} == {name}


@pytest.mark.parametrize("name", list(TINY))
def test_seed_changes_only_the_seeded_flags(name):
    w = scenarios.WORKLOADS[name]

    def unseeded(seed):
        params = w.params(seed)
        argv = w.argv(params)
        seeded = {"--" + key for key in params}
        return tuple(v for i, v in enumerate(argv)
                     if v not in seeded and (i == 0 or argv[i - 1] not in seeded))

    assert len({unseeded(seed) for seed in range(20)}) == 1
    seeded = {tuple(sorted(w.params(seed).items())) for seed in range(20)}
    assert (len(seeded) == 1) == (name == "speed-table")  # it has no seeded flag


def _perturbed(text, row, col, delta=1e-8):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", list(TINY))
def test_verifier_catches_one_value_off_by_1e_8(name, cli, tmp_path):
    w = tiny(name)
    params = w.params(5)
    out = tmp_path / "out.csv"
    assert cli.main(w.argv(params) + ["--out", str(out)]) == 0
    text = out.read_text()
    problems, ref = w.check(params, text)
    assert problems == []
    rows = text.count("\n") - 1
    for col in range(len(w.header())):
        for row in (1, rows // 2, rows):
            problems, _ = w.check(params, _perturbed(text, row, col), ref)
            assert problems, (w.header()[col], row)
