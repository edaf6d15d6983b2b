"""The record classes are plain read-only classes, and importing the CLI generates no code.

Ten classes hold a computation's inputs or results: ChainSpec, CursorWavefunction,
PositionStatistics, GroverParams, MachineState, RegisterTrajectory, OccupationSet,
SectorState, DenseHamiltonian and EmpiricalSpeed.  Each __init__ writes its fields once;
assigning or deleting an attribute raises AttributeError.  ChainSpec, OccupationSet and
GroverParams compare and hash by value, the others by identity.
"""

import copy
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qwclock as qc
from qwclock import chain, oracle

# the source strings compiled while the CLI module is imported and its parser built, on
# the CPython versions CI runs: SpeedLaw's four dataclass methods (__init__, __repr__,
# __setattr__, __delattr__) and LindbladFit's NamedTuple __new__ with one ForwardRef per
# string annotation (four).  The ten record classes and the CLI's option record add none
_GENERATED = {(3, 10): 9, (3, 11): 9}

# the stdlib modules the package imports come first, so only the package's own import
# is counted, whichever of them a numpy version imports itself
_COUNT_GENERATED = """
import argparse, contextlib, ctypes, dataclasses, functools, itertools, math, os, sys
import threading, typing
import numpy
sources = []

def hook(event, args):
    if event == "compile" and args[1] == "<string>":
        sources.append(args[0])

sys.addaudithook(hook)
import qwclock.cli
qwclock.cli.build_parser()
print(len(sources))
for source in sources:
    print(repr(source)[:80])
"""


def test_importing_the_cli_generates_only_the_two_kept_classes_code():
    """61 source strings were compiled before the record classes were plain classes."""
    expected = _GENERATED.get(sys.version_info[:2])
    if expected is None:
        pytest.skip(f"no count pinned for Python {sys.version_info[0]}.{sys.version_info[1]}")
    env = {**os.environ, "PYTHONPATH": str(Path(qc.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", _COUNT_GENERATED],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert result.returncode == 0, result.stderr
    count, *sources = result.stdout.splitlines()
    assert int(count) == expected, sources


_FIELDS = {
    qc.ChainSpec: "s lam",
    qc.CursorWavefunction: "spec amplitudes",
    qc.PositionStatistics: "distribution mean variance",
    qc.GroverParams: "mu chi theta alpha",
    qc.MachineState: "spec program spinors",
    qc.RegisterTrajectory: "times s1 s2 s3 r gamma gamma_defined entropy p_success lam1 lam2",
    qc.OccupationSet: "sites",
    qc.SectorState: "spec n amplitudes",
    oracle.DenseHamiltonian: "spec d sector cursor_labels matrix",
    qc.EmpiricalSpeed: "speeds masses mean variance",
}
_BY_VALUE = (qc.ChainSpec, qc.OccupationSet, qc.GroverParams)


def _records():
    """One of each record class, built through the public API."""
    spec = qc.ChainSpec(9)
    psi = qc.basis_state(spec, 2)
    machine = qc.MachineState.from_product(qc.toy_program(9, 0.3), [0.6, 0.8], psi)
    return [
        spec,
        psi,
        qc.position_statistics(psi),
        qc.grover_params(4),
        machine,
        qc.machine_trajectory(machine, np.arange(3.0)),
        qc.OccupationSet((1, 3)),
        qc.SectorState.from_product(spec, (1, 2), [0.6, 0.8]),
        oracle.build(qc.ChainSpec(4), qc.toy_program(4, 0.3), sector=1),
        qc.empirical_speed(spec, psi, 2.0),
    ]


def test_each_record_takes_its_fields_in_order_and_holds_them():
    records = _records()
    assert [type(record) for record in records] == list(_FIELDS)
    for record in records:
        names = _FIELDS[type(record)].split()
        assert list(inspect.signature(type(record)).parameters) == names
        assert [name for name in vars(record) if not name.startswith("_")] == names
        fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in names)
        assert repr(record) == f"{type(record).__name__}({fields})"
    assert repr(qc.ChainSpec(9)) == "ChainSpec(s=9, lam=1.0)"


def test_each_record_is_read_only():
    for record in _records():
        before = dict(vars(record))
        for name in [*_FIELDS[type(record)].split(), "other"]:
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert list(vars(record)) == list(before)
        assert all(vars(record)[name] is value for name, value in before.items())


def test_three_records_compare_and_hash_by_value_and_the_rest_by_identity():
    for record in _records():
        twin = copy.copy(record)
        assert record == record and twin is not record
        if isinstance(record, _BY_VALUE):
            assert twin == record and hash(twin) == hash(record)
        else:
            assert twin != record and hash(record) == object.__hash__(record)
    assert qc.ChainSpec(9) == qc.ChainSpec(9, 1.0) == qc.ChainSpec(np.int64(9), 1)
    assert hash(qc.ChainSpec(9)) == hash(qc.ChainSpec(9, 1.0))
    assert qc.ChainSpec(9) != qc.ChainSpec(9, 2.0) and qc.ChainSpec(9) != qc.ChainSpec(10)
    assert qc.ChainSpec(9) != (9, 1.0)
    assert qc.OccupationSet([1, 3]) == qc.OccupationSet((np.int64(1), 3))
    assert len({qc.OccupationSet([1, 3]), qc.OccupationSet((1, 3)), qc.OccupationSet((1, 4))}) == 2
    assert qc.grover_params(4) == qc.grover_params(4) != qc.grover_params(5)
    assert hash(qc.grover_params(4)) == hash(qc.grover_params(4))


def test_an_equal_chain_spec_hits_the_basis_cache():
    chain._complex_modes.cache_clear()
    basis = chain._complex_modes(qc.ChainSpec(9))
    assert chain._complex_modes(qc.ChainSpec(9, 1.0)) is basis
    assert chain._complex_modes.cache_info().hits == 1
    assert chain._complex_modes(qc.ChainSpec(9, 2.0)) is not basis


def test_a_cursor_state_computes_its_mode_coefficients_once(monkeypatch):
    calls = []
    coefficients = chain._mode_coefficients

    def counting(spec, amps):
        calls.append(spec)
        return coefficients(spec, amps)

    monkeypatch.setattr(chain, "_mode_coefficients", counting)
    psi = qc.basis_state(qc.ChainSpec(9), 2)
    first = qc.propagate(psi, 0.5)
    assert qc.propagate(psi, 0.5).amplitudes.tobytes() == first.amplitudes.tobytes()
    assert len(calls) == 1 and psi._coefficients is psi._coefficients
    with pytest.raises(AttributeError):
        psi._coefficients = None
    assert not psi._coefficients.flags.writeable
    assert "_coefficients" not in repr(psi)
