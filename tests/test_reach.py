"""Every public name is reached by a CLI run or a demo, or kept for a stated reason.

The survey runs each subcommand at a small size, one --scenario run and the six
demos under a profile hook on every thread.  It lists the public functions (each
module's __all__) and the public methods of the exported classes, as written in
their module, that none of these calls.  That list must be the kept table: a name
that loses its last caller fails, and so does a kept name that gains one or goes.
"""

import contextlib
import inspect
import io
import pathlib
import runpy
import sys
import threading

from qwclock import chain, cli, multi, oracle, quadrature, register, special, speed

_ROOT = pathlib.Path(__file__).resolve().parents[1]

# the public names no CLI run or demo reaches, each with what needs it
_KEPT = {
    "chain.eigenvalue": "README's chain bullet (the energies); test_chain's stationary modes",
    "chain.eigenfunction": "README's chain bullet (the sine modes); test_chain and test_multi",
    "chain.eigenbasis": "README's chain bullet (all modes); test_chain, test_cli, test_register",
    "chain.chain_hamiltonian": "the one-excitation Hamiltonian, test_chain's spectral reference",
    "chain.amplitude_kernel": "README's chain bullet (site-1 kernel); test_chain and test_oracle",
    "multi.slater_amplitude": "README's multi bullet (determinant eigenstates); test_multi",
    "multi.sector_energy": "README's multi bullet (determinant eigenstates); test_multi",
    "multi.JointSpeedLaw.density": "README's multi bullet (the joint two-speed law); test_multi",
    "multi.JointSpeedLaw.marginal_rightmost": "README's multi bullet (the joint law); test_multi",
    "oracle.DenseHamiltonian.cursor_index": "builds test_oracle's product starts",
    "oracle.DenseHamiltonian.basis_vector": "builds test_oracle's product starts",
    "register.identity_program": "the trivial program, a reference of test_register and test_multi",
    "register.local_minima": "the acceptance test of the alternating program's entropy minimum",
}

_ARGVS = [
    "bloch --mu 3 --s 9 --t-max 2",
    "entropy --mu 3 --s 9 --t-max 2",
    "probability --mu 3 --s 9 --t-max 2",
    "mean-q --s 9 --t-max 2",
    "var-q --s 9 --n 2 --t-max 2",
    "speed-density --family localized --grid 5",
    "speed-density --family shifted --x0 3 --grid 5",
    "speed-density --family pad-ck --epsilon 5 --k 2 --grid 5",
    "speed-density --family pad-cn --n 3 --grid 5",
    "speed-density --family gamma --n 3 --grid 5",
    "launchpad --variant telomere --mu 4 --s 12 --t-max 2",
    "launchpad --variant flat --mu 4 --s 12 --n 2 --t-max 2",
    "launchpad --variant gamma --mu 4 --s 12 --n 2 --t-max 2",
    "alternating --mu 3 --s 9 --t-max 2",
    "multi --g 2 --s 8 --x0 4 --t-max 2",
    "measure --mu 3 --s 9 --tau 1 --t-max 3",
    "oracle-check --s 4",
]


def _public(module):
    """(module.name, code) of each function in __all__, and (module.Class.method,
    code) of each public or dunder method, property or cached property written in
    the module's own source for each class in __all__ (no generated dataclass or
    NamedTuple method)."""
    short = module.__name__.rsplit(".", 1)[-1]
    for name in module.__all__:
        obj = getattr(module, name)
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{short}.{name}", obj.__code__
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and not attr.endswith("__"):
                    continue
                func = getattr(member, "fget", getattr(member, "func", member))
                code = getattr(getattr(func, "__func__", func), "__code__", None)
                if code is not None and code.co_filename == module.__file__:
                    yield f"{short}.{name}.{attr}", code


def test_every_unreached_public_name_is_kept_for_a_reason(tmp_path):
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    scenario = tmp_path / "bloch.txt"
    scenario.write_text("s = 9\nt-max = 2\n")
    out = str(tmp_path / "out.csv")
    before = sys.getprofile(), threading.getprofile()
    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in _ARGVS:
                assert cli.main([*argv.split(), "--out", out]) == 0, argv
            assert cli.main(["bloch", "--scenario", str(scenario), "--out", out]) == 0
            demos = sorted((_ROOT / "demos").glob("*.py"))
            for demo in demos:
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.setprofile(before[0])
        threading.setprofile(before[1])
    assert len(demos) == 6
    modules = (chain, multi, oracle, quadrature, register, special, speed)
    names = dict(entry for module in modules for entry in _public(module))
    assert {name for name, code in names.items() if code not in called} == set(_KEPT)
    assert all(_KEPT.values())
