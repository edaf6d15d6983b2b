"""What the benchmark knows about qwclock's layers.

The layers are the modules of ``src/qwclock``.  This module says which
modules get spans, which work counts are derived from argument shapes at
which span, and which metrics a traced call yields.  README.md says which
end-to-end metric each per-layer metric should move, and on which workload.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect

from spans import Tracer, summarize

LAYERS = ("chain", "register", "multi", "speed", "quadrature", "cli", "oracle", "special")

# layers whose calls, total and self seconds are reported as per-layer metrics;
# no scenario reaches special and oracle serves only as the correctness reference
REPORTED_LAYERS = ("chain", "register", "multi", "speed", "quadrature", "cli")

_C16 = 16  # bytes per complex128


def _machine_trajectory(args, kwargs):
    """(s,s)@(s,2T) transform with V upcast to complex, then the 2x2 W dressing."""
    machine = args[0] if args else kwargs["machine"]
    times = args[1] if len(args) > 1 else kwargs["times"]
    s, t = machine.spec.s, len(times)
    temp = s * t * 2 * _C16
    return {
        "register.flops_computed": 8 * s * s * 2 * t + 32 * s * t,
        # transform reads V and its input, writes phi_t; dressing reads phi_t, writes chi
        "register.bytes_computed": s * s * _C16 + 4 * temp,
        "register.temp_bytes_computed": temp,
    }


def _propagate(args, kwargs):
    """Two s x s matvecs per call, V upcast to complex for each."""
    s = (args[0] if args else kwargs["psi0"]).spec.s
    return {"chain.bytes_computed": 2 * (s * s * _C16 + 2 * s * _C16)}


def _free_sector(args, kwargs):
    """The d x s^n antisymmetric tensor."""
    state = args[0] if args else kwargs["state"]
    return {"multi.tensor_bytes_computed": state.d * state.spec.s ** state.n * _C16}


def _nodes(integrate):
    signature = inspect.signature(integrate)

    def count(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"quadrature.nodes_computed": bound.arguments["panels"] * bound.arguments["order"]}

    return count


def _span_law(tracer: Tracer, law):
    """Span the density and CDF callables of a returned SpeedLaw."""
    return dataclasses.replace(
        law,
        density=tracer.wrap("speed.density", law.density),
        cdf=tracer.wrap("speed.cdf", law.cdf),
    )


def modules(package: str = "qwclock") -> list:
    return [importlib.import_module(package)] + [
        importlib.import_module(f"{package}.{name}") for name in LAYERS
    ]


def tracer(workload: str, mods) -> Tracer:
    quadrature = next(m for m in mods if m.__name__.endswith(".quadrature"))
    return Tracer(
        workload,
        counts={
            "register.machine_trajectory": _machine_trajectory,
            "chain.propagate": _propagate,
            "multi.propagate_free_sector": _free_sector,
            "quadrature.integrate": _nodes(quadrature.integrate),
        },
        results={"speed.law_general": _span_law},
    )


def op_metrics(spans, counters) -> dict[str, float]:
    """Per-layer metrics of one traced operation (one cli.main call).

    Every layer and function metric is present, 0 where the operation never
    reached it.  ``trace.coverage`` is the share of the cli.main span that
    the layers below the CLI account for.
    """
    summary = summarize(spans)
    out = {}
    for layer in REPORTED_LAYERS:
        for suffix in ("calls", "s", "self_s"):
            out[f"{layer}.{suffix}"] = summary.get(f"{layer}.{suffix}", 0.0)
    for name in (
        "register.machine_trajectory",
        "chain.propagate",
        "chain.eigenbasis",
        "multi.propagate_single_link",
        "quadrature.integrate",
    ):
        out[f"{name}.calls"] = summary.get(f"{name}.calls", 0.0)
        out[f"{name}.s"] = summary.get(f"{name}.s", 0.0)
    for name in (
        "chain.position_statistics",
        "multi.propagate_free_sector",
        "speed.law_general",
        "speed.cdf",
        "speed.density",
    ):
        out[f"{name}.s"] = summary.get(f"{name}.s", 0.0)
    for key in (
        "register.flops_computed",
        "register.bytes_computed",
        "register.temp_bytes_computed",
        "chain.bytes_computed",
        "multi.tensor_bytes_computed",
        "quadrature.nodes_computed",
    ):
        out[key] = float(counters.get(key, 0))
    wall = summary.get("cli.s", 0.0)
    out["trace.coverage"] = (wall - summary.get("cli.self_s", 0.0)) / wall if wall else 0.0
    return out
