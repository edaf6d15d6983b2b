import types

import pytest

from spans import Span, Tracer, self_times, summarize


def _span(id, name, start, end, parent=None):
    return Span(id, name, start, end, parent, 0, "synthetic")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "chain.a", 1.0, 4.0, 0),
        _span(2, "chain.b", 3.0, 6.0, 0),  # overlaps a: covered once
        _span(3, "register.c", 1.5, 2.0, 1),
        _span(4, "register.d", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 10.0 - 5.0 - 1.0, 1: 2.5, 2: 3.0, 3: 0.5, 4: 3.0})


def test_summary_counts_nested_same_layer_spans_once():
    spans = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "chain.outer", 1.0, 5.0, 0),
        _span(2, "chain.inner", 2.0, 4.0, 1),
        _span(3, "register.x", 2.5, 3.0, 2),
        _span(4, "chain.inner", 6.0, 7.0, 0),
    ]
    got = summarize(spans)
    assert got["chain.calls"] == 3
    assert got["chain.s"] == pytest.approx(4.0 + 1.0)
    assert got["chain.self_s"] == pytest.approx(2.0 + 1.5 + 1.0)
    assert got["chain.inner.s"] == pytest.approx(3.0)
    assert got["cli.self_s"] == pytest.approx(10.0 - 5.0)
    assert got["register.s"] == pytest.approx(0.5)


def _fake_package():
    core = types.ModuleType("fake.core")

    def leaf(n):
        return n + 1

    def outer(n):
        return core.leaf(n) * 2

    class Thing:
        def method(self):
            return core.leaf(0)

    for obj in (leaf, outer, Thing, Thing.method):
        obj.__module__ = "fake.core"
        obj.__qualname__ = obj.__qualname__.split("<locals>.")[-1]
    core.leaf, core.outer, core.Thing = leaf, outer, Thing
    user = types.ModuleType("fake.user")
    user.leaf = leaf  # as bound by `from .core import leaf`
    return core, user


def test_tracer_spans_calls_where_they_are_looked_up_and_restores_them():
    core, user = _fake_package()
    originals = (core.leaf, core.outer, user.leaf, core.Thing.method)
    tracer = Tracer("w", counts={"core.leaf": lambda a, k: {"leaf.n": a[0]}})
    with tracer.installed([core, user], "fake"):
        assert core.outer(3) == 8
        assert user.leaf(5) == 6
        assert core.Thing().method() == 1
    assert (core.leaf, core.outer, user.leaf, core.Thing.method) == originals
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("core.outer", None), ("core.leaf", 0), ("core.leaf", None),
                     ("core.Thing.method", None), ("core.leaf", 3)]
    assert all(s.end >= s.start and s.workload == "w" for s in tracer.spans)
    assert tracer.counters[0]["leaf.n"] == 3 + 5 + 0
