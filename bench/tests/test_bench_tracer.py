"""Span arithmetic and wrapper installation of the benchmark's tracer."""

import math
import sys
import types

import pytest

from tracer import Target, Tracer, self_times, span_stats


def test_self_time_subtracts_the_children():
    # 0: root [0, 10]; 1: child [1, 4]; 2: child [5, 9];
    # 3: grandchild [1.5, 2] under 1; 4: grandchild [2, 3.5] under 1
    start = [0.0, 1.0, 5.0, 1.5, 2.0]
    end = [10.0, 4.0, 9.0, 2.0, 3.5]
    parent = [-1, 0, 0, 1, 1]
    own = self_times(start, end, parent)
    assert own == pytest.approx([3.0, 1.0, 4.0, 0.5, 1.5])


def test_span_stats_sum_per_name():
    tracer = Tracer()
    outer = tracer.wrap("outer", lambda f: f() + f())
    inner = tracer.wrap("inner", lambda: 1, items=lambda a, k, r: 5)
    assert outer(inner) == 2
    stats = span_stats(tracer)
    assert stats["outer"].calls == 1 and stats["inner"].calls == 2
    assert stats["inner"].items == 10
    assert list(tracer.parent) == [-1, 0, 0]
    total = stats["outer"].total_s
    assert math.isclose(stats["outer"].self_s + stats["inner"].total_s, total, rel_tol=1e-9)


def _fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work(xs):
        return len(xs)

    core.work = work
    user.work = work  # as bound by "from .core import work"
    user.call = lambda xs: user.work(xs)
    for name, module in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return core, user


def test_wrapper_catches_calls_through_from_imported_binding(monkeypatch):
    core, user = _fake_package(monkeypatch)
    original = core.work
    tracer = Tracer()
    undo = tracer.install("fakepkg", [Target("core", "work", "core.work", lambda a, k, r: r)])
    assert user.call([1, 2, 3]) == 3
    stats = span_stats(tracer)
    assert stats["core.work"].calls == 1 and stats["core.work"].items == 3
    undo()
    assert core.work is original and user.work is original


def test_missing_target_reads_zero_instead_of_failing(monkeypatch):
    _fake_package(monkeypatch)
    tracer = Tracer()
    tracer.install("fakepkg", [
        Target("core", "deleted_helper", "core.deleted_helper"),
        Target("gone_module", "anything", "gone.anything"),
        Target("core", "NoSuchClass.method", "core.method"),
    ])
    assert len(tracer) == 0
    import layers

    metrics = layers.span_metrics(tracer)
    assert metrics["exploitation.coverage_hint_calls"] == 0
    assert metrics["exploitation.coverage_hint_s"] == 0
