import types

import pytest

import tracer as tr


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def test_self_time_excludes_children():
    clock = FakeClock()
    t = tr.Tracer(clock=clock)

    def leaf(dt):
        clock.advance(dt)

    def middle():
        clock.advance(1.0)
        traced_leaf(2.0)
        clock.advance(0.5)
        traced_leaf(3.0)

    def root():
        clock.advance(10.0)
        traced_middle()
        clock.advance(4.0)

    traced_leaf = t.timed("leaf", leaf)
    traced_middle = t.timed("middle", middle)
    t.timed("root", root)()

    assert t.get("leaf").calls == 2
    assert t.get("leaf").total_s == t.get("leaf").self_s == 5.0
    assert t.get("middle").total_s == 6.5
    assert t.get("middle").self_s == 1.5
    assert t.get("root").total_s == 20.5
    assert t.get("root").self_s == 14.0
    # Self times partition the outermost span.
    assert t.self_total() == t.get("root").total_s


def test_span_is_recorded_when_the_call_raises():
    clock = FakeClock()
    t = tr.Tracer(clock=clock)

    def boom():
        clock.advance(2.0)
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        t.timed("boom", boom)()
    assert t.get("boom").calls == 1 and t.get("boom").total_s == 2.0
    assert t._stack() == []


class Base:
    def inherited(self):
        return "base"


class Child(Base):
    def own(self):
        return "own"


def test_patch_restores_originals_by_identity():
    mod = types.ModuleType("fake_mod")

    def func():
        return 1

    mod.func = func
    own = vars(Child)["own"]
    with tr.Patch() as patch:
        for owner, attr in ((mod, "func"), (Child, "own"), (Child, "inherited")):
            patch.wrap(owner, attr, lambda fn: (lambda *a, **k: ("wrapped", fn(*a, **k))))
        assert mod.func() == ("wrapped", 1)
        assert Child().own() == ("wrapped", "own")
        assert Child().inherited() == ("wrapped", "base")
    assert mod.func is func
    assert vars(Child)["own"] is own
    assert "inherited" not in vars(Child)
    assert Child().inherited() == "base"


def test_patch_refuses_static_methods():
    class S:
        @staticmethod
        def f():
            return 1

    with pytest.raises(TypeError):
        tr.Patch().wrap(S, "f", lambda fn: fn)


def _originals(layers):
    out = []
    for module, path, _ in layers:
        owner, attr = tr.resolve(module, path)
        out.append((owner, attr, attr in vars(owner), vars(owner).get(attr)))
    return out


def test_program_layers_restored_after_uninstall():
    layers = tr.LAYERS + tr.MEMORY_LAYERS + ((*tr.COMPILED_FACTORY, "x"),)
    before = _originals(layers)
    t = tr.Tracer()
    t.install()
    t.install_factory(*tr.COMPILED_FACTORY, tr.COMPILED_LAYER)
    probe = tr.MemoryProbe()
    probe.install()
    for owner, attr, _, original in before:
        assert getattr(owner, attr) is not original
    probe.uninstall()
    t.uninstall()
    assert _originals(layers) == before
    for owner, attr, had_own, original in before:
        assert had_own and vars(owner)[attr] is original


def test_factory_wrapper_times_first_call_apart():
    mod = types.ModuleType("fake_compile")

    def factory(f):
        def call(x):
            return f(x)

        call.cache_info = lambda: {"traces": 1, "replays": 2, "hit_rate": 0.5}
        return call

    mod.factory = factory
    import sys

    sys.modules["fake_compile"] = mod
    try:
        t = tr.Tracer(keep_durations=("vg",))
        calls = t.install_factory("fake_compile", "factory", "vg")
        fn = mod.factory(lambda x: x + 1)
        assert [fn(1), fn(2), fn(3)] == [2, 3, 4]
        t.uninstall()
        assert mod.factory is factory
    finally:
        del sys.modules["fake_compile"]
    assert t.get("vg.first").calls == 1
    assert t.get("vg").calls == 2 and len(t.get("vg").durations) == 2
    assert calls.cache_totals() == {"traces": 1, "replays": 2}
