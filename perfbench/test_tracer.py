"""Tests of the benchmark's tracer and output checks.

Run with ``python -m pytest perfbench``.
"""

import sys
import textwrap
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import Op  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def fakepkg(tmp_path, monkeypatch):
    """A two-module package: ``low`` defines functions, ``mid`` imports them."""
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("CLOCK = None\n")
    (pkg / "low.py").write_text(textwrap.dedent("""
        import fakepkg

        def inner(n):
            fakepkg.CLOCK.advance(n)

        def rec(depth):
            fakepkg.CLOCK.advance(1)
            if depth:
                rec(depth - 1)
    """))
    (pkg / "mid.py").write_text(textwrap.dedent("""
        import fakepkg
        from .low import inner

        def outer():
            fakepkg.CLOCK.advance(1)
            inner(2)
            inner(3)
            fakepkg.CLOCK.advance(1)
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg
    import fakepkg.mid  # noqa: F401

    clock = FakeClock()
    fakepkg.CLOCK = clock
    yield fakepkg, clock
    for name in [m for m in sys.modules if m == "fakepkg" or m.startswith("fakepkg.")]:
        del sys.modules[name]


FAKE_LAYERS = (
    tr.Layer("mid.outer", "mid", "outer", ("mid",), ("calls", "busy_s", "self_s")),
    tr.Layer("low.inner", "low", "inner", ("low", "mid"),
             ("calls", "busy_s", "self_s", "work"), {"work": lambda a: a["n"]}),
    tr.Layer("low.rec", "low", "rec", ("low",), ("calls", "busy_s", "self_s")),
)


def test_nested_call_tree(fakepkg):
    pkg, clock = fakepkg
    tracer = tr.Tracer(clock)
    with tracer.installed("fakepkg", FAKE_LAYERS):
        pkg.mid.outer()
        pkg.low.rec(2)
    m = tracer.metrics(FAKE_LAYERS)
    assert (m["mid.outer.calls"], m["mid.outer.busy_s"], m["mid.outer.self_s"]) == (1, 7, 2)
    assert (m["low.inner.calls"], m["low.inner.busy_s"], m["low.inner.self_s"]) == (2, 5, 5)
    assert m["low.inner.work"] == 5
    # recursion: busy time counts the outermost span only, self time each level
    assert (m["low.rec.calls"], m["low.rec.busy_s"], m["low.rec.self_s"]) == (3, 3, 3)
    assert tracer.top_level_s() == 10


def test_uncalled_layer_reports_zero(fakepkg):
    tracer = tr.Tracer(fakepkg[1])
    with tracer.installed("fakepkg", FAKE_LAYERS):
        pass
    assert set(tracer.metrics(FAKE_LAYERS).values()) == {0}


def test_wrappers_removed_on_exit(fakepkg):
    pkg, clock = fakepkg
    original = pkg.low.inner
    with tr.Tracer(clock).installed("fakepkg", FAKE_LAYERS):
        assert pkg.mid.inner is not original and pkg.low.inner is pkg.mid.inner
    assert pkg.low.inner is original and pkg.mid.inner is original


@pytest.mark.parametrize("layer, message", [
    (tr.Layer("low.inner", "low", "inner", ("low",), ("calls",)), "not in the layer map"),
    (tr.Layer("low.rec", "low", "rec", ("low", "mid"), ("calls",)), "no longer binds"),
    (tr.Layer("low.gone", "low", "gone", ("low",), ("calls",)), "is gone"),
    (tr.Layer("x.inner", "low", "inner", ("low", "mid", "x"), ("calls",)), "module"),
])
def test_layer_map_guard(fakepkg, layer, message):
    with pytest.raises(tr.LayerMapError, match=message):
        tr.check_layer_map("fakepkg", (layer,))


def test_package_matches_layer_map():
    tr.check_layer_map(run.PACKAGE)


def test_real_layers_count_work():
    from swarm_mimo_sim import geometry as geo
    from swarm_mimo_sim import spacing

    tracer = tr.Tracer()
    with tracer.installed(run.PACKAGE):
        spacing.omega_sweep(4, 1, 0.125, geo.ShellRegion(100.0, 200.0), [0.3, 0.7])
    m = tracer.metrics()
    assert m["rates.omega.calls"] == 2
    assert m["rates.cb_db.calls"] >= 2 and m["rates.cb_db.points"] >= m["rates.cb_db.calls"]
    assert m["spacing.omega_sweep.busy_s"] >= m["rates.omega.busy_s"] > 0
    assert m["kernels.response_batch.calls"] == 0


def _sleeper(name, seconds, payload=b"x"):
    def work(out_dir, small=False):
        time.sleep(seconds)
        return {"out": payload() if callable(payload) else payload}

    return Op(name, work, lambda arts: [])


def test_top_level_spans_cover_traced_wall(tmp_path):
    runner = run.Runner([_sleeper(f"s{i}", 0.02) for i in range(3)], None, tmp_path)
    tracer = tr.Tracer()
    wall = runner.iteration(tracer)
    covered = tracer.top_level_s()
    assert [s[0] for s in tracer.spans] == ["op.s0", "op.s1", "op.s2"]
    assert 0.98 * wall <= covered <= wall


def test_runner_counts_failures(tmp_path):
    counter = iter(range(100))

    def boom(out_dir, small=False):
        raise ValueError("broken")

    ops = [
        _sleeper("steady", 0.0),
        _sleeper("drifting", 0.0, lambda: str(next(counter)).encode()),
        Op("raising", boom, lambda arts: []),
        Op("invalid", _sleeper("v", 0.0).run, lambda arts: ["bad value"]),
    ]
    runner = run.Runner(ops, None, tmp_path)
    runner.iteration()
    runner.iteration()
    assert runner.attempted == 8
    # raising and invalid fail twice; drifting fails on its second iteration
    assert runner.failed == 5
    assert any("first iteration" in f for f in runner.failures)


def test_runner_checks_recorded_digest(tmp_path):
    op = _sleeper("op", 0.0)
    runner = run.Runner([op], {"op": {"out": run.sha(b"x")}}, tmp_path)
    runner.iteration()
    assert runner.failed == 0
    runner = run.Runner([op], {"op": {"out": run.sha(b"y")}}, tmp_path)
    runner.iteration()
    assert runner.failed == 1 and "digest" in runner.failures[0]
