"""Tests for the benchmark's tracer: self time and the binding audit."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import tracing  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_calls():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.now += 0.5

    def inner():
        clock.now += 2.0
        leaf_w()

    def outer():
        clock.now += 1.0
        inner_w()
        inner_w()
        clock.now += 3.0

    leaf_w = tracer.wrap("leaf", leaf)
    inner_w = tracer.wrap("inner", inner)
    outer_w = tracer.wrap("outer", outer)
    outer_w()
    assert tracer.stats["leaf"] == [2, 1.0, 1.0]
    assert tracer.stats["inner"] == [2, 5.0, 4.0]
    # only the direct children (inner, 5 s) leave outer's self time
    assert tracer.stats["outer"] == [1, 9.0, 4.0]


def test_self_time_when_the_call_raises():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    def outer():
        clock.now += 2.0
        with pytest.raises(KeyError):
            boom_w()

    boom_w = tracer.wrap("boom", boom)
    tracer.wrap("outer", outer)()
    assert tracer.stats["boom"] == [1, 1.0, 1.0]
    assert tracer.stats["outer"] == [1, 3.0, 2.0]


def test_instrument_patches_every_binding_and_undoes():
    import ballquot.cli  # noqa: F401  (cli is not imported by the package)
    from ballquot import certificates, cyclo, eigen, qfield, reidtai
    originals = (cyclo.kronecker, cyclo.is_reducible, qfield.QElem.__mul__,
                 certificates.CLAIMS["cusp_suite"])
    tracer = tracing.Tracer()
    bindings, missing, undo = tracing.instrument(tracer)
    try:
        assert missing == []
        for module in ("cyclo", "reidtai", "eigen"):
            assert f"ballquot.{module}.kronecker" in bindings["cyclo.kronecker"]
        for module in ("eigen", "cusp"):
            assert (f"ballquot.{module}.eigen_exponents"
                    in bindings["eigen.eigen_exponents"])
        assert set(bindings["qfield.QElem.mul"]) == {
            "ballquot.qfield.QElem.__mul__", "ballquot.qfield.QElem.__rmul__"}
        assert reidtai.kronecker is cyclo.kronecker is eigen.kronecker
        # the lru_cache object itself is wrapped: hits are calls too
        assert cyclo.is_reducible.cache_info == originals[1].cache_info
        before = originals[1].cache_info()
        reidtai.mc_for_field(9, -3)
        reidtai.mc_for_field(9, -3)
        # (9, -3) splits: mc_for_field and orbit_sets both ask is_reducible
        assert tracer.stats["cyclo.is_reducible"][0] == 4
        assert tracer.stats["reidtai.mc_for_field"][0] == 2
        assert tracer.stats["cyclo.kronecker"][0] > 0
        assert originals[1].cache_info().hits >= before.hits + 1
        x = qfield.QElem.of(-7, 1, 2)
        assert 3 * x == x * 3
        assert tracer.stats["qfield.QElem.mul"][0] == 2
    finally:
        undo()
    assert (cyclo.kronecker, cyclo.is_reducible, qfield.QElem.__mul__,
            certificates.CLAIMS["cusp_suite"]) == originals
    assert reidtai.kronecker is originals[0]


def test_missing_target_is_reported_not_raised():
    import ballquot  # noqa: F401
    tracer = tracing.Tracer()
    targets = (("cyclo.gone", "cyclo", "no_such_name"),
               ("nomodule.f", "nomodule", "f"),
               ("qfield.QElem.gone", "qfield", "QElem.no_such_method"))
    bindings, missing, undo = tracing.instrument(tracer, targets=targets)
    undo()
    assert missing == ["cyclo.gone", "nomodule.f", "qfield.QElem.gone"]
    assert all(not name.startswith(("cyclo.", "nomodule.", "qfield."))
               for name in bindings)
