"""The benchmark's tracer finds every library name it rebinds.

``bench/tracing.py`` wraps library functions by rebinding module and class
attributes for the length of a traced run (``--trace 1``), reading each
original from ``owner.__dict__``. A refactor that drops or renames one of
those names would make the traced run fail; this test enters and leaves the
instrumentation without running anything and checks that every rebound
attribute exists, is replaced while active, and is restored afterwards.
A traced MPS decision must still show its tube work in the per-layer
metrics: a float-row tube that bypassed the rebound ``propagate_frs`` or the
model's wrapped ``interval_step`` would make them read zero. Likewise a
traced least-restrictive decision must count the value-grid points of its
monitor and its fallback, which reach the grid through ``values_at``.
"""
import sys
from pathlib import Path

import safefilter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import scenarios  # noqa: E402
import tracing  # noqa: E402


_MISSING = object()


def test_every_traced_attribute_exists_and_is_restored(monkeypatch):
    rebound = []  # (owner, attribute, replacement, original)
    patched = tracing.patched

    def recording(targets):
        rebound.extend((owner, attr, new, vars(owner).get(attr, _MISSING))
                       for owner, attr, new in targets)
        missing = [(owner, attr) for owner, attr, _, old in rebound if old is _MISSING]
        assert not missing, f"the tracer rebinds attributes that do not exist: {missing}"
        return patched(targets)

    monkeypatch.setattr(tracing, "patched", recording)
    with tracing.Instrument(safefilter, tracing.Tracer()).active():
        assert rebound
        assert all(vars(owner)[attr] is new for owner, attr, new, _ in rebound)
    for owner, attr, _, old in rebound:
        assert vars(owner)[attr] is old, (owner, attr)


def test_traced_mps_decision_counts_tube_work():
    grid = scenarios.solve_grid(safefilter)
    tracer = tracing.Tracer()
    inst = tracing.Instrument(safefilter, tracer)
    with inst.active():
        spec = scenarios.build(safefilter, grid, inst).adversarial["mps"]
        spec.flt.reset(spec.x0)
        decision = safefilter.decide(spec.flt, spec.x0, [0.0])
    assert decision.monitor_value in (0.5, -0.5)  # the tube check decided
    metrics = tracing.layer_metrics(tracer, scenarios.FAMILIES)
    frs_calls = metrics["shielding.propagate_frs_calls"][0]
    step_calls = metrics["intervals.interval_step_calls"][0]
    assert frs_calls > 0 and step_calls == 10 * frs_calls  # horizon 10


def test_traced_lr_decision_counts_its_grid_points():
    """A rejected candidate costs the monitor |D| = 3 points and the optimal
    fallback |U| * |D| = 15, all through the rebound ``values_at``."""
    grid = scenarios.solve_grid(safefilter)
    tracer = tracing.Tracer()
    inst = tracing.Instrument(safefilter, tracer)
    with inst.active():
        spec = scenarios.build(safefilter, grid, inst).adversarial["lr"]
        spec.flt.reset(spec.x0)
        decision = safefilter.decide(spec.flt, [2.6, 1.0], [1.0])
    assert decision.overridden and decision.monitor_value < 0.0
    metrics = tracing.layer_metrics(tracer, scenarios.FAMILIES)
    assert metrics["reachability.values_at_calls"][0] == 2
    assert metrics["reachability.values_at_points"][0] == 3 + 5 * 3


def test_traced_tube_decision_counts_its_qp():
    """A rejected tube candidate is replanned by a QP that the tracer sees
    through the rebound ``tube_mpc.solve_qp``: one QP in the decision."""
    import safefilter.harness as harness

    grid = scenarios.solve_grid(safefilter)
    tracer = tracing.Tracer()
    inst = tracing.Instrument(safefilter, tracer)
    with inst.active():
        spec = scenarios.build(safefilter, grid, inst).adversarial["tube"]
        spec.flt.reset(spec.x0)
        with tracer.context("adv", "tube", "ep0"):
            decision = harness.decide(spec.flt, [1.95], [1.0])
    assert decision.overridden and not decision.degraded  # rejected, then replanned
    metrics = tracing.layer_metrics(tracer, scenarios.FAMILIES)
    assert metrics["qp.solve_qp_calls"][0] >= 1
    assert metrics["tube_mpc.qp_per_decision"][0] == 1.0
