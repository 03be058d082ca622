"""The MPS monitor on float rows against the array algorithms it replaced.

``propagate_frs`` carries its boxes as float rows and ``mps_monitor`` bounds
the failure margin box by box on them (``MarginFunction.box_lower``),
rejecting at the first box whose bound is not ``>= 0``. Three properties tie
them to the array algorithms:

- the tube's ``bounds`` equal the Box-based oracle tube of ``oracles.py`` bit
  for bit (``tobytes``) for the optimal, braking and Lipschitz fallbacks, with
  and without a disturbance, from states and candidates with signed zeros.
  The oracle tube runs once with the model's own interval step on arrays and,
  with a disturbance, once with the oracle's interval step as well (without
  one, the oracle's step leaves out ``step``'s ``u + 0.0`` and so keeps a -0.0
  that ``step`` turns into +0.0);
- a halfspace margin's bound on float rows equals numpy's
  ``-support(bounds, -normal) - offset``, folded over a min of halfspaces by
  ``np.minimum``, bit for bit in 1 to 7 dimensions, with signed zeros and
  infinite bounds. Infinities make NaNs (inf * 0, inf - inf), whose sign IEEE
  754 leaves to the implementation, so NaNs are compared as NaN. With 8 to 12
  entries, where numpy sums pairwise, the bound stays sound at every corner
  and within 1e-12 of numpy's;
- ``mps_monitor``'s verdict equals that of a stacked check on the array tube
  (every numpy bound ``>= 0``, then ``box_containment`` of the last box), also
  on tubes from states with infinite or NaN coordinates, where a halfspace of
  a min can bound a box by NaN while another is negative: a NaN bound rejects.
"""
import functools
import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    SeedBox,
    SeedFallback,
    seed_as_box,
    seed_box,
    seed_braking_control_box,
    seed_double_integrator_interval,
    seed_propagate_frs,
)
from safefilter import (
    Box,
    FallbackPolicy,
    TerminalSafeSet,
    braking_fallback,
    discretize_box,
    make_double_integrator,
    margin_halfspace,
    margin_min,
    mps_monitor,
    optimal_fallback,
    propagate_frs,
    solve,
    value_grid_terminal_set,
)
from safefilter.intervals import support

DT = 0.1
PROPERTY = settings(max_examples=300, deadline=None)
FALLBACKS = ["optimal", "braking", "lipschitz"]


def _setup(d_max):
    model = make_double_integrator(1.0, d_max, DT)
    grid, _ = solve(
        model, margin_halfspace([1.0, 0.0], 0.1), (Box([0.0, -2.0], [3.0, 2.0]), (21, 21)),
        [5], [3] if d_max else [], 1e-6, 200,
    )
    u5 = discretize_box(model.control_set, [5])
    d3 = discretize_box(model.disturbance_set, [3] if d_max else [])
    opt = optimal_fallback(model, grid, u5, d3)
    brake = braking_fallback(model, DT)
    lip = FallbackPolicy(lambda x: np.array([np.clip(-2.0 * x[1], -1.0, 1.0)]), lipschitz=2.0)
    fallbacks = {
        "optimal": (opt, SeedFallback(opt.policy, lambda box: seed_box(model.control_set), None)),
        "braking": (brake, SeedFallback(brake.policy, seed_braking_control_box(1.0, DT, DT), None)),
        "lipschitz": (lip, SeedFallback(lip.policy, None, 2.0)),
    }
    return model, grid, fallbacks


@pytest.fixture(scope="module")
def setups():
    return {d_max: _setup(d_max) for d_max in (0.1, 0.0)}


def _model_step_on_boxes(model):
    """The model's own interval step, on the oracle's boxes."""

    def interval_fn(X: SeedBox, u, D: SeedBox) -> SeedBox:
        out = model.interval_step(np.asarray(X), np.asarray(seed_as_box(u)), np.asarray(D))
        return SeedBox(*out)

    return interval_fn


signed = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0))
state = st.tuples(st.one_of(st.just(-0.0), st.floats(-0.5, 3.5)), st.one_of(signed, st.floats(-2.0, 2.0)))


@pytest.mark.parametrize("d_max", [0.1, 0.0])
@pytest.mark.parametrize("name", FALLBACKS)
@PROPERTY
@given(x=state, u=signed, horizon=st.integers(1, 10))
def test_float_row_tube_equals_oracle_tube_bitwise(setups, d_max, name, x, u, horizon):
    model, _, fallbacks = setups[d_max]
    fb, sfb = fallbacks[name]
    x, u = np.array(x), np.array([u])
    U, D = seed_box(model.control_set), seed_box(model.disturbance_set)
    steps = [_model_step_on_boxes(model)] + ([seed_double_integrator_interval(DT)] if d_max else [])
    for seed_step in steps:
        try:
            sets = seed_propagate_frs(seed_step, U, D, sfb, x, u, horizon)
        except ValueError as e:  # an enclosure that misses the control set
            with pytest.raises(ValueError, match=str(e)):
                propagate_frs(model, fb, x, u, horizon)
            return
        expected = np.stack([np.stack([s.lower, s.upper]) for s in sets])
        tube = propagate_frs(model, fb, x, u, horizon)
        assert tube.bounds.tobytes() == expected.tobytes(), (x, u, horizon)
        assert tube.horizon == horizon and len(tube.sets) == horizon + 1


# --- the per-box halfspace bound ---------------------------------------------------

SPECIAL = [0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, 5e-324]
bound_entry = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e3, 1e3))


def _same(a, b) -> bool:
    """Equal bit for bit, or both NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


@st.composite
def halfspace_margins(draw, dim):
    normal = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-3.0, 3.0)),
                      min_size=dim, max_size=dim).filter(lambda n: any(v != 0 for v in n))
    offset = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0))
    parts = [margin_halfspace(draw(normal), draw(offset))
             for _ in range(draw(st.integers(1, 3)))]
    return parts[0] if len(parts) == 1 and draw(st.booleans()) else margin_min(parts)


def _numpy_lower(margin, bounds):
    """The numpy form of a halfspace margin's bound over a (..., 2, n) stack."""
    return functools.reduce(np.minimum, [-support(bounds, -n) - offset
                                         for n, offset in margin.halfspaces])


@PROPERTY
@given(data=st.data(), dim=st.integers(1, 7), stack=st.sampled_from([(1,), (5,), (3, 4)]))
def test_halfspace_lower_equals_box_lower_bitwise(data, dim, stack):
    margin = data.draw(halfspace_margins(dim))
    n = math.prod(stack)
    entries = data.draw(st.lists(bound_entry, min_size=2 * dim * n, max_size=2 * dim * n))
    bounds = np.array(entries).reshape(stack + (2, dim))
    with np.errstate(invalid="ignore"):
        stacked = np.asarray(_numpy_lower(margin, bounds)).ravel().tolist()
        single = [margin.box_lower(B) for B in bounds.reshape(n, 2, dim)]
    for B, s, one in zip(bounds.reshape(n, 2, dim).tolist(), stacked, single):
        value = margin.box_lower((tuple(B[0]), tuple(B[1])))
        assert _same(value, s) and _same(value, one), (B, value, s, one)


@PROPERTY
@given(data=st.data(), dim=st.integers(8, 12))
def test_long_halfspace_bounds_are_sound_and_near_numpy(data, dim):
    margin = data.draw(halfspace_margins(dim))
    finite = st.floats(-2.0, 2.0)
    a = data.draw(st.lists(finite, min_size=dim, max_size=dim))
    b = data.draw(st.lists(finite, min_size=dim, max_size=dim))
    lower, upper = tuple(map(min, a, b)), tuple(map(max, a, b))
    value = margin.box_lower((lower, upper))
    corners = np.array(list(itertools.product(*zip(lower, upper))))
    assert np.all(value <= margin(corners) + 1e-12)
    assert abs(value - _numpy_lower(margin, np.array([lower, upper]))) <= 1e-12


# --- the monitor's verdict -----------------------------------------------------------


def _stacked_verdict(model, fb, terminal, margin, x, u, horizon) -> float:
    """The array monitor: bound the whole tube at once, then the last box."""
    bounds = propagate_frs(model, fb, x, u, horizon).bounds
    if not np.all(_numpy_lower(margin, bounds) >= 0.0):
        return -0.5
    if not terminal.box_containment(bounds[-1]):
        return -0.5
    return 0.5


MARGINS = {
    "wall": margin_halfspace([1.0, 0.0], 0.0),
    "corridor": margin_min([margin_halfspace([1.0, 0.0], 0.0),
                            margin_halfspace([-1.0, 0.0], -3.0)]),
    "speed": margin_min([margin_halfspace([1.0, 0.0], 0.2),
                         margin_halfspace([0.0, -1.0], -1.0),
                         margin_halfspace([0.0, 1.0], -1.0)]),
}
coordinate = st.one_of(st.sampled_from([math.inf, -math.inf, math.nan, -0.0]),
                       st.floats(-0.5, 3.5))


@pytest.mark.parametrize("margin", sorted(MARGINS))
@pytest.mark.parametrize("name", ["optimal", "lipschitz"])
@PROPERTY
@given(x=st.tuples(coordinate, coordinate), u=signed, horizon=st.integers(1, 10))
def test_monitor_verdict_equals_stacked_verdict(setups, margin, name, x, u, horizon):
    model, grid, fallbacks = setups[0.1]
    fb = fallbacks[name][0]
    terminal = value_grid_terminal_set(grid)
    x, u = np.array(x), np.array([u])
    with np.errstate(invalid="ignore", over="ignore"):
        expected = _stacked_verdict(model, fb, terminal, MARGINS[margin], x, u, horizon)
        assert mps_monitor(model, fb, terminal, MARGINS[margin], x, u, horizon) == expected


def test_a_nan_halfspace_bound_rejects_the_tube(setups):
    # p = -inf: the position halfspace bounds the box by -inf, the speed
    # halfspaces by NaN (their normals' -0.0 times -inf), so the min is NaN,
    # and a NaN bound proves nothing about the box
    model, _, fallbacks = setups[0.1]
    margin = MARGINS["speed"]
    lower, upper = (-math.inf, -3.0), (-math.inf, -3.0)
    parts = [margin_halfspace(n, offset).box_lower((lower, upper))
             for n, offset in margin.halfspaces]
    assert parts[0] == -math.inf and math.isnan(parts[1]) and math.isnan(parts[2])
    assert math.isnan(margin.box_lower((lower, upper)))
    assert math.isnan(margin.box_lower(np.array([lower, upper])))
    accept_all = TerminalSafeSet(lambda x: True, lambda X: True, name="everything")
    x, u = np.array(lower), np.array([0.0])
    fb = fallbacks["optimal"][0]
    assert mps_monitor(model, fb, accept_all, margin, x, u, 1) == -0.5
