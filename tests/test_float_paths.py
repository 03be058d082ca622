"""The closed loop's float paths against the numpy operations they replace, bit
for bit: the double integrator's one-state step, ``Box.sample`` and the
proportional task policy. Inputs include NaN, infinities and signed zeros."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from safefilter import Box, make_double_integrator, proportional_policy

PROPERTY = settings(max_examples=300, deadline=None)

nan, inf = math.nan, math.inf
special = st.sampled_from([nan, inf, -inf, 0.0, -0.0])
floats = st.floats(allow_nan=True, allow_infinity=True) | special
finite_or_inf = st.floats(allow_nan=False, allow_infinity=True) | st.sampled_from([0.0, -0.0])


@example(d_max=0.0, dt=0.1, p=0.0, v=-0.0, u=-0.0, d=0.0)
@example(d_max=0.1, dt=0.1, p=-0.0, v=0.0, u=-0.0, d=-0.0)
@example(d_max=0.1, dt=0.1, p=nan, v=inf, u=inf, d=-inf)
@example(d_max=0.0, dt=0.5, p=inf, v=-inf, u=nan, d=0.0)
@given(
    d_max=st.sampled_from([0.0, 0.1]),
    dt=st.sampled_from([0.1, 0.05, 1.0, 1e-300]),
    p=floats, v=floats, u=floats, d=floats,
)
@PROPERTY
def test_double_integrator_one_state_step_matches_its_block_step(d_max, dt, p, v, u, d):
    """One state on Python floats equals the same inputs stepped as a (1, n)
    block through numpy, with and without a disturbance (u + 0.0 without)."""
    model = make_double_integrator(1.0, d_max, dt)
    x = np.array([p, v])
    uu = np.array([u])
    dd = np.array([d]) if d_max else np.zeros(0)
    with np.errstate(all="ignore"):
        got = model.step(x, uu, dd)
        want = model.step(x[None], uu[None], dd[None])[0]
    assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == (2,)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d_max", [0.0, 0.1])
@pytest.mark.parametrize("x", [[1.0], [1.0, 0.0, 7.0], []])
def test_double_integrator_one_state_step_rejects_another_length(d_max, x):
    model = make_double_integrator(1.0, d_max, 0.1)
    d = np.array([0.0]) if d_max else np.zeros(0)
    with pytest.raises(ValueError):
        model.step(np.array(x), np.array([0.5]), d)


def boxes(max_dim=3):
    def build(pairs):
        return Box([min(a, b) for a, b in pairs], [max(a, b) for a, b in pairs])

    return st.lists(st.tuples(finite_or_inf, finite_or_inf), max_size=max_dim).map(build)


@example(box=Box([], []), n=None, seed=0)
@example(box=Box([], []), n=3, seed=0)
@example(box=Box([0.0, -0.0], [0.0, 1.0]), n=None, seed=1)
@example(box=Box([-inf], [inf]), n=2, seed=2)
@example(box=Box([-1e308], [1e308]), n=None, seed=3)
@given(box=boxes(), n=st.none() | st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
@PROPERTY
def test_box_sample_matches_uniform_draws(box, n, seed):
    """Same values and the same generator state afterwards as a uniform draw
    scaled by the box width."""
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    size = (box.dim,) if n is None else (n, box.dim)
    with np.errstate(all="ignore"):
        got = box.sample(rng, n)
        want = box.lower + twin.uniform(size=size) * (box.upper - box.lower)
        again = box.sample(rng, n)  # the cached width gives the next draw too
        want_again = box.lower + twin.uniform(size=size) * (box.upper - box.lower)
    assert got.shape == size and got.tobytes() == want.tobytes()
    assert again.tobytes() == want_again.tobytes()
    assert rng.bit_generator.state == twin.bit_generator.state


@st.composite
def policies(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    gain = draw(st.lists(st.lists(floats, min_size=n, max_size=n), min_size=m, max_size=m))
    goal = draw(st.lists(floats, min_size=n, max_size=n))
    x = draw(st.lists(floats, min_size=n, max_size=n))
    bounds = draw(st.lists(st.tuples(finite_or_inf, finite_or_inf), min_size=m, max_size=m))
    box = Box([min(a, b) for a, b in bounds], [max(a, b) for a, b in bounds])
    return gain, goal, x, box


@example(([[1.0]], [0.0], [-0.0], Box([0.0], [1.0])))
@example(([[1.0]], [0.0], [0.0], Box([-1.0], [-0.0])))
@example(([[-1.0]], [0.0], [0.0], Box([-0.0], [0.0])))
@example(([[1.0, 1.5]], [nan, 0.0], [0.0, 0.0], Box([0.0], [1.0])))
@example(([[inf, 1.0]], [1.0, 0.0], [1.0, 0.0], Box([-1.0], [0.0])))
@given(policies())
@PROPERTY
def test_proportional_policy_matches_np_clip(case):
    gain, goal, x, box = case
    policy = proportional_policy(gain, goal, box)
    with np.errstate(all="ignore"):
        got = policy(np.array(x), None)
        want = np.clip(np.array(gain) @ (np.array(goal) - np.array(x)), box.lower, box.upper)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
