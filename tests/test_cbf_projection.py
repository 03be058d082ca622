"""Property test of the closed-form CBF projection against the QP-based
``seed_project_halfspace_box`` in ``oracles``.

Where the candidate lies in the control box and the QP's first step onto the
halfspace stays in it, the projection replays that step, so the two answers
must be byte-identical (and the very object on a pass-through). Everywhere
else they must agree on infeasibility, and the projection must stay in the
box, meet the halfspace to the feasibility tolerance, and cost no more than
the exact optimum, found in rational arithmetic, nor than the QP's answer
where that meets the halfspace. (The QP stops once every row is violated by
at most its 1e-10 tolerance, so its answer can undercut the optimum.) The
halfspace offset is min(rhs, box support): a right-hand side up to 1e-9 above
the support asks for the supporting corner. The box support and the
decrease-maximizing control, computed on Python floats, must have the bits of
their numpy expressions.

Gain components are signed zeros or at least 0.1 in magnitude. On a smaller
gain the optimum moves by ulp(rhs) / |a_i| when rhs moves by one ulp, so no
float answer is within 1e-12 of the exact objective, and the QP declares
programs whose |a|^2 is at most its 1e-10 pivot tolerance infeasible;
``test_cbf.py`` covers small gains.
"""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import seed_project_halfspace_box
from safefilter import Box
from safefilter.cbf import _max_decrease, _project_halfspace_box, _support

PROPERTY = settings(max_examples=400, deadline=None)

SIGNED_ZERO = st.sampled_from([0.0, -0.0])


def _gain():
    magnitude = st.floats(0.1, 4.0)
    return st.one_of(SIGNED_ZERO, magnitude, magnitude.map(lambda v: -v))


@st.composite
def _programs(draw):
    m = draw(st.integers(1, 3))
    lo = np.array([draw(st.one_of(SIGNED_ZERO, st.floats(-2.0, 1.0))) for _ in range(m)])
    hi = lo + np.array([draw(st.floats(0.0, 3.0)) for _ in range(m)])
    a = np.array([draw(_gain()) for _ in range(m)])
    u = []
    for i in range(m):
        inside = st.floats(0.0, 1.0).map(lambda t, i=i: lo[i] + t * (hi[i] - lo[i]))
        u.append(draw(st.one_of(inside, st.floats(-4.0, 4.0), SIGNED_ZERO)))
    u_task = np.array(u)
    support = float(np.sum(np.where(a >= 0, a * hi, a * lo)))
    excess = draw(
        st.one_of(st.floats(-3.0, 0.0), st.floats(0.0, 1e-9), st.floats(1e-9, 1.0), SIGNED_ZERO)
    )
    return u_task, a, support + excess, lo, hi


def _first_step_stays_in_box(u_task, a, rhs, lo, hi) -> bool:
    """The candidate is in the box and the QP's first step keeps it there."""
    if not (np.all(u_task >= lo) and np.all(u_task <= hi)) or not float(a @ a) > 0.0:
        return False
    b = min(rhs, float(np.sum(np.where(a >= 0, a * hi, a * lo))))
    x = u_task + ((b - float(a @ u_task)) / float(a @ a)) * a
    return bool(np.all(x - lo >= -1e-10) and np.all(hi - x >= -1e-10))


def _exact_cost(u, u_task) -> Fraction:
    return sum((Fraction(v) - Fraction(w)) ** 2 for v, w in zip(u, u_task))


def _exact_optimum(u_task, a, b, lo, hi) -> Fraction:
    """min |u - u_task|^2 over the box and a.u >= b, in rational arithmetic:
    the least cost among the feasible stationary points of every active set
    (each coordinate at its lower bound, at its upper bound or free, with the
    halfspace row slack or tight)."""
    ut, a, lo, hi = ([Fraction(v) for v in arr] for arr in (u_task, a, lo, hi))
    m = len(ut)
    support = sum(max(a[i] * lo[i], a[i] * hi[i]) for i in range(m))
    b = min(Fraction(b), support)  # the float support may round above the exact one
    best = None
    for pins in itertools.product((None, 0, 1), repeat=m):
        base = [ut[i] if p is None else (lo[i], hi[i])[p] for i, p in enumerate(pins)]
        points = [base]
        slope = sum(a[i] * a[i] for i in range(m) if pins[i] is None)
        if slope:
            lam = (b - sum(a[i] * base[i] for i in range(m))) / slope
            points.append([v + lam * a[i] if pins[i] is None else v for i, v in enumerate(base)])
        for u in points:
            feasible = all(lo[i] <= u[i] <= hi[i] for i in range(m))
            if feasible and sum(a[i] * u[i] for i in range(m)) >= b:
                cost = _exact_cost(u, ut)
                best = cost if best is None else min(best, cost)
    return best


def _check_against_oracle(u_task, a, rhs, lo, hi):
    got = _project_halfspace_box(u_task, a, rhs, lo, hi)
    want = seed_project_halfspace_box(u_task, a, rhs, lo, hi)
    assert (got is None) == (want is None)
    if want is None:
        return
    assert (got is u_task) == (want is u_task)
    if _first_step_stays_in_box(u_task, a, rhs, lo, hi):
        assert got.tobytes() == want.tobytes()
        return
    assert np.all(got >= lo) and np.all(got <= hi)
    b = min(rhs, float(np.sum(np.where(a >= 0, a * hi, a * lo))))
    assert float(a @ got) >= b - 1e-9
    cost = _exact_cost(got, u_task)
    assert float(cost - _exact_optimum(u_task, a, b, lo, hi)) <= 1e-12
    if float(a @ want) >= b:
        assert float(cost - _exact_cost(want, u_task)) <= 1e-12


@PROPERTY
@given(_programs())
def test_projection_matches_qp_oracle(program):
    _check_against_oracle(*program)


@pytest.mark.parametrize("m", [2, 3])
def test_projection_matches_qp_oracle_on_signed_zero_patterns(m):
    """Every pattern of signed zeros in the candidate and the gain: for more
    than one control the QP's start and step direction flip some zero signs,
    which the replayed step must reproduce."""
    lo, hi = -np.ones(m), np.ones(m)
    for u_task in itertools.product([0.0, -0.0, 0.5, -0.5], repeat=m):
        for a in itertools.product([0.0, -0.0, 1.0, -1.0], repeat=m):
            for rhs in (0.3, -0.3, 0.0, -0.0, 0.9):
                _check_against_oracle(np.array(u_task), np.array(a), rhs, lo, hi)


def test_clipped_candidate_within_row_tolerance_is_the_qps_answer():
    # outside the box, the clipped candidate misses the halfspace by 5e-11,
    # inside the QP's row tolerance: both stop there
    lo, hi = -np.ones(2), np.ones(2)
    args = (np.array([2.0, 0.0]), np.array([1.0, 1.0]), 1.0 + 5e-11, lo, hi)
    got = _project_halfspace_box(*args)
    assert got.tobytes() == seed_project_halfspace_box(*args).tobytes()
    assert got.tolist() == [1.0, 0.0]


# --- the float support and decrease-maximizing control ------------------------
# numpy's expressions, with ±0.0, ±inf and NaN among gains and bounds; under
# 8 terms the support sums floats in order, from 8 on it is numpy's own sum

SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -2.5])


@st.composite
def _gains_and_bounds(draw):
    m = draw(st.integers(1, 10))
    a = np.array(draw(st.lists(SPECIAL | st.floats(), min_size=m, max_size=m)))
    ends = [sorted(draw(st.lists(SPECIAL.filter(lambda v: v == v) | st.floats(allow_nan=False),
                                 min_size=2, max_size=2)))
            for _ in range(m)]
    return a, Box([lo for lo, _ in ends], [hi for _, hi in ends])


def _same_bits(got, want):
    assert np.asarray(got, dtype=np.float64).tobytes() == np.asarray(want).tobytes()


# a lone -0.0 term sums to 0.0, which a sum started from its first term misses
@example((np.array([-0.0]), Box([-1.0], [1.0])))
@PROPERTY
@given(_gains_and_bounds())
def test_support_has_numpys_bits(program):
    a, box = program
    lo, hi = box.lower, box.upper
    with np.errstate(all="ignore"):
        want = float(np.sum(np.where(a >= 0, a * hi, a * lo)))
    got = _support(a, lo, hi)
    assert type(got) is float
    _same_bits(got, want)


# centers whose bounds' sum overflows or is subnormal: 0.5 * (lo + hi) alone
# has numpy's bits there
@example((np.array([0.0, math.nan]), Box([1.5e308, 5e-324], [1.7e308, 5e-324])))
@PROPERTY
@given(_gains_and_bounds())
def test_max_decrease_has_numpys_bits(program):
    a, box = program
    with np.errstate(all="ignore"):
        want = np.where(a > 0, box.upper, np.where(a < 0, box.lower, box.center))
    got = _max_decrease(a, box)
    assert got.dtype == np.float64 and got.shape == a.shape
    _same_bits(got, want)
