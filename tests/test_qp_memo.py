"""The memoized dual active-set solver against its unmemoized original
(``oracles.seed_solve_qp``): the same bytes or ``InfeasibleQP`` too wherever
the original returns a verified point or raises ``InfeasibleQP``, off the
rare paths where the two pivot tests disagree; a raise instead of an
unverified point; no linear solve in a warm QP; and a memo that stays within
its caps."""
import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import safefilter.qp as qp
import safefilter.tube_mpc as tube_mpc
from oracles import seed_solve_qp
from safefilter import Box, decide, tube_mpc_filter
from safefilter.qp import InfeasibleQP, solve_qp

TOL = 1e-10


def stock_scalar_tube():
    """The filter of ``configs/tube_mpc_scalar.yaml``."""
    return tube_mpc_filter(
        [[1.0]], [[1.0]], [[-0.5]], Box([-1.0], [1.0]), Box([-0.1], [0.1]),
        [([-1.0], -2.0)], Box([-0.5], [0.5]), 5,
    )


def planar_tube():
    return tube_mpc_filter(
        [[0.9, 0.2], [0.1, 0.8]], [[1.0], [0.5]], [[-0.3, -0.2]],
        Box([-1.0], [1.0]), Box([-0.05, -0.05], [0.05, 0.05]),
        [([-1.0, 0.0], -2.0), ([0.0, 1.0], -2.0)], Box([-0.5, -0.5], [0.5, 0.5]), 6,
    )


def verified(A, b, x, tol=TOL):
    """Every row with norm above tol holds to within tol * max(1, |row|)."""
    norms = np.linalg.norm(A, axis=1)
    varying = norms > tol
    return bool(np.all((A @ x - b)[varying] >= -tol * np.maximum(1.0, norms[varying])))


def outcome(solver, G, a, A, b):
    try:
        return solver(G, a, A, b)
    except (InfeasibleQP, np.linalg.LinAlgError) as e:
        return e


def pivots_diverge(G, a, A, b) -> bool:
    """Whether the memoized solver's path meets a row that the seed's pivot
    test (z'n > tol * max(1, |n|^2)) judges otherwise than the G^-1 metric
    does; from that row on, the two paths differ. Replayed on an empty memo,
    so that every step of the path is seen."""
    flips = []
    step, programs = qp._step, qp._programs

    def spy(G, A, active, worst):
        entry = step(G, A, active, worst)
        n_p = A[worst]
        flips.append(entry[3] != (entry[2] > TOL * max(1.0, float(n_p @ n_p))))
        return entry

    qp._step, qp._programs = spy, OrderedDict()
    try:
        outcome(solve_qp, G, a, A, b)
    finally:
        qp._step, qp._programs = step, programs
    return any(flips)


def check_against_seed(G, a, A, b) -> str:
    """Check the memoized solver against the seed on one program; returns the
    seed's outcome ("verified", "unverified", "infeasible", "linalg") or
    "diverged".

    Never a numpy error, and every returned point is verified. Where the seed
    returns a verified point, the same bytes; where it raises InfeasibleQP,
    InfeasibleQP; either unless a pivot verdict differs on the path
    ("diverged")."""
    ref = outcome(seed_solve_qp, G, a, A, b)
    new = outcome(solve_qp, G, a, A, b)
    assert not isinstance(new, np.linalg.LinAlgError)
    if isinstance(new, np.ndarray):
        assert verified(A, b, new)
    if isinstance(ref, InfeasibleQP):
        kind, same = "infeasible", isinstance(new, InfeasibleQP)
    elif isinstance(ref, np.linalg.LinAlgError):
        return "linalg"
    elif not verified(A, b, ref):
        return "unverified"
    else:
        kind = "verified"
        same = isinstance(new, np.ndarray) and new.tobytes() == ref.tobytes()
    if same:
        return kind
    assert pivots_diverge(G, a, A, b), (kind, new)
    return "diverged"


# --- programs that share (G, A) ----------------------------------------------

def _structure(kind, n, p, rng, rounded):
    if kind == "identity":
        G = np.eye(n)
    elif kind == "tube_style":
        G = np.eye(n) * 1e-8
        G[0, 0] = 1.0
    else:
        M = rng.normal(size=(n, n))
        G = M @ M.T + 0.1 * np.eye(n)
    A = rng.normal(size=(p, n))
    if rounded:
        A = np.round(A)
    if kind == "constant_rows" and p:
        # a zero row and a row of norm below the solver's 1e-10: both constant
        A[rng.integers(p)] = 0.0
        i = rng.integers(p)
        A[i] *= 1e-11 / max(np.linalg.norm(A[i]), 1e-11)
    return G, A


def _tube_structures():
    out = []
    for flt in (stock_scalar_tube(), planar_tube()):
        out.append((flt._replan_G, flt._rows))
        out.append((flt._pinned_G, flt._pinned_rows))
    return out


TUBE_STRUCTURES = _tube_structures()


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(["identity", "tube_style", "random_spd", "tube_rows", "constant_rows"]),
    n=st.integers(1, 6),
    p=st.integers(0, 15),
    rounded=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_memoized_solver_matches_the_seed_solver(kind, n, p, rounded, seed):
    rng = np.random.default_rng(seed)
    if kind == "tube_rows":
        G, A = TUBE_STRUCTURES[seed % len(TUBE_STRUCTURES)]
    else:
        G, A = _structure(kind, n, p, rng, rounded)
    n, p = G.shape[0], A.shape[0]
    # programs without constant rows and programs with them
    if kind == "tube_rows":
        assert qp._program(G, A).constant_rows is None
    elif kind == "constant_rows" and p:
        assert qp._program(G, A).constant_rows is not None
    for _ in range(12):  # repeated (G, A): later solves run on memo entries
        a = rng.normal(size=n) * 2.0
        x0 = rng.normal(size=n)
        b = A @ x0 - rng.exponential(size=p) + rng.normal(size=p) * 0.5
        check_against_seed(G, a, A, b)


def test_random_program_family_raises_only_infeasible():
    """600 structures x 15 right-hand sides (G is diag(1, 1e-8, ...) or
    MM' + 0.1 I): no numpy error escapes where the seed raised 91, every
    returned point is verified, and off the few paths where the pivot metrics
    disagree the results are the seed's, bit for bit."""
    rng = np.random.default_rng(7)
    kinds = dict.fromkeys(["verified", "unverified", "infeasible", "linalg", "diverged"], 0)
    for _ in range(600):
        n = int(rng.integers(1, 7))
        p = int(rng.integers(1, 16))
        G, A = _structure(
            "tube_style" if rng.uniform() < 0.5 else "random_spd", n, p, rng,
            rng.uniform() < 0.5,
        )
        for _ in range(15):
            a = rng.normal(size=n)
            b = rng.normal(size=p) - 0.5
            kinds[check_against_seed(G, a, A, b)] += 1
    assert kinds["verified"] > 3000 and kinds["unverified"] > 1000, kinds
    assert kinds["linalg"] > 50, kinds
    assert kinds["diverged"] < 0.01 * (kinds["verified"] + kinds["infeasible"]), kinds


@pytest.mark.parametrize(
    "A, b, row",
    [
        ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [np.nan, 0.5, 0.2], 0),
        ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [-1.0, np.nan, 0.5], 1),
        ([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], [0.5, -1.0, np.nan], 2),
    ],
    ids=["no_constant_rows", "constant_row_first", "constant_row_between"],
)
def test_nan_bound_raises_naming_its_row(A, b, row):
    """A NaN in b fails its row with the unmemoized solver's message, on a
    program without constant rows and on programs with one."""
    A = np.array(A)
    assert (qp._program(np.eye(2), A).constant_rows is None) == (row == 0)
    message = f"constraint {row} cannot be satisfied"
    with pytest.raises(InfeasibleQP, match=message):
        seed_solve_qp(np.eye(2), np.zeros(2), A, b)
    for _ in range(2):  # cold, then on the memo
        with pytest.raises(InfeasibleQP, match=message):
            solve_qp(np.eye(2), np.zeros(2), A, b)


def test_small_row_enters_by_the_g_inverse_metric():
    # |row|^2 = 1e-12 fell below the old pivot threshold tol * max(1, |row|^2)
    A = [[1e-6], [1.0], [-1.0]]
    b = [5e-7, -1.0, -1.0]
    with pytest.raises(InfeasibleQP):
        seed_solve_qp(np.eye(1), [0.0], A, b)
    assert solve_qp(np.eye(1), [0.0], A, b).tolist() == [0.5]


def test_unverified_point_raises_naming_the_row():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, 16))
        G, A = _structure("tube_style", n, p, rng, False)
        a = rng.normal(size=n)
        b = rng.normal(size=p) - 0.5
        try:
            x = seed_solve_qp(G, a, A, b)
        except (InfeasibleQP, np.linalg.LinAlgError):
            continue
        if verified(A, b, x):
            continue
        with pytest.raises(InfeasibleQP, match=r"row \d+ .*not verified"):
            solve_qp(G, a, A, b)
        return
    pytest.fail("no unverified seed point found")


def test_returned_points_do_not_alias_the_memo():
    G, A, b = np.eye(2), np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0])
    first = solve_qp(G, np.zeros(2), A, b)
    first[:] = 99.0
    again = solve_qp(G, np.zeros(2), A, b)
    assert again.tolist() == [1.0, 1.0]
    for prog in qp._programs.values():
        for _, z, _, _ in prog.steps.values():
            assert not z.flags.writeable


def test_mutating_a_returned_point_leaves_the_next_solve_unchanged():
    # the start returned as it is (no rows, or every row holds there) and the
    # start moved by a step: each answer is the caller's own array
    G, a = np.diag([2.0, 1.0]), np.array([-2.0, 1.0])
    programs = [
        (np.zeros((0, 2)), np.zeros(0)),
        (np.array([[1.0, 0.0]]), np.array([0.5])),
        (np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([2.0, 0.0])),
    ]
    for A, b in programs:
        first = solve_qp(G, a, A, b)
        want = first.tobytes()
        first[:] = 99.0
        assert solve_qp(G, a, A, b).tobytes() == want
    for prog in qp._programs.values():
        assert all(not x.flags.writeable for x in prog.starts.values())


# --- work counts ------------------------------------------------------------------

def _count(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


# (state, candidate): passed; rejected and replanned; pinned solve after a
# replanned stage
TUBE_CASES = [([0.0], [0.3]), ([1.95], [1.0]), ([1.2], [0.9]), ([-0.4], [-1.0])]


def test_warm_tube_qp_makes_no_linear_solve(monkeypatch):
    flt = stock_scalar_tube()
    for x, u in TUBE_CASES:  # warm-up
        flt.reset()
        decide(flt, x, u)
    qps = _count(monkeypatch, tube_mpc, "solve_qp")
    solves = _count(monkeypatch, np.linalg, "solve")
    outcomes = set()
    for x, u in TUBE_CASES:
        flt.reset()
        rec = decide(flt, x, u)
        outcomes.add(rec.overridden)
    assert outcomes == {False, True}
    assert len(qps) >= len(TUBE_CASES)
    assert len(solves) == 0


@pytest.mark.parametrize("x, u", TUBE_CASES)
def test_decide_builds_the_plan_offsets_once(monkeypatch, x, u):
    flt = stock_scalar_tube()
    flt.reset()
    offsets = _count(monkeypatch, flt, "_constraint_offsets")
    decide(flt, x, u)
    assert len(offsets) == 1


def test_rejected_candidate_reuses_the_monitors_offsets(monkeypatch):
    flt = stock_scalar_tube()
    flt.reset()
    offsets = _count(monkeypatch, flt, "_constraint_offsets")
    plans = _count(monkeypatch, flt, "_solve_plan")
    rec = decide(flt, [1.95], [1.0])
    assert rec.overridden and not rec.degraded
    assert (len(plans), len(offsets)) == (2, 1)


# --- memo bounds --------------------------------------------------------------------

def test_memo_stays_within_its_program_cap():
    rng = np.random.default_rng(3)
    for k in range(qp._MAX_PROGRAMS + 20):
        A = rng.normal(size=(4, 2))
        b = A @ rng.normal(size=2) - 0.1
        x = solve_qp(np.eye(2) * (1.0 + k), rng.normal(size=2), A, b)
        assert verified(A, b, x)
        assert len(qp._programs) <= qp._MAX_PROGRAMS


def test_memo_stays_within_its_step_cap(monkeypatch):
    # and within its cap of starts: each of the 40 programs has its own a
    monkeypatch.setattr(qp, "_MAX_STEPS", 3)
    monkeypatch.setattr(qp, "_MAX_STARTS", 3)
    rng = np.random.default_rng(4)
    G, A = np.eye(3) * 2.0, rng.normal(size=(12, 3))
    for _ in range(40):
        a = rng.normal(size=3) * 3.0
        b = A @ rng.normal(size=3) - rng.exponential(size=12) * 0.2
        check_against_seed(G, a, A, b)
    prog = qp._programs[(G.shape, A.shape, G.tobytes(), A.tobytes())]
    assert len(prog.steps) == 3
    assert len(prog.starts) == 3


def test_memo_shared_between_threads_gives_serial_results(monkeypatch):
    """Six threads fill one cold memo with more programs than its cap, each
    in its own order; every result equals the serial one."""
    rng = np.random.default_rng(11)
    jobs = []
    for k in range(qp._MAX_PROGRAMS + 8):
        G, A = _structure("tube_style" if k % 2 else "random_spd", 3, 8, rng, False)
        for _ in range(3):
            jobs.append((G, rng.normal(size=3), A, A @ rng.normal(size=3) - 0.3))

    def result(i):
        out = outcome(solve_qp, *jobs[i])
        return out.tobytes() if isinstance(out, np.ndarray) else repr(out)

    serial = [result(i) for i in range(len(jobs))]
    monkeypatch.setattr(qp, "_programs", OrderedDict())  # start the threads cold
    results, errors = {}, []

    def worker(w, order):
        try:
            for i in order:
                results[(w, i)] = result(i)
        except Exception as e:  # reported below
            errors.append(e)

    threads = [
        threading.Thread(target=worker, args=(w, list(rng.permutation(len(jobs)))))
        for w in range(6)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(results) == 6 * len(jobs)
    assert all(out == serial[i] for (_, i), out in results.items())
    assert len(qp._programs) <= qp._MAX_PROGRAMS
