import math

import numpy as np
import pytest

import ktrg.manifold
from ktrg.flow import FlowConfig, corrections, trajectory, kosterlitz_q_array
from ktrg.manifold import (
    _BLOCK,
    _classify,
    _tail_envelope,
    ManifoldProblem,
    WeightedSequence,
    diagonalize,
    undiagonalize,
    seq_norm,
    apply_T,
    solve_fixed_point,
    solve_shooting,
    empirical_contraction,
)


def test_diagonalize_examples():
    assert diagonalize(1.0, 0.0) == (1.0, 1.0)
    assert diagonalize(0.0, 1.0) == (2.0, -1.0)


def test_diagonalize_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        u, v = rng.normal(size=2)
        w_plus, w_minus = diagonalize(u, v)
        uu, vv = undiagonalize(w_plus, w_minus)
        assert uu == pytest.approx(u, abs=1e-15)
        assert vv == pytest.approx(v, abs=1e-15)


def test_zero_input_zero_fixed_point():
    res = solve_fixed_point(ManifoldProblem(y1=0.0, J=100))
    assert res.sigma == 0.0
    assert np.all(res.seq.w_plus == 0.0)


def test_apply_T_zero_sequence_y0():
    prob = ManifoldProblem(y1=0.0, J=64)
    out = apply_T(WeightedSequence.zero(64), prob)
    assert np.all(out.w_minus == 0.0)
    assert np.all(out.w_plus == 0.0)


def test_fixed_point_residual(stack_l3_massless=None):
    prob = ManifoldProblem(y1=0.01, J=50_000)
    res = solve_fixed_point(prob)
    again = apply_T(res.seq, prob)
    d = WeightedSequence(
        again.w_plus - res.seq.w_plus,
        again.w_minus - res.seq.w_minus,
        np.abs(again.kappa - res.seq.kappa),
    )
    assert seq_norm(d, prob) < 1e-12
    assert res.in_ball


def test_solver_agreement():
    for y1 in (0.005, 0.01, 0.02):
        fp = solve_fixed_point(ManifoldProblem(y1=y1, J=100_000))
        sh = solve_shooting(y1, tol=2e-10)
        assert abs(fp.sigma - sh) <= 1e-8


def test_sigma_small():
    # |x_1| <= 2 eps_1 comfortably for small activity
    fp = solve_fixed_point(ManifoldProblem(y1=0.02, J=50_000))
    assert abs(fp.sigma) <= 2 * 0.05


def test_sigma_even_in_y1():
    a = solve_fixed_point(ManifoldProblem(y1=0.01, J=50_000)).sigma
    b = solve_fixed_point(ManifoldProblem(y1=-0.01, J=50_000)).sigma
    assert abs(a - b) <= 1e-10
    assert solve_shooting(-0.01, tol=1e-10) == pytest.approx(solve_shooting(0.01, tol=1e-10), abs=1e-9)


def test_horizon_insensitivity():
    full = solve_fixed_point(ManifoldProblem(y1=0.01, J=80_000)).sigma
    half = solve_fixed_point(ManifoldProblem(y1=0.01, J=40_000)).sigma
    q1 = 0.01
    envelope = q1 * q1 * (1.0 + q1 * 40_000) ** -3 / 3.0 / (q1 / (1 + q1 * 39_999))
    assert abs(full - half) <= max(envelope, 1e-12)


def test_contraction_below_half():
    lip = empirical_contraction(ManifoldProblem(y1=0.01, J=4000), n_samples=100)
    assert lip <= 0.5


def test_contraction_shrinks_with_tau():
    # the quadratic part of T scales with tau; the measured Lipschitz
    # constant floors at the linear terms, so test a wide sweep
    lips = [
        empirical_contraction(ManifoldProblem(y1=0.01, J=2000, tau=t), n_samples=40)
        for t in (0.3, 0.1, 0.02)
    ]
    assert lips[0] > lips[1] >= lips[2]


def test_contraction_requires_samples():
    with pytest.raises(ValueError):
        empirical_contraction(ManifoldProblem(y1=0.01, J=500), n_samples=1)


def test_shooting_bracket_validation():
    with pytest.raises(ValueError):
        solve_shooting(0.01, bracket=(0.05, 0.1))  # both stable
    with pytest.raises(ValueError):
        solve_shooting(0.01, flow_config=FlowConfig(surrogate=True))


def test_shooting_tolerance_contract():
    a = solve_shooting(0.01, tol=1e-8)
    b = solve_shooting(0.01, tol=1e-9)
    assert abs(a - b) <= 1e-8


def test_off_manifold_perturbations_escape_envelope():
    # Sigma +- 1e-6 leaves the |x - q| <= q/4 envelope before j = 1e4;
    # the on-manifold run stays inside
    q1 = 0.01
    sigma = solve_fixed_point(ManifoldProblem(y1=q1, J=100_000)).sigma
    cfg = FlowConfig(horizon=10_000, ceiling=10.0)
    q = kosterlitz_q_array(q1, cfg.horizon)

    def escape_scale(x1):
        t = trajectory(x1, q1, cfg)
        n = t.horizon
        bad = (np.abs(t.x - q[:n]) > q[:n] / 4.0) | (np.abs(t.y - q[:n]) > q[:n] / 4.0)
        idx = np.nonzero(bad)[0]
        return int(idx[0]) + 1 if idx.size else None

    assert escape_scale(sigma) is None
    up = escape_scale(sigma + 1e-6)
    dn = escape_scale(sigma - 1e-6)
    assert up is not None and up < 10_000
    assert dn is not None and dn < 10_000


def test_surrogate_mode_solver_runs():
    # unequal feedback gains so the kappa terms do not cancel out of W-
    prob = ManifoldProblem(y1=0.01, J=20_000,
                           flow=FlowConfig(surrogate=True, rho=0.2, c_R=0.2, c_F=0.2, c_M=0.05))
    res = solve_fixed_point(prob)
    assert res.residual < 1e-12
    assert math.isfinite(res.sigma)
    # feedback shifts the separatrix away from the bare value
    assert res.sigma != pytest.approx(0.01, abs=1e-12)


def test_problem_validation():
    with pytest.raises(ValueError):
        ManifoldProblem(y1=0.2)
    with pytest.raises(ValueError):
        ManifoldProblem(y1=0.01, J=2)


def test_on_manifold_envelope_bounds():
    # x_j stays within twice the q_j envelope and the ball decay law holds:
    # sup_j |x_j - q_j| (1 + q1(j-1))^{3/2} / q1 below the tau bound
    q1 = 0.01
    prob = ManifoldProblem(y1=q1, J=100_000)
    sigma = solve_fixed_point(prob).sigma
    traj = trajectory(sigma, q1, FlowConfig(horizon=100_000))
    assert traj.diverged_at is None
    q = kosterlitz_q_array(q1, traj.horizon)
    assert float(np.max(np.abs(traj.x) / q)) <= 2.0
    js = np.arange(1, traj.horizon + 1, dtype=float)
    weighted = np.abs(traj.x - q) * (1.0 + q1 * (js - 1.0)) ** 1.5 / q1
    assert float(weighted.max()) <= prob.tau


def test_ball_image_stays_in_ball():
    # T maps the weighted ball into itself at the default tau (sampled)
    prob = ManifoldProblem(y1=0.01, J=2000)
    th = prob.tau * prob.h()
    rng = np.random.default_rng(17)
    for _ in range(25):
        seq = WeightedSequence(
            th * rng.uniform(-1, 1, prob.J),
            0.5 * th * rng.uniform(-1, 1, prob.J),
            th**2 * rng.uniform(0, 1, prob.J),
        )
        out = apply_T(seq, prob)
        assert seq_norm(out, prob) <= 1.0 + 1e-9


def test_apply_T_warns_outside_ball():
    import warnings as _w

    prob = ManifoldProblem(y1=0.01, J=500)
    th = prob.tau * prob.h()
    bad = WeightedSequence(5.0 * th, np.zeros(prob.J), np.zeros(prob.J))
    with _w.catch_warnings(record=True) as rec:
        _w.simplefilter("always")
        apply_T(bad, prob)
    assert any("ball" in str(r.message) for r in rec)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_activity_rejected(bad):
    with pytest.raises(ValueError, match="y1 must be finite"):
        ManifoldProblem(y1=bad)
    with pytest.raises(ValueError, match="y1 must be finite"):
        solve_shooting(bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1e-10])
def test_shooting_rejects_bad_tol(bad):
    # a NaN tol used to end the bisection at once and return the bracket midpoint
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        solve_shooting(0.01, tol=bad)


@pytest.mark.parametrize("bracket", [(0.1, 0.0), (0.05, 0.05), (float("nan"), 0.1), (0.0, float("inf"))])
def test_shooting_rejects_bad_bracket(bracket):
    with pytest.raises(ValueError, match="bracket must be finite with lo < hi"):
        solve_shooting(0.01, bracket=bracket)


@pytest.mark.parametrize("field", ["tau", "eps1"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_problem_rejects_bad_tau_and_eps1(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite and > 0"):
        ManifoldProblem(y1=0.3, **{field: bad})


def test_fixed_point_out_of_iterations_raises():
    with pytest.raises(RuntimeError, match=r"y1=0.01 not converged after 3 iterations: residual \d"):
        solve_fixed_point(ManifoldProblem(y1=0.01), max_iter=3)


def _apply_T_loop(seq, prob):
    """The fixed-point map with one scalar kernel call per scale (oracle)."""
    J, cfg = prob.J, prob.flow
    q = prob.q()
    q_next = np.append(q[1:], prob.y1 / (1.0 + abs(prob.y1) * J))
    u = (seq.w_plus + 2.0 * seq.w_minus) / 3.0
    v = (seq.w_plus - seq.w_minus) / 3.0
    x, y = q + u, q + v
    Ft, Mt, W0 = np.zeros(J), np.zeros(J), np.zeros(J)
    for i in range(J):
        Ft[i], Mt[i], W0[i] = corrections(i + 1, float(x[i]), float(y[i]), float(seq.kappa[i]), cfg)
    U = -(v * v) - q * q * q_next + Ft
    V = -(u * v) - q * q * q_next + Mt
    Wp = U + 2.0 * V + (2.0 * q - q_next) * q_next * seq.w_plus
    Wm = U - V
    suffix = np.cumsum((q_next * Wm)[::-1])[::-1]
    h = prob.h()
    tail = (Wm[-1] / h[-1] ** 2 if h[-1] > 0 else 0.0) * _tail_envelope(prob)
    w_minus = -(suffix + tail) / q
    prefix = np.concatenate([[0.0], np.cumsum(Wp / q_next**2)[:-1]])
    w_plus = q * q * (seq.w_minus[0] / q[0] ** 2 + prefix)
    kap = np.empty(J)
    acc = 0.0
    for i in range(J):
        kap[i] = acc
        acc = cfg.rho * acc + cfg.c_R * W0[i]
    return WeightedSequence(w_plus, w_minus, kap)


@pytest.mark.parametrize("flow", [
    FlowConfig(),
    FlowConfig(mode="per-scale", a_seq=(1.05, 1.01, 1.002), b_seq=(1.03, 1.005), vol_seq=(1.01, 1.002),
               a_limit=1.01, b_limit=0.99),
    FlowConfig(surrogate=True, rho=0.2, c_R=0.2, c_F=0.2, c_M=0.05),
    FlowConfig(mode="per-scale", surrogate=True, rho=0.3, c_R=0.4, c_F=0.1, c_M=0.2,
               a_seq=(1.05, 1.01), b_seq=(1.03,), vol_seq=(1.01, 1.0)),
], ids=["limit", "per-scale", "surrogate", "per-scale+surrogate"])
def test_apply_T_matches_per_scale_loop(flow):
    prob = ManifoldProblem(y1=0.01, J=3000, flow=flow)
    th = prob.tau * prob.h()
    rng = np.random.default_rng(11)
    for _ in range(3):
        seq = WeightedSequence(th * rng.uniform(-1, 1, prob.J), 0.5 * th * rng.uniform(-1, 1, prob.J),
                               th**2 * rng.uniform(0, 1, prob.J))
        new, old = apply_T(seq, prob), _apply_T_loop(seq, prob)
        for a, b in ((new.w_plus, old.w_plus), (new.w_minus, old.w_minus), (new.kappa, old.kappa)):
            np.testing.assert_array_equal(a, b)


def _classify_reference(x1, y1, ceiling, j_max):
    """The shooting classification with the stable wedge and the ceilings as
    its only exits (oracle): every unstable trajectory runs to the ceiling."""
    x, y = float(x1), float(y1)
    for _ in range(j_max):
        if y >= ceiling or x <= -ceiling:
            return "unstable"
        if y <= 0.0 or x >= ceiling or (x > 0.0 and x >= 2.0 * y):
            return "stable"
        x, y = x - y * y, y - x * y
    raise RuntimeError(f"shooting trajectory inconclusive after {j_max} steps")


def _classify_stepwise(x1, y1, ceiling, j_max):
    """The shooting classification with every exit tested before every step
    (oracle for the block-stepped `_classify`)."""
    x, y = float(x1), float(y1)
    for _ in range(j_max):
        if y <= 0.0:
            return "unstable" if x <= -ceiling else "stable"
        if y >= ceiling or (y >= 2.0 * x and x < 1.0):
            return "unstable"
        if x >= ceiling or x >= 2.0 * y:
            return "stable"
        x, y = x - y * y, y - x * y
    raise RuntimeError(f"shooting trajectory inconclusive after {j_max} steps")


def _outcome(classify, *args):
    """The class, or the message of the RuntimeError raised."""
    try:
        return classify(*args)
    except RuntimeError as e:
        return str(e)


def _classify_points(ceiling):
    """Uniform on the square, then a band along the separatrix x1 ~ y1, where
    trajectories are decided late."""
    rng = np.random.default_rng(int(10 * ceiling))
    pts = rng.uniform(-1.5, 1.5, size=(10_000, 2)).tolist()
    y = rng.uniform(0.005, 0.1, size=500)
    pts += np.column_stack([y * (1.0 + rng.uniform(-0.01, 0.01, size=500)), y]).tolist()
    return pts


@pytest.mark.parametrize("ceiling", [0.5, 1.0, 2.0, 10.0])
def test_classify_matches_reference_on_random_points(ceiling):
    j_max = 100_000
    seen = {"stable": 0, "unstable": 0}
    for x1, y1 in _classify_points(ceiling):
        try:
            want = _classify_reference(x1, y1, ceiling, j_max)
        except RuntimeError:
            continue
        assert _classify(x1, y1, ceiling, j_max) == want, (x1, y1)
        seen[want] += 1
    assert min(seen.values()) > 2000 and sum(seen.values()) > 10_000


@pytest.mark.parametrize("ceiling", [0.5, 1.0, 2.0, 10.0])
def test_classify_matches_stepwise_loop(ceiling):
    # the same class, or the same "inconclusive" error, for step budgets
    # below, at and above one block
    pts = _classify_points(ceiling)
    for j_max in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 1000, 100_000):
        seen = set()
        for x1, y1 in pts:
            want = _outcome(_classify_stepwise, x1, y1, ceiling, j_max)
            assert _outcome(_classify, x1, y1, ceiling, j_max) == want, (x1, y1, j_max)
            seen.add(want)
        assert {"stable", "unstable"} <= seen
        if j_max <= 1000:
            assert f"shooting trajectory inconclusive after {j_max} steps" in seen


def _stepwise_decision_steps(x1, y1, ceiling):
    """The least j_max with which the stepwise loop decides (x1, y1)."""
    lo, hi = 0, 100_000
    assert _outcome(_classify_stepwise, x1, y1, ceiling, hi) in ("stable", "unstable")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _outcome(_classify_stepwise, x1, y1, ceiling, mid) in ("stable", "unstable"):
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("x1", [0.02003, 0.01997], ids=["stable", "unstable"])
def test_classify_decides_at_the_stepwise_step(x1):
    # A start near the separatrix Sigma(0.02) ~ 0.02 is decided after more
    # than three blocks: a budget of N steps decides it, N - 1 steps do not.
    # Stepped on so that its deciding state ends a block, it checks that such
    # a block is replayed step by step rather than decided at its end.
    y1, ceiling = 0.02, 1.0
    n = _stepwise_decision_steps(x1, y1, ceiling)
    assert n > 3 * _BLOCK
    x, y = x1, y1
    for _ in range((n - 1) % _BLOCK):
        x, y = x - y * y, y - x * y
    m = n - (n - 1) % _BLOCK
    for start, steps in (((x1, y1), n), ((x, y), m)):
        for classify in (_classify_stepwise, _classify):
            assert classify(*start, ceiling, steps) == ("stable" if x1 > y1 else "unstable")
            with pytest.raises(RuntimeError, match=f"inconclusive after {steps - 1} steps"):
                classify(*start, ceiling, steps - 1)


def test_classify_unstable_wedge_needs_x_below_one():
    # in the wedge y >= 2x but with x > 1: y' = y(1 - x) < 0, so y dies
    assert _classify_reference(1.1, 2.3, 10.0, 100) == "stable"
    assert _classify(1.1, 2.3, 10.0, 100) == "stable"


def test_unstable_wedge_is_forward_invariant():
    rng = np.random.default_rng(5)
    for ceiling in (0.5, 1.0, 2.0, 10.0):
        for _ in range(2000):
            y = rng.uniform(1e-6, ceiling)
            x = rng.uniform(-2.0 * ceiling, min(0.5 * y, 1.0 - 1e-12))
            x, y = x - y * y, y - x * y
            assert (y > 0.0 and y >= 2.0 * x and x < 1.0) or y >= ceiling, (x, y, ceiling)


@pytest.mark.parametrize("y1", [0.01, 0.02, 0.03, 0.04])
def test_shooting_matches_reference_bisection(y1, monkeypatch):
    # the block-stepped oracle bisects to the stepwise loop's Sigma bit for bit
    tols = (1e-10, 2e-10)
    got = [solve_shooting(y1, tol=tol) for tol in tols]
    monkeypatch.setattr(ktrg.manifold, "_classify", _classify_stepwise)
    assert got == [solve_shooting(y1, tol=tol) for tol in tols]


def test_shooting_stops_at_adjacent_floats(monkeypatch):
    # a tol below the float spacing near y1 ends the bisection at adjacent floats
    y1 = 0.03
    calls = []

    def classify(x1, y, ceiling, j_max):
        calls.append(x1)
        return "unstable" if x1 < y else "stable"

    monkeypatch.setattr(ktrg.manifold, "_classify", classify)
    sigma = solve_shooting(y1, tol=1e-20)
    assert abs(sigma - y1) <= math.ulp(y1)
    assert len(calls) <= 2 + 64


@pytest.mark.parametrize("bad", [0, -3, 2.5, 1e7, True, "100"])
def test_shooting_rejects_bad_j_max(bad):
    with pytest.raises(ValueError, match="j_max must be an int >= 1"):
        solve_shooting(0.01, j_max=bad)
