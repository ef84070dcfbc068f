import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ktrg.manifold
from ktrg.flow import FlowConfig, _advance, corrections, diagonal, trajectory, kosterlitz_q_array
from ktrg.manifold import (
    _classify,
    _distance,
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

from conftest import deviation_table


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
    d = WeightedSequence(again.w_plus - res.seq.w_plus, again.w_minus - res.seq.w_minus)
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


def _unstable_contraction(prob, n_samples, seed=7):
    """Max over the pairs `empirical_contraction` draws of the unstable
    channel's ratio 2 |Delta (Tw)-| / (tau h) over the input distance."""
    rng = np.random.default_rng(seed)
    th = prob.tau * prob.h()
    worst = 0.0
    for _ in range(n_samples):
        a, b = (WeightedSequence(th * rng.uniform(-1.0, 1.0, prob.J), 0.5 * th * rng.uniform(-1.0, 1.0, prob.J))
                for _ in range(2))
        dT = apply_T(a, prob).w_minus - apply_T(b, prob).w_minus
        worst = max(worst, float(np.max(2.0 * np.abs(dT) / th)) / _distance(a, b, prob))
    return worst


def test_contraction_shrinks_with_tau():
    # The estimate is set by the stable channel at j = 1, where (Tw)+_1 = w-_1
    # is linear, so it does not depend on tau.  The unstable channel is
    # quadratic in w: its ratio falls in proportion to tau.
    taus = (0.3, 0.1, 0.02)
    probs = [ManifoldProblem(y1=0.01, J=2000, tau=t) for t in taus]
    lips = [empirical_contraction(p, n_samples=40) for p in probs]
    assert max(lips) - min(lips) <= 4 * math.ulp(lips[0])
    unstable = [_unstable_contraction(p, n_samples=40) for p in probs]
    assert unstable[0] > unstable[1] > unstable[2]
    assert max(u / t for u, t in zip(unstable, taus)) <= 1.1 * min(u / t for u, t in zip(unstable, taus))


def test_contraction_requires_samples():
    with pytest.raises(ValueError):
        empirical_contraction(ManifoldProblem(y1=0.01, J=500), n_samples=1)


def test_contraction_at_zero_activity_is_zero_without_sampling():
    # T is the zero map at y1 = 0; sampling it divided 0 by 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert empirical_contraction(ManifoldProblem(y1=0.0, J=100), 5) == 0.0


@pytest.mark.parametrize("channel", ["w_plus", "w_minus"])
def test_contraction_raises_on_a_ratio_that_is_not_finite(monkeypatch, channel):
    # max(worst, nan) kept worst, so a NaN sample used to pass the gate
    def nan_T(seq, prob):
        out = {"w_plus": np.zeros(prob.J), "w_minus": np.zeros(prob.J)}
        out[channel][3] = np.nan
        return WeightedSequence(**out)

    monkeypatch.setattr(ktrg.manifold, "apply_T", nan_T)
    with pytest.raises(RuntimeError, match="contraction sample 0: .* not finite"):
        empirical_contraction(ManifoldProblem(y1=0.01, J=100), 5)


def test_shooting_bracket_validation():
    with pytest.raises(ValueError):
        solve_shooting(0.01, bracket=(0.05, 0.1))  # both stable
    with pytest.raises(ValueError):
        solve_shooting(0.01, flow_config=FlowConfig(deviations=((0.0, 0.0, 0.0),)))


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
        seq = WeightedSequence(th * rng.uniform(-1, 1, prob.J), 0.5 * th * rng.uniform(-1, 1, prob.J))
        out = apply_T(seq, prob)
        assert seq_norm(out, prob) <= 1.0 + 1e-9


def test_apply_T_warns_outside_ball():
    import warnings as _w

    prob = ManifoldProblem(y1=0.01, J=500)
    th = prob.tau * prob.h()
    bad = WeightedSequence(5.0 * th, np.zeros(prob.J))
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


@pytest.mark.parametrize("field", ["tau"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_problem_rejects_bad_tau_and_eps1(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite and > 0"):
        ManifoldProblem(y1=0.3, **{field: bad})


@pytest.mark.parametrize("y1", [0.0500001, -0.0500001, 0.06])
def test_problem_rejects_activity_above_eps1(y1):
    # the weighted-ball scheme holds for |y1| <= 0.05 only; 0.05 itself is admitted
    with pytest.raises(ValueError, match=rf"\|y1\| = {abs(y1)} above the admissible eps1 = 0\.05"):
        ManifoldProblem(y1=y1)
    assert ManifoldProblem(y1=0.05).y1 == 0.05


# per-scale tables that end at their limits: the fixed point leaves the
# diagonal, and T takes 12 applications to reach it from either start
_PER_SCALE = FlowConfig(deviations=deviation_table(a=(1.05, 1.02, 1.01), b=(1.03, 0.99), vol=(1.01, 1.0),
                                                   a_lim=1.01, b_lim=0.99))
# tables that end away from their limits (a_3 = 1.002 against 1.01): past
# the table the flow is the limit flow, so the fixed point does not depend
# on how far J reaches beyond it
_AWAY = FlowConfig(deviations=deviation_table(a=(1.05, 1.01, 1.002), b=(1.03, 1.005), vol=(1.01, 1.002),
                                              a_lim=1.01, b_lim=0.99))


def test_fixed_point_out_of_iterations_raises():
    # in limit mode the diagonal seed converges in 2 applications; the
    # per-scale problem still needs more than 3
    with pytest.raises(RuntimeError, match=r"y1=0.01 not converged after 3 iterations: residual \d"):
        solve_fixed_point(ManifoldProblem(y1=0.01, flow=_PER_SCALE), max_iter=3)


def _solve_from_zero(prob, tol=1e-13, max_iter=200, T=apply_T):
    """(sigma, seq) of T iterated from the zero sequence, the solver's
    start before the diagonal seed (oracle)."""
    if prob.y1 == 0.0:
        return 0.0, WeightedSequence.zero(prob.J)
    if prob.y1 < 0.0:
        return _solve_from_zero(replace(prob, y1=-prob.y1), tol, max_iter, T)
    seq = WeightedSequence.zero(prob.J)
    prev_res = None
    for it in range(1, max_iter + 1):
        new = T(seq, prob)
        res = _distance(new, seq, prob)
        seq = new
        if res <= tol:
            return prob.y1 + float(seq.w_minus[0]), seq
        if prev_res is not None and prev_res > 0 and res / prev_res > 0.95 and res > 100 * tol:
            raise RuntimeError(f"fixed-point iteration not contracting: ratio {res / prev_res:.3f}")
        prev_res = res
    raise RuntimeError(f"fixed point at y1={prob.y1} not converged after {max_iter} iterations")


@pytest.mark.parametrize("flow", [FlowConfig(), _PER_SCALE], ids=["limit", "per-scale"])
@pytest.mark.parametrize("J", [8, 20_000, 100_000])
def test_diagonal_seed_matches_zero_start(flow, J):
    # same Sigma bit for bit, same ball verdict, sequences within 1e-15
    # (weighted); at y1 = 0.05 both leave the ball past the shortest horizon
    # and T warns
    for y1 in (0.005, 0.01, 0.02, 0.04, -0.02, 0.05):
        prob = ManifoldProblem(y1=y1, J=J, flow=flow)
        outside = y1 == 0.05 and J > 8
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            fp = solve_fixed_point(prob)
            sigma, seq = _solve_from_zero(prob)
        assert fp.sigma == sigma, (y1, J)
        assert _distance(fp.seq, seq, prob) <= 1e-15, (y1, J)
        assert fp.in_ball == (seq_norm(seq, prob) <= 1.0 + 1e-9) == (not outside), (y1, J)
        assert any("ball" in str(r.message) for r in rec) == outside, (y1, J)
        assert fp.iterations == (12 if flow == _PER_SCALE else 2 if J > 8 else 1), (y1, J)


def _diagonal_miss(seq, prob):
    """max |w+ - 3 (s - q)|, s the diagonal flow from y1."""
    return float(np.max(np.abs(seq.w_plus - 3.0 * (diagonal(prob.y1, prob.J) - prob.q()))))


def _old_stable_term(q, q_next, w_plus):
    """The linear W+ term before its derivation was corrected (wrong)."""
    return (2.0 * q - q_next) * q_next * w_plus


@pytest.mark.parametrize("y1", [0.005, 0.01, 0.02, 0.04])
def test_limit_fixed_point_is_the_diagonal(y1):
    # the limit flow keeps x = y: w- vanishes exactly and w+ is the explicit
    # diagonal flow; the W+ term before its correction misses that bound
    prob = ManifoldProblem(y1=y1)
    seq = solve_fixed_point(prob).seq
    assert np.all(seq.w_minus == 0.0)
    assert _diagonal_miss(seq, prob) <= 1e-16
    _, old = _solve_from_zero(prob, T=lambda w, p: _apply_T_loop(w, p, stable_term=_old_stable_term))
    assert _diagonal_miss(old, prob) > 1e-8


def _stable_term(q, q_next, w_plus):
    """The linear W+ term of `apply_T`."""
    return -(3.0 + 2.0 * q) * q_next**2 * w_plus


def _apply_T_loop(seq, prob, stable_term=_stable_term):
    """The fixed-point map with one scalar kernel call per scale (oracle)."""
    J, cfg = prob.J, prob.flow
    q = prob.q()
    q_next = np.append(q[1:], prob.y1 / (1.0 + abs(prob.y1) * J))
    u = (seq.w_plus + 2.0 * seq.w_minus) / 3.0
    v = (seq.w_plus - seq.w_minus) / 3.0
    x, y = q + u, q + v
    Ft, Mt = np.zeros(J), np.zeros(J)
    for i in range(J):
        Ft[i], Mt[i] = corrections(i + 1, float(x[i]), float(y[i]), cfg)
    U = -(v * v) - q * q * q_next + Ft
    V = -(u * v) - q * q * q_next + Mt
    Wp = U + 2.0 * V + stable_term(q, q_next, seq.w_plus)
    Wm = U - V
    suffix = np.cumsum((q_next * Wm)[::-1])[::-1]
    h = prob.h()
    tail = (Wm[-1] / h[-1] ** 2 if h[-1] > 0 else 0.0) * _tail_envelope(prob)
    w_minus = -(suffix + tail) / q
    prefix = np.concatenate([[0.0], np.cumsum(Wp / q_next**2)[:-1]])
    w_plus = q * q * (seq.w_minus[0] / q[0] ** 2 + prefix)
    return WeightedSequence(w_plus, w_minus)


@pytest.mark.parametrize("flow", [FlowConfig(), _AWAY], ids=["limit", "per-scale"])
def test_apply_T_matches_per_scale_loop(flow):
    prob = ManifoldProblem(y1=0.01, J=3000, flow=flow)
    th = prob.tau * prob.h()
    rng = np.random.default_rng(11)
    for _ in range(3):
        seq = WeightedSequence(th * rng.uniform(-1, 1, prob.J), 0.5 * th * rng.uniform(-1, 1, prob.J))
        new, old = apply_T(seq, prob), _apply_T_loop(seq, prob)
        for a, b in ((new.w_plus, old.w_plus), (new.w_minus, old.w_minus)):
            np.testing.assert_array_equal(a, b)


def _apply_T_with_zero_corrections(seq, prob):
    """`apply_T` with the limit flow's corrections added as arrays (oracle)."""
    J = prob.J
    q = prob.q()
    q_next = np.append(q[1:], prob.y1 / (1.0 + abs(prob.y1) * J))
    u, v = undiagonalize(seq.w_plus, seq.w_minus)
    Ft, Mt = corrections(np.arange(1, J + 1), q + u, q + v, prob.flow)
    U = -(v * v) - q * q * q_next + Ft
    V = -(u * v) - q * q * q_next + Mt
    Wp = U + 2.0 * V - (3.0 + 2.0 * q) * q_next**2 * seq.w_plus
    Wm = U - V
    suffix = np.cumsum((q_next * Wm)[::-1])[::-1]
    h = prob.h()
    tail = (Wm[-1] / h[-1] ** 2 if h[-1] > 0 else 0.0) * _tail_envelope(prob)
    w_minus = -(suffix + tail) / q
    prefix = np.concatenate([[0.0], np.cumsum(Wp / q_next**2)[:-1]])
    w_plus = q * q * (seq.w_minus[0] / q[0] ** 2 + prefix)
    return WeightedSequence(w_plus, w_minus)


@pytest.mark.parametrize("J", [8, 3000, 100_000])
def test_limit_apply_T_skips_the_zero_corrections_bitwise(monkeypatch, J):
    # limit mode adds no corrections; the sum with the zeros is the oracle
    import ktrg.manifold as manifold

    prob = ManifoldProblem(y1=0.01, J=J)
    th = prob.tau * prob.h()
    rng = np.random.default_rng(J)
    seqs = [WeightedSequence(th * rng.uniform(-1, 1, J), 0.5 * th * rng.uniform(-1, 1, J)) for _ in range(2)]
    seqs.append(solve_fixed_point(prob).seq)
    want = [_apply_T_with_zero_corrections(seq, prob) for seq in seqs]
    monkeypatch.setattr(manifold, "corrections", None)
    for seq, old in zip(seqs, want):
        new = apply_T(seq, prob)
        for a, b in ((new.w_plus, old.w_plus), (new.w_minus, old.w_minus)):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("flow, J", [(_AWAY, 3000), (FlowConfig(deviations=deviation_table(a=(1.05,) * 12)), 8)],
                         ids=["depth-3", "deeper-than-J"])
def test_per_scale_apply_T_corrects_the_scales_of_the_table_only(monkeypatch, flow, J):
    # one kernel call on the first min(depth, J) scales; past them T is the
    # limit map
    import ktrg.manifold as manifold

    calls = []

    def recording(j, x, y, config):
        calls.append((np.array(j), len(x), len(y)))
        return corrections(j, x, y, config)

    prob = ManifoldProblem(y1=0.01, J=J, flow=flow)
    th = prob.tau * prob.h()
    seq = WeightedSequence(th * np.linspace(-1, 1, J), 0.5 * th * np.linspace(1, -1, J))
    want = _apply_T_loop(seq, prob)
    monkeypatch.setattr(manifold, "corrections", recording)
    new = apply_T(seq, prob)
    n = min(flow.depth, J)
    assert len(calls) == 1
    j, nx, ny = calls[0]
    np.testing.assert_array_equal(j, np.arange(1, n + 1))
    assert nx == ny == n
    for a, b in ((new.w_plus, want.w_plus), (new.w_minus, want.w_minus)):
        np.testing.assert_array_equal(a, b)


# Sigma of the table ending away from its limits, the same at every J
_AWAY_SIGMA = {0.005: 0.0050587788223798273, 0.01: 0.010114995936847464, 0.04: 0.040404582297643925}


@pytest.mark.parametrize("y1", sorted(_AWAY_SIGMA))
def test_fixed_point_of_a_table_ending_away_from_its_limits(y1):
    # the table acts on its own three scales only, so T converges as on a
    # table that ends at its limits, and Sigma does not move with J
    fps = [solve_fixed_point(ManifoldProblem(y1=y1, J=J, flow=_AWAY)) for J in (3000, 20_000)]
    assert [fp.iterations for fp in fps] == [12, 12]
    assert all(fp.in_ball for fp in fps)
    assert fps[0].sigma == fps[1].sigma == _AWAY_SIGMA[y1]


@pytest.mark.parametrize("flow", [FlowConfig(), _PER_SCALE, _AWAY], ids=["limit", "per-scale", "away"])
@pytest.mark.parametrize("y1", [0.01, 0.04])
def test_fixed_point_is_a_flow_trajectory(flow, y1):
    # x = q + u, y = q + v of the fixed point step into each other under the
    # flow, also for a table that ends away from its limits
    prob = ManifoldProblem(y1=y1, flow=flow)
    seq = solve_fixed_point(prob).seq
    u, v = undiagonalize(seq.w_plus, seq.w_minus)
    x, y = prob.q() + u, prob.q() + v
    x_next, y_next = _advance(np.arange(1, prob.J), x[:-1], y[:-1], flow)
    assert np.max(np.abs(x_next - x[1:])) <= 1e-15
    assert np.max(np.abs(y_next - y[1:])) <= 1e-15


# Relative width of the narrow wedges around x = y in the per-step oracle
# below, and the floor under the coordinate that scales it: the smallest
# power of two F with _EPS * F >= 6u, u = 2^-53.
_EPS = 2.0**-10
_FLOOR = 2.0**-40


def _classify_reference(x1, y1, ceiling, j_max):
    """The shooting classification with the stable wedge and the ceilings as
    its only exits (oracle): every unstable trajectory runs to the ceiling."""
    x, y = float(x1), float(y1)
    for _ in range(j_max):
        if y >= ceiling or x <= -ceiling:
            return "unstable"
        if y <= 0.0 or x >= ceiling or (0.0 < x < 1.0 and x >= 2.0 * y):
            return "stable"
        x, y = x - y * y, y - x * y
    raise RuntimeError(f"shooting trajectory inconclusive after {j_max} steps")


def _stepwise_run(x1, y1, ceiling, j_max):
    """(class, steps taken before it) of the per-step loop whose only wedge
    exits are the 2y wedges, or (None, j_max) if it does not decide."""
    x, y = float(x1), float(y1)
    for n in range(j_max):
        if y <= 0.0:
            return ("unstable" if x <= -ceiling else "stable"), n
        if y >= ceiling or (y >= 2.0 * x and x < 1.0):
            return "unstable", n
        if x >= ceiling or (x >= 2.0 * y and x < 1.0):
            return "stable", n
        x, y = x - y * y, y - x * y
    return None, j_max


def _classify_stepwise(x1, y1, ceiling, j_max):
    """The shooting classification with the 2y wedges as its only wedge exits
    and every exit tested before every step (oracle for the narrow wedges)."""
    side, _ = _stepwise_run(x1, y1, ceiling, j_max)
    if side is None:
        raise RuntimeError(f"shooting trajectory inconclusive after {j_max} steps")
    return side


def _narrow_run(x1, y1, ceiling, j_max):
    """(outcome, steps taken before it) of the per-step loop with the narrow
    wedges and the diagonal as exits too, or (None, j_max)."""
    x, y = float(x1), float(y1)
    for n in range(j_max):
        if y <= 0.0:
            return ("unstable" if x <= -ceiling else "stable"), n
        if y >= ceiling or (x < 1.0 and (y >= 2.0 * x or y - x >= _EPS * max(x, _FLOOR))):
            return "unstable", n
        if x >= ceiling or (x < 1.0 and (x >= 2.0 * y or x - y >= _EPS * max(y, _FLOOR))):
            return "stable", n
        if x == y and x < 1.0:
            return "diagonal", n
        x, y = x - y * y, y - x * y
    return None, j_max


def _classify_narrow_stepwise(x1, y1, ceiling, j_max):
    """The shooting classification with every exit, the narrow wedges and
    the diagonal included, tested before every step (oracle for the sign
    test of `_classify`)."""
    side, _ = _narrow_run(x1, y1, ceiling, j_max)
    if side is None:
        raise RuntimeError(f"shooting trajectory inconclusive after {j_max} steps")
    return side


def _outcome(classify, *args):
    """The class, or the message of the RuntimeError raised."""
    try:
        return classify(*args)
    except RuntimeError as e:
        return str(e)


def _near_separatrix(rng, n, rel):
    """n starts x1 = y1 (1 + delta), |delta| < rel, where trajectories are
    decided late."""
    y = rng.uniform(0.005, 0.1, size=n)
    return np.column_stack([y * (1.0 + rng.uniform(-rel, rel, size=n)), y]).tolist()


def _classify_points(ceiling):
    """Uniform on the square, then a band along the separatrix x1 ~ y1, then
    (9, 4.5), which the first bare step takes past x = -10."""
    rng = np.random.default_rng(int(10 * ceiling))
    pts = rng.uniform(-1.5, 1.5, size=(10_000, 2)).tolist()
    return pts + _near_separatrix(rng, 500, 0.01) + [[9.0, 4.5]]


@pytest.mark.parametrize("ceiling", [0.5, 1.0, 2.0, 10.0])
def test_classify_matches_reference_on_random_points(ceiling):
    j_max = 100_000
    seen = {"stable": 0, "unstable": 0}
    for x1, y1 in _classify_points(ceiling):
        try:
            want = _classify_reference(x1, y1, ceiling, j_max)
        except RuntimeError:
            continue
        assert _classify(x1, y1, ceiling) == want, (x1, y1)
        seen[want] += 1
    assert min(seen.values()) > 2000 and sum(seen.values()) > 10_000


# x1 one ulp above y1 whose first rounded step lands exactly on x = y
_COLLAPSE = (float.fromhex("0x1.6d6356d40d834p-3"), float.fromhex("0x1.6d6356d40d833p-3"))


def _ulps_off_diagonal(rng, n):
    """n starts 1 to 3 ulps off x1 = y1, y1 log-uniform on [2^-12, 1)."""
    pts = []
    for _ in range(n):
        y = math.ldexp(rng.uniform(1.0, 2.0), int(rng.integers(-12, 0)))
        k = int(rng.integers(1, 4))
        pts.append([_ulps_away(y, k if rng.random() < 0.5 else -k), y])
    return pts


@pytest.mark.parametrize("ceiling", [0.5, 1.0, 2.0, 10.0])
def test_classify_matches_stepwise_loop(ceiling):
    # the per-step loop with the narrow exits gives the sign test's class
    # wherever it decides a side; where a start off x = y rounds onto the
    # diagonal it says "diagonal", and the sign test gives the start's side
    # (the ulp-off starts that collapse do so within a few dozen steps)
    rng = np.random.default_rng(int(10 * ceiling) + 1)
    runs = [(x1, y1, 10_000) for x1, y1 in _classify_points(ceiling) + _near_separatrix(rng, 200, 1e-5)]
    runs += [(x1, y1, 100) for x1, y1 in _ulps_off_diagonal(rng, 2000) + [list(_COLLAPSE)]]
    seen = {"stable": 0, "unstable": 0, "collapsed": 0}
    for x1, y1, j_max in runs:
        want = _outcome(_classify_narrow_stepwise, x1, y1, ceiling, j_max)
        got = _classify(x1, y1, ceiling)
        if want == "diagonal" and x1 != y1:
            assert got == ("stable" if x1 > y1 else "unstable"), (x1, y1)
            seen["collapsed"] += 1
        elif want in ("stable", "unstable"):
            assert got == want, (x1, y1)
            seen[want] += 1
    assert seen["stable"] > 2000 and seen["unstable"] > 2000 and seen["collapsed"] >= 2


@pytest.mark.parametrize("ceiling", [0.5, 1.0, 2.0, 10.0])
def test_narrow_wedges_decide_as_the_2y_loop_in_no_more_steps(ceiling):
    # wherever the 2y loop decides, the narrow wedges give its class with a
    # budget of the steps it took; near the separatrix they decide far sooner
    pts = _classify_points(ceiling) + _near_separatrix(np.random.default_rng(int(10 * ceiling) + 2), 200, 1e-4)
    old_steps = new_steps = 0
    for x1, y1 in pts:
        side, n = _stepwise_run(x1, y1, ceiling, 200_000)
        if side is None:
            continue
        narrow_side, m = _narrow_run(x1, y1, ceiling, n + 1)
        assert narrow_side == side and _classify(x1, y1, ceiling) == side, (x1, y1)
        old_steps += n
        new_steps += m
    assert new_steps < old_steps / 10


def test_classify_unstable_wedge_needs_x_below_one():
    # in the wedge y >= 2x but with x > 1: y' = y(1 - x) < 0, so y dies
    assert _classify_reference(1.1, 2.3, 10.0, 100) == "stable"
    assert _classify(1.1, 2.3, 10.0) == "stable"


def test_stable_2y_wedge_needs_x_below_one():
    # x >= 2y with x > 1: y' = y(1 - x) < 0, and x' = x - y^2 = -11.25 is
    # already past -ceiling, which makes the trajectory unstable
    for c in (_classify_reference, _classify_stepwise, _classify_narrow_stepwise):
        assert c(9.0, 4.5, 10.0, 100) == "unstable"
    assert _classify(9.0, 4.5, 10.0) == "unstable"


def test_narrow_stable_wedge_needs_x_below_one():
    # x - y >= eps y with x > 1: y' < 0, and x' = x - y^2 may already be
    # below -ceiling, which makes the trajectory unstable
    for c in (_classify_stepwise, _classify_narrow_stepwise):
        assert c(4.1, 4.0, 10.0, 100) == "unstable"
    assert _classify(4.1, 4.0, 10.0) == "unstable"


def test_unstable_wedge_is_forward_invariant():
    rng = np.random.default_rng(5)
    for ceiling in (0.5, 1.0, 2.0, 10.0):
        for _ in range(2000):
            y = rng.uniform(1e-6, ceiling)
            x = rng.uniform(-2.0 * ceiling, min(0.5 * y, 1.0 - 1e-12))
            x, y = x - y * y, y - x * y
            assert (y > 0.0 and y >= 2.0 * x and x < 1.0) or y >= ceiling, (x, y, ceiling)


def test_narrow_floor_is_the_least_the_proof_allows():
    # the wedge distance stops shrinking once it is at least 6u (_narrow_run)
    u = 2.0**-53
    assert _EPS * _FLOOR >= 6 * u > _EPS * _FLOOR / 2


# log-uniform on [2^-50, 1): every scale from eps F up to x, y < 1
_SCALE = st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(-50, -1))


def _off_diagonal(lo, t, k):
    """The coordinate above lo in a narrow-wedge state: the width
    eps max(lo, F) plus t (lo - width), rounded up to at least the width,
    then k doubles further up."""
    w = _EPS * max(lo, _FLOOR)
    hi = lo + (w + t * (lo - w))
    while hi - lo < w:
        hi = math.nextafter(hi, 2.0)
    for _ in range(k):
        hi = math.nextafter(hi, 2.0)
    return hi


@settings(max_examples=500, deadline=None)
@given(y=_SCALE, t=st.floats(0.0, 1.0), k=st.integers(0, 3))
def test_narrow_stable_wedge_is_forward_invariant(y, t, k):
    # a state of the narrow stable wedge off the 2y wedge, at, above and
    # below the floor, steps into the narrow or the 2y stable wedge
    x = _off_diagonal(y, t, k)
    assume(x < 1.0 and x - y < y)
    x, y = x - y * y, y - x * y
    assert x >= 0.0 and (y == 0.0 or x >= 2.0 * y or x - y >= _EPS * max(y, _FLOOR)), (x, y)


@settings(max_examples=500, deadline=None)
@given(x=_SCALE, t=st.floats(0.0, 1.0), k=st.integers(0, 3))
def test_narrow_unstable_wedge_is_forward_invariant(x, t, k):
    # likewise: the narrow unstable wedge steps into itself or the 2y wedge
    y = _off_diagonal(x, t, k)
    assume(y - x < x)
    x, y = x - y * y, y - x * y
    assert y > 0.0 and x < 1.0 and (y >= 2.0 * x or y - x >= _EPS * max(x, _FLOOR)), (x, y)


def _ulps_away(x, k):
    """x moved |k| ulps, up for k > 0 and down for k < 0."""
    for _ in range(abs(k)):
        x = math.nextafter(x, 2.0 if k > 0 else 0.0)
    return x


@settings(max_examples=2000, deadline=None)
@given(x=_SCALE, other=st.one_of(st.integers(-3, 3).filter(bool), _SCALE,
                                 st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
def test_rounded_step_keeps_the_order_of_x_and_y(x, other):
    # the order lemma behind _classify: for 0 < x != y < 1, 1 to 3 ulps
    # apart or not, one rounded bare step never reverses the sign of x - y
    y = _ulps_away(x, other) if isinstance(other, int) else other
    assume(x != y and 0.0 < y < 1.0)
    for a, b in ((x, y), (y, x)):
        a2, b2 = a - b * b, b - a * b
        assert (a2 >= b2 if a > b else a2 <= b2), (a, b, a2, b2)


@pytest.mark.parametrize("ceiling", [0.5, 1.0, 10.0])
@pytest.mark.parametrize("t", [2.0**-1074, 1e-300, 0.3, 0.5, 1.0 - 2.0**-53])
def test_classify_reports_the_diagonal(t, ceiling):
    # x = y < 1 steps to x' = y' bit for bit, so no exit ever fires
    want = "diagonal" if t < ceiling else "unstable"
    for j_max in (1, 10_000):
        assert _classify_narrow_stepwise(t, t, ceiling, j_max) == want
    assert _classify(t, t, ceiling) == want
    x, y = t, t
    for _ in range(1000):
        x, y = x - y * y, y - x * y
        assert x == y and y > 0.0


@pytest.mark.parametrize("y1", [0.05, 0.025, 0.0125])
def test_shooting_returns_a_midpoint_on_the_diagonal(y1):
    # y1 a dyadic fraction of the bracket (0, 0.1): a midpoint is y1 itself,
    # whose trajectory stays on x = y; the 2y loop ran such a start to j_max
    assert solve_shooting(y1) == y1
    with pytest.raises(RuntimeError, match="inconclusive after 1000 steps"):
        _classify_stepwise(y1, y1, 1.0, 1000)


def test_shooting_returns_a_bracket_edge_on_the_diagonal():
    assert solve_shooting(0.01, bracket=(0.01, 0.1)) == 0.01
    assert solve_shooting(0.01, bracket=(0.0, 0.01)) == 0.01


@pytest.mark.parametrize("y1", [0.005, 0.01, 0.02, 0.03, 0.04])
def test_shooting_matches_reference_bisection(y1, monkeypatch):
    # the sign test bisects to the stepwise loop's Sigma bit for bit
    tols = (1e-10, 2e-10)
    got = [solve_shooting(y1, tol=tol) for tol in tols]
    monkeypatch.setattr(ktrg.manifold, "_classify", lambda x1, y, ceiling: _classify_stepwise(x1, y, ceiling, 10_000_000))
    assert got == [solve_shooting(y1, tol=tol) for tol in tols]


@pytest.mark.parametrize("y1", [0.01, 0.04, 0.0375])
def test_shooting_reaches_tight_tolerances(y1):
    # the 2y loop gave up on 0.01 and 0.04 after 1e7 steps, the narrow
    # wedges on 0.0375, whose third midpoint lies one ulp off x = y;
    # limit-mode Sigma is y1
    assert abs(solve_shooting(y1, tol=1e-12) - y1) <= 1e-12


def test_shooting_stops_at_adjacent_floats(monkeypatch):
    # a tol below the float spacing near y1 ends the bisection at adjacent floats
    y1 = 0.03
    calls = []

    def classify(x1, y, ceiling):
        calls.append(x1)
        return "unstable" if x1 < y else "stable"

    monkeypatch.setattr(ktrg.manifold, "_classify", classify)
    sigma = solve_shooting(y1, tol=1e-20)
    assert abs(sigma - y1) <= math.ulp(y1)
    assert len(calls) <= 2 + 64
