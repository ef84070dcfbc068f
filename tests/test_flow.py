import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ktrg.flow import (
    FlowConfig,
    FlowState,
    corrections,
    kosterlitz_q,
    step,
    trajectory,
    deviation_profile,
    to_rescaled,
    from_rescaled,
    step_original_zero,
)


def sweep(starts, config):
    """Independent trajectories for (x1, y1) pairs, one row dict each."""
    rows = []
    for (x1, y1) in starts:
        t = trajectory(x1, y1, config)
        rows.append(dict(x1=x1, y1=y1, diverged=int(t.diverged_at is not None),
                         divergence_scale=t.diverged_at if t.diverged_at is not None else -1))
    return rows


def test_kosterlitz_q_values():
    assert kosterlitz_q(0.1, 11) == pytest.approx(0.05, rel=1e-15)
    assert kosterlitz_q(0.0, 7) == 0.0
    with pytest.raises(ValueError):
        kosterlitz_q(0.1, 0)


def test_kosterlitz_q_identity():
    # q_{j+1} - q_j = -q_j q_{j+1}
    for q1 in (0.003, 0.02, 0.3):
        for j in (1, 5, 40, 999):
            qj = kosterlitz_q(q1, j)
            qn = kosterlitz_q(q1, j + 1)
            assert qn - qj == pytest.approx(-qj * qn, abs=1e-14)


def test_y_zero_invariant_line():
    cfg = FlowConfig(horizon=500)
    st = FlowState(j=1, x=0.3, y=0.0)
    nxt = step(st, cfg)
    assert (nxt.x, nxt.y, nxt.kappa) == (0.3, 0.0, 0.0)
    traj = trajectory(0.3, 0.0, cfg)
    assert traj.diverged_at is None
    assert np.all(traj.x == 0.3)
    assert np.all(traj.y == 0.0)


def test_sign_symmetry():
    for surrogate in (False, True):
        cfg = FlowConfig(horizon=300, surrogate=surrogate, rho=0.2, c_R=0.5, c_F=0.3, c_M=0.3)
        tp = trajectory(0.05, 0.01, cfg)
        tm = trajectory(0.05, -0.01, cfg)
        assert np.allclose(tp.x, tm.x, atol=0, rtol=0)
        assert np.allclose(tp.y, -tm.y, atol=0, rtol=0)
        assert np.allclose(tp.kappa, tm.kappa, atol=0, rtol=0)


def test_rescale_roundtrip():
    a, b = 3.7, 2.2
    for s, z in ((0.1, 0.02), (-0.3, 0.0), (0.0, -1.0)):
        x, y = to_rescaled(s, z, a, b)
        assert from_rescaled(x, y, a, b) == (pytest.approx(s, rel=1e-15), pytest.approx(z, rel=1e-15))


def test_step_original_zero():
    cfg = FlowConfig(surrogate=True, c_R=2.0, vol_seq=(0.9,))
    s1, z1, k1 = step_original_zero(0.1, 0.05, cfg)
    assert s1 == 0.1
    assert z1 == pytest.approx(0.9 * 0.05)
    assert k1 == pytest.approx(2.0 * 0.1**2)


def test_below_separatrix_escapes():
    # (x, y) = (-0.05, 0.05): y grows and eventually diverges
    cfg = FlowConfig(horizon=100_000)
    traj = trajectory(-0.05, 0.05, cfg)
    assert traj.diverged_at is not None
    assert traj.diverged_in == "y"


def test_above_separatrix_bounded():
    cfg = FlowConfig(horizon=50_000)
    traj = trajectory(0.05, 0.01, cfg)
    assert traj.diverged_at is None
    assert traj.y[-1] < 1e-8


def test_divergence_time_monotone_in_x1():
    # fixed y1: smaller x1 escapes sooner (basis of the shooting bracket)
    cfg = FlowConfig(horizon=200_000)
    times = []
    for x1 in (-0.02, -0.005, 0.0, 0.004, 0.008):
        t = trajectory(x1, 0.01, cfg)
        times.append(t.diverged_at if t.diverged_at is not None else cfg.horizon + 1)
    assert times == sorted(times)


def test_per_scale_vs_limit_mode_agree():
    # per-scale corrections shrink like the coefficient deviations: with
    # sequences converged to the limits the two modes coincide
    cfg_lim = FlowConfig(horizon=200)
    cfg_ps = FlowConfig(
        mode="per-scale", horizon=200,
        a_seq=(1.5, 1.1, 1.02, 1.0), b_seq=(1.3, 1.05, 1.01, 1.0), vol_seq=(1.1, 1.02, 1.0, 1.0),
        a_limit=1.0, b_limit=1.0,
    )
    t_lim = trajectory(0.01, 0.01, cfg_lim)
    t_ps = trajectory(0.01, 0.01, cfg_ps)
    # early differences O(a_j - a), no blowup; after the sequences freeze at
    # the limit values the step maps agree exactly
    assert abs(t_ps.x[5] - t_lim.x[5]) < 1e-3
    st = FlowState(j=50, x=0.005, y=0.004)
    assert step(st, cfg_ps).x == pytest.approx(step(st, cfg_lim).x, rel=1e-14)


def test_on_manifold_deviation_profile():
    cfg = FlowConfig(horizon=100_000)
    traj = trajectory(0.01, 0.01, cfg)  # exact separatrix of the bare flow
    fit = deviation_profile(traj, 0.01)
    assert fit.exponent_x is not None and fit.exponent_x <= -1.3
    assert fit.exponent_y is not None and fit.exponent_y <= -1.3


def test_deviation_profile_undefined_on_invariant_line():
    # y deviations vanish identically (exponent undefined); x sits at the
    # constant |x_1| so its fitted slope is zero
    cfg = FlowConfig(horizon=2000)
    traj = trajectory(0.01, 0.0, cfg)
    fit = deviation_profile(traj, 0.0)
    assert fit.exponent_y is None
    assert fit.exponent_x == pytest.approx(0.0, abs=1e-9)


def test_deviation_amplitude_scales_with_q1():
    cfg = FlowConfig(horizon=30_000)
    f1 = deviation_profile(trajectory(0.01, 0.01, cfg), 0.01)
    f2 = deviation_profile(trajectory(0.02, 0.02, cfg), 0.02)
    assert abs(f1.exponent_x - f2.exponent_x) < 0.2


def test_sweep_rows():
    cfg = FlowConfig(horizon=5000)
    rows = sweep([(0.05, 0.01), (-0.05, 0.05)], cfg)
    assert rows[0]["diverged"] == 0
    assert rows[1]["diverged"] == 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_trajectory_rejects_non_finite_start(bad):
    cfg = FlowConfig(horizon=1000)
    for args in ((bad, 0.01), (0.01, bad)):
        with pytest.raises(ValueError, match="must be finite"):
            trajectory(*args, cfg)
    with pytest.raises(ValueError, match="kappa1 must be finite"):
        trajectory(0.01, 0.01, cfg, kappa1=bad)


def test_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(mode="bogus")
    with pytest.raises(ValueError):
        FlowConfig(rho=1.5)
    with pytest.raises(ValueError):
        FlowConfig(c_R=-1.0)


def test_per_scale_mode_with_computed_coefficients(stack_l3_massless):
    # real coefficient tables: the per-step difference between per-scale and
    # limit modes shrinks with j like the coefficient deviations themselves
    from ktrg.coefficients import compute_coefficients, flow_config
    from ktrg.cutoffs import build_cutoffs, coulomb_constant_closed

    rep = compute_coefficients(stack_l3_massless, 5)
    c = coulomb_constant_closed(build_cutoffs(3, 1, 8))
    cfg_ps = flow_config(rep, c, horizon=100)
    cfg_lim = FlowConfig(horizon=100)
    gaps = []
    for j in (2, 3, 4, 5):
        st = FlowState(j=j, x=0.01, y=0.01)
        gaps.append(abs(step(st, cfg_ps).y - step(st, cfg_lim).y))
    assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    assert gaps[-1] < 1e-5


@pytest.mark.parametrize("gain", ["c_R", "c_F", "c_M"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
def test_config_rejects_bad_gain(gain, bad):
    with pytest.raises(ValueError, match=f"{gain} must be finite and >= 0"):
        FlowConfig(**{gain: bad})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_config_rejects_bad_ceiling(bad):
    with pytest.raises(ValueError, match="ceiling must be finite and > 0"):
        FlowConfig(ceiling=bad)


def test_nan_ceiling_cannot_hide_divergence():
    # a NaN ceiling used to make every comparison False: y ran to inf while
    # the trajectory reported no divergence
    with pytest.raises(ValueError, match="ceiling"):
        trajectory(0.0, 0.5, FlowConfig(ceiling=float("nan")))


@pytest.mark.parametrize("bad", [0, -3])
def test_config_rejects_short_horizon(bad):
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        FlowConfig(horizon=bad)


@pytest.mark.parametrize("field", ["a_limit", "b_limit"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_config_rejects_non_finite_limit(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        FlowConfig(mode="per-scale", **{field: bad})


@pytest.mark.parametrize("field", ["a_seq", "b_seq", "vol_seq"])
@pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
def test_config_rejects_non_finite_sequence(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        FlowConfig(mode="per-scale", **{field: (1.1, bad, 1.0)})


def test_step_and_trajectory_share_one_step():
    cfg = FlowConfig(mode="per-scale", surrogate=True, horizon=40, rho=0.3, c_R=0.4, c_F=0.1, c_M=0.2,
                     a_seq=(1.5, 1.1, 1.02), b_seq=(1.3, 1.05), vol_seq=(1.1,), a_limit=1.01, b_limit=0.99)
    traj = trajectory(0.02, -0.015, cfg, kappa1=1e-4)
    st = FlowState(j=1, x=0.02, y=-0.015, kappa=1e-4)
    for i in range(traj.horizon):
        assert (st.x, st.y, st.kappa) == (traj.x[i], traj.y[i], traj.kappa[i])
        st = step(st, cfg)


_KERNEL_CONFIGS = {
    "limit": FlowConfig(),
    "per-scale": FlowConfig(mode="per-scale", a_seq=(1.5, 1.1, 1.02, 1.0), b_seq=(1.3, 1.05, 1.01),
                            vol_seq=(1.1, 1.02), a_limit=1.03, b_limit=0.97),
    "surrogate": FlowConfig(surrogate=True, rho=0.2, c_R=0.5, c_F=0.3, c_M=0.07),
    "per-scale+surrogate": FlowConfig(mode="per-scale", surrogate=True, rho=0.4, c_R=0.2, c_F=0.1, c_M=0.3,
                                      a_seq=(1.2, 1.01), b_seq=(0.9,), vol_seq=(1.05, 1.0, 0.99)),
}
# full 53-bit mantissas times a power of two: rounding differences between
# two code paths show up on such generic floats, seldom on the short ones
# hypothesis favours
_generic = st.builds(lambda m, e: m * 2.0**-e, st.integers(2**52, 2**53 - 1), st.integers(54, 66))
_coupling = st.one_of(st.just(0.0), _generic, _generic.map(lambda v: -v))
_kappa = st.one_of(st.just(0.0), _generic.map(lambda v: v / 8.0))


@settings(max_examples=150, deadline=None)
@given(
    mode=st.sampled_from(sorted(_KERNEL_CONFIGS)),
    rows=st.lists(st.tuples(st.integers(1, 8), _coupling, _coupling, _kappa), min_size=1, max_size=12),
)
def test_array_kernel_matches_scalar_kernel_bitwise(mode, rows):
    cfg = _KERNEL_CONFIGS[mode]
    j, x, y, k = (np.array(c) for c in zip(*rows))
    arrays = [np.broadcast_to(np.asarray(v, dtype=float), j.shape) for v in corrections(j, x, y, k, cfg)]
    for i, row in enumerate(rows):
        scalars = corrections(row[0], row[1], row[2], row[3], cfg)
        for arr, sc in zip(arrays, scalars):
            assert np.float64(sc).view(np.int64) == arr[i].view(np.int64), (mode, row)
