import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ktrg.flow import (
    FlowConfig,
    FlowState,
    _advance,
    corrections,
    diagonal,
    step,
    trajectory,
    deviation_profile,
    from_rescaled,
)

from conftest import deviation_table


def kosterlitz_q(q1: float, j: int) -> float:
    """q_j = q_1 / (1 + |q_1| (j-1))."""
    if j < 1:
        raise ValueError(f"scale index must be >= 1, got {j}")
    return q1 / (1.0 + abs(q1) * (j - 1))


def to_rescaled(s: float, z: float, a: float, b: float) -> tuple[float, float]:
    """(x, y) = (b s, sqrt(a b) z), the inverse of `from_rescaled`."""
    return b * s, math.sqrt(a * b) * z


def step_original_zero(s: float, z: float, config: FlowConfig) -> tuple[float, float]:
    """The j = 0 step in original variables: (s_1, z_1)."""
    vol0 = 1.0 + config.deviations[0][1] if config.depth else 1.0
    return s, vol0 * z


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
    assert (nxt.x, nxt.y) == (0.3, 0.0)
    traj = trajectory(0.3, 0.0, cfg)
    assert traj.diverged_at is None
    assert np.all(traj.x == 0.3)
    assert np.all(traj.y == 0.0)


def test_sign_symmetry():
    cfg = FlowConfig(horizon=300)
    tp = trajectory(0.05, 0.01, cfg)
    tm = trajectory(0.05, -0.01, cfg)
    assert np.allclose(tp.x, tm.x, atol=0, rtol=0)
    assert np.allclose(tp.y, -tm.y, atol=0, rtol=0)


def test_rescale_roundtrip():
    a, b = 3.7, 2.2
    for s, z in ((0.1, 0.02), (-0.3, 0.0), (0.0, -1.0)):
        x, y = to_rescaled(s, z, a, b)
        assert from_rescaled(x, y, a, b) == (pytest.approx(s, rel=1e-15), pytest.approx(z, rel=1e-15))


def test_step_original_zero():
    s1, z1 = step_original_zero(0.1, 0.05, FlowConfig(deviations=deviation_table(vol=(0.9,))))
    assert s1 == 0.1
    assert z1 == pytest.approx(0.9 * 0.05)


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
    # per-scale corrections shrink like the coefficient deviations: past the
    # table the two modes coincide
    cfg_lim = FlowConfig(horizon=200)
    cfg_ps = FlowConfig(horizon=200, deviations=deviation_table(
        a=(1.5, 1.1, 1.02, 1.0), b=(1.3, 1.05, 1.01, 1.0), vol=(1.1, 1.02, 1.0, 1.0)))
    t_lim = trajectory(0.01, 0.01, cfg_lim)
    t_ps = trajectory(0.01, 0.01, cfg_ps)
    # early differences O(a_j - a), no blowup; past the table the step maps
    # agree exactly
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


@pytest.mark.parametrize("tables", [dict(a=(1.5,)), dict(b=(1.3,)), dict(vol=(1.1,))])
def test_any_table_selects_the_per_scale_flow(tables):
    # a deviation in any column runs the per-scale flow; the empty table is
    # the limit flow
    F, M = corrections(1, 0.02, 0.03, FlowConfig(deviations=deviation_table(**tables)))
    assert (F, M) != (0.0, 0.0)
    assert corrections(1, 0.02, 0.03, FlowConfig()) == (0.0, 0.0)


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


@pytest.mark.parametrize("field", ["a_seq", "b_seq", "vol_seq"])
@pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
def test_config_rejects_non_finite_sequence(field, bad):
    # a non-finite coefficient gives a non-finite deviation
    tables = dict(a=(1.1, 1.0), b=(1.1, 1.0), vol=(1.1, 1.0))
    tables[field.split("_")[0]] = (1.1, bad)
    with pytest.raises(ValueError, match="deviations must be rows of 3 finite numbers"):
        FlowConfig(deviations=deviation_table(**tables))


@pytest.mark.parametrize("rows", [((0.1, 0.2),), ((0.1, 0.2, 0.3, 0.4),), ((0.1, 0.2, 0.3), (0.1,))])
def test_config_rejects_a_row_without_three_deviations(rows):
    with pytest.raises(ValueError, match="deviations must be rows of 3 finite numbers"):
        FlowConfig(deviations=rows)


def test_config_holds_the_table_as_float_rows():
    # an array table becomes tuples of floats: configs compare and hash by value
    rows = ((0.05, 0.01, -0.02), (0.01, 0.0, 0.005))
    cfg = FlowConfig(deviations=np.array(rows))
    assert cfg.deviations == rows and cfg.depth == 2
    assert all(type(d) is float for row in cfg.deviations for d in row)
    assert cfg == FlowConfig(deviations=rows) and hash(cfg) == hash(FlowConfig(deviations=rows))
    assert FlowConfig().depth == 0


def test_step_and_trajectory_share_one_step():
    cfg = FlowConfig(horizon=40, deviations=deviation_table(
        a=(1.5, 1.1, 1.02), b=(1.3, 1.05), vol=(1.1,), a_lim=1.01, b_lim=0.99))
    traj = trajectory(0.02, -0.015, cfg)
    st = FlowState(j=1, x=0.02, y=-0.015)
    for i in range(traj.horizon):
        assert (st.x, st.y) == (traj.x[i], traj.y[i])
        st = step(st, cfg)


def test_per_scale_trajectory_matches_array_gather_bitwise():
    # reference: each step in the table gathers its row from the table as a
    # numpy array, as the array branch of `corrections` does; past the table
    # it is the bare limit step
    cfg = FlowConfig(horizon=3000, deviations=deviation_table(
        a=(1.5, 1.1, 1.02), b=(1.3, 1.05), a_lim=1.01, b_lim=0.99))
    traj = trajectory(0.031, 0.017, cfg)
    x, y = 0.031, 0.017
    for i in range(traj.horizon):
        assert (x, y) == (traj.x[i], traj.y[i])
        if i < cfg.depth:
            da, dv, dvb = np.asarray(cfg.deviations)[i]
            x, y = x - y * y + -da * y * y, y - x * y + (dv * y - dvb * x * y)
        else:
            x, y = x - y * y, y - x * y


def test_limit_trajectory_does_no_per_scale_work(monkeypatch):
    # past the table, and so everywhere in limit mode, an int scale gets
    # exact zeros before any table lookup or numpy call
    import ktrg.flow as flow

    table = FlowConfig(deviations=deviation_table(a=(1.5, 1.1), vol=(1.1,)))
    monkeypatch.setattr(flow, "np", None)
    for cfg, j in ((FlowConfig(), 1), (table, 3), (table, 10**6)):
        F, M = corrections(j, 0.0101, -0.01, cfg)
        assert (F, M) == (0.0, 0.0) and math.copysign(1.0, F) == math.copysign(1.0, M) == 1.0
        nxt = step(FlowState(j=j, x=0.0101, y=-0.01), cfg)
        assert (nxt.x, nxt.y) == (0.0101 - 0.01 * 0.01, -0.01 + 0.0101 * 0.01)


_KERNEL_CONFIGS = {
    "limit": FlowConfig(),
    "per-scale": FlowConfig(deviations=deviation_table(a=(1.5, 1.1, 1.02, 1.0), b=(1.3, 1.05, 1.01),
                                                       vol=(1.1, 1.02), a_lim=1.03, b_lim=0.97)),
}
# full 53-bit mantissas times a power of two: rounding differences between
# two code paths show up on such generic floats, seldom on the short ones
# hypothesis favours
_generic = st.builds(lambda m, e: m * 2.0**-e, st.integers(2**52, 2**53 - 1), st.integers(54, 66))
_coupling = st.one_of(st.just(0.0), _generic, _generic.map(lambda v: -v))


@settings(max_examples=150, deadline=None)
@given(
    mode=st.sampled_from(sorted(_KERNEL_CONFIGS)),
    rows=st.lists(st.tuples(st.integers(1, 8), _coupling, _coupling), min_size=1, max_size=12),
)
def test_array_kernel_matches_scalar_kernel_bitwise(mode, rows):
    cfg = _KERNEL_CONFIGS[mode]
    j, x, y = (np.array(c) for c in zip(*rows))
    arrays = [np.broadcast_to(np.asarray(v, dtype=float), j.shape) for v in corrections(j, x, y, cfg)]
    for i, row in enumerate(rows):
        scalars = corrections(*row, cfg)
        for arr, sc in zip(arrays, scalars):
            assert np.float64(sc).view(np.int64) == arr[i].view(np.int64), (mode, row)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


# starts in [0, 1]: full mantissas on [2^-14, 1/2), any float (-0.0, which
# keeps its sign in `diagonal`, left out) and the ends
_diagonal_start = st.one_of(_generic, st.floats(0.0, 1.0).filter(lambda v: math.copysign(1.0, v) > 0),
                            st.sampled_from([0.0, 1.0]))


def _loop_trajectory(x1, y1, config):
    """The step loop of `trajectory` for every start (oracle of its diagonal path)."""
    J = config.horizon
    xs, ys = np.empty(J), np.empty(J)
    x, y = float(x1), float(y1)
    for i in range(J):
        xs[i], ys[i] = x, y
        if abs(x) > config.ceiling or abs(y) > config.ceiling:
            n = i + 1
            return xs[:n], ys[:n], n
        x, y = _advance(i + 1, x, y, config)
    return xs, ys, None


@settings(max_examples=100, deadline=None)
@given(s1=_diagonal_start, horizon=st.integers(1, 3000))
def test_diagonal_is_the_limit_trajectory_bitwise(s1, horizon):
    x, y, diverged = _loop_trajectory(s1, s1, FlowConfig(horizon=horizon))
    assert diverged is None
    d = diagonal(s1, horizon)
    assert d.shape == (horizon,)
    np.testing.assert_array_equal(_bits(d), _bits(x))
    np.testing.assert_array_equal(_bits(d), _bits(y))
    traj = trajectory(s1, s1, FlowConfig(horizon=horizon))
    assert traj.diverged_at is None
    np.testing.assert_array_equal(_bits(traj.x), _bits(x))
    np.testing.assert_array_equal(_bits(traj.y), _bits(y))


@pytest.mark.parametrize("s1", [0.005, 0.02, 0.05])
def test_diagonal_matches_the_limit_trajectory_at_full_horizon(s1):
    x, _, _ = _loop_trajectory(s1, s1, FlowConfig(horizon=100_000))
    np.testing.assert_array_equal(_bits(diagonal(s1, 100_000)), _bits(x))


_PER_SCALE = FlowConfig(horizon=2000, deviations=deviation_table(a=(1.05, 1.01), b=(1.03,), vol=(1.01,),
                                                                 a_lim=1.01, b_lim=0.99))


@pytest.mark.parametrize("x1, y1, config, fast", [
    (0.01, 0.01, FlowConfig(horizon=100_000), True),
    (1.0, 1.0, FlowConfig(horizon=50), True),
    (0.01, 0.01, FlowConfig(horizon=100, ceiling=0.01), True),
    (0.0101, 0.01, FlowConfig(horizon=100_000), False),
    (0.01, 0.0101, FlowConfig(horizon=100_000), False),
    (0.0, 0.0, FlowConfig(horizon=100), False),
    (-0.01, -0.01, FlowConfig(horizon=100), False),
    (0.02, 0.02, FlowConfig(horizon=100, ceiling=0.01), False),
    (0.01, 0.01, _PER_SCALE, False),
], ids=["J1e5", "one", "at-ceiling", "x-above", "y-above", "zero", "negative", "past-ceiling", "per-scale"])
def test_trajectory_takes_the_diagonal_only_for_limit_starts_on_it(monkeypatch, x1, y1, config, fast):
    import ktrg.flow as flow

    calls = []
    monkeypatch.setattr(flow, "diagonal", lambda s1, horizon: calls.append(s1) or diagonal(s1, horizon))
    traj = trajectory(x1, y1, config)
    assert calls == ([y1] if fast else [])
    x, y, diverged = _loop_trajectory(x1, y1, config)
    assert traj.diverged_at == diverged
    np.testing.assert_array_equal(_bits(traj.x), _bits(x))
    np.testing.assert_array_equal(_bits(traj.y), _bits(y))
    assert traj.x is not traj.y


@pytest.mark.parametrize("bad", [-1e-300, 1.0 + 2.0**-52, float("nan"), float("inf")])
def test_diagonal_rejects_starts_off_the_unit_interval(bad):
    with pytest.raises(ValueError, match=r"diagonal start must lie in \[0, 1\]"):
        diagonal(bad, 10)


def test_diagonal_rejects_short_horizon():
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        diagonal(0.01, 0)


def _row_by_row_csv(traj, q1, path):
    """Oracle: the trajectory CSV written one f-string per row."""
    from ktrg.flow import kosterlitz_q_array

    q = kosterlitz_q_array(q1, traj.horizon)
    with open(path, "w", newline="\n") as f:
        f.write("j,x,y,q_j,x_minus_q,y_minus_q\n")
        for i in range(traj.horizon):
            f.write(
                f"{i + 1},{traj.x[i]:.17g},{traj.y[i]:.17g},"
                f"{q[i]:.17g},{traj.x[i] - q[i]:.17g},{traj.y[i] - q[i]:.17g}\n"
            )


@pytest.mark.parametrize("x1, y1, horizon", [
    (0.0082982043844087878, 0.01, 10_000),  # near the separatrix: two full chunks and a partial one
    (0.0082982043844087878, 0.01, 4096),    # one full chunk
    (-0.3, 0.2, 4096),                      # diverges after 6 rows
    (0.0, -0.0, 3),                         # signed zeros
    (0.01, 0.01, 1),
])
def test_chunked_trajectory_csv_matches_the_row_by_row_writer(tmp_path, x1, y1, horizon):
    from ktrg.flow import CSV_CHUNK_ROWS, trajectory_csv

    assert CSV_CHUNK_ROWS == 4096
    traj = trajectory(x1, y1, FlowConfig(horizon=horizon))
    trajectory_csv(traj, y1, str(tmp_path / "chunked.csv"))
    _row_by_row_csv(traj, y1, str(tmp_path / "rows.csv"))
    chunked = (tmp_path / "chunked.csv").read_bytes()
    assert chunked == (tmp_path / "rows.csv").read_bytes()
    assert chunked.count(b"\n") == traj.horizon + 1
