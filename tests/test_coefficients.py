import math

import numpy as np
import pytest

from ktrg.cutoffs import build_cutoffs, coulomb_constant_closed
from ktrg.coefficients import (
    ALPHA_SQ_KT,
    kernels,
    coeff_a,
    coeff_b,
    energy_coeffs,
    volume_factor,
    limit_constants,
    compute_coefficients,
)

A2 = ALPHA_SQ_KT


def test_kernels_vanish_at_scale_zero(stack_l3_massless):
    w = kernels(stack_l3_massless, 0)
    for t in [*w.w_a.values(), w.w_b, w.w_c, *w.w_d.values(), w.w_e]:
        assert np.all(t == 0.0)


def test_w_a_at_j1_is_half_second_difference(stack_l3_r5):
    # single-term sum: w_a^{mu nu} = (1/2) dd Gamma_0 against the raw table
    st = stack_l3_r5
    side = st.lattice.side
    t0 = st.gamma_table(0)
    d = np.roll(t0, -1, axis=0) - t0          # forward difference axis 0
    dd = np.roll(d, -1, axis=1) - d           # then axis 1
    w = kernels(st, 1)
    tab = w.w_a[(0, 1)]
    r = w.radius
    for z0 in (-2, 0, 1):
        for z1 in (-1, 0, 2):
            assert tab[z0 + r, z1 + r] == pytest.approx(0.5 * dd[z0 % side, z1 % side], abs=1e-12)


def test_kernel_support(stack_l3_r5):
    w = kernels(stack_l3_r5, 2)
    assert w.support_check(3, 3) < 1e-12


def test_kernel_summability_flat(stack_l3_massless):
    # the rescaled summability constants stay bounded by j-uniform values
    # and settle onto a plateau once the scales are self-similar (at j = 1
    # the w_b sum is exactly zero: Gamma_0 is a pure delta kernel, so the
    # |y|^3 weight annihilates its only term)
    st = stack_l3_massless
    L = 3.0
    sc, sa, sb = [], [], []
    for j in range(1, 5):
        w = kernels(st, j)
        zz = w.step * np.arange(-w.radius, w.radius + 1, dtype=float)
        absy = np.hypot(zz[:, None], zz[None, :])
        sc.append(L ** (2 * j) * w.weight * float(np.sum(np.abs(w.w_c))))
        sa.append(L ** (-j) * w.weight * float(np.sum(np.abs(w.w_a[(0, 0)]) * absy)))
        sb.append(L ** (-j) * w.weight * float(np.sum(np.abs(w.w_b) * absy**3)))
    assert sb[0] < 1e-14  # delta-kernel term killed by |y|^3 up to FFT noise
    for seq in (sc, sa, sb):
        assert max(seq) < 1.0  # j-uniform bound
        assert max(seq[2:]) / max(min(seq[2:]), 1e-30) < 2.0  # late-scale plateau


def test_cancellation_identities(stack_l3_massless):
    # sum_y dd Gamma_j(y) = 0 and the quadratic moment of the pair kernel is
    # isotropic (off-diagonal second moments vanish)
    st = stack_l3_massless
    for j in (1, 3):
        t = st.gamma_table(j)
        d = np.roll(t, -1, axis=0) - t
        dd = np.roll(d, -1, axis=1) - d
        assert abs(float(np.sum(dd))) < 1e-10
        side = st.lattice.side
        c = np.arange(side)
        y = np.where(c <= (side - 1) // 2, c, c - side).astype(float)
        ker = math.exp(-A2 * t[0, 0]) * np.expm1(A2 * t)
        off = float(np.sum(ker * y[:, None] * y[None, :]))
        assert abs(off) < 1e-10
        xx = float(np.sum(ker * (y**2)[:, None]))
        yy = float(np.sum(ker * (y**2)[None, :]))
        assert xx == pytest.approx(yy, rel=1e-6)


def test_b_limit_l3(stack_l3_massless):
    b_lim = 2.0 * math.log(3.0)
    devs = [abs(coeff_b(stack_l3_massless, j) - b_lim) / b_lim for j in (3, 4, 5)]
    assert devs[-1] < 0.05
    assert devs[1] < 0.05


def test_b_j_deterministic(stack_l3_massless):
    assert coeff_b(stack_l3_massless, 2) == coeff_b(stack_l3_massless, 2)
    assert coeff_a(stack_l3_massless, 2) == coeff_a(stack_l3_massless, 2)


def test_a_limit_l3(stack_l3_massless):
    cut = build_cutoffs(3, 1, 8)
    c = coulomb_constant_closed(cut)
    a_lim, _ = limit_constants(3, A2, c)
    a5 = coeff_a(stack_l3_massless, 5)
    assert a5 == pytest.approx(a_lim, rel=0.02)


def test_limit_constants():
    a, b = limit_constants(5, A2, 0.0)
    assert b == pytest.approx(2.0 * math.log(5.0), rel=1e-12)
    assert a == pytest.approx(8.0 * math.pi**2 * math.log(5.0), rel=1e-12)
    # a/b = 4 pi^2 e^c independent of L
    for c in (0.0, -2.0):
        r3 = limit_constants(3, A2, c)
        r9 = limit_constants(9, A2, c)
        assert r3[0] / r3[1] == pytest.approx(r9[0] / r9[1], rel=1e-12)
    with pytest.raises(ValueError):
        limit_constants(3, 9.0 * math.pi, 0.0)


def test_volume_factor(stack_l3_massless):
    ln = math.log(3.0) / (2.0 * math.pi)
    devs = [abs(volume_factor(stack_l3_massless, j) - 1.0) for j in range(1, 6)]
    assert all(devs[i + 1] < devs[i] for i in range(len(devs) - 1))
    assert devs[3] < 0.05
    # synthetic: with Gamma_j(0) = 0 the factor is exactly L^2
    assert 9.0 * math.exp(-0.5 * A2 * 0.0) == 9.0


def test_volume_factor_above_kt(stack_l3_massless):
    # alpha^2 = 9 pi: the factor falls strictly below 1 at large j
    v = volume_factor(stack_l3_massless, 5, alpha_sq=9.0 * math.pi)
    assert v < 1.0


def test_energy_coeff_bounds(stack_l3_massless):
    e2s, e3s, e4s = [], [], []
    for j in (1, 2, 3, 4):
        e2, e3, e4 = energy_coeffs(stack_l3_massless, j)
        e2s.append(abs(e2))
        e3s.append(abs(e3))
        e4s.append(abs(e4))
    assert max(e2s) < 20.0
    assert max(e3s) < 100.0
    assert max(e4s) < 100.0
    # the plateau forms at late scales; growth from j=3 to j=4 stays mild
    assert e2s[3] / e2s[2] < 1.3
    assert 0.5 < e3s[3] / e3s[2] < 1.5


def test_e4_taylor_subtraction_cubic(stack_l3_massless):
    # the explicit second-order subtraction kills the quadratic term: fit
    # |bracket(y)| ~ |y|^p along an axis and expect p >= 3 (in practice ~4)
    st = stack_l3_massless
    j = 3
    t = st.gamma_table(j)
    side = st.lattice.side
    g0 = t[0, 0]
    dd = {}
    for ax in range(2):
        e = np.zeros(2, dtype=int)
        e[ax] = 1
        dd[ax] = t[2 * e[0] % side, 2 * e[1] % side] - 2.0 * t[e[0], e[1]] + g0
    ys = np.array([1, 2, 3, 4, 6, 8])
    vals = []
    for y in ys:
        quad = dd[0] * y * y  # y along axis 0: only the (0,0) pair survives
        bracket = math.expm1(-A2 * (g0 - t[y % side, 0])) - 0.5 * A2 * quad
        vals.append(abs(bracket))
    p = np.polyfit(np.log(ys), np.log(np.maximum(vals, 1e-300)), 1)[0]
    assert p >= 3.0


def test_brackets_insensitive_to_last_bit_of_gamma0(stack_l3_massless, monkeypatch):
    # the expm1 brackets read Gamma_j(0) off the kernel array they subtract
    # from, so a last-bit change of the separately summed Gamma_j(0) only
    # reaches a_j and e4_j through the smooth prefactors
    st = stack_l3_massless
    js = (1, 2, 3, 4)
    base = [(coeff_a(st, j), energy_coeffs(st, j)[2]) for j in js]
    exact = st.gamma0
    monkeypatch.setattr(st, "gamma0", lambda j: exact(j) + 1e-13)
    for j, (a, e4) in zip(js, base):
        assert coeff_a(st, j) == pytest.approx(a, rel=1e-10, abs=0.0)
        assert energy_coeffs(st, j)[2] == pytest.approx(e4, rel=1e-10, abs=0.0)


def test_convergence_rate_exponent(stack_l3_massless):
    # |a_j - a_5| and |b_j - b_5| decay with fitted exponent >= 1/4 in L^-j
    js = np.array([2, 3, 4])
    for fn in (coeff_a, coeff_b):
        last = fn(stack_l3_massless, 5)
        devs = np.array([abs(fn(stack_l3_massless, int(j)) - last) for j in js])
        slope = np.polyfit(js * math.log(3.0), np.log(devs), 1)[0]
        assert slope <= -0.25


def test_scale_out_of_range(stack_l3_massive):
    with pytest.raises(ValueError):
        coeff_a(stack_l3_massive, 0)
    with pytest.raises(ValueError):
        coeff_b(stack_l3_massive, 99)


def test_compute_coefficients_report(stack_l3_massive, tmp_path):
    from ktrg.coefficients import coefficients_csv

    rep = compute_coefficients(stack_l3_massive, 2)
    assert rep.scales == [1, 2]
    path = str(tmp_path / "coeff.csv")
    coefficients_csv(rep, path)
    lines = open(path).read().splitlines()
    assert lines[0].startswith("j,a_j,b_j")
    assert len(lines) == 3


def test_flow_config_from_report(stack_l3_massless):
    from ktrg.coefficients import flow_config
    from ktrg.cutoffs import build_cutoffs, coulomb_constant_closed
    from ktrg.flow import trajectory

    rep = compute_coefficients(stack_l3_massless, 3)
    c = coulomb_constant_closed(build_cutoffs(3, 1, 8))
    cfg = flow_config(rep, c, horizon=2000)
    assert cfg.mode == "per-scale"
    t = trajectory(0.01, 0.01, cfg)
    assert t.horizon >= 1


def test_kernel_summability_l9(stack_l9_massless):
    # the c14-type bound at the larger base: L^{2j} sum |w_c| flat in j
    L = 9.0
    vals = []
    for j in (1, 2, 3):
        w = kernels(stack_l9_massless, j)
        vals.append(L ** (2 * j) * w.weight * float(np.sum(np.abs(w.w_c))))
    assert max(vals) < 1.0
    assert vals[2] / vals[1] < 2.0


def _roll_diff(t, d):
    s0, s1 = [(1, 0), (0, 1), (-1, 0), (0, -1)][d]
    return np.roll(t, (-s0, -s1), axis=(0, 1)) - t


def test_a_b_match_dense_table_oracle(stack_l3_massless):
    # independent path: literal sums over the full torus tables (the grid
    # and Parseval machinery never enters)
    st = stack_l3_massless
    j = 3
    side = st.lattice.side
    L = 3.0
    c = np.arange(side)
    y = np.where(c <= (side - 1) // 2, c, c - side).astype(float)
    y_sq = (y**2)[:, None] + (y**2)[None, :]
    # mask to the exact support: the summands vanish there in exact
    # arithmetic, and masking keeps table FFT noise out of the comparison
    rr = np.maximum(np.abs(y)[:, None], np.abs(y)[None, :])
    inside = rr <= st.support_radius(j)
    tabs = [st.gamma_table(m) for m in range(j + 1)]
    g0 = [float(t[0, 0]) for t in tabs]

    wb = np.zeros((side, side))
    for n in range(j):
        pref0 = sum(g0[m] for m in range(n + 1, j))
        pref = sum(tabs[m] for m in range(n + 1, j)) if n + 1 < j else np.zeros((side, side))
        wb += np.exp(-A2 * (pref0 - pref)) * math.exp(-A2 * g0[n]) * np.expm1(A2 * tabs[n]) * L ** (-4 * n)
    bracket = np.expm1(-A2 * (g0[j] - tabs[j]))
    term2 = math.exp(-A2 * g0[j]) * np.expm1(A2 * tabs[j]) * L ** (-4 * j)
    a_direct = 0.5 * A2 * float(np.sum((y_sq * (wb * bracket + term2))[inside]))
    assert coeff_a(st, j) == pytest.approx(a_direct, rel=1e-9)

    total = 0.0
    for d in range(4):
        total += 0.5 * float(np.sum(_roll_diff(tabs[j], d) ** 2))
    for n in range(j):
        fac = math.exp(-0.5 * A2 * sum(g0[m] for m in range(n, j))) * L ** (2 * (j - n))
        cross = sum(0.5 * float(np.sum(_roll_diff(tabs[n], d) * _roll_diff(tabs[j], d))) for d in range(4))
        total += 2.0 * fac * cross
    b_direct = 0.5 * A2 * total
    assert coeff_b(st, j) == pytest.approx(b_direct, rel=1e-9)


def test_e3_matches_literal_signed_sum(stack_l3_massless):
    # the spectral path uses the sign-collapse onto forward axis pairs;
    # compare against the literal quarter-weighted sum over all 16 signed
    # direction pairs computed from the tables
    st = stack_l3_massless
    j = 2
    L2j = 9.0**j
    tabs = [st.gamma_table(m) for m in range(j + 1)]
    mix = tabs[j] + 3.0 * sum(tabs[m] for m in range(j))
    lit = 0.0
    for d1 in range(4):
        for d2 in range(4):
            dd_mix = _roll_diff(_roll_diff(mix, d1), d2)
            dd_j = _roll_diff(_roll_diff(tabs[j], d1), d2)
            dd_j0 = float(dd_j[0, 0])
            lit += 0.25 * float(np.sum(dd_mix * (dd_j - dd_j0)))
    lit *= L2j / 4.0
    e3 = energy_coeffs(st, j)[1]
    assert e3 == pytest.approx(lit, rel=1e-9)


def test_cross_grid_alias_certified(stack_l9_massless):
    # the decimated Parseval grid of scale 3 at L=9 carries a certified alias
    # bound, weighted by the b_j symbol, well below the coefficient scale
    from ktrg.lattice import laplacian_symbol

    st = stack_l9_massless
    b3 = coeff_b(st, 3)
    g = st.grid(3)
    assert g.step > 1
    assert g.alias_bound(st.fine_scales(3), laplacian_symbol) < 1e-8 * abs(b3)


def _literal_dd_at_zero(t):
    """(d^mu d^nu Gamma)(0) = Gamma(e_mu + e_nu) - Gamma(e_mu) - Gamma(e_nu) + Gamma(0) from a table."""
    dirs = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    side = t.shape[0]

    def at(x):
        return t[x[0] % side, x[1] % side]

    dd = np.empty((4, 4))
    for mu, e_mu in enumerate(dirs):
        for nu, e_nu in enumerate(dirs):
            dd[mu, nu] = at((e_mu[0] + e_nu[0], e_mu[1] + e_nu[1])) - at(e_mu) - at(e_nu) + at((0, 0))
    return dd


@pytest.mark.parametrize("j", [2, 3])
def test_dd_and_e2_match_literal_second_differences(stack_l3_massless, j):
    # the Parseval second differences at the origin against literal table
    # differences (the spectral grid never enters the reference)
    from ktrg.coefficients import _dd_at_zero

    st = stack_l3_massless
    lit = _literal_dd_at_zero(st.gamma_table(j))
    dd = _dd_at_zero(st, j)
    for mu in range(4):
        for nu in range(4):
            assert dd[mu, nu] == pytest.approx(lit[mu, nu], rel=1e-9)
    e2_lit = -(9.0**j / 2.0) * 0.5 * sum(lit[mu, mu] for mu in range(4))
    assert energy_coeffs(st, j)[0] == pytest.approx(e2_lit, rel=1e-9)


# ---------------------------------------------------------------------------
# the folded grid against the parent's full-grid path


def _mean_parseval(g, *factors):
    """Full-grid oracle: the mean of the unfolded product."""
    return float(np.mean(np.prod([g.unfold(f) for f in factors], axis=0))) / g.weight


def _ifft_window(g, G):
    """Full-grid oracle: the complex inverse FFT of the unfolded array."""
    K = np.fft.ifft2(g.unfold(G)).real / g.weight
    r = g.radius
    return np.roll(K, (r, r), axis=(0, 1))[: 2 * r + 1, : 2 * r + 1].copy()


def _complex_dd_at_zero(stack, j):
    """Full-grid oracle: Parseval means against the complex difference symbols."""
    g = stack.grid(j)
    G = g.unfold(g.band(stack.fine_scales(j)))
    return np.array([[float(np.mean(G * g.diff_symbol((mu, nu)).real)) / g.weight
                      for nu in range(4)] for mu in range(4)])


def _complex_e3_symbol(g):
    return sum(g.diff_symbol((a, a + 2, b, b + 2)).real for a in range(2) for b in range(2))


def _loop_taylor_quad(dd_tensor, y):
    """Oracle: the quadratic Taylor term summed over the 16 signed direction pairs."""
    dirs = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    y0, y1 = y[:, None], y[None, :]
    quad = np.zeros((len(y), len(y)))
    for mu in range(4):
        ymu = dirs[mu][0] * y0 + dirs[mu][1] * y1
        for nu in range(4):
            ynu = dirs[nu][0] * y0 + dirs[nu][1] * y1
            quad += 0.25 * dd_tensor[mu, nu] * ymu * ynu
    return quad


def test_folded_coefficients_match_full_grid_oracle(stack_l3_massless, monkeypatch):
    # every grid of a second stack takes the trivial fold, and its sums run
    # through the full-grid formulas; e4 is Taylor-subtracted, so its ninth
    # digit is rounding on both sides
    import ktrg.coefficients as coefficients
    import ktrg.decomposition as decomposition

    st = stack_l3_massless
    folded = compute_coefficients(st, 5)
    assert all(st.grid(n).S % 2 == 1 and len(st.grid(n).w) < st.grid(n).S for n in range(6))
    oracle = decomposition.CovarianceStack(
        lattice=st.lattice, cutoffs=st.cutoffs, gamma_tables=st.gamma_tables,
        tail_table=st.tail_table, tail_is_normalized=st.tail_is_normalized,
    )
    monkeypatch.setattr(decomposition, "_fold", lambda p: (p, np.arange(len(p)), np.ones(len(p))))
    monkeypatch.setattr(decomposition.SpectralGrid, "parseval", _mean_parseval)
    monkeypatch.setattr(decomposition.SpectralGrid, "window", _ifft_window)
    monkeypatch.setattr(coefficients, "_dd_at_zero", _complex_dd_at_zero)
    monkeypatch.setattr(coefficients, "_e3_symbol", _complex_e3_symbol)
    monkeypatch.setattr(coefficients, "_taylor_quad", _loop_taylor_quad)
    full = compute_coefficients(oracle, 5)
    assert len(oracle.grid(5).w) == oracle.grid(5).S
    for name in ("a", "b", "e2", "e3", "vol"):
        assert getattr(folded, name) == pytest.approx(getattr(full, name), rel=1e-13, abs=0.0), name
    assert folded.e4 == pytest.approx(full.e4, rel=1e-9, abs=0.0)
