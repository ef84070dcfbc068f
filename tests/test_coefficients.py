import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from ktrg.cutoffs import build_cutoffs, coulomb_constant_closed
from ktrg.coefficients import (
    ALPHA_SQ_KT,
    coeff_a,
    coeff_b,
    energy_coeffs,
    volume_factor,
    limit_constants,
    compute_coefficients,
)

from spectral_oracles import (
    complex_dd_at_zero, complex_e3_symbol, dd_tensor, e3_symbol, full_y, grid_band, ifft_window, kernel_source,
    kernels, mean_parseval, origin_bracket, parseval_b, parseval_e3, per_scale_a, per_scale_e4, scale_bands,
    tensor_sums, unfold, w_b_term, weighted_alias_bound,
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


def test_single_scale_overflow_raises_naming_the_scale(stack_l3_massless, monkeypatch):
    # one entry of Gamma_2 large enough that e^{a2 Gamma_2(y)} overflows:
    # a_2 and e4_2 both refuse it instead of returning a non-finite sum
    st = stack_l3_massless
    exact = st.kernel

    def overflowing(j, n):
        K = exact(j, n)
        if (j, n) == (2, 2):
            K = K.copy()
            K[1, 1] = 1e3
        return K

    monkeypatch.setattr(st, "kernel", overflowing)
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError, match="n=2"):
            coeff_a(st, 2)
        with pytest.raises(FloatingPointError, match="n=2"):
            energy_coeffs(st, 2)


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
    from ktrg.flow import corrections, trajectory

    rep = compute_coefficients(stack_l3_massless, 3)
    c = coulomb_constant_closed(build_cutoffs(3, 1, 8))
    cfg = flow_config(rep, c, horizon=2000)
    # row j - 1: (a_j/a - 1, vol_j - 1, vol_j b_j/b - 1); the limit flow past it
    a_lim, b_lim = limit_constants(rep.L, A2, c)
    assert cfg.depth == 3
    for (da, dv, dvb), a, b, vol in zip(cfg.deviations, rep.a, rep.b, rep.vol):
        assert a_lim * (1.0 + da) == pytest.approx(a, rel=1e-14)
        assert 1.0 + dv == pytest.approx(vol, rel=1e-14)
        assert b_lim * (1.0 + dvb) == pytest.approx(vol * b, rel=1e-14)
    assert corrections(4, 0.01, 0.01, cfg) == (0.0, 0.0)
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
    assert weighted_alias_bound(g, st.fine_scales(3), laplacian_symbol) < 1e-8 * abs(b3)


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
    # the Parseval second differences at the origin, the oracle's 4 x 4
    # tensor and the two sums the coefficients take, against literal table
    # differences (the spectral grid never enters the reference)
    from ktrg.coefficients import _second_differences

    st = stack_l3_massless
    lit = _literal_dd_at_zero(st.gamma_table(j))
    dd = dd_tensor(st, j)
    for mu in range(4):
        for nu in range(4):
            assert dd[mu, nu] == pytest.approx(lit[mu, nu], rel=1e-9)
    same, opposite = _second_differences(st, j)
    assert (same, opposite) == tensor_sums(dd)
    for mu in range(4):
        assert same == pytest.approx(lit[mu, mu], rel=1e-9)
        assert opposite == pytest.approx(lit[mu, (mu + 2) % 4], rel=1e-9)
    e2_lit = -(9.0**j / 2.0) * 0.5 * sum(lit[mu, mu] for mu in range(4))
    assert energy_coeffs(st, j)[0] == pytest.approx(e2_lit, rel=1e-9)


# ---------------------------------------------------------------------------
# the folded grid against the parent's full-grid path


def _half_spectrum_window(g, G):
    """Full-window oracle: the real inverse FFT of the row-unfolded half spectrum."""
    K = np.fft.irfft2(unfold(g, G)[:, : g.S // 2 + 1], s=(g.S, g.S))
    z = np.arange(-g.radius, g.radius + 1) % g.S
    W = K[np.ix_(z, z)]
    W /= g.weight
    return W


def _full_kernel(stack, j, n, window, cache):
    """Gamma_j on the full scale-n window: kernel_source's choice of grid, without the fold."""
    if (j, n) not in cache:
        g = stack.grid(n)
        src = kernel_source(stack, j, n)
        G = grid_band(src, stack.fine_scales(j))
        cache[(j, n)] = window(src, G) if src is g else src.zoom(G, full_y(g))
    return cache[(j, n)]


def _full_window_a_e4(stack, j, window=_half_spectrum_window, tensor_of=dd_tensor, a2=A2):
    """Full-window oracle: a_j and e4_j summed over every point |z|_inf <= radius.

    The sums coeff_a and energy_coeffs ran before they moved onto the
    quarter window, with the 16-pair Taylor term (cross term included) of
    the tensor tensor_of(stack, j).
    """
    cache = {}

    def ker(m, n):
        return _full_kernel(stack, m, n, window, cache)

    L = float(stack.lattice.L)
    L2j = L ** (2 * j)
    tensor = tensor_of(stack, j)
    a, e4 = 0.0, 0.0
    for n in range(j):
        g = stack.grid(n)
        y = full_y(g)
        y_sq = (y**2)[:, None] + (y**2)[None, :]
        pref = stack.prefix_diag(j - 1, n + 1) - sum(ker(m, n) for m in range(n + 1, j))
        wb = np.exp(-a2 * pref) * math.exp(-a2 * stack.gamma0(n)) * np.expm1(a2 * ker(n, n)) * L ** (-4 * n)
        K = ker(j, n)
        bracket = np.expm1(-a2 * (K[g.radius, g.radius] - K))
        a += g.weight * float(np.sum(y_sq * wb * bracket))
        taylor = _loop_taylor_quad(tensor, y)
        e4 += 2.0 * L2j * g.weight * float(np.sum(wb * (bracket - 0.5 * a2 * taylor)))
    g = stack.grid(j)
    y = full_y(g)
    y_sq = (y**2)[:, None] + (y**2)[None, :]
    term2 = np.expm1(a2 * ker(j, j)) * math.exp(-a2 * stack.gamma0(j))
    a += g.weight * float(np.sum(term2 * L ** (-4 * j) * y_sq))
    e4 += L ** (-2 * j) * g.weight * float(np.sum(term2))
    return 0.5 * a2 * a, e4


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


def _square_parseval(g, *factors):
    """Oracle: the Parseval sum over the folded square, w @ prod @ w."""
    prod = np.prod([g._mirror(f) for f in factors], axis=0)
    return float(g.w @ prod @ g.w) / (g.S**2 * g.weight)


def _square_second_differences(stack, j):
    """Oracle: (dd, opposite) from the dd tensor of five sums over the folded square, one-axis symbols unsymmetrized."""
    g = stack.grid(j)
    G = g._mirror(grid_band(g, stack.fine_scales(j)))
    p = (g.p0, g.p1)
    c = [2.0 * np.sin(0.5 * q) ** 2 for q in p]

    def square(*symbols):
        prod = G
        for f in symbols:
            prod = prod * f
        return float(g.w @ prod @ g.w) / (g.S**2 * g.weight)

    same = [square(-2.0 * np.cos(p[a]) * c[a]) for a in range(2)]
    opposite = [square(2.0 * c[a]) for a in range(2)]
    dd = np.full((4, 4), square(c[0], c[1]))
    for mu in range(4):
        for nu in range(mu % 2, 4, 2):
            dd[mu, nu] = same[mu % 2] if mu == nu else opposite[mu % 2]
    return tensor_sums(dd)


def test_l9_coefficients_match_the_folded_square_sums(stack_l9_massless, l9_report, monkeypatch):
    # the square sums w @ prod @ w the triangle sums replaced, on a stack
    # with a fresh cache, b and e3 from the full-triangle bands; measured: a
    # moves by 5.6e-15, e4 by 3.1e-15, the others by <= 1.7e-15; e4 carries
    # about 9 digits at j = 3
    import ktrg.coefficients as coefficients
    from ktrg.decomposition import SpectralGrid

    oracle = dataclasses.replace(stack_l9_massless, _cache={})
    monkeypatch.setattr(SpectralGrid, "parseval", _square_parseval)
    monkeypatch.setattr(coefficients, "_second_differences", _square_second_differences)
    ref = compute_coefficients(oracle, 3)
    ref.b = [parseval_b(oracle, j) for j in ref.scales]
    ref.e3 = [parseval_e3(oracle, j) for j in ref.scales]
    for name in ("a", "b", "e2", "e3", "vol"):
        assert getattr(l9_report, name) == pytest.approx(getattr(ref, name), rel=1e-13, abs=0.0), name
    assert l9_report.e4 == pytest.approx(ref.e4, rel=1e-9, abs=0.0)


def _check_triangle_sum(g, value, *factors):
    """value against math.fsum of the weighted full-triangle product and against the folded-square sum, at 2e-15."""
    ref = math.fsum(g._pair_weights() * np.prod(factors, axis=0)) / (g.S**2 * g.weight)
    assert abs(value - ref) <= 2e-15 * abs(ref), (g.S, len(factors))
    assert value == pytest.approx(_square_parseval(g, *factors), rel=2e-15, abs=0.0)


@pytest.mark.parametrize("L, j_max", [(9, 3), (3, 5)])
def test_triangle_parseval_sums_within_2e_15_of_fsum(stack_l9_massless, stack_l3_massless, monkeypatch, L, j_max):
    # every Parseval sum of the coefficients (the two second differences and,
    # without tables, Gamma_j(0), which each scale grid takes as it is built,
    # on a stack with a fresh cache) and Gamma_j(0) on each scale grid, and
    # every sum of its band pass (lam and lam^2 times psi_n psi_j, n <= j, of
    # b_j and e3_j), against math.fsum of the same weighted full-triangle
    # product and against the folded-square sum
    from ktrg.decomposition import SpectralGrid

    st = dataclasses.replace(stack_l9_massless if L == 9 else stack_l3_massless, _cache={})
    exact = SpectralGrid.parseval
    seen = []

    def checked(g, *factors):
        value = exact(g, *factors)
        _check_triangle_sum(g, value, *factors)
        seen.append(g.S)
        return value

    monkeypatch.setattr(SpectralGrid, "parseval", checked)
    compute_coefficients(st, j_max)
    for j in range(j_max + 1):
        g = st.grid(j)
        g.parseval(g.psi)
    assert len(seen) >= 3 * j_max + 1 and max(seen) == st.grid(j_max).S
    pass_sums = 0
    for j in range(j_max + 1):
        g = st.grid(j)
        psi = scale_bands(st, j)
        lam = g._lam()
        assert len(g.lam_sums) == len(g.lam2_sums) == j + 1
        for n in range(j + 1):
            _check_triangle_sum(g, g.lam_sums[n], lam, psi[n], psi[j])
            _check_triangle_sum(g, g.lam2_sums[n], lam**2, psi[n], psi[j])
            pass_sums += 2
    assert pass_sums == (j_max + 1) * (j_max + 2)


def test_folded_coefficients_match_full_grid_oracle(stack_l3_massless, monkeypatch):
    # every grid of a second stack takes the trivial fold; b, e2, e3 and vol
    # run through the full-grid formulas, and a and e4 through the
    # full-window sums over complex inverse FFTs; e4 is Taylor-subtracted,
    # so its ninth digit is rounding on both sides
    import ktrg.coefficients as coefficients
    import ktrg.decomposition as decomposition

    st = stack_l3_massless
    folded = compute_coefficients(st, 5)
    assert all(st.grid(n).S % 2 == 1 and len(st.grid(n).w) < st.grid(n).S for n in range(6))
    oracle = decomposition.CovarianceStack(
        lattice=st.lattice, cutoffs=st.cutoffs, gamma_tables=st.gamma_tables,
        tail_table=st.tail_table, tail_is_normalized=st.tail_is_normalized,
    )
    monkeypatch.setattr(decomposition, "_fold", lambda p: (p, np.ones(len(p))))
    monkeypatch.setattr(decomposition.SpectralGrid, "parseval", mean_parseval)
    monkeypatch.setattr(coefficients, "_second_differences", lambda st, j: tensor_sums(complex_dd_at_zero(st, j)))
    full = compute_coefficients(oracle, 5)
    full.b = [parseval_b(oracle, j) for j in full.scales]
    full.e3 = [parseval_e3(oracle, j, complex_e3_symbol) for j in full.scales]
    assert len(oracle.grid(5).w) == oracle.grid(5).S
    a, e4 = np.array([_full_window_a_e4(oracle, j, ifft_window, complex_dd_at_zero) for j in folded.scales]).T
    for name in ("b", "e2", "e3", "vol"):
        assert getattr(folded, name) == pytest.approx(getattr(full, name), rel=1e-13, abs=0.0), name
    assert folded.a == pytest.approx(list(a), rel=1e-13, abs=0.0)
    assert folded.e4 == pytest.approx(list(e4), rel=1e-9, abs=0.0)


# ---------------------------------------------------------------------------
# the sin^2 symbol against the cos form it replaced, kept as the oracle


def _cos_symbol(k0, k1):
    return 4.0 - 2.0 * np.cos(k0) - 2.0 * np.cos(k1)


def _uncentered_momenta(self):
    return 2.0 * np.pi * np.arange(self.side) / self.side


def _gap_e3_symbol(g):
    """The forward-pair symbol from c = 2 sin^2(p/2): (2c_0 + 2c_1)^2."""
    return g.outer(np.add, 2.0 * (2.0 * np.sin(0.5 * g.p_fold) ** 2)) ** 2


@pytest.fixture(scope="module")
def l9_report(stack_l9_massless):
    return compute_coefficients(stack_l9_massless, 3)


def _cos_symbol_report(monkeypatch, L, R, j_max):
    """Coefficients with the cos-form symbol on the uncentered torus axis."""
    import ktrg.decomposition as decomposition
    from ktrg.lattice import TorusLattice

    with monkeypatch.context() as mp:
        mp.setattr(decomposition, "laplacian_symbol", _cos_symbol)
        mp.setattr(TorusLattice, "momenta", _uncentered_momenta)
        return compute_coefficients(decomposition.decompose(TorusLattice(L=L, R=R)), j_max)


def _shifts(new, old):
    return {name: np.abs(np.array(getattr(new, name)) / np.array(getattr(old, name)) - 1.0)
            for name in ("a", "b", "e2", "e3", "e4", "vol")}


def test_symbol_shift_bounded_l3(stack_l3_massless, monkeypatch):
    # measured: every coefficient at j <= 5 moves by <= 2.0e-12 (a_5)
    new = compute_coefficients(stack_l3_massless, 5)
    for name, rel in _shifts(new, _cos_symbol_report(monkeypatch, 3, 6, 5)).items():
        assert np.all(rel <= 1e-11), (name, rel)


def test_symbol_shift_bounded_l9(l9_report, monkeypatch):
    # measured: j <= 2 moves by <= 1.0e-12 (a_2); at j = 3, a by 3.2e-10,
    # vol 6.0e-11, e4 4.6e-11, b 8.8e-12, e2 and e3 1.8e-12.  Gamma_3(0)
    # carries the cos form's error at small p (see the next test) and a_3
    # amplifies it
    bound_3 = {"a": 1e-9, "vol": 2e-10, "e4": 2e-10, "b": 3e-11, "e2": 1e-11, "e3": 1e-11}
    for name, rel in _shifts(l9_report, _cos_symbol_report(monkeypatch, 9, 6, 3)).items():
        assert np.all(rel[:2] <= 1e-11), (name, rel)
        assert rel[2] <= bound_3[name], (name, rel)


def test_gamma0_matches_longdouble_symbol(stack_l9_massless):
    # the same band pass fed u from lam in long double, rounded once: the
    # sin^2 symbol's Gamma_j(0) agrees to rounding, the cos form's is
    # 6.7e-12 off at j = 3
    st = stack_l9_massless
    cut = st.cutoffs
    for j in (2, 3):
        g = st.grid(j)
        hs = st.fine_scales(j)
        axis = 4 * np.sin(g.p_fold.astype(np.longdouble) / 2) ** 2
        lower = np.tri(len(g.p_fold), dtype=bool)
        ref = g.parseval(cut.band_sum((axis[:, None] + axis[None, :]).astype(float)[lower], g.b, hs))
        assert abs(st.gamma0(j) - ref) <= 2 * np.finfo(float).eps * ref
        old = g.parseval(cut.band_sum(_cos_symbol(g.p0, g.p1)[lower], g.b, hs))
        if j == 3:
            assert abs(old - ref) > 1e-12 * ref


def test_quarter_sums_match_full_window_oracle_l3(stack_l3_massless):
    # measured: a_1 moves by 1.5e-14 relative, every other a_j and e4_j at
    # L = 3 and L = 9 by <= 4.9e-15
    st = stack_l3_massless
    for j in range(1, 6):
        a, e4 = _full_window_a_e4(st, j)
        assert coeff_a(st, j) == pytest.approx(a, rel=1e-13, abs=0.0), j
        assert energy_coeffs(st, j)[2] == pytest.approx(e4, rel=1e-13, abs=0.0), j


def test_quarter_sums_match_full_window_oracle_l9(l9_report, stack_l9_massless):
    for i, j in enumerate(l9_report.scales):
        a, e4 = _full_window_a_e4(stack_l9_massless, j)
        assert l9_report.a[i] == pytest.approx(a, rel=1e-13, abs=0.0), j
        assert l9_report.e4[i] == pytest.approx(e4, rel=1e-13, abs=0.0), j


def test_a_moments_within_1e_15_of_a_longdouble_sum(l9_report, stack_l9_massless):
    # coeff_a's factor windows summed against |y|^2 in long double; measured:
    # the separable sums are off by <= 3.1e-16 at j <= 3, the y_sq product
    # sums they replaced by 1.4e-15 at j = 3
    st = stack_l9_massless
    ld = np.longdouble
    L = float(st.lattice.L)
    for i, j in enumerate(l9_report.scales):
        ref = ld(0.0)
        for n in range(j + 1):
            g = st.grid(n)
            if n < j:
                F = w_b_term(st, j, n).astype(ld)
                F *= origin_bracket(st, j, n)
            else:
                F = (np.expm1(A2 * st.kernel(j, j)) * math.exp(-A2 * st.gamma0(j)) * L ** (-4 * j)).astype(ld)
            y2 = g.y.astype(ld) ** 2
            F *= y2[:, None] + y2[None, :]
            F *= g.y_mult[:, None]
            F *= g.y_mult[None, :]
            ref += g.weight * np.sum(F)
        ref *= 0.5 * A2
        assert abs(l9_report.a[i] - ref) <= 1e-15 * abs(ref), j


@pytest.mark.parametrize("L, R, j_max", [(9, 6, 3), (3, 6, 5), (3, 7, 6)])
def test_walk_bit_identical_to_the_per_scale_sums(stack_l9_massless, stack_l3_massless, L, R, j_max):
    # compute_coefficients' one walk up the scales, and the fresh walk of a
    # call for one scale, against a_j and e4_j summed for each scale alone,
    # re-summing the coarser kernels' zooms for every pair (j, n)
    from ktrg.decomposition import decompose
    from ktrg.lattice import TorusLattice

    base = {(9, 6): stack_l9_massless, (3, 6): stack_l3_massless}.get((L, R))
    st = decompose(TorusLattice(L=L, R=R)) if base is None else dataclasses.replace(base, _cache={})
    rep = compute_coefficients(st, j_max)
    for i, j in enumerate(rep.scales):
        assert rep.a[i] == per_scale_a(st, j), j
        assert rep.e4[i] == per_scale_e4(st, j), j
    assert coeff_a(st, j_max) == rep.a[-1]
    assert energy_coeffs(st, j_max) == (rep.e2[-1], rep.e3[-1], rep.e4[-1])


def test_compute_coefficients_holds_only_the_windows_later_scales_read(stack_l9_massless):
    # the traced peak at (L, R, j-max) = (9, 6, 3) was 38.7 MiB with every
    # zoom cached and the window synthesized from the folded square, and is
    # 26.7 MiB with the walk; afterwards each grid keeps psi as its only
    # triangle- or square-sized array, and the stack no zoom kernel(j > n, n)
    from ktrg.decomposition import _tri

    st = dataclasses.replace(stack_l9_massless, _cache={})
    tracemalloc.start()
    try:
        compute_coefficients(st, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32e6
    grids = [key for key in st._cache if key[0] == "grid"]
    assert sorted(grids) == [("grid", n) for n in range(4)]
    for key in grids:
        g = st._cache[key]
        k = len(g.p_fold)
        held = {name for name, v in vars(g).items() if isinstance(v, np.ndarray) and v.size >= min(_tri(k), k * k)}
        assert held == {"psi"}, (key, held)
    assert all(key[1] == key[2] for key in st._cache if key[0] == "kernel")
    assert "walk" not in st._cache


def test_taylor_cross_coefficient_is_exactly_zero(stack_l3_massless, stack_l9_massless):
    # the e4 Taylor term is q |y|^2, q = (dd - opposite)/2: the 2 x 2 form
    # 0.25 D^T T D of the 4 x 4 tensor T in the axes has Q00 = Q11 = q and a
    # y0 y1 coefficient of exactly 0, and q |y|^2 matches the 16-pair sum
    from ktrg.coefficients import _second_differences
    from ktrg.lattice import DIRS

    D = np.array(DIRS, dtype=float)
    for st, js in ((stack_l3_massless, range(1, 6)), (stack_l9_massless, range(1, 4))):
        for j in js:
            dd, opposite = _second_differences(st, j)
            q = 0.5 * (dd - opposite)
            tensor = dd_tensor(st, j)
            Q = 0.25 * D.T @ tensor @ D
            assert Q[0, 1] + Q[1, 0] == 0.0
            assert Q[0, 0] == Q[1, 1] == q
            y = st.grid(j).y
            r = len(y) - 1
            full = _loop_taylor_quad(tensor, np.concatenate([-y[:0:-1], y]))
            y2 = y**2
            assert np.max(np.abs(q * (y2[:, None] + y2[None, :]) - full[r:, r:])) <= 1e-15 * np.max(np.abs(full))


def test_alias_bound_column(l9_report, stack_l9_massless, tmp_path):
    from ktrg.coefficients import coefficients_csv

    st = stack_l9_massless
    want = [st.grid(j).alias_bound(st.fine_scales(j)) for j in (1, 2, 3)]
    assert l9_report.alias_bound == want
    assert want[:2] == [0.0, 0.0] and 0.0 < want[2] < 1e-9  # steps 1, 1, 3
    path = str(tmp_path / "coeff.csv")
    coefficients_csv(l9_report, path)
    lines = open(path).read().splitlines()
    assert lines[0].split(",")[-1] == "alias_bound_j"
    assert [float(line.split(",")[-1]) for line in lines[1:]] == want


def test_e3_symbol_is_lam_squared_bit_for_bit(stack_l9_massless):
    # the band pass sums e3_j against lam^2: the forward-pair symbol, bit for bit
    for j in (1, 2, 3):
        g = stack_l9_massless.grid(j)
        assert np.array_equal(e3_symbol(g), _gap_e3_symbol(g))


@pytest.mark.parametrize("j_max", [0, 3])
def test_compute_coefficients_rejects_j_max_outside_1_to_R_minus_1(stack_l3_massive, monkeypatch, j_max):
    # the range is checked before any scale is computed
    import ktrg.coefficients as coefficients

    monkeypatch.setattr(coefficients, "coeff_a", lambda *a, **k: pytest.fail("coeff_a ran"))
    with pytest.raises(ValueError, match=rf"j_max must be in 1\.\.2 \(R = 3\), got {j_max}"):
        compute_coefficients(stack_l3_massive, j_max)
