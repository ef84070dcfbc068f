import math

import numpy as np
import pytest
from scipy import integrate, special

from ktrg.cutoffs import (
    FejerPass, _c_log_closed_form, _edges, _gtilde_normalized, _panel_quad, build_cutoffs, coulomb_constant_c,
    coulomb_constant_closed,
)

from conftest import one_minus_factor_over_u


@pytest.fixture(scope="module")
def fam():
    return build_cutoffs(3, 1, 8)


def tilde_c(cutoffs, x) -> float:
    """C~(x) = int d^2p/(2pi)^2 e^{ipx} (u(p) - u(gamma p))/p^2 by the panel rule.

    Radial form: (1/2pi) int_0^120 (u(rho) - u(gamma rho)) J0(rho |x|) drho/rho.
    The integrand is entire, so fixed-width panels suffice; the width
    shrinks as 1/(1 + |x|) to resolve J0.
    """
    r = math.hypot(float(x[0]), float(x[1])) if np.ndim(x) else float(abs(x))
    if not math.isfinite(r):
        raise ValueError(f"tilde_c needs a finite point, got |x| = {r}")
    g = cutoffs.gamma

    def integrand(rho):
        return (cutoffs.u_profile(rho) - cutoffs.u_profile(g * rho)) * special.j0(rho * r) / rho

    vals, _ = _panel_quad(integrand, _edges(0.0, 120.0, 4.0 / (1.0 + r)), f"tilde_c at |x|={r:g}")
    return float(np.sum(vals)) / (2.0 * math.pi)


def test_F0_is_one(fam):
    p = np.linspace(-3.0, 3.0, 11)
    assert np.all(fam.F_h(p, p, 0, m=0.3) == 1.0)


def test_u_profile_normalization(fam):
    assert fam.u_profile(0.0) == 1.0
    vals = fam.u_profile(np.linspace(0, 500, 2001))
    assert vals.min() >= 0.0 and vals.max() <= 1.0
    # uniform decay at infinity
    assert float(fam.u_profile(400.0)) < 1e-6


def test_u_profile_independent_of_other_points(fam):
    # each point sets its own product depth: the largest |q| of a call no
    # longer changes the value at the others
    for q in (0.01, 5.0, 50.0):
        alone = float(fam.u_profile(q))
        mixed = float(fam.u_profile([q, 1e4])[0])
        assert abs(alone - mixed) <= 2 * np.spacing(alone)
    with pytest.raises(ValueError, match="finite"):
        fam.u_profile([1.0, np.inf])


def test_factor_in_unit_interval(fam):
    u = np.linspace(0.0, 8.0, 4097)
    th = fam.theta(u, 8.0)
    for kappa in fam.kappas[:5]:
        s = fam._factor(th, kappa)
        assert s.min() >= -1e-15
        assert s.max() <= 1.0 + 1e-12


def test_one_minus_factor_over_u_limit(fam):
    # (1 - s_K)/u -> (K^2 - 1)/(3 b) as u -> 0
    b = 8.0
    for kappa in (2, 3, 9):
        lim = (kappa**2 - 1) / (3.0 * b)
        u = np.array([0.0, 1e-14, 1e-8])
        got = one_minus_factor_over_u(u, fam.theta(u, b), b, kappa)
        assert got == pytest.approx([lim, lim, lim], rel=1e-6)


def test_cut_bound_linear_near_zero(fam):
    # (1 - F_h(p; 0)) / |p| bounded on |p| <= 0.1 (fitted constant, finite)
    for h in (1, 2, 4):
        ps = np.linspace(1e-4, 0.1, 50)
        vals = (1.0 - fam.F_h(ps, 0.0 * ps, h)) / ps
        assert np.all(np.isfinite(vals))
        assert vals.max() < 10.0


def test_cut_bound_quartic_tail(fam):
    # |F_h(p; m)| <= c/(1 + p^4): c is fitted, then verified on a denser,
    # shifted probe of the valid zone |p_i| <= pi gamma^h
    def sup_ratio(h, n, offs):
        zone = math.pi * fam.gamma**h
        ps = np.linspace(0.05 + offs, zone, n)
        vals = fam.F_h(ps, 0.3 * ps, h, m=0.1) * (1.0 + (ps**2 + (0.3 * ps) ** 2) ** 2)
        return float(vals.max())

    for h in (2, 3, 5):
        c_fit = sup_ratio(h, 400, 0.0)
        assert math.isfinite(c_fit)
        assert sup_ratio(h, 1700, 0.013) <= 1.1 * c_fit


def test_A_factors_compose(fam):
    p = np.linspace(-8.0, 8.0, 31)
    h = 3
    prod = np.ones_like(p)
    for n in range(h):
        prod = prod * fam.A_sq(p, 0.5 * p, h, n, m=0.2)
    assert prod == pytest.approx(fam.F_h(p, 0.5 * p, h, m=0.2), rel=1e-12)


def test_band_degree_budget(fam):
    for h in range(fam.horizon):
        assert fam.band_degree(h) <= (fam.gamma ** (h + 1) - 1) // 2


def test_tilde_c_diagonal(fam):
    assert tilde_c(fam, (0.0, 0.0)) == pytest.approx(math.log(3) / (2 * math.pi), abs=1e-4)


def test_tilde_c_compact_support(fam):
    peak = tilde_c(fam, (0.0, 0.0))
    for x in ((1.5, 0.0), (2.0, 0.0), (1.2, 1.2)):
        assert abs(tilde_c(fam, x)) < 1e-4 * peak


def test_tilde_c_rejects_non_finite_point(fam):
    with pytest.raises(ValueError, match="finite"):
        tilde_c(fam, (math.inf, 0.0))


def test_tilde_c_rotation(fam):
    a = tilde_c(fam, (0.7, 0.0))
    b = tilde_c(fam, (0.0, 0.7))
    assert a == pytest.approx(b, abs=1e-8)


@pytest.fixture(scope="module")
def cc(fam):
    return coulomb_constant_c(fam)


def test_coulomb_slope(cc):
    assert cc.slope == pytest.approx(-1.0 / (2.0 * math.pi), rel=0.02)


def test_coulomb_closed_form_agreement(fam, cc):
    assert coulomb_constant_closed(fam) == pytest.approx(cc.c, abs=1e-5)


def test_closed_form_c_is_computed_once_per_gamma(monkeypatch, cc):
    # the profile reads gamma alone: the families of separatrix (3, 1, 8) and
    # of coeffs at L = 9 R = 9 (3, 2, 18) share one quadrature, bit for bit
    import ktrg.cutoffs as cutoffs

    calls = []
    profile = cutoffs.CutoffFamily.u_profile
    monkeypatch.setattr(cutoffs.CutoffFamily, "u_profile", lambda self, q: calls.append(self.gamma) or profile(self, q))
    families = [build_cutoffs(3, 1, 8), build_cutoffs(3, 2, 18)]
    fresh = []
    for fam_ in families:
        monkeypatch.setattr(cutoffs, "_C_LOG_CLOSED", {})
        fresh.append(coulomb_constant_closed(fam_))
    assert fresh[0] == fresh[1] == cc.c_closed
    monkeypatch.setattr(cutoffs, "_C_LOG_CLOSED", {})
    calls.clear()
    assert coulomb_constant_closed(families[0]) == fresh[0] and calls
    calls.clear()
    assert coulomb_constant_closed(families[1]) == fresh[0] and calls == []
    # the window fit checks against the same value without a second c_log quadrature
    names = []
    quad = cutoffs._panel_quad
    monkeypatch.setattr(cutoffs, "_panel_quad", lambda f, edges, name: names.append(name) or quad(f, edges, name))
    assert coulomb_constant_c(families[1]).c_closed == cc.c_closed
    assert names and not [n for n in names if n.startswith("c_log")]
    # another gamma is another profile
    calls.clear()
    assert coulomb_constant_closed(build_cutoffs(5, 1, 4)) != fresh[0] and set(calls) == {5}


def test_coulomb_window_independence(fam, cc):
    other = coulomb_constant_c(fam, window=(60.0, 150.0), npts=3)
    assert other.c == pytest.approx(cc.c, abs=max(1e-6, 8 * math.pi * (cc.fit_residual + other.fit_residual)))


def test_coulomb_w_limit(cc):
    # e^c consistent with lim w(y) at the window edge within 2%
    assert cc.w_limit_error < 0.02


# ---------------------------------------------------------------------------
# the adaptive-quadrature path the panel rule replaced, kept as its oracle


def _quad_tilde_c(cutoffs, x):
    r = math.hypot(float(x[0]), float(x[1]))
    g = cutoffs.gamma

    def integrand(rho):
        du = float(cutoffs.u_profile(rho) - cutoffs.u_profile(g * rho))
        return du * special.j0(rho * r) / rho

    corners = [math.sqrt(8.0) * float(g) ** (-l) * math.pi for l in range(-6, 3)]
    pts = sorted(c for c in corners if 1e-8 < c < 120.0)
    total, err = integrate.quad(integrand, 1e-8, 120.0, points=pts, limit=400, epsabs=1e-10, epsrel=1e-10)
    assert err < 1e-6
    return total / (2.0 * math.pi)


def _quad_gtilde_normalized(cutoffs, r):
    lo = 1.0 / r

    def head(rho):
        return (special.j0(rho * r) - 1.0) * float(cutoffs.u_profile(rho)) / rho

    h, _ = integrate.quad(head, 1e-10, lo, limit=200, epsabs=1e-11)

    def nonosc(rho):
        return float(cutoffs.u_profile(rho)) / rho

    n1, _ = integrate.quad(nonosc, lo, 1.0, limit=200, epsabs=1e-11)
    n2, _ = integrate.quad(nonosc, 1.0, 200.0, limit=400, epsabs=1e-11)

    def osc(s):
        return special.j0(s) * float(cutoffs.u_profile(s / r)) / s

    prev = 1.0
    osc_total = 0.0
    for z in special.jn_zeros(0, 4000):
        val, _ = integrate.quad(osc, prev, z, limit=60, epsabs=1e-12)
        osc_total += val
        prev = z
        if z > 30.0 * r and abs(val) < 1e-13:
            break
    return (h + osc_total - (n1 + n2)) / (2.0 * math.pi)


def _quad_c_log(cutoffs):
    euler_gamma = 0.5772156649015329

    def head(rho):
        return (1.0 - float(cutoffs.u_profile(rho))) / rho

    def tail(rho):
        return float(cutoffs.u_profile(rho)) / rho

    i1, _ = integrate.quad(head, 1e-9, 1.0, limit=200, epsabs=1e-11)
    corners = [math.sqrt(8.0) * cutoffs.gamma * math.pi * k for k in range(1, 40)]
    i2, _ = integrate.quad(tail, 1.0, 1e4, limit=2000, points=[c for c in corners if c < 1e4], epsabs=1e-11)
    return (math.log(2.0) - euler_gamma + i1 - i2) / (2.0 * math.pi)


def _all_panels_gtilde_normalized(cutoffs, r):
    """All-panels oracle: every Bessel-zero panel integrated in one call, then summed to the stop."""
    u = cutoffs.u_profile
    lo = 1.0 / r
    head, e_head = _panel_quad(lambda rho: (special.j0(rho * r) - 1.0) * u(rho) / rho, [0.0, lo], "head")
    nonosc, e_nonosc = _panel_quad(lambda rho: u(rho) / rho, _edges(lo, 200.0, 8.0), "non-oscillatory")
    zeros = np.concatenate([[1.0], special.jn_zeros(0, 4000)])
    osc, e_osc = _panel_quad(lambda s: special.j0(s) * u(s / r) / s, zeros, "Bessel-zero panels")
    done = np.flatnonzero((zeros[1:] > 30.0 * r) & (np.abs(osc) < 1e-13))
    n = int(done[0]) + 1 if done.size else len(osc)
    value = float(np.sum(head)) + float(np.sum(osc[:n])) - float(np.sum(nonosc))
    error = float(np.sum(e_head)) + float(np.sum(e_osc[:n])) + float(np.sum(e_nonosc))
    return value / (2.0 * math.pi), error / (2.0 * math.pi), n


@pytest.mark.parametrize("r, stop", [(50.0, 1258), (100.0, 1698), (200.0, 3393)])
def test_blockwise_gtilde_bit_identical_to_all_panels(fam, monkeypatch, r, stop):
    # the block-wise stop integrates only the blocks up to the stopping
    # panel and sums exactly what the all-panels evaluation sums
    import ktrg.cutoffs as cutoffs

    value, gap, n = _all_panels_gtilde_normalized(fam, r)
    assert n == stop
    panels = []
    real = cutoffs._panel_quad

    def counted(f, edges, name):
        if "Bessel" in name:
            panels.append(len(edges) - 1)
        return real(f, edges, name)

    monkeypatch.setattr(cutoffs, "_panel_quad", counted)
    assert _gtilde_normalized(fam, r) == (value, gap)
    assert sum(panels) == -(-stop // cutoffs.BESSEL_BLOCK) * cutoffs.BESSEL_BLOCK


def test_coulomb_constant_bit_identical_to_all_panels(fam, cc, monkeypatch):
    import ktrg.cutoffs as cutoffs

    monkeypatch.setattr(cutoffs, "_gtilde_normalized", lambda c, r: _all_panels_gtilde_normalized(c, r)[:2])
    assert coulomb_constant_c(fam) == cc


def test_gtilde_matches_quad_oracle(fam):
    value, gap = _gtilde_normalized(fam, 50.0)
    assert value == pytest.approx(_quad_gtilde_normalized(fam, 50.0), abs=1e-10)
    assert 0.0 <= gap < 1e-10


# both paths now evaluate u to the same product depth, so they agree to
# about 3e-15; the 1e-13 bound would catch a depth that again depends on
# the rest of the call (which left a 1-3e-12 gap)
def test_c_log_matches_quad_oracle(fam):
    assert _c_log_closed_form(fam) == pytest.approx(_quad_c_log(fam), abs=1e-13)


@pytest.mark.parametrize("x", [(0.0, 0.0), (0.7, 0.0), (3.0, 4.0)])
def test_tilde_c_matches_quad_oracle(fam, x):
    assert tilde_c(fam, x) == pytest.approx(_quad_tilde_c(fam, x), abs=1e-13)


def test_panel_rule_exact_on_smooth_integrand():
    vals, gaps = _panel_quad(np.sin, np.linspace(0.0, math.pi, 4), "sine")
    assert float(np.sum(vals)) == pytest.approx(2.0, abs=1e-14)
    assert gaps.max() < 1e-14


def test_panel_rule_flags_kink():
    # a sqrt|x - x0| kink inside the middle panel defeats both rules
    with pytest.raises(RuntimeError, match=r"quadrature of kinked integrand: panel 1 .*differ by"):
        _panel_quad(lambda x: np.sqrt(np.abs(x - 1.37)), [0.0, 1.0, 2.0, 3.0], "kinked integrand")


# ---------------------------------------------------------------------------
# the per-call Fejer factors the one-pass kernel replaced, kept as its oracle


def _old_factor(theta, kappa):
    half = 0.5 * theta
    small = kappa * half < 1e-6
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(small, 1.0, np.sin(kappa * half) / (kappa * np.where(small, 1.0, np.sin(half))))
    a = np.where(small, 1.0 - (kappa**2 - 1) * half**2 / 6.0, a)
    return a * a


def _old_one_minus_factor_over_u(u, theta, b, kappa):
    u = np.asarray(u, dtype=float)
    a = 0.5 * theta
    k2 = float(kappa) ** 2
    out = np.empty_like(u)
    small = kappa * a < 1e-3
    big = ~small
    if np.any(big):
        ub = u[big]
        s2 = ub / b
        sk = np.sin(kappa * a[big]) ** 2
        out[big] = (1.0 - sk / (k2 * s2)) / ub
    if np.any(small):
        usm = u[small]
        asm = a[small]
        num = (k2 - 1.0) * asm**4 / 3.0 - 2.0 * (k2 * k2 - 1.0) * asm**6 / 45.0
        lim = (k2 - 1.0) / (3.0 * b)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = num * b / np.where(usm > 0, usm * usm, 1.0)
        out[small] = np.where(usm > 0, val, lim)
    return out


def _old_band_sum(cut, u, b, hs):
    theta = 2.0 * np.arcsin(np.sqrt(np.clip(u / b, 0.0, 1.0)))
    out = np.zeros_like(u)
    r = np.ones_like(u)
    done = 0
    for h in sorted(hs):
        for n in range(done + 1, h + 1):
            r = r * _old_factor(theta, cut.kappas[n - 1])
        done = max(done, h)
        out += r * _old_one_minus_factor_over_u(u, theta, b, cut.kappas[h])
    return out, r


def _grids():
    """A per-scale decimated grid, a torus grid, the PSD probe and an alias
    ring, each with its cutoff family and mass."""
    from ktrg.decomposition import PROBE_SIDE, SpectralGrid
    from ktrg.lattice import TorusLattice

    l9 = TorusLattice(L=9, R=6)
    cut9 = build_cutoffs(3, l9.M, l9.n_fine_scales)
    l3 = TorusLattice(L=3, R=4, m=0.1)
    cut3 = build_cutoffs(3, l3.M, l3.n_fine_scales)
    probe = np.linspace(-np.pi, np.pi, 33)
    ring = np.concatenate([(probe + 2.0 * np.pi * a) / 27 for a in (-1, 0, 1)])
    return {
        "decimated": SpectralGrid.decimated(cut9, 0.0, 27, 405, 10),
        "torus": SpectralGrid(cut3, l3.m, l3.momenta()),
        "probe": SpectralGrid(cut9, 0.0, 2.0 * np.pi * np.fft.fftfreq(PROBE_SIDE)),
        "ring": SpectralGrid(cut9, 0.0, ring),
    }


@pytest.mark.parametrize("kind", ["decimated", "torus", "probe", "ring"])
def test_one_pass_bands_bit_identical_to_per_call_factors(kind):
    # the triangle pass with one sine per order, against the per-call
    # factors on the same u over the whole folded grid
    g = _grids()[kind]
    cut = g.cutoffs
    u = g.fejer_pass().u
    top = min(cut.horizon, 8)
    for hs in ([0, 1], [2, 3], [1, 2, 3], [top - 2, top - 1]):
        want, _ = _old_band_sum(cut, u, g.b, hs)
        assert np.array_equal(g.fejer_pass().band_sum(hs), want), hs
        assert np.array_equal(cut.band_sum(u, g.b, hs), want), hs
    _, r = _old_band_sum(cut, u, g.b, [top])
    assert np.array_equal(g.fejer_pass().advance(top), r)
    assert np.array_equal(cut.residual(u, g.b, top), r)


def test_per_call_factors_bit_identical_to_old(fam):
    # the per-call views go through the pass kernel; near u = 0 both
    # small-angle branches are hit
    u = np.concatenate([[0.0, 1e-150, 1e-14, 1e-10], np.geomspace(1e-9, 8.0, 4001)])
    th = fam.theta(u, 8.0)
    for kappa in fam.kappas:
        assert np.array_equal(fam._factor(th, kappa), _old_factor(th, kappa))
        assert np.array_equal(one_minus_factor_over_u(u, th, 8.0, kappa),
                              _old_one_minus_factor_over_u(u, th, 8.0, kappa))


def test_one_minus_factor_over_u_finite_where_u_squared_underflows(fam):
    # the old per-call form divided by u^2 = 0 below u = 1e-154 (nan); the
    # kernel takes the u -> 0 limit there
    u = np.array([1e-200, 1e-300])
    th = fam.theta(u, 8.0)
    for kappa in (2, 3, 9):
        assert np.all(np.isnan(_old_one_minus_factor_over_u(u, th, 8.0, kappa)))
        got = one_minus_factor_over_u(u, th, 8.0, kappa)
        assert np.all(got == (kappa**2 - 1.0) / (3.0 * 8.0))


def test_band_sum_rejects_repeated_fine_scale(fam):
    with pytest.raises(ValueError, match="distinct fine scales"):
        fam.band_sum(np.linspace(0.0, 8.0, 5), 8.0, [1, 1])


def test_pass_band_sum_refuses_a_scale_behind_the_pass(fam):
    # a pass only steps forward: a fine scale behind its order, or a repeated
    # one, raises and names h and the order; a list at or past the order
    # continues the pass, bit for bit as a fresh one
    u = np.linspace(0.0, 8.0, 9)
    run = FejerPass(fam.kappas, u, 8.0)
    run.band_sum([0, 1])
    assert np.array_equal(run.band_sum([2, 4]), fam.band_sum(u, 8.0, [2, 4]))
    for hs, h in (([4], 4), ([3, 6], 3), ([0], 0)):
        with pytest.raises(ValueError, match=rf"order 5, got h={h}$"):
            run.band_sum(hs)
    with pytest.raises(ValueError, match=r"order 2, got h=1$"):
        FejerPass(fam.kappas, u, 8.0).band_sum([1, 1])


def test_bessel_panel_edges_built_once_on_first_use(fam, monkeypatch):
    import ktrg.cutoffs as cutoffs

    calls = []
    real = special.jn_zeros

    def counted(n, nt):
        calls.append((n, nt))
        return real(n, nt)

    monkeypatch.setattr(special, "jn_zeros", counted)
    cutoffs._bessel_panel_edges.cache_clear()
    for r in (50.0, 100.0, 200.0):
        _gtilde_normalized(fam, r)
    assert calls == [(0, 4000)]
    edges = cutoffs._bessel_panel_edges()
    assert np.array_equal(edges, np.concatenate([[1.0], real(0, 4000)]))
    assert not edges.flags.writeable
