import math

import numpy as np
import pytest

from ktrg.cutoffs import build_cutoffs, tilde_c, coulomb_constant_c, coulomb_constant_closed


@pytest.fixture(scope="module")
def fam():
    return build_cutoffs(3, 1, 8)


def test_F0_is_one(fam):
    p = np.linspace(-3.0, 3.0, 11)
    assert np.all(fam.F_h(p, p, 0, m=0.3) == 1.0)


def test_u_profile_normalization(fam):
    assert fam.u_profile(0.0) == 1.0
    vals = fam.u_profile(np.linspace(0, 500, 2001))
    assert vals.min() >= 0.0 and vals.max() <= 1.0
    # uniform decay at infinity
    assert float(fam.u_profile(400.0)) < 1e-6


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
        got = fam._one_minus_factor_over_u(np.array([0.0, 1e-14, 1e-8]), b, kappa)
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


def test_coulomb_window_independence(fam, cc):
    other = coulomb_constant_c(fam, window=(60.0, 150.0), npts=3)
    assert other.c == pytest.approx(cc.c, abs=max(1e-6, 8 * math.pi * (cc.fit_residual + other.fit_residual)))


def test_coulomb_w_limit(cc):
    # e^c consistent with lim w(y) at the window edge within 2%
    assert cc.w_limit_error < 0.02
