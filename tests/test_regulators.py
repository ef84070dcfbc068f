import math

import numpy as np
import pytest

from ktrg.lattice import DIRS
from ktrg.polymers import Polymer, paving, polymer, components, connected_polymers_up_to, neighborhood
from ktrg.regulators import (
    FieldOnTorus,
    RegulatorConstants,
    log_field_regulator,
    log_strong_regulator,
    _boundary_mask,
    _site_mask,
)


def smooth_field(side: int, seed: int, modes: int = 3, amp: float = 1.0) -> FieldOnTorus:
    """Random long-wavelength field: a few low Fourier modes."""
    rng = np.random.default_rng(seed)
    x = np.arange(side)
    vals = np.zeros((side, side))
    for _ in range(modes):
        k = rng.integers(1, 4, size=2)
        a = rng.normal(size=2)
        vals += a[0] * np.cos(2 * np.pi * (k[0] * x[:, None] + k[1] * x[None, :]) / side)
        vals += a[1] * np.sin(2 * np.pi * (k[0] * x[:, None] - k[1] * x[None, :]) / side)
    return FieldOnTorus(amp * vals)


def test_constant_field_gives_one():
    pav = paving(3, 2, 1)
    X = polymer(pav, [(0, 0), (0, 1)])
    phi = FieldOnTorus(np.full((9, 9), 3.7))
    assert log_field_regulator(phi, X, RegulatorConstants()) == 0.0
    assert log_strong_regulator(phi, X) == 0.0


def test_factorization_over_components():
    # G_j(phi, X) = prod over connected components, exactly
    pav = paving(3, 2, 0)
    X = polymer(pav, [(1, 1), (1, 2), (5, 5), (8, 0)])
    consts = RegulatorConstants()
    for seed in range(6):
        phi = smooth_field(9, seed)
        whole = log_field_regulator(phi, X, consts)
        parts = sum(log_field_regulator(phi, Y, consts) for Y in components(X))
        assert whole == pytest.approx(parts, abs=1e-12)


def test_strong_below_field_regulator():
    # G^str <= G at c1 = 5 on 100 random smooth fields
    pav = paving(3, 3, 1)
    X = polymer(pav, [(0, 0), (0, 1), (1, 1)])
    consts = RegulatorConstants(c1=5.0, c3=1.0)
    for seed in range(100):
        phi = smooth_field(27, seed, amp=float(1.0 + (seed % 5)))
        assert log_strong_regulator(phi, X, consts) <= log_field_regulator(phi, X, consts) + 1e-12


def test_strong_regulator_monotone_in_scale():
    # G^str_j(phi, X) <= G^str_{j+1}(phi, X) for X in the coarser paving
    pav1 = paving(3, 3, 1)
    pav2 = paving(3, 3, 2)
    consts = RegulatorConstants()
    for seed in range(10):
        phi = smooth_field(27, seed)
        X2 = polymer(pav2, [(0, 0)])
        # same region viewed at scale 1: the nine j=1 blocks of the block
        fine_blocks = set()
        for site in pav2.sites_of((0, 0)):
            fine_blocks.add(pav1.block_of(site))
        X1 = polymer(pav1, fine_blocks)
        assert log_strong_regulator(phi, X1, consts) <= log_strong_regulator(phi, X2, consts) + 1e-12


def test_regulator_nontrivial_on_rough_field():
    pav = paving(3, 3, 1)
    X = polymer(pav, [(1, 1)])
    rng = np.random.default_rng(0)
    phi = FieldOnTorus(rng.normal(size=(27, 27)))
    assert log_field_regulator(phi, X, RegulatorConstants()) > 0.0
    assert log_strong_regulator(phi, X) > 0.0


def test_norms_scale_with_field():
    pav = paving(3, 3, 1)
    X = polymer(pav, [(1, 1)])
    phi = smooth_field(27, 1)
    phi2 = FieldOnTorus(2.0 * phi.values)
    consts = RegulatorConstants()
    for fn in (log_field_regulator, log_strong_regulator):
        # both are quadratic in the differences of the field
        assert fn(phi2, X, consts) == pytest.approx(4.0 * fn(phi, X, consts), rel=1e-12)


def test_field_validation():
    with pytest.raises(ValueError):
        FieldOnTorus(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        FieldOnTorus(np.full((4, 4), np.nan))


@pytest.mark.parametrize("kwargs", [
    dict(c1=float("nan")), dict(c1=-5.0), dict(c1=0.0), dict(c3=float("inf")), dict(c3=-1.0),
    dict(c1=float("inf")), dict(c1=float("-inf")), dict(c1=-0.0),
    dict(c3=float("nan")), dict(c3=0.0), dict(c3=float("-inf")),
])
def test_constants_validation(kwargs):
    name = next(iter(kwargs))
    with pytest.raises(ValueError, match=f"{name} must be"):
        RegulatorConstants(**kwargs)


@pytest.mark.parametrize("L", [1, 0, -3])
def test_kappa_rejects_L_below_2(L):
    with pytest.raises(ValueError, match="L must be >= 2"):
        RegulatorConstants().kappa(L)


def test_kappa_is_one_tenth_over_ln_L():
    for L in (3, 5, 9, 27):
        assert RegulatorConstants().kappa(L) == 0.1 / math.log(L)
    for name in ("kappa_L", "c_kap"):
        with pytest.raises(TypeError, match=name):
            RegulatorConstants(**{name: 0.2})


def test_norms_reject_foreign_field_side():
    X = polymer(paving(3, 2, 0), [(1, 1), (1, 2)])
    phi = smooth_field(27, 0)
    for fn in (log_field_regulator, log_strong_regulator):
        with pytest.raises(ValueError, match="field side 27 does not match the paving side 9"):
            fn(phi, X, RegulatorConstants())


# ---------------------------------------------------------------------------
# difference stacks and block-indexed masks against the per-direction,
# per-site originals


def _diffs_reference(order):
    if order == 1:
        return [(d,) for d in range(4)]
    return [(d1, d2) for d1 in range(4) for d2 in range(4)]


def _apply_diffs_reference(phi, dirs):
    out = phi.values
    for d in dirs:
        s0, s1 = DIRS[d]
        out = np.roll(out, (-s0, -s1), axis=(0, 1)) - out
    return out


def _site_mask_reference(X):
    pav = X.paving
    side = pav.side
    mask = np.zeros((side, side), dtype=bool)
    for blk in X.blocks:
        for (c0, c1) in pav.sites_of(blk):
            mask[c0 % side, c1 % side] = True
    return mask


def _boundary_mask_reference(X):
    inside = _site_mask_reference(X)
    out = np.zeros_like(inside)
    for s0, s1 in DIRS:
        out |= inside & ~np.roll(inside, (s0, s1), axis=(0, 1))
    return out


def _grad_sup_reference(phi, X, n, j, L, star=True):
    mask = _site_mask_reference(neighborhood(X) if star else X)
    best = 0.0
    for dirs in _diffs_reference(n):
        vals = np.abs(_apply_diffs_reference(phi, dirs)[mask])
        if vals.size:
            best = max(best, float(vals.max()))
    return (L ** (n * j)) * best


def _l2_reference(phi, mask, n):
    tot = 0.0
    for dirs in _diffs_reference(n):
        tot += 0.5 ** len(dirs) * float(np.sum(_apply_diffs_reference(phi, dirs)[mask] ** 2))
    return tot


def _grad_l2_reference(phi, X, n, j, L):
    return float(L ** (-2 * j)) * (L ** (2 * n * j)) * _l2_reference(phi, _site_mask_reference(X), n)


def _boundary_l2_reference(phi, X, n, j, L):
    return float(L ** (-j)) * (L ** (2 * n * j)) * _l2_reference(phi, _boundary_mask_reference(X), n)


def _w_block_reference(phi, X, j, L):
    tot = 0.0
    for blk in X.blocks:
        tot += _grad_sup_reference(phi, Polymer(X.paving, frozenset([blk])), 2, j, L) ** 2
    return tot


def _log_field_reference(phi, X, consts):
    j, L = X.paving.j, X.paving.L
    kap = consts.kappa(L)
    return (
        consts.c1 * kap * _grad_l2_reference(phi, X, 1, j, L)
        + consts.c3 * kap * _boundary_l2_reference(phi, X, 1, j, L)
        + consts.c1 * kap * _w_block_reference(phi, X, j, L)
    )


def _log_strong_reference(phi, X, consts):
    j, L = X.paving.j, X.paving.L
    kap = consts.kappa(L)
    tot = 0.0
    for blk in X.blocks:
        B = Polymer(X.paving, frozenset([blk]))
        m = max(_grad_sup_reference(phi, B, 1, j, L), _grad_sup_reference(phi, B, 2, j, L))
        tot += kap * m * m
    return tot


def _oracle_polymers(R, j):
    pav = paving(3, R, j)
    n = pav.n_axis
    rng = np.random.default_rng(10 * R + j)
    out = [polymer(pav, [])]
    for k in (1, 2, 4, 6):
        idx = rng.choice(n * n, size=min(k, n * n), replace=False)
        X = polymer(pav, [(int(i) // n, int(i) % n) for i in idx])
        out += [X, *components(X)]
    return out


@pytest.mark.parametrize("R,j", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_norms_and_regulators_match_per_direction_reference(R, j):
    L = 3
    consts = RegulatorConstants(c1=5.0, c3=1.0)
    for seed in range(3):
        phi = smooth_field(L**R, seed, amp=1.0 + seed)
        rough = FieldOnTorus(np.random.default_rng(seed).normal(size=(L**R, L**R)))
        for f in (phi, rough):
            for X in _oracle_polymers(R, j):
                assert log_field_regulator(f, X, consts) == _log_field_reference(f, X, consts)
                assert log_strong_regulator(f, X, consts) == _log_strong_reference(f, X, consts)


def test_masks_match_per_site_reference():
    pav = paving(3, 3, 1)
    fam = connected_polymers_up_to(pav, 4)
    assert len(fam) == 81 * (1 + 2 + 6 + 19)  # fixed polyominoes of 1..4 cells at each block
    for X in fam:
        np.testing.assert_array_equal(_site_mask(X), _site_mask_reference(X))
        np.testing.assert_array_equal(_boundary_mask(_site_mask(X), pav), _boundary_mask_reference(X))
