import math

import numpy as np
import pytest

from ktrg.lattice import (
    TorusLattice,
    laplacian_symbol,
    yukawa_table,
    normalized_potential_table,
)


def torus_yukawa(lattice, x):
    """Oracle: W(x; m) at a single point by the exact momentum sum."""
    if lattice.m <= 0:
        raise ValueError("massless torus potential has a zero mode")
    k = lattice.momenta()
    g = 1.0 / (lattice.m**2 + laplacian_symbol(k[:, None], k[None, :]))
    # real part of e^{ikx}: cos(k0 x0)cos(k1 x1) - sin(k0 x0)sin(k1 x1)
    val = (np.einsum("ij,i,j->", g, np.cos(k * x[0]), np.cos(k * x[1]))
           - np.einsum("ij,i,j->", g, np.sin(k * x[0]), np.sin(k * x[1])))
    return float(val) / lattice.n_sites


def normalized_potential(lattice, x):
    """Oracle: W(x|0) at a single point by the zero-mode-excluded momentum sum."""
    k = lattice.momenta()
    sym = laplacian_symbol(k[:, None], k[None, :])
    g = np.zeros_like(sym)
    mask = sym > 0
    g[mask] = 1.0 / sym[mask]
    ph = np.cos(k * x[0])[:, None] * np.cos(k * x[1])[None, :] - np.sin(k * x[0])[:, None] * np.sin(k * x[1])[None, :]
    return float(np.sum(g * (ph - 1.0))) / lattice.n_sites


def test_lattice_validation():
    with pytest.raises(ValueError):
        TorusLattice(L=4, R=2)
    with pytest.raises(ValueError):
        TorusLattice(L=1, R=2)
    with pytest.raises(ValueError):
        TorusLattice(L=3, R=2, gamma=5)  # gamma^M = 3 unsolvable
    lat = TorusLattice(L=9, R=2)
    assert lat.M == 2 and lat.side == 81


def test_yukawa_even_and_rotation_symmetric():
    lat = TorusLattice(L=3, R=2, m=0.5)
    W = yukawa_table(lat)
    s = lat.side
    for x in [(1, 0), (2, 3), (4, 4), (1, 2)]:
        assert W[x[0] % s, x[1] % s] == pytest.approx(W[(-x[0]) % s, (-x[1]) % s], abs=1e-15)
        assert W[x[0] % s, x[1] % s] == pytest.approx(W[x[1] % s, x[0] % s], abs=1e-15)


def test_yukawa_single_point_matches_table():
    lat = TorusLattice(L=3, R=2, m=0.3)
    W = yukawa_table(lat)
    assert torus_yukawa(lat, (2, 5)) == pytest.approx(W[2, 5], rel=1e-13)


def test_yukawa_peak_at_origin():
    # direct momentum-sum check on the 9x9 torus at m = 0.5
    lat = TorusLattice(L=3, R=2, m=0.5)
    W = yukawa_table(lat)
    assert np.argmax(W) == 0


def test_massless_yukawa_rejected():
    lat = TorusLattice(L=3, R=2, m=0.0)
    with pytest.raises(ValueError):
        torus_yukawa(lat, (1, 0))
    with pytest.raises(ValueError):
        yukawa_table(lat)


def test_normalized_potential_zero_at_origin():
    lat = TorusLattice(L=3, R=3, m=0.0)
    assert normalized_potential(lat, (0, 0)) == 0.0


def test_normalized_potential_laplacian_oracle():
    # -Delta W(.|0) = delta - 1/|L|: the four neighbors of 0 are equal, so
    # W(e|0) = -(1 - 1/|L|)/4 exactly; momentum sum must reproduce it
    lat = TorusLattice(L=3, R=5, m=0.0)
    expected = -(1.0 - 1.0 / lat.n_sites) / 4.0
    val = normalized_potential(lat, (1, 0))
    assert val == pytest.approx(expected, abs=1e-12)
    assert val == pytest.approx(-0.25, abs=1e-4)


def test_normalized_potential_large_torus_quarter():
    lat = TorusLattice(L=3, R=6, m=0.0)
    val = normalized_potential(lat, (1, 0))
    assert val == pytest.approx(-0.25, abs=1e-6)


def test_normalized_potential_log_asymptotics():
    # -W(x|0) - ln|x|/(2 pi) flat within 0.02 for |x| in [20, 40] on side 729
    lat = TorusLattice(L=3, R=6, m=0.0)
    W = normalized_potential_table(lat)
    vals = []
    for r in (20, 25, 28, 32, 36, 40):
        vals.append(-W[r, 0] - math.log(r) / (2.0 * math.pi))
        d = int(r / math.sqrt(2.0))
        rr = math.hypot(d, d)
        vals.append(-W[d, d] - math.log(rr) / (2.0 * math.pi))
    assert max(vals) - min(vals) < 0.02


def test_reduce_centered():
    lat = TorusLattice(L=3, R=2, m=0.0)
    assert lat.reduce((5, -5)) == (-4, 4)
    assert lat.reduce((4, 4)) == (4, 4)
