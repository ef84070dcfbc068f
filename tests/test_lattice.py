import math

import numpy as np
import pytest

from ktrg.lattice import (
    TorusLattice,
    laplacian_symbol,
    yukawa_table,
    normalized_potential_table,
)


def complex_table(lattice):
    """Oracle: the table of W(x; m), or of W(x|0) at m = 0, as the complex
    inverse FFT of the symbol on the full side x side momentum grid."""
    k = lattice.momenta()
    sym = laplacian_symbol(k[:, None], k[None, :])
    if lattice.m > 0:
        return np.fft.ifft2(1.0 / (lattice.m**2 + sym)).real
    g = np.zeros_like(sym)
    mask = sym > 0
    g[mask] = 1.0 / sym[mask]
    w = np.fft.ifft2(g).real
    return w - w[0, 0]


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


@pytest.mark.parametrize("L, R", [(3, 1), (5, 1), (7, 1), (3, 5), (3, 6)])  # sides 3, 5, 7, 243, 729
@pytest.mark.parametrize("m", [0.0, 0.1, 0.5])
def test_tables_match_the_complex_transform(L, R, m):
    lat = TorusLattice(L=L, R=R, gamma=3 if L == 3 else L, m=m)
    W = yukawa_table(lat) if m > 0 else normalized_potential_table(lat)
    ref = complex_table(lat)
    assert W.shape == ref.shape == (lat.side, lat.side)
    assert np.max(np.abs(W - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_reduce_centered():
    lat = TorusLattice(L=3, R=2, m=0.0)
    assert lat.reduce((5, -5)) == (-4, 4)
    assert lat.reduce((4, 4)) == (4, 4)


# ---------------------------------------------------------------------------
# the sin^2 symbol on the centered momentum axis


def _cos_symbol(k0, k1):
    """The cos form 4 - 2cos(k0) - 2cos(k1) the sin^2 symbol replaced."""
    return 4.0 - 2.0 * np.cos(k0) - 2.0 * np.cos(k1)


def test_momenta_centered_fftfreq_layout():
    lat = TorusLattice(L=3, R=3)
    k = lat.momenta()
    n = np.arange(lat.side)
    assert k[0] == 0.0 and np.max(np.abs(k)) < np.pi
    assert np.array_equal(k[lat.side - n[1:]], -k[1:])
    assert np.allclose(np.mod(k, 2.0 * np.pi), 2.0 * np.pi * n / lat.side, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("S", [27, 2187, 4095])
def test_symbol_symmetric_and_even_bit_for_bit(S):
    k = 2.0 * np.pi * np.fft.fftfreq(S) / 3.0
    lam = laplacian_symbol(k[:, None], k[None, :])
    assert np.array_equal(lam, lam.T)
    flip = np.concatenate([[0], np.arange(S - 1, 0, -1)])  # k -> -k
    assert np.array_equal(lam[flip], lam) and np.array_equal(lam[:, flip], lam)
    # the cos form is neither, in its last bit
    old = _cos_symbol(k[:, None], k[None, :])
    assert not np.array_equal(old, old.T)


def test_symbol_within_few_ulp_of_mpmath_at_small_momenta():
    import mpmath

    mpmath.mp.prec = 200

    def rel_error(symbol, k0, k1):
        exact = 4 * mpmath.sin(mpmath.mpf(k0) / 2) ** 2 + 4 * mpmath.sin(mpmath.mpf(k1) / 2) ** 2
        return float(abs(mpmath.mpf(float(symbol(k0, k1))) - exact) / exact)

    ks = np.concatenate([np.geomspace(1e-8, 1.0, 41), [2.0 * np.pi / 3**11, 3.0]])
    points = [(k0, k1) for k0 in ks for k1 in (0.0, k0 / 3.0, 2.0 * k0)]
    assert max(rel_error(laplacian_symbol, *p) for p in points) <= 4 * np.finfo(float).eps
    assert max(rel_error(_cos_symbol, *p) for p in points) > 1e-3  # 1 - cos k cancels as k -> 0


def _two_irfft_synthesis(G, rows, cols):
    """Oracle: the two strided real inverse transforms, irfft over k0 cut to
    its leading rows, then over k1, cut to its leading columns."""
    S = 2 * G.shape[0] - 1
    return np.fft.irfft(np.fft.irfft(G, n=S, axis=0)[:rows], n=S, axis=1)[:, :cols]


@pytest.mark.parametrize("n", [1, 6, 41, 365, 1094])
def test_blocked_synthesis_bit_identical_to_strided_transforms(n):
    # the blocked transforms along the contiguous axis give every bit of
    # the strided ones, on a quarter window, on the rows of a folded table
    # (a nonsymmetric array too) and on the full table
    from ktrg.lattice import SYNTHESIS_BLOCK, _half_synthesis, folded_table

    assert n <= 6 or n > SYNTHESIS_BLOCK
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    G = A + A.T
    S = 2 * n - 1
    r = max(1, n - 2)
    assert np.array_equal(_half_synthesis(G, r, r), _two_irfft_synthesis(G, r, r))
    assert np.array_equal(_half_synthesis(A, n, S), _two_irfft_synthesis(A, n, S))
    x = np.arange(S)
    assert np.array_equal(folded_table(G), _two_irfft_synthesis(G, n, S)[np.minimum(x, S - x)])
