"""Periodic 2D lattice, torus Yukawa/Coulomb potentials.

The torus is a square of side L^R sites with periodic boundary conditions,
L odd and > 1.  Momentum space is the dual grid in the centered fftfreq
layout k = 2*pi*n/side, n = 0, 1, ..., (side-1)/2, -(side-1)/2, ..., -1,
which pairs every momentum with its exact negative.  The lattice Laplacian
symbol is lam(k) = 4 sin^2(k0/2) + 4 sin^2(k1/2) in [0, 8]: the same
function as 4 - 2cos(k0) - 2cos(k1), but with full relative accuracy as
k -> 0 and, on that axis, bit-for-bit even in each component and symmetric
under k0 <-> k1.

The torus tables (the potentials below, the decomposition's Gamma_j and
tail, the Siegert-Kac covariance of the oracle) are inverse FFTs of symbols
even in each momentum component, so each is built from the folded quarter
k0, k1 >= 0 alone, side//2 + 1 momenta per axis: one real inverse
transform per axis, the first cut to rows 0..side//2, each run along the
contiguous axis a block of lines at a time (_half_synthesis); row x past
side//2 is a copy of row side - x (folded_table).  The decomposition's
windows of real bands take the same two transforms, cut to the window, fed
blocks of rows of the band's symmetric quarter unpacked from its packed
triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DIRS",
    "TorusLattice",
    "laplacian_symbol",
    "folded_table",
    "yukawa_table",
    "normalized_potential_table",
]


# the four signed unit vectors, indexed by direction d = 0..3; d and d + 2
# point along the same axis with opposite signs
DIRS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _int_log(side: int, base: int) -> int | None:
    """Exponent e with base**e == side, or None."""
    e, v = 0, 1
    while v < side:
        v *= base
        e += 1
    return e if v == side else None


@dataclass(frozen=True)
class TorusLattice:
    """Square periodic lattice of side L**R with fine-scale base gamma.

    gamma**M == L is required so the decomposition can run on fine scales
    gamma**h, h = 0 .. M*R - 1.  m is the Yukawa mass (0 allowed; the
    massless potential then only exists in zero-mode-subtracted form).
    """

    L: int
    R: int
    gamma: int = 3
    m: float = 0.0
    M: int = field(init=False)
    side: int = field(init=False)

    def __post_init__(self):
        if self.L % 2 == 0 or self.L <= 1:
            raise ValueError(f"L must be odd and > 1, got {self.L}")
        if self.R < 1:
            raise ValueError(f"R must be >= 1, got {self.R}")
        if self.gamma % 2 == 0 or self.gamma < 3:
            raise ValueError(f"gamma must be odd and >= 3, got {self.gamma}")
        if not (math.isfinite(self.m) and self.m >= 0):
            raise ValueError(f"m must be finite and >= 0, got {self.m}")
        M = _int_log(self.L, self.gamma)
        if M is None:
            raise ValueError(f"gamma**M = L has no integer solution for gamma={self.gamma}, L={self.L}")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "side", self.L**self.R)

    @property
    def n_sites(self) -> int:
        return self.side**2

    @property
    def n_fine_scales(self) -> int:
        """Total number of fine scales gamma^h below the torus size."""
        return self.M * self.R

    def momenta(self) -> np.ndarray:
        """1D momentum grid 2*pi*fftfreq(side): n = 0..(side-1)/2, then -(side-1)/2..-1.

        The FFT order of the torus momenta, centered on 0 so that
        k[side-n] == -k[n] exactly.
        """
        return 2.0 * np.pi * np.fft.fftfreq(self.side)


def laplacian_symbol(k0: np.ndarray, k1: np.ndarray) -> np.ndarray:
    """-Delta hat: 4 sin^2(k0/2) + 4 sin^2(k1/2), broadcasting over the grid.

    Each term is accurate to a few ulp down to k = 0, where 1 - cos k
    cancels, and the sum of the two terms is exactly symmetric under
    k0 <-> k1.
    """
    return 4.0 * np.sin(0.5 * k0) ** 2 + 4.0 * np.sin(0.5 * k1) ** 2


# lines per block of the real synthesis: a block holds its transposed input
# (SYNTHESIS_BLOCK x (S//2 + 1) reals), that input as complex numbers and the
# transform's output (SYNTHESIS_BLOCK x S reals), about 20 * SYNTHESIS_BLOCK * S
# bytes in all (1.4 MB at S = 2187, tracemalloc)
SYNTHESIS_BLOCK = 32


def _half_synthesis(G, rows: int, cols: int, out: np.ndarray | None = None, n: int | None = None) -> np.ndarray:
    """T[x0, x1], 0 <= x0 < rows, 0 <= x1 < cols, of the inverse FFT of the even array G.

    G is the folded quarter, n = S//2 + 1 entries per axis, of a real
    spectral array on an odd S x S grid even in each momentum component.
    Each folded axis is then the half spectrum of a real transform, so one
    irfft per axis gives the table: first over k0, cut to its leading rows,
    then over k1, cut to its leading columns.  Both run along the
    contiguous axis, on a transposed copy of one block of SYNTHESIS_BLOCK
    lines at a time, so besides out the synthesis holds only the first
    transform's n x rows result and one block (about 20 * SYNTHESIS_BLOCK
    * S bytes).  Each lane is the same one-dimensional transform as along a
    strided axis, so the values are those of
    irfft(irfft(G, n=S, axis=0)[:rows], n=S, axis=1)[:, :cols], bit for
    bit.  The table goes to out (rows x cols) when given.

    G may instead be a function, with n given: G(s, e) returns the block
    G[:, s:e].T of the first transform as a new C-contiguous (e - s) x n
    array.  A G symmetric under k0 <-> k1 hands out its rows s..e-1, so a
    quarter stored packed (a band on its triangle) is never unpacked whole.
    """
    if n is None:
        n = G.shape[0]

        def lines(s: int, e: int) -> np.ndarray:
            return G[:, s:e].T.copy()
    else:
        lines = G
    S = 2 * n - 1
    B = np.empty((n, rows))  # B[k1, x0]
    for s in range(0, n, SYNTHESIS_BLOCK):
        B[s : s + SYNTHESIS_BLOCK] = np.fft.irfft(lines(s, min(s + SYNTHESIS_BLOCK, n)), n=S)[:, :rows]
    if out is None:
        out = np.empty((rows, cols))
    for s in range(0, rows, SYNTHESIS_BLOCK):
        out[s : s + SYNTHESIS_BLOCK] = np.fft.irfft(B[:, s : s + SYNTHESIS_BLOCK].T.copy(), n=S)[:, :cols]
    return out


def folded_table(G: np.ndarray) -> np.ndarray:
    """Full S x S inverse FFT of the even array G given on its folded quarter.

    G[k0, k1], 0 <= k0, k1 <= S//2, holds the momenta 2 pi k / S >= 0 of an
    odd S x S grid (S = 2 len(G) - 1).  The table is even in each
    coordinate: rows 0..S//2 are synthesized into the table, and row x
    past them is a copy of row S - x.
    """
    n = G.shape[0]
    S = 2 * n - 1
    out = np.empty((S, S))
    _half_synthesis(G, n, S, out[:n])
    out[n:] = out[n - 1 : 0 : -1]
    return out


def _quarter_symbol(lattice: TorusLattice) -> np.ndarray:
    """lam on the folded quarter of the torus momenta, k0, k1 >= 0."""
    k = lattice.momenta()[: lattice.side // 2 + 1]
    return laplacian_symbol(k[:, None], k[None, :])


def yukawa_table(lattice: TorusLattice) -> np.ndarray:
    """Full table of W(x; m) = |L|^-1 sum_k e^{ikx} / (m^2 + lam(k)), m > 0.

    Returned as an array indexed by (x0 mod side, x1 mod side).
    """
    if lattice.m <= 0:
        raise ValueError("massless torus potential has a zero mode; use normalized_potential_table")
    return folded_table(1.0 / (lattice.m**2 + _quarter_symbol(lattice)))


def normalized_potential_table(lattice: TorusLattice) -> np.ndarray:
    """Table of W(x|0) = |L|^-1 sum_{k!=0} (e^{ikx} - 1)/lam(k).

    The m -> 0 limit of W(x;m) - W(0;m); W(0|0) = 0 by construction.
    """
    sym = _quarter_symbol(lattice)
    g = np.zeros_like(sym)
    mask = sym > 0
    g[mask] = 1.0 / sym[mask]
    w = folded_table(g)
    return w - w[0, 0]
