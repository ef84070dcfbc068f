"""Periodic 2D lattice, torus Yukawa/Coulomb potentials.

The torus is a square of side L^R sites with periodic boundary conditions,
L odd and > 1.  Momentum space is the dual grid k = 2*pi*n/side and the
lattice Laplacian symbol is lam(k) = 4 - 2cos(k0) - 2cos(k1) in [0, 8].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DIRS",
    "TorusLattice",
    "laplacian_symbol",
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
        """1D momentum grid 2*pi*n/side, n = 0..side-1."""
        return 2.0 * np.pi * np.arange(self.side) / self.side

    def reduce(self, x) -> tuple[int, int]:
        """Reduce a lattice point to the centered fundamental domain."""
        s, h = self.side, (self.side - 1) // 2
        return ((x[0] + h) % s - h, (x[1] + h) % s - h)


def laplacian_symbol(k0: np.ndarray, k1: np.ndarray) -> np.ndarray:
    """-Delta hat: 4 - 2cos(k0) - 2cos(k1), broadcasting over the grid."""
    return 4.0 - 2.0 * np.cos(k0) - 2.0 * np.cos(k1)


def _symbol_grid(lattice: TorusLattice) -> np.ndarray:
    k = lattice.momenta()
    return laplacian_symbol(k[:, None], k[None, :])


def yukawa_table(lattice: TorusLattice) -> np.ndarray:
    """Full table of W(x; m) = |L|^-1 sum_k e^{ikx} / (m^2 + lam(k)), m > 0.

    Returned as an array indexed by (x0 mod side, x1 mod side).
    """
    if lattice.m <= 0:
        raise ValueError("massless torus potential has a zero mode; use normalized_potential_table")
    sym = 1.0 / (lattice.m**2 + _symbol_grid(lattice))
    return np.fft.ifft2(sym).real


def normalized_potential_table(lattice: TorusLattice) -> np.ndarray:
    """Table of W(x|0) = |L|^-1 sum_{k!=0} (e^{ikx} - 1)/lam(k).

    The m -> 0 limit of W(x;m) - W(0;m); W(0|0) = 0 by construction.
    """
    sym = _symbol_grid(lattice)
    g = np.zeros_like(sym)
    mask = sym > 0
    g[mask] = 1.0 / sym[mask]
    w = np.fft.ifft2(g).real
    return w - w[0, 0]
