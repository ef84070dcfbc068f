"""Field regulators on polymers: scaled lattice norms and the two G weights.

Norms carry powers of L^j so their sizes stay O(1) on fields with typical
scale-j variation; direction sums over the four signed unit vectors carry
the usual factor 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import DIRS
from .polymers import Polymer, neighborhood

__all__ = [
    "FieldOnTorus",
    "RegulatorConstants",
    "grad_sup_norm",
    "grad_l2_norm",
    "boundary_l2_norm",
    "w_block_norm_sq",
    "log_field_regulator",
    "field_regulator",
    "log_strong_regulator",
    "strong_regulator",
]

@dataclass(frozen=True)
class FieldOnTorus:
    """Real field on the side^2 torus; values indexed [x0 % side, x1 % side]."""

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("field must be a square array")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")

    @property
    def side(self) -> int:
        return self.values.shape[0]

    def diff(self, d: int) -> np.ndarray:
        """Forward difference along the signed direction d."""
        s0, s1 = DIRS[d]
        return np.roll(self.values, (-s0, -s1), axis=(0, 1)) - self.values


@dataclass(frozen=True)
class RegulatorConstants:
    c1: float = 5.0
    c3: float = 1.0
    kappa_L: float | None = None  # default c_kap / ln L
    c_kap: float = 0.1

    def kappa(self, L: int) -> float:
        if self.kappa_L is not None:
            return self.kappa_L
        return self.c_kap / math.log(L)


def _diffs(phi: FieldOnTorus, order: int):
    """All signed difference combinations of the given order."""
    if order == 1:
        return [(d,) for d in range(4)]
    return [(d1, d2) for d1 in range(4) for d2 in range(4)]


def _apply_diffs(phi: FieldOnTorus, dirs) -> np.ndarray:
    out = phi.values
    for d in dirs:
        s0, s1 = DIRS[d]
        out = np.roll(out, (-s0, -s1), axis=(0, 1)) - out
    return out


def _site_mask(X: Polymer, phi: FieldOnTorus | None = None) -> np.ndarray:
    pav = X.paving
    side = pav.side
    if phi is not None and phi.side != side:
        raise ValueError(f"field side {phi.side} does not match the paving side {side}")
    mask = np.zeros((side, side), dtype=bool)
    for blk in X.blocks:
        for (c0, c1) in pav.sites_of(blk):
            mask[c0 % side, c1 % side] = True
    return mask


def _boundary_mask(X: Polymer) -> np.ndarray:
    inside = _site_mask(X)
    out = np.zeros_like(inside)
    for s0, s1 in DIRS:
        out |= inside & ~np.roll(inside, (s0, s1), axis=(0, 1))
    return out


def grad_sup_norm(phi: FieldOnTorus, X: Polymer, n: int, j: int, L: int, star: bool = True) -> float:
    """||nabla^n_j phi||_{L_inf(X* or X)} = max over dirs and sites of L^{nj}|d..d phi|."""
    region = neighborhood(X) if star else X
    mask = _site_mask(region, phi)
    best = 0.0
    for dirs in _diffs(phi, n):
        vals = np.abs(_apply_diffs(phi, dirs)[mask])
        if vals.size:
            best = max(best, float(vals.max()))
    return (L ** (n * j)) * best


def grad_l2_norm(phi: FieldOnTorus, X: Polymer, n: int, j: int, L: int) -> float:
    """||nabla^n_j phi||^2_{L^2_j(X)} with the 1/2-per-direction convention."""
    mask = _site_mask(X, phi)
    tot = 0.0
    for dirs in _diffs(phi, n):
        tot += 0.5 ** len(dirs) * float(np.sum(_apply_diffs(phi, dirs)[mask] ** 2))
    return float(L ** (-2 * j)) * (L ** (2 * n * j)) * tot


def boundary_l2_norm(phi: FieldOnTorus, X: Polymer, n: int, j: int, L: int) -> float:
    """Same norm over the inner boundary sites, weighted L^-j."""
    mask = _boundary_mask(X)
    tot = 0.0
    for dirs in _diffs(phi, n):
        tot += 0.5 ** len(dirs) * float(np.sum(_apply_diffs(phi, dirs)[mask] ** 2))
    return float(L ** (-j)) * (L ** (2 * n * j)) * tot


def w_block_norm_sq(phi: FieldOnTorus, X: Polymer, j: int, L: int) -> float:
    """W_j(nabla^2 phi, X)^2 = sum over blocks of sup_{B*} ||nabla^2_j phi||^2."""
    pav = X.paving
    tot = 0.0
    for blk in X.blocks:
        B = Polymer(pav, frozenset([blk]))
        tot += grad_sup_norm(phi, B, 2, j, L, star=True) ** 2
    return tot


def log_field_regulator(phi: FieldOnTorus, X: Polymer, consts: RegulatorConstants) -> float:
    """ln G_j(phi, X) per the gradient + boundary + block-sup composition."""
    pav = X.paving
    j, L = pav.j, pav.L
    kap = consts.kappa(L)
    return (
        consts.c1 * kap * grad_l2_norm(phi, X, 1, j, L)
        + consts.c3 * kap * boundary_l2_norm(phi, X, 1, j, L)
        + consts.c1 * kap * w_block_norm_sq(phi, X, j, L)
    )


def field_regulator(phi: FieldOnTorus, X: Polymer, consts: RegulatorConstants = RegulatorConstants()) -> float:
    ln = log_field_regulator(phi, X, consts)
    return math.exp(ln) if ln < 709.0 else math.inf


def log_strong_regulator(phi: FieldOnTorus, X: Polymer, consts: RegulatorConstants = RegulatorConstants()) -> float:
    """ln G^str_j(phi, X): per-block sup norms, product over blocks."""
    pav = X.paving
    j, L = pav.j, pav.L
    kap = consts.kappa(L)
    tot = 0.0
    for blk in X.blocks:
        B = Polymer(pav, frozenset([blk]))
        m = max(grad_sup_norm(phi, B, 1, j, L), grad_sup_norm(phi, B, 2, j, L))
        tot += kap * m * m
    return tot


def strong_regulator(phi: FieldOnTorus, X: Polymer, consts: RegulatorConstants = RegulatorConstants()) -> float:
    ln = log_strong_regulator(phi, X, consts)
    return math.exp(ln) if ln < 709.0 else math.inf
