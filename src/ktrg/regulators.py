"""Field regulators on polymers: ln G and ln G^str from scaled lattice norms.

The norms inside the two log regulators carry powers of L^j so their sizes
stay O(1) on fields with typical scale-j variation; direction sums over the
four signed unit vectors carry the usual factor 1/2.

Each log regulator differences its field once, into a first- and a
second-difference stack; site masks, block maxima and block neighbourhoods
are read through flat index tables built once per paving.  The sums and
maxima see the same values in the same order as a direction-by-direction,
site-by-site evaluation, so every result is the same to the bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lattice import DIRS
from .polymers import _STAR, BlockPaving, Polymer

__all__ = [
    "FieldOnTorus",
    "RegulatorConstants",
    "log_field_regulator",
    "log_strong_regulator",
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


@dataclass(frozen=True)
class RegulatorConstants:
    c1: float = 5.0
    c3: float = 1.0

    def __post_init__(self):
        for name in ("c1", "c3"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")

    def kappa(self, L: int) -> float:
        """kappa_L = 0.1 / ln L."""
        if L < 2:
            raise ValueError(f"L must be >= 2, got {L}")
        return 0.1 / math.log(L)


# ---------------------------------------------------------------------------
# per-paving site tables and per-call difference stacks


class _SiteTables(NamedTuple):
    """Flat-index tables of one paving (sites x0 * side + x1, blocks b0 * n_axis + b1)."""

    neighbours: np.ndarray  # (4, side^2): the neighbour of each site along DIRS[d]
    site_block: np.ndarray  # (side, side): the block of each site (`BlockPaving.block_of`)
    block_sites: np.ndarray  # (n_axis^2, block_side^2): the sites of each block
    star: np.ndarray  # (n_axis^2, 25): the blocks of each block's neighbourhood B*


@functools.lru_cache(maxsize=8)
def _site_tables(pav: BlockPaving) -> _SiteTables:
    s, b, n = pav.side, pav.block_side, pav.n_axis
    x = np.arange(s)
    neighbours = np.stack([(x[:, None] + s0) % s * s + (x[None, :] + s1) % s for s0, s1 in DIRS]).reshape(4, -1)
    centered = (x + (s - 1) // 2) % s - (s - 1) // 2
    axis_block = (centered + (b - 1) // 2) // b % n
    site_block = axis_block[:, None] * n + axis_block[None, :]
    block_sites = np.argsort(site_block, axis=None, kind="stable").reshape(n * n, b * b)
    d0, d1 = np.array(_STAR).T
    b0, b1 = np.divmod(np.arange(n * n), n)
    star = (b0[:, None] + d0) % n * n + (b1[:, None] + d1) % n
    tables = _SiteTables(neighbours, site_block, block_sites, star)
    for t in tables:
        t.flags.writeable = False
    return tables


def _differences(phi: FieldOnTorus, pav: BlockPaving) -> list[np.ndarray]:
    """The signed differences of phi of orders 1 and 2, (4, side, side) and (16, side, side) stacks.

    Row (d1, ..., dk), in row-major order over the directions of DIRS, is
    the k-fold difference: each step is exactly neighbour - value of the
    previous order's array.
    """
    if phi.side != pav.side:
        raise ValueError(f"field side {phi.side} does not match the paving side {pav.side}")
    nbrs = _site_tables(pav).neighbours
    a = phi.values.reshape(1, -1)
    d1 = (a[:, nbrs] - a[:, None, :]).reshape(4, -1)
    d2 = (d1[:, nbrs] - d1[:, None, :]).reshape(16, -1)
    return [d.reshape(-1, phi.side, phi.side) for d in (d1, d2)]


def _site_mask(X: Polymer) -> np.ndarray:
    """The sites of X's blocks: its block mask indexed through the site->block map."""
    pav = X.paving
    n = pav.n_axis
    blocks = np.zeros(n * n, dtype=bool)
    blocks[[b0 * n + b1 for b0, b1 in X.blocks]] = True
    return blocks[_site_tables(pav).site_block]


def _boundary_mask(inside: np.ndarray, pav: BlockPaving) -> np.ndarray:
    """Sites of the mask with a neighbour outside it."""
    flat = inside.ravel()
    return inside & ~flat[_site_tables(pav).neighbours].all(axis=0).reshape(inside.shape)


def _l2(stack: np.ndarray, mask: np.ndarray) -> float:
    """sum over directions of 1/2 sum_mask |d phi|^2, direction by direction."""
    tot = 0.0
    for row in stack:
        tot += 0.5 * float(np.sum(row[mask] ** 2))
    return tot


def _grad_l2(stack: np.ndarray, inside: np.ndarray, j: int, L: int) -> float:
    return float(L ** (-2 * j)) * (L ** (2 * j)) * _l2(stack, inside)


def _boundary_l2(stack: np.ndarray, inside: np.ndarray, pav: BlockPaving, j: int, L: int) -> float:
    return float(L ** (-j)) * (L ** (2 * j)) * _l2(stack, _boundary_mask(inside, pav))


def _star_sups(stack: np.ndarray, X: Polymer) -> list[float]:
    """sup over B* of |stack| for each block B of X, in X.blocks order.

    The site maxima over directions are reduced to block maxima, and those
    to the maxima over each block's neighbourhood.
    """
    pav = X.paving
    n = pav.n_axis
    tables = _site_tables(pav)
    blocks = np.abs(stack).max(axis=0).ravel()[tables.block_sites].max(axis=1)
    return [float(m) for m in blocks[tables.star[[b0 * n + b1 for b0, b1 in X.blocks]]].max(axis=1)]


# ---------------------------------------------------------------------------
# norms and regulators


def _w_block(d2: np.ndarray, X: Polymer, j: int, L: int) -> float:
    """W_j(nabla^2 phi, X)^2 = sum over blocks of sup_{B*} ||nabla^2_j phi||^2."""
    tot = 0.0
    for m in _star_sups(d2, X):
        tot += (L ** (2 * j) * m) ** 2
    return tot


def log_field_regulator(phi: FieldOnTorus, X: Polymer, consts: RegulatorConstants) -> float:
    """ln G_j(phi, X) per the gradient + boundary + block-sup composition."""
    pav = X.paving
    j, L = pav.j, pav.L
    kap = consts.kappa(L)
    d1, d2 = _differences(phi, pav)
    inside = _site_mask(X)
    return (
        consts.c1 * kap * _grad_l2(d1, inside, j, L)
        + consts.c3 * kap * _boundary_l2(d1, inside, pav, j, L)
        + consts.c1 * kap * _w_block(d2, X, j, L)
    )


def log_strong_regulator(phi: FieldOnTorus, X: Polymer, consts: RegulatorConstants = RegulatorConstants()) -> float:
    """ln G^str_j(phi, X): per-block sup norms, product over blocks."""
    pav = X.paving
    j, L = pav.j, pav.L
    kap = consts.kappa(L)
    d1, d2 = _differences(phi, pav)
    tot = 0.0
    for m1, m2 in zip(_star_sups(d1, X), _star_sups(d2, X)):
        m = max((L**j) * m1, (L ** (2 * j)) * m2)
        tot += kap * m * m
    return tot

