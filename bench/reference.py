"""Reference values the benchmark computes apart from the program.

Nothing here imports ktrg: each function recomputes, by a plain method of
its own, a quantity that a workload's check compares against the program's
output.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _connected(cells) -> bool:
    cells = set(cells)
    start = next(iter(cells))
    seen = {start}
    todo = [start]
    while todo:
        c = todo.pop()
        for d in _STEPS:
            n = (c[0] + d[0], c[1] + d[1])
            if n in cells and n not in seen:
                seen.add(n)
                todo.append(n)
    return len(seen) == len(cells)


def fixed_polyominoes(max_size: int) -> dict[int, list[frozenset]]:
    """Fixed polyominoes by size, as translation classes of connected subsets.

    Every polyomino of n cells fits an n x n box, so brute force over the
    subsets of that box finds each shape; normalizing to the box corner
    identifies translates.
    """
    out = {}
    for n in range(1, max_size + 1):
        box = [(a, b) for a in range(n) for b in range(n)]
        shapes = set()
        for sub in itertools.combinations(box, n):
            if _connected(sub):
                m0 = min(c[0] for c in sub)
                m1 = min(c[1] for c in sub)
                shapes.add(frozenset((c[0] - m0, c[1] - m1) for c in sub))
        out[n] = sorted(shapes, key=sorted)
    return out


def k_small_reference(A: float, lam: float, L: int, shapes: dict[int, list[frozenset]]) -> float:
    """k_s of one coarse block: A * sum over small connected Y in its L x L
    fine blocks of (lam A)^-|Y|; a shape of width w and height h has
    (L - w + 1)(L - h + 1) placements."""
    tot = 0.0
    for n, shs in shapes.items():
        count = 0
        for sh in shs:
            w = max(c[0] for c in sh) + 1
            h = max(c[1] for c in sh) + 1
            if w <= L and h <= L:
                count += (L - w + 1) * (L - h + 1)
        tot += count * (lam * A) ** (-n)
    return A * tot


def normalized_potential(side: int) -> np.ndarray:
    """W(x|0) = side^-2 sum_{k != 0} (cos(k.x) - 1) / lam(k), by the explicit
    double sum over momenta (no FFT)."""
    k = 2.0 * np.pi * np.arange(side) / side
    lam = 4.0 - 2.0 * np.cos(k)[:, None] - 2.0 * np.cos(k)[None, :]
    inv = np.zeros_like(lam)
    inv[lam > 0] = 1.0 / lam[lam > 0]
    x = np.arange(side)
    c = np.cos(np.outer(x, k))
    s = np.sin(np.outer(x, k))
    # cos(k0 x0 + k1 x1) = c0 c1 - s0 s1, summed against inv(k0, k1)
    re = c @ inv @ c.T - s @ inv @ s.T
    return (re - inv.sum()) / side**2


def neutral_pair_coefficient(side: int, beta: float) -> float:
    """z^2 coefficient of the neutral partition sum at m = 0.

    The neutral two-particle configurations are (+, -) and (-, +) at any
    two sites; each has energy -W(x1 - x2|0).  Summing 2 side^2 sum_x
    e^{beta W(x|0)} and dividing by 2! leaves side^2 sum_x e^{beta W(x|0)}.
    """
    W = normalized_potential(side)
    return side**2 * float(np.sum(np.exp(beta * W)))


def _centered(side: int) -> np.ndarray:
    c = np.arange(side)
    return np.where(c <= (side - 1) // 2, c, c - side).astype(float)


def _grad(t: np.ndarray, axis: int) -> np.ndarray:
    """Forward difference f(y + e_axis) - f(y) on the torus."""
    return np.roll(t, -1, axis=axis) - t


def coeff_a_literal(tables, j: int, L: int, alpha_sq: float) -> float:
    """a_j as the literal position sum over full torus tables Gamma_0..Gamma_j.

    a_j = (a2/2) sum_y |y|^2 [w_b(y) (e^{-a2 (Gamma_j(0) - Gamma_j(y))} - 1)
          + e^{-a2 Gamma_j(0)} (e^{a2 Gamma_j(y)} - 1) L^{-4j}],
    w_b(y) = sum_{n<j} e^{-a2 sum_{n<m<j} (Gamma_m(0) - Gamma_m(y))}
             e^{-a2 Gamma_n(0)} (e^{a2 Gamma_n(y)} - 1) L^{-4n}.
    """
    side = tables[0].shape[0]
    y = _centered(side)
    y_sq = (y**2)[:, None] + (y**2)[None, :]
    g0 = [float(t[0, 0]) for t in tables]
    wb = np.zeros((side, side))
    for n in range(j):
        gap = np.zeros((side, side))
        for m in range(n + 1, j):
            gap += g0[m] - tables[m]
        wb += np.exp(-alpha_sq * gap) * math.exp(-alpha_sq * g0[n]) * np.expm1(alpha_sq * tables[n]) * float(L) ** (-4 * n)
    first = wb * np.expm1(-alpha_sq * (g0[j] - tables[j]))
    second = math.exp(-alpha_sq * g0[j]) * np.expm1(alpha_sq * tables[j]) * float(L) ** (-4 * j)
    # outside the kernels' finite range both terms vanish in exact arithmetic;
    # summing only where any table is above rounding keeps FFT noise out
    support = np.zeros((side, side), dtype=bool)
    for t in tables[: j + 1]:
        support |= np.abs(t) > 1e-13 * abs(float(t[0, 0]))
    return 0.5 * alpha_sq * float(np.sum((y_sq * (first + second))[support]))


def coeff_b_literal(tables, j: int, L: int, alpha_sq: float) -> float:
    """b_j as literal gradient-correlation sums over full torus tables.

    b_j = (a2/2) [P(j, j) + 2 sum_{n<j} e^{-(a2/2) sum_{n<=m<j} Gamma_m(0)} L^{2(j-n)} P(n, j)],
    P(n, j) = sum_y sum_{axis} (grad Gamma_n)(y) (grad Gamma_j)(y): half the
    sum over the four signed directions, which give equal sums in pairs.
    """
    g0 = [float(t[0, 0]) for t in tables]

    def pair(n: int) -> float:
        return sum(float(np.sum(_grad(tables[n], ax) * _grad(tables[j], ax))) for ax in (0, 1))

    total = pair(j)
    for n in range(j):
        fac = math.exp(-0.5 * alpha_sq * sum(g0[n:j])) * float(L) ** (2 * (j - n))
        total += 2.0 * fac * pair(n)
    return 0.5 * alpha_sq * total
