"""Scale-dependent second-order RG data: a_j, b_j and the energy coefficients.

All quantities are sums over y in Z^2 of products of per-scale covariance
kernels and their lattice differences.  Every summand is compactly
supported (the kernels have exact finite range), so the sums are finite.
Each single-scale term is evaluated on the stack's spectral grid of its
scale (CovarianceStack.grid): scale-n factors vary on length gamma^(nM),
sampled with 3^5 points per length and alias-certified by the grid's ring
probe; grids are step 1 (exact sums) whenever the support is small enough.
Sums quadratic in the kernels (b_j, e3_j) and second differences at the
origin (e2_j, e4_j) are Parseval sums on the scale-j grid, whose period
exceeds twice the support; they run on the triangle p1 <= p0 of its
folded grid, where the bands are stored, so every symbol in them is
symmetric under p0 <-> p1.  The sums of b_j and e3_j, which pair psi_j with
psi_n for every n <= j, are summed by the scale-j grid's band pass as it
evaluates the bands (lam_sums, lam2_sums), so the grid keeps psi_j alone;
Gamma_j(0) and the second differences of e2_j and e4_j are parseval sums
against that band.

The position sums of a_j and e4_j run on the quarter z0, z1 >= 0 of each
scale's window (CovarianceStack.kernel): every kernel Gamma_j and every
summand is even in each coordinate, so a full-window sum is m @ F @ m with
the multiplicities m = (1, 2, 2, ...) (SpectralGrid.window_sum), and the
|y|^2 moments of a_j separate, |y|^2 = y0^2 + y1^2, into two products of
F with a vector (SpectralGrid.window_moment).  The y0 y1 cross term of
the e4 Taylor subtraction is odd in each coordinate, sums to zero over the
window and is dropped (its coefficient is exactly 0 anyway).

Direction sums follow the convention that a sum over the four signed unit
vectors carries a factor 1/2.  Euclidean |y|^2 is used in the second-moment
sums; the max norm only enters geometry/support statements.

Out of numeric scope here: the energy feed e1_j and the flow feeds F_j, M_j
depend on the full polymer activity, a function-space object.  The flow
carries only the per-scale a_j, b_j and volume factors computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import CovarianceStack
from .lattice import DIRS

__all__ = [
    "RgCoefficients",
    "coeff_a",
    "coeff_b",
    "energy_coeffs",
    "volume_factor",
    "limit_constants",
    "compute_coefficients",
    "flow_config",
    "coefficients_csv",
]

ALPHA_SQ_KT = 8.0 * math.pi


def _check_scale(stack: CovarianceStack, j: int):
    if not (1 <= j <= stack.n_scales - 1):
        raise ValueError(f"scale {j} outside 1..{stack.n_scales - 1}")


def _guard_exp(x: np.ndarray, n: int):
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(f"overflow in covariance exponential at scale term n={n}")
    return x


# ---------------------------------------------------------------------------
# scalar coefficients


def _w_b_term(stack: CovarianceStack, j: int, n: int, a2: float) -> np.ndarray:
    """Scale-n term of w_{b,j} on the quarter window of the scale-n grid."""
    pref = stack.prefix_diag(j - 1, n + 1) - sum(stack.kernel(m, n) for m in range(n + 1, j))
    wb_n = (np.exp(-a2 * pref) * math.exp(-a2 * stack.gamma0(n)) * np.expm1(a2 * stack.kernel(n, n))
            * float(stack.lattice.L) ** (-4 * n))
    return _guard_exp(wb_n, n)


def _origin_bracket(stack: CovarianceStack, j: int, n: int, a2: float) -> np.ndarray:
    """expm1(-a2 (Gamma_j(0) - Gamma_j(y))) on the quarter window of the scale-n grid.

    Gamma_j(0) is the origin entry [0, 0] of the same kernel array, so the
    bracket vanishes exactly at y = 0 instead of carrying the rounding gap
    between two sums.
    """
    K = stack.kernel(j, n)
    out = K[0, 0] - K
    out *= -a2
    return np.expm1(out, out=out)


def coeff_a(stack: CovarianceStack, j: int, alpha_sq: float = ALPHA_SQ_KT) -> float:
    """a_j = (alpha^2/2) sum_y |y|^2 [w_b (e^{-a2 Gamma_j(0|y)} - 1)
    + e^{-a2 Gamma_j(0)} (e^{a2 Gamma_j(y)} - 1) L^{-4j}]."""
    _check_scale(stack, j)
    a2 = alpha_sq
    L = float(stack.lattice.L)
    g0j = stack.gamma0(j)

    total = 0.0
    # first sum, term by term in the w_b scale index n, each on the scale-n grid
    for n in range(j):
        g = stack.grid(n)
        F = _w_b_term(stack, j, n, a2)
        F *= _origin_bracket(stack, j, n, a2)
        total += g.window_moment(F)
    # second sum on the scale-j grid
    g = stack.grid(j)
    term2 = a2 * stack.kernel(j, j)
    np.expm1(term2, out=term2)
    term2 *= math.exp(-a2 * g0j)
    term2 *= L ** (-4 * j)
    _guard_exp(term2, j)
    total += g.window_moment(term2)
    return 0.5 * a2 * total


def coeff_b(stack: CovarianceStack, j: int, alpha_sq: float = ALPHA_SQ_KT) -> float:
    """b_j per the second-order gradient sums (directions carry the 1/2).

    The gradient correlations are quadratic in the kernels, so the y-sums
    are evaluated as exact Parseval integrals: the half-weighted sum over
    the four signed directions of |e^{i p_mu} - 1|^2 is the Laplacian
    symbol itself.  The sums of lam psi_n psi_j, n <= j, are the scale-j
    grid's lam_sums, summed by its band pass.
    """
    _check_scale(stack, j)
    a2 = alpha_sq
    L = float(stack.lattice.L)
    sums = stack.grid(j).lam_sums
    total = sums[j]
    for n in range(j):
        fac = math.exp(-0.5 * a2 * stack.prefix_diag(j - 1, n)) * L ** (2 * (j - n))
        total += 2.0 * fac * sums[n]
    return 0.5 * a2 * total


def _cos_gaps(g) -> np.ndarray:
    """c(p) = 2 sin^2(p/2) = 1 - cos p along the folded axis of grid g.

    The sine form keeps full relative accuracy as p -> 0, where 1 - cos p
    cancels.
    """
    return 2.0 * np.sin(0.5 * g.p_fold) ** 2


def _dd_at_zero(stack: CovarianceStack, j: int) -> np.ndarray:
    """(d^mu d^nu Gamma_j)(0) for the signed directions mu, nu = 0..3.

    Each entry is one Parseval sum of the band against the real part of
    the two difference symbols, in closed form with c = 2 sin^2(p/2): on
    one axis -2 cos(p) c for equal signs and 2c for opposite ones, across
    the axes c0 c1 (the sin p0 sin p1 part is odd and integrates to zero).
    The band is symmetric under p0 <-> p1, so a one-axis symbol f(p_a)
    sums like (f(p0) + f(p1))/2, the symmetric integrand that a sum over
    the triangle needs; the two axes then share each entry, and three sums
    fill the tensor.
    """
    g = stack.grid(j)
    G = g.psi
    c = _cos_gaps(g)
    same = g.parseval(G, g.outer(np.add, -np.cos(g.p_fold) * c))  # f = -2 cos(p) c
    opposite = g.parseval(G, g.outer(np.add, c))  # f = 2c
    dd = np.full((4, 4), g.parseval(G, g.outer(np.multiply, c)))
    for mu in range(4):
        for nu in range(mu % 2, 4, 2):
            dd[mu, nu] = same if mu == nu else opposite
    return dd


def _taylor_quad(dd_tensor: np.ndarray, y: np.ndarray) -> np.ndarray:
    """0.25 sum_{mu nu} dd[mu, nu] y_mu y_nu over the quarter window y x y, y_mu = DIRS[mu] . y.

    That is the 2x2 form Q = 0.25 D^T dd D in the two axes, D the rows of
    DIRS, without its cross term: y0 y1 is odd in each coordinate and sums
    to zero over the symmetric window, and its coefficient Q01 + Q10 is
    exactly 0 anyway (all cross-axis entries of dd are one Parseval sum).
    """
    D = np.array(DIRS, dtype=float)
    Q = 0.25 * D.T @ dd_tensor @ D
    y2 = y**2
    return Q[0, 0] * y2[:, None] + Q[1, 1] * y2[None, :]


def energy_coeffs(stack: CovarianceStack, j: int, alpha_sq: float = ALPHA_SQ_KT) -> tuple[float, float, float]:
    """(e2, e3, e4) at scale j, per the second-order energy extraction."""
    _check_scale(stack, j)
    a2 = alpha_sq
    L = float(stack.lattice.L)
    L2j = L ** (2 * j)
    g = stack.grid(j)
    dd_tensor = _dd_at_zero(stack, j)
    # e2 = -(L^2j / 2) * (1/2) sum_{4 dirs} (d^mu d^mu Gamma_j)(0)
    e2 = -(L2j / 2.0) * 0.5 * sum(dd_tensor[mu, mu] for mu in range(4))

    # e3 = (L^2j / 4) sum_y sum_{mu nu in e^2} [dd Gamma_{j,0} + 2 dd Gamma_{j-1,0}](y)
    #      * (dd Gamma_j)(y|0).  The two direction sums carry (1/2)^2 and the
    #      sign flips collapse onto forward axis pairs by evenness; the
    #      constant (dd Gamma_j)(0) drops because sum_y dd Gamma_m = 0
    #      exactly (vanishing symbol at p = 0), leaving pure quadratic
    #      correlations evaluated by Parseval.  The symbol of a forward axis
    #      pair (a, b) is |e^{i p_a} - 1|^2 |e^{i p_b} - 1|^2 = 2c_a 2c_b, so
    #      the four sum to (2c_0 + 2c_1)^2 = lam^2, and the sums of
    #      lam^2 psi_m psi_j, m <= j, are the grid's lam2_sums.
    sums = g.lam2_sums
    e3 = sums[j]
    for m in range(j):
        e3 += 3.0 * sums[m]
    e3 *= L2j / 4.0

    # e4: Taylor-subtracted w_b moment plus the single-scale pressure term
    e4 = 0.0
    for n in range(j):
        gn = stack.grid(n)
        bracket = _origin_bracket(stack, j, n, a2) - 0.5 * a2 * _taylor_quad(dd_tensor, gn.y)
        e4 += 2.0 * L2j * gn.window_sum(_w_b_term(stack, j, n, a2), bracket)
    term2 = a2 * stack.kernel(j, j)
    np.expm1(term2, out=term2)
    term2 *= math.exp(-a2 * stack.gamma0(j))
    e4 += L ** (-2 * j) * g.window_sum(term2)
    return float(e2), float(e3), float(e4)


def volume_factor(stack: CovarianceStack, j: int, alpha_sq: float = ALPHA_SQ_KT) -> float:
    """L^2 e^{-(alpha^2/2) Gamma_j(0)}; ~1 at the KT coupling."""
    if not (0 <= j <= stack.n_scales - 1):
        raise ValueError(f"scale {j} outside 0..{stack.n_scales - 1}")
    lat = stack.lattice
    return lat.L**2 * math.exp(-0.5 * alpha_sq * stack.gamma0(j))


def limit_constants(L: int, alpha_sq: float, c: float) -> tuple[float, float]:
    """(a, b) = (8 pi^2 e^c ln L, 2 ln L); only defined at the KT coupling."""
    if abs(alpha_sq - ALPHA_SQ_KT) > 1e-12:
        raise ValueError(f"limit constants only hold at alpha^2 = 8*pi, got {alpha_sq}")
    return 8.0 * math.pi**2 * math.exp(c) * math.log(L), 2.0 * math.log(L)


# ---------------------------------------------------------------------------
# batch report


@dataclass
class RgCoefficients:
    """Per-scale coefficient report for scales 1..j_max."""

    L: int
    alpha_sq: float
    scales: list[int]
    a: list[float]
    b: list[float]
    e2: list[float]
    e3: list[float]
    e4: list[float]
    vol: list[float]
    alias_bound: list[float]  # the scale-j grid's alias bound on Gamma_j (0 at step 1)


def compute_coefficients(stack: CovarianceStack, j_max: int, alpha_sq: float = ALPHA_SQ_KT) -> RgCoefficients:
    R = stack.lattice.R
    if not 1 <= j_max <= R - 1:
        raise ValueError(f"j_max must be in 1..{R - 1} (R = {R}), got {j_max}")
    scales = list(range(1, j_max + 1))
    rep = RgCoefficients(L=stack.lattice.L, alpha_sq=alpha_sq, scales=scales,
                         a=[], b=[], e2=[], e3=[], e4=[], vol=[], alias_bound=[])
    for j in scales:
        rep.a.append(coeff_a(stack, j, alpha_sq))
        rep.b.append(coeff_b(stack, j, alpha_sq))
        e2, e3, e4 = energy_coeffs(stack, j, alpha_sq)
        rep.e2.append(e2)
        rep.e3.append(e3)
        rep.e4.append(e4)
        rep.vol.append(volume_factor(stack, j, alpha_sq))
        rep.alias_bound.append(stack.grid(j).alias_bound(stack.fine_scales(j)))
    return rep


def flow_config(rep: RgCoefficients, c: float, **kwargs):
    """FlowConfig carrying the deviation table of a coefficient report.

    c is the Coulomb constant fixing the limits a = 8 pi^2 e^c ln L and b;
    row j - 1 holds a_j/a - 1, vol_j - 1 and vol_j b_j/b - 1, and past the
    last scale of the report the flow is the limit flow.
    """
    from .flow import FlowConfig

    a_lim, b_lim = limit_constants(rep.L, rep.alpha_sq, c)
    rows = tuple((a / a_lim - 1.0, vol - 1.0, vol * b / b_lim - 1.0) for a, b, vol in zip(rep.a, rep.b, rep.vol))
    return FlowConfig(deviations=rows, **kwargs)


def coefficients_csv(rep: RgCoefficients, path: str):
    with open(path, "w", newline="\n") as f:
        f.write("j,a_j,b_j,e2_j,e3_j,e4_j,volume_factor_j,alias_bound_j\n")
        for i, j in enumerate(rep.scales):
            f.write(
                f"{j},{rep.a[i]:.17g},{rep.b[i]:.17g},{rep.e2[i]:.17g},"
                f"{rep.e3[i]:.17g},{rep.e4[i]:.17g},{rep.vol[i]:.17g},{rep.alias_bound[i]:.17g}\n"
            )
