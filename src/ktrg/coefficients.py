"""Scale-dependent second-order RG data: a_j, b_j and the energy coefficients.

All quantities are sums over y in Z^2 of products of per-scale covariance
kernels and their lattice differences, taken at the KT coupling
alpha^2 = 8 pi (ALPHA_SQ_KT).  Every summand is compactly
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
Gamma_j(0) and the two second differences of e2_j and e4_j are Parseval
sums against that band, which the grid takes once as it is built.

The position sums of a_j and e4_j run on the quarter z0, z1 >= 0 of each
scale's window (CovarianceStack.kernel): every kernel Gamma_j and every
summand is even in each coordinate, so a full-window sum is m @ F @ m with
the multiplicities m = (1, 2, 2, ...) (SpectralGrid.window_sum), and the
|y|^2 moments of a_j separate, |y|^2 = y0^2 + y1^2, into two products of
F with a vector (SpectralGrid.window_moment).  The e4 Taylor subtraction
is the scalar form q |y|^2, q = (dd - opposite)/2, with no y0 y1 term.
Both sums read, for each n < j, Gamma_j zoomed onto the scale-n window and
the w_b term of scale n, which depends on the windows of Gamma_{n+1..j-1}
only through their sum.  compute_coefficients therefore takes them on one
walk up the scales (_Walk): at scale j it zooms each Gamma_j(y) once, forms
w_b once from the running sum of the coarser kernels on that window, feeds
both sums from it, and adds Gamma_j to the running sum.  The walk holds one
window per grid besides the stack's cached Gamma_n; no zoom is cached.
coeff_a and energy_coeffs called alone walk up to their scale.

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


def _w_b_term(stack: CovarianceStack, j: int, n: int, coarser) -> np.ndarray:
    """Scale-n term of w_{b,j} on the quarter window of the scale-n grid.

    coarser is the walk's running sum of Gamma_m, m = n+1..j-1, on that
    window (the int 0 while empty), so pref is
    Gamma_{j-1,n+1}(0) - sum(kernel(m, n) for m in range(n + 1, j)) bit
    for bit.
    """
    a2 = ALPHA_SQ_KT
    pref = stack.prefix_diag(j - 1, n + 1) - coarser
    wb_n = (np.exp(-a2 * pref) * math.exp(-a2 * stack.gamma0(n)) * np.expm1(a2 * stack.kernel(n, n))
            * float(stack.lattice.L) ** (-4 * n))
    return _guard_exp(wb_n, n)


def _origin_bracket(K: np.ndarray) -> np.ndarray:
    """expm1(-a2 (Gamma_j(0) - Gamma_j(y))) from the quarter window K of Gamma_j.

    Gamma_j(0) is the origin entry [0, 0] of the same kernel array, so the
    bracket vanishes exactly at y = 0 instead of carrying the rounding gap
    between two sums.
    """
    out = K[0, 0] - K
    out *= -ALPHA_SQ_KT
    return np.expm1(out, out=out)


def _single_scale_term(stack: CovarianceStack, j: int) -> np.ndarray:
    """e^{-a2 Gamma_j(0)} (e^{a2 Gamma_j(y)} - 1) on the quarter window of the scale-j grid."""
    term = ALPHA_SQ_KT * stack.kernel(j, j)
    np.expm1(term, out=term)
    term *= math.exp(-ALPHA_SQ_KT * stack.gamma0(j))
    return _guard_exp(term, j)


class _Walk:
    """One walk up the scales, summing the position sums of a_j and e4_j.

    Both sums read, for each n < j, the w_b term of grid n and the origin
    bracket of Gamma_j on grid n's window.  Scale j (step) zooms each
    Gamma_j(y) onto grid n once, forms w_b once from the running sum
    coarser[n] of Gamma_{n+1..j-1} on that window, feeds the one w_b and
    one bracket to both sums, then adds Gamma_j to coarser[n] and drops it.
    So the walk holds one window per grid n < j besides the stack's
    Gamma_n, and no zoom outlives its scale.  The single-scale term is
    built once, after the n-loop's windows are freed.  Each product and
    sum is taken in the order of a sum over scale j alone, and coarser[n]
    adds in the order of Python's sum, from the int 0, so a_j and e4_j are
    those of the per-scale sums bit for bit.
    """

    def __init__(self, stack: CovarianceStack):
        self.stack = stack
        self.j = 0
        self.coarser: list = []
        self.a: float | None = None
        self.e4: float | None = None

    def step(self):
        """Move the walk from scale j to j + 1, leaving a_{j+1} and e4_{j+1}."""
        stack = self.stack
        j = self.j + 1
        _check_scale(stack, j)
        a2 = ALPHA_SQ_KT
        L = float(stack.lattice.L)
        L2j = L ** (2 * j)
        # e4's Taylor term (1/4) sum_{mu nu} (d^mu d^nu Gamma_j)(0) y_mu y_nu over
        # the signed directions, y_mu = e_mu . y, is q |y|^2: the equal and
        # opposite pairs on each axis give (dd - opposite)/2 times y_a^2, and
        # the cross-axis pairs cancel in sign, so the y0 y1 coefficient is exactly 0
        dd, opposite = _second_differences(stack, j)
        q = 0.5 * (dd - opposite)
        self.coarser.append(0)
        a = e4 = 0.0
        for n in range(j):
            gn = stack.grid(n)
            K = stack.kernel(j, n)
            wb = _w_b_term(stack, j, n, self.coarser[n])
            bracket = _origin_bracket(K)
            self.coarser[n] += K
            del K
            a += gn.window_moment(wb * bracket)
            y2 = gn.y**2
            taylor = q * y2[:, None] + q * y2[None, :]
            taylor *= 0.5 * a2
            np.subtract(bracket, taylor, out=taylor)
            e4 += 2.0 * L2j * gn.window_sum(wb, taylor)
            del wb, bracket, taylor
        g = stack.grid(j)
        term = _single_scale_term(stack, j)
        e4 += L ** (-2 * j) * g.window_sum(term)
        term *= L ** (-4 * j)
        a += g.window_moment(term)
        self.j, self.a, self.e4 = j, 0.5 * a2 * a, e4


def _walk_at(stack: CovarianceStack, j: int) -> _Walk:
    """The walk standing at scale j.

    compute_coefficients keeps its walk on the stack while it runs, and
    coeff_a steps it on from j - 1; any other call walks a fresh one up to
    j, which no later call reads.
    """
    walk = stack._cache.get("walk")
    if walk is None or not j - 1 <= walk.j <= j:
        walk = _Walk(stack)
    while walk.j < j:
        walk.step()
    return walk


def coeff_a(stack: CovarianceStack, j: int) -> float:
    """a_j = (alpha^2/2) sum_y |y|^2 [w_b (e^{-a2 Gamma_j(0|y)} - 1)
    + e^{-a2 Gamma_j(0)} (e^{a2 Gamma_j(y)} - 1) L^{-4j}].

    The first sum runs term by term in the w_b scale index n, each on the
    scale-n grid, the second on the scale-j grid; both are the walk's
    (_Walk).
    """
    _check_scale(stack, j)
    return _walk_at(stack, j).a


def coeff_b(stack: CovarianceStack, j: int) -> float:
    """b_j per the second-order gradient sums (directions carry the 1/2).

    The gradient correlations are quadratic in the kernels, so the y-sums
    are evaluated as exact Parseval integrals: the half-weighted sum over
    the four signed directions of |e^{i p_mu} - 1|^2 is the Laplacian
    symbol itself.  The sums of lam psi_n psi_j, n <= j, are the scale-j
    grid's lam_sums, summed by its band pass.
    """
    _check_scale(stack, j)
    L = float(stack.lattice.L)
    sums = stack.grid(j).lam_sums
    total = sums[j]
    for n in range(j):
        fac = math.exp(-0.5 * ALPHA_SQ_KT * stack.prefix_diag(j - 1, n)) * L ** (2 * (j - n))
        total += 2.0 * fac * sums[n]
    return 0.5 * ALPHA_SQ_KT * total


def _second_differences(stack: CovarianceStack, j: int) -> tuple[float, float]:
    """(dd, opposite): second differences of Gamma_j at the origin.

    dd is (d^mu d^mu Gamma_j)(0) along one signed unit vector e_mu, and
    opposite is (d^mu d^nu Gamma_j)(0) for e_nu = -e_mu: the Parseval sums
    the scale-j grid took after its band pass (SpectralGrid.second_differences).
    """
    g = stack.grid(j)
    return g.dd, g.opposite


def energy_coeffs(stack: CovarianceStack, j: int) -> tuple[float, float, float]:
    """(e2, e3, e4) at scale j, per the second-order energy extraction."""
    _check_scale(stack, j)
    L2j = float(stack.lattice.L) ** (2 * j)
    g = stack.grid(j)
    dd = _second_differences(stack, j)[0]
    # e2 = -(L^2j / 2) * (1/2) sum_{4 dirs} (d^mu d^mu Gamma_j)(0), four equal terms
    e2 = -L2j * dd

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

    # e4: Taylor-subtracted w_b moment plus the single-scale pressure term,
    # summed by the walk (_Walk)
    return float(e2), float(e3), _walk_at(stack, j).e4


def volume_factor(stack: CovarianceStack, j: int) -> float:
    """L^2 e^{-(alpha^2/2) Gamma_j(0)}; ~1 at the KT coupling."""
    if not (0 <= j <= stack.n_scales - 1):
        raise ValueError(f"scale {j} outside 0..{stack.n_scales - 1}")
    return stack.lattice.L**2 * math.exp(-0.5 * ALPHA_SQ_KT * stack.gamma0(j))


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
    scales: list[int]
    a: list[float]
    b: list[float]
    e2: list[float]
    e3: list[float]
    e4: list[float]
    vol: list[float]
    alias_bound: list[float]  # the scale-j grid's alias bound on Gamma_j (0 at step 1)


def compute_coefficients(stack: CovarianceStack, j_max: int) -> RgCoefficients:
    R = stack.lattice.R
    if not 1 <= j_max <= R - 1:
        raise ValueError(f"j_max must be in 1..{R - 1} (R = {R}), got {j_max}")
    scales = list(range(1, j_max + 1))
    rep = RgCoefficients(L=stack.lattice.L, scales=scales, a=[], b=[], e2=[], e3=[], e4=[], vol=[], alias_bound=[])
    # one walk up the scales: coeff_a steps it on to j, energy_coeffs reads it there
    stack._cache["walk"] = _Walk(stack)
    try:
        for j in scales:
            rep.a.append(coeff_a(stack, j))
            rep.b.append(coeff_b(stack, j))
            e2, e3, e4 = energy_coeffs(stack, j)
            rep.e2.append(e2)
            rep.e3.append(e3)
            rep.e4.append(e4)
            rep.vol.append(volume_factor(stack, j))
            rep.alias_bound.append(stack.grid(j).alias_bound(stack.fine_scales(j)))
    finally:
        del stack._cache["walk"]
    return rep


def flow_config(rep: RgCoefficients, c: float, **kwargs):
    """FlowConfig carrying the deviation table of a coefficient report.

    c is the Coulomb constant fixing the limits a = 8 pi^2 e^c ln L and b;
    row j - 1 holds a_j/a - 1, vol_j - 1 and vol_j b_j/b - 1, and past the
    last scale of the report the flow is the limit flow.
    """
    from .flow import FlowConfig

    a_lim, b_lim = limit_constants(rep.L, ALPHA_SQ_KT, c)
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
