"""Scale-dependent second-order RG data: a_j, b_j, energy coefficients and
the irrelevant y-kernels.

All quantities are sums over y in Z^2 of products of per-scale covariance
kernels and their lattice differences.  Every summand is compactly
supported (the kernels have exact finite range), so the sums are finite.
Each single-scale term is evaluated on the stack's spectral grid of its
scale (CovarianceStack.grid): scale-n factors vary on length gamma^(nM),
sampled with 3^5 points per length and alias-certified by the grid's ring
probe; grids are step 1 (exact sums) whenever the support is small enough.
Sums quadratic in the kernels (b_j, e3_j) and second differences at the
origin (e2_j, e4_j) are Parseval sums on the scale-j grid, whose period
exceeds twice the support.

Direction sums follow the convention that a sum over the four signed unit
vectors carries a factor 1/2.  Euclidean |y|^2 is used in the second-moment
sums; the max norm only enters geometry/support statements.

Out of numeric scope here: the energy feed e1_j and the flow feeds F_j, M_j
depend on the full polymer activity, a function-space object; the flow
module represents their effect through the scalar norm surrogate instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import CovarianceStack
from .lattice import DIRS

__all__ = [
    "WKernels",
    "RgCoefficients",
    "kernels",
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


def _guard_exp(x: np.ndarray, n: int | None = None):
    if not np.all(np.isfinite(x)):
        where = f" at scale term n={n}" if n is not None else ""
        raise FloatingPointError(f"overflow in covariance exponential{where}")
    return x


# ---------------------------------------------------------------------------
# w-kernel tables


@dataclass
class WKernels:
    """Irrelevant-kernel tables at scale j, sampled on y = step*z.

    w_a[(mu,nu)] and w_d[mu] are keyed by the two lattice axes; the signed
    direction variants reduce to these by evenness of the covariances.
    Tables are (2*radius+1)^2 arrays over the z window; position sums carry
    weight step^2.
    """

    j: int
    alpha_sq: float
    step: int
    radius: int
    w_a: dict
    w_b: np.ndarray
    w_c: np.ndarray
    w_d: dict
    w_e: np.ndarray
    y_sq: np.ndarray
    alias_bound: float

    @property
    def weight(self) -> float:
        return float(self.step) ** 2

    def support_check(self, L: int, gamma: int) -> float:
        """Max |kernel| relative beyond |y| > L^j * gamma / 2 over all tables."""
        zz = self.step * np.arange(-self.radius, self.radius + 1)
        rr = np.maximum(np.abs(zz)[:, None], np.abs(zz)[None, :])
        cut = (L**self.j) * gamma / 2.0
        mask = rr > cut
        if not mask.any():
            return 0.0
        worst = 0.0
        for t in [*self.w_a.values(), self.w_b, self.w_c, *self.w_d.values(), self.w_e]:
            scale = np.max(np.abs(t)) or 1.0
            worst = max(worst, float(np.max(np.abs(t[mask])) / scale))
        return worst


def kernels(stack: CovarianceStack, j: int, alpha_sq: float = ALPHA_SQ_KT) -> WKernels:
    """w_{a..e,j}(y) by direct summation over n = 0..j-1.

    At j = 0 all kernels vanish identically; returned as 1x1 zero tables.
    """
    if j == 0:
        z = np.zeros((1, 1))
        return WKernels(
            j=0, alpha_sq=alpha_sq, step=1, radius=0,
            w_a={(a1, a2): z.copy() for a1 in range(2) for a2 in range(2)},
            w_b=z.copy(), w_c=z.copy(),
            w_d={a: z.copy() for a in range(2)}, w_e=z.copy(),
            y_sq=z.copy(), alias_bound=0.0,
        )
    _check_scale(stack, j)
    a2 = alpha_sq
    L = float(stack.lattice.L)

    # output grid of the widest contributing factor (scale j-1); finer-scale
    # terms are zoom-evaluated at the same positions through their own grids
    g = stack.grid(j - 1)
    shape = (2 * g.radius + 1, 2 * g.radius + 1)

    def gam(m, deriv=()):
        return stack.kernel(m, j - 1, deriv)

    w_a = {}
    for a1 in range(2):
        for a2_ax in range(2):
            acc = np.zeros(shape)
            for m in range(j):
                acc += gam(m, (a1, a2_ax))
            w_a[(a1, a2_ax)] = 0.5 * acc

    w_b = np.zeros(shape)
    w_c = np.zeros(shape)
    w_d = {a: np.zeros(shape) for a in range(2)}
    w_e = np.zeros(shape)
    for n in range(j):
        pref_hi = stack.prefix_diag(j - 1, n + 1)
        pref_tab = np.zeros(shape)
        for m in range(n + 1, j):
            pref_tab += gam(m)
        g0n = stack.gamma0(n)
        gn = gam(n)
        l4 = L ** (-4 * n)
        w_b += np.exp(-a2 * (pref_hi - pref_tab)) * math.exp(-a2 * g0n) * np.expm1(a2 * gn) * l4
        w_c += 0.5 * np.exp(-a2 * (pref_hi + pref_tab)) * math.exp(-a2 * g0n) * np.expm1(-a2 * gn) * l4
        fac = math.exp(-0.5 * a2 * stack.prefix_diag(j - 1, n)) * L ** (-2 * n)
        for a in range(2):
            w_d[a] += (math.sqrt(a2) / 2.0) * fac * gam(n, (a,))
        grad_sq_hi = np.zeros(shape)
        grad_sq_lo = np.zeros(shape)
        for d in range(4):
            d_hi = gam(n, (d,)) + sum(gam(m, (d,)) for m in range(n + 1, j))
            d_lo = d_hi - gam(n, (d,))
            grad_sq_hi += 0.5 * d_hi**2
            grad_sq_lo += 0.5 * d_lo**2
        w_e += (a2 / 4.0) * fac * (grad_sq_hi - grad_sq_lo)
    _guard_exp(w_b)
    _guard_exp(w_c)
    return WKernels(
        j=j, alpha_sq=alpha_sq, step=g.step, radius=g.radius,
        w_a=w_a, w_b=w_b, w_c=w_c, w_d=w_d, w_e=w_e,
        y_sq=g.y_sq, alias_bound=g.alias_bound(stack.fine_scales(j - 1)),
    )


# ---------------------------------------------------------------------------
# scalar coefficients


def _w_b_term(stack: CovarianceStack, j: int, n: int, a2: float) -> np.ndarray:
    """Scale-n term of w_{b,j} on the scale-n grid."""
    pref = stack.prefix_diag(j - 1, n + 1) - sum(stack.kernel(m, n) for m in range(n + 1, j))
    wb_n = (np.exp(-a2 * pref) * math.exp(-a2 * stack.gamma0(n)) * np.expm1(a2 * stack.kernel(n, n))
            * float(stack.lattice.L) ** (-4 * n))
    return _guard_exp(wb_n, n)


def _origin_bracket(stack: CovarianceStack, j: int, n: int, a2: float) -> np.ndarray:
    """expm1(-a2 (Gamma_j(0) - Gamma_j(y))) on the scale-n window.

    Gamma_j(0) is the origin entry of the same kernel array, so the bracket
    vanishes exactly at y = 0 instead of carrying the rounding gap between
    two sums.
    """
    K = stack.kernel(j, n)
    r = stack.grid(n).radius
    return np.expm1(-a2 * (K[r, r] - K))


def _scale_bands(stack: CovarianceStack, j: int) -> list[np.ndarray]:
    """Bands of scales 0..j on the scale-j grid."""
    g = stack.grid(j)
    return [g.band(stack.fine_scales(n)) for n in range(j + 1)]


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
        bracket = _origin_bracket(stack, j, n, a2)
        total += g.weight * float(np.sum(g.y_sq * _w_b_term(stack, j, n, a2) * bracket))
    # second sum on the scale-j grid
    g = stack.grid(j)
    term2 = math.exp(-a2 * g0j) * np.expm1(a2 * stack.kernel(j, j)) * L ** (-4 * j)
    _guard_exp(term2, j)
    total += g.weight * float(np.sum(g.y_sq * term2))
    return 0.5 * a2 * total


def coeff_b(stack: CovarianceStack, j: int, alpha_sq: float = ALPHA_SQ_KT) -> float:
    """b_j per the second-order gradient sums (directions carry the 1/2).

    The gradient correlations are quadratic in the kernels, so the y-sums
    are evaluated as exact Parseval integrals: the half-weighted sum over
    the four signed directions of |e^{i p_mu} - 1|^2 is the Laplacian
    symbol itself.
    """
    _check_scale(stack, j)
    a2 = alpha_sq
    L = float(stack.lattice.L)
    g = stack.grid(j)
    psi = _scale_bands(stack, j)
    lam = g.lam
    total = g.parseval(lam, psi[j], psi[j])
    for n in range(j):
        fac = math.exp(-0.5 * a2 * stack.prefix_diag(j - 1, n)) * L ** (2 * (j - n))
        total += 2.0 * fac * g.parseval(lam, psi[n], psi[j])
    return 0.5 * a2 * total


def _cos_gaps(g) -> tuple[np.ndarray, np.ndarray]:
    """c(p) = 2 sin^2(p/2) = 1 - cos p on the two folded axes of grid g.

    The sine form keeps full relative accuracy as p -> 0, where 1 - cos p
    cancels.
    """
    return 2.0 * np.sin(0.5 * g.p0) ** 2, 2.0 * np.sin(0.5 * g.p1) ** 2


def _dd_at_zero(stack: CovarianceStack, j: int) -> np.ndarray:
    """(d^mu d^nu Gamma_j)(0) for the signed directions mu, nu = 0..3.

    Each entry is one Parseval sum of the band against the real part of
    the two difference symbols, in closed form with c = 2 sin^2(p/2): on
    one axis -2 cos(p) c for equal signs and 2c for opposite ones, across
    the axes c0 c1 (the sin p0 sin p1 part is odd and integrates to zero).
    Five sums fill the tensor.
    """
    g = stack.grid(j)
    G = g.band(stack.fine_scales(j))
    p = (g.p0, g.p1)
    c = _cos_gaps(g)
    same = [g.parseval(G, -2.0 * np.cos(p[a]) * c[a]) for a in range(2)]
    opposite = [g.parseval(G, 2.0 * c[a]) for a in range(2)]
    dd = np.full((4, 4), g.parseval(G, c[0], c[1]))
    for mu in range(4):
        for nu in range(mu % 2, 4, 2):
            dd[mu, nu] = same[mu % 2] if mu == nu else opposite[mu % 2]
    return dd


def _e3_symbol(g) -> np.ndarray:
    """sum over the forward axis pairs (a, b) of |e^{i p_a} - 1|^2 |e^{i p_b} - 1|^2.

    Each pair's symbol is 2c_a 2c_b, so the four sum to (2c_0 + 2c_1)^2.
    """
    c0, c1 = _cos_gaps(g)
    return (2.0 * c0 + 2.0 * c1) ** 2


def _taylor_quad(dd_tensor: np.ndarray, y: np.ndarray) -> np.ndarray:
    """0.25 sum_{mu nu} dd[mu, nu] y_mu y_nu over the window y x y, y_mu = DIRS[mu] . y.

    That is the 2x2 form Q = 0.25 D^T dd D in the two axes, D the rows of
    DIRS.
    """
    D = np.array(DIRS, dtype=float)
    Q = 0.25 * D.T @ dd_tensor @ D
    y0, y1 = y[:, None], y[None, :]
    return Q[0, 0] * y0**2 + (Q[0, 1] + Q[1, 0]) * y0 * y1 + Q[1, 1] * y1**2


def energy_coeffs(stack: CovarianceStack, j: int, alpha_sq: float = ALPHA_SQ_KT) -> tuple[float, float, float]:
    """(e2, e3, e4) at scale j, per the second-order energy extraction."""
    _check_scale(stack, j)
    a2 = alpha_sq
    L = float(stack.lattice.L)
    L2j = L ** (2 * j)
    g = stack.grid(j)
    psi = _scale_bands(stack, j)
    dd_tensor = _dd_at_zero(stack, j)
    # e2 = -(L^2j / 2) * (1/2) sum_{4 dirs} (d^mu d^mu Gamma_j)(0)
    e2 = -(L2j / 2.0) * 0.5 * sum(dd_tensor[mu, mu] for mu in range(4))

    # e3 = (L^2j / 4) sum_y sum_{mu nu in e^2} [dd Gamma_{j,0} + 2 dd Gamma_{j-1,0}](y)
    #      * (dd Gamma_j)(y|0).  The two direction sums carry (1/2)^2 and the
    #      sign flips collapse onto forward axis pairs by evenness; the
    #      constant (dd Gamma_j)(0) drops because sum_y dd Gamma_m = 0
    #      exactly (vanishing symbol at p = 0), leaving pure quadratic
    #      correlations evaluated by Parseval against _e3_symbol.
    sym = _e3_symbol(g)
    e3 = g.parseval(sym, psi[j], psi[j])
    for m in range(j):
        e3 += 3.0 * g.parseval(sym, psi[m], psi[j])
    e3 *= L2j / 4.0

    # e4: Taylor-subtracted w_b moment plus the single-scale pressure term
    e4 = 0.0
    for n in range(j):
        gn = stack.grid(n)
        bracket = _origin_bracket(stack, j, n, a2) - 0.5 * a2 * _taylor_quad(dd_tensor, gn.y)
        e4 += 2.0 * L2j * gn.weight * float(np.sum(_w_b_term(stack, j, n, a2) * bracket))
    term2 = math.exp(-a2 * stack.gamma0(j)) * np.expm1(a2 * stack.kernel(j, j))
    e4 += L ** (-2 * j) * g.weight * float(np.sum(term2))
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


def compute_coefficients(stack: CovarianceStack, j_max: int, alpha_sq: float = ALPHA_SQ_KT) -> RgCoefficients:
    scales = list(range(1, j_max + 1))
    rep = RgCoefficients(L=stack.lattice.L, alpha_sq=alpha_sq, scales=scales,
                         a=[], b=[], e2=[], e3=[], e4=[], vol=[])
    for j in scales:
        rep.a.append(coeff_a(stack, j, alpha_sq))
        rep.b.append(coeff_b(stack, j, alpha_sq))
        e2, e3, e4 = energy_coeffs(stack, j, alpha_sq)
        rep.e2.append(e2)
        rep.e3.append(e3)
        rep.e4.append(e4)
        rep.vol.append(volume_factor(stack, j, alpha_sq))
    return rep


def flow_config(rep: RgCoefficients, c: float, **kwargs):
    """FlowConfig in per-scale mode from a coefficient report.

    c is the Coulomb constant fixing the limit a = 8 pi^2 e^c ln L; the
    volume factors enter the activity recursion directly.
    """
    from .flow import FlowConfig

    a_lim, b_lim = limit_constants(rep.L, rep.alpha_sq, c)
    return FlowConfig(
        mode="per-scale",
        a_seq=tuple(rep.a),
        b_seq=tuple(rep.b),
        vol_seq=tuple(rep.vol),
        a_limit=a_lim,
        b_limit=b_lim,
        **kwargs,
    )


def coefficients_csv(rep: RgCoefficients, path: str):
    with open(path, "w", newline="\n") as f:
        f.write("j,a_j,b_j,e2_j,e3_j,e4_j,volume_factor_j\n")
        for i, j in enumerate(rep.scales):
            f.write(
                f"{j},{rep.a[i]:.17g},{rep.b[i]:.17g},{rep.e2[i]:.17g},"
                f"{rep.e3[i]:.17g},{rep.e4[i]:.17g},{rep.vol[i]:.17g}\n"
            )
