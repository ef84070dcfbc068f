"""Full-grid oracles of the spectral engine, shared by the test files.

The package keeps every spectral array as a real band on the triangle of
its folded grid.  The oracles here work on the full S x S momentum grid
instead: the unfold of a triangle array, the complex inverse FFT and the
complex zoom of any full-grid array (differenced and shifted kernels
included), the difference symbols, the grid mean as a Parseval sum, and
the w-kernel tables of the second-order expansion, which no command
reports, with the windows of finer kernels on coarser grids that the
stack does not serve.  Beside them sit the full-triangle forms that the
scale grids' row-block band pass replaced: the bands of scales 0..j on the
scale-j grid, the Parseval sums of b_j and e3_j over them, the b_j-weighted
alias bound, and |y|^2 as a window.  Last come the paths that the
coefficient walk and the triangle-fed window replaced: the Parseval sum
whose weights each call builds and multiplies into fresh products, the
window synthesized from the folded square, and a_j and e4_j summed per
scale, each re-summing the zooms of the coarser kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ktrg.coefficients import ALPHA_SQ_KT, _check_scale
from ktrg.decomposition import ALIAS_PROBE_POINTS, SpectralGrid, Window, band_window, natural_step
from ktrg.lattice import DIRS, _half_synthesis

# ---------------------------------------------------------------------------
# the full grid


def grid_band(g, hs) -> np.ndarray:
    """sum_{h in hs} psi_h on the triangle of grid g, from a fresh pass over the whole triangle."""
    return g.fejer_pass().band_sum(hs)


def fold_index(g) -> np.ndarray:
    """Folded-axis index of each momentum of the full axis: min(k, S-k), or k on a trivially folded axis."""
    k = np.arange(g.S)
    return k if len(g.p_fold) == g.S else np.minimum(k, g.S - k)


def unfold(g, A: np.ndarray) -> np.ndarray:
    """A triangle array (or a folded square) of grid g on the full S x S grid; full-grid arrays pass through."""
    if A.ndim == 1:
        A = g._mirror(A)
    if A.shape[0] == g.S:
        return A
    idx = fold_index(g)
    return A[np.ix_(idx, idx)]


def diff_symbol(g, deriv: tuple[int, ...]) -> np.ndarray:
    """prod_d (e^{i p.e_d} - 1) on the full grid: the symbol of the forward differences along DIRS[d]."""
    out = None
    for d in deriv:
        s0, s1 = DIRS[d]
        ph = np.exp(1j * (s0 * g.p[:, None] if s1 == 0 else s1 * g.p[None, :])) - 1.0
        out = ph if out is None else out * ph
    return out


def mean_parseval(g, *factors: np.ndarray) -> float:
    """The Parseval sum as the mean of the unfolded product over the full grid."""
    return float(np.mean(np.prod([unfold(g, f) for f in factors], axis=0))) / g.weight


def ifft_kernel(g, G: np.ndarray) -> np.ndarray:
    """Kernel of the spectral array G over one period S x S of step*z: the complex inverse FFT of its unfold."""
    return np.fft.ifft2(unfold(g, G)).real / g.weight


def ifft_window(g, G: np.ndarray) -> np.ndarray:
    """ifft_kernel on the full window |z|_inf <= radius, indexed [z0 + radius, z1 + radius]."""
    r = g.radius
    return np.roll(ifft_kernel(g, G), (r, r), axis=(0, 1))[: 2 * r + 1, : 2 * r + 1].copy()


def complex_zoom(g, G: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Kernel of the spectral array G at the product points ys x ys, by complex exponentials over the full grid."""
    ph = np.exp(1j * np.outer(np.asarray(ys, dtype=float), g.p))
    return (ph @ (unfold(g, G) @ ph.T)).real / (g.S**2 * g.weight)


def full_y(g) -> np.ndarray:
    """The full window positions step*z, |z| <= radius, along one axis."""
    return g.step * np.arange(-g.radius, g.radius + 1, dtype=float)


def dd_tensor(stack, j: int) -> np.ndarray:
    """(d^mu d^nu Gamma_j)(0) for the signed directions mu, nu = 0..3 on the triangle.

    Three Parseval sums of the band against the real parts of the difference
    symbols, c = 2 sin^2(p/2): on one axis -2 cos(p) c for equal signs and 2c
    for opposite ones, across the axes c0 c1 (the sin p0 sin p1 part is odd
    and integrates to zero).
    """
    g = stack.grid(j)
    c = 2.0 * np.sin(0.5 * g.p_fold) ** 2
    same = g.parseval(g.psi, g.outer(np.add, -np.cos(g.p_fold) * c))
    opposite = g.parseval(g.psi, g.outer(np.add, c))
    tensor = np.full((4, 4), g.parseval(g.psi, g.outer(np.multiply, c)))
    for mu in range(4):
        tensor[mu, mu] = same
        tensor[mu, (mu + 2) % 4] = opposite
    return tensor


def tensor_sums(tensor: np.ndarray) -> tuple[float, float]:
    """(dd, opposite) read off a 4 x 4 second-difference tensor: the means of its equal and of its opposite pairs."""
    return (float(np.mean(np.diag(tensor))),
            float(np.mean([tensor[mu, (mu + 2) % 4] for mu in range(4)])))


def complex_dd_at_zero(stack, j: int) -> np.ndarray:
    """(d^mu d^nu Gamma_j)(0) as Parseval means against the complex difference symbols."""
    g = stack.grid(j)
    G = unfold(g, g.psi)
    return np.array([[float(np.mean(G * diff_symbol(g, (mu, nu)).real)) / g.weight
                      for nu in range(4)] for mu in range(4)])


def complex_e3_symbol(g) -> np.ndarray:
    """sum over the forward axis pairs (a, b) of |e^{i p_a} - 1|^2 |e^{i p_b} - 1|^2 on the full grid."""
    return sum(diff_symbol(g, (a, a + 2, b, b + 2)).real for a in range(2) for b in range(2))


def kernel_source(stack, j: int, n: int):
    """The grid that Gamma_j is read off for the scale-n window: the scale-n
    grid when it holds and resolves Gamma_j, the scale-j grid otherwise (its
    band is then zoomed at the window positions)."""
    g = stack.grid(n)
    fits = stack.support_radius(j) + 2 <= g.radius * g.step
    resolved = g.step <= natural_step(stack.cutoffs, j * stack.lattice.M)
    return g if fits and resolved else stack.grid(j)


def scale_kernel(stack, j: int, n: int) -> np.ndarray:
    """Gamma_j on the quarter window of the scale-n grid, for any scale j.

    j >= n is CovarianceStack.kernel.  A finer Gamma_j, j < n, which the
    stack does not serve, is the window of a pass on the scale-n grid where
    that grid resolves it, and its own grid's band zoomed otherwise.
    """
    if j >= n:
        return stack.kernel(j, n)
    g = stack.grid(n)
    src = kernel_source(stack, j, n)
    G = grid_band(src, stack.fine_scales(j))
    return src.window(G) if src is g else src.zoom(G, g.y)


def differenced_kernel(stack, j: int, n: int, deriv: tuple[int, ...]) -> np.ndarray:
    """(d^deriv Gamma_j)(y) on the full window of the scale-n grid.

    The grid is kernel_source's choice.  A differenced kernel is odd along
    its directions, so it takes the complex transforms over the full grid.
    """
    g = stack.grid(n)
    src = kernel_source(stack, j, n)
    G = unfold(src, grid_band(src, stack.fine_scales(j))) * diff_symbol(src, deriv)
    return ifft_window(src, G) if src is g else complex_zoom(src, G, full_y(g))


# ---------------------------------------------------------------------------
# the full-triangle sums of the scale grids


def scale_bands(stack, j: int) -> list[np.ndarray]:
    """Bands of scales 0..j on the scale-j grid, summed on one pass over the whole triangle."""
    run = stack.grid(j).fejer_pass()
    return [run.band_sum(stack.fine_scales(n)) for n in range(j + 1)]


def e3_symbol(g) -> np.ndarray:
    """sum over the forward axis pairs (a, b) of |e^{i p_a} - 1|^2 |e^{i p_b} - 1|^2 on the triangle.

    Each pair's symbol is 2c_a 2c_b, so the four sum to (2c_0 + 2c_1)^2 =
    lam^2 (2c = 4 sin^2(p/2) is the symbol's axis term, bit for bit).
    """
    return g._lam() ** 2


def pass_sums(stack, j: int, symbol) -> list[float]:
    """g.parseval(symbol(g), psi_n, psi_j) for n = 0..j on the scale-j grid g: what its band pass sums."""
    g = stack.grid(j)
    psi = scale_bands(stack, j)
    sym = symbol(g)
    return [g.parseval(sym, band, psi[j]) for band in psi]


def parseval_b(stack, j: int, alpha_sq: float = ALPHA_SQ_KT) -> float:
    """b_j from full-triangle Parseval sums."""
    sums = pass_sums(stack, j, lambda g: g._lam())
    L = float(stack.lattice.L)
    total = sums[j]
    for n in range(j):
        fac = math.exp(-0.5 * alpha_sq * stack.prefix_diag(j - 1, n)) * L ** (2 * (j - n))
        total += 2.0 * fac * sums[n]
    return 0.5 * alpha_sq * total


def parseval_e3(stack, j: int, symbol=e3_symbol) -> float:
    """e3_j from full-triangle Parseval sums against symbol(g)."""
    sums = pass_sums(stack, j, symbol)
    e3 = sums[j]
    for m in range(j):
        e3 += 3.0 * sums[m]
    return e3 * float(stack.lattice.L) ** (2 * j) / 4.0


def weighted_alias_bound(g, hs, symbol) -> float:
    """SpectralGrid.alias_bound of the band hs weighted by |symbol(p0, p1)| on the alias ring."""
    if g.step == 1:
        return 0.0
    probe = np.linspace(-np.pi, np.pi, ALIAS_PROBE_POINTS)
    ring = SpectralGrid(g.cutoffs, g.m, np.concatenate([(probe + 2.0 * np.pi * a) / g.step for a in (-1, 0, 1)]))
    vals = np.abs(ring._mirror(grid_band(ring, hs))) * np.abs(symbol(ring.p0, ring.p1))
    n = ALIAS_PROBE_POINTS
    vals[n : 2 * n, n : 2 * n] = 0.0  # the kept central cell
    return 2.0 * 8.0 * float(vals.max()) / g.weight


def y_sq(g) -> np.ndarray:
    """Euclidean |y|^2 over the quarter window of grid g."""
    y2 = g.y**2
    return y2[:, None] + y2[None, :]


def stack_window(stack, j: int, *, step=None, radius=None) -> Window:
    """Gamma_j on a decimated window (band_window), at the natural step of its finest order by default."""
    stack._check_scale(j)
    hs = stack.fine_scales(j)
    if step is None:
        step = natural_step(stack.cutoffs, hs[0])
    return band_window(stack.cutoffs, stack.lattice.m, hs, step=step, radius=radius)


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


def kernels(stack, j: int, alpha_sq: float = ALPHA_SQ_KT) -> WKernels:
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
    tables = {}

    def gam(m, deriv=()):
        if (m, deriv) not in tables:
            tables[(m, deriv)] = (differenced_kernel(stack, m, j - 1, deriv) if deriv
                                  else g.full_window(scale_kernel(stack, m, j - 1)))
        return tables[(m, deriv)]

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
    for w in (w_b, w_c):
        if not np.all(np.isfinite(w)):
            raise FloatingPointError("overflow in covariance exponential")
    return WKernels(
        j=j, alpha_sq=alpha_sq, step=g.step, radius=g.radius,
        w_a=w_a, w_b=w_b, w_c=w_c, w_d=w_d, w_e=w_e,
        y_sq=g.full_window(y_sq(g)), alias_bound=g.alias_bound(stack.fine_scales(j - 1)),
    )


# ---------------------------------------------------------------------------
# the paths the coefficient walk and the triangle-fed window replaced


def fresh_parseval(g, *factors: np.ndarray) -> float:
    """The Parseval sum over the triangle: the pair weights times each factor in turn, one np.sum."""
    prod = g._pair_weights()
    for f in factors:
        prod = prod * f
    return float(np.sum(prod)) / (g.S**2 * g.weight)


def origin_sums(g) -> tuple[float, float, float]:
    """(Gamma(0), dd, opposite) of the band psi of grid g, each from fresh_parseval."""
    c = 2.0 * np.sin(0.5 * g.p_fold) ** 2
    return (fresh_parseval(g, g.psi),
            fresh_parseval(g, g.psi, g.outer(np.add, -np.cos(g.p_fold) * c)),
            fresh_parseval(g, g.psi, g.outer(np.add, c)))


def square_window(g, G: np.ndarray) -> np.ndarray:
    """The quarter window of the triangle array G, synthesized from its whole folded square."""
    h = g.S // 2 + 1
    n = g.radius + 1
    K = _half_synthesis(g._mirror(G)[:h, :h], n, n)
    K /= g.weight
    return K


def w_b_term(stack, j: int, n: int) -> np.ndarray:
    """Scale-n term of w_{b,j} on the quarter window of the scale-n grid, re-summing kernel(m, n), m = n+1..j-1."""
    a2 = ALPHA_SQ_KT
    pref = stack.prefix_diag(j - 1, n + 1) - sum(stack.kernel(m, n) for m in range(n + 1, j))
    return (np.exp(-a2 * pref) * math.exp(-a2 * stack.gamma0(n)) * np.expm1(a2 * stack.kernel(n, n))
            * float(stack.lattice.L) ** (-4 * n))


def origin_bracket(stack, j: int, n: int) -> np.ndarray:
    """expm1(-a2 (Gamma_j(0) - Gamma_j(y))) on the quarter window of the scale-n grid."""
    K = stack.kernel(j, n)
    return np.expm1(-ALPHA_SQ_KT * (K[0, 0] - K))


def single_scale_term(stack, j: int) -> np.ndarray:
    """e^{-a2 Gamma_j(0)} (e^{a2 Gamma_j(y)} - 1) on the quarter window of the scale-j grid."""
    return np.expm1(ALPHA_SQ_KT * stack.kernel(j, j)) * math.exp(-ALPHA_SQ_KT * stack.gamma0(j))


def per_scale_a(stack, j: int) -> float:
    """a_j summed for scale j alone: one w_b term and bracket per n < j, then the single-scale term."""
    total = 0.0
    for n in range(j):
        total += stack.grid(n).window_moment(w_b_term(stack, j, n) * origin_bracket(stack, j, n))
    term = single_scale_term(stack, j) * float(stack.lattice.L) ** (-4 * j)
    total += stack.grid(j).window_moment(term)
    return 0.5 * ALPHA_SQ_KT * total


def per_scale_e4(stack, j: int) -> float:
    """e4_j summed for scale j alone, with the second differences of fresh Parseval sums."""
    a2 = ALPHA_SQ_KT
    L = float(stack.lattice.L)
    L2j = L ** (2 * j)
    _, dd, opposite = origin_sums(stack.grid(j))
    q = 0.5 * (dd - opposite)
    e4 = 0.0
    for n in range(j):
        gn = stack.grid(n)
        y2 = gn.y**2
        bracket = origin_bracket(stack, j, n) - 0.5 * a2 * (q * y2[:, None] + q * y2[None, :])
        e4 += 2.0 * L2j * gn.window_sum(w_b_term(stack, j, n), bracket)
    e4 += L ** (-2 * j) * stack.grid(j).window_sum(single_scale_term(stack, j))
    return e4
