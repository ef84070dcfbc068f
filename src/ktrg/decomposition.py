"""Finite-range multiscale decomposition of the torus Yukawa covariance.

Per block scale j the covariance is an aggregate of M fine-scale bands,

    Gamma_j = sum_{h in I_j} C_h,     I_j = {jM, ..., (j+1)M - 1},

with C_h = psi_h(m^2 - Delta) for the spectral bands of cutoffs.py.  Each
C_h is a polynomial in the lattice Laplacian, so its kernel vanishes
*identically* beyond the range budget gamma^(h+1)/2; the torus table equals
the infinite-lattice kernel as long as the support fits inside the torus,
which the budget guarantees for every h < M*R.

Every spectral evaluation goes through one SpectralGrid: a product momentum
grid (the torus momenta, or a decimated grid p = 2 pi fftfreq(S) / step
whose inverse FFT gives kernel values at y = step*z + shift).  A grid
evaluates the bands in one pass over the residual products r_h and caches
them; it also owns the only probe of the dropped Brillouin-zone aliases,
window extraction, evaluation off the grid and Parseval sums.  The stack
keeps one decimated grid per scale (CovarianceStack.grid), on which the
coefficient sums of coefficients.py are evaluated.  Decimation keeps only
the central copy of the folded fine zone; the dropped aliases are bounded
at runtime and the bound is reported with each window (the bands decay fast
enough that 243 samples per scale keep the bound near 1e-11).

Bands depend on p only through lam(p) = 4 sin^2(p0/2) + 4 sin^2(p1/2), so
they are even in each momentum component and symmetric under p0 <-> p1, and
a grid folds itself by these symmetries of the square (the 8-fold D4 fold).
When its axis has odd length S and pairs every momentum with its exact
negative, p[S-k] = -p[k] (the fftfreq layout of every per-scale grid, of
the PSD probe and of the torus momenta), arrays live on the quarter
p0, p1 >= 0: n = S//2 + 1 points per axis, carrying multiplicity weights
w = (1, 2, 2, ...), and the full grid is read back through the unfold index
min(k, S-k).  Any other axis (an even-length one, the alias ring) takes the
trivial fold, weights 1 and the identity index, through the same code.  On
either, lam is bit-for-bit symmetric under the swap, so the band pass runs
on the triangle p1 <= p0 of the folded grid (rows packed, n(n+1)/2 points)
and its bands and residuals are mirrored onto the folded grid.  The folded
grid holds the same momenta as the full one, so unfolded bands are
bit-identical to a pass over the full grid.  Parseval sums and real
(cosine) zooms run on the folded grid with the weights; windows, complex
zooms and derivative symbols unfold on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft

from .cutoffs import CutoffFamily, FejerPass, build_cutoffs
from .lattice import DIRS, TorusLattice, laplacian_symbol, yukawa_table, normalized_potential_table

__all__ = [
    "DecompositionError",
    "SpectralGrid",
    "Window",
    "band_window",
    "CovarianceStack",
    "decompose",
    "write_stack",
    "read_stack",
    "PSD_TOL",
    "LEAKAGE_TOL",
    "TELESCOPING_TOL",
]

PSD_TOL = 1e-10
LEAKAGE_TOL = 1e-6
TELESCOPING_TOL = 1e-8

# decimated windows sample each fine scale with 3^SAMPLES_EXP points per
# linear correlation length; 5 keeps the alias bound near 1e-11
SAMPLES_EXP = 5

# tori above this side confirm the PSD gate on a PROBE_SIDE^2 momentum grid
PROBE_SIDE = 729

ALIAS_PROBE_POINTS = 33


class DecompositionError(RuntimeError):
    pass


def _odd_fast_len(n: int) -> int:
    """Smallest FFT-friendly odd length >= n (keeps the momentum grid +/- symmetric)."""
    s = sfft.next_fast_len(n)
    while s % 2 == 0:
        s = sfft.next_fast_len(s + 1)
    return s


def natural_step(cutoffs: CutoffFamily, h_min: int) -> int:
    """Decimation step resolving fine scale h_min with 3^SAMPLES_EXP samples."""
    return max(1, cutoffs.gamma ** max(0, h_min - SAMPLES_EXP))


# ---------------------------------------------------------------------------
# the spectral grid


def _fold(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(folded axis, unfold index, multiplicity weights) of the momentum axis p.

    An odd-length axis with p[S-k] == -p[k] for k = 1..S-1 folds onto its
    first n = S//2 + 1 entries with weights (1, 2, 2, ...) and unfold index
    min(k, S-k); any other axis folds trivially onto itself.
    """
    S = len(p)
    k = np.arange(S)
    if S % 2 == 0 or not np.array_equal(p[S - k[1:]], -p[1:]):
        return p, k, np.ones(S)
    n = S // 2 + 1
    w = np.full(n, 2.0)
    w[0] = 1.0
    return p[:n], np.minimum(k, S - k), w


class SpectralGrid:
    """Bands of a cutoff family on the product momentum grid p x p.

    p holds fine-lattice momenta.  A decimated grid (step > 1) samples the
    central Brillouin zone of step*Z^2, so the inverse FFT of a spectral
    array gives step^2 times its kernel at y = step*z; windows cover
    |z|_inf <= radius.  Bands are summed over fine-scale lists in one pass
    over the residual products r_h, which restarts only when a fine scale
    at or below one already evaluated is asked for, and each list's band is
    cached.

    Bands, lam, u and the momenta p0, p1 live on the folded grid over the
    axis p_fold, with weights w (see the module docstring); p keeps the full
    axis, and unfold() maps a folded array onto it.  The running state of
    the band pass (a cutoffs.FejerPass) lives on the triangle p1 <= p0 of
    the folded grid only.
    """

    def __init__(self, cutoffs: CutoffFamily, m: float, p: np.ndarray, step: int = 1, radius: int = 0):
        self.cutoffs = cutoffs
        self.m = m
        self.b = m * m + 8.0
        self.p = p
        self.S = len(p)
        self.p_fold, self.idx, self.w = _fold(p)
        self.p0 = self.p_fold[:, None]
        self.p1 = self.p_fold[None, :]
        self.step = step
        self.radius = radius
        self.weight = float(step) ** 2
        self._bands: dict[tuple[int, ...], np.ndarray] = {}
        self._pass = None

    @classmethod
    def decimated(cls, cutoffs: CutoffFamily, m: float, step: int, S: int, radius: int) -> "SpectralGrid":
        return cls(cutoffs, m, 2.0 * np.pi * np.fft.fftfreq(S) / step, step, radius)

    @property
    def lam(self) -> np.ndarray:
        """Laplacian symbol on the folded grid (built on each access)."""
        return laplacian_symbol(self.p0, self.p1)

    @property
    def u(self) -> np.ndarray:
        """m^2 + lam on the folded grid (built on each access)."""
        return self.m * self.m + self.lam

    @property
    def y(self) -> np.ndarray:
        """Window positions step*z, |z| <= radius, along one axis."""
        return self.step * np.arange(-self.radius, self.radius + 1, dtype=float)

    @property
    def y_sq(self) -> np.ndarray:
        """Euclidean |y|^2 over the window."""
        y2 = self.y**2
        return y2[:, None] + y2[None, :]

    def unfold(self, A: np.ndarray) -> np.ndarray:
        """A folded-grid array on the full S x S grid; full-grid arrays pass through."""
        if A.shape[0] == self.S:
            return A
        return A[np.ix_(self.idx, self.idx)]

    # -- bands --

    def _mirror(self, t: np.ndarray) -> np.ndarray:
        """The folded-grid array of the triangle array t (row i holds columns 0..i)."""
        n = len(self.p_fold)
        out = np.empty((n, n))
        start = 0
        for i in range(n):
            row = t[start : start + i + 1]
            out[i, : i + 1] = row
            out[:i, i] = row[:i]
            start += i + 1
        return out

    def _advance(self, h: int) -> FejerPass:
        """The band pass on the triangle, stepped on to order h.

        It restarts when h lies behind it.  The triangle's u is m^2 plus the
        two axis terms of lam, a[i] + a[k], added in the same order as in
        lam itself.
        """
        if self._pass is None or h < self._pass.h:
            a = laplacian_symbol(self.p_fold, 0.0)  # the axis term: sin(0) adds an exact 0
            lam = np.concatenate([a[i] + a[: i + 1] for i in range(len(a))])
            self._pass = FejerPass(self.cutoffs.kappas, self.m * self.m + lam, self.b)
        self._pass.advance(h)
        return self._pass

    def residual(self, h: int) -> np.ndarray:
        """r_h on the folded grid, continuing the pass of the bands."""
        return self._mirror(self._advance(h).r)

    def _band_sum(self, hs: tuple[int, ...]) -> np.ndarray:
        n = len(self.p_fold)
        out = np.zeros(n * (n + 1) // 2)
        for h in hs:
            out += self._advance(h).band()
        return self._mirror(out)

    def band(self, hs) -> np.ndarray:
        """sum_{h in hs} psi_h on the folded grid, cached per fine-scale list."""
        hs = tuple(sorted(hs))
        if hs not in self._bands:
            self._bands[hs] = self._band_sum(hs)
        return self._bands[hs]

    def fill(self, groups):
        """Cache the band of each fine-scale list, then drop the pass state.

        For a grid whose bands are all known up front: a later band or
        residual outside the cache restarts the pass.
        """
        for hs in groups:
            self.band(hs)
        self._pass = None

    def bands(self, groups):
        """Yield the folded band of each fine-scale list in turn, without caching."""
        for hs in groups:
            yield self._band_sum(tuple(sorted(hs)))

    # -- symbols and sums --

    def diff_symbol(self, deriv: tuple[int, ...]) -> np.ndarray:
        """prod_d (e^{i p.e_d} - 1) on the full grid: the symbol of the forward differences along DIRS[d]."""
        out = None
        for d in deriv:
            s0, s1 = DIRS[d]
            ph = np.exp(1j * (s0 * self.p[:, None] if s1 == 0 else s1 * self.p[None, :])) - 1.0
            out = ph if out is None else out * ph
        return out

    def parseval(self, *factors: np.ndarray) -> float:
        """(2 pi)^-2 int prod(factors) dp over the zone, as the grid mean.

        The factors are folded-grid arrays even in each momentum component
        (bands and real symbols of p0, p1); the mean over the full grid is
        w @ prod @ w / S^2.  For kernels K_a, K_b with spectral arrays G_a,
        G_b, parseval(G_a, G_b) is sum_y K_a(y) K_b(y) and parseval(G_a) is
        K_a(0); exact when the grid spans the support of the product (no
        position aliasing).
        """
        prod = factors[0]
        for f in factors[1:]:
            prod = prod * f
        return float(self.w @ prod @ self.w) / (self.S**2 * self.weight)

    def alias_bound(self, hs, symbol=None) -> float:
        """Bound on the dropped Brillouin-zone aliases of band hs (0 at step 1).

        max |symbol * band| over the eight first-ring alias cells of the
        decimated zone, probed on ALIAS_PROBE_POINTS^2 points per cell; the
        nested-Fejer tails decay faster than geometrically from there, so
        twice the first ring bounds the full dropped sum.
        """
        if self.step == 1:
            return 0.0
        probe = np.linspace(-np.pi, np.pi, ALIAS_PROBE_POINTS)
        ring = SpectralGrid(self.cutoffs, self.m, np.concatenate([(probe + 2.0 * np.pi * a) / self.step for a in (-1, 0, 1)]))
        vals = np.abs(ring.band(hs) if symbol is None else symbol(ring.p0, ring.p1) * ring.band(hs))
        n = ALIAS_PROBE_POINTS
        vals[n : 2 * n, n : 2 * n] = 0.0  # the kept central cell
        return 2.0 * 8.0 * float(vals.max()) / self.weight

    # -- position space --

    def window(self, G: np.ndarray) -> np.ndarray:
        """Kernel of the spectral array G at y = step*z, |z|_inf <= radius.

        A complex G spans the full grid.  A real G is a band on the folded
        grid, even in each momentum component, so the first S//2 + 1
        columns of its row-unfolded array are a full half spectrum, whose
        real inverse FFT gives the kernel at half the cost of the complex
        one.
        """
        if np.iscomplexobj(G):
            K = np.fft.ifft2(G).real
        else:
            K = np.fft.irfft2(G[self.idx][:, : self.S // 2 + 1], s=(self.S, self.S))
        z = np.arange(-self.radius, self.radius + 1) % self.S
        W = K[np.ix_(z, z)]
        W /= self.weight
        return W

    def zoom(self, G: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Kernel of the spectral array G at the product points ys x ys, off the grid.

        A complex G spans the full grid; a real G is a folded band, even in
        each momentum component, and takes two weighted cosine transforms
        over the folded axis.
        """
        ys = np.asarray(ys, dtype=float)
        if np.iscomplexobj(G):
            ph = np.exp(1j * np.outer(ys, self.p))
            return (ph @ (G @ ph.T)).real / (self.S**2 * self.weight)
        ph = np.cos(np.outer(ys, self.p_fold)) * self.w
        return ph @ (G @ ph.T) / (self.S**2 * self.weight)


# ---------------------------------------------------------------------------
# window synthesis


@dataclass(frozen=True)
class Window:
    """Kernel values on the decimated window y = step*z + shift, |z|_inf <= radius.

    values[z0 + radius, z1 + radius] is the kernel at y = step*(z0, z1) + shift.
    alias_bound is a rigorous-side estimate of the absolute error from the
    dropped Brillouin-zone aliases (zero when step == 1).
    """

    values: np.ndarray
    step: int
    radius: int
    shift: tuple[int, int]
    alias_bound: float

    def at(self, z0: int, z1: int) -> float:
        return float(self.values[z0 + self.radius, z1 + self.radius])


def band_window(
    cutoffs: CutoffFamily,
    m: float,
    h_list,
    *,
    step: int = 1,
    radius: int | None = None,
    shift: tuple[int, int] = (0, 0),
    deriv: tuple[int, ...] = (),
) -> Window:
    """Synthesize sum_{h in h_list} (d^deriv C_h)(step*z + shift) on a window.

    radius is in z units; default covers the full kernel support.  The
    synthesis is exact for step == 1; for step > 1 the central alias of the
    folded zone is kept and the remainder is bounded (Window.alias_bound).
    """
    h_list = sorted(h_list)
    supp = max(cutoffs.band_degree(h) for h in h_list)
    extent = supp + max(abs(shift[0]), abs(shift[1])) + len(deriv)
    if radius is None:
        radius = -(-extent // step)
    S = sfft.next_fast_len(max(2 * radius + 1, 2 * (-(-extent // step)) + 1), real=False)
    grid = SpectralGrid.decimated(cutoffs, m, step, S, radius)
    G = grid.band(h_list)
    if deriv:
        G = grid.unfold(G) * grid.diff_symbol(deriv)
    if shift != (0, 0):
        G = grid.unfold(G) * np.exp(1j * (grid.p[:, None] * shift[0] + grid.p[None, :] * shift[1]))
    return Window(values=grid.window(G), step=step, radius=radius, shift=tuple(shift),
                  alias_bound=grid.alias_bound(h_list))


# ---------------------------------------------------------------------------
# covariance stack


@dataclass
class CovarianceStack:
    """Per-scale covariances Gamma_j and the massive tail on a torus.

    Tables are materialized only when the torus side is small enough; all
    per-scale data remains available through the per-scale spectral grids,
    so large-L^j coefficient sums never need a full table.
    """

    lattice: TorusLattice
    cutoffs: CutoffFamily
    gamma_tables: list[np.ndarray] | None
    tail_table: np.ndarray | None
    tail_is_normalized: bool
    psd_tol: float = PSD_TOL
    leakage_tol: float = LEAKAGE_TOL
    _cache: dict = field(default_factory=dict, repr=False)

    # -- scale bookkeeping --

    @property
    def n_scales(self) -> int:
        return self.lattice.R

    def fine_scales(self, j: int) -> list[int]:
        M = self.lattice.M
        return list(range(j * M, (j + 1) * M))

    def support_radius(self, j: int) -> int:
        """Gamma_j vanishes identically for |x|_inf > this radius."""
        return max(self.cutoffs.band_degree(h) for h in self.fine_scales(j))

    def _check_scale(self, j: int):
        if not (0 <= j < self.n_scales):
            raise ValueError(f"scale {j} outside 0..{self.n_scales - 1}")

    # -- spectral grids --

    def grid(self, n: int) -> SpectralGrid:
        """The decimated grid of scale n, holding the bands of scales 0..n.

        It resolves scale n at its natural step, and its window spans the
        scale-n support plus a margin of two sites: windows of scales <= n
        read off it, and, because the period S*step exceeds twice the
        support, products of two such kernels sum by Parseval without
        position aliasing.  Cached on the stack.
        """
        key = ("grid", n)
        if key not in self._cache:
            step = natural_step(self.cutoffs, n * self.lattice.M)
            radius = -(-(self.support_radius(n) + 2) // step)
            g = SpectralGrid.decimated(self.cutoffs, self.lattice.m, step, _odd_fast_len(2 * radius + 3), radius)
            g.fill(self.fine_scales(k) for k in range(n + 1))
            self._cache[key] = g
        return self._cache[key]

    def kernel(self, j: int, n: int, deriv: tuple[int, ...] = ()) -> np.ndarray:
        """(d^deriv Gamma_j)(y) at the window points y of the scale-n grid.

        Read off the scale-n grid's FFT only when that grid both holds the
        support of Gamma_j and samples at least as finely as Gamma_j's own
        grid; the local FFT would otherwise position-alias a wide kernel or
        momentum-alias a fine one, so Gamma_j is zoom-evaluated on its own
        grid instead.  Cached on the stack.
        """
        key = ("kernel", j, n, deriv)
        if key not in self._cache:
            g = self.grid(n)
            fits = self.support_radius(j) + 2 <= g.radius * g.step
            resolved = g.step <= natural_step(self.cutoffs, j * self.lattice.M)
            src = g if fits and resolved else self.grid(j)
            G = src.band(self.fine_scales(j))
            if deriv:
                G = src.unfold(G) * src.diff_symbol(deriv)
            self._cache[key] = src.window(G) if src is g else src.zoom(G, g.y)
        return self._cache[key]

    # -- values --

    def gamma_table(self, j: int) -> np.ndarray:
        self._check_scale(j)
        if self.gamma_tables is None:
            raise DecompositionError("stack not materialized; use windows or diagonals")
        return self.gamma_tables[j]

    def window(self, j: int, *, step=None, radius=None, shift=(0, 0), deriv=()) -> Window:
        """Gamma_j (optionally differenced) on a decimated window."""
        self._check_scale(j)
        hs = self.fine_scales(j)
        if step is None:
            step = natural_step(self.cutoffs, hs[0])
        return band_window(
            self.cutoffs, self.lattice.m, hs, step=step, radius=radius, shift=shift, deriv=deriv
        )

    def gamma0(self, j: int) -> float:
        """Gamma_j(0): the table entry, or the Parseval sum on the scale-j grid."""
        self._check_scale(j)
        if self.gamma_tables is not None:
            return float(self.gamma_tables[j][0, 0])
        key = ("g0", j)
        if key not in self._cache:
            g = self.grid(j)
            self._cache[key] = g.parseval(g.band(self.fine_scales(j)))
        return self._cache[key]

    def prefix_diag(self, j_hi: int, j_lo: int) -> float:
        """Gamma_{j_hi, j_lo}(0) = sum_{n=j_lo}^{j_hi} Gamma_n(0); 0 if empty."""
        if j_hi < j_lo:
            return 0.0
        return sum(self.gamma0(n) for n in range(j_lo, j_hi + 1))

    # -- invariant evaluation --

    def psd_margins(self) -> list[float]:
        """Min Fourier mode of each Gamma_j over the torus momenta.

        decompose records these from the bands it builds the tables from.
        Otherwise the bands are evaluated here on a throwaway grid: the
        torus momenta, or for tori above PROBE_SIDE the folded probe grid
        2 pi fftfreq(PROBE_SIDE) (the bands are nonnegative by construction;
        this is a numerical confirmation, not the proof).
        """
        if "psd" not in self._cache:
            if self.lattice.side <= PROBE_SIDE:
                k = self.lattice.momenta()
            else:
                k = 2.0 * np.pi * np.fft.fftfreq(PROBE_SIDE)
            grid = SpectralGrid(self.cutoffs, self.lattice.m, k)
            groups = [self.fine_scales(j) for j in range(self.n_scales)]
            self._cache["psd"] = [float(G.min()) for G in grid.bands(groups)]
        return list(self._cache["psd"])

    def telescoping_error(self) -> float:
        """Max |sum_j Gamma_j + tail - W| relative to |W(0)| (normalized form at m=0)."""
        if self.gamma_tables is None:
            raise DecompositionError("materialized tables required")
        total = np.zeros_like(self.gamma_tables[0])
        for t in self.gamma_tables:
            total = total + t
        if not self.tail_is_normalized:
            total = total + self.tail_table
            ref = yukawa_table(self.lattice)
            return float(np.max(np.abs(total - ref)) / abs(ref[0, 0]))
        # normalized: W(x|0) = sum_j [Gamma_j(x) - Gamma_j(0)] + tail(x)
        total = total - total[0, 0] + self.tail_table
        ref = normalized_potential_table(self.lattice)
        scale = float(np.max(np.abs(ref)))
        return float(np.max(np.abs(total - ref)) / scale)

    def leakage(self, j: int) -> float:
        """max_{|x| >= L^(j+1)/2} |Gamma_j(x)| / Gamma_j(0)."""
        self._check_scale(j)
        t = self.gamma_table(j)
        side = self.lattice.side
        half = (side - 1) // 2
        c = np.arange(side)
        c = np.where(c <= half, c, c - side)
        rr = np.maximum(np.abs(c)[:, None], np.abs(c)[None, :])
        cut = self.lattice.L ** (j + 1) / 2.0
        mask = rr >= cut
        if not mask.any():
            return 0.0
        return float(np.max(np.abs(t[mask])) / t[0, 0])

    def validate(self):
        """PSD + leakage gates; raises DecompositionError naming the scale.

        The comparisons are written so that a NaN fails them.
        """
        for j, margin in enumerate(self.psd_margins()):
            if not (margin >= -self.psd_tol):
                raise DecompositionError(f"negative Fourier mode {margin:.3e} in Gamma_{j}")
        if self.gamma_tables is not None:
            for j in range(self.n_scales):
                leak = self.leakage(j)
                if not (leak <= self.leakage_tol):
                    raise DecompositionError(f"leakage {leak:.3e} beyond L^{j + 1}/2 in Gamma_{j}")
        return self


MATERIALIZE_CAP = 2187  # largest torus side for which full tables are built


def _table(G: np.ndarray) -> np.ndarray:
    """The real part of the inverse FFT of G, as its own array.

    A bare .real view would keep the complex transform, twice the table's
    size, alive for as long as the table.
    """
    return np.fft.ifft2(G).real.copy()


def decompose(lattice: TorusLattice, cutoffs: CutoffFamily | None = None, *, materialize: bool | None = None) -> CovarianceStack:
    """Build the covariance stack for the torus; validates PSD and leakage.

    The tables, the PSD margins and the tail come from one pass over the
    bands on the torus momenta, folded like any other grid; each array is
    unfolded before its inverse FFT.
    """
    if cutoffs is None:
        cutoffs = build_cutoffs(lattice.gamma, lattice.M, lattice.n_fine_scales)
    if cutoffs.horizon < lattice.n_fine_scales:
        raise ValueError("cutoff horizon shorter than the torus scale count")
    if materialize is None:
        materialize = lattice.side <= MATERIALIZE_CAP

    tables = None
    tail = None
    normalized = lattice.m == 0.0
    margins = None
    if materialize:
        if lattice.side > MATERIALIZE_CAP:
            raise DecompositionError(
                f"torus side {lattice.side} too large to materialize (cap {MATERIALIZE_CAP})"
            )
        grid = SpectralGrid(cutoffs, lattice.m, lattice.momenta())
        tables, margins = [], []
        groups = [range(j * lattice.M, (j + 1) * lattice.M) for j in range(lattice.R)]
        for vals in grid.bands(groups):
            tables.append(_table(grid.unfold(vals)))
            margins.append(float(vals.min()))
        r = grid.residual(cutoffs.horizon)
        if normalized:
            lam = grid.lam
            dens = np.zeros_like(lam)
            mask = lam > 0
            dens[mask] = r[mask] / lam[mask]
            t = _table(grid.unfold(dens))
            tail = t - t[0, 0]
        else:
            tail = _table(grid.unfold(r / grid.u))

    stack = CovarianceStack(
        lattice=lattice,
        cutoffs=cutoffs,
        gamma_tables=tables,
        tail_table=tail,
        tail_is_normalized=normalized,
    )
    if margins is not None:
        stack._cache["psd"] = margins
    return stack.validate()


# ---------------------------------------------------------------------------
# serialization (bit-exact round trip via hex floats)

STACK_HEADER = "# ktrg covariance stack v2"
STACK_COLUMNS = "scale,x0,values"


def write_stack(stack: CovarianceStack, path: str):
    """Write the materialized tables of stack to path, one line per table row (layout v2).

    The file is text: the version line STACK_HEADER, three metadata lines

        # L=3 R=5 gamma=3 M=1 m=<float.hex of m>
        # psd_tol=1e-10 leakage_tol=1e-06
        # tail_is_normalized=0

    the column line STACK_COLUMNS, then (R + 1) * side lines

        j,x0,h_0,...,h_{side-1}

    in scale order and x0 order within a scale, where h_x1 is float.hex of
    table j at (x0, x1) and scale j = R is the tail.  Hex floats make the
    round trip bit-exact, signed zeros and subnormals included.  Each row
    is converted on its own, so no Python copy of a whole table is made.
    """
    if stack.gamma_tables is None:
        raise DecompositionError("only materialized stacks serialize to tables")
    lat = stack.lattice
    with open(path, "w", newline="\n") as f:
        f.write(f"{STACK_HEADER}\n")
        f.write(f"# L={lat.L} R={lat.R} gamma={lat.gamma} M={lat.M} m={lat.m.hex()}\n")
        f.write(f"# psd_tol={stack.psd_tol!r} leakage_tol={stack.leakage_tol!r}\n")
        f.write(f"# tail_is_normalized={int(stack.tail_is_normalized)}\n")
        f.write(f"{STACK_COLUMNS}\n")
        for j, t in enumerate([*stack.gamma_tables, stack.tail_table]):
            for x0 in range(lat.side):
                f.write(f"{j},{x0},{','.join(map(float.hex, t[x0].tolist()))}\n")


def _header_tol(path: str, meta: dict, key: str, bound: float) -> float:
    """The file's gate tolerance key: absent means bound, and it may only tighten it."""
    if key not in meta:
        return bound
    tol = float(meta[key])
    if not (math.isfinite(tol) and tol <= bound):
        raise DecompositionError(f"{path}: header {key}={meta[key]} is non-finite or looser than {bound:.0e}")
    return tol


def _malformed(path: str, lineno: int, fields: list[str], side: int) -> str:
    """Why data line lineno does not parse, without echoing the line."""
    try:
        where = f" (scale, x0) = ({int(fields[0])}, {int(fields[1])})"
    except (ValueError, IndexError):
        where = ""
    msg = f"{path}: line {lineno}: malformed row{where}, {len(fields)} fields"
    if len(fields) != side + 2:
        return f"{msg} (expected {side + 2})"
    for k, v in enumerate(fields[2:]):
        try:
            float.fromhex(v)
        except ValueError:
            return f"{msg}, value {k} is not a hex float"
        if "0x" not in v:
            return f"{msg}, value {k} has no 0x prefix"
    return msg


def read_stack(path: str) -> CovarianceStack:
    """Read a write_stack file back, bit-exact, and check it.

    The first line must be STACK_HEADER.  Exactly one row per (scale, x0)
    with scale 0..R (R is the tail) is required, each with side hex
    floats written with their 0x prefix; header tolerances may tighten the
    PSD and leakage gates but not loosen them.  The stack then has to pass validate() and the
    telescoping check.  Failures raise DecompositionError naming the path.
    """
    with open(path) as f:
        first = f.readline().rstrip("\n")
        if first != STACK_HEADER:
            raise DecompositionError(
                f"{path}: first line {first[:60]!r} is not {STACK_HEADER!r}; "
                "regenerate the file with `ktrg decompose`"
            )
        meta = {}
        lineno = 1
        line = ""
        for line in f:
            lineno += 1
            if not line.startswith("#"):
                break
            for tok in line[1:].split():
                if "=" in tok:
                    k, v = tok.split("=", 1)
                    meta[k] = v
        if line.rstrip("\n") != STACK_COLUMNS:
            raise DecompositionError(f"{path}: line {lineno}: expected the column line {STACK_COLUMNS!r}")
        try:
            L, R, gamma = int(meta["L"]), int(meta["R"]), int(meta["gamma"])
            m = float.fromhex(meta["m"]) if "0x" in meta["m"] else float(meta["m"])
            lat = TorusLattice(L=L, R=R, gamma=gamma, m=m)
            normalized = bool(int(meta.get("tail_is_normalized", "0")))
            psd_tol = _header_tol(path, meta, "psd_tol", PSD_TOL)
            leakage_tol = _header_tol(path, meta, "leakage_tol", LEAKAGE_TOL)
        except (KeyError, ValueError) as e:
            raise DecompositionError(f"{path}: bad or missing header entry {e}") from e
        side = lat.side
        tables = np.empty((R + 1, side, side))
        seen = np.zeros((R + 1, side), dtype=bool)
        for lineno, line in enumerate(f, lineno + 1):
            fields = line.split(",")
            try:
                # float.fromhex also reads '0.5' (as 0x0.5); every value must carry the prefix
                if len(fields) != side + 2 or line.count("0x") != side:
                    raise ValueError
                key = (int(fields[0]), int(fields[1]))
                row = list(map(float.fromhex, fields[2:]))
            except ValueError:
                raise DecompositionError(_malformed(path, lineno, fields, side)) from None
            if not (0 <= key[0] <= R and 0 <= key[1] < side):
                raise DecompositionError(f"{path}: line {lineno}: row (scale, x0) = {key} out of range")
            if seen[key]:
                raise DecompositionError(f"{path}: line {lineno}: duplicated row (scale, x0) = {key}")
            seen[key] = True
            tables[key] = row
    if not seen.all():
        first_missing = tuple(int(i) for i in np.argwhere(~seen)[0])
        raise DecompositionError(
            f"{path}: {int((~seen).sum())} rows missing, first (scale, x0) = {first_missing}"
        )
    cut = build_cutoffs(gamma, lat.M, lat.n_fine_scales)
    stack = CovarianceStack(
        lattice=lat,
        cutoffs=cut,
        gamma_tables=list(tables[:R]),
        tail_table=tables[R],
        tail_is_normalized=normalized,
        psd_tol=psd_tol,
        leakage_tol=leakage_tol,
    )
    try:
        stack.validate()
    except DecompositionError as e:
        raise DecompositionError(f"{path}: {e}") from e
    err = stack.telescoping_error()
    if not (err <= TELESCOPING_TOL):
        raise DecompositionError(f"{path}: telescoping error {err:.3e} above {TELESCOPING_TOL:.0e}")
    return stack
