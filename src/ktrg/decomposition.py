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
whose inverse FFT gives kernel values at y = step*z).  A grid evaluates
bands only by a FejerPass over its triangle points, which steps forward
through the residual products r_h: each consumer sums its fine-scale lists
in increasing order on one pass (FejerPass.band_sum).  decompose, the PSD
probe, the alias ring and band_window each run one pass over the whole
triangle.  A grid also owns the only probe of the dropped Brillouin-zone
aliases, window extraction, evaluation off the grid and Parseval sums.  The
stack keeps one decimated grid per scale (CovarianceStack.grid), on which
the coefficient sums of coefficients.py are evaluated.  The scale-n grid is
filled by a band pass over blocks of triangle rows (SpectralGrid.band_pass),
one FejerPass per block through the fine orders of scales 0..n; the grid
keeps the band of scale n only, as psi, with the Parseval sums of lam and
lam^2 times it and each lower band, which b_n and e3_n read.  Right after
the pass it takes the sums of psi at the origin once: Gamma_n(0) (where the
stack has no tables) and the second differences dd and opposite, which
e2_n and e4_n read; the grid then holds no array but psi.  Decimation
keeps only the central copy of the folded fine zone; the dropped aliases
are bounded at runtime and the bound is reported with each window (the
bands decay fast enough that 243 samples per scale keep the bound near
1e-11).

Bands depend on p only through lam(p) = 4 sin^2(p0/2) + 4 sin^2(p1/2), so
they are even in each momentum component and symmetric under p0 <-> p1, and
a grid folds itself by these symmetries of the square (the 8-fold D4 fold).
When its axis has odd length S and pairs every momentum with its exact
negative, p[S-k] = -p[k] (the fftfreq layout of every per-scale grid, of
the PSD probe and of the torus momenta), the folded grid is the quarter
p0, p1 >= 0: n = S//2 + 1 points per axis, carrying multiplicity weights
w = (1, 2, 2, ...).  Any other axis (an even-length one, the alias ring)
takes the trivial fold, weights 1, through the same code.  On either, lam
is bit-for-bit symmetric under the swap, so the band pass runs on the
triangle p1 <= p0 of the folded grid, and its bands, residuals and lam stay
there as triangle arrays: rows packed, row i holding columns 0..i,
n(n+1)/2 values, half the folded square.  The folded grid holds the same
momenta as the full one, so its bands are bit-identical to a pass over the
full grid.  Every spectral array of the package is such a real triangle
band: the covariances are real and even, and the second differences at the
origin that the coefficients need are real closed-form symbols.

Parseval sums run on the triangle: the weights are w_i w_k, doubled off the
diagonal, built for each sum and dropped after it, and the weighted product
goes through numpy's pairwise np.sum.
That is the full sum only for integrands symmetric under the swap, so every
factor must be a triangle array: a band, lam, or a symmetric combination of
one-axis terms (SpectralGrid.outer); a one-axis symbol f(p0) is summed as
(f(p0) + f(p1))/2, which the symmetric bands sum alike.  Only zoom, the
alias ring and decompose's tables build a band's folded square (_mirror),
and drop it after the call.  window builds none:
the square is symmetric, so the blocks of columns that the synthesis's first
transform reads are its rows, unpacked from the triangle one block at a time
(_square_rows).

Position space folds the same way.  The kernel of a band is even in each
coordinate, so its window is the quarter Q[z0, z1], 0 <= z <= radius, at
the positions y = step*z with multiplicities (1, 2, 2, ...) in the full
window; it comes from one real inverse FFT per folded axis
(lattice._half_synthesis: both along the contiguous axis, a block of lines
at a time, writing only the quarter), and a zoom is evaluated at the r + 1
nonnegative positions only.  Sums over the full window of even summands
are m @ F @ m on the quarter (window_sum), and their |y|^2 moments,
|y|^2 = y0^2 + y1^2, two products of F with a vector (window_moment).  The
full window |z|_inf <= radius is built only where band_window hands it
out, as the mirror of a quarter through the index |z| (full_window).  A materialized
table is lattice.folded_table of its folded square: the same two real
inverse transforms, on rows 0..S//2 of the torus, and row x past them a
copy of row S - x; the torus side L^R is odd, so its grid always folds.
The reference potentials of the telescoping check come from the same
synthesis.

The stack file holds float.hex text.  write_stack encodes it from the IEEE
bits with numpy lookup tables, byte for byte as float.hex would, a block of
rows at a time; read_stack parses it back with float.fromhex.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .cutoffs import CutoffFamily, FejerPass, build_cutoffs
from .lattice import (
    TorusLattice, _half_synthesis, folded_table, laplacian_symbol, normalized_potential_table, yukawa_table,
)

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

# triangle points per block of the scale-grid band pass (SpectralGrid.band_pass):
# each of the block's arrays holds about 0.5 MB
BAND_BLOCK = 65536


class DecompositionError(RuntimeError):
    """A refused input; a failed gate of validate() also sets its check ("psd" or "leakage"),
    the scale, the value as verify-all measures it (-margin or the leakage) and the tolerance."""

    def __init__(self, message: str, check: str | None = None, scale: int | None = None,
                 value: float | None = None, tol: float | None = None):
        super().__init__(message)
        self.check, self.scale, self.value, self.tol = check, scale, value, tol


def _odd_fast_len(n: int) -> int:
    """Smallest length >= n whose only prime factors are 3, 5, 7 and 11.

    These are the odd lengths among pocketfft's 11-smooth fast sizes; an odd
    length keeps the momentum grid +/- symmetric.  Each product of powers of
    11, 7 and 5 below the best length so far is raised by powers of 3 to >= n.
    """
    best = 3 * n  # exceeds the smallest power of 3 that is >= n
    f11 = 1
    while f11 < best:
        f7 = f11
        while f7 < best:
            f5 = f7
            while f5 < best:
                f3 = f5
                while f3 < n:
                    f3 *= 3
                best = min(best, f3)
                f5 *= 5
            f7 *= 7
        f11 *= 11
    return best


def natural_step(cutoffs: CutoffFamily, h_min: int) -> int:
    """Decimation step resolving fine scale h_min with 3^SAMPLES_EXP samples."""
    return max(1, cutoffs.gamma ** max(0, h_min - SAMPLES_EXP))


# ---------------------------------------------------------------------------
# the spectral grid


def _tri(n: int) -> int:
    """Entries in the first n rows of a packed triangle: row i holds i + 1."""
    return n * (n + 1) // 2


def _row_blocks(n: int, size: int):
    """Consecutive ranges of the triangle rows 0..n-1, each of at most size
    points, or of one row where a row alone holds more."""
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and _tri(stop + 1) - _tri(start) <= size:
            stop += 1
        yield range(start, stop)
        start = stop


def _fold(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(folded axis, multiplicity weights) of the momentum axis p.

    An odd-length axis with p[S-k] == -p[k] for k = 1..S-1 folds onto its
    first n = S//2 + 1 entries with weights (1, 2, 2, ...); any other axis
    folds trivially onto itself.
    """
    S = len(p)
    if S % 2 == 0 or not np.array_equal(p[:0:-1], -p[1:]):
        return p, np.ones(S)
    n = S // 2 + 1
    w = np.full(n, 2.0)
    w[0] = 1.0
    return p[:n], w


class SpectralGrid:
    """Bands of a cutoff family on the product momentum grid p x p.

    p holds fine-lattice momenta.  A decimated grid (step > 1) samples the
    central Brillouin zone of step*Z^2, so the inverse FFT of a spectral
    array gives step^2 times its kernel at y = step*z; windows cover the
    quarter 0 <= z0, z1 <= radius.  Bands are evaluated by a FejerPass over
    triangle points (fejer_pass), which steps forward through the fine
    orders only: each consumer sums its fine-scale lists, in increasing
    order, on one pass (FejerPass.band_sum).  A grid keeps one band, psi,
    the one its band_pass leaves.

    Bands, residuals and lam are triangle arrays: the values on the
    triangle k <= i of the folded grid over the axis p_fold, rows packed
    (row i holds columns 0..i), n(n+1)/2 of them (see the module
    docstring).  _mirror builds the folded square of one, with weights w
    per axis.
    """

    def __init__(self, cutoffs: CutoffFamily, m: float, p: np.ndarray, step: int = 1, radius: int = 0):
        self.cutoffs = cutoffs
        self.m = m
        self.b = m * m + 8.0
        self.p = p
        self.S = len(p)
        self.p_fold, self.w = _fold(p)
        self.p0 = self.p_fold[:, None]
        self.p1 = self.p_fold[None, :]
        self.step = step
        self.radius = radius
        self.weight = float(step) ** 2
        self.psi: np.ndarray | None = None  # set by band_pass
        self.lam_sums: list[float] | None = None
        self.lam2_sums: list[float] | None = None
        # Parseval sums of psi, taken once after band_pass (CovarianceStack.grid)
        self.origin: float | None = None  # the kernel of psi at y = 0
        self.dd: float | None = None
        self.opposite: float | None = None

    @classmethod
    def decimated(cls, cutoffs: CutoffFamily, m: float, step: int, S: int, radius: int) -> "SpectralGrid":
        return cls(cutoffs, m, 2.0 * np.pi * np.fft.fftfreq(S) / step, step, radius)

    def outer(self, ufunc, a: np.ndarray, rows: range | None = None) -> np.ndarray:
        """The triangle array of ufunc(a[i], a[k]): ufunc.outer(a, a) on k <= i, rows packed.

        a holds one value per folded momentum; for a symmetric ufunc (add,
        multiply) the result is a function of the two axes symmetric under
        the swap, as every triangle array is.  rows (default all) is a range
        of triangle rows i: the result is then the piece of the full one
        that holds those rows, at its packed offset.
        """
        if rows is None:
            rows = range(len(a))
        out = np.empty(_tri(rows.stop) - _tri(rows.start))
        start = 0
        for i in rows:
            ufunc(a[i], a[: i + 1], out=out[start : start + i + 1])
            start += i + 1
        return out

    def _lam(self, rows: range | None = None) -> np.ndarray:
        """Laplacian symbol on the triangle rows in rows (default all), a new array.

        The two axis terms a[i] + a[k], added in the same order as in
        laplacian_symbol itself, so these are its values on the folded grid
        bit for bit.
        """
        return self.outer(np.add, laplacian_symbol(self.p_fold, 0.0), rows)  # sin(0) adds an exact 0

    def fejer_pass(self, lam: np.ndarray | None = None) -> FejerPass:
        """A FejerPass at order 0 over u = m^2 + lam, lam the Laplacian symbol
        on some triangle rows (_lam; default the whole triangle)."""
        if lam is None:
            lam = self._lam()
        return FejerPass(self.cutoffs.kappas, self.m * self.m + lam, self.b)

    @property
    def y(self) -> np.ndarray:
        """Quarter-window positions step*z, 0 <= z <= radius, along one axis."""
        return self.step * np.arange(self.radius + 1, dtype=float)

    @property
    def y_mult(self) -> np.ndarray:
        """Multiplicities (1, 2, 2, ...) of the quarter positions in the full window."""
        m = np.full(self.radius + 1, 2.0)
        m[0] = 1.0
        return m

    def full_window(self, Q: np.ndarray) -> np.ndarray:
        """The quarter array Q mirrored onto the full window |z|_inf <= radius (index |z|)."""
        a = np.abs(np.arange(-self.radius, self.radius + 1))
        return Q[np.ix_(a, a)]

    # -- bands --

    def _square_rows(self, t: np.ndarray, s: int, e: int) -> np.ndarray:
        """Rows s..e-1 of the folded square of the triangle array t, a new (e - s) x n array.

        Entry (i, k) is t at triangle row max(i, k), column min(i, k): the
        square is symmetric, so its row i is also its column i.  Columns
        k >= s are gathered as triangle rows k at column i, and each row's
        columns k < i are then copied as the slice of triangle row i.
        """
        n = len(self.p_fold)
        out = np.empty((e - s, n))
        out[:, s:] = t[_tri(np.arange(s, n)) + np.arange(s, e)[:, None]]
        for i in range(s, e):
            out[i - s, :i] = t[_tri(i) : _tri(i) + i]
        return out

    def _mirror(self, t: np.ndarray) -> np.ndarray:
        """The folded square of the triangle array t, a new array.

        Only zoom, the alias ring and decompose's tables build it, and drop
        it after the call; window reads the rows straight from t.  The mask
        of the triangle k <= i, whose row-major order is the order of the
        triangle arrays, is built for the call (an eighth of the square).
        """
        n = len(self.p_fold)
        lower = np.tri(n, dtype=bool)
        out = np.empty((n, n))
        out[lower] = t
        out.T[lower] = t
        return out

    def band_pass(self, groups):
        """Keep the band of the last fine-scale list as psi, with its Parseval sums against the others.

        groups are fine-scale lists in increasing order.  One pass runs over
        blocks of consecutive triangle rows, at most BAND_BLOCK points each
        (a row that alone holds more is a block): per block, lam and the
        weights come from outer on the block's rows, a FejerPass over its
        points sums each list's band (FejerPass.band_sum, each fine order
        once), and the bands of every list live only while the block does.
        The block's piece of the last band goes into psi, and the pairwise
        np.sum of W lam psi_k psi and of W lam^2 psi_k psi for each list k
        into two tables of block partials; math.fsum combines them into

            lam_sums[k] = parseval(lam, psi_k, psi),
            lam2_sums[k] = parseval(lam^2, psi_k, psi)

        up to the summation order.  The pass is elementwise, so psi is
        bit-identical to fejer_pass().band_sum(groups[-1]) on the whole
        triangle.
        """
        groups = list(groups)
        n = len(self.p_fold)
        psi = np.empty(_tri(n))
        lam_parts, lam2_parts = [[] for _ in groups], [[] for _ in groups]
        for rows in _row_blocks(n, BAND_BLOCK):
            lam = self._lam(rows)
            run = self.fejer_pass(lam)
            bands = [run.band_sum(hs) for hs in groups]
            last = bands[-1]
            psi[_tri(rows.start) : _tri(rows.stop)] = last
            W = self._pair_weights(rows)
            W_lam, W_lam2 = W * lam, W * lam**2
            for band, lam_part, lam2_part in zip(bands, lam_parts, lam2_parts):
                # multiplied in parseval's order: ((W lam) psi_k) psi
                prod = W_lam * band
                prod *= last
                lam_part.append(float(np.sum(prod)))
                np.multiply(W_lam2, band, out=prod)
                prod *= last
                lam2_part.append(float(np.sum(prod)))
        norm = self.S**2 * self.weight
        self.lam_sums = [math.fsum(parts) / norm for parts in lam_parts]
        self.lam2_sums = [math.fsum(parts) / norm for parts in lam2_parts]
        self.psi = psi

    # -- symbols and sums --

    def _pair_weights(self, rows: range | None = None) -> np.ndarray:
        """Multiplicity of each triangle point in the full grid: w_i w_k, doubled off the diagonal.

        On the triangle rows in rows (default all), packed as outer packs
        them.  Every entry is a power of two, so weighting a product is exact.
        """
        if rows is None:
            rows = range(len(self.w))
        W = self.outer(np.multiply, self.w, rows)
        W *= 2.0
        i = np.arange(rows.start, rows.stop)
        W[_tri(i + 1) - 1 - _tri(rows.start)] *= 0.5  # the diagonal k = i
        return W

    def _check_triangle(self, name: str, A) -> None:
        """Raise unless A is a real triangle array of this grid: 1-D, n(n+1)/2 entries."""
        size = _tri(len(self.p_fold))
        real = np.isrealobj(A)
        if not (real and np.ndim(A) == 1 and len(A) == size):
            raise DecompositionError(
                f"{name} takes real triangle arrays of {size} entries, "
                f"got {'an' if real else 'a complex'} array of shape {np.shape(A)}"
            )

    def parseval(self, *factors: np.ndarray) -> float:
        """(2 pi)^-2 int prod(factors) dp over the zone, as the grid mean.

        The factors are triangle arrays (bands, lam, and the symmetric
        symbols of outer), so the product is symmetric under p0 <-> p1 and
        even in each component, and its mean over the full grid is the
        weighted sum over the triangle, divided by S^2.  The sum is numpy's
        pairwise np.sum of the weighted product.  For kernels K_a, K_b with
        spectral arrays G_a, G_b, parseval(G_a, G_b) is sum_y K_a(y) K_b(y)
        and parseval(G_a) is K_a(0); exact when the grid spans the support
        of the product (no position aliasing).  A factor that is not a
        triangle array raises: a sum over the triangle is only the full
        sum for integrands symmetric under the swap.  The weights are built
        for the call and multiplied by each factor in place, so a sum holds
        one triangle besides its factors.
        """
        for f in factors:
            self._check_triangle("parseval", f)
        prod = self._pair_weights()
        for f in factors:
            prod *= f
        return float(np.sum(prod)) / (self.S**2 * self.weight)

    def second_differences(self) -> tuple[float, float]:
        """(dd, opposite): the second differences of the kernel of psi at the origin.

        dd is (d^mu d^mu K)(0) along one signed unit vector e_mu, and
        opposite is (d^mu d^nu K)(0) for e_nu = -e_mu; by the lattice
        symmetries neither depends on mu.  Each is one Parseval sum of psi
        against the real part of its difference symbol, in closed form with
        c = 2 sin^2(p/2) (the sine form keeps full relative accuracy as
        p -> 0, where 1 - cos p cancels): -2 cos(p) c for dd and 2c for
        opposite, along one axis.  The band is symmetric under p0 <-> p1, so
        a one-axis symbol f(p_a) sums like (f(p0) + f(p1))/2, the symmetric
        integrand that a sum over the triangle needs.
        """
        c = 2.0 * np.sin(0.5 * self.p_fold) ** 2
        dd = self.parseval(self.psi, self.outer(np.add, -np.cos(self.p_fold) * c))
        opposite = self.parseval(self.psi, self.outer(np.add, c))
        return dd, opposite

    def alias_bound(self, hs) -> float:
        """Bound on the dropped Brillouin-zone aliases of band hs (0 at step 1).

        max |band| over the eight first-ring alias cells of the decimated
        zone, probed on ALIAS_PROBE_POINTS^2 points per cell; the
        nested-Fejer tails decay faster than geometrically from there, so
        twice the first ring bounds the full dropped sum.
        """
        if self.step == 1:
            return 0.0
        probe = np.linspace(-np.pi, np.pi, ALIAS_PROBE_POINTS)
        ring = SpectralGrid(self.cutoffs, self.m, np.concatenate([(probe + 2.0 * np.pi * a) / self.step for a in (-1, 0, 1)]))
        vals = np.abs(ring._mirror(ring.fejer_pass().band_sum(hs)))
        n = ALIAS_PROBE_POINTS
        vals[n : 2 * n, n : 2 * n] = 0.0  # the kept central cell
        return 2.0 * 8.0 * float(vals.max()) / self.weight

    # -- position space --

    def window(self, G: np.ndarray) -> np.ndarray:
        """Kernel of the band G on the quarter window y = step*z, 0 <= z0, z1 <= radius.

        G is a triangle array (anything else raises), even in each momentum
        component, so its kernel is even in each coordinate: the quarter
        is the real synthesis of its folded square (lattice's
        _half_synthesis, cut to the quarter).  The square is symmetric, so
        the first transform's blocks are its rows, unpacked from G one
        block at a time (_square_rows); no square is built.  irfft reads
        the first S//2 + 1 entries of each axis, so the axis must start
        with the nonnegative momenta 2 pi k / (S step), k = 0..S//2, in
        order, as every folded axis does (and a trivially folded fftfreq
        axis of odd length); any other axis (the alias ring, an even-length
        fftfreq axis) raises.
        """
        self._check_triangle("window", G)
        h = self.S // 2 + 1
        k = self.p[:h] * (self.S * self.step / (2.0 * np.pi))
        if not np.allclose(k, np.arange(h), rtol=0.0, atol=1e-9):
            raise DecompositionError(
                f"real synthesis needs a folded grid; the axis of length {self.S} does not start with its momenta >= 0"
            )
        n = self.radius + 1
        K = _half_synthesis(lambda s, e: np.ascontiguousarray(self._square_rows(G, s, e)[:, :h]), n, n, n=h)
        K /= self.weight
        return K

    def window_sum(self, *factors: np.ndarray) -> float:
        """sum_y prod(factors)(y) step^2 over the full window, from quarter arrays.

        The factors are even in each coordinate (kernels of real bands and
        functions of |y0|, |y1|), so the full-window sum is m @ prod @ m
        with the multiplicities m = y_mult, as parseval is a weighted sum
        over the momentum triangle.
        """
        prod = factors[0]
        for f in factors[1:]:
            prod = prod * f
        m = self.y_mult
        return self.weight * float(m @ prod @ m)

    def window_moment(self, F: np.ndarray) -> float:
        """sum_y |y|^2 F(y) step^2 over the full window, from the quarter array F.

        |y|^2 = y0^2 + y1^2 separates: with the multiplicities m = y_mult the
        sum is (m y^2) @ F @ m + m @ F @ (m y^2), two products of F with a
        vector, so no window of |y|^2 or of its product with F is built.
        """
        m = self.y_mult
        my2 = m * self.y**2
        return self.weight * float(my2 @ (F @ m) + (m @ F) @ my2)

    def zoom(self, G: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Kernel of the band G at the product points ys x ys, off the grid.

        G is a triangle array (anything else raises), even in each momentum
        component, and takes two weighted cosine transforms over its folded
        square.  Its kernel is even in each coordinate, so it is only ever
        asked for at positions ys >= 0: the cosine rows of -y are those of y.
        """
        self._check_triangle("zoom", G)
        ph = np.cos(np.outer(np.asarray(ys, dtype=float), self.p_fold)) * self.w
        return ph @ (self._mirror(G) @ ph.T) / (self.S**2 * self.weight)


# ---------------------------------------------------------------------------
# window synthesis


@dataclass(frozen=True)
class Window:
    """Kernel values on the decimated window y = step*z, |z|_inf <= radius.

    values[z0 + radius, z1 + radius] is the kernel at y = step*(z0, z1).
    alias_bound is a rigorous-side estimate of the absolute error from the
    dropped Brillouin-zone aliases (zero when step == 1).
    """

    values: np.ndarray
    step: int
    radius: int
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
) -> Window:
    """Synthesize sum_{h in h_list} C_h(step*z) on the full window |z|_inf <= radius.

    radius is in z units; default covers the full kernel support.  The
    synthesis is exact for step == 1; for step > 1 the central alias of the
    folded zone is kept and the remainder is bounded (Window.alias_bound).
    """
    supp = -(-max(cutoffs.band_degree(h) for h in h_list) // step)
    if radius is None:
        radius = supp
    grid = SpectralGrid.decimated(cutoffs, m, step, _odd_fast_len(2 * max(radius, supp) + 1), radius)
    return Window(values=grid.full_window(grid.window(grid.fejer_pass().band_sum(h_list))), step=step, radius=radius,
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
        """The decimated grid of scale n, holding the band of scale n as psi.

        Its band pass (SpectralGrid.band_pass) runs through the fine orders
        of scales 0..n and also leaves the grid the Parseval sums of lam and
        lam^2 times band n and each band k <= n (lam_sums, lam2_sums), the
        only sums that pair scale n with finer scales.  The grid holds no
        other band.  Right after the pass, while the grid holds psi alone,
        its sums at the origin are taken once: Gamma_n(0) as origin (for a
        stack without tables, where gamma0 reads the grid) and the two
        second differences dd and opposite.  Each builds its pair weights
        and drops them, so the grid keeps no array but psi.

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
            g.band_pass(self.fine_scales(k) for k in range(n + 1))
            if self.gamma_tables is None:
                g.origin = g.parseval(g.psi)
            g.dd, g.opposite = g.second_differences()
            self._cache[key] = g
        return self._cache[key]

    def kernel(self, j: int, n: int) -> np.ndarray:
        """Gamma_j(y) at the window points y of the scale-n grid, j >= n.

        Gamma_j is even in each coordinate and comes back on the quarter
        window 0 <= z0, z1 <= radius (the grid's y).  Gamma_n is the window
        of the scale-n grid's band; a wider Gamma_j, j > n, would
        position-alias in that grid's FFT, so it is zoom-evaluated on its
        own grid at the scale-n positions.  A finer Gamma_j, j < n, raises:
        its grid's period is shorter than the scale-n window, so a zoom
        would alias.  Gamma_n is cached on the stack, since every coarser
        scale of the coefficient walk reads it; a zoom is not, since the
        walk reads each one once.
        """
        if j < n:
            raise ValueError(f"kernel of scale {j} on the coarser scale-{n} grid: only j >= n is served")
        if j > n:
            src = self.grid(j)
            return src.zoom(src.psi, self.grid(n).y)
        key = ("kernel", n, n)
        if key not in self._cache:
            g = self.grid(n)
            self._cache[key] = g.window(g.psi)
        return self._cache[key]

    # -- values --

    def gamma_table(self, j: int) -> np.ndarray:
        self._check_scale(j)
        if self.gamma_tables is None:
            raise DecompositionError("stack not materialized; use windows or diagonals")
        return self.gamma_tables[j]

    def gamma0(self, j: int) -> float:
        """Gamma_j(0): the table entry, or the Parseval sum the scale-j grid took after its band pass."""
        self._check_scale(j)
        if self.gamma_tables is not None:
            return float(self.gamma_tables[j][0, 0])
        return self.grid(j).origin

    def prefix_diag(self, j_hi: int, j_lo: int) -> float:
        """Gamma_{j_hi, j_lo}(0) = sum_{n=j_lo}^{j_hi} Gamma_n(0); 0 if empty."""
        if j_hi < j_lo:
            return 0.0
        return sum(self.gamma0(n) for n in range(j_lo, j_hi + 1))

    # -- invariant evaluation --

    def psd_margins(self) -> list[float]:
        """Min Fourier mode of each Gamma_j over the torus momenta.

        decompose records these from the bands it builds the tables from.
        Otherwise the bands are evaluated here by one pass on a throwaway
        grid: the torus momenta, or for tori above PROBE_SIDE the folded
        probe grid 2 pi fftfreq(PROBE_SIDE) (the bands are nonnegative by
        construction; this is a numerical confirmation, not the proof).
        """
        if "psd" not in self._cache:
            if self.lattice.side <= PROBE_SIDE:
                k = self.lattice.momenta()
            else:
                k = 2.0 * np.pi * np.fft.fftfreq(PROBE_SIDE)
            run = SpectralGrid(self.cutoffs, self.lattice.m, k).fejer_pass()
            self._cache["psd"] = [float(run.band_sum(self.fine_scales(j)).min()) for j in range(self.n_scales)]
        return list(self._cache["psd"])

    def telescoping_error(self) -> float:
        """Max |sum_j Gamma_j + tail - W| relative to |W(0)| (normalized form at m=0)."""
        if self.gamma_tables is None:
            raise DecompositionError("materialized tables required")
        # the reference first: its transforms run before the sum is allocated
        if self.tail_is_normalized:
            ref = normalized_potential_table(self.lattice)
            scale = float(np.max(np.abs(ref)))
        else:
            ref = yukawa_table(self.lattice)
            scale = abs(float(ref[0, 0]))
        total = np.zeros_like(self.gamma_tables[0])
        for t in self.gamma_tables:
            total += t
        if self.tail_is_normalized:
            # W(x|0) = sum_j [Gamma_j(x) - Gamma_j(0)] + tail(x)
            total -= total[0, 0]
        total += self.tail_table
        total -= ref
        return float(np.max(np.abs(total)) / scale)

    def leakage(self, j: int) -> float:
        """max_{|x| >= L^(j+1)/2} |Gamma_j(x)| / Gamma_j(0).

        With the torus coordinate c = x or x - side in -(side-1)/2..(side-1)/2,
        |x|_inf >= L^(j+1)/2 means some |c| >= k = ceil(L^(j+1)/2), that is
        some index in k..side-k: the region is the union of the row slab and
        the column slab over that index range.  Cached per scale, so the
        gates of validate() and later reports share one evaluation; a stack
        with other tables is a new stack (dataclasses.replace with _cache={}).
        """
        self._check_scale(j)
        key = ("leakage", j)
        if key not in self._cache:
            t = self.gamma_table(j)
            side = self.lattice.side
            k = (self.lattice.L ** (j + 1) + 1) // 2
            if k > (side - 1) // 2:
                leak = 0.0
            else:
                slab = slice(k, side - k + 1)
                leak = float(np.maximum(np.max(np.abs(t[slab, :])), np.max(np.abs(t[:, slab]))) / t[0, 0])
            self._cache[key] = leak
        return self._cache[key]

    def validate(self):
        """PSD + leakage gates; raises DecompositionError naming the scale.

        The comparisons are written so that a NaN fails them.
        """
        for j, margin in enumerate(self.psd_margins()):
            if not (margin >= -self.psd_tol):
                raise DecompositionError(f"negative Fourier mode {margin:.3e} in Gamma_{j}", "psd", j, -margin, self.psd_tol)
        if self.gamma_tables is not None:
            for j in range(self.n_scales):
                leak = self.leakage(j)
                if not (leak <= self.leakage_tol):
                    raise DecompositionError(f"leakage {leak:.3e} beyond L^{j + 1}/2 in Gamma_{j}",
                                             "leakage", j, leak, self.leakage_tol)
        return self


MATERIALIZE_CAP = 2187  # largest torus side for which full tables are built


def decompose(lattice: TorusLattice, cutoffs: CutoffFamily | None = None) -> CovarianceStack:
    """Build the covariance stack for the torus; validates PSD and leakage.

    The tables, the PSD margins and the tail come from one pass over the
    bands on the torus momenta, folded like any other grid (the side L^R is
    odd): each band's table and margin are taken before the next band is
    evaluated, and the pass then steps on to the residual r_horizon of the
    tail.  Each table is the real synthesis of its folded array
    (lattice.folded_table).  Only a side up to MATERIALIZE_CAP gets tables;
    a larger torus is served by the per-scale grids alone.
    """
    if cutoffs is None:
        cutoffs = build_cutoffs(lattice.gamma, lattice.M, lattice.n_fine_scales)
    if cutoffs.horizon < lattice.n_fine_scales:
        raise ValueError("cutoff horizon shorter than the torus scale count")

    tables = None
    tail = None
    normalized = lattice.m == 0.0
    margins = None
    if lattice.side <= MATERIALIZE_CAP:
        grid = SpectralGrid(cutoffs, lattice.m, lattice.momenta())
        q = slice(lattice.side // 2 + 1)

        def table(G):
            # the quarter k0, k1 >= 0 of the triangle array's square: all of
            # it on a folded axis, and on an axis in another layout the
            # S//2 + 1 leading entries that irfft reads
            return folded_table(grid._mirror(G)[q, q])

        tables, margins = [], []
        run = grid.fejer_pass()
        for j in range(lattice.R):
            vals = run.band_sum(range(j * lattice.M, (j + 1) * lattice.M))
            tables.append(table(vals))
            margins.append(float(vals.min()))
        r = run.advance(cutoffs.horizon)
        if normalized:
            lam = grid._lam()
            dens = np.zeros_like(lam)
            mask = lam > 0
            dens[mask] = r[mask] / lam[mask]
            tail = table(dens)
            tail -= tail[0, 0]
        else:
            tail = table(r / run.u)

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

# rows encoded per block: at side 729 a block's arrays peak near 1.5 MB, and
# near 3 MB with its list of value strings (tracemalloc)
HEX_BLOCK_ROWS = 32


@functools.cache
def _hex_tables() -> tuple[np.ndarray, np.ndarray]:
    """The encoder's lookup tables, built on first use.

    A 256-entry uint16 table holding the two lowercase hex digits of each
    byte, and a 2047-entry '<u8' table holding, per biased exponent, a NUL
    byte then the NUL-padded tail 'p%+d' (exponent 0, the subnormals, reads
    p-1022 like exponent 1).
    """
    digits = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
    pairs = np.stack([np.repeat(digits, 16), np.tile(digits, 16)], axis=1).view(np.uint16).ravel()
    tails = np.array([b"\0p%+d" % (max(e, 1) - 1023) for e in range(2047)], dtype="S8").view("<u8")
    pairs.flags.writeable = tails.flags.writeable = False  # shared by every call
    return pairs, tails


_HEX_HEAD = np.frombuffer(b"0x0.0x1.", dtype="<u4")  # by lead digit
_HEX_ZERO = np.frombuffer(b"0x0.0p+0".ljust(24, b"\0"), dtype="<u8")


def _hex_rows(block: np.ndarray) -> list[bytes]:
    """','.join(map(float.hex, row)) as bytes for each row of the finite 2D array block.

    Each value is written from its IEEE bits into a 24-byte NUL-padded slot,
    seen as three little-endian words: '0x', the lead digit (0 for zeros and
    subnormals) and '.' in bytes 0..3, the 13 mantissa digits in 4..16, the
    exponent tail from 17 on.  Zeros read '0x0.0p+0' as in float.hex, and a
    negative value's slot moves one byte up behind its '-' (the longest,
    '-0x1.<13 digits>p-1022', fills the 24 bytes).  The 'S24' view's
    tolist() drops the padding.
    """
    pairs, tails = _hex_tables()
    u = np.uint64
    bits = np.ascontiguousarray(block, dtype=np.float64).view(u).ravel()
    expo = ((bits >> u(52)) & u(0x7FF)).astype(np.intp)
    # 52 mantissa bits shifted to 56: bytes 1..7 of the big-endian word are 13 digits and a 0
    mant = ((bits & u((1 << 52) - 1)) << u(4)).astype(">u8").view(np.uint8).reshape(-1, 8)[:, 1:]
    slots = np.empty((len(bits), 24), dtype=np.uint8)
    words = slots.view("<u8")
    slots.view("<u4")[:, 0] = np.take(_HEX_HEAD, expo > 0)
    digits = slots.view(np.uint16)
    for i in range(7):  # a byte at a time: one N-long index array at a time
        digits[:, 2 + i] = np.take(pairs, mant[:, i])
    words[:, 2] &= u(0xFF)  # keep digit 13 in byte 16, the tail overwrites the 0 after it
    words[:, 2] |= np.take(tails, expo)
    words[(bits << u(1)) == 0] = _HEX_ZERO
    neg = (bits >> u(63)).astype(bool)
    for k in (2, 1):  # high word first: each reads the old word below it
        words[:, k] = np.where(neg, (words[:, k] << u(8)) | (words[:, k - 1] >> u(56)), words[:, k])
    words[:, 0] = np.where(neg, (words[:, 0] << u(8)) | u(ord("-")), words[:, 0])
    return [b",".join(row) for row in slots.view("S24").reshape(block.shape).tolist()]


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
    round trip bit-exact, signed zeros and subnormals included.  The values
    are encoded HEX_BLOCK_ROWS rows at a time from their IEEE bits
    (_hex_rows), byte for byte as float.hex writes them.  A table with a
    non-finite entry is refused before the file is opened.
    """
    if stack.gamma_tables is None:
        raise DecompositionError("only materialized stacks serialize to tables")
    lat = stack.lattice
    tables = [*stack.gamma_tables, stack.tail_table]
    for j, t in enumerate(tables):
        if not np.isfinite(t).all():
            x0, x1 = (int(i) for i in np.argwhere(~np.isfinite(t))[0])
            raise DecompositionError(f"{path}: non-finite value {t[x0, x1]} in scale {j} at x0={x0}, x1={x1}; nothing written")
    head = (
        f"{STACK_HEADER}\n"
        f"# L={lat.L} R={lat.R} gamma={lat.gamma} M={lat.M} m={lat.m.hex()}\n"
        f"# psd_tol={stack.psd_tol!r} leakage_tol={stack.leakage_tol!r}\n"
        f"# tail_is_normalized={int(stack.tail_is_normalized)}\n"
        f"{STACK_COLUMNS}\n"
    )
    with open(path, "wb") as f:
        f.write(head.encode())
        for j, t in enumerate(tables):
            for start in range(0, lat.side, HEX_BLOCK_ROWS):
                rows = _hex_rows(t[start : start + HEX_BLOCK_ROWS])
                f.writelines(b"%d,%d,%s\n" % (j, x0, row) for x0, row in enumerate(rows, start))


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
        except OverflowError:
            return f"{msg}, value {k} overflows a float"
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
        except (KeyError, ValueError, OverflowError) as e:
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
            except (ValueError, OverflowError):
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
