"""Momentum cutoffs for the multiscale covariance decomposition.

The splitting functions are built from nested Fejer kernels in the spectral
variable of the lattice Laplacian.  With u = m^2 + lam(k) in [0, b],
b = m^2 + 8, substitute u = b sin^2(theta/2); then

    s_h(u) = [ sin(kappa_h theta / 2) / (kappa_h sin(theta/2)) ]^2

is a polynomial of degree kappa_h - 1 in u with 0 <= s_h <= 1 and
s_h(0) = 1 (a normalized Fejer kernel in theta).  The residual after h
scales is the product r_h = s_1 s_2 ... s_h and the per-fine-scale band is

    psi_h = r_h (1 - s_{h+1}) / u ,        h = 0, 1, ...

All bands are nonnegative on [0, b] by construction, the partial sums
telescope exactly to (1 - r_H)/u, and psi_h is a polynomial in u of degree
sum_{n<=h+1}(kappa_n - 1) - 1.  A degree-d polynomial in the lattice
Laplacian has range d, so the schedule kappa_h = max(2, gamma^(h-1)) keeps
the kernel of psi_h(m^2 - Delta) supported strictly inside |x| < gamma^(h+1)/2:
finite range is exact, not a leakage tolerance.

Every evaluation of the bands and residuals is one FejerPass over the points
u: theta/2, sin(theta/2) and u/b are computed once, and each Fejer order
costs one sine, shared by the residual factor s_h and the band term
(1 - s_h)/u.  FejerPass.band_sum is the one loop that sums the bands of a
fine-scale list.

The h -> infinity limit of r_h at momentum scale gamma^h is the radial
profile  u_inf(q) = prod_{l>=1} sinc^2(gamma^-l q / sqrt(8))  used by the
continuum diagnostics (the Coulomb constant).

Their radial integrals all go through one fixed-node panel rule: each panel
is integrated with QUAD_NODES and with 2*QUAD_NODES Gauss-Legendre nodes,
the integrand is evaluated once on the array of every node of every panel,
and a panel where the two rules disagree raises.  The Hankel-type integral
of gtilde is split into panels between consecutive zeros of J0; the
non-oscillatory pieces use panels no longer than their distance from 0
(for the 1/rho weight) and a fixed width (the profile and J0 are entire).
J0 and its zeros are computed here with numpy alone: the midpoint rule on
Bessel's integral below x = 25, Hankel's expansion above, and McMahon's
estimate refined by secant steps for the zeros, which are built a block of
panels at a time, only as far as the integral needs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import laplacian_symbol

__all__ = [
    "CutoffFamily",
    "FejerPass",
    "build_cutoffs",
    "CoulombConstant",
    "coulomb_constant_c",
    "coulomb_constant_closed",
]


def _fejer_schedule(gamma: int, horizon: int) -> tuple[int, ...]:
    """kappa_h for h = 1..horizon; kappa_h = max(2, gamma^(h-1))."""
    return tuple(max(2, gamma ** (h - 1)) for h in range(1, horizon + 1))


# u_profile stops a point's product once its argument x falls to this: the
# omitted factors multiply to at least 1 - 3x^2/8 (gamma >= 3), which rounds
# to 1 in double precision
U_ARG_TOL = 1e-8


@dataclass(frozen=True)
class CutoffFamily:
    """Nested-Fejer cutoff family at fine base gamma.

    horizon is the number of fine scales available (bands h = 0..horizon-1
    plus the residual r_horizon that feeds the tail covariance).
    """

    gamma: int
    M: int
    horizon: int
    kappas: tuple[int, ...]

    def __post_init__(self):
        # range certificate: deg psi_h = sum_{n<=h+1}(kappa_n - 1) - 1 must stay
        # <= (gamma^(h+1) - 1)/2 so the band-h kernel fits its support box
        total = 0
        for h in range(self.horizon):
            total = sum(self.kappas[n] for n in range(h + 1)) - (h + 1)
            allowed = (self.gamma ** (h + 1) - 1) // 2
            if total - 1 > allowed:
                raise ValueError(
                    f"cutoff schedule violates the range budget at fine scale {h}: "
                    f"degree {total - 1} > {allowed}"
                )

    # -- spectral evaluation -------------------------------------------------

    @staticmethod
    def theta(u: np.ndarray, b: float) -> np.ndarray:
        """Chebyshev angle with sin^2(theta/2) = u/b."""
        return 2.0 * np.arcsin(np.sqrt(np.clip(u / b, 0.0, 1.0)))

    @staticmethod
    def _factor(theta: np.ndarray, kappa: int) -> np.ndarray:
        """Normalized Fejer factor sin^2(K t/2) / (K sin(t/2))^2 in [0, 1]."""
        half = 0.5 * np.atleast_1d(np.asarray(theta, dtype=float))
        sk, small = _fejer_sine(half, kappa)
        return _fejer_factor(sk, np.sin(half), half, kappa, small)

    def residual(self, u: np.ndarray, b: float, h: int) -> np.ndarray:
        """r_h(u) = prod_{n<=h} s_n(u); r_0 = 1."""
        return FejerPass(self.kappas, u, b).advance(h).reshape(np.shape(u))

    def band_sum(self, u: np.ndarray, b: float, h_list) -> np.ndarray:
        """Sum of the bands of distinct fine scales, sharing the residual products."""
        return FejerPass(self.kappas, u, b).band_sum(h_list).reshape(np.shape(u))

    def band_degree(self, h: int) -> int:
        """Polynomial degree of psi_h in u = its exact kernel range in |x|_1.

        The kernel of band h therefore vanishes identically for |x|_inf
        beyond this radius too.
        """
        return sum(self.kappas[n] for n in range(h + 1)) - (h + 1) - 1

    # -- cutoff-family views -----------------------------------------------------

    def F_h(self, p0, p1, h: int, m: float = 0.0) -> np.ndarray:
        """Momentum cutoff F_h at a 2D momentum on the gamma^h-rescaled zone.

        F_0 = 1; for h >= 1 this is the residual r_h at fine momentum
        (p0, p1)/gamma^h, so band h carries spectral weight
        [F_h(gamma^h q) - F_{h+1}(gamma^{h+1} q)] / (m^2 + lam(q)).
        """
        p0 = np.asarray(p0, dtype=float)
        p1 = np.asarray(p1, dtype=float)
        if h == 0:
            return np.ones(np.broadcast(p0, p1).shape)
        g = float(self.gamma**h)
        return self.residual(m * m + laplacian_symbol(p0 / g, p1 / g), m * m + 8.0, h)

    def A_sq(self, p0, p1, h: int, n: int, m: float = 0.0) -> np.ndarray:
        """Squared factor function: F_h = prod_{n=0}^{h-1} A_sq(., h, n)."""
        if not (0 <= n < h):
            raise ValueError(f"factor index n={n} outside 0..{h - 1}")
        p0 = np.asarray(p0, dtype=float)
        p1 = np.asarray(p1, dtype=float)
        g = float(self.gamma**h)
        u = m * m + laplacian_symbol(p0 / g, p1 / g)
        return self._factor(self.theta(u, m * m + 8.0), self.kappas[h - n - 1])

    def u_profile(self, q) -> np.ndarray:
        """Continuum profile u(q) = prod_{l>=1} sinc^2(gamma^-l |q| / sqrt(8)).

        u(0) = 1, 0 <= u <= 1, u -> 0 at infinity; the scaled h -> infinity
        limit of the residuals r_h.  Each point takes its own product down to
        U_ARG_TOL, so a value does not depend on the other points of the call.
        """
        q = np.abs(np.asarray(q, dtype=float))
        if not np.all(np.isfinite(q)):
            raise ValueError("u_profile needs finite momenta")
        out = np.ones_like(q)
        root_b = math.sqrt(8.0)
        for l in itertools.count(1):
            x = q * (self.gamma ** (-l)) / root_b
            live = x > U_ARG_TOL
            if not live.any():
                return out
            out *= np.where(live, np.sinc(x / np.pi) ** 2, 1.0)


# ---------------------------------------------------------------------------
# the band pass: one Fejer kernel for every evaluation of s_h and psi_h
#
# With a = theta/2, each order kappa costs one sine, sin(kappa a), shared by
# the factor s_kappa = (sin(kappa a) / (kappa sin a))^2 and by
# (1 - s_kappa)/u = (1 - sin^2(kappa a) / (kappa^2 u/b)) / u (sin^2 a = u/b
# by the substitution).  Their small-angle series replace the closed forms
# only on the points where kappa a < 1e-6 (s) or 1e-3 ((1 - s)/u); that set
# lies near u = 0 and is found once per order.


def _fejer_sine(half: np.ndarray, kappa: int) -> tuple[np.ndarray, np.ndarray]:
    """sin(kappa a) at a = half, and the flat indices where kappa a < 1e-3."""
    ka = kappa * half
    small = np.flatnonzero(ka < 1e-3)
    return np.sin(ka, out=ka), small


def _fejer_factor(sk, sh, half, kappa: int, small) -> np.ndarray:
    """s_kappa = (sin(kappa a) / (kappa sin a))^2; 1 - (kappa^2-1) a^2/6 for
    the ratio where kappa a < 1e-6."""
    q = kappa * sh
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(sk, q, out=q)
    a = half.flat[small]
    tiny = kappa * a < 1e-6
    q.flat[small[tiny]] = 1.0 - (kappa**2 - 1) * a[tiny] ** 2 / 6.0
    return np.square(q, out=q)


def _fejer_one_minus_over_u(sk, s2, u, half, b: float, kappa: int, small) -> np.ndarray:
    """(1 - s_kappa)/u from sin(kappa a) and s2 = u/b, stable down to u = 0.

    For kappa a < 1e-3 uses
    sin^2(a) - sin^2(Ka)/K^2 = (K^2-1) a^4/3 - 2(K^4-1) a^6/45 + O(a^8)
    over sin^2(a) u = u^2/b, and the limit (K^2-1)/(3b) where u^2 is 0
    (u = 0, or u below 1e-154, where u^2 underflows).
    """
    k2 = float(kappa) ** 2
    out = sk * sk
    d = s2 * k2
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(out, d, out=out)
        np.subtract(1.0, out, out=out)
        np.divide(out, u, out=out)
    if small.size:
        a = half.flat[small]
        us = u.flat[small]
        num = (k2 - 1.0) * a**4 / 3.0 - 2.0 * (k2 * k2 - 1.0) * a**6 / 45.0
        lim = (k2 - 1.0) / (3.0 * b)
        u_sq = us * us
        with np.errstate(divide="ignore", invalid="ignore"):
            val = num * b / np.where(u_sq > 0, u_sq, 1.0)
        out.flat[small] = np.where(u_sq > 0, val, lim)
    return out


class FejerPass:
    """The residual products r_h at the points u, stepped one order at a time.

    a = theta/2, sin(a) and u/b are computed once.  The step from r_h to
    r_{h+1} = r_h s_{h+1} costs one sine, sin(kappa_{h+1} a); band() shares
    that sine between psi_h = r_h (1 - s_{h+1})/u and the step.
    """

    def __init__(self, kappas: tuple[int, ...], u, b: float):
        self.kappas = kappas
        self.b = b
        self.u = np.atleast_1d(np.asarray(u, dtype=float))
        self.s2 = self.u / b
        self.half = np.arcsin(np.sqrt(np.clip(self.s2, 0.0, 1.0)))
        self.sh = np.sin(self.half)
        self.h = 0
        self.r = np.ones_like(self.u)

    def _step(self, sk: np.ndarray, small: np.ndarray):
        self.r *= _fejer_factor(sk, self.sh, self.half, self.kappas[self.h], small)
        self.h += 1

    def band(self) -> np.ndarray:
        """psi_h = r_h (1 - s_{h+1})/u at the current order h, as a new array;
        the pass then stands at h + 1."""
        kappa = self.kappas[self.h]
        sk, small = _fejer_sine(self.half, kappa)
        out = _fejer_one_minus_over_u(sk, self.s2, self.u, self.half, self.b, kappa, small)
        out *= self.r
        self._step(sk, small)
        return out

    def advance(self, h: int) -> np.ndarray:
        """Step on to r_h (h at or past the current order) and return it."""
        while self.h < h:
            self._step(*_fejer_sine(self.half, self.kappas[self.h]))
        return self.r

    def band_sum(self, hs) -> np.ndarray:
        """sum_{h in hs} psi_h, as a new array; the pass then stands past max(hs).

        The fine scales are taken in increasing order and must be distinct
        and at or past the current order: a pass only steps forward, so a
        scale behind it raises ValueError instead of yielding a band at the
        wrong order.
        """
        out = np.zeros_like(self.u)
        for h in sorted(hs):
            if h < self.h:
                raise ValueError(f"band_sum needs distinct fine scales at or past the pass's order {self.h}, got h={h}")
            self.advance(h)
            out += self.band()
        return out


def build_cutoffs(gamma: int, M: int, horizon: int) -> CutoffFamily:
    """Cutoff family for `horizon` fine scales (horizon = M*R for a full torus)."""
    if gamma % 2 == 0 or gamma < 3:
        raise ValueError(f"gamma must be odd >= 3, got {gamma}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    kappas = _fejer_schedule(gamma, horizon + 1)
    fam = CutoffFamily(gamma=gamma, M=M, horizon=horizon, kappas=kappas)
    probe = np.linspace(0.0, 8.0, 257)
    th = fam.theta(probe, 8.0)
    for kappa in kappas[: min(6, len(kappas))]:
        s = fam._factor(th, kappa)
        if s.min() < -1e-15 or s.max() > 1.0 + 1e-12:
            raise ValueError("cutoff factor outside [0, 1]; construction failure")
    return fam


# ---------------------------------------------------------------------------
# continuum quadrature

# Gauss-Legendre nodes per panel; every panel is also integrated with twice
# as many and the two must agree to PANEL_TOL (relative above magnitude 1)
QUAD_NODES = 16
PANEL_TOL = 1e-12
_RULES = [np.polynomial.legendre.leggauss(n) for n in (QUAD_NODES, 2 * QUAD_NODES)]


def _panel_quad(f, edges, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of f over the panels [edges[k], edges[k+1]] and their n/2n gaps.

    f is evaluated once, elementwise on the array of all nodes of both rules
    on every panel.  Returns the 2n-node panel values and |I_2n - I_n| per
    panel; raises RuntimeError naming the integral, the worst panel and its
    gap when a gap exceeds PANEL_TOL * max(1, |I_2n|).
    """
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])
    (x1, w1), (x2, w2) = _RULES
    vals = f(mid + half[:, None] * np.concatenate([x1, x2]))
    coarse = half * (vals[:, : len(x1)] @ w1)
    fine = half * (vals[:, len(x1) :] @ w2)
    gap = np.abs(fine - coarse)
    excess = gap / (PANEL_TOL * np.maximum(1.0, np.abs(fine)))
    k = int(np.argmax(excess))
    if not excess[k] <= 1.0:
        raise RuntimeError(
            f"quadrature of {name}: panel {k} [{edges[k]:.6g}, {edges[k + 1]:.6g}]: "
            f"{len(x1)}- and {len(x2)}-node rules differ by {gap[k]:.3e}"
        )
    return fine, gap


def _edges(a: float, b: float, width: float) -> np.ndarray:
    """Panel edges on [a, b]: panels at most `width` long and, for a > 0, at
    most as long as their left edge is far from 0 (ratio 2 near a 1/rho weight)."""
    out = [a]
    while out[-1] < b:
        x = out[-1]
        out.append(min(b, x + (min(x, width) if a > 0 else width)))
    return np.array(out)


@dataclass(frozen=True)
class CoulombConstant:
    """Large-distance data of the normalized continuum potential.

    gtilde(x|0) = int d^2p/(2pi)^2 (e^{ipx}-1) u(p)/p^2 behaves like
    -(1/2pi) ln|x| + c_log + o(1).  The constant that enters the flow limits
    is c = 8*pi*c_log, i.e. e^c = lim_y w(y) for
    w(y) = y^4 exp(-8pi * gtilde(0|y)).
    """

    c: float              # ln lim_{y->inf} w(y) = 8*pi*c_log
    c_log: float          # additive constant of the log asymptotics
    slope: float          # fitted d gtilde / d ln|x|; should be -1/(2pi)
    fit_residual: float   # rms residual of the window fit
    w_limit_error: float  # relative gap between e^c and w(y) at the window edge
    quad_error: float     # n/2n panel gaps summed over the window values of gtilde
    c_closed: float       # 8*pi times the closed-form c_log the fit is checked against


# ---------------------------------------------------------------------------
# J0 and its zeros
#
# Below x = 25, J0 is the midpoint rule on Bessel's integral
# (2/pi) int_0^{pi/2} cos(x sin t) dt with 32 nodes.  The integrand is
# periodic and entire, so the rule's own error is about 2 J_128(x) < 1e-60;
# the rounding error e of each product x sin t is found exactly (Veltkamp's
# split) and corrects cos to cos(x sin t) - e sin(x sin t), and the node
# values are summed by halving.  From x = 25 on, J0 is Hankel's expansion
# sqrt(2/(pi x)) (P cos chi - Q sin chi), chi = x - pi/4 (DLMF 10.17.3), with
# P and Q summed to 12 terms each below x = 100 and to 5 from there; the
# first omitted term is below 2e-19 at x = 25 and 2e-18 at x = 100.  Every
# value depends on its own x alone.


def _hankel_coefficients(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients (-1)^k a_2k of P and (-1)^k a_2k+1 of x Q in powers of
    1/x^2, k < n, with a_k = prod_{i<=k} -(2i-1)^2 / (k! 8^k)."""
    a, num = [], 1
    for k in range(2 * n):
        a.append(num / (math.factorial(k) * 8**k))
        num *= -((2 * k + 1) ** 2)
    return (np.array([(-1) ** k * a[2 * k] for k in range(n)]),
            np.array([(-1) ** k * a[2 * k + 1] for k in range(n)]))


_HANKEL_P, _HANKEL_Q = _hankel_coefficients(12)


def _split(a):
    """a = hi + lo with hi of at most 26 significant bits, so a product of two his is exact."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_J0_SIN = np.sin((np.arange(32) + 0.5) * (math.pi / 64))  # sin t at the midpoint nodes
_J0_SIN_HI, _J0_SIN_LO = _split(_J0_SIN)


def _hankel_j0(x: np.ndarray, n: int) -> np.ndarray:
    """Hankel's expansion of J0 with n terms each of P and Q."""
    t = 1.0 / (x * x)
    p = np.full_like(x, _HANKEL_P[n - 1])
    q = np.full_like(x, _HANKEL_Q[n - 1])
    for k in range(n - 2, -1, -1):
        p *= t
        p += _HANKEL_P[k]
        q *= t
        q += _HANKEL_Q[k]
    chi = x - math.pi / 4
    return np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(chi) - q / x * np.sin(chi))


def _j0(x) -> np.ndarray:
    """The Bessel function J0, elementwise.

    Absolute error at most 2e-16 below x = 25 and 2e-16 + 1e-16 sqrt(x) from
    there: the second term is the rounding of the phase x - pi/4 to a double,
    which scipy.special.j0 shares.
    """
    x = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    near = x < 25.0
    xs = x[near][:, None]
    arg = xs * _J0_SIN
    hi, lo = _split(xs)
    err = ((hi * _J0_SIN_HI - arg) + hi * _J0_SIN_LO + lo * _J0_SIN_HI) + lo * _J0_SIN_LO
    vals = np.cos(arg) - err * np.sin(arg)
    while vals.shape[1] > 1:
        half = vals.shape[1] // 2
        vals = vals[:, :half] + vals[:, half:]
    out[near] = vals[:, 0] / len(_J0_SIN)
    mid = ~near & (x < 100.0)
    out[mid] = _hankel_j0(x[mid], 12)
    far = ~near & ~mid
    out[far] = _hankel_j0(x[far], 5)
    return out


def _j0_zeros(k: np.ndarray) -> np.ndarray:
    """The zeros j_{0,k} (k >= 1) of _j0: McMahon's expansion (DLMF 10.21.19),
    refined by 8 secant steps; a step with no change in J0 leaves its zero."""
    b = (np.asarray(k, dtype=float) - 0.25) * math.pi
    w = 1.0 / (8.0 * b)
    x1 = b + w - 124.0 / 3.0 * w**3 + 120928.0 / 15.0 * w**5
    x0 = x1 * (1.0 - 1e-6)
    f0 = _j0(x0)
    for _ in range(8):
        f1 = _j0(x1)
        d = f1 - f0
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(d != 0.0, f1 * (x1 - x0) / d, 0.0)
        x0, f0, x1 = x1, f1, x1 - step
    return x1


# Bessel-zero panels integrated per block; the blocks past the stopping panel
# are never computed, and a radius that needs more than BESSEL_PANEL_LIMIT
# panels raises
BESSEL_BLOCK = 256
BESSEL_PANEL_LIMIT = 1 << 16


@functools.cache
def _bessel_panel_edges(block: int) -> np.ndarray:
    """Entries block*BESSEL_BLOCK .. (block+1)*BESSEL_BLOCK of the panel edges
    1, j_{0,1}, j_{0,2}, ... (read-only; each block built on first use)."""
    k = np.arange(block * BESSEL_BLOCK, (block + 1) * BESSEL_BLOCK + 1)
    edges = _j0_zeros(np.maximum(k, 1))
    edges[k == 0] = 1.0
    edges.flags.writeable = False
    return edges


def _gtilde_normalized(cutoffs: CutoffFamily, r: float, j0_blocks: list) -> tuple[float, float]:
    """gtilde(x|0) at |x| = r and its summed n/2n panel gap.

    Split at rho = 1/r into a head int (J0 - 1) u drho/rho, the
    non-oscillatory int u drho/rho and the oscillatory int J0 u drho/rho,
    the last in panels between consecutive zeros of J0 in s = rho r,
    summed up to the first panel past s = 30 r whose value is below 1e-13.
    Those panels are integrated BESSEL_BLOCK at a time, each block's zeros
    built when first needed, up to the block that holds the stopping panel;
    a radius with no stop within BESSEL_PANEL_LIMIT panels raises.  The
    panels do not depend on r, so J0 at the nodes of block b is kept as
    j0_blocks[b], computed by the first call that reaches block b and read
    by every later call given the same list.
    """
    u = cutoffs.u_profile
    lo = 1.0 / r
    head, e_head = _panel_quad(lambda rho: (_j0(rho * r) - 1.0) * u(rho) / rho, [0.0, lo],
                               f"gtilde head at r={r:g}")
    nonosc, e_nonosc = _panel_quad(lambda rho: u(rho) / rho, _edges(lo, 200.0, 8.0),
                                   f"gtilde non-oscillatory piece at r={r:g}")
    blocks = []
    for b in itertools.count():
        k = b * BESSEL_BLOCK
        if k >= BESSEL_PANEL_LIMIT:
            raise RuntimeError(f"gtilde at r={r:g}: no stopping panel among the first {k} Bessel-zero panels")
        edges = _bessel_panel_edges(b)

        def osc(s, b=b):
            if len(j0_blocks) == b:
                j0_blocks.append(_j0(s))
            return j0_blocks[b] * u(s / r) / s

        blocks.append(_panel_quad(osc, edges, f"gtilde Bessel-zero panels from panel {k} at r={r:g}"))
        done = np.flatnonzero((edges[1:] > 30.0 * r) & (np.abs(blocks[-1][0]) < 1e-13))
        if done.size:
            n = k + int(done[0]) + 1
            break
    osc, e_osc = (np.concatenate(parts) for parts in zip(*blocks))
    value = float(np.sum(head)) + float(np.sum(osc[:n])) - float(np.sum(nonosc))
    error = float(np.sum(e_head)) + float(np.sum(e_osc[:n])) + float(np.sum(e_nonosc))
    return value / (2.0 * math.pi), error / (2.0 * math.pi)


_C_LOG_CLOSED: dict[int, float] = {}  # by gamma


def _c_log_closed_form(cutoffs: CutoffFamily) -> float:
    """c_log = (1/2pi)[ln2 - gamma_E + int_0^1 (1-u)/rho - int_1^inf u/rho].

    Splitting J0 - 1 at the scale 1/|x| turns the large-|x| limit of
    gtilde + (1/2pi)ln|x| into mass integrals of the profile alone; the
    tail integral stops at rho = 1e4.  The profile depends on gamma alone,
    so every family of one gamma shares the value, computed once per
    process (_C_LOG_CLOSED).
    """
    if cutoffs.gamma not in _C_LOG_CLOSED:
        euler_gamma = 0.5772156649015329
        u = cutoffs.u_profile
        i1, _ = _panel_quad(lambda rho: (1.0 - u(rho)) / rho, [0.0, 1.0], "c_log head")
        i2, _ = _panel_quad(lambda rho: u(rho) / rho, _edges(1.0, 1e4, 8.0), "c_log tail")
        _C_LOG_CLOSED[cutoffs.gamma] = (math.log(2.0) - euler_gamma + float(np.sum(i1)) - float(np.sum(i2))) / (2.0 * math.pi)
    return _C_LOG_CLOSED[cutoffs.gamma]


def coulomb_constant_closed(cutoffs: CutoffFamily) -> float:
    """c = 8 pi c_log from the closed-form limit alone (fast path; one quadrature per gamma)."""
    return 8.0 * math.pi * _c_log_closed_form(cutoffs)


def coulomb_constant_c(cutoffs: CutoffFamily, window=(50.0, 200.0), npts: int = 3) -> CoulombConstant:
    """Window-fit gtilde(x|0) = slope*ln|x| + c_log, cross-checked two ways.

    The fit intercept is compared against the closed-form limit and the
    exponential against the finite-y value of w(y) = y^4 e^{-8pi gtilde(0|y)}.
    fit_residual is the rms residual of the fit itself.  A non-flat tail (fit
    rms above 1e-4) raises, and so does an intercept more than 1e-4 from the
    closed form; each error names its quantity and value, in c_log units.
    """
    rs = np.geomspace(window[0], window[1], npts)
    j0_blocks: list = []  # J0 at the Bessel-panel nodes, shared by the radii
    vals, errs = np.array([_gtilde_normalized(cutoffs, float(r), j0_blocks) for r in rs]).T
    A = np.vstack([np.log(rs), np.ones_like(rs)]).T
    (slope, c_log), *_ = np.linalg.lstsq(A, vals, rcond=None)
    fitted = A @ np.array([slope, c_log])
    residual = float(np.sqrt(np.mean((vals - fitted) ** 2)))
    if not residual <= 1e-4:
        raise RuntimeError(f"non-flat tail in the Coulomb-constant fit: rms residual {residual:.3e}")
    closed = _c_log_closed_form(cutoffs)
    gap = abs(float(c_log) - closed)
    if not gap <= 1e-4:
        raise RuntimeError(f"Coulomb-constant fit off its closed form: intercept gap {gap:.3e}")
    alpha_sq = 8.0 * math.pi
    c = alpha_sq * float(c_log)
    y = float(rs[-1])
    w = y**4 * math.exp(alpha_sq * float(vals[-1]))
    w_err = abs(w - math.exp(c)) / math.exp(c)
    return CoulombConstant(c=c, c_log=float(c_log), slope=float(slope), fit_residual=residual,
                           w_limit_error=w_err, quad_error=float(np.sum(errs)), c_closed=alpha_sq * closed)
