"""Brute-force Coulomb-gas partition sums on tiny tori.

Configurations are labeled particles, each a (site, charge) slot out of
2*side^2 possibilities; the grand sum truncates at n_max particles.  All
sums are exact finite enumerations, vectorized over the last two particle
slots, with per-total-charge bookkeeping so the massless limit can be
watched sector by sector: non-neutral sectors carry the diverging
self-energy weight e^{-beta Q^2 W(0;m)/2} and die as m -> 0.

Only one configuration per translation and charge-conjugation orbit of the
first particle is enumerated: particle 1 sits at (origin, +).  The slot
coupling s s' W(x - x') depends on sites only through their difference mod
side and flips with both charges, so every configuration weight equals its
orbit partner's bit for bit, and the labeled sum by total charge Q is
side^2 (S+[Q] + S+[-Q]) exactly up to summation order.  That cuts the work
by 2 side^2 and makes the sectors Q and -Q bitwise equal.

The weight is also symmetric in the labels of particles 2..n.  For n >= 3
the k = n - 3 free prefix slots run over non-decreasing tuples only, each
weighted by the multinomial k!/prod(m!) of its multiplicities (exact in
floating point), and the last two slots over the full ns x ns block, ns =
2 side^2.  The budget counts these reduced configurations,
C(ns + k - 1, k) ns^2: side 5 at n = 6 (5.5e7) runs, side 7 at n = 6
(1.6e9) is refused.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import TorusLattice, _quarter_symbol, folded_table, yukawa_table, normalized_potential_table

__all__ = [
    "OracleResult",
    "oracle_lattice",
    "grand_Z",
    "neutral_Z",
    "siegert_kac_check",
    "pressure_estimate",
    "DEFAULT_M_SEQUENCE",
]

DEFAULT_M_SEQUENCE = (0.5, 0.25, 0.125, 0.0625)
MAX_SIDE = 7
MAX_N = 6
# reduced configurations one sector sum may visit: non-decreasing prefixes
# times the ns x ns block of the last two slots
_BUDGET = 100_000_000
# entries of the last-two-slot block evaluated at once
_CHUNK = 65_536


def oracle_lattice(side: int, m: float = 0.0) -> TorusLattice:
    """Small torus for brute-force sums; side odd, not tied to a gamma power."""
    return TorusLattice(L=side, R=1, gamma=side, m=m)


def _slot_tables(side: int, W: np.ndarray):
    """Slot list [(site, sigma)] and the slot-coupling matrix V[a, b] = s s' W."""
    sites = [(x0, x1) for x0 in range(side) for x1 in range(side)]
    slots = [(p, 1) for p in sites] + [(p, -1) for p in sites]
    x0 = np.array([p[0] for p, _ in slots])
    x1 = np.array([p[1] for p, _ in slots])
    sigma = np.array([s for _, s in slots])
    V = (sigma[:, None] * sigma[None, :]) * W[(x0[:, None] - x0) % side, (x1[:, None] - x1) % side]
    return slots, V, sigma


def _multinomials(rest: np.ndarray) -> np.ndarray:
    """k!/prod(m!) for each non-decreasing row of rest, m its multiplicities."""
    k = rest.shape[1]
    prod = np.ones(len(rest))
    run = np.ones(len(rest))
    for i in range(1, k):
        run = np.where(rest[:, i] == rest[:, i - 1], run + 1.0, 1.0)
        prod *= run
    return math.factorial(k) / prod


def _sector_sums(side: int, beta: float, n: int, W: np.ndarray) -> dict[int, float]:
    """sum over labeled n-particle configurations of e^{-beta H}, by total charge.

    Only configurations with particle 1 in slot 0, (origin, +), are
    enumerated; translations and charge conjugation carry them onto every
    other first slot with bit-identical weights, so the full sum is
    side^2 (S+[Q] + S+[-Q]).  For n >= 3 the k = n - 3 free prefix slots
    run over non-decreasing tuples weighted by k!/prod(m!), and the last
    two slots over the ns x ns block, in chunks of about _CHUNK entries.
    """
    if n == 0:
        return {0: 1.0}
    slots, V, sigma = _slot_tables(side, W)
    ns = len(slots)
    k = max(0, n - 3)
    n_prefix = math.comb(ns + k - 1, k)
    if n_prefix * ns * ns > _BUDGET:
        raise ValueError(f"combinatorial budget exceeded: {n_prefix} sorted prefixes x {ns}^2 block "
                         f"entries at n = {n}, above {_BUDGET}")
    diag = np.diag(V)
    # energy of the last two slots against each other and themselves
    E2 = diag[:, None] + diag[None, :] + 2.0 * V
    pinned: dict[int, float] = {}
    if n == 1:
        pinned[1] = float(np.exp(-0.5 * beta * diag[0]))
    elif n == 2:
        # the pinned slot is the first of the last two: row 0 of the block
        wts = np.exp(-0.5 * beta * E2[0])
        for qv in (-1, 1):
            pinned[1 + qv] = float(np.sum(wts[sigma == qv]))
    else:
        # the slots list the + charges first: the block's charge quadrants
        h = ns // 2
        rest = np.array(list(itertools.combinations_with_replacement(range(ns), k)),
                        dtype=np.intp).reshape(n_prefix, k)
        prefix = np.hstack([np.zeros((n_prefix, 1), dtype=np.intp), rest])
        mult = _multinomials(rest)
        e_pre = diag[prefix].sum(axis=1)
        for i in range(1, k + 1):
            for b in range(i):
                e_pre += 2.0 * V[prefix[:, i], prefix[:, b]]
        q_pre = sigma[prefix].sum(axis=1)
        # per prefix: the block sums of charge +2, 0 and -2
        block = np.empty((n_prefix, 3))
        step = max(1, _CHUNK // (ns * ns))
        buf = np.empty((step, ns, ns))
        for lo in range(0, n_prefix, step):
            hi = min(lo + step, n_prefix)
            E = buf[: hi - lo]
            cross = V[prefix[lo:hi]].sum(axis=1)
            np.add(cross[:, :, None], cross[:, None, :], out=E)
            E *= 2.0
            E += E2
            E += e_pre[lo:hi, None, None]
            E *= -0.5 * beta
            np.exp(E, out=E)
            plus = E[:, :, :h].sum(axis=2)
            minus = E[:, :, h:].sum(axis=2)
            block[lo:hi, 0] = plus[:, :h].sum(axis=1)
            block[lo:hi, 1] = minus[:, :h].sum(axis=1) + plus[:, h:].sum(axis=1)
            block[lo:hi, 2] = minus[:, h:].sum(axis=1)
        # the total charge q_pre + qv lies in -n..n: bin it with offset n
        bins = (q_pre[:, None] + np.array([2, 0, -2]) + n).ravel()
        sums = np.bincount(bins, weights=(mult[:, None] * block).ravel())
        pinned = {int(b) - n: float(sums[b]) for b in np.unique(bins)}
    orbit = side * side
    charges = set(pinned) | {-q for q in pinned}
    return {int(Q): orbit * (pinned.get(Q, 0.0) + pinned.get(-Q, 0.0)) for Q in sorted(charges)}


@dataclass
class OracleResult:
    beta: float
    z: float
    side: int
    m_sequence: tuple
    # sector_sums[m][(n, Q)] = configuration sum (free of z)
    sector_sums: dict = field(default_factory=dict)

    @property
    def sector_terms(self) -> dict:
        """sector_terms[m][(n, Q)] = z^n/n! * configuration sum."""
        return {
            m: {(n, Q): self.z**n / math.factorial(n) * s for (n, Q), s in sums.items()}
            for m, sums in self.sector_sums.items()
        }

    def Z(self, m: float) -> float:
        return sum(self.sector_terms[m].values())

    def Z_neutral(self, m: float) -> float:
        return sum(v for (n, Q), v in self.sector_terms[m].items() if Q == 0)

    def sector_weight(self, m: float, Q: int) -> float:
        return sum(v for (n, q), v in self.sector_terms[m].items() if q == Q)

    def coefficient(self, m: float, n: int) -> float:
        """Coefficient of z^n (configuration sum / n!); independent of z."""
        return sum(v for (nn, Q), v in self.sector_sums[m].items() if nn == n) / math.factorial(n)


def _check_inputs(lattice: TorusLattice, beta: float, z: float, n_max: int, m_sequence=None):
    """Budget and domain gates shared by every public sum."""
    if lattice.side > MAX_SIDE:
        raise ValueError(f"oracle torus side {lattice.side} above the budget {MAX_SIDE}")
    if n_max > MAX_N:
        raise ValueError(f"oracle n_max {n_max} above the budget {MAX_N}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    if m_sequence is None:
        return
    if not m_sequence:
        raise ValueError(f"m_sequence must be nonempty, got {m_sequence}")
    if not all(math.isfinite(m) and m > 0.0 for m in m_sequence):
        raise ValueError(f"m_sequence masses must be finite and > 0, got {m_sequence}")
    if any(m1 <= m2 for m1, m2 in zip(m_sequence, m_sequence[1:])):
        raise ValueError(f"m_sequence must be strictly decreasing, got {m_sequence}")


def grand_Z(lattice: TorusLattice, beta: float, z: float, n_max: int,
            m_sequence=DEFAULT_M_SEQUENCE) -> OracleResult:
    """Exact per-n, per-charge-sector sums along a decreasing mass sequence."""
    m_sequence = tuple(m_sequence)
    _check_inputs(lattice, beta, z, n_max, m_sequence)
    res = OracleResult(beta=beta, z=z, side=lattice.side, m_sequence=m_sequence)
    for m in m_sequence:
        lat_m = TorusLattice(L=lattice.L, R=lattice.R, gamma=lattice.gamma, m=m)
        W = yukawa_table(lat_m)
        sums = res.sector_sums.setdefault(m, {})
        for n in range(n_max + 1):
            for Q, s in _sector_sums(lattice.side, beta, n, W).items():
                sums[(n, Q)] = s
    return res


def neutral_Z(lattice: TorusLattice, beta: float, z: float, n_max: int) -> OracleResult:
    """Direct m = 0 evaluation: neutral sectors with the normalized potential."""
    _check_inputs(lattice, beta, z, n_max)
    lat0 = TorusLattice(L=lattice.L, R=lattice.R, gamma=lattice.gamma, m=0.0)
    Wn = normalized_potential_table(lat0)
    res = OracleResult(beta=beta, z=z, side=lattice.side, m_sequence=(0.0,))
    # no neutral configurations at odd n
    res.sector_sums[0.0] = {
        (n, 0): _sector_sums(lattice.side, beta, n, Wn)[0] for n in range(0, n_max + 1, 2)
    }
    return res


@dataclass
class SiegertKacReport:
    beta: float
    s: float
    alpha_sq: float
    max_rel_mismatch: float
    per_n: dict

    @property
    def passed(self) -> bool:
        return self.max_rel_mismatch <= 1e-10


def siegert_kac_check(lattice: TorusLattice, beta: float, z: float, n_max: int,
                      s: float = 0.0, m: float = 0.5) -> SiegertKacReport:
    """Coefficient-level identity between the configuration sum and the
    Gaussian characteristic function with the quadratic split.

    Configuration side: masses shifted to m/sqrt(1-s).  Field side: the
    Gaussian measure of covariance alpha^2 (m^2 - (1-s) Delta)^(-1) (the
    split measure at alpha^2 = (1-s) beta) evaluated in closed form; its
    characteristic function reproduces e^{-beta H} exactly, so the z^n
    coefficients must agree to rounding.  A mismatch is reported, not
    raised: the caller gates on `passed` (1e-10) or on `max_rel_mismatch`.
    """
    _check_inputs(lattice, beta, z, n_max)
    if not (0.0 <= s < 0.5):
        raise ValueError(f"s must be in [0, 1/2), got {s}")
    alpha_sq = (1.0 - s) * beta
    # configuration side
    lat_shift = TorusLattice(L=lattice.L, R=lattice.R, gamma=lattice.gamma, m=m / math.sqrt(1.0 - s))
    W_conf = yukawa_table(lat_shift)
    # field side: Cov(x) = alpha^2 * ifft[ 1 / (m^2 + (1-s) lam) ], the
    # symbol given on the folded quarter k0, k1 >= 0; the characteristic
    # function weight for a configuration is exp(-(1/2) sum s s' Cov) and
    # the comparison divides out beta
    cov = alpha_sq * folded_table(1.0 / (m * m + (1.0 - s) * _quarter_symbol(lattice)))
    W_field = cov / beta  # equals W(x; m/sqrt(1-s)) when the split is right
    per_n = {}
    worst = 0.0
    for n in range(n_max + 1):
        a = _sector_sums(lattice.side, beta, n, W_conf)
        b = _sector_sums(lattice.side, beta, n, W_field)
        for Q in set(a) | set(b):
            va, vb = a.get(Q, 0.0), b.get(Q, 0.0)
            scale = max(abs(va), abs(vb), 1e-300)
            rel = abs(va - vb) / scale
            per_n[(n, Q)] = rel
            worst = max(worst, rel)
    return SiegertKacReport(beta=beta, s=s, alpha_sq=alpha_sq, max_rel_mismatch=worst, per_n=per_n)


def pressure_estimate(lattice: TorusLattice, beta: float, z: float, n_max: int) -> float:
    """(beta |Lambda|)^-1 ln Z from the neutral sums; finite-size value only."""
    res = neutral_Z(lattice, beta, z, n_max)
    Z = res.Z(0.0)
    if Z <= 0.0:
        raise ValueError("nonpositive partition sum (numeric underflow?)")
    return math.log(Z) / (beta * lattice.n_sites)
