"""Separatrix initial condition by the stable/unstable fixed-point scheme.

Writing x_j = q_j + u_j, y_j = q_j + v_j and diagonalizing the linearized
flow along the envelope q_j gives the stable direction w+ = u + 2v and the
unstable direction w- = u - v.  The flow becomes a fixed-point problem for
the map T on weighted sequences,

    (Tw)+_j = (q_j/q_1)^2 w-_1 + sum_{s<j} (q_j/q_{s+1})^2 W+_s
    (Tw)-_j = -sum_{s>=j} (q_{s+1}/q_j) W-_s          (tail closed analytically)
    (Tw)0_j = sum_{s<j} rho^{j-1-s} W0_s              (surrogate channel)

whose unique fixed point in the ball |w+_j| <= tau h_j, |w-_j| <= tau h_j/2,
kappa_j <= (tau h_j)^2 with h_j = y_1 (1 + y_1 (j-1))^(-3/2) reconstructs
the separatrix x_1 = Sigma(y_1) = y_1 + w-_1.  An independent
bisection-shooting solver provides the cross-check oracle.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .flow import FlowConfig, corrections, kosterlitz_q_array

__all__ = [
    "ManifoldProblem",
    "WeightedSequence",
    "diagonalize",
    "undiagonalize",
    "seq_norm",
    "apply_T",
    "FixedPointResult",
    "solve_fixed_point",
    "solve_shooting",
    "empirical_contraction",
    "separatrix_csv",
]


@dataclass(frozen=True)
class ManifoldProblem:
    y1: float
    J: int = 100_000
    tau: float = 0.1
    flow: FlowConfig = field(default_factory=FlowConfig)
    eps1: float = 0.05

    def __post_init__(self):
        if not math.isfinite(self.y1):
            raise ValueError(f"y1 must be finite, got {self.y1}")
        for name, v in (("tau", self.tau), ("eps1", self.eps1)):
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        if abs(self.y1) > self.eps1:
            raise ValueError(f"|y1| = {abs(self.y1)} above the admissible eps1 = {self.eps1}")
        if self.J < 8:
            raise ValueError("horizon too short")

    def h(self) -> np.ndarray:
        """Weight sequence h_j = y1 (1 + y1 (j-1))^(-3/2), j = 1..J."""
        y1 = abs(self.y1)
        js = np.arange(self.J, dtype=float)
        return y1 * (1.0 + y1 * js) ** -1.5

    def q(self) -> np.ndarray:
        return kosterlitz_q_array(self.y1, self.J)


@dataclass
class WeightedSequence:
    w_plus: np.ndarray
    w_minus: np.ndarray
    kappa: np.ndarray

    @staticmethod
    def zero(J: int) -> "WeightedSequence":
        return WeightedSequence(np.zeros(J), np.zeros(J), np.zeros(J))


def diagonalize(u: float, v: float) -> tuple[float, float]:
    """(w+, w-) = (u + 2v, u - v)."""
    return u + 2.0 * v, u - v


def undiagonalize(w_plus: float, w_minus: float) -> tuple[float, float]:
    """(u, v) = ((w+ + 2 w-)/3, (w+ - w-)/3)."""
    return (w_plus + 2.0 * w_minus) / 3.0, (w_plus - w_minus) / 3.0


def seq_norm(seq: WeightedSequence, prob: ManifoldProblem) -> float:
    """Weighted sup norm: max over j of the three channel ratios."""
    th = prob.tau * prob.h()
    a = np.max(np.abs(seq.w_plus) / th)
    b = 2.0 * np.max(np.abs(seq.w_minus) / th)
    c = np.max(seq.kappa / th**2)
    return float(max(a, b, c))


def _distance(a: WeightedSequence, b: WeightedSequence, prob: ManifoldProblem) -> float:
    """Weighted sup-norm distance between two sequences."""
    return seq_norm(WeightedSequence(a.w_plus - b.w_plus, a.w_minus - b.w_minus, np.abs(a.kappa - b.kappa)), prob)


def _tail_envelope(prob: ManifoldProblem) -> float:
    """sum_{s > J} q_{s+1} h_s^2 ~ q1^2 (1 + q1 J)^(-3) / 3 (positive y1)."""
    q1 = abs(prob.y1)
    if q1 == 0.0:
        return 0.0
    return q1 * q1 * (1.0 + q1 * prob.J) ** -3 / 3.0


def apply_T(seq: WeightedSequence, prob: ManifoldProblem) -> WeightedSequence:
    """One application of the fixed-point map T.

    Inputs outside the weighted ball are accepted but warned about: the
    contraction estimates only cover the ball, so the image may leave it.
    """
    J = prob.J
    if prob.y1 == 0.0:
        # all q_j vanish; the zero sequence is the (unique) fixed point
        return WeightedSequence.zero(J)
    if seq_norm(seq, prob) > 1.0 + 1e-9:
        warnings.warn("sequence outside the weighted ball; contraction not guaranteed", stacklevel=2)
    q = prob.q()
    q_next = np.append(q[1:], prob.y1 / (1.0 + abs(prob.y1) * J))
    u, v = undiagonalize(seq.w_plus, seq.w_minus)
    cfg = prob.flow
    Ft, Mt, K = corrections(np.arange(1, J + 1), q + u, q + v, seq.kappa, cfg)
    U = -(v * v) - q * q * q_next + Ft
    V = -(u * v) - q * q * q_next + Mt
    Wp = U + 2.0 * V + (2.0 * q - q_next) * q_next * seq.w_plus
    Wm = U - V

    # unstable channel: suffix sums plus the analytic tail closure, which
    # extends W- beyond J with its h^2 envelope
    suffix = np.cumsum((q_next * Wm)[::-1])[::-1]
    h = prob.h()
    tail = (Wm[-1] / h[-1] ** 2 if h[-1] > 0 else 0.0) * _tail_envelope(prob)
    w_minus_new = -(suffix + tail) / q
    # stable channel: prefix sums, seeded by the shared initial datum w-_1
    prefix = np.concatenate([[0.0], np.cumsum(Wp / q_next**2)[:-1]])
    w_plus_new = q * q * (seq.w_minus[0] / q[0] ** 2 + prefix)

    # surrogate channel: kappa_j = sum_{s<j} rho^{j-1-s} c_R K_s
    kap = np.zeros(J)
    if cfg.surrogate:
        acc = 0.0
        for i, w in enumerate((cfg.c_R * K)[:-1].tolist(), start=1):
            acc = cfg.rho * acc + w
            kap[i] = acc
    return WeightedSequence(w_plus_new, w_minus_new, kap)


@dataclass
class FixedPointResult:
    sigma: float
    seq: WeightedSequence
    iterations: int
    residual: float
    in_ball: bool


def solve_fixed_point(prob: ManifoldProblem, tol: float = 1e-13, max_iter: int = 200) -> FixedPointResult:
    """Iterate T from zero; Sigma(y1) = y1 + w-_1 at the fixed point.

    Sigma is even in y1 (the flow's y-parity), so negative activities are
    solved at |y1|.
    """
    if prob.y1 == 0.0:
        return FixedPointResult(0.0, WeightedSequence.zero(prob.J), 0, 0.0, True)
    if prob.y1 < 0.0:
        return solve_fixed_point(replace(prob, y1=-prob.y1), tol=tol, max_iter=max_iter)
    seq = WeightedSequence.zero(prob.J)
    prev_res = None
    for it in range(1, max_iter + 1):
        new = apply_T(seq, prob)
        res = _distance(new, seq, prob)
        seq = new
        if res <= tol:
            break
        if prev_res is not None and prev_res > 0 and res / prev_res > 0.95 and res > 100 * tol:
            raise RuntimeError(f"fixed-point iteration not contracting: ratio {res / prev_res:.3f}")
        prev_res = res
    else:
        raise RuntimeError(f"fixed point at y1={prob.y1} not converged after {max_iter} iterations: "
                           f"residual {res:.3e} above tol {tol:.1e}")
    sigma = prob.y1 + float(seq.w_minus[0])
    return FixedPointResult(sigma=sigma, seq=seq, iterations=it, residual=res,
                            in_ball=seq_norm(seq, prob) <= 1.0 + 1e-9)


# ---------------------------------------------------------------------------
# shooting oracle

# Flow steps per unchecked block of the shooting oracle (see _classify).
_BLOCK = 256


def _classify(x1: float, y1: float, ceiling: float, j_max: int) -> str:
    """'unstable' if the growing-y side wins, 'stable' if y dies out.

    Below the separatrix y escapes towards the ceiling (with x running off
    to -infinity); above it the activity decays to zero while x stays
    bounded.  A trajectory is decided at the first of these exits, tested
    before each of at most j_max steps:

    - y <= 0: stable, unless x <= -ceiling already;
    - y >= ceiling, or the unstable wedge y >= 2x, x < 1 (y > 0): unstable;
    - x >= ceiling, or the stable wedge x >= 2y > 0: stable.

    Both wedges are forward invariant.  In the stable one y' = y(1 - x)
    only decays.  In the unstable one x < 1 keeps y' = y(1 - x) > 0, and
    x' = x - y^2 < x keeps x' < 1; for x <= 0 also x' < 0 < y', and for
    0 < x <= y/2 the ratio x/y does not increase, since
    x'/y' <= x/y <=> x^2 <= y^2.  There y - x > 0 grows by the factor
    1 + y each step, and y stays away from 0 (y >= y - x while x >= 0, and
    y grows once x < 0), so the trajectory reaches y >= ceiling or
    x <= -ceiling, where the ceiling rule alone also says 'unstable'.  No
    point of a wedge meets the other class's exits on the way, so every
    class is the one the ceiling rule gives, only decided sooner (in exact
    arithmetic; the tests check the rounded loop against that rule).
    The guard x < 1 matters: (1.1, 2.3) has y' < 0 and is stable for the
    ceiling 10.

    Near the separatrix a trajectory spends almost all its steps in the
    undecided cone Q = {0 < y < ceiling, y/2 < x < 2y, x < min(1, ceiling)},
    where no exit fires.  So the loop takes _BLOCK steps at a time with no
    test while the state lies in Q, tests Q once per block, and hands the
    rest to the per-step loop from the last state known to lie in Q.  That
    gives the per-step loop's class, or its "inconclusive after j_max
    steps" error, bit for bit, because a block that ends in Q never left it:

    - From Q, x' <= x and 0 <= y' <= y (rounding is monotone, x > 0 and
      x < 1), so a step leaves Q only into y = 0, the stable wedge or the
      unstable wedge, never through a ceiling or x >= min(1, ceiling).
    - None of these leads back into Q under the rounded step.  y = 0 stays
      0.  With s and p the rounded y^2 and xy: in the stable wedge
      xy >= y^2 gives p >= s, so x - s >= 2(y - p); in the unstable wedge
      with x > 0, y^2 >= xy gives s >= p, so 2(x - s) <= y - p.  Monotone
      rounding, and doubling, which commutes with rounding a difference of
      two doubles, turn these into x' >= 2y' and 2x' <= y'.  x <= 0 gives
      x' <= 0 < y <= y'.  Past an overflow the state stays non-finite.
    - Every state is stepped by the same expression, so the states and the
      step count at which the per-step loop decides are unchanged.

    The bare step is written out here rather than taken from `flow._advance`:
    this loop is the oracle that the fixed point is checked against, so it
    shares no code with it.  One pass of the benchmark's bisections at
    y1 = 0.02, 0.03, 0.04 is 96 classifications: 9.66e6 steps of the
    per-step loop, now 9.69e6 steps of which all but 9.8e3 run in blocks.
    A call per step would double their time, and the four exit tests per
    step took more than half of it.
    """
    x, y = float(x1), float(y1)
    x_cap = min(1.0, ceiling)
    left = j_max
    x0, y0, left0 = x, y, left
    while 0.0 < y < ceiling and y < 2.0 * x and x < 2.0 * y and x < x_cap:
        x0, y0, left0 = x, y, left
        if left < _BLOCK:
            break
        for _ in range(_BLOCK):
            x, y = x - y * y, y - x * y
        left -= _BLOCK
    x, y = x0, y0
    for _ in range(left0):
        if y <= 0.0:
            return "unstable" if x <= -ceiling else "stable"
        if y >= ceiling or (y >= 2.0 * x and x < 1.0):
            return "unstable"
        if x >= ceiling or x >= 2.0 * y:
            return "stable"
        x, y = x - y * y, y - x * y
    raise RuntimeError(f"shooting trajectory inconclusive after {j_max} steps")


def solve_shooting(y1: float, flow_config: FlowConfig | None = None,
                   bracket: tuple[float, float] = (0.0, 0.1), tol: float = 1e-10,
                   j_max: int = 10_000_000) -> float:
    """Bisection on x_1 between y-escape and y-death; only the quadratic flow.

    The surrogate-free limit-mode flow is hard-coded in the inner loop; a
    config requesting anything else is rejected to keep the oracle honest.
    The bisection stops at width tol, or earlier once lo and hi are
    adjacent floats.
    """
    if flow_config is not None and (flow_config.mode != "limit" or flow_config.surrogate):
        raise ValueError("shooting oracle runs the bare quadratic flow only")
    if not math.isfinite(y1):
        raise ValueError(f"y1 must be finite, got {y1}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"shooting tol must be finite and > 0, got {tol}")
    if isinstance(j_max, bool) or not isinstance(j_max, numbers.Integral) or j_max < 1:
        raise ValueError(f"j_max must be an int >= 1, got {j_max!r}")
    lo, hi = bracket
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"shooting bracket must be finite with lo < hi, got {bracket}")
    ceiling = flow_config.ceiling if flow_config is not None else 1.0
    if y1 == 0.0:
        return 0.0
    # Sigma is even in y1 (flow parity), so shoot with |y1|
    y1 = abs(y1)
    c_lo = _classify(lo, y1, ceiling, j_max)
    c_hi = _classify(hi, y1, ceiling, j_max)
    if c_lo == c_hi:
        raise ValueError(f"bracket {bracket} does not straddle the separatrix (both {c_lo})")
    if c_lo != "unstable":
        raise ValueError("expected the lower bracket edge on the unstable side")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats
        if _classify(mid, y1, ceiling, j_max) == "unstable":
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def empirical_contraction(prob: ManifoldProblem, n_samples: int = 100, seed: int = 7) -> float:
    """Max Lipschitz ratio of T over sampled pairs in the weighted ball."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    rng = np.random.default_rng(seed)
    th = prob.tau * prob.h()
    worst = 0.0
    for _ in range(n_samples):
        mats = []
        for _ in range(2):
            wp = th * rng.uniform(-1.0, 1.0, prob.J)
            wm = 0.5 * th * rng.uniform(-1.0, 1.0, prob.J)
            kp = th**2 * rng.uniform(0.0, 1.0, prob.J)
            mats.append(WeightedSequence(wp, wm, kp))
        a, b = mats
        dn = _distance(a, b, prob)
        if dn == 0.0:
            continue
        worst = max(worst, _distance(apply_T(a, prob), apply_T(b, prob), prob) / dn)
    return worst


def separatrix_csv(rows: list[dict], path: str):
    """One row per activity.

    The error budget travels in two columns: `fixed_point_residual` is the
    weighted sup-norm of the last fixed-point update and `shooting_tol`
    bounds the final bisection width of the shooting oracle.
    """
    cols = ["y1", "sigma_fixed_point", "sigma_shooting", "iterations", "contraction_estimate",
            "fixed_point_residual", "shooting_tol", "z", "s", "beta"]
    with open(path, "w", newline="\n") as f:
        f.write(",".join(cols) + "\n")
        for r in rows:
            f.write(",".join(f"{r[c]:.17g}" if isinstance(r[c], float) else str(r[c]) for c in cols) + "\n")
