"""Separatrix initial condition by the stable/unstable fixed-point scheme.

Writing x_j = q_j + u_j, y_j = q_j + v_j and diagonalizing the linearized
flow along the envelope q_j gives the stable direction w+ = u + 2v and the
unstable direction w- = u - v.  The flow becomes a fixed-point problem for
the map T on weighted sequences,

    (Tw)+_j = (q_j/q_1)^2 w-_1 + sum_{s<j} (q_j/q_{s+1})^2 W+_s
    (Tw)-_j = -sum_{s>=j} (q_{s+1}/q_j) W-_s          (tail closed analytically)

whose unique fixed point in the ball |w+_j| <= tau h_j, |w-_j| <= tau h_j/2
with h_j = y_1 (1 + y_1 (j-1))^(-3/2) reconstructs the separatrix
x_1 = Sigma(y_1) = y_1 + w-_1.  An independent bisection-shooting solver
provides the cross-check oracle.

The limit flow keeps the diagonal x = y, so there the fixed point is known
in closed form: w- = 0 and w+ = 3(s - q), with s_j the diagonal flow
s' = s - s^2 (`flow.diagonal`).  `solve_fixed_point` starts T from that
sequence in both modes; in limit mode two applications of T reach its
float fixed point, which rounding in the J-long prefix sums puts up to
about 2.4e-11 (weighted norm) off the exact diagonal.

A per-scale config enters T through `flow.corrections` on the first
min(depth, J) scales, those of its deviation table.  Past the table T is
the limit flow's map: a table that ends away from zero no longer acts at
every scale up to J, and limit mode (depth 0) adds no corrections at all.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .flow import FlowConfig, corrections, diagonal, kosterlitz_q_array

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

# the admissible activities |y1| <= EPS1 of the weighted-ball fixed point
EPS1 = 0.05


@dataclass(frozen=True)
class ManifoldProblem:
    y1: float
    J: int = 100_000
    tau: float = 0.1
    flow: FlowConfig = field(default_factory=FlowConfig)

    def __post_init__(self):
        if not math.isfinite(self.y1):
            raise ValueError(f"y1 must be finite, got {self.y1}")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau must be finite and > 0, got {self.tau}")
        if abs(self.y1) > EPS1:
            raise ValueError(f"|y1| = {abs(self.y1)} above the admissible eps1 = {EPS1}")
        if self.J < 8:
            raise ValueError("horizon too short")

    def h(self) -> np.ndarray:
        """Weight sequence h_j = y1 (1 + y1 (j-1))^(-3/2), j = 1..J (read-only)."""
        return self._h

    def q(self) -> np.ndarray:
        """Kosterlitz envelope q_j, j = 1..J (read-only)."""
        return self._q

    # Computed once per problem: apply_T, seq_norm and _distance read both
    # on every call.
    @cached_property
    def _h(self) -> np.ndarray:
        y1 = abs(self.y1)
        h = y1 * (1.0 + y1 * np.arange(self.J, dtype=float)) ** -1.5
        h.flags.writeable = False
        return h

    @cached_property
    def _q(self) -> np.ndarray:
        q = kosterlitz_q_array(self.y1, self.J)
        q.flags.writeable = False
        return q


@dataclass
class WeightedSequence:
    w_plus: np.ndarray
    w_minus: np.ndarray

    @staticmethod
    def zero(J: int) -> "WeightedSequence":
        return WeightedSequence(np.zeros(J), np.zeros(J))


def diagonalize(u: float, v: float) -> tuple[float, float]:
    """(w+, w-) = (u + 2v, u - v)."""
    return u + 2.0 * v, u - v


def undiagonalize(w_plus: float, w_minus: float) -> tuple[float, float]:
    """(u, v) = ((w+ + 2 w-)/3, (w+ - w-)/3)."""
    return (w_plus + 2.0 * w_minus) / 3.0, (w_plus - w_minus) / 3.0


def seq_norm(seq: WeightedSequence, prob: ManifoldProblem) -> float:
    """Weighted sup norm: max over j of the two channel ratios (NaN if either is)."""
    th = prob.tau * prob.h()
    a = np.max(np.abs(seq.w_plus) / th)
    b = 2.0 * np.max(np.abs(seq.w_minus) / th)
    return float(np.maximum(a, b))


def _distance(a: WeightedSequence, b: WeightedSequence, prob: ManifoldProblem) -> float:
    """Weighted sup-norm distance between two sequences."""
    return seq_norm(WeightedSequence(a.w_plus - b.w_plus, a.w_minus - b.w_minus), prob)


def _tail_envelope(prob: ManifoldProblem) -> float:
    """sum_{s > J} q_{s+1} h_s^2 ~ q1^2 (1 + q1 J)^(-3) / 3 (positive y1)."""
    q1 = abs(prob.y1)
    if q1 == 0.0:
        return 0.0
    return q1 * q1 * (1.0 + q1 * prob.J) ** -3 / 3.0


def apply_T(seq: WeightedSequence, prob: ManifoldProblem) -> WeightedSequence:
    """One application of the fixed-point map T.

    With q' = q/(1 + q) the next envelope value, q - q^2 = q' - q^2 q', so
    the step x' = x - y^2 + F, y' = y - x y + M becomes

        w+' = (1 - 2q) w+ + U + 2V,    w-' = (1 + q) w- + U - V,
        U = -v^2 - q^2 q' + F,         V = -u v - q^2 q' + M.

    T propagates w- by q/q' = 1 + q, exactly, and w+ by (q'/q)^2; the
    stable channel's remainder is then (1 - 2q) - (q'/q)^2 =
    -(3 + 2q) q'^2, so W+ = U + 2V - (3 + 2q) q'^2 w+ and W- = U - V.

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
    U = -(v * v) - q * q * q_next
    V = -(u * v) - q * q * q_next
    # past the table (everywhere in limit mode) the corrections are zero
    n = min(prob.flow.depth, J)
    if n:
        Ft, Mt = corrections(np.arange(1, n + 1), q[:n] + u[:n], q[:n] + v[:n], prob.flow)
        U[:n] += Ft
        V[:n] += Mt
    Wp = U + 2.0 * V - (3.0 + 2.0 * q) * q_next**2 * seq.w_plus
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
    return WeightedSequence(w_plus_new, w_minus_new)


@dataclass
class FixedPointResult:
    """Sigma(y1) = y1 + w-_1 at the fixed point `seq`.

    `iterations` counts the applications of T from the diagonal seed (2 in
    limit mode, 1 at the shortest horizons), `residual` is the weighted distance moved by the last one,
    and `in_ball` says whether `seq` lies in the weighted ball.
    """

    sigma: float
    seq: WeightedSequence
    iterations: int
    residual: float
    in_ball: bool


def solve_fixed_point(prob: ManifoldProblem, tol: float = 1e-13, max_iter: int = 200) -> FixedPointResult:
    """Iterate T from the diagonal seed; Sigma(y1) = y1 + w-_1 at the fixed point.

    The seed is the limit flow's separatrix: (w+, w-) = diagonalize(d, d)
    with d = diagonal(y1, J) - q, so w+ = 3d and w- = 0.  It is the fixed
    point of the limit flow up to rounding and the start of the per-scale
    one; the iteration stops once an application moves the sequence by at
    most tol (weighted norm).  Sigma is even in y1 (the flow's y-parity), so
    negative activities are solved at |y1|; `diagonal` rejects |y1| > 1.
    """
    if prob.y1 == 0.0:
        return FixedPointResult(0.0, WeightedSequence.zero(prob.J), 0, 0.0, True)
    if prob.y1 < 0.0:
        return solve_fixed_point(replace(prob, y1=-prob.y1), tol=tol, max_iter=max_iter)
    d = diagonal(prob.y1, prob.J) - prob.q()
    seq = WeightedSequence(*diagonalize(d, d))
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


def _classify(x1: float, y1: float, ceiling: float) -> str:
    """'unstable' if the growing-y side wins, 'stable' if y dies out,
    'diagonal' for a start on the limit-flow separatrix x = y itself.

    Outside the square 0 < x, y < min(1, ceiling) the exits decide: y <= 0
    is stable (unstable if x <= -ceiling), y >= ceiling and x <= 0 < y
    unstable, x >= ceiling stable.  A finite start with x or y in
    [1, ceiling) meets one of them after one bare step: x >= 1 gives y' <= 0, and
    x < 1 <= y gives x' < 0 <= y'.

    Inside the square the sign of x - y decides, by the order lemma: the
    rounded step (x - fl(y^2), y - fl(xy)) keeps the weak order of x and y.
    If x > y then xy > y^2, so fl(xy) >= fl(y^2) by monotone rounding,
    x - fl(y^2) > y - fl(xy), and x' >= y'; likewise with x < y.  So a
    rounded trajectory never crosses the diagonal, and in exact arithmetic
    x' - y' = (x - y)(1 + y) leaves it: y dies out where x > y and runs to
    the ceiling where x < y.  A start a few ulps off the diagonal may round
    onto it (x' = y') and stay there; it is classed by the side it starts
    on, its class in exact arithmetic.
    """
    x, y = float(x1), float(y1)
    while True:
        if y <= 0.0:
            return "unstable" if x <= -ceiling else "stable"
        if y >= ceiling:
            return "unstable"
        if x >= ceiling:
            return "stable"
        if x <= 0.0:
            return "unstable"
        if x < 1.0 and y < 1.0:
            return "stable" if x > y else "unstable" if x < y else "diagonal"
        # the bare step, written out: this oracle shares no code with the fixed point
        x, y = x - y * y, y - x * y


def solve_shooting(y1: float, flow_config: FlowConfig | None = None,
                   bracket: tuple[float, float] = (0.0, 0.1), tol: float = 1e-10) -> float:
    """Bisection on x_1 between y-escape and y-death; only the quadratic flow.

    The classifier holds for the limit flow, whose separatrix is x = y; a
    config with a deviation table is rejected to keep the oracle honest.
    The bisection stops at width tol, or earlier once lo and hi are
    adjacent floats.  A start on the diagonal x = y (a bracket edge or a
    midpoint) is returned as it is: it lies on the separatrix.
    """
    if flow_config is not None and flow_config.depth:
        raise ValueError("shooting oracle runs the bare quadratic flow only")
    if not math.isfinite(y1):
        raise ValueError(f"y1 must be finite, got {y1}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"shooting tol must be finite and > 0, got {tol}")
    lo, hi = bracket
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"shooting bracket must be finite with lo < hi, got {bracket}")
    ceiling = flow_config.ceiling if flow_config is not None else 1.0
    if y1 == 0.0:
        return 0.0
    # Sigma is even in y1 (flow parity), so shoot with |y1|
    y1 = abs(y1)
    c_lo = _classify(lo, y1, ceiling)
    c_hi = _classify(hi, y1, ceiling)
    if "diagonal" in (c_lo, c_hi):
        return lo if c_lo == "diagonal" else hi
    if c_lo == c_hi:
        raise ValueError(f"bracket {bracket} does not straddle the separatrix (both {c_lo})")
    if c_lo != "unstable":
        raise ValueError("expected the lower bracket edge on the unstable side")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats
        side = _classify(mid, y1, ceiling)
        if side == "diagonal":
            return mid
        if side == "unstable":
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def empirical_contraction(prob: ManifoldProblem, n_samples: int = 100, seed: int = 7) -> float:
    """Max Lipschitz ratio of T over sampled pairs in the weighted ball; 0 at y1 = 0 (T = 0)."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if prob.y1 == 0.0:
        return 0.0
    rng = np.random.default_rng(seed)
    th = prob.tau * prob.h()
    worst = 0.0
    for i in range(n_samples):
        a, b = (WeightedSequence(th * rng.uniform(-1.0, 1.0, prob.J), 0.5 * th * rng.uniform(-1.0, 1.0, prob.J))
                for _ in range(2))
        dn = _distance(a, b, prob)
        if dn == 0.0:
            continue
        ratio = _distance(apply_T(a, prob), apply_T(b, prob), prob) / dn
        if not math.isfinite(ratio):
            raise RuntimeError(f"contraction sample {i}: Lipschitz ratio {ratio} is not finite")
        worst = max(worst, ratio)
    return worst


def separatrix_csv(rows: list[dict], path: str):
    """One row per activity.

    The error budget travels in two columns: `fixed_point_residual` is the
    weighted sup-norm of the last fixed-point update and `shooting_tol`
    bounds the final bisection width of the shooting oracle.  `iterations`
    counts the applications of T from the diagonal seed.
    """
    cols = ["y1", "sigma_fixed_point", "sigma_shooting", "iterations", "contraction_estimate",
            "fixed_point_residual", "shooting_tol", "z", "s", "beta"]
    with open(path, "w", newline="\n") as f:
        f.write(",".join(cols) + "\n")
        for r in rows:
            f.write(",".join(f"{r[c]:.17g}" if isinstance(r[c], float) else str(r[c]) for c in cols) + "\n")
