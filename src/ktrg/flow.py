"""Discrete KT flow in rescaled couplings.

The rescaled variables are x = b*s and y = sqrt(a*b)*z, so the quadratic
truncation reads x' = x - y^2, y' = y - x*y with the approximate solution
envelope q_j = q_1/(1 + |q_1|(j-1)).  Two refinements are supported: the
per-scale mode replaces the limit constants by the computed a_j, b_j and
volume factors, and the surrogate mode carries a nonnegative scalar kappa
standing in for the norm of the irrelevant remainder, contracting with
rate rho and fed by the cubic local error.

`corrections` is the one place where those per-scale and surrogate terms
are written; it takes floats or equal-shape arrays (j an int or an int
array) and rounds both the same way.  `_advance`, the one step built on
it, serves `step` and `trajectory`; the fixed-point map `manifold.apply_T`
calls the kernel once on whole sequences.  Only the shooting oracle
(`manifold._classify`) spells out the bare quadratic step on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FlowConfig",
    "FlowState",
    "FlowTrajectory",
    "kosterlitz_q",
    "kosterlitz_q_array",
    "corrections",
    "step",
    "trajectory",
    "DeviationFit",
    "deviation_profile",
    "to_rescaled",
    "from_rescaled",
    "step_original_zero",
    "trajectory_csv",
]


@dataclass(frozen=True)
class FlowConfig:
    mode: str = "limit"  # "limit" or "per-scale"
    surrogate: bool = False
    rho: float = 0.2
    c_R: float = 1.0
    c_F: float = 1.0
    c_M: float = 1.0
    ceiling: float = 1.0
    horizon: int = 100_000
    # per-scale data, indexed by j starting at 1 (frozen at the last entry)
    a_seq: tuple = ()
    b_seq: tuple = ()
    vol_seq: tuple = ()
    a_limit: float = 1.0
    b_limit: float = 1.0

    def __post_init__(self):
        if self.mode not in ("limit", "per-scale"):
            raise ValueError(f"unknown flow mode {self.mode!r}")
        if not (0.0 < self.rho < 1.0):
            raise ValueError("surrogate contraction rho must be in (0, 1)")
        for name, v in (("c_R", self.c_R), ("c_F", self.c_F), ("c_M", self.c_M)):
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"surrogate gain {name} must be finite and >= 0, got {v}")
        if not (math.isfinite(self.ceiling) and self.ceiling > 0.0):
            raise ValueError(f"ceiling must be finite and > 0, got {self.ceiling}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        for name in ("a_limit", "b_limit", "a_seq", "b_seq", "vol_seq"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class FlowState:
    j: int
    x: float
    y: float
    kappa: float = 0.0


@dataclass
class FlowTrajectory:
    config: FlowConfig
    x: np.ndarray
    y: np.ndarray
    kappa: np.ndarray
    diverged_at: int | None = None
    diverged_in: str | None = None  # "x" or "y"

    @property
    def horizon(self) -> int:
        return len(self.x)

    def state(self, j: int) -> FlowState:
        return FlowState(j=j, x=float(self.x[j - 1]), y=float(self.y[j - 1]), kappa=float(self.kappa[j - 1]))


def kosterlitz_q(q1: float, j: int) -> float:
    """q_j = q_1 / (1 + |q_1| (j-1))."""
    if j < 1:
        raise ValueError(f"scale index must be >= 1, got {j}")
    return q1 / (1.0 + abs(q1) * (j - 1))


def kosterlitz_q_array(q1: float, horizon: int) -> np.ndarray:
    js = np.arange(1, horizon + 1, dtype=float)
    return q1 / (1.0 + abs(q1) * (js - 1.0))


def _per_scale(config: FlowConfig, j):
    """(a_j, b_j, vol_j) with the sequence frozen past its last entry."""
    def pick(seq, default):
        return np.asarray(seq)[np.minimum(j, len(seq)) - 1] if seq else default

    return pick(config.a_seq, config.a_limit), pick(config.b_seq, config.b_limit), pick(config.vol_seq, 1.0)


def corrections(j, x, y, kappa, config: FlowConfig):
    """(F~, M~, K): per-scale corrections plus surrogate feedback, and the
    surrogate feed K = kappa^2 + kappa m + m^3 with m = max(|x|, |y|).

    Floats or equal-shape arrays; j is an int or an int array.  The limit
    flow without surrogate returns zeros and touches no numpy.
    """
    F = M = K = 0.0
    if config.mode == "per-scale":
        a_j, b_j, vol_j = _per_scale(config, j)
        F = -(a_j / config.a_limit - 1.0) * y * y
        M = (vol_j - 1.0) * y - (vol_j * b_j / config.b_limit - 1.0) * x * y
    if config.surrogate:
        m = np.maximum(np.abs(x), np.abs(y))
        F = F + config.c_F * kappa
        # odd in y so the y -> -y symmetry of the flow is preserved
        M = M + config.c_M * kappa * np.sign(y)
        K = kappa * kappa + kappa * m + m * m * m
    return F, M, K


def _advance(j, x, y, kappa, config: FlowConfig):
    """One RG step from scale j: (x, y, kappa) at scale j + 1."""
    F, M, K = corrections(j, x, y, kappa, config)
    kappa_next = config.rho * kappa + config.c_R * K if config.surrogate else 0.0
    return x - y * y + F, y - x * y + M, kappa_next


def step(state: FlowState, config: FlowConfig) -> FlowState:
    """One RG step of the rescaled flow."""
    x, y, kappa = _advance(state.j, state.x, state.y, state.kappa, config)
    return FlowState(j=state.j + 1, x=x, y=y, kappa=kappa)


def trajectory(x1: float, y1: float, config: FlowConfig, kappa1: float = 0.0) -> FlowTrajectory:
    """Iterate the flow for config.horizon scales, recording first divergence."""
    for name, v in (("x1", x1), ("y1", y1), ("kappa1", kappa1)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    J = config.horizon
    xs = np.empty(J)
    ys = np.empty(J)
    ks = np.empty(J)
    x, y, k = float(x1), float(y1), float(kappa1)
    ceiling = config.ceiling
    for i in range(J):
        xs[i], ys[i], ks[i] = x, y, k
        if abs(x) > ceiling or abs(y) > ceiling:
            n = i + 1
            return FlowTrajectory(config=config, x=xs[:n], y=ys[:n], kappa=ks[:n],
                                  diverged_at=n, diverged_in="y" if abs(y) >= abs(x) else "x")
        x, y, k = _advance(i + 1, x, y, k, config)
    return FlowTrajectory(config=config, x=xs, y=ys, kappa=ks)


@dataclass(frozen=True)
class DeviationFit:
    exponent_x: float | None
    amplitude_x: float | None
    exponent_y: float | None
    amplitude_y: float | None


def _fit_tail(devs: np.ndarray, js: np.ndarray) -> tuple[float, float] | tuple[None, None]:
    mask = devs > 1e-14
    if mask.sum() < 8:
        return None, None
    lo = len(devs) // 2
    mask[:lo] = False
    if mask.sum() < 8:
        return None, None
    A = np.vstack([np.log(js[mask]), np.ones(int(mask.sum()))]).T
    sol, *_ = np.linalg.lstsq(A, np.log(devs[mask]), rcond=None)
    return float(sol[0]), float(math.exp(sol[1]))


def deviation_profile(traj: FlowTrajectory, q1: float) -> DeviationFit:
    """Power-law fit of |x_j - q_j|, |y_j - q_j| over the trajectory tail."""
    if traj.diverged_at is not None:
        raise ValueError("deviation profile requires a non-diverged trajectory")
    J = traj.horizon
    js = np.arange(1, J + 1, dtype=float)
    q = kosterlitz_q_array(q1, J)
    ex, ax = _fit_tail(np.abs(traj.x - q), js)
    ey, ay = _fit_tail(np.abs(traj.y - q), js)
    return DeviationFit(exponent_x=ex, amplitude_x=ax, exponent_y=ey, amplitude_y=ay)


# -- original <-> rescaled variables ---------------------------------------


def to_rescaled(s: float, z: float, a: float, b: float) -> tuple[float, float]:
    return b * s, math.sqrt(a * b) * z


def from_rescaled(x: float, y: float, a: float, b: float) -> tuple[float, float]:
    return x / b, y / math.sqrt(a * b)


def step_original_zero(s: float, z: float, config: FlowConfig) -> tuple[float, float, float]:
    """The j = 0 step in original variables: (s_1, z_1, kappa_1)."""
    vol0 = config.vol_seq[0] if config.vol_seq else 1.0
    kappa1 = config.c_R * max(abs(s), abs(z)) ** 2 if config.surrogate else 0.0
    return s, vol0 * z, kappa1


def trajectory_csv(traj: FlowTrajectory, q1: float, path: str):
    q = kosterlitz_q_array(q1, traj.horizon)
    with open(path, "w", newline="\n") as f:
        f.write("j,x,y,kappa,q_j,x_minus_q,y_minus_q\n")
        for i in range(traj.horizon):
            f.write(
                f"{i + 1},{traj.x[i]:.17g},{traj.y[i]:.17g},{traj.kappa[i]:.17g},"
                f"{q[i]:.17g},{traj.x[i] - q[i]:.17g},{traj.y[i] - q[i]:.17g}\n"
            )
