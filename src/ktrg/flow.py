"""Discrete KT flow in rescaled couplings.

The rescaled variables are x = b*s and y = sqrt(a*b)*z, so the quadratic
truncation reads x' = x - y^2, y' = y - x*y with the approximate solution
envelope q_j = q_1/(1 + |q_1|(j-1)).  The per-scale coefficients a_j, b_j
and volume factors vol_j enter the step only through their deviations from
the limit flow (a, b the limit constants): a_j/a - 1, vol_j - 1 and
vol_j b_j/b - 1.  A config carries these as one table, row j - 1 for scale
j; past its depth the flow is the limit flow, so depth 0 is limit mode.
The feeds F_j, M_j of the irrelevant remainder depend on the full polymer
activity and are out of scope, so the flow carries only the two couplings
(x, y).

`corrections` is the one place where the per-scale terms are written; it
takes floats or equal-shape arrays (j an int or an int array), rounds both
the same way and returns exact zeros past the table.  `_advance`, the one
step built on it, serves `step` and `trajectory`; the fixed-point map
`manifold.apply_T` calls the kernel once, on the scales of the table.
`diagonal` is the limit flow on its separatrix x = y, where the step
reduces to s' = s - s^2; `trajectory` takes it for starts on the diagonal,
and it seeds `manifold.solve_fixed_point`.  The shooting oracle
(`manifold._classify`) shares none of this: it classes a start in the unit
square by the sign of x - y, and writes out the bare quadratic step only
for the one step a start outside the square may need to reach an exit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FlowConfig",
    "FlowState",
    "FlowTrajectory",
    "kosterlitz_q_array",
    "corrections",
    "step",
    "trajectory",
    "diagonal",
    "DeviationFit",
    "deviation_profile",
    "from_rescaled",
    "trajectory_csv",
]


@dataclass(frozen=True)
class FlowConfig:
    ceiling: float = 1.0
    horizon: int = 100_000
    # row j - 1: the deviations (a_j/a - 1, vol_j - 1, vol_j b_j/b - 1) of
    # scale j from the limit flow; past the table the flow is the limit
    # flow, so the empty table (depth 0) is limit mode
    deviations: tuple = ()

    def __post_init__(self):
        if not (math.isfinite(self.ceiling) and self.ceiling > 0.0):
            raise ValueError(f"ceiling must be finite and > 0, got {self.ceiling}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        rows = tuple(tuple(map(float, row)) for row in self.deviations)
        if not all(len(row) == 3 and all(map(math.isfinite, row)) for row in rows):
            raise ValueError(f"deviations must be rows of 3 finite numbers, got {self.deviations}")
        object.__setattr__(self, "deviations", rows)

    @property
    def depth(self) -> int:
        """The number of scales with a deviation row (0: the limit flow)."""
        return len(self.deviations)


@dataclass(frozen=True)
class FlowState:
    j: int
    x: float
    y: float


@dataclass
class FlowTrajectory:
    config: FlowConfig
    x: np.ndarray
    y: np.ndarray
    diverged_at: int | None = None
    diverged_in: str | None = None  # "x" or "y"

    @property
    def horizon(self) -> int:
        return len(self.x)

    def state(self, j: int) -> FlowState:
        return FlowState(j=j, x=float(self.x[j - 1]), y=float(self.y[j - 1]))


def kosterlitz_q_array(q1: float, horizon: int) -> np.ndarray:
    js = np.arange(1, horizon + 1, dtype=float)
    return q1 / (1.0 + abs(q1) * (js - 1.0))


def corrections(j, x, y, config: FlowConfig):
    """(F~, M~): the per-scale corrections to the quadratic step.

    Floats or equal-shape arrays; j is an int or an int array.  Row j - 1
    of the deviation table gives the terms at scale j; past the table they
    are exact zeros, which an int j past it returns without numpy.
    """
    past = j > config.depth
    if isinstance(j, int):
        if past:
            return 0.0, 0.0
        da, dv, dvb = config.deviations[j - 1]
    else:
        rows = np.asarray(config.deviations + ((0.0, 0.0, 0.0),))
        da, dv, dvb = rows[np.minimum(j, config.depth + 1) - 1].T
    F = -da * y * y
    M = dv * y - dvb * x * y
    if isinstance(j, int):
        return F, M
    # the zero row gives -0.0 terms where the scalar path returns +0.0
    return np.where(past, 0.0, F), np.where(past, 0.0, M)


def _advance(j, x, y, config: FlowConfig):
    """One RG step from scale j: (x, y) at scale j + 1."""
    F, M = corrections(j, x, y, config)
    return x - y * y + F, y - x * y + M


def step(state: FlowState, config: FlowConfig) -> FlowState:
    """One RG step of the rescaled flow."""
    x, y = _advance(state.j, state.x, state.y, config)
    return FlowState(j=state.j + 1, x=x, y=y)


def trajectory(x1: float, y1: float, config: FlowConfig) -> FlowTrajectory:
    """Iterate the flow for config.horizon scales, recording first divergence.

    A limit-mode (depth 0) start on the diagonal, 0 < x1 == y1 <=
    min(1, ceiling), takes `diagonal`, which gives the same x and y bit for
    bit: the sequence then decreases and never passes the ceiling.
    """
    for name, v in (("x1", x1), ("y1", y1)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    J = config.horizon
    if not config.depth and 0.0 < x1 == y1 <= min(1.0, config.ceiling):
        s = diagonal(y1, J)
        return FlowTrajectory(config=config, x=s, y=s.copy())
    xs = np.empty(J)
    ys = np.empty(J)
    x, y = float(x1), float(y1)
    ceiling = config.ceiling
    for i in range(J):
        xs[i], ys[i] = x, y
        if abs(x) > ceiling or abs(y) > ceiling:
            n = i + 1
            return FlowTrajectory(config=config, x=xs[:n], y=ys[:n],
                                  diverged_at=n, diverged_in="y" if abs(y) >= abs(x) else "x")
        x, y = _advance(i + 1, x, y, config)
    return FlowTrajectory(config=config, x=xs, y=ys)


def diagonal(s1: float, horizon: int) -> np.ndarray:
    """s_j, j = 1..horizon, of the limit flow started on x = y at s1.

    On x = y the limit step is x' = y' = s - s^2, so this is the x and y
    of the step loop in `trajectory` started at (s1, s1) in limit mode, bit
    for bit, at about a sixth of its cost per step; `trajectory` takes it
    for such starts.  For 0 <= s1 <= 1 the sequence stays in [0, 1] and
    never reaches the default ceiling.  (A
    start at -0.0 keeps its sign here; trajectory's zero correction turns
    it into +0.0 from j = 2 on.)
    """
    if not 0.0 <= s1 <= 1.0:
        raise ValueError(f"diagonal start must lie in [0, 1], got {s1}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    out = np.empty(horizon)
    s = float(s1)
    for i in range(horizon):
        out[i] = s
        s = s - s * s
    return out


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


def from_rescaled(x: float, y: float, a: float, b: float) -> tuple[float, float]:
    return x / b, y / math.sqrt(a * b)


# rows of the trajectory CSV formatted per chunk (trajectory_csv)
CSV_CHUNK_ROWS = 4096


def trajectory_csv(traj: FlowTrajectory, q1: float, path: str):
    """Write the trajectory and the envelope q_j of q1 to path, one row per scale j.

    Each chunk of CSV_CHUNK_ROWS rows is one %-format of its values, with
    %.17g as the per-row f-string's .17g writes them.
    """
    q = kosterlitz_q_array(q1, traj.horizon)
    with open(path, "w", newline="\n") as f:
        f.write("j,x,y,q_j,x_minus_q,y_minus_q\n")
        for s in range(0, traj.horizon, CSV_CHUNK_ROWS):
            e = min(s + CSV_CHUNK_ROWS, traj.horizon)
            x, y, qs = traj.x[s:e], traj.y[s:e], q[s:e]
            cols = np.column_stack([np.arange(s + 1, e + 1), x, y, qs, x - qs, y - qs])
            f.write("%d,%.17g,%.17g,%.17g,%.17g,%.17g\n" * (e - s) % tuple(cols.ravel().tolist()))
