"""Correctness checks of the workloads' outputs.

Each check takes plain values and returns None when the output is right, or
a message naming the quantity, the value and the bound when it is not.  The
checks test properties the method must have, or compare against a value the
benchmark computed apart from the program (reference.py); none compares
against a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

KT_ALPHA_SQ = 8.0 * math.pi


def first(*messages):
    """The first failure among several checks, or None."""
    for m in messages:
        if m:
            return m
    return None


def strictly_decreasing(name: str, values) -> str | None:
    for i in range(len(values) - 1):
        if not values[i + 1] < values[i]:
            return f"{name} does not decrease: {values[i + 1]:.6g} after {values[i]:.6g} (position {i + 2})"
    return None


def close(name: str, got: float, want: float, rel: float) -> str | None:
    if not abs(got - want) <= rel * max(abs(want), 1e-300):
        return f"{name} = {got!r} differs from {want!r} by more than {rel:g} relative"
    return None


# ---------------------------------------------------------------------------
# coeffs


def coeffs(rc: int, rows: list[dict], c_fit: float, slope: float, c_closed: float, L: int) -> str | None:
    """The `ktrg coeffs` run: exit code, per-scale coefficients and the constant c.

    rows: per scale j = 1.. the CSV fields a, b and vol.  a_1 is a
    coarse-scale value outside the limit regime and carries no sign claim;
    from j = 2 on a_j approaches its positive limit and must be positive.
    """
    if rc != 0:
        return f"ktrg coeffs exited {rc}"
    if not rows:
        return "no coefficient rows written"
    for r in rows:
        for key in ("a", "b", "vol"):
            if not math.isfinite(r[key]):
                return f"{key}_{r['j']} = {r[key]!r} is not finite"
        if not r["b"] > 0:
            return f"b_{r['j']} = {r['b']!r} is not positive"
        if r["j"] >= 2 and not r["a"] > 0:
            return f"a_{r['j']} = {r['a']!r} is not positive"
    a_lim = 8.0 * math.pi**2 * math.exp(c_closed) * math.log(L)
    b_lim = 2.0 * math.log(L)
    return first(
        strictly_decreasing("|b_j - 2 ln L|", [abs(r["b"] - b_lim) for r in rows]),
        strictly_decreasing("|a_j - 8 pi^2 e^c ln L|", [abs(r["a"] - a_lim) for r in rows]),
        strictly_decreasing("|L^2 e^(-4 pi Gamma_j(0)) - 1|", [abs(r["vol"] - 1.0) for r in rows]),
        None if abs(c_fit - c_closed) <= 1e-5 else
        f"window-fit c = {c_fit!r} is {abs(c_fit - c_closed):.2e} from the closed form {c_closed!r} (bound 1e-5)",
        None if abs(slope + 1.0 / (2.0 * math.pi)) <= 1e-6 else
        f"fitted slope {slope!r} is not -1/(2 pi) to 1e-6",
    )


# ---------------------------------------------------------------------------
# ktline


def separatrix_point(y1: float, sigma_fp: float, sigma_shoot: float, in_ball: bool) -> str | None:
    """Fixed point and shooting agree; the bare flow conserves x^2 - y^2, so
    the separatrix is x1 = y1."""
    if not in_ball:
        return f"fixed point at y1={y1!r} lies outside its tau-ball"
    if not abs(sigma_fp - sigma_shoot) <= 1e-8:
        return f"at y1={y1!r} fixed point {sigma_fp!r} and shooting {sigma_shoot!r} differ by more than 1e-8"
    if not abs(sigma_fp - y1) <= 1e-11:
        return f"Sigma({y1!r}) = {sigma_fp!r} is not y1 to 1e-11"
    return None


def transition_line(points: list[dict]) -> str | None:
    """Each (z, beta) lies above beta = 8 pi and beta rises with z."""
    for p in points:
        if not p["beta"] > KT_ALPHA_SQ:
            return f"beta = {p['beta']!r} at z = {p['z']!r} does not exceed 8 pi"
    ordered = sorted(points, key=lambda p: p["z"])
    for lo, hi in zip(ordered, ordered[1:]):
        if not hi["beta"] > lo["beta"]:
            return f"beta does not rise with z: {hi['beta']!r} at z={hi['z']!r} after {lo['beta']!r} at z={lo['z']!r}"
    return None


def contraction(estimate: float) -> str | None:
    if not (math.isfinite(estimate) and 0.0 < estimate <= 0.5):
        return f"empirical contraction estimate {estimate!r} is not in (0, 0.5]"
    return None


def deviation(diverged_at, exponent_x, exponent_y) -> str | None:
    """The on-manifold trajectory stays bounded and approaches the Kosterlitz
    envelope at least as fast as j^-1.3."""
    if diverged_at is not None:
        return f"on-manifold trajectory diverged at scale {diverged_at}"
    for name, e in (("x", exponent_x), ("y", exponent_y)):
        if e is None or not e <= -1.3:
            return f"deviation exponent in {name} is {e!r}, not <= -1.3"
    return None


# ---------------------------------------------------------------------------
# expansion


def extraction(sum_over_Y_zero: bool, id1_holds: bool, id2_holds: bool, counterexample) -> str | None:
    if sum_over_Y_zero and id1_holds and id2_holds:
        return None
    return f"extraction identity fails: sum_over_Y_zero={sum_over_Y_zero} id1={id1_holds} id2={id2_holds} at {counterexample!r}"


def polymer_counts(count_S: int, polyominoes: dict[int, int], reference: dict[int, int]) -> str | None:
    """count_S(L) = sum n * (fixed polyominoes of size n), n <= 4."""
    if polyominoes != reference:
        return f"count_polyominoes {polyominoes} differs from the enumeration {reference}"
    want = sum(n * c for n, c in reference.items())
    if count_S != want:
        return f"count_S = {count_S}, expected {want}"
    return None


def reblocking(n_polymers: int, holds: list[bool], eta: float) -> str | None:
    if n_polymers == 0:
        return "no polymers enumerated"
    bad = holds.count(False)
    if bad:
        return f"reblocking inequality fails at eta={eta} on {bad} of {n_polymers} polymers"
    return None


def oracle(parity: tuple[float, float], pair_coeff: float, pair_reference: float,
           sk_mismatch: float, gaps: list[float]) -> str | None:
    """z-parity exact, z^2 coefficient against the direct pair sum, Siegert-Kac
    identity, and the massive sums approaching the neutral one as m -> 0."""
    if parity[0] != parity[1]:
        return f"z-parity broken: Z(z) = {parity[0]!r}, Z(-z) = {parity[1]!r}"
    return first(
        close("z^2 coefficient of neutral_Z", pair_coeff, pair_reference, 1e-12),
        None if sk_mismatch <= 1e-10 else f"Siegert-Kac mismatch {sk_mismatch:.3e} above 1e-10",
        strictly_decreasing("|grand_Z(m) - neutral_Z|", gaps),
    )


def regulators(whole: float, parts: float, strong: float) -> str | None:
    """G factorizes over connected components; G^str <= G."""
    if not abs(whole - parts) <= 1e-12 * max(1.0, abs(whole)):
        return f"ln G = {whole!r} but the sum over components is {parts!r}"
    if not strong <= whole + 1e-12:
        return f"ln G^str = {strong!r} exceeds ln G = {whole!r}"
    return None


# ---------------------------------------------------------------------------
# stack


def stack_invariants(telescoping: float, telescoping_program: float, leakage: float,
                     psd_min: float) -> str | None:
    if not telescoping <= 1e-8:
        return f"telescoping error {telescoping!r} against the lattice tables above 1e-8"
    if not telescoping_program <= 1e-8:
        return f"telescoping_error() = {telescoping_program!r} above 1e-8"
    if not leakage <= 1e-6:
        return f"leakage {leakage!r} above 1e-6"
    if not psd_min >= -1e-10:
        return f"PSD margin {psd_min!r} below -1e-10"
    return None


def round_trip(written: list, read: list) -> str | None:
    """Every table read back equals the table written, bit for bit."""
    if len(written) != len(read):
        return f"{len(read)} tables read back, {len(written)} written"
    for i, (a, b) in enumerate(zip(written, read)):
        if a.shape != b.shape:
            return f"table {i} read back with shape {b.shape}, written {a.shape}"
        differ = np.argwhere(a.view(np.uint64) != b.view(np.uint64))
        if len(differ):
            where = tuple(int(v) for v in differ[0])
            return f"table {i} differs after the round trip at {where}: wrote {a[where]!r}, read {b[where]!r}"
    return None
