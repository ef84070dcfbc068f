"""The four workloads: inputs made from the seed, program calls, checks.

Program functions are looked up on their modules at call time, so the
tracer's wrappers see every call.  Each `build_<name>(seed, out_dir)`
returns the list of operations of one pass; everything it computes before
returning is set-up.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import random
from fractions import Fraction

import numpy as np

import ktrg.cli as cli
import ktrg.coefficients as coefficients
import ktrg.cutoffs as cutoffs
import ktrg.decomposition as decomposition
import ktrg.flow as flow
import ktrg.lattice as lattice
import ktrg.manifold as manifold
import ktrg.oracle as oracle
import ktrg.polymers as polymers
import ktrg.regulators as regulators

import checks
import reference
from harness import Op

ALPHA_SQ = 8.0 * math.pi


# ---------------------------------------------------------------------------
# coeffs: `ktrg coeffs --L 9 --R 6 --j-max 3` in-process


class _Capture:
    """Pass-through that keeps the last result of the wrapped call."""

    def __init__(self, fn):
        self.fn = fn
        self.last = None

    def __call__(self, *args, **kwargs):
        self.last = self.fn(*args, **kwargs)
        return self.last


def build_coeffs(seed: int, out_dir: str) -> list[Op]:
    L, R, j_max = 9, 6, 3
    csv_path = os.path.join(out_dir, f"coefficients_L{L}.csv")
    argv = ["coeffs", "--L", str(L), "--R", str(R), "--j-max", str(j_max),
            "--out-dir", out_dir, "--seed", str(seed)]
    # the CLI's Coulomb-constant fit, kept for the check
    fit = _Capture(cli.coulomb_constant_c)
    cli.coulomb_constant_c = fit
    closed = {}

    def compute(ctx):
        if os.path.exists(csv_path):
            os.remove(csv_path)
        fit.last = None
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(rc, ctx):
        with open(csv_path, newline="") as f:
            rows = [dict(j=int(r["j"]), a=float(r["a_j"]), b=float(r["b_j"]), vol=float(r["volume_factor_j"]))
                    for r in csv.DictReader(f)]
        if [r["j"] for r in rows] != list(range(1, j_max + 1)):
            return f"scales {[r['j'] for r in rows]} written, expected 1..{j_max}"
        if "c" not in closed:
            lat = lattice.TorusLattice(L=L, R=R)
            closed["c"] = cutoffs.coulomb_constant_closed(cutoffs.build_cutoffs(3, lat.M, lat.n_fine_scales))
        if fit.last is None:
            return "the CLI did not fit the Coulomb constant"
        return checks.coeffs(rc, rows, fit.last.c, fit.last.slope, closed["c"], L)

    return [Op("coeffs_cli", compute, check)]


# ---------------------------------------------------------------------------
# ktline: separatrix sweep mapped to the (z, beta) plane

# The activities are fixed: the shooting oracle's cost depends on where its
# dyadic bisection midpoints fall relative to Sigma(y1), and moving y1 by 2%
# changes the flow steps it takes by up to 1.7x.  The seed draws the
# contraction sample pairs.
KTLINE_ACTIVITIES = (0.02, 0.03, 0.04)


def build_ktline(seed: int, out_dir: str) -> list[Op]:
    y1s = KTLINE_ACTIVITIES
    L = 9
    ops = []

    def solve(y1):
        def compute(ctx):
            fp = manifold.solve_fixed_point(manifold.ManifoldProblem(y1=y1))
            sh = manifold.solve_shooting(y1)
            ctx.setdefault("points", []).append(dict(y1=y1, sigma=fp.sigma))
            return fp, sh

        def check(out, ctx):
            fp, sh = out
            return checks.separatrix_point(y1, fp.sigma, sh, fp.in_ball)

        return Op(f"separatrix_y1={y1:.6f}", compute, check)

    ops.extend(solve(y1) for y1 in y1s)

    def line(ctx):
        c = cutoffs.coulomb_constant_closed(cutoffs.build_cutoffs(3, 1, 8))
        a_lim, b_lim = coefficients.limit_constants(L, ALPHA_SQ, c)
        out = []
        for p in ctx["points"]:
            s = p["sigma"] / b_lim
            out.append(dict(z=p["y1"] / math.sqrt(a_lim * b_lim), s=s, beta=ALPHA_SQ / (1.0 - s)))
        return out

    ops.append(Op("transition_line", line, lambda out, ctx: checks.transition_line(out)))

    y_c = y1s[len(y1s) // 2]
    ops.append(Op(
        "contraction",
        lambda ctx: manifold.empirical_contraction(manifold.ManifoldProblem(y1=y_c, J=4000), 50, seed=seed),
        lambda out, ctx: checks.contraction(out),
    ))

    def on_manifold(ctx):
        p = ctx["points"][0]
        traj = flow.trajectory(p["sigma"], p["y1"], flow.FlowConfig(horizon=100_000))
        fit = flow.deviation_profile(traj, p["y1"]) if traj.diverged_at is None else None
        return traj, fit

    def on_manifold_check(out, ctx):
        traj, fit = out
        return checks.deviation(traj.diverged_at, fit and fit.exponent_x, fit and fit.exponent_y)

    ops.append(Op("trajectory", on_manifold, on_manifold_check))
    return ops


# ---------------------------------------------------------------------------
# expansion: polymer bookkeeping, the oracle and the regulators

N_EXTRACTION = 10
N_FIELDS = 20
ORACLE_BETA = 8.0 * math.pi


def _random_fields(rng: np.random.Generator, n: int, side: int = 27) -> list:
    """Smooth random fields: three seeded Fourier modes each, amplitude 1..4."""
    x = np.arange(side)
    out = []
    for i in range(n):
        vals = np.zeros((side, side))
        for _ in range(3):
            k = rng.integers(1, 4, size=2)
            a = rng.normal(size=2)
            vals += a[0] * np.cos(2 * np.pi * (k[0] * x[:, None] + k[1] * x[None, :]) / side)
            vals += a[1] * np.sin(2 * np.pi * (k[0] * x[:, None] - k[1] * x[None, :]) / side)
        out.append(regulators.FieldOnTorus((1.0 + i % 4) * vals))
    return out


def build_expansion(seed: int, out_dir: str) -> list[Op]:
    rng = random.Random(seed)
    pav0 = polymers.paving(3, 2, 0)
    small_j = polymers._small_family(pav0)
    small_j1 = polymers._small_family(polymers.paving(3, 2, 1))
    stand_ins = []
    for _ in range(N_EXTRACTION):
        qbar = {s: Fraction(rng.randint(-50, 50), rng.randint(1, 16)) for s in rng.sample(small_j, 30)}
        q = {s: Fraction(rng.randint(-50, 50), rng.randint(1, 16)) for s in rng.sample(small_j1, 20)}
        stand_ins.append((qbar, q))
    shapes = reference.fixed_polyominoes(4)
    poly_counts = {n: len(s) for n, s in shapes.items()}
    k_refs = {L: reference.k_small_reference(10.0, 0.5, L, shapes) for L in (3, 9)}
    pair_refs = {side: reference.neutral_pair_coefficient(side, ORACLE_BETA) for side in (3, 5)}
    z = 0.02 + 0.06 * rng.random()
    fields = _random_fields(np.random.default_rng(seed), N_FIELDS)
    reg_X = polymers.polymer(polymers.paving(3, 3, 1), [(1, 1), (1, 2), (5, 5), (7, 0)])
    reg_consts = regulators.RegulatorConstants(c1=5.0, c3=1.0)

    ops = []
    for i, (qbar, q) in enumerate(stand_ins):
        def extract(ctx, qbar=qbar, q=q):
            return polymers.j_extraction_check(pav0, qbar, q)

        def extract_check(rep, ctx):
            return checks.extraction(rep.sum_over_Y_zero, rep.id1_holds, rep.id2_holds, rep.counterexample)

        ops.append(Op(f"extraction_{i}", extract, extract_check))

    ops.append(Op(
        "count_S",
        lambda ctx: (polymers.count_S(3), polymers.count_polyominoes(4)),
        lambda out, ctx: checks.polymer_counts(out[0], out[1], poly_counts),
    ))

    def reblock(ctx):
        fam = polymers.connected_polymers_up_to(pav0, 5)
        return len(fam), [polymers.reblock_inequality(X, 0.05) for X in fam]

    ops.append(Op("reblocking", reblock, lambda out, ctx: checks.reblocking(out[0], out[1], 0.05)))

    def k_small(ctx):
        return {L: polymers.k_small(10.0, 0.5, polymers.polymer(polymers.paving(L, 2, 1), [(1, 1)])) for L in (3, 9)}

    ops.append(Op("k_small", k_small, lambda out, ctx: checks.first(
        *(checks.close(f"k_small at L={L}", out[L], k_refs[L], 1e-12) for L in (3, 9)))))

    lat5 = oracle.oracle_lattice(5)
    lat3 = oracle.oracle_lattice(3)

    def oracle5(ctx):
        g = oracle.grand_Z(lat5, ORACLE_BETA, z, 4)
        n_pos = oracle.neutral_Z(lat5, ORACLE_BETA, z, 4)
        n_neg = oracle.neutral_Z(lat5, ORACLE_BETA, -z, 4)
        sk = oracle.siegert_kac_check(lat5, ORACLE_BETA, z, 4, s=0.0)
        return g, n_pos, n_neg, sk

    def oracle5_check(out, ctx):
        g, n_pos, n_neg, sk = out
        z0 = n_pos.Z(0.0)
        return checks.oracle((z0, n_neg.Z(0.0)), n_pos.coefficient(0.0, 2), pair_refs[5],
                             sk.max_rel_mismatch, [abs(g.Z(m) - z0) for m in g.m_sequence])

    ops.append(Op("oracle_side5", oracle5, oracle5_check))
    ops.append(Op(
        "neutral_Z_side3_n6",
        lambda ctx: oracle.neutral_Z(lat3, ORACLE_BETA, z, 6),
        lambda res, ctx: checks.close("z^2 coefficient of neutral_Z at side 3", res.coefficient(0.0, 2), pair_refs[3], 1e-12),
    ))

    def regulate(ctx):
        out = []
        for phi in fields:
            whole = regulators.log_field_regulator(phi, reg_X, reg_consts)
            parts = sum(regulators.log_field_regulator(phi, Y, reg_consts) for Y in polymers.components(reg_X))
            out.append((whole, parts, regulators.log_strong_regulator(phi, reg_X, reg_consts)))
        return out

    ops.append(Op("regulators", regulate, lambda out, ctx: checks.first(*(checks.regulators(*v) for v in out))))
    return ops


# ---------------------------------------------------------------------------
# stack: materialized tables, invariants, file round trip, L=3 coefficients

STACK_COEFF_SCALE = 3


def _telescoping_reference(stack) -> float:
    """max |sum_j Gamma_j + tail - W| / scale against the lattice module's FFT
    potential table (normalized form for the massless stack)."""
    total = sum(stack.gamma_tables)
    if stack.tail_is_normalized:
        total = total - total[0, 0] + stack.tail_table
        ref = lattice.normalized_potential_table(stack.lattice)
        return float(np.max(np.abs(total - ref)) / np.max(np.abs(ref)))
    ref = lattice.yukawa_table(stack.lattice)
    return float(np.max(np.abs(total + stack.tail_table - ref)) / abs(ref[0, 0]))


def build_stack(seed: int, out_dir: str) -> list[Op]:
    path = os.path.join(out_dir, "stack_L3_R5.csv")

    def invariants(name, L, R, m):
        def compute(ctx):
            st = decomposition.decompose(lattice.TorusLattice(L=L, R=R, m=m))
            ctx[name] = st
            return (st, st.telescoping_error(), max(st.leakage(j) for j in range(R)), min(st.psd_margins()))

        def check(out, ctx):
            st, tele, leak, psd = out
            return checks.stack_invariants(_telescoping_reference(st), tele, leak, psd)

        return Op(f"decompose_{L}_{R}_m{m}", compute, check)

    def round_trip(ctx):
        decomposition.write_stack(ctx["r5"], path)
        return decomposition.read_stack(path)

    def round_trip_check(back, ctx):
        st = ctx["r5"]
        return checks.round_trip([*st.gamma_tables, st.tail_table], [*back.gamma_tables, back.tail_table])

    j = STACK_COEFF_SCALE

    def coeffs(ctx):
        return coefficients.compute_coefficients(ctx["r6"], j)

    def coeffs_check(rep, ctx):
        tabs = ctx["r6"].gamma_tables
        return checks.first(
            checks.close(f"a_{j} at L=3", rep.a[j - 1], reference.coeff_a_literal(tabs, j, 3, ALPHA_SQ), 1e-9),
            checks.close(f"b_{j} at L=3", rep.b[j - 1], reference.coeff_b_literal(tabs, j, 3, ALPHA_SQ), 1e-9),
        )

    return [
        invariants("r6", 3, 6, 0.0),
        invariants("r5", 3, 5, 0.1),
        Op("write_read_stack", round_trip, round_trip_check),
        Op(f"coefficients_L3_j{j}", coeffs, coeffs_check),
    ]


WORKLOADS = {
    "coeffs": build_coeffs,
    "ktline": build_ktline,
    "expansion": build_expansion,
    "stack": build_stack,
}
