"""Batch front-end: option parsing, pipeline orchestration, CSV/JSON artifacts.

Every option belongs to a subcommand and is declared once, with its type
and default, in `build_parser`; the commands read `args` only.  The
command's own parser reads everything after the command, so an unknown
option is reported with that command's usage line, and an option placed
before the command is refused with a note that it goes after it.  Config
files are INI-style (configparser): one section per command, plain
`key = value` entries, `#` comments.  A section's entries become
`--key=value` flags placed ahead of the command line's own, and the result
goes through the same subparser, so a key spells its flag exactly,
command-line flags override config values, and an unknown key (named with
its section and file) or a value that does not convert is a usage error
(exit 2).
Artifacts are deterministic: fixed summation orders and no wall-clock
content inside data files.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import platform
import subprocess
import sys
import time

import numpy as np
import scipy

from . import __version__

from .lattice import TorusLattice
from .cutoffs import build_cutoffs, coulomb_constant_c, coulomb_constant_closed
from .decomposition import (
    DecompositionError, decompose, write_stack, LEAKAGE_TOL, MATERIALIZE_CAP, PSD_TOL, TELESCOPING_TOL,
)
from .coefficients import compute_coefficients, coefficients_csv, limit_constants, ALPHA_SQ_KT
from .flow import FlowConfig, trajectory, diagonal, deviation_profile, trajectory_csv, from_rescaled
from .manifold import (
    ManifoldProblem, solve_fixed_point, solve_shooting, empirical_contraction, separatrix_csv, seq_norm,
)
from .polymers import (
    paving, count_S, connected_polymers_up_to, reblock_inequality, j_extraction_defect, closure, is_small,
)
from .oracle import oracle_lattice, grand_Z, siegert_kac_check

USAGE_ERROR = 2
CHECK_ERROR = 1
SHOOTING_TOL = 1e-10
# fixed polyominoes with 1..5 cells (OEIS A001168): the oracle of the polymer counts
FIXED_POLYOMINOES = (1, 2, 6, 19, 63)
# small polymers through one block: 1*1 + 2*2 + 3*6 + 4*19
COUNT_S_ORACLE = sum(n * c for n, c in enumerate(FIXED_POLYOMINOES[:4], 1))


def _config_flags(path: str, section: str) -> list[str]:
    """The entries of `section` as `--key=value` flags: each key spells its flag."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # keep key case: L and j-max spell like the flags
    with open(path) as f:
        cp.read_file(f)
    return [f"--{key}={value}" for key, value in cp[section].items()] if section in cp else []


def _out_path(args, name: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def cmd_decompose(args) -> int:
    L, R, m = args.L, args.R, args.m
    lat = TorusLattice(L=L, R=R, m=m)
    if lat.side > MATERIALIZE_CAP:
        raise ValueError(f"decompose --L {L} --R {R}: torus side {lat.side} is above {MATERIALIZE_CAP}, "
                         "the largest side a stack file holds")
    stack = decompose(lat)
    err = stack.telescoping_error()
    leak = max(stack.leakage(j) for j in range(R))
    path = _out_path(args, f"stack_L{L}_R{R}.csv")
    write_stack(stack, path)
    print(f"decompose L={L} R={R} m={m}: telescoping {err:.3e}, max leakage {leak:.3e}")
    print(f"  wrote {path}")
    ok = err <= TELESCOPING_TOL and leak <= LEAKAGE_TOL
    if not ok:
        print("FAIL: decomposition invariants violated", file=sys.stderr)
    return 0 if ok else CHECK_ERROR


def cmd_coeffs(args) -> int:
    L, R = args.L, args.R
    j_max = min(4, R - 1) if args.j_max is None else args.j_max
    lat = TorusLattice(L=L, R=R, m=0.0)
    stack = decompose(lat)
    rep = compute_coefficients(stack, j_max)
    path = _out_path(args, f"coefficients_L{L}.csv")
    coefficients_csv(rep, path)
    # the limits take the closed-form c, as separatrix does; the window fit checks it
    cc = coulomb_constant_c(stack.cutoffs)
    a_lim, b_lim = limit_constants(L, ALPHA_SQ_KT, cc.c_closed)
    print(f"coeffs L={L}: limits a={a_lim:.6g} b={b_lim:.6g} at closed-form c={cc.c_closed:.10f}")
    # fit_residual and quad_error are in c_log units; c = 8 pi c_log
    print(f"  window fit c={cc.c:.10f} (8pi*fit_residual {8.0 * math.pi * cc.fit_residual:.2e} in c units, "
          f"gap {abs(cc.c - cc.c_closed):.2e} to the closed form, "
          f"w_limit_error {cc.w_limit_error:.2e}, "
          f"8pi*quad_error {8.0 * math.pi * cc.quad_error:.2e} in c units)")
    for i, j in enumerate(rep.scales):
        print(f"  j={j}: a={rep.a[i]:.6g} b={rep.b[i]:.6g} vol={rep.vol[i]:.6f}")
    print(f"  wrote {path}")
    dev_b = abs(rep.b[-1] - b_lim) / b_lim
    # the limit claim is "within 5% by j = 4"; shallower runs only report
    if rep.scales[-1] >= 4 and dev_b > 0.05:
        print(f"FAIL: b_j deviation {dev_b:.3f} above 5% at j={rep.scales[-1]}", file=sys.stderr)
        return CHECK_ERROR
    return 0


def _check_activity(command: str, y1: float):
    """Refuse a negative (or NaN) activity before anything is solved or written.

    The manifold solves at |y1|, so a negative y1 would run and map to z < 0.
    """
    if not y1 >= 0.0:
        raise ValueError(f"{command} --y1 {y1}: the activity y1 must be >= 0")


def _in_ball_fixed_point(prob: ManifoldProblem):
    """The fixed point of prob, or None (reported) when it leaves the weighted ball."""
    fp = solve_fixed_point(prob)
    if not fp.in_ball:
        print(f"FAIL: fixed point at y1={prob.y1} outside the weighted ball "
              f"(sequence norm {seq_norm(fp.seq, prob):.4g} > 1)", file=sys.stderr)
        return None
    return fp


def cmd_flow(args) -> int:
    y1, x1, J = args.y1, args.x1, args.horizon
    _check_activity("flow", y1)
    flow_cfg = FlowConfig(horizon=J)
    if x1 is None:
        fp = _in_ball_fixed_point(ManifoldProblem(y1=y1, J=J, flow=flow_cfg))
        if fp is None:
            return CHECK_ERROR
        x1 = fp.sigma
    traj = trajectory(x1, y1, flow_cfg)
    path = _out_path(args, f"flow_y{y1}.csv")
    trajectory_csv(traj, y1, path)
    print(f"flow x1={x1:.10g} y1={y1}: horizon {traj.horizon}, diverged_at={traj.diverged_at}")
    if traj.diverged_at is None:
        fit = deviation_profile(traj, y1)
        print(f"  deviation exponents: x {fit.exponent_x}, y {fit.exponent_y}")
    print(f"  wrote {path}")
    return 0


def cmd_separatrix(args) -> int:
    y1, J, L = args.y1, args.horizon, args.L
    _check_activity("separatrix", y1)
    # the (z, beta) map takes the Coulomb constant of the gamma = 3 family,
    # so L must be the blocking factor of a gamma = 3 lattice
    try:
        TorusLattice(L=L, R=1)
    except ValueError as e:
        raise ValueError(f"separatrix --L {L}: {e}") from None
    fp = _in_ball_fixed_point(ManifoldProblem(y1=y1, J=J))
    if fp is None:
        return CHECK_ERROR
    sh = solve_shooting(y1, tol=SHOOTING_TOL)
    lip = empirical_contraction(ManifoldProblem(y1=y1, J=min(J, 4000)), 50, seed=args.seed)
    # original variables at base L: x = b s, y = sqrt(ab) z
    cut = build_cutoffs(3, 1, 8)
    a_lim, b_lim = limit_constants(L, ALPHA_SQ_KT, coulomb_constant_closed(cut))
    s, z = from_rescaled(fp.sigma, y1, a_lim, b_lim)
    beta = ALPHA_SQ_KT / (1.0 - s) if s < 1 else float("nan")
    rows = [dict(y1=y1, sigma_fixed_point=fp.sigma, sigma_shooting=sh,
                 iterations=fp.iterations, contraction_estimate=lip,
                 fixed_point_residual=fp.residual, shooting_tol=SHOOTING_TOL,
                 z=z, s=s, beta=beta)]
    path = _out_path(args, f"separatrix_y{y1}.csv")
    separatrix_csv(rows, path)
    agree = abs(fp.sigma - sh)
    print(f"separatrix y1={y1}: fixed-point {fp.sigma:.12g}, shooting {sh:.12g}, gap {agree:.2e}")
    print(f"  fixed-point residual {fp.residual:.2e}, shooting tol {SHOOTING_TOL:.0e}, "
          f"contraction estimate {lip:.3f}; wrote {path}")
    return 0 if agree <= 1e-8 and lip <= 0.5 else CHECK_ERROR


def cmd_polymers(args) -> int:
    S = count_S(3)
    pav = paving(3, 2, 0)
    fam = connected_polymers_up_to(pav, 5)
    # on the 9 x 9 block torus each fixed polyomino of k <= 5 < 9 cells has 81 translates
    n_expected = pav.n_blocks * sum(FIXED_POLYOMINOES)
    eta_ok = all(reblock_inequality(X, 0.05) for X in fam)
    path = _out_path(args, "polymers.csv")
    with open(path, "w", newline="\n") as f:
        f.write("quantity,value\n")
        f.write(f"count_S,{S}\n")
        f.write(f"count_S_oracle,{COUNT_S_ORACLE}\n")
        f.write(f"n_connected_le5,{len(fam)}\n")
        f.write(f"reblock_eta_0.05,{int(eta_ok)}\n")
    shapes_path = _out_path(args, "polymer_shapes.csv")
    with open(shapes_path, "w", newline="\n") as f:
        f.write("shape_id,block_count,small,closure_size\n")
        for i, X in enumerate(fam):
            f.write(f"{i},{X.size},{int(is_small(X))},{closure(X).size}\n")
    print(f"polymers: count_S={S} (oracle {COUNT_S_ORACLE}), {len(fam)} connected sets of <= 5 blocks "
          f"(oracle {n_expected}), eta=0.05 inequality {'holds' if eta_ok else 'FAILS'}")
    print(f"  wrote {path} and {shapes_path}")
    return 0 if S == COUNT_S_ORACLE and len(fam) == n_expected and eta_ok else CHECK_ERROR


def cmd_oracle(args) -> int:
    side, beta, z, n_max = args.side, args.beta, args.z, args.nmax
    lat = oracle_lattice(side)
    res = grand_Z(lat, beta, z, n_max)
    rep = siegert_kac_check(lat, beta, z, n_max, s=0.0)
    path = _out_path(args, f"oracle_side{side}.csv")
    with open(path, "w", newline="\n") as f:
        f.write("m,n,Q,term\n")
        for m in res.m_sequence:
            for (n, Q), v in sorted(res.sector_terms[m].items()):
                f.write(f"{m:.17g},{n},{Q},{v:.17g}\n")
    print(f"oracle side={side} beta={beta:.4f} z={z}: Z(m_min)={res.Z(res.m_sequence[-1]):.10g}")
    print(f"  Siegert-Kac max mismatch {rep.max_rel_mismatch:.2e} ({'pass' if rep.passed else 'FAIL'})")
    print(f"  wrote {path}")
    return 0 if rep.passed else CHECK_ERROR


def _git_sha() -> str | None:
    """HEAD of the git checkout holding this package, or None outside one."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=os.path.dirname(os.path.abspath(__file__)),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _provenance() -> dict:
    return {"ktrg": __version__, "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "git_sha": _git_sha()}


def cmd_verify_all(args) -> int:
    t0 = time.time()
    checks = {}

    lat = TorusLattice(L=3, R=3, m=0.1)
    try:
        stack = decompose(lat)
    except DecompositionError as e:
        # a gate refused the stack: its check fails, and the other stack checks do not run
        checks[e.check] = {"value": e.value, "tol": e.tol, "scale": e.scale}
        skipped = [name for name in ("telescoping", "leakage", "psd") if name != e.check]
        print(f"  not run: {', '.join(skipped)} (decompose refused the stack: {e})")
    else:
        checks["telescoping"] = {"value": stack.telescoping_error(), "tol": TELESCOPING_TOL}
        checks["leakage"] = {"value": max(stack.leakage(j) for j in range(3)), "tol": LEAKAGE_TOL}
        checks["psd"] = {"value": -min(stack.psd_margins()), "tol": PSD_TOL}

    prob = ManifoldProblem(y1=0.01, J=20_000)
    fp = solve_fixed_point(prob)
    sh = solve_shooting(0.01, tol=1e-10)
    checks["separatrix_agreement"] = {"value": abs(fp.sigma - sh), "tol": 1e-8}
    # in limit mode the fixed point is the diagonal flow: w- = 0 and w+ = 3 (s - q)
    diag_miss = np.abs(fp.seq.w_plus - 3.0 * (diagonal(prob.y1, prob.J) - prob.q()))
    checks["separatrix_diagonal"] = {"value": float(max(np.max(np.abs(fp.seq.w_minus)), np.max(diag_miss))),
                                     "tol": 1e-16}

    checks["count_S"] = {"value": abs(count_S(3) - COUNT_S_ORACLE), "tol": 0}
    checks["extraction_identities"] = {"value": j_extraction_defect(paving(3, 2, 0)), "tol": 0}

    lat5 = oracle_lattice(5)
    rep = siegert_kac_check(lat5, 8.0 * math.pi, 0.05, 2, s=0.0)
    checks["siegert_kac"] = {"value": rep.max_rel_mismatch, "tol": 1e-10}

    all_ok = True
    for name, c in checks.items():
        c["pass"] = bool(c["value"] <= c["tol"])
        all_ok &= c["pass"]
    # the wall time goes to stdout only, so identical runs write identical reports
    report = {"checks": checks, "all_pass": all_ok, "provenance": _provenance()}
    path = _out_path(args, "verify_report.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    for name, c in checks.items():
        where = f" in Gamma_{c['scale']}" if "scale" in c else ""
        print(f"  {'PASS' if c['pass'] else 'FAIL'} {name}: {c['value']:.3e} (tol {c['tol']:.0e}){where}")
    print(f"verify-all: {'all pass' if all_ok else 'FAILURES'} in {time.time() - t0:.2f}s; wrote {path}")
    return 0 if all_ok else CHECK_ERROR


_COMMANDS = {
    "decompose": cmd_decompose,
    "coeffs": cmd_coeffs,
    "flow": cmd_flow,
    "separatrix": cmd_separatrix,
    "polymers": cmd_polymers,
    "oracle": cmd_oracle,
    "verify-all": cmd_verify_all,
}


def build_parser() -> argparse.ArgumentParser:
    """The top level takes the command only; each option lives on the subcommands that read it.

    The parser's `commands` attribute maps each command to its own parser.
    """
    p = argparse.ArgumentParser(prog="ktrg", description="KT-line RG toolkit")
    sub = p.add_subparsers(dest="command")
    sp = p.commands = {}
    for name in _COMMANDS:
        # no abbreviations: a config key, like a flag, spells its option exactly
        sp[name] = sub.add_parser(name, allow_abbrev=False, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        sp[name].add_argument("--config", help="INI file; the section named after the command supplies flags")
        sp[name].add_argument("--out-dir", default="out", help="artifact directory")
    for name, R in (("decompose", 3), ("coeffs", 6)):
        sp[name].add_argument("--L", type=int, default=3, help="blocking factor of the L^R torus")
        sp[name].add_argument("--R", type=int, default=R, help="number of scales of the L^R torus")
    sp["decompose"].add_argument("--m", type=float, default=0.1, help="Yukawa mass; 0 subtracts the zero mode")
    sp["coeffs"].add_argument("--j-max", type=int, help="last scale; unset means min(4, R - 1)")
    # coeffs samples nothing; it keeps --seed so that callers passing one still run
    for name in ("coeffs", "separatrix"):
        sp[name].add_argument("--seed", type=int, default=7, help="seed for sampled checks")
    for name in ("flow", "separatrix"):
        sp[name].add_argument("--y1", type=float, default=0.01, help="activity at scale 1")
        sp[name].add_argument("--horizon", type=int, default=100_000, help="number of flow steps J")
    sp["flow"].add_argument("--x1", type=float, help="start x; unset means the fixed point Sigma(y1)")
    sp["separatrix"].add_argument("--L", type=int, default=9,
                                  help="base mapping sigma to (z, beta): odd, > 1 and a power of 3")
    sp["oracle"].add_argument("--side", type=int, default=5, help="torus side")
    sp["oracle"].add_argument("--beta", type=float, default=8.0 * math.pi, help="inverse temperature")
    sp["oracle"].add_argument("--z", type=float, default=0.05, help="activity")
    sp["oracle"].add_argument("--nmax", type=int, default=4, help="largest particle number")
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    if not argv or argv[0] not in parser.commands:
        if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
            # argparse would take the option's value for the command
            command = next((a for a in argv if a in parser.commands), "COMMAND")
            parser.error(f"options go after the command: ktrg {command} {argv[0].split('=', 1)[0]} ...")
        # no command, or something else before it: the top-level parser
        # reports it (exit 2), prints help, or finds no command
        parser.parse_args(argv)
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    command, rest = argv[0], argv[1:]
    sub = parser.commands[command]
    args = sub.parse_args(rest)
    if args.config is not None:
        try:
            flags = _config_flags(args.config, command)
        except (OSError, configparser.Error) as e:
            print(f"config error: {e}", file=sys.stderr)
            return USAGE_ERROR
        unknown = sub.parse_known_args(flags)[1]
        if unknown:
            keys = ", ".join(repr(flag[2:].split("=", 1)[0]) for flag in unknown)
            sub.error(f"{args.config}: section [{command}] has no key {keys}")
        # the command line's own flags come after the config's, so they win
        args = sub.parse_args([*flags, *rest])
    try:
        return _COMMANDS[command](args)
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return CHECK_ERROR


if __name__ == "__main__":
    sys.exit(main())
