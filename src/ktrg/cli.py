"""Batch front-end: config loading, pipeline orchestration, CSV/JSON artifacts.

Config files are INI-style (configparser): one section per command, plain
`key = value` entries, `#` comments.  Command-line flags override config
values.  Artifacts are deterministic: fixed summation orders and no
wall-clock content inside data files.
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
from .decomposition import decompose, write_stack, LEAKAGE_TOL, TELESCOPING_TOL
from .coefficients import compute_coefficients, coefficients_csv, limit_constants, ALPHA_SQ_KT
from .flow import FlowConfig, trajectory, deviation_profile, trajectory_csv
from .manifold import (
    ManifoldProblem, solve_fixed_point, solve_shooting, empirical_contraction, separatrix_csv, seq_norm,
)
from .polymers import (
    paving, count_S, count_polyominoes, connected_polymers_up_to, reblock_inequality, j_extraction_defect,
)
from .oracle import oracle_lattice, grand_Z, siegert_kac_check

USAGE_ERROR = 2
CHECK_ERROR = 1
SHOOTING_TOL = 1e-10


def _load_config(path: str | None, section: str) -> dict:
    if path is None:
        return {}
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # keep key case: L and j-max spell like the flags
    with open(path) as f:
        cp.read_file(f)
    if section not in cp:
        return {}
    return dict(cp[section])


def _out_path(args, name: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _get(args, cfg: dict, key: str, cast, default):
    cli_val = getattr(args, key.replace("-", "_"), None)
    if cli_val is not None:
        return cli_val
    if key in cfg:
        return cast(cfg[key])
    return default


def cmd_decompose(args, cfg) -> int:
    L = _get(args, cfg, "L", int, 3)
    R = _get(args, cfg, "R", int, 3)
    m = _get(args, cfg, "m", float, 0.1)
    lat = TorusLattice(L=L, R=R, m=m)
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


def cmd_coeffs(args, cfg) -> int:
    L = _get(args, cfg, "L", int, 3)
    R = _get(args, cfg, "R", int, 6)
    j_max = _get(args, cfg, "j-max", int, min(4, R - 1))
    lat = TorusLattice(L=L, R=R, m=0.0)
    stack = decompose(lat)
    rep = compute_coefficients(stack, j_max)
    path = _out_path(args, f"coefficients_L{L}.csv")
    coefficients_csv(rep, path)
    cut = build_cutoffs(3, lat.M, lat.n_fine_scales)
    cc = coulomb_constant_c(cut)
    a_lim, b_lim = limit_constants(L, ALPHA_SQ_KT, cc.c)
    print(f"coeffs L={L}: a_limit={a_lim:.6g} b_limit={b_lim:.6g}")
    # fit_residual is in c_log units; c = 8 pi c_log
    print(f"  c={cc.c:.10f} (8pi*fit_residual {8.0 * math.pi * cc.fit_residual:.2e} in c units, "
          f"w_limit_error {cc.w_limit_error:.2e}, quad_error {cc.quad_error:.2e})")
    for i, j in enumerate(rep.scales):
        print(f"  j={j}: a={rep.a[i]:.6g} b={rep.b[i]:.6g} vol={rep.vol[i]:.6f}")
    print(f"  wrote {path}")
    dev_b = abs(rep.b[-1] - b_lim) / b_lim
    # the limit claim is "within 5% by j = 4"; shallower runs only report
    if rep.scales[-1] >= 4 and dev_b > 0.05:
        print(f"FAIL: b_j deviation {dev_b:.3f} above 5% at j={rep.scales[-1]}", file=sys.stderr)
        return CHECK_ERROR
    return 0


def _in_ball_fixed_point(prob: ManifoldProblem):
    """The fixed point of prob, or None (reported) when it leaves the weighted ball."""
    fp = solve_fixed_point(prob)
    if not fp.in_ball:
        print(f"FAIL: fixed point at y1={prob.y1} outside the weighted ball "
              f"(sequence norm {seq_norm(fp.seq, prob):.4g} > 1)", file=sys.stderr)
        return None
    return fp


def cmd_flow(args, cfg) -> int:
    y1 = _get(args, cfg, "y1", float, 0.01)
    x1 = _get(args, cfg, "x1", float, None)
    J = _get(args, cfg, "horizon", int, 100_000)
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


def cmd_separatrix(args, cfg) -> int:
    y1 = _get(args, cfg, "y1", float, 0.01)
    J = _get(args, cfg, "horizon", int, 100_000)
    L = _get(args, cfg, "L", int, 9)
    fp = _in_ball_fixed_point(ManifoldProblem(y1=y1, J=J))
    if fp is None:
        return CHECK_ERROR
    sh = solve_shooting(y1, tol=SHOOTING_TOL)
    lip = empirical_contraction(ManifoldProblem(y1=y1, J=min(J, 4000)), 50, seed=args.seed)
    # original variables at base L: x = b s, y = sqrt(ab) z
    cut = build_cutoffs(3, 1, 8)
    a_lim, b_lim = limit_constants(L, ALPHA_SQ_KT, coulomb_constant_closed(cut))
    s = fp.sigma / b_lim
    z = y1 / math.sqrt(a_lim * b_lim)
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


def cmd_polymers(args, cfg) -> int:
    L = _get(args, cfg, "L", int, 3)
    S = count_S(L)
    counts = count_polyominoes(4)
    expected = sum(n * c for n, c in counts.items())
    pav = paving(3, 2, 0)
    fam = connected_polymers_up_to(pav, 5)
    eta_ok = all(reblock_inequality(X, 0.05) for X in fam)
    path = _out_path(args, "polymers.csv")
    with open(path, "w", newline="\n") as f:
        f.write("quantity,value\n")
        f.write(f"count_S,{S}\n")
        f.write(f"count_S_oracle,{expected}\n")
        f.write(f"n_connected_le5,{len(fam)}\n")
        f.write(f"reblock_eta_0.05,{int(eta_ok)}\n")
    shapes_path = _out_path(args, "polymer_shapes.csv")
    from ktrg.polymers import closure, is_small

    with open(shapes_path, "w", newline="\n") as f:
        f.write("shape_id,block_count,small,closure_size\n")
        for i, X in enumerate(fam):
            f.write(f"{i},{X.size},{int(is_small(X))},{closure(X).size}\n")
    print(f"polymers: count_S={S} (oracle {expected}), eta=0.05 inequality {'holds' if eta_ok else 'FAILS'}")
    print(f"  wrote {path} and {shapes_path}")
    return 0 if S == expected and eta_ok else CHECK_ERROR


def cmd_oracle(args, cfg) -> int:
    side = _get(args, cfg, "side", int, 5)
    beta = _get(args, cfg, "beta", float, 8.0 * math.pi)
    z = _get(args, cfg, "z", float, 0.05)
    n_max = _get(args, cfg, "nmax", int, 4)
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


def cmd_verify_all(args, cfg) -> int:
    t0 = time.time()
    checks = {}

    lat = TorusLattice(L=3, R=3, m=0.1)
    stack = decompose(lat)
    checks["telescoping"] = {"value": stack.telescoping_error(), "tol": TELESCOPING_TOL}
    checks["leakage"] = {"value": max(stack.leakage(j) for j in range(3)), "tol": args.leakage_tol}
    checks["psd"] = {"value": -min(stack.psd_margins()), "tol": 1e-10}

    prob = ManifoldProblem(y1=0.01, J=20_000)
    fp = solve_fixed_point(prob)
    sh = solve_shooting(0.01, tol=1e-10)
    checks["separatrix_agreement"] = {"value": abs(fp.sigma - sh), "tol": 1e-8}

    checks["count_S"] = {"value": abs(count_S(3) - 99), "tol": 0}
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
        print(f"  {'PASS' if c['pass'] else 'FAIL'} {name}: {c['value']:.3e} (tol {c['tol']:.0e})")
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file; sections named after commands")
    common.add_argument("--out-dir", default="out", help="artifact directory")
    common.add_argument("--seed", type=int, default=7, help="seed for sampled checks")
    common.add_argument("--leakage-tol", type=float, default=LEAKAGE_TOL)
    p = argparse.ArgumentParser(prog="ktrg", description="KT-line RG toolkit", parents=[common])
    sub = p.add_subparsers(dest="command")
    sp = {}
    for name in _COMMANDS:
        sp[name] = sub.add_parser(name, parents=[common])
    for name in ("decompose", "coeffs", "polymers"):
        sp[name].add_argument("--L", type=int)
        sp[name].add_argument("--R", type=int)
    sp["decompose"].add_argument("--m", type=float)
    sp["coeffs"].add_argument("--j-max", type=int)
    for name in ("flow", "separatrix"):
        sp[name].add_argument("--y1", type=float)
        sp[name].add_argument("--horizon", type=int)
    sp["flow"].add_argument("--x1", type=float)
    sp["separatrix"].add_argument("--L", type=int)
    sp["oracle"].add_argument("--side", type=int)
    sp["oracle"].add_argument("--beta", type=float)
    sp["oracle"].add_argument("--z", type=float)
    sp["oracle"].add_argument("--nmax", type=int)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    try:
        cfg = _load_config(args.config, args.command)
    except (OSError, configparser.Error) as e:
        print(f"config error: {e}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return _COMMANDS[args.command](args, cfg)
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return CHECK_ERROR


if __name__ == "__main__":
    sys.exit(main())
