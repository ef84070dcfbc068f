import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ktrg
import ktrg.cli as cli
import ktrg.polymers as polymers
from ktrg.cli import main
from ktrg.decomposition import decompose, read_stack
from ktrg.lattice import TorusLattice


def test_no_command_usage_error(capsys):
    assert main([]) == 2


def test_unknown_flag_usage_error():
    with pytest.raises(SystemExit) as e:
        main(["decompose", "--bogus"])
    assert e.value.code == 2


def test_decompose_artifact_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["decompose", "--L", "3", "--R", "2", "--m", "0.1", "--out-dir", str(out1)]) == 0
    assert main(["decompose", "--L", "3", "--R", "2", "--m", "0.1", "--out-dir", str(out2)]) == 0
    a = (out1 / "stack_L3_R2.csv").read_bytes()
    b = (out2 / "stack_L3_R2.csv").read_bytes()
    assert a == b


def test_decompose_artifact_reads_back(tmp_path):
    # the file ktrg decompose writes passes read_stack and holds decompose()'s tables bit for bit
    assert main(["decompose", "--L", "3", "--R", "2", "--out-dir", str(tmp_path)]) == 0
    back = read_stack(str(tmp_path / "stack_L3_R2.csv"))
    ref = decompose(TorusLattice(L=3, R=2, m=0.1))
    assert back.lattice == ref.lattice
    for a, b in zip([*back.gamma_tables, back.tail_table], [*ref.gamma_tables, ref.tail_table]):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_coeffs_prints_fit_residual_in_c_units(tmp_path, capsys):
    # c = 8 pi c_log, and the fit residual and quadrature error are in c_log units
    assert main(["coeffs", "--L", "3", "--R", "3", "--j-max", "2", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    lat = TorusLattice(L=3, R=3, m=0.0)
    cc = cli.coulomb_constant_c(cli.build_cutoffs(3, lat.M, lat.n_fine_scales))
    assert f"(8pi*fit_residual {8.0 * np.pi * cc.fit_residual:.2e} in c units," in out
    assert 8.0 * np.pi * cc.fit_residual > 1e-8
    assert f"8pi*quad_error {8.0 * np.pi * cc.quad_error:.2e} in c units)" in out


def test_coeffs_takes_the_closed_form_c_and_prints_the_window_fit_gap(tmp_path, capsys, monkeypatch):
    # one c for the commands: the limits come from the closed form that the
    # fit computes anyway, and the fit runs on the stack's own cutoff family
    from ktrg.cutoffs import coulomb_constant_c, coulomb_constant_closed

    stacks, fits = [], []
    monkeypatch.setattr(cli, "decompose", lambda lat: stacks.append(decompose(lat)) or stacks[-1])
    monkeypatch.setattr(cli, "coulomb_constant_c",
                        lambda cut: fits.append((cut, coulomb_constant_c(cut))) or fits[-1][1])
    monkeypatch.setattr(cli, "coulomb_constant_closed", None)
    assert main(["coeffs", "--L", "3", "--R", "3", "--j-max", "2", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    (cut, cc), = fits
    assert cut is stacks[0].cutoffs
    closed = coulomb_constant_closed(cut)
    assert cc.c_closed == closed
    a_lim, b_lim = cli.limit_constants(3, cli.ALPHA_SQ_KT, closed)
    assert f"coeffs L=3: limits a={a_lim:.6g} b={b_lim:.6g} at closed-form c={closed:.10f}" in out
    assert f"window fit c={cc.c:.10f} (" in out
    assert f"gap {abs(cc.c - closed):.2e} to the closed form," in out
    assert 0.0 < abs(cc.c - closed) < 1e-5


def test_verify_all_report(tmp_path, capsys):
    # two identical runs write byte-identical reports: the wall time goes
    # to stdout only, and the provenance block is fixed by the installation
    for out in ("a", "b"):
        assert main(["verify-all", "--out-dir", str(tmp_path / out)]) == 0
    body = (tmp_path / "a" / "verify_report.json").read_bytes()
    assert body == (tmp_path / "b" / "verify_report.json").read_bytes()
    assert b"runtime" not in body
    assert "all pass in" in capsys.readouterr().out
    rep = json.loads(body)
    assert rep["all_pass"] is True
    assert set(rep["checks"]) >= {"telescoping", "leakage", "psd", "separatrix_agreement", "count_S", "siegert_kac",
                                  "extraction_identities"}
    assert rep["checks"]["extraction_identities"] == {"value": 0, "tol": 0, "pass": True}
    for c in rep["checks"].values():
        assert set(c) == {"value", "tol", "pass"}
    prov = rep["provenance"]
    assert set(prov) == {"ktrg", "python", "numpy", "scipy", "git_sha"}
    assert prov["ktrg"] == ktrg.__version__ and prov["numpy"] == np.__version__
    assert prov["git_sha"] is None or len(prov["git_sha"]) == 40


def test_git_sha_null_outside_a_checkout(monkeypatch):
    def no_git(*args, **kwargs):
        raise FileNotFoundError("git")

    monkeypatch.setattr(cli.subprocess, "run", no_git)
    assert cli._provenance()["git_sha"] is None


def test_verify_all_fails_on_an_extraction_defect(tmp_path, capsys, monkeypatch):
    # one uncancelled coefficient in the identity rows fails the run
    monkeypatch.setattr(cli, "j_extraction_defect", lambda pav: 1)
    assert main(["verify-all", "--out-dir", str(tmp_path)]) == 1
    assert "FAIL extraction_identities" in capsys.readouterr().out
    rep = json.loads((tmp_path / "verify_report.json").read_text())
    assert rep["checks"]["extraction_identities"] == {"value": 1, "tol": 0, "pass": False}


def test_verify_all_fails_on_a_wrong_reference_entry(tmp_path, capsys, monkeypatch):
    # one entry of the reference table that the telescoping check reads is
    # off by 1e-6: that check fails, and no other
    import ktrg.decomposition as decomposition

    exact = decomposition.yukawa_table

    def one_wrong_entry(lattice):
        W = exact(lattice)
        W[3, 5] += 1e-6
        return W

    monkeypatch.setattr(decomposition, "yukawa_table", one_wrong_entry)
    assert main(["verify-all", "--out-dir", str(tmp_path)]) == cli.CHECK_ERROR
    assert "FAIL telescoping" in capsys.readouterr().out
    rep = json.loads((tmp_path / "verify_report.json").read_text())
    assert [name for name, c in rep["checks"].items() if not c["pass"]] == ["telescoping"]
    assert rep["checks"]["telescoping"]["value"] > 1e-6


def _failing_checks(tmp_path, capsys):
    """Run verify-all; the report must be written.  Returns (failing check names, report, stdout)."""
    assert main(["verify-all", "--out-dir", str(tmp_path)]) == cli.CHECK_ERROR
    out = capsys.readouterr().out
    rep = json.loads((tmp_path / "verify_report.json").read_text())
    assert rep["all_pass"] is False
    return [name for name, c in rep["checks"].items() if not c["pass"]], rep["checks"], out


def test_verify_all_reports_a_negative_fourier_mode(tmp_path, capsys, monkeypatch):
    # one band entry of Gamma_1 at -1e-9: decompose's gate refuses the stack,
    # and verify-all still writes its report with psd failing at scale 1
    # (the stack is at L = 3, M = 1: Gamma_1 is fine scale 1 alone)
    from ktrg.cutoffs import FejerPass

    exact = FejerPass.band_sum

    def one_negative_mode(self, hs):
        hs = list(hs)
        G = exact(self, hs)
        if hs == [1]:
            G[5] = -1e-9
        return G

    monkeypatch.setattr(FejerPass, "band_sum", one_negative_mode)
    failing, checks, out = _failing_checks(tmp_path, capsys)
    assert failing == ["psd"]
    assert checks["psd"] == {"value": 1e-9, "tol": 1e-10, "scale": 1, "pass": False}
    assert "FAIL psd: 1.000e-09 (tol 1e-10) in Gamma_1" in out
    assert "not run: telescoping, leakage (decompose refused the stack: negative Fourier mode -1.000e-09 in Gamma_1)" in out
    assert {"separatrix_agreement", "separatrix_diagonal", "count_S", "extraction_identities", "siegert_kac"} <= set(checks)


def test_verify_all_fails_on_a_leaking_scale(tmp_path, capsys, monkeypatch):
    # Gamma_2 leaks 1e-3 beyond its range: that check alone fails, at scale 2
    import ktrg.decomposition as decomposition

    exact = decomposition.CovarianceStack.leakage
    monkeypatch.setattr(decomposition.CovarianceStack, "leakage", lambda self, j: 1e-3 if j == 2 else exact(self, j))
    failing, checks, out = _failing_checks(tmp_path, capsys)
    assert failing == ["leakage"]
    assert checks["leakage"] == {"value": 1e-3, "tol": 1e-6, "scale": 2, "pass": False}
    assert "FAIL leakage: 1.000e-03 (tol 1e-06) in Gamma_2" in out


def test_verify_all_fails_on_a_shooting_gap(tmp_path, capsys, monkeypatch):
    # shooting off by 1e-7: the two solvers disagree, and no other check sees it
    exact = cli.solve_shooting
    monkeypatch.setattr(cli, "solve_shooting", lambda y1, tol: exact(y1, tol=tol) + 1e-7)
    failing, checks, out = _failing_checks(tmp_path, capsys)
    assert failing == ["separatrix_agreement"]
    assert checks["separatrix_agreement"]["value"] == pytest.approx(1e-7, rel=1e-3)
    assert "FAIL separatrix_agreement" in out


def test_config_file_drives_command(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("# desk-scale run\n[decompose]\nL = 3\nR = 2\nm = 0.25  # mass\n")
    assert main(["decompose", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "stack_L3_R2.csv").exists()


def test_missing_config_is_usage_error(tmp_path):
    assert main(["decompose", "--config", str(tmp_path / "nope.ini"), "--out-dir", str(tmp_path)]) == 2


def test_polymers_command(tmp_path, capsys):
    assert main(["polymers", "--out-dir", str(tmp_path)]) == 0
    body = (tmp_path / "polymers.csv").read_text()
    assert "count_S,99" in body


@pytest.mark.parametrize("dropped, count_S, n_connected", [
    ((40, 41), 98, 7370),  # the domino {(4, 4), (4, 5)} through the counted block
    ((0, 1), 99, 7370),  # the domino {(0, 0), (0, 1)}, which count_S does not see
])
def test_polymers_gate_fails_on_a_dropped_set(tmp_path, capsys, monkeypatch, dropped, count_S, n_connected):
    # the enumerator loses one set of the 9 x 9 block torus (block (b0, b1) is vertex 9 b0 + b1)
    rooted = polymers._rooted_sets
    monkeypatch.setattr(polymers, "_rooted_sets", lambda nbrs, root, max_size: (
        s for s in rooted(nbrs, root, max_size) if sorted(s) != list(dropped)))
    assert main(["polymers", "--out-dir", str(tmp_path)]) == cli.CHECK_ERROR
    body = (tmp_path / "polymers.csv").read_text()
    assert f"count_S,{count_S}\ncount_S_oracle,99\nn_connected_le5,{n_connected}\n" in body
    assert f"{n_connected} connected sets of <= 5 blocks (oracle 7371)" in capsys.readouterr().out


def test_oracle_command(tmp_path):
    assert main(["oracle", "--side", "3", "--nmax", "2", "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "oracle_side3.csv").read_text().splitlines()
    assert lines[0] == "m,n,Q,term"
    assert len(lines) > 5


def test_oracle_command_side5_n6(tmp_path, capsys):
    assert main(["oracle", "--side", "5", "--nmax", "6", "--out-dir", str(tmp_path)]) == 0
    rows = [line.split(",") for line in (tmp_path / "oracle_side5.csv").read_text().splitlines()[1:]]
    assert {int(n) for _, n, _, _ in rows} == set(range(7))
    assert "(pass)" in capsys.readouterr().out


def test_separatrix_outside_ball_fails(tmp_path, capsys):
    # |y1| = 0.05 is admissible but the fixed point leaves the weighted ball
    with pytest.warns(UserWarning, match="weighted ball"):
        assert main(["separatrix", "--y1", "0.05", "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "y1=0.05" in err and "sequence norm" in err
    assert not (tmp_path / "separatrix_y0.05.csv").exists()


@pytest.mark.parametrize("L", [1, 4, 5])
def test_separatrix_refuses_a_base_of_no_gamma_3_lattice(tmp_path, capsys, monkeypatch, L):
    # (z, beta) take the gamma = 3 Coulomb constant, so L must be odd, > 1
    # and a power of 3; the base is checked before any solve
    monkeypatch.setattr(cli, "solve_fixed_point", lambda *a, **k: pytest.fail("solved"))
    assert main(["separatrix", "--L", str(L), "--out-dir", str(tmp_path)]) == cli.CHECK_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: separatrix --L {L}: ") and "Traceback" not in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["separatrix", "flow"])
def test_a_negative_activity_is_refused_before_anything_is_written(tmp_path, capsys, command):
    # the manifold solves at |y1|, so y1 = -0.01 used to run and write a
    # CSV (separatrix with z = -0.02876); it now exits 1 naming y1
    assert main([command, "--y1", "-0.01", "--out-dir", str(tmp_path)]) == cli.CHECK_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command} --y1 -0.01: ") and "y1 must be >= 0" in err
    assert os.listdir(tmp_path) == []


def test_separatrix_inside_ball_passes(tmp_path, capsys):
    assert main(["separatrix", "--y1", "0.01", "--out-dir", str(tmp_path)]) == 0
    header, row = (tmp_path / "separatrix_y0.01.csv").read_text().splitlines()
    rec = dict(zip(header.split(","), row.split(",")))
    assert 0.0 <= float(rec["fixed_point_residual"]) <= 1e-13
    assert float(rec["shooting_tol"]) == 1e-10
    out = capsys.readouterr().out
    assert "fixed-point residual" in out and "shooting tol 1e-10" in out


def test_separatrix_at_a_bisection_midpoint_one_ulp_off_the_diagonal(tmp_path):
    # the third midpoint of the shooting bracket (0, 0.1) at y1 = 0.0375
    # lies one ulp off x = y; the shooting oracle still classes it
    assert main(["separatrix", "--y1", "0.0375", "--out-dir", str(tmp_path)]) == 0
    header, row = (tmp_path / "separatrix_y0.0375.csv").read_text().splitlines()
    rec = dict(zip(header.split(","), row.split(",")))
    assert abs(float(rec["sigma_shooting"]) - float(rec["sigma_fixed_point"])) <= 1e-8


def test_flow_csv_columns_match_trajectory(tmp_path):
    # x and y are the on-manifold trajectory's, written with 17 digits
    assert main(["flow", "--y1", "0.01", "--horizon", "2000", "--out-dir", str(tmp_path)]) == 0
    header, *rows = (tmp_path / "flow_y0.01.csv").read_text().splitlines()
    assert header == "j,x,y,q_j,x_minus_q,y_minus_q"
    fp = cli.solve_fixed_point(cli.ManifoldProblem(y1=0.01, J=2000))
    traj = cli.trajectory(fp.sigma, 0.01, cli.FlowConfig(horizon=2000))
    cols = np.array([[float(v) for v in r.split(",")[:3]] for r in rows])
    assert np.array_equal(cols[:, 0], np.arange(1, 2001))
    assert np.array_equal(cols[:, 1], traj.x) and np.array_equal(cols[:, 2], traj.y)


def test_flow_outside_ball_fails(tmp_path, capsys):
    # without --x1 the start comes from the fixed point, gated like separatrix
    with pytest.warns(UserWarning, match="weighted ball"):
        assert main(["flow", "--y1", "0.05", "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "y1=0.05" in err and "sequence norm" in err
    assert not (tmp_path / "flow_y0.05.csv").exists()


# the scipy modules that load scipy's array-API layer on import
SCIPY_HEAVY = ("scipy.fft", "scipy.special", "scipy._lib._array_api")


@pytest.mark.parametrize("argv, loads_special", [
    (["separatrix", "--y1", "0.01"], False),
    (["decompose", "--L", "3", "--R", "3"], False),
    (["coeffs", "--L", "3", "--R", "3", "--j-max", "2"], True),
], ids=["separatrix", "decompose", "coeffs"])
def test_scipy_submodules_load_only_for_the_coulomb_fit(tmp_path, argv, loads_special):
    # a fresh interpreter: the test process itself has imported scipy.special
    script = (
        "import json, sys\n"
        "import ktrg.cli as cli\n"
        f"assert cli.main({argv + ['--out-dir', str(tmp_path)]!r}) == 0\n"
        f"print(json.dumps([m for m in {SCIPY_HEAVY!r} if m in sys.modules]))\n"
    )
    src = os.path.dirname(os.path.dirname(ktrg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    loaded = json.loads(run.stdout.splitlines()[-1])
    if loads_special:
        assert "scipy.special" in loaded
    else:
        assert loaded == []


EXAMPLE_CONFIG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "run.example.ini")


def test_flag_before_the_command_is_a_usage_error(tmp_path, monkeypatch):
    # options belong to the subcommands; the top level takes the command only
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as e:
        main(["--out-dir", str(tmp_path / "x"), "polymers"])
    assert e.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, hint", [
    (["--out-dir", "X", "polymers"], "ktrg polymers --out-dir ..."),
    (["--out-dir=X", "flow", "--y1", "0.02"], "ktrg flow --out-dir ..."),
    (["--seed", "3"], "ktrg COMMAND --seed ..."),
], ids=["value", "equals", "no-command"])
def test_an_option_before_the_command_is_named_with_where_it_goes(capsys, argv, hint):
    # argparse alone would report the option's value as an invalid command
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert f"ktrg: error: options go after the command: {hint}" in err
    assert "invalid choice" not in err


def test_help_before_the_command_still_prints_help(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0
    assert "KT-line RG toolkit" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["polymers", "--L", "5"],
    ["polymers", "--R", "9"],
    ["decompose", "--seed", "1"],
    ["flow", "--leakage-tol", "0"],
], ids=["polymers-L", "polymers-R", "decompose-seed", "flow-leakage-tol"])
def test_an_option_the_command_ignores_is_a_usage_error(tmp_path, argv):
    with pytest.raises(SystemExit) as e:
        main(argv + ["--out-dir", str(tmp_path)])
    assert e.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, unknown", [
    (["polymers", "--L", "5"], "--L 5"),
    (["coeffs", "--j_max", "1"], "--j_max 1"),
    (["flow", "--y1", "0.01", "--bogus"], "--bogus"),
], ids=["polymers-L", "coeffs-j_max", "flow-bogus"])
def test_an_unknown_option_gets_the_command_usage(tmp_path, capsys, argv, unknown):
    with pytest.raises(SystemExit) as e:
        main(argv + ["--out-dir", str(tmp_path)])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: ktrg {argv[0]} [-h]")
    assert f"ktrg {argv[0]}: error: unrecognized arguments: {unknown}" in err
    assert "{decompose," not in err
    assert list(tmp_path.iterdir()) == []


def test_an_unknown_config_key_is_named_with_its_section_and_file(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[coeffs]\nj_max = 1\nR = 4\nhoriz = 5\n")
    with pytest.raises(SystemExit) as e:
        main(["coeffs", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ktrg coeffs [-h]")
    assert f"ktrg coeffs: error: {cfg}: section [coeffs] has no key 'j_max', 'horiz'" in err
    assert "--j_max" not in err and "{decompose," not in err
    assert not (tmp_path / "out").exists()


def test_misspelled_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[coeffs]\nj_max = 1\n")
    with pytest.raises(SystemExit) as e:
        main(["coeffs", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert e.value.code == 2
    assert "j_max" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_abbreviated_config_key_is_a_usage_error(tmp_path, capsys):
    # a key spells its flag exactly: "horiz" does not stand for --horizon
    cfg = tmp_path / "run.ini"
    cfg.write_text("[flow]\nhoriz = 5\n")
    with pytest.raises(SystemExit) as e:
        main(["flow", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert e.value.code == 2
    assert "horiz" in capsys.readouterr().err


def test_malformed_config_value_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[decompose]\nL = three\n")
    with pytest.raises(SystemExit) as e:
        main(["decompose", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert e.value.code == 2
    assert "argument --L: invalid int value: 'three'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_value_is_used_and_a_flag_overrides_it(tmp_path, capsys):
    # every option of a command can come from its section, the shared ones too
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[decompose]\nR = 2\nout-dir = {tmp_path / 'cfg'}\n")
    assert main(["decompose", "--config", str(cfg)]) == 0
    assert "decompose L=3 R=2" in capsys.readouterr().out
    assert os.listdir(tmp_path / "cfg") == ["stack_L3_R2.csv"]
    assert main(["decompose", "--config", str(cfg), "--R", "3", "--out-dir", str(tmp_path / "cli")]) == 0
    assert os.listdir(tmp_path / "cli") == ["stack_L3_R3.csv"]


def test_example_config_parses_for_every_section():
    # each section names a command, and each key is one of its flags with a value that converts
    import configparser

    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read(EXAMPLE_CONFIG)
    assert cp.sections()
    for section in cp.sections():
        assert section in cli._COMMANDS, section
        flags = cli._config_flags(EXAMPLE_CONFIG, section)
        try:
            args = cli.build_parser().parse_args([section, *flags])
        except SystemExit:
            pytest.fail(f"[{section}] of run.example.ini does not parse: {flags}")
        assert args.command == section and len(flags) == len(cp[section])


def test_coeffs_rejects_an_out_of_range_j_max(tmp_path, capsys):
    for j_max in ("0", "3"):
        assert main(["coeffs", "--L", "3", "--R", "3", "--j-max", j_max, "--out-dir", str(tmp_path)]) == cli.CHECK_ERROR
        assert f"j_max must be in 1..2 (R = 3), got {j_max}" in capsys.readouterr().err
    assert not (tmp_path / "coefficients_L3.csv").exists()


def test_verify_all_fails_on_a_siegert_kac_mismatch(tmp_path, capsys, monkeypatch):
    # one field-side covariance entry off by 1e-6: the report is written and
    # names siegert_kac as the only failing check
    import ktrg.oracle as oracle

    exact = oracle.folded_table

    def one_wrong_entry(symbol):
        W = exact(symbol)
        W[1, 2] += 1e-6
        return W

    monkeypatch.setattr(oracle, "folded_table", one_wrong_entry)
    assert main(["verify-all", "--out-dir", str(tmp_path)]) == cli.CHECK_ERROR
    assert "FAIL siegert_kac" in capsys.readouterr().out
    rep = json.loads((tmp_path / "verify_report.json").read_text())
    assert [name for name, c in rep["checks"].items() if not c["pass"]] == ["siegert_kac"]
    assert rep["checks"]["siegert_kac"]["value"] > 1e-10


def test_verify_all_fails_on_a_wrong_stable_term(tmp_path, capsys, monkeypatch):
    # T with the W+ term before its correction, -(3 + 2q) q'^2 w+ replaced by
    # (2q - q') q' w+: Sigma still agrees with shooting, but the fixed point
    # leaves the diagonal flow
    import ktrg.manifold as manifold

    exact = manifold.apply_T

    def old_term_T(seq, prob):
        new = exact(seq, prob)
        q = prob.q()
        q_next = np.append(q[1:], prob.y1 / (1.0 + abs(prob.y1) * prob.J))
        dWp = ((2.0 * q - q_next) * q_next + (3.0 + 2.0 * q) * q_next**2) * seq.w_plus
        prefix = np.concatenate([[0.0], np.cumsum(dWp / q_next**2)[:-1]])
        return manifold.WeightedSequence(new.w_plus + q * q * prefix, new.w_minus)

    monkeypatch.setattr(manifold, "apply_T", old_term_T)
    assert main(["verify-all", "--out-dir", str(tmp_path)]) == cli.CHECK_ERROR
    assert "FAIL separatrix_diagonal" in capsys.readouterr().out
    rep = json.loads((tmp_path / "verify_report.json").read_text())
    assert [name for name, c in rep["checks"].items() if not c["pass"]] == ["separatrix_diagonal"]
    assert rep["checks"]["separatrix_diagonal"]["value"] > 1e-8
    assert rep["checks"]["separatrix_agreement"]["pass"] is True
