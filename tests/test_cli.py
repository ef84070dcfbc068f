import json
import os

import numpy as np
import pytest

import ktrg
import ktrg.cli as cli
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
    # c = 8 pi c_log, and the fit residual is in c_log units
    assert main(["coeffs", "--L", "3", "--R", "3", "--j-max", "2", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    lat = TorusLattice(L=3, R=3, m=0.0)
    cc = cli.coulomb_constant_c(cli.build_cutoffs(3, lat.M, lat.n_fine_scales))
    assert f"(8pi*fit_residual {8.0 * np.pi * cc.fit_residual:.2e} in c units," in out
    assert 8.0 * np.pi * cc.fit_residual > 1e-8


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


def test_verify_all_forced_failure(tmp_path, capsys):
    # an impossible leakage tolerance must fail and name the check
    code = main(["verify-all", "--leakage-tol", "0", "--out-dir", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL leakage" in out
    rep = json.loads((tmp_path / "verify_report.json").read_text())
    assert rep["checks"]["leakage"]["pass"] is False


def test_verify_all_fails_on_an_extraction_defect(tmp_path, capsys, monkeypatch):
    # one uncancelled coefficient in the identity rows fails the run
    monkeypatch.setattr(cli, "j_extraction_defect", lambda pav: 1)
    assert main(["verify-all", "--out-dir", str(tmp_path)]) == 1
    assert "FAIL extraction_identities" in capsys.readouterr().out
    rep = json.loads((tmp_path / "verify_report.json").read_text())
    assert rep["checks"]["extraction_identities"] == {"value": 1, "tol": 0, "pass": False}


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


def test_oracle_command(tmp_path):
    assert main(["oracle", "--side", "3", "--nmax", "2", "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "oracle_side3.csv").read_text().splitlines()
    assert lines[0] == "m,n,Q,term"
    assert len(lines) > 5


def test_separatrix_outside_ball_fails(tmp_path, capsys):
    # |y1| = 0.045 is admissible but the fixed point leaves the weighted ball
    with pytest.warns(UserWarning, match="weighted ball"):
        assert main(["separatrix", "--y1", "0.045", "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "y1=0.045" in err and "sequence norm" in err
    assert not (tmp_path / "separatrix_y0.045.csv").exists()


def test_separatrix_inside_ball_passes(tmp_path, capsys):
    assert main(["separatrix", "--y1", "0.01", "--out-dir", str(tmp_path)]) == 0
    header, row = (tmp_path / "separatrix_y0.01.csv").read_text().splitlines()
    rec = dict(zip(header.split(","), row.split(",")))
    assert 0.0 <= float(rec["fixed_point_residual"]) <= 1e-13
    assert float(rec["shooting_tol"]) == 1e-10
    out = capsys.readouterr().out
    assert "fixed-point residual" in out and "shooting tol 1e-10" in out


def test_flow_outside_ball_fails(tmp_path, capsys):
    # without --x1 the start comes from the fixed point, gated like separatrix
    with pytest.warns(UserWarning, match="weighted ball"):
        assert main(["flow", "--y1", "0.045", "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "y1=0.045" in err and "sequence norm" in err
    assert not (tmp_path / "flow_y0.045.csv").exists()
