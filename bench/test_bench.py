"""Tests of the benchmark's own checks, reference values, harness and tracer.

Run from the repository root:  python3 -m pytest bench -q
Every check must reject a deliberately wrong value, and a wrong value must
count as a failed operation without stopping the pass.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import harness
import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
L9 = 9
C_CLOSED = -8.749043436384941

# the shape of a `ktrg coeffs --L 9 --R 6 --j-max 3` run
GOOD_ROWS = [
    dict(j=1, a=-0.13958432815083924, b=8.3304393891935327, vol=0.89710287569975755),
    dict(j=2, a=0.029368908812745512, b=4.3213694591904002, vol=0.99645637573473478),
    dict(j=3, a=0.027637664998808084, b=4.3882831932880366, vol=0.99992825371129879),
]
GOOD_SLOPE = -1.0 / (2.0 * math.pi)


def _coeffs(rows=GOOD_ROWS, rc=0, c_fit=C_CLOSED, slope=GOOD_SLOPE):
    return checks.coeffs(rc, rows, c_fit, slope, C_CLOSED, L9)


def _with(rows, j, **changes):
    return [dict(r, **changes) if r["j"] == j else r for r in rows]


# ---------------------------------------------------------------------------
# coeffs


def test_coeffs_accepts_a_convergent_run():
    assert _coeffs() is None


@pytest.mark.parametrize("rows, rc, c_fit, slope, words", [
    (_with(GOOD_ROWS, 3, b=4.3882831932880366 + 0.1), 0, C_CLOSED, GOOD_SLOPE, "|b_j - 2 ln L|"),
    (_with(GOOD_ROWS, 3, a=0.0276 + 0.003), 0, C_CLOSED, GOOD_SLOPE, "|a_j"),
    (_with(GOOD_ROWS, 2, a=-0.0294), 0, C_CLOSED, GOOD_SLOPE, "a_2"),
    (_with(GOOD_ROWS, 2, b=float("nan")), 0, C_CLOSED, GOOD_SLOPE, "not finite"),
    (_with(GOOD_ROWS, 3, vol=0.99), 0, C_CLOSED, GOOD_SLOPE, "Gamma_j(0)"),
    (GOOD_ROWS, 1, C_CLOSED, GOOD_SLOPE, "exited 1"),
    (GOOD_ROWS, 0, C_CLOSED + 2e-5, GOOD_SLOPE, "window-fit c"),
    (GOOD_ROWS, 0, C_CLOSED, GOOD_SLOPE * (1 + 1e-4), "slope"),
])
def test_coeffs_rejects_wrong_values(rows, rc, c_fit, slope, words):
    msg = _coeffs(rows, rc, c_fit, slope)
    assert msg is not None and words in msg


# ---------------------------------------------------------------------------
# ktline


def test_separatrix_point():
    y1 = 0.02
    assert checks.separatrix_point(y1, y1, y1 + 3e-11, True) is None
    # a Sigma off by 1e-7: the two solvers no longer agree
    assert "differ" in checks.separatrix_point(y1, y1 + 1e-7, y1, True)
    # solvers agree, but the fixed point is off the conserved line x1 = y1
    assert "not y1" in checks.separatrix_point(y1, y1 + 1e-10, y1 + 1e-10, True)
    assert "tau-ball" in checks.separatrix_point(y1, y1, y1, False)


def test_transition_line():
    good = [dict(z=0.1, beta=26.0), dict(z=0.2, beta=27.0)]
    assert checks.transition_line(good) is None
    assert "rise" in checks.transition_line([dict(z=0.1, beta=27.0), dict(z=0.2, beta=26.0)])
    assert "8 pi" in checks.transition_line([dict(z=0.1, beta=8.0 * math.pi)])


def test_contraction_and_deviation():
    assert checks.contraction(0.43) is None
    assert checks.contraction(0.51) is not None
    assert checks.contraction(float("nan")) is not None
    assert checks.deviation(None, -1.86, -1.86) is None
    assert checks.deviation(None, -1.2, -1.86) is not None
    assert checks.deviation(None, None, -1.86) is not None
    assert checks.deviation(500, -1.86, -1.86) is not None


# ---------------------------------------------------------------------------
# expansion


def test_extraction_rejects_a_broken_identity():
    assert checks.extraction(True, True, True, None) is None
    assert "id1=False" in checks.extraction(True, False, True, ("id1", frozenset()))


def test_polymer_counts():
    shapes = reference.fixed_polyominoes(4)
    ref = {n: len(s) for n, s in shapes.items()}
    assert ref == {1: 1, 2: 2, 3: 6, 4: 19}
    # each shape of n cells has n translates through a fixed block
    assert sum(n * c for n, c in ref.items()) == 99
    assert checks.polymer_counts(99, dict(ref), ref) is None
    assert checks.polymer_counts(98, dict(ref), ref) is not None
    assert checks.polymer_counts(99, {**ref, 4: 18}, ref) is not None


def test_reblocking():
    assert checks.reblocking(3, [True, True, True], 0.05) is None
    assert checks.reblocking(3, [True, False, True], 0.05) is not None
    assert checks.reblocking(0, [], 0.05) is not None


def test_k_small_reference_matches_subset_enumeration():
    # brute force over every subset of the 3x3 fine blocks of one block
    import itertools

    cells = [(a, b) for a in range(3) for b in range(3)]
    A, lam = 10.0, 0.5
    brute = sum((lam * A) ** (-r) for r in range(1, 5)
                for sub in itertools.combinations(cells, r) if reference._connected(sub))
    assert reference.k_small_reference(A, lam, 3, reference.fixed_polyominoes(4)) == pytest.approx(A * brute, rel=1e-14)


def test_oracle_checks():
    ok = dict(parity=(1.5, 1.5), pair_coeff=2.0, pair_reference=2.0, sk_mismatch=1e-14, gaps=[1e-2, 1e-4, 1e-5])
    assert checks.oracle(**ok) is None
    assert "parity" in checks.oracle(**dict(ok, parity=(1.5, 1.5 + 1e-15)))
    assert "z^2" in checks.oracle(**dict(ok, pair_coeff=2.0 * (1 + 1e-11)))
    assert "Siegert" in checks.oracle(**dict(ok, sk_mismatch=2e-10))
    assert "decrease" in checks.oracle(**dict(ok, gaps=[1e-2, 1e-4, 1e-4]))


def test_normalized_potential_reference_matches_fft():
    side = 5
    k = 2 * np.pi * np.arange(side) / side
    lam = 4 - 2 * np.cos(k)[:, None] - 2 * np.cos(k)[None, :]
    g = np.where(lam > 0, 1 / np.where(lam > 0, lam, 1), 0.0)
    w = np.fft.ifft2(g).real
    assert np.allclose(reference.normalized_potential(side), w - w[0, 0], atol=1e-14, rtol=0)


def test_regulator_checks():
    assert checks.regulators(10.0, 10.0, 3.0) is None
    assert checks.regulators(10.0, 10.0 + 1e-9, 3.0) is not None
    assert checks.regulators(10.0, 10.0, 10.1) is not None


# ---------------------------------------------------------------------------
# stack


def test_round_trip_rejects_one_changed_entry():
    rng = np.random.default_rng(0)
    tables = [rng.normal(size=(9, 9)) for _ in range(3)]
    back = [t.copy() for t in tables]
    assert checks.round_trip(tables, back) is None
    back[1][4, 7] = np.nextafter(back[1][4, 7], np.inf)
    msg = checks.round_trip(tables, back)
    assert msg is not None and "table 1" in msg and "(4, 7)" in msg
    # bit-identical means -0.0 and 0.0 differ too
    zeros = [np.zeros((3, 3))]
    assert checks.round_trip(zeros, [-zeros[0]]) is not None
    assert checks.round_trip(tables, back[:2]) is not None


def test_stack_invariants():
    assert checks.stack_invariants(1e-15, 1e-15, 1e-14, 0.0) is None
    assert checks.stack_invariants(2e-8, 1e-15, 1e-14, 0.0) is not None
    assert checks.stack_invariants(1e-15, 2e-8, 1e-14, 0.0) is not None
    assert checks.stack_invariants(1e-15, 1e-15, 2e-6, 0.0) is not None
    assert checks.stack_invariants(1e-15, 1e-15, 1e-14, -1e-9) is not None
    assert checks.stack_invariants(float("nan"), 1e-15, 1e-14, 0.0) is not None


def test_literal_sums_match_the_program_and_reject_a_perturbed_b():
    from ktrg.coefficients import ALPHA_SQ_KT, coeff_a, coeff_b
    from ktrg.decomposition import decompose
    from ktrg.lattice import TorusLattice

    st = decompose(TorusLattice(L=3, R=4, m=0.0))
    j = 3
    a_ref = reference.coeff_a_literal(st.gamma_tables, j, 3, ALPHA_SQ_KT)
    b_ref = reference.coeff_b_literal(st.gamma_tables, j, 3, ALPHA_SQ_KT)
    b = coeff_b(st, j)
    assert checks.close("a", coeff_a(st, j), a_ref, 1e-9) is None
    assert checks.close("b", b, b_ref, 1e-9) is None
    assert checks.close("b", b * (1 + 1e-8), b_ref, 1e-9) is not None


# ---------------------------------------------------------------------------
# harness and tracer


def test_wrong_values_count_as_failed_operations():
    ops = [
        harness.Op("good", lambda ctx: 1, lambda out, ctx: None),
        harness.Op("wrong", lambda ctx: 2, lambda out, ctx: checks.close("x", out, 3.0, 1e-12)),
        harness.Op("raises", lambda ctx: 1 / 0, lambda out, ctx: None),
        harness.Op("check_raises", lambda ctx: None, lambda out, ctx: out["missing"]),
        harness.Op("after", lambda ctx: 5, lambda out, ctx: None),
    ]
    res = harness.run_pass(ops)
    assert res.attempted == 5
    assert len(res.failures) == 3
    assert res.wrong == 2
    assert [f.split(":")[0] for f in res.failures] == ["wrong", "raises", "check_raises"]


def test_a_sigma_off_by_1e7_fails_its_ktline_operation(monkeypatch, tmp_path):
    import ktrg.manifold
    import workloads

    monkeypatch.setattr(ktrg.manifold, "solve_shooting", lambda y1, *a, **k: y1 + 1e-7)
    res = harness.run_pass(workloads.build_ktline(1, str(tmp_path)))
    assert res.attempted == 6
    assert res.wrong == 3 and len(res.failures) == 3
    assert all(f.startswith("separatrix_y1=") and "differ" in f for f in res.failures)


def test_one_changed_read_back_entry_fails_the_round_trip(monkeypatch, tmp_path):
    import ktrg.decomposition
    import workloads

    read = ktrg.decomposition.read_stack

    def read_one_changed(path):
        st = read(path)
        st.gamma_tables[2][5, 6] = np.nextafter(st.gamma_tables[2][5, 6], 1.0)
        return st

    monkeypatch.setattr(ktrg.decomposition, "read_stack", read_one_changed)
    res = harness.run_pass(workloads.build_stack(1, str(tmp_path)))
    assert res.attempted == 4
    assert res.wrong == 1
    assert res.failures[0].startswith("write_read_stack: table 2 differs") and "(5, 6)" in res.failures[0]


def test_run_for_makes_whole_passes():
    ops = [harness.Op("nap", lambda ctx: time.sleep(0.01), lambda out, ctx: None)] * 3
    res = harness.run_for(ops, 0.05)
    assert len(res) >= 1
    assert all(r.attempted == 3 and not r.failures for r in res)


def test_tracer_self_time_excludes_traced_children():
    tr = tracing.Tracer()

    def inner():
        time.sleep(0.05)

    traced_inner = tr.wrap("m.inner", inner)

    def outer():
        time.sleep(0.02)
        traced_inner()
        traced_inner()

    traced_outer = tr.wrap("m.outer", outer)
    traced_outer()  # inactive: not recorded
    assert tr.records["m.outer"]["calls"] == 0
    tr.active = True
    traced_outer()
    tr.active = False
    m = tr.metrics(1)
    assert m["m.outer.calls"] == 1 and m["m.inner.calls"] == 2
    assert 0.02 <= m["m.outer.s"] < 0.05
    assert m["m.inner.s"] >= 0.1


def test_benchmark_json_names_only_traced_layers():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "run_s", "peak_rss_mb"]
    traced = {f"{mod}.{path.split('.')[-1]}" for mod, path, _, _ in tracing.TARGETS}
    for m in spec["per_layer"]:
        module, function = m["name"].split(".")[:2]
        assert f"{module}.{function}" in traced, m["name"]


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "stack", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
