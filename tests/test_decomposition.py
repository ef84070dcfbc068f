import dataclasses
import gc
import math
import os
import re
import weakref

import numpy as np
import pytest

from ktrg.lattice import TorusLattice, laplacian_symbol
from ktrg.cutoffs import build_cutoffs
from ktrg.decomposition import (
    decompose,
    write_stack,
    read_stack,
    DecompositionError,
    SpectralGrid,
    PROBE_SIDE,
)

from conftest import one_minus_factor_over_u


def test_telescoping_massive(stack_l3_massive):
    assert stack_l3_massive.telescoping_error() < 1e-8


def test_telescoping_massless_normalized(stack_l3_r5):
    assert stack_l3_r5.telescoping_error() < 1e-12


def test_psd_all_scales(stack_l3_massive, stack_l3_massless):
    for st in (stack_l3_massive, stack_l3_massless):
        assert min(st.psd_margins()) >= -1e-10


def test_leakage_below_tolerance(stack_l3_massless):
    for j in range(stack_l3_massless.n_scales):
        assert stack_l3_massless.leakage(j) < 1e-6


def test_exact_support_beyond_budget(stack_l3_r5):
    # kernels vanish identically beyond the polynomial range, well inside L^(j+1)/2
    st = stack_l3_r5
    side = st.lattice.side
    c = np.arange(side)
    c = np.where(c <= (side - 1) // 2, c, c - side)
    rr = np.maximum(np.abs(c)[:, None], np.abs(c)[None, :])
    for j in range(st.n_scales):
        t = st.gamma_table(j)
        mask = rr > st.support_radius(j)
        if mask.any():
            assert np.max(np.abs(t[mask])) < 1e-14 * t[0, 0]


def test_diagonal_law(stack_l3_massless):
    ln = math.log(3) / (2.0 * math.pi)
    vs = []
    for j in range(1, 6):
        vs.append(abs(stack_l3_massless.gamma0(j) - ln) * 3.0 ** (j / 4.0))
    # bounded without growth: the L^(-1/4) rate is an upper envelope and the
    # construction decays faster, so no later value may exceed 3x the first
    assert max(vs) <= 3.0 * vs[0]


def fine_component_table(stack, h):
    """Oracle: torus table of the single fine-scale piece C_h (Gamma_j sums M of them)."""
    grid = SpectralGrid(stack.cutoffs, stack.lattice.m, stack.lattice.momenta())
    return np.fft.ifft2(grid.unfold(grid.band([h]))).real


def test_fine_components_aggregate(stack_l3_massive):
    st = stack_l3_massive
    M = st.lattice.M
    for j in range(st.n_scales):
        total = sum(fine_component_table(st, h) for h in range(j * M, (j + 1) * M))
        assert np.allclose(total, st.gamma_table(j), atol=1e-15)


def test_derivative_scaling_flat_in_j(stack_l3_massless):
    # sup |d Gamma_j| * L^j and sup |dd Gamma_j| * L^2j: bounded by a
    # j-uniform constant, flat once the schedule is self-similar (j >= 2);
    # the first two scales sit below the plateau
    st = stack_l3_massless
    c1, c2 = [], []
    for j in range(0, 6):
        t = st.gamma_table(j)
        d = np.roll(t, -1, axis=0) - t
        dd = np.roll(d, -1, axis=0) - d
        c1.append(np.max(np.abs(d)) * 3.0**j)
        c2.append(np.max(np.abs(dd)) * 9.0**j)
    for c in (c1, c2):
        plateau = c[2:]
        assert max(plateau) / min(plateau) < 1.3
        assert max(c) <= 1.1 * max(plateau)


def test_gradient_at_origin_even(stack_l3_massless):
    # evenness: Gamma_j(e) = Gamma_j(-e), the sense in which the gradient
    # at the origin vanishes inside direction-summed Taylor expansions
    st = stack_l3_massless
    side = st.lattice.side
    for j in range(st.n_scales):
        t = st.gamma_table(j)
        assert abs(t[1, 0] - t[side - 1, 0]) < 1e-10
        assert abs(t[0, 1] - t[0, side - 1]) < 1e-10


def test_decomposition_failure_reported():
    lat = TorusLattice(L=3, R=2, m=0.1)
    st = decompose(lat)
    st.psd_tol = -1.0  # force the gate to trip and name the scale
    with pytest.raises(DecompositionError):
        st.validate()


def test_window_matches_table(stack_l3_r5):
    st = stack_l3_r5
    side = st.lattice.side
    t = st.gamma_table(3)
    w = st.window(3, step=1)
    for z0 in (-5, 0, 7):
        for z1 in (-3, 0, 11):
            assert w.at(z0, z1) == pytest.approx(t[z0 % side, z1 % side], abs=1e-13)


def test_window_decimated_and_shifted(stack_l3_r5):
    # step 3 here undersamples scale 4 on purpose: the reported alias bound
    # must cover the actual decimation error
    st = stack_l3_r5
    side = st.lattice.side
    t = st.gamma_table(4)
    w = st.window(4, step=3, shift=(1, 0))
    assert 0.0 < w.alias_bound < 1e-3
    for z0 in (-20, 0, 13):
        for z1 in (-7, 0, 20):
            ref = t[(3 * z0 + 1) % side, (3 * z1) % side]
            assert w.at(z0, z1) == pytest.approx(ref, abs=max(1e-12, w.alias_bound))


def test_window_natural_step_tight(stack_l3_r5):
    # at the natural decimation (243 samples per scale) the certified bound
    # sits near 1e-11 and the values match the tables to that accuracy
    st = stack_l3_r5
    side = st.lattice.side
    t = st.gamma_table(4)
    w = st.window(4)  # natural step for h = 4 at L = 3 is 1: exact
    assert w.alias_bound == 0.0
    assert w.at(7, -2) == pytest.approx(t[7 % side, -2 % side], abs=1e-13)


def test_window_derivative(stack_l3_r5):
    st = stack_l3_r5
    side = st.lattice.side
    t = st.gamma_table(2)
    w = st.window(2, step=1, deriv=(1,))
    for z0 in (-4, 0, 6):
        for z1 in (-6, 0, 3):
            ref = t[z0 % side, (z1 + 1) % side] - t[z0 % side, z1 % side]
            assert w.at(z0, z1) == pytest.approx(ref, abs=1e-13)


def test_serialization_roundtrip(tmp_path, stack_l3_massive):
    path = os.path.join(tmp_path, "stack.csv")
    write_stack(stack_l3_massive, path)
    back = read_stack(path)
    for j in range(3):
        assert np.array_equal(back.gamma_table(j), stack_l3_massive.gamma_table(j))
    assert np.array_equal(back.tail_table, stack_l3_massive.tail_table)
    assert back.lattice == stack_l3_massive.lattice


def test_materialize_cap():
    lat = TorusLattice(L=9, R=6, m=0.0)
    with pytest.raises(DecompositionError):
        decompose(lat, materialize=True)


def test_horizon_too_short():
    lat = TorusLattice(L=3, R=4, m=0.0)
    fam = build_cutoffs(3, 1, 2)
    with pytest.raises(ValueError):
        decompose(lat, cutoffs=fam)


def _damaged_copy(tmp_path, stack, edit):
    """Write the stack, then rewrite its data rows (one per table row) through edit(rows)."""
    path = os.path.join(tmp_path, "stack.csv")
    write_stack(stack, path)
    lines = open(path).read().splitlines(keepends=True)
    start = lines.index("scale,x0,values\n") + 1
    with open(path, "w") as f:
        f.writelines(lines[:start] + edit(lines[start:]))
    return path


def _rejected(path, pattern):
    """The DecompositionError message read_stack raises on path; it matches pattern and names the path."""
    with pytest.raises(DecompositionError, match=pattern) as e:
        read_stack(path)
    assert path in str(e.value)
    return str(e.value)


def test_read_stack_rejects_truncated_file(tmp_path, stack_l3_massive):
    # 4 tables of 27 rows: the first half holds scales 0 and 1
    path = _damaged_copy(tmp_path, stack_l3_massive, lambda rows: rows[: len(rows) // 2])
    _rejected(path, r"54 rows missing, first \(scale, x0\) = \(2, 0\)")


def test_read_stack_rejects_duplicated_row(tmp_path, stack_l3_massive):
    # the last row is replaced by a second copy of the first: same count
    path = _damaged_copy(tmp_path, stack_l3_massive, lambda rows: rows[:-1] + rows[:1])
    _rejected(path, r"duplicated row \(scale, x0\) = \(0, 0\)")


def test_read_stack_rejects_out_of_range_row(tmp_path, stack_l3_massive):
    # a full-length row with scale R + 1 = 4
    path = _damaged_copy(tmp_path, stack_l3_massive, lambda rows: rows + ["4," + rows[0].split(",", 1)[1]])
    _rejected(path, r"\(4, 0\) out of range")


def test_read_stack_rejects_changed_value(tmp_path, stack_l3_massive):
    # every row present once, one tail value doubled: only the telescoping
    # check sees it (leakage and PSD do not look at the tail)
    def edit(rows):
        fields = rows[-5].rstrip("\n").split(",")
        fields[5] = (2.0 * float.fromhex(fields[5])).hex()
        return rows[:-5] + [",".join(fields) + "\n"] + rows[-4:]

    path = _damaged_copy(tmp_path, stack_l3_massive, edit)
    _rejected(path, "telescoping")


def test_read_stack_rejects_short_row(tmp_path, stack_l3_massive):
    # row (0, 3) loses its last value: side + 1 = 28 fields instead of 29;
    # the message names line, row and field count, and does not echo the row
    path = _damaged_copy(tmp_path, stack_l3_massive, lambda rows: rows[:3] + [rows[3].rsplit(",", 1)[0] + "\n"] + rows[4:])
    msg = _rejected(path, r"line 9: malformed row \(scale, x0\) = \(0, 3\), 28 fields \(expected 29\)")
    assert len(msg) < len(path) + 100


def test_read_stack_rejects_bad_value(tmp_path, stack_l3_massive):
    def edit(rows):
        fields = rows[0].split(",")
        fields[4] = "0x1.0q"
        return [",".join(fields)] + rows[1:]

    path = _damaged_copy(tmp_path, stack_l3_massive, edit)
    _rejected(path, r"line 6: malformed row \(scale, x0\) = \(0, 0\), 29 fields, value 2 is not a hex float")


@pytest.mark.parametrize("value", ["0.5", "-1.8p-3", "nan"])
def test_read_stack_requires_hex_prefix(tmp_path, stack_l3_massive, value):
    # float.fromhex would read '0.5' as 0x0.5 = 0.3125
    def edit(rows):
        fields = rows[0].split(",")
        fields[4] = value
        return [",".join(fields)] + rows[1:]

    path = _damaged_copy(tmp_path, stack_l3_massive, edit)
    _rejected(path, r"line 6: malformed row \(scale, x0\) = \(0, 0\), 29 fields, value 2 has no 0x prefix")


def test_read_stack_refuses_v1_file(tmp_path):
    # the previous layout, one line per table entry, is not read
    path = os.path.join(tmp_path, "stack_v1.csv")
    with open(path, "w") as f:
        f.write("# ktrg covariance stack v1\n# L=3 R=1 gamma=3 M=1 m=0x0.0p+0\nscale,x0,x1,value\n0,0,0,0x1.0p+0\n")
    _rejected(path, r"first line '# ktrg covariance stack v1' is not .*regenerate the file with `ktrg decompose`")


def _shifted_leak(stack):
    """stack with 1e-3 Gamma_0(0) moved from Gamma_1 into Gamma_0 at (13, 13), far from the origin.

    The sum of the scales, and so the telescoping check, does not change,
    but Gamma_0 leaks 1e-3 beyond its range.
    """
    g = [t.copy() for t in stack.gamma_tables]
    d = 1e-3 * g[0][0, 0]
    g[0][13, 13] += d
    g[1][13, 13] -= d
    return dataclasses.replace(stack, gamma_tables=g, _cache={})


@pytest.mark.parametrize("tol", ["leakage_tol=inf", "leakage_tol=0.01", "leakage_tol=nan", "psd_tol=inf", "psd_tol=-inf"])
def test_read_stack_header_cannot_loosen_gates(tmp_path, stack_l3_massive, tol):
    path = os.path.join(tmp_path, "stack.csv")
    write_stack(_shifted_leak(stack_l3_massive), path)
    _rejected(path, r"leakage 1\.000e-03 beyond L\^1/2 in Gamma_0")
    text = open(path).read()
    key = tol.split("=")[0]
    honest = "psd_tol=1e-10" if key == "psd_tol" else "leakage_tol=1e-06"
    with open(path, "w") as f:
        f.write(text.replace(honest, tol, 1))
    _rejected(path, f"header {re.escape(tol)} is non-finite or looser than")


def test_read_stack_header_may_tighten_gates(tmp_path, stack_l3_massive):
    path = os.path.join(tmp_path, "stack.csv")
    write_stack(dataclasses.replace(stack_l3_massive, leakage_tol=1e-7, _cache={}), path)
    assert read_stack(path).leakage_tol == 1e-7


def test_read_stack_keeps_signed_zero_and_subnormal(tmp_path, stack_l3_massive):
    g = [t.copy() for t in stack_l3_massive.gamma_tables]
    g[0][13, 13] = -0.0
    g[0][13, 12] = 5e-324
    path = os.path.join(tmp_path, "stack.csv")
    write_stack(dataclasses.replace(stack_l3_massive, gamma_tables=g, _cache={}), path)
    back = read_stack(path).gamma_table(0)
    assert np.array_equal(back.view(np.uint64), g[0].view(np.uint64))
    assert np.signbit(back[13, 13]) and back[13, 13] == 0.0
    assert back[13, 12] == 5e-324


@pytest.mark.parametrize("m", [float("nan"), float("inf"), -0.1])
def test_non_finite_or_negative_mass_rejected(m):
    with pytest.raises(ValueError, match="m must be finite"):
        TorusLattice(L=3, R=3, m=m)


def test_gates_fail_on_nan():
    st = decompose(TorusLattice(L=3, R=2, m=0.1))
    st._cache["psd"] = [float("nan")] * st.n_scales
    with pytest.raises(DecompositionError, match="nan in Gamma_0"):
        st.validate()
    st = decompose(TorusLattice(L=3, R=2, m=0.1))
    st.gamma_tables[0] = st.gamma_tables[0] * float("nan")
    with pytest.raises(DecompositionError, match="leakage nan"):
        st.validate()


def _full_u(g):
    """m^2 + lam on the full grid p x p, evaluated without the fold."""
    return g.m * g.m + laplacian_symbol(g.p[:, None], g.p[None, :])


def test_grid_bands_match_band_sum():
    # the single pass over the residual products reproduces the band
    # evaluation from scratch bit for bit, in any request order, and the
    # unfolded quarter reproduces a pass over the full grid
    lat = TorusLattice(L=9, R=3, m=0.1)
    cut = build_cutoffs(lat.gamma, lat.M, lat.n_fine_scales)
    g = SpectralGrid.decimated(cut, lat.m, 3, 45, 10)
    u = _full_u(g)
    for hs in ([2, 3], [0, 1], [4, 5], [3]):
        assert np.array_equal(g.band(hs), cut.band_sum(g.u, g.b, hs))
        assert np.array_equal(g.unfold(g.band(hs)), cut.band_sum(u, g.b, hs))
    assert np.array_equal(g.residual(6), cut.residual(g.u, g.b, 6))
    assert np.array_equal(g.unfold(g.residual(6)), cut.residual(u, g.b, 6))


def _count_band_evaluations(monkeypatch):
    calls = []
    orig = SpectralGrid._band_sum

    def counted(self, hs):
        calls.append((self, hs))
        return orig(self, hs)

    monkeypatch.setattr(SpectralGrid, "_band_sum", counted)
    return calls


def test_decompose_evaluates_each_band_once(monkeypatch):
    calls = _count_band_evaluations(monkeypatch)
    st = decompose(TorusLattice(L=3, R=4, m=0.1))
    assert [hs for _, hs in calls] == [(0,), (1,), (2,), (3,)]
    assert len({id(g) for g, _ in calls}) == 1 and calls[0][0].S == st.lattice.side
    st.psd_margins()
    st.validate()
    assert len(calls) == 4


def test_coefficients_evaluate_each_band_once_per_grid(monkeypatch):
    from ktrg.coefficients import compute_coefficients, kernels

    calls = _count_band_evaluations(monkeypatch)
    st = decompose(TorusLattice(L=9, R=4))
    compute_coefficients(st, 2)
    kernels(st, 2)
    keys = [(id(g), hs) for g, hs in calls]
    assert len(keys) == len(set(keys))
    # the scale-n grid holds the bands of scales 0..n, each evaluated once
    scale_grids = [st.grid(n) for n in range(3)]
    for n, g in enumerate(scale_grids):
        assert sorted(hs for h, hs in calls if h is g) == [tuple(st.fine_scales(k)) for k in range(n + 1)]


def test_psd_probe_grid_does_not_outlive_decompose(monkeypatch):
    made = []
    orig = SpectralGrid.__init__

    def tracked(self, *args, **kwargs):
        orig(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(SpectralGrid, "__init__", tracked)
    st = decompose(TorusLattice(L=9, R=6))
    assert made
    gc.collect()
    assert all(r() is None for r in made)
    assert len(st.psd_margins()) == 6


# ---------------------------------------------------------------------------
# the reflection fold, against full-grid oracles


def test_folded_bands_bit_identical_to_full_pass():
    # the massless per-scale case on a larger odd grid; S = 45 at m = 0.1
    # is test_grid_bands_match_band_sum
    S = 243
    lat = TorusLattice(L=9, R=3, m=0.0)
    cut = build_cutoffs(lat.gamma, lat.M, lat.n_fine_scales)
    g = SpectralGrid.decimated(cut, lat.m, 3, S, 10)
    n = S // 2 + 1
    assert g.u.shape == (n, n)
    assert g.w[0] == 1.0 and np.all(g.w[1:] == 2.0)
    assert np.array_equal(g.idx, np.minimum(np.arange(S), S - np.arange(S)))
    u = _full_u(g)
    for hs in ([2, 3], [0, 1], [4, 5]):
        assert np.array_equal(g.unfold(g.band(hs)), cut.band_sum(u, g.b, hs))
    assert np.array_equal(g.unfold(g.residual(6)), cut.residual(u, g.b, 6))


def test_torus_axis_folds_and_even_and_ring_axes_take_the_trivial_fold():
    # the torus momenta are in the centered fftfreq layout, so a materialized
    # stack's grid folds onto the quarter like a per-scale grid; an
    # even-length axis and the alias ring fold trivially through the same code
    cut = build_cutoffs(3, 1, 4)
    torus = TorusLattice(L=3, R=2, m=0.1).momenta()
    g = SpectralGrid(cut, 0.1, torus)
    n = len(torus) // 2 + 1
    assert g.u.shape == (n, n)
    assert g.w[0] == 1.0 and np.all(g.w[1:] == 2.0)
    assert np.array_equal(g.unfold(g.band([1, 2])), cut.band_sum(_full_u(g), g.b, [1, 2]))
    even = 2.0 * np.pi * np.fft.fftfreq(10)
    probe = np.linspace(-np.pi, np.pi, 5)
    ring = np.concatenate([(probe + 2.0 * np.pi * a) / 3 for a in (-1, 0, 1)])
    for p in (even, ring):
        g = SpectralGrid(cut, 0.1, p)
        assert g.u.shape == (len(p), len(p))
        assert np.all(g.w == 1.0) and np.array_equal(g.idx, np.arange(len(p)))
        assert np.array_equal(g.band([1, 2]), cut.band_sum(_full_u(g), g.b, [1, 2]))


def test_psd_margins_on_folded_probe_match_full_grid(stack_l9_massless):
    # one pass over the residual products on the full probe grid
    st = stack_l9_massless
    cut = st.cutoffs
    k = 2.0 * np.pi * np.fft.fftfreq(PROBE_SIDE)
    u = laplacian_symbol(k[:, None], k[None, :])  # massless: b = 8
    theta = cut.theta(u, 8.0)
    r = np.ones_like(u)
    full = []
    for j in range(st.n_scales):
        band = np.zeros_like(u)
        for h in st.fine_scales(j):
            band += r * one_minus_factor_over_u(u, theta, 8.0, cut.kappas[h])
            r = r * cut._factor(theta, cut.kappas[h])
        full.append(float(band.min()))
    assert st.psd_margins() == full


def test_folded_sums_match_full_grid_oracles(stack_l9_massless):
    # the parent's full-grid formulas: the mean over unfolded arrays, the
    # cosine zoom over the full axis and the complex inverse FFT
    st = stack_l9_massless
    g = st.grid(3)
    assert g.step > 1
    G, G1 = g.band(st.fine_scales(3)), g.band(st.fine_scales(1))
    full = g.unfold(G)
    for factors in ((G,), (g.lam, G, G), (G1, G)):
        oracle = float(np.mean(np.prod([g.unfold(f) for f in factors], axis=0))) / g.weight
        assert g.parseval(*factors) == pytest.approx(oracle, rel=1e-14, abs=0.0)
    ys = g.y[::27] + 1.0
    ph = np.cos(np.outer(ys, g.p))
    zoom = ph @ (full @ ph.T) / (g.S**2 * g.weight)
    assert np.max(np.abs(g.zoom(G, ys) - zoom)) <= 1e-14 * np.max(np.abs(zoom))
    r = g.radius
    K = np.roll(np.fft.ifft2(full).real / g.weight, (r, r), axis=(0, 1))[: 2 * r + 1, : 2 * r + 1]
    assert np.max(np.abs(g.window(G) - K)) <= 1e-14 * np.max(np.abs(K))


def test_dd_tensor_and_e3_symbol_closed_forms(stack_l9_massless):
    # the real closed forms on the folded grid against the parent's complex
    # difference-symbol products and a longdouble evaluation, at the scale
    # where 1 - cos p loses digits near p = 0
    from ktrg.coefficients import _dd_at_zero, _e3_symbol

    st = stack_l9_massless
    j = 3
    g = st.grid(j)
    full = g.unfold(g.band(st.fine_scales(j)))
    dd = _dd_at_zero(st, j)
    assert np.array_equal(dd, dd.T)
    # the complex products are symmetric in (mu, nu) too; their cross-axis
    # entries carry the rounding of the odd sin p0 sin p1 part (7.2e-14)
    for mu in range(4):
        for nu in range(mu, 4):
            ref = float(np.mean(full * g.diff_symbol((mu, nu)).real)) / g.weight
            assert dd[mu, nu] == pytest.approx(ref, rel=1e-13, abs=0.0)

    ld = np.longdouble
    p = g.p.astype(ld)
    c = 2 * np.sin(p / 2) ** 2
    norm = ld(g.S) ** 2 * ld(g.weight)
    G = full.astype(ld)
    row, col = np.sum(G, axis=1), np.sum(G, axis=0)  # G summed over p1, over p0
    same = [np.sum(row * (-2 * np.cos(p) * c)), np.sum(col * (-2 * np.cos(p) * c))]
    opposite = [np.sum(row * 2 * c), np.sum(col * 2 * c)]
    cross = c @ G @ c
    for mu in range(4):
        for nu in range(4):
            a = mu % 2
            ref = (same[a] if mu == nu else opposite[a]) if a == nu % 2 else cross
            assert abs(dd[mu, nu] - ref / norm) <= 1e-15 * abs(ref / norm)

    # per grid point on the folded grid
    q = g.p_fold.astype(ld)
    cq = 2 * np.sin(q / 2) ** 2
    e3_ref = (2 * cq[:, None] + 2 * cq[None, :]) ** 2
    e3 = _e3_symbol(g)
    assert e3[0, 0] == 0.0
    nz = e3_ref > 0
    assert np.max(np.abs(e3[nz] / e3_ref[nz] - 1)) <= 1e-15
    e3_complex = sum(g.diff_symbol((a, a + 2, b, b + 2)).real for a in range(2) for b in range(2))
    assert np.max(np.abs(g.unfold(e3) - e3_complex)) <= 1e-14 * np.max(e3)
