import collections
import dataclasses
import filecmp
import gc
import math
import os
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import fft as sfft

from ktrg import decomposition
from ktrg.coefficients import compute_coefficients
from ktrg.lattice import TorusLattice, laplacian_symbol, normalized_potential_table, yukawa_table
from ktrg.cutoffs import FejerPass, build_cutoffs
from ktrg.decomposition import (
    decompose,
    write_stack,
    read_stack,
    DecompositionError,
    SpectralGrid,
    PROBE_SIDE,
    _odd_fast_len,
)

from conftest import one_minus_factor_over_u
from spectral_oracles import (
    alias_ring, complex_dd_at_zero, complex_e3_symbol, dd_tensor, e3_symbol, fold_index, full_axis, grid_band,
    ifft_kernel, ifft_window, mean_parseval, origin_sums, ring_alias_bound, square_window, stack_window, tensor_sums,
    unfold,
)


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


def _leakage_mask_oracle(stack, j):
    """max |Gamma_j| over the Chebyshev-radius mask |x|_inf >= L^(j+1)/2, over Gamma_j(0)."""
    t = stack.gamma_table(j)
    side = stack.lattice.side
    c = np.arange(side)
    c = np.where(c <= (side - 1) // 2, c, c - side)
    rr = np.maximum(np.abs(c)[:, None], np.abs(c)[None, :])
    mask = rr >= stack.lattice.L ** (j + 1) / 2.0
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(t[mask])) / t[0, 0])


def _telescoping_oracle(stack):
    """The telescoping error summed with fresh arrays and the reference built last."""
    total = np.zeros_like(stack.gamma_tables[0])
    for t in stack.gamma_tables:
        total = total + t
    if not stack.tail_is_normalized:
        ref = yukawa_table(stack.lattice)
        return float(np.max(np.abs(total + stack.tail_table - ref)) / abs(ref[0, 0]))
    total = total - total[0, 0] + stack.tail_table
    ref = normalized_potential_table(stack.lattice)
    return float(np.max(np.abs(total - ref)) / float(np.max(np.abs(ref))))


def test_leakage_slabs_and_telescoping_match_oracles(stack_l3_massless, stack_l3_massive):
    # the row and column slabs hold the same entries as the mask, and the
    # in-place sum makes the same roundings: both equal their oracles exactly
    stacks = [
        stack_l3_massless,
        decompose(TorusLattice(L=3, R=5, m=0.1)),
        decompose(TorusLattice(L=3, R=3, m=0.25)),
        _shifted_leak(stack_l3_massive),
    ]
    for stack in stacks:
        for j in range(stack.n_scales):
            assert stack.leakage(j) == _leakage_mask_oracle(stack, j)
        assert stack.telescoping_error() == _telescoping_oracle(stack)
    assert stacks[-1].leakage(0) == pytest.approx(1e-3)


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
    grid = SpectralGrid(stack.cutoffs, stack.lattice.m, stack.lattice.side)
    return ifft_kernel(grid, grid_band(grid, [h]))


def test_fine_components_aggregate(stack_l3_massive):
    st = stack_l3_massive
    M = st.lattice.M
    for j in range(st.n_scales):
        total = sum(fine_component_table(st, h) for h in range(j * M, (j + 1) * M))
        assert np.allclose(total, st.gamma_table(j), atol=1e-15)


def _ifft2_tables(stack):
    """Oracle: each Gamma_j and the tail by the complex inverse FFT of the unfolded band."""
    lat = stack.lattice
    grid = SpectralGrid(stack.cutoffs, lat.m, lat.side)
    run = grid.fejer_pass()
    tables = [ifft_kernel(grid, run.band_sum(stack.fine_scales(j))) for j in range(stack.n_scales)]
    r = run.advance(stack.cutoffs.horizon)
    if stack.tail_is_normalized:
        lam = grid._lam()
        dens = np.divide(r, lam, out=np.zeros_like(lam), where=lam > 0)
        t = ifft_kernel(grid, dens)
        return tables, t - t[0, 0]
    return tables, ifft_kernel(grid, r / run.u)


@pytest.mark.parametrize("L, R, m", [(3, 6, 0.0), (3, 5, 0.1), (3, 4, 0.0), (3, 3, 0.25)])
def test_real_synthesis_tables_match_complex_ifft2_oracle(stack_l3_massless, L, R, m):
    stack = stack_l3_massless if (R, m) == (6, 0.0) else decompose(TorusLattice(L=L, R=R, m=m))
    tables, tail = _ifft2_tables(stack)
    for t, ref in zip([*stack.gamma_tables, stack.tail_table], [*tables, tail]):
        assert t.shape == ref.shape == (stack.lattice.side,) * 2
        assert np.max(np.abs(t - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_real_synthesis_coefficients_match_complex_ifft2_oracle(stack_l3_massless):
    # the coefficients read Gamma_j(0) off the tables
    tables, tail = _ifft2_tables(stack_l3_massless)
    oracle = dataclasses.replace(stack_l3_massless, gamma_tables=tables, tail_table=tail, _cache={})
    new, ref = compute_coefficients(stack_l3_massless, 3), compute_coefficients(oracle, 3)
    for name in ("a", "b", "e2", "e3", "e4", "vol"):
        assert np.allclose(getattr(new, name), getattr(ref, name), rtol=1e-14, atol=0.0), name


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
    w = stack_window(st, 3, step=1)
    for z0 in (-5, 0, 7):
        for z1 in (-3, 0, 11):
            assert w.values[z0 + w.radius, z1 + w.radius] == pytest.approx(t[z0 % side, z1 % side], abs=1e-13)


def test_window_decimated_and_shifted(stack_l3_r5):
    # step 3 here undersamples scale 4 on purpose: the reported alias bound
    # must cover the actual decimation error
    st = stack_l3_r5
    side = st.lattice.side
    t = st.gamma_table(4)
    w = stack_window(st, 4, step=3)
    assert 0.0 < w.alias_bound < 1e-3
    for z0 in (-20, 0, 13):
        for z1 in (-7, 0, 20):
            ref = t[(3 * z0) % side, (3 * z1) % side]
            assert w.values[z0 + w.radius, z1 + w.radius] == pytest.approx(ref, abs=max(1e-12, w.alias_bound))


def test_window_natural_step_tight(stack_l3_r5):
    # at the natural decimation (243 samples per scale) the certified bound
    # sits near 1e-11 and the values match the tables to that accuracy
    st = stack_l3_r5
    side = st.lattice.side
    t = st.gamma_table(4)
    w = stack_window(st, 4)  # natural step for h = 4 at L = 3 is 1: exact
    assert w.alias_bound == 0.0
    assert w.values[7 + w.radius, -2 + w.radius] == pytest.approx(t[7 % side, -2 % side], abs=1e-13)


def test_serialization_roundtrip(tmp_path, stack_l3_massive):
    path = os.path.join(tmp_path, "stack.csv")
    write_stack(stack_l3_massive, path)
    back = read_stack(path)
    for j in range(3):
        assert np.array_equal(back.gamma_table(j), stack_l3_massive.gamma_table(j))
    assert np.array_equal(back.tail_table, stack_l3_massive.tail_table)
    assert back.lattice == stack_l3_massive.lattice


# finite doubles as raw bits: +-0, +-5e-324, the smallest normal, the largest finite value
_EDGE_BITS = [
    int(np.float64(v).view(np.uint64))
    for v in (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
              1.7976931348623157e308, -1.7976931348623157e308)
]
_finite_bits = st.one_of(
    st.sampled_from(_EDGE_BITS),
    st.integers(0, 2**64 - 1).filter(lambda b: (b >> 52) & 0x7FF != 0x7FF),
)


def _float_hex_rows(block):
    """Oracle: the rows as float.hex writes them, one value at a time."""
    return [",".join(map(float.hex, row)).encode() for row in block.tolist()]


def test_hex_encoder_edge_values():
    block = np.array(_EDGE_BITS, dtype=np.uint64).view(np.float64).reshape(2, 4)
    assert decomposition._hex_rows(block) == _float_hex_rows(block)
    assert decomposition._hex_rows(block)[0].split(b",")[:3] == [b"0x0.0p+0", b"-0x0.0p+0", b"0x0.0000000000001p-1022"]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda w: st.lists(st.lists(_finite_bits, min_size=w, max_size=w), min_size=1, max_size=8)))
def test_hex_encoder_matches_float_hex(rows):
    block = np.array(rows, dtype=np.uint64).view(np.float64)
    assert decomposition._hex_rows(block) == _float_hex_rows(block)


@pytest.mark.parametrize("bad, j, x0", [(float("nan"), 1, 5), (float("inf"), 3, 0), (-float("inf"), 0, 26)])
def test_write_stack_refuses_non_finite(tmp_path, stack_l3_massive, bad, j, x0):
    # scale 3 is the tail; nothing is written, not even the header
    g = [t.copy() for t in stack_l3_massive.gamma_tables]
    tail = stack_l3_massive.tail_table.copy()
    (tail if j == 3 else g[j])[x0, 7] = bad
    stack = dataclasses.replace(stack_l3_massive, gamma_tables=g, tail_table=tail, _cache={})
    path = os.path.join(tmp_path, "stack.csv")
    with pytest.raises(DecompositionError, match=rf"non-finite value {bad} in scale {j} at x0={x0}, x1=7") as e:
        write_stack(stack, path)
    assert path in str(e.value)
    assert not os.path.exists(path)


def _scipy_odd_fast_len(n):
    """The scipy.fft search _odd_fast_len replaced, kept as its oracle."""
    s = sfft.next_fast_len(n)
    while s % 2 == 0:
        s = sfft.next_fast_len(s + 1)
    return s


def test_odd_fast_len_matches_scipy_oracle():
    assert [n for n in range(1, 100_001) if _odd_fast_len(n) != _scipy_odd_fast_len(n)] == []


def test_stack_and_coefficients_match_scipy_grid_lengths(tmp_path, monkeypatch):
    # write_stack's tables come from the torus momenta; the grid lengths
    # enter through the coefficient grids, so both artifacts are compared
    def artifacts(name):
        stack = decompose(TorusLattice(L=3, R=6, m=0.0))
        path = os.path.join(tmp_path, name)
        write_stack(stack, path)
        return path, compute_coefficients(stack, 3)

    new_path, new_rep = artifacts("new.csv")
    lengths = []

    def oracle(n):
        lengths.append(n)
        return _scipy_odd_fast_len(n)

    monkeypatch.setattr(decomposition, "_odd_fast_len", oracle)
    old_path, old_rep = artifacts("old.csv")
    assert lengths
    assert filecmp.cmp(new_path, old_path, shallow=False)
    assert old_rep == new_rep


def test_materialize_cap(stack_l9_massless):
    # the side 9^6 is above the cap: the stack keeps no tables
    assert stack_l9_massless.lattice.side > decomposition.MATERIALIZE_CAP
    assert stack_l9_massless.gamma_tables is None and stack_l9_massless.tail_table is None
    with pytest.raises(DecompositionError, match="not materialized"):
        stack_l9_massless.gamma_table(1)


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


def test_read_stack_rejects_value_beyond_the_float_range(tmp_path, stack_l3_massive):
    # float.fromhex raises OverflowError, not ValueError, on an exponent past
    # the largest double; row (1, 4) is data line 32, file line 37
    def edit(rows):
        fields = rows[31].split(",")
        fields[5] = "0x1.0000000000000p+1024"
        return rows[:31] + [",".join(fields)] + rows[32:]

    path = _damaged_copy(tmp_path, stack_l3_massive, edit)
    _rejected(path, r"line 37: malformed row \(scale, x0\) = \(1, 4\), 29 fields, value 3 overflows a float")


def test_read_stack_rejects_header_mass_beyond_the_float_range(tmp_path, stack_l3_massive):
    path = _damaged_copy(tmp_path, stack_l3_massive, lambda rows: rows)
    text = open(path).read().replace(f"m={stack_l3_massive.lattice.m.hex()}", "m=0x1.0p+1024")
    with open(path, "w") as f:
        f.write(text)
    _rejected(path, "bad or missing header entry")


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


@pytest.mark.parametrize("R, side", [(20, 3**20), (8, 6561)])
def test_read_stack_refuses_a_side_no_stack_file_holds(tmp_path, R, side):
    # write_stack writes materialized stacks only, of side <= MATERIALIZE_CAP:
    # a larger side is refused from the header, before any table is allocated
    path = os.path.join(tmp_path, f"stack_R{R}.csv")
    with open(path, "w") as f:
        f.write(f"# ktrg covariance stack v2\n# L=3 R={R} gamma=3 M=1 m=0x0.0p+0\nscale,x0,values\n")
    tracemalloc.start()
    try:
        _rejected(path, rf"torus side {side} is above 2187, the largest side a stack file holds")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


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
    g[0][13, 11] = -5e-324
    g[0][13, 10] = 2.2250738585072014e-308  # the smallest normal, 0x1.0000000000000p-1022
    g[0][13, 9] = -float.fromhex("0x1.8000000000001p-1022")
    path = os.path.join(tmp_path, "stack.csv")
    write_stack(dataclasses.replace(stack_l3_massive, gamma_tables=g, _cache={}), path)
    row = open(path).read().splitlines()[5 + 13].split(",")[2:]
    assert row[9:14] == ["-0x1.8000000000001p-1022", "0x1.0000000000000p-1022", "-0x0.0000000000001p-1022",
                         "0x0.0000000000001p-1022", "-0x0.0p+0"]
    back = read_stack(path).gamma_table(0)
    assert np.array_equal(back.view(np.uint64), g[0].view(np.uint64))
    assert np.signbit(back[13, 13]) and back[13, 13] == 0.0
    assert back[13, 12] == 5e-324 and back[13, 11] == -5e-324


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
    # leakage is cached per stack, so other tables make a new stack
    st = dataclasses.replace(st, gamma_tables=[st.gamma_tables[0] * float("nan"), *st.gamma_tables[1:]], _cache={})
    with pytest.raises(DecompositionError, match="leakage nan"):
        st.validate()


def test_leakage_is_cached_per_scale(stack_l3_massive, monkeypatch):
    # the first call per scale reads the table, a second returns the same
    # float without reading it; decompose's validate() has filled the cache
    reads = []
    table = decomposition.CovarianceStack.gamma_table
    monkeypatch.setattr(decomposition.CovarianceStack, "gamma_table", lambda self, j: reads.append(j) or table(self, j))
    st = dataclasses.replace(stack_l3_massive, _cache={})
    first = [st.leakage(j) for j in range(st.n_scales)]
    assert reads == list(range(st.n_scales))
    second = [st.leakage(j) for j in range(st.n_scales)]
    assert reads == list(range(st.n_scales))
    assert all(type(a) is float and a is b for a, b in zip(first, second))
    built = decompose(TorusLattice(L=3, R=3, m=0.1))
    reads.clear()
    assert [built.leakage(j) for j in range(built.n_scales)] == first and reads == []


def _mirror_loop(g, t):
    """The folded-grid array of the triangle array t, copied row by row (oracle)."""
    n = len(g.p_fold)
    out = np.empty((n, n))
    start = 0
    for i in range(n):
        row = t[start : start + i + 1]
        out[i, : i + 1] = row
        out[:i, i] = row[:i]
        start += i + 1
    return out


@pytest.mark.parametrize("S", [1, 45, 729])
def test_mirror_gather_matches_row_loop(S):
    # the two masked copies through the lower-triangle mask copy what the
    # row loop copies, on random triangles and on the band pass
    cut = build_cutoffs(3, 1, 6)
    g = SpectralGrid(cut, 0.1, S)
    n = len(g.p_fold)
    assert n == S // 2 + 1
    t = np.random.default_rng(S).standard_normal(n * (n + 1) // 2)
    run = g.fejer_pass()
    for tri in (t, run.advance(2).copy(), run.band_sum([4])):
        assert np.array_equal(g._mirror(tri), _mirror_loop(g, tri))


def _full_u(g):
    """m^2 + lam on the full grid p x p, evaluated without the fold."""
    p = full_axis(g)
    return g.m * g.m + laplacian_symbol(p[:, None], p[None, :])


def test_grid_bands_match_band_sum():
    # the grid's pass over the triangle reproduces the band evaluation from
    # scratch bit for bit, in a fresh pass or continuing one through lists
    # in increasing order, and the unfolded quarter reproduces a pass over
    # the full grid
    lat = TorusLattice(L=9, R=3, m=0.1)
    cut = build_cutoffs(lat.gamma, lat.M, lat.n_fine_scales)
    g = SpectralGrid(cut, lat.m, 45, 3, 10)
    u = _full_u(g)
    run = g.fejer_pass()
    for hs in ([2, 3], [0, 1], [4, 5], [3]):
        assert np.array_equal(grid_band(g, hs), cut.band_sum(run.u, g.b, hs))
        assert np.array_equal(unfold(g, grid_band(g, hs)), cut.band_sum(u, g.b, hs))
    for hs in ([0, 1], [2], [4, 5]):
        assert np.array_equal(run.band_sum(hs), cut.band_sum(run.u, g.b, hs))
    assert np.array_equal(g.fejer_pass().advance(6), cut.residual(run.u, g.b, 6))
    assert np.array_equal(unfold(g, g.fejer_pass().advance(6)), cut.residual(u, g.b, 6))


def _tag_passes(monkeypatch):
    """Tag each FejerPass that a SpectralGrid makes with that grid, as run.grid."""
    orig = SpectralGrid.fejer_pass

    def tagged(self, *args):
        run = orig(self, *args)
        run.grid = self
        return run

    monkeypatch.setattr(SpectralGrid, "fejer_pass", tagged)


def _count_band_evaluations(monkeypatch):
    """(grid, fine-scale list) of each band sum on a grid's pass."""
    calls = []
    orig = FejerPass.band_sum
    _tag_passes(monkeypatch)

    def counted(run, hs):
        hs = tuple(hs)
        calls.append((getattr(run, "grid", None), hs))
        return orig(run, hs)

    monkeypatch.setattr(FejerPass, "band_sum", counted)
    return calls


def test_decompose_evaluates_each_band_once(monkeypatch):
    calls = _count_band_evaluations(monkeypatch)
    st = decompose(TorusLattice(L=3, R=4, m=0.1))
    assert [hs for _, hs in calls] == [(0,), (1,), (2,), (3,)]
    assert len({id(g) for g, _ in calls}) == 1 and calls[0][0].S == st.lattice.side
    st.psd_margins()
    st.validate()
    assert len(calls) == 4


def _count_fine_orders(monkeypatch) -> collections.Counter:
    """Points at which the passes of each grid (band_pass's and every other) evaluate each fine order."""
    counts = collections.Counter()
    band = FejerPass.band
    _tag_passes(monkeypatch)

    def counted(run):
        counts[(getattr(run, "grid", None), run.h)] += run.u.size
        return band(run)

    monkeypatch.setattr(FejerPass, "band", counted)
    return counts


def test_coefficients_evaluate_each_band_once_per_grid(monkeypatch):
    # the scale-n grid evaluates every fine order of scales 0..n once at
    # each triangle point, in its row-block pass, and keeps the band of
    # scale n only
    counts = _count_fine_orders(monkeypatch)
    st = decompose(TorusLattice(L=9, R=4))
    compute_coefficients(st, 2)
    for n in range(3):
        g = st.grid(n)
        k = len(g.p_fold)
        assert {h: c for (grid, h), c in counts.items() if grid is g} == {
            h: k * (k + 1) // 2 for h in range((n + 1) * st.lattice.M)
        }
        assert g.psi.shape == (k * (k + 1) // 2,)


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
    g = SpectralGrid(cut, lat.m, S, 3, 10)
    n = S // 2 + 1
    assert g.fejer_pass().u.shape == (n * (n + 1) // 2,)
    assert g.w[0] == 1.0 and np.all(g.w[1:] == 2.0)
    assert np.array_equal(g.p_fold[fold_index(g)], np.abs(full_axis(g)))
    u = _full_u(g)
    for hs in ([2, 3], [0, 1], [4, 5]):
        assert np.array_equal(unfold(g, grid_band(g, hs)), cut.band_sum(u, g.b, hs))
    assert np.array_equal(unfold(g, g.fejer_pass().advance(6)), cut.residual(u, g.b, 6))


def test_triangle_lam_is_the_square_symbol_on_the_triangle():
    # the pass's a[i] + a[k] is laplacian_symbol on the folded grid, bit for bit
    g = SpectralGrid(build_cutoffs(3, 1, 4), 0.1, 243, 3, 10)
    lam = laplacian_symbol(g.p_fold[:, None], g.p_fold[None, :])
    assert np.array_equal(g._lam(), lam[np.tri(len(g.p_fold), dtype=bool)])
    assert np.array_equal(g._mirror(g._lam()), lam)


def test_parseval_refuses_a_factor_off_the_triangle():
    # a sum over the triangle is the full sum only for swap-symmetric
    # integrands, so a folded square (or any other shape) is refused
    g = SpectralGrid(build_cutoffs(3, 1, 4), 0.1, 45, 1, 10)
    G = grid_band(g, [1])
    assert g.parseval(G, g._lam()) > 0.0
    for bad in (g._mirror(G), G[:-1], np.float64(1.0)):
        with pytest.raises(DecompositionError, match="triangle arrays"):
            g.parseval(G, bad)


@pytest.mark.parametrize("method", ["window", "zoom"])
def test_window_and_zoom_refuse_anything_but_a_real_triangle(method):
    # a complex triangle, a folded square and a wrong length each raise and
    # name the shape; a band on the triangle is the only array they transform
    g = SpectralGrid(build_cutoffs(3, 1, 4), 0.1, 45, 1, 10)
    G = grid_band(g, [1])
    n = len(G)
    assert n == 23 * 24 // 2

    def transform(A):
        return g.window(A) if method == "window" else g.zoom(A, g.y[:3])

    assert transform(G).shape == ((11, 11) if method == "window" else (3, 3))
    for bad, got in ((G + 0j, rf"a complex array of shape \({n},\)"),
                     (g._mirror(G), r"an array of shape \(23, 23\)"),
                     (G[:-1], rf"an array of shape \({n - 1},\)")):
        with pytest.raises(DecompositionError, match=rf"{method} takes real triangle arrays of {n} entries, got {got}"):
            transform(bad)


@pytest.mark.parametrize("S", [1, 3, 33, 67, 243, 731, 2187])
def test_triangle_fed_window_bit_identical_to_the_square_synthesis(S):
    # window unpacks the first transform's blocks as rows of the triangle;
    # the synthesis of the whole folded square gives every bit of it, on
    # odd grids of one, two and many blocks (the last one partial) at step 3,
    # for a random triangle and a band, on the full quarter and a cut one
    cut = build_cutoffs(3, 1, 9)
    g = SpectralGrid(cut, 0.0, S, 3, S // 2)
    n = len(g.p_fold)
    tri = n * (n + 1) // 2
    bands = [np.random.default_rng(S).standard_normal(tri), grid_band(g, [6, 7])]
    for radius in sorted({S // 2, S // 3}):
        g.radius = radius
        for G in bands:
            K = g.window(G)
            assert K.shape == (radius + 1, radius + 1)
            assert np.array_equal(K, square_window(g, G))


def test_grid_origin_sums_bit_identical_to_fresh_parseval(stack_l9_massless, stack_l3_massless):
    # Gamma_n(0) (on a stack without tables) and the two second differences
    # are taken once, as each grid is built: the Parseval sums of fresh
    # pair weights, bit for bit; a stack with tables reads Gamma_n(0) there
    for base, n_max in ((stack_l9_massless, 3), (stack_l3_massless, 5)):
        st = dataclasses.replace(base, _cache={})
        for n in range(n_max + 1):
            g = st.grid(n)
            g0, dd, opposite = origin_sums(g)
            assert (g.dd, g.opposite) == (dd, opposite)
            if base.gamma_tables is None:
                assert g.origin == g0 and st.gamma0(n) == g0
            else:
                assert g.origin is None and st.gamma0(n) == float(base.gamma_tables[n][0, 0])


def test_kernel_refuses_a_finer_scale_on_a_coarser_grid(stack_l9_massless):
    # the scale-j grid's period is shorter than the scale-n window for j < n,
    # so its zoom would alias: the stack serves j >= n only
    st = stack_l9_massless
    for j, n in ((0, 1), (2, 3)):
        with pytest.raises(ValueError, match=rf"kernel of scale {j} on the coarser scale-{n} grid"):
            st.kernel(j, n)
    assert st.kernel(3, 3).shape == (st.grid(3).radius + 1,) * 2


def test_filled_grids_cache_one_triangle_per_band(stack_l9_massless):
    # each grid keeps one triangle, psi, the band of its own scale: bit for
    # bit a pass over the whole triangle
    st = dataclasses.replace(stack_l9_massless, _cache={})
    for n in range(4):
        g = st.grid(n)
        k = len(g.p_fold)
        assert g.psi.shape == (k * (k + 1) // 2,)
        assert np.array_equal(g.psi, grid_band(g, st.fine_scales(n)))


def test_row_blocks_cover_the_triangle_in_order():
    for n, size in ((1, 1), (7, 1), (50, 12), (50, 10**9), (122, 777)):
        blocks = list(decomposition._row_blocks(n, size))
        assert [i for rows in blocks for i in rows] == list(range(n))
        for rows in blocks:
            points = decomposition._tri(rows.stop) - decomposition._tri(rows.start)
            assert points <= size or len(rows) == 1


@pytest.mark.parametrize("block", [1, 777, 10**9])
def test_band_pass_blocks_bit_identical_to_the_full_triangle(monkeypatch, block):
    # blocks of one row, of an odd size and one block past the whole
    # triangle: the kept band is the full-triangle pass's bit for bit, and
    # each pair sum is its Parseval sum up to the order of summation
    cut = build_cutoffs(3, 2, 6)
    groups = [[0, 1], [2, 3], [4, 5]]
    full = SpectralGrid(cut, 0.0, 243, 3, 10)
    run = full.fejer_pass()
    psi = [run.band_sum(hs) for hs in groups]
    lam = full._lam()
    monkeypatch.setattr(decomposition, "BAND_BLOCK", block)
    g = SpectralGrid(cut, 0.0, 243, 3, 10)
    g.band_pass(groups)
    assert np.array_equal(g.psi, psi[2])
    assert np.array_equal(psi[2], cut.band_sum(run.u, g.b, [4, 5]))
    for k in range(3):
        assert g.lam_sums[k] == pytest.approx(full.parseval(lam, psi[k], psi[2]), rel=2e-15, abs=0.0)
        assert g.lam2_sums[k] == pytest.approx(full.parseval(lam**2, psi[k], psi[2]), rel=2e-15, abs=0.0)


def test_grid_peak_memory_within_four_triangles(stack_l9_massless):
    # the band pass holds the scale-3 band and one block of rows at a time
    # (tracemalloc: 14.8 MB, where caching every band of scales 0..3 peaked
    # at 57.5 MB)
    st = dataclasses.replace(stack_l9_massless, _cache={})
    tracemalloc.start()
    try:
        g = st.grid(3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k = len(g.p_fold)
    assert k > 1000
    assert peak <= 4 * 8 * k * (k + 1) // 2


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40), st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_window_moment_matches_the_y_sq_product(radius, step, seed):
    # |y|^2 = y0^2 + y1^2 separates; against the window of |y|^2 times F,
    # summed by window_sum, within a few ulps of the sum of |terms| (at most
    # 3.0 ulps over 20000 random arrays)
    from spectral_oracles import y_sq

    g = SpectralGrid(build_cutoffs(3, 1, 4), 0.0, 2 * radius + 3, step, radius)
    rng = np.random.default_rng(seed)
    n = radius + 1
    F = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-6, 6, (n, n))
    Y = y_sq(g)
    size = g.window_sum(Y, np.abs(F))
    assert abs(g.window_moment(F) - g.window_sum(Y, F)) <= 6 * np.finfo(float).eps * size


def test_window_peak_memory_within_three_windows(stack_l9_massless):
    # the first transform's rows and the window itself, plus one block of
    # the synthesis, whose rows come straight from the triangle: no square
    # of the band (tracemalloc: 2.15 windows, and 3.15 with the square)
    st = stack_l9_massless
    g = st.grid(3)
    G = g.psi
    assert len(g.p_fold) > 1000
    tracemalloc.start()
    try:
        K = g.window(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert K.shape == (g.radius + 1,) * 2
    assert peak <= 3 * K.nbytes


def test_torus_axis_folds_onto_the_quarter():
    # a materialized stack's grid is the step-1 grid of the torus side: its
    # axis is the torus momenta bit for bit (at the sides of every stack
    # and probe grid), folded onto the quarter like a per-scale grid
    cut = build_cutoffs(3, 1, 4)
    lat = TorusLattice(L=3, R=2, m=0.1)
    g = SpectralGrid(cut, 0.1, lat.side)
    assert np.array_equal(full_axis(g), lat.momenta())
    for S in (45, 243, 729, 2187, 2205):
        assert np.array_equal(SpectralGrid(cut, 0.1, S).p_fold, (2.0 * np.pi * np.fft.fftfreq(S))[: S // 2 + 1])
    n = lat.side // 2 + 1
    assert g.fejer_pass().u.shape == (n * (n + 1) // 2,)
    assert g.w[0] == 1.0 and np.all(g.w[1:] == 2.0)
    assert np.array_equal(g.p_fold[fold_index(g)], np.abs(full_axis(g)))
    assert np.array_equal(unfold(g, grid_band(g, [1, 2])), cut.band_sum(_full_u(g), g.b, [1, 2]))


@pytest.mark.parametrize("S", [10, 0, -3])
def test_grid_refuses_an_even_or_empty_axis(S):
    # every grid folds onto the quarter p >= 0, which needs an odd axis length
    with pytest.raises(ValueError, match=rf"odd axis length S >= 1, got S={S}"):
        SpectralGrid(build_cutoffs(3, 1, 4), 0.1, S)


@pytest.mark.parametrize("L, R, j, want", [
    (9, 6, 3, 1.3155949910569398e-11),
    (9, 6, 4, 6.482083277258974e-12),
    (9, 6, 5, 6.190773876157897e-12),
    (3, 7, 6, 1.3155817113633793e-11),
])
def test_alias_bound_on_the_ring_triangle_equals_the_whole_square(monkeypatch, L, R, j, want):
    # the one pass over the ring's lower triangle, central cell left out,
    # builds no grid and gives the bits of the whole-square evaluation; lam
    # on the ring square is symmetric bit for bit, so the triangle holds
    # every value of the square
    lat = TorusLattice(L=L, R=R)
    cut = build_cutoffs(lat.gamma, lat.M, lat.n_fine_scales)
    hs = range(j * lat.M, (j + 1) * lat.M)
    g = SpectralGrid(cut, lat.m, 3, decomposition.natural_step(cut, hs[0]))
    assert g.step > 1
    ring = alias_ring(g)
    lam = laplacian_symbol(ring[:, None], ring[None, :])
    assert np.array_equal(lam, lam.T)
    made = []
    monkeypatch.setattr(SpectralGrid, "__init__", lambda self, *args, **kwargs: made.append(args))
    assert g.alias_bound(hs) == ring_alias_bound(g, hs) == want
    assert made == []


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
    # the full-grid formulas: the mean over unfolded arrays, the cosine zoom
    # over the full axis and the complex inverse FFT (the window is the
    # quarter z >= 0 of its kernel)
    st = stack_l9_massless
    g = st.grid(3)
    assert g.step > 1
    G, G1 = g.psi, grid_band(g, st.fine_scales(1))
    full = unfold(g, G)
    for factors in ((G,), (g._lam(), G, G), (G1, G)):
        oracle = mean_parseval(g, *factors)
        assert g.parseval(*factors) == pytest.approx(oracle, rel=1e-14, abs=0.0)
    ys = g.y[::27] + 1.0
    ph = np.cos(np.outer(ys, full_axis(g)))
    zoom = ph @ (full @ ph.T) / (g.S**2 * g.weight)
    assert np.max(np.abs(g.zoom(G, ys) - zoom)) <= 1e-14 * np.max(np.abs(zoom))
    r = g.radius
    K = ifft_window(g, G)
    assert np.max(np.abs(g.window(G) - K[r:, r:])) <= 1e-14 * np.max(np.abs(K))


@pytest.mark.parametrize("j, step", [(1, 1), (3, 3)])
def test_quarter_window_and_half_zoom_match_full_grid_oracles(stack_l9_massless, j, step):
    # the quarter window against the complex inverse FFT of the unfolded
    # band, and the cosine zoom at nonnegative positions against the zoom
    # over the full axis at the mirrored positions, on a step-1 grid and on
    # the decimated scale-3 grid at L = 9
    st = stack_l9_massless
    g = st.grid(j)
    assert g.step == step
    r = g.radius
    G = g.psi
    K = ifft_window(g, G)
    Q = g.window(G)
    assert Q.shape == (r + 1, r + 1) and np.array_equal(st.kernel(j, j), Q)
    assert np.max(np.abs(Q - K[r:, r:])) <= 1e-14 * np.max(np.abs(K))
    assert np.max(np.abs(g.full_window(Q) - K)) <= 1e-14 * np.max(np.abs(K))

    ys = g.y[:: max(1, r // 40)] + 0.5
    k = len(ys) - 1
    ph = np.cos(np.outer(np.concatenate([-ys[:0:-1], ys]), full_axis(g)))
    full = ph @ (unfold(g, G) @ ph.T) / (g.S**2 * g.weight)
    half = g.zoom(G, ys)
    assert half.shape == (k + 1, k + 1)
    assert np.max(np.abs(half - full[k:, k:])) <= 1e-14 * np.max(np.abs(full))
    assert np.max(np.abs(half[::-1, ::-1] - full[: k + 1, : k + 1])) <= 1e-14 * np.max(np.abs(full))


def test_dd_tensor_and_e3_symbol_closed_forms(stack_l9_massless):
    # the real closed forms on the folded grid against the parent's complex
    # difference-symbol products and a longdouble evaluation, at the scale
    # where 1 - cos p loses digits near p = 0
    from ktrg.coefficients import _second_differences

    st = stack_l9_massless
    j = 3
    g = st.grid(j)
    full = unfold(g, g.psi)
    dd = dd_tensor(st, j)
    assert np.array_equal(dd, dd.T)
    # the two sums the coefficients take are the tensor's equal and opposite pairs
    assert _second_differences(st, j) == tensor_sums(dd)
    # the complex products are symmetric in (mu, nu) too; their cross-axis
    # entries carry the rounding of the odd sin p0 sin p1 part (7.2e-14)
    complex_dd = complex_dd_at_zero(st, j)
    for mu in range(4):
        for nu in range(mu, 4):
            assert dd[mu, nu] == pytest.approx(complex_dd[mu, nu], rel=1e-13, abs=0.0)

    ld = np.longdouble
    p = full_axis(g).astype(ld)
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
    e3 = e3_symbol(g)
    assert e3[0] == 0.0
    e3_ref = e3_ref[np.tri(len(g.p_fold), dtype=bool)]
    nz = e3_ref > 0
    assert np.max(np.abs(e3[nz] / e3_ref[nz] - 1)) <= 1e-15
    assert np.max(np.abs(unfold(g, e3) - complex_e3_symbol(g))) <= 1e-14 * np.max(e3)
