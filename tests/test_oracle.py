import itertools
import math

import numpy as np
import pytest

from ktrg.lattice import yukawa_table, normalized_potential_table
from ktrg.oracle import (
    oracle_lattice,
    grand_Z,
    neutral_Z,
    siegert_kac_check,
    pressure_estimate,
    _sector_sums,
    _slot_tables,
)

BETA = 8.0 * math.pi


def _full_sector_sums(side, beta, n, W):
    """Oracle: every labeled configuration, no symmetry reduction."""
    if n == 0:
        return {0: 1.0}
    slots, V, sigma = _slot_tables(side, W)
    ns = len(slots)
    diag = np.diag(V)
    out = {}
    if n == 1:
        w = np.exp(-0.5 * beta * diag)
        for q in (-1, 1):
            out[q] = float(np.sum(w[sigma == q]))
        return out
    E2 = diag[:, None] + diag[None, :] + 2.0 * V
    Q2 = sigma[:, None] + sigma[None, :]
    q_masks = {qv: Q2 == qv for qv in (-2, 0, 2)}
    for prefix in itertools.product(range(ns), repeat=n - 2):
        e_pre = 0.0
        cross = np.zeros(ns)
        q_pre = 0
        for i, a in enumerate(prefix):
            e_pre += diag[a]
            for b in prefix[:i]:
                e_pre += 2.0 * V[a, b]
            cross += V[a]
            q_pre += sigma[a]
        E = e_pre + E2 + 2.0 * (cross[:, None] + cross[None, :])
        wts = np.exp(-0.5 * beta * E)
        for qv, mask in q_masks.items():
            out[int(q_pre + qv)] = out.get(int(q_pre + qv), 0.0) + float(np.sum(wts[mask]))
    return out


def _sector_sums_prefix_loop(side, beta, n, W):
    """Oracle: particle 1 pinned at (origin, +), every ordered prefix of the
    n - 3 free slots visited in a Python loop, no label-permutation reduction."""
    if n < 3:
        return _sector_sums(side, beta, n, W)
    slots, V, sigma = _slot_tables(side, W)
    ns = len(slots)
    diag = np.diag(V)
    E2 = diag[:, None] + diag[None, :] + 2.0 * V
    Q2 = sigma[:, None] + sigma[None, :]
    q_masks = {qv: Q2 == qv for qv in (-2, 0, 2)}
    pinned = {}
    for rest in itertools.product(range(ns), repeat=n - 3):
        prefix = (0,) + rest
        e_pre = 0.0
        cross = np.zeros(ns)
        q_pre = 0
        for i, a in enumerate(prefix):
            e_pre += diag[a]
            for b in prefix[:i]:
                e_pre += 2.0 * V[a, b]
            cross += V[a]
            q_pre += sigma[a]
        E = e_pre + E2 + 2.0 * (cross[:, None] + cross[None, :])
        wts = np.exp(-0.5 * beta * E)
        for qv, mask in q_masks.items():
            pinned[q_pre + qv] = pinned.get(q_pre + qv, 0.0) + float(np.sum(wts[mask]))
    charges = set(pinned) | {-q for q in pinned}
    return {int(Q): side * side * (pinned.get(Q, 0.0) + pinned.get(-Q, 0.0)) for Q in sorted(charges)}


def _potentials(side):
    return {
        "yukawa": yukawa_table(oracle_lattice(side, 0.25)),
        "normalized": normalized_potential_table(oracle_lattice(side, 0.0)),
    }


def test_z_zero_unity():
    lat = oracle_lattice(5)
    res = grand_Z(lat, BETA, 0.0, 3)
    for m in res.m_sequence:
        assert res.Z(m) == 1.0


def test_z_parity():
    lat = oracle_lattice(5)
    pos = grand_Z(lat, BETA, 0.05, 4)
    neg = grand_Z(lat, BETA, -0.05, 4)
    for m in pos.m_sequence:
        # sector sums are charge-conjugation symmetric and the sign rule
        # (-z)^n pairs terms exactly; the surviving (neutral) part is even
        for (n, Q), v in pos.sector_terms[m].items():
            assert neg.sector_terms[m][(n, Q)] == (-1.0) ** n * v
            assert pos.sector_terms[m].get((n, -Q)) == pytest.approx(v * (1 if Q == 0 else 1), rel=1e-12)
        assert pos.Z_neutral(m) == neg.Z_neutral(m)
    n0 = neutral_Z(lat, BETA, 0.05, 4)
    n1 = neutral_Z(lat, BETA, -0.05, 4)
    assert n0.Z(0.0) == n1.Z(0.0)


def test_nonneutral_sectors_vanish_monotonically():
    lat = oracle_lattice(5)
    res = grand_Z(lat, BETA, 0.05, 3)
    for Q in (1, -1, 2):
        weights = [abs(res.sector_weight(m, Q)) for m in res.m_sequence]
        assert all(weights[i + 1] < weights[i] for i in range(len(weights) - 1))


def test_sector_decay_matches_self_energy():
    # sector weight ~ e^{-beta Q^2 W(0;m)/2}: check the log-ratio across the
    # mass sequence against the computed self-energies within a few percent
    lat = oracle_lattice(5)
    res = grand_Z(lat, BETA, 0.05, 3)
    ms = res.m_sequence
    W0 = {m: yukawa_table(oracle_lattice(5, m))[0, 0] for m in ms}
    for Q in (1,):
        for m1, m2 in zip(ms, ms[1:]):
            got = math.log(res.sector_weight(m1, Q) / res.sector_weight(m2, Q))
            predicted = 0.5 * BETA * Q * Q * (W0[m2] - W0[m1])
            assert got == pytest.approx(predicted, rel=0.25)


def test_neutral_coefficient_oracle():
    # independent two-particle formula: a +- pair at x1, x2 has energy
    # -W(x1-x2|0), so the z^2 coefficient is sum_{x1,x2} e^{+beta W(x1-x2|0)}
    lat = oracle_lattice(5)
    Wn = normalized_potential_table(oracle_lattice(5, 0.0))
    direct = 0.0
    for x0 in range(5):
        for x1 in range(5):
            for y0 in range(5):
                for y1 in range(5):
                    direct += math.exp(BETA * Wn[(x0 - y0) % 5, (x1 - y1) % 5])
    res = neutral_Z(lat, BETA, 0.05, 2)
    assert res.coefficient(0.0, 2) == pytest.approx(direct, rel=1e-12)


def test_odd_coefficients_vanish():
    lat = oracle_lattice(5)
    res = neutral_Z(lat, BETA, 0.05, 4)
    assert res.coefficient(0.0, 1) == 0.0
    assert res.coefficient(0.0, 3) == 0.0


def test_grand_Z_stabilizes_to_neutral():
    lat = oracle_lattice(5)
    g = grand_Z(lat, BETA, 0.05, 4)
    n = neutral_Z(lat, BETA, 0.05, 4)
    tail = [g.Z(m) for m in g.m_sequence]
    # the grand sum approaches the neutral value as m -> 0
    gaps = [abs(t - n.Z(0.0)) for t in tail]
    assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    assert gaps[-1] < 1e-4 * n.Z(0.0)


def test_siegert_kac_identity():
    lat = oracle_lattice(5)
    rep = siegert_kac_check(lat, BETA, 0.05, 4, s=0.0)
    assert rep.passed
    for s in (0.2, 0.4):
        rep = siegert_kac_check(lat, BETA, 0.05, 3, s=s)
        assert rep.max_rel_mismatch <= 1e-10
        assert rep.alpha_sq == pytest.approx((1 - s) * BETA)


def test_pressure_even():
    lat = oracle_lattice(5)
    assert pressure_estimate(lat, BETA, 0.0, 4) == 0.0
    p_pos = pressure_estimate(lat, BETA, 0.05, 4)
    p_neg = pressure_estimate(lat, BETA, -0.05, 4)
    assert p_pos == p_neg


def test_pressure_truncation_tail():
    # n_max 4 -> 6 moves the estimate by less than the n = 6 term bound
    # z^6 |Lambda|^3; the 3x3 torus keeps n = 6 inside the budget
    lat = oracle_lattice(3)
    p4 = pressure_estimate(lat, BETA, 0.05, 4)
    p6 = pressure_estimate(lat, BETA, 0.05, 6)
    bound = 0.05**6 * float(lat.n_sites**3) / (BETA * lat.n_sites)
    assert abs(p6 - p4) <= bound


def test_budget_errors():
    with pytest.raises(ValueError):
        grand_Z(oracle_lattice(9), BETA, 0.05, 2)
    with pytest.raises(ValueError):
        grand_Z(oracle_lattice(5), BETA, 0.05, 7)
    with pytest.raises(ValueError):
        grand_Z(oracle_lattice(5), BETA, 0.05, 2, m_sequence=(0.5, 0.0))


def test_per_configuration_weights_bounded():
    # e^{-beta H} <= 1 for m > 0 (positive-definite potential), so each
    # n-particle configuration sum is at most the slot count to the n
    lat = oracle_lattice(5, 0.5)
    res = grand_Z(lat, BETA, 1.0, 3, m_sequence=(0.5,))
    slots = 2 * lat.n_sites
    for n in range(4):
        total = sum(v for (nn, Q), v in res.sector_terms[0.5].items() if nn == n)
        assert total <= slots**n / math.factorial(n) + 1e-9


@pytest.mark.parametrize("side, n_max", [(3, 5), (5, 4)])
def test_orbit_sums_match_full_enumeration(side, n_max):
    for name, W in _potentials(side).items():
        for n in range(n_max + 1):
            got = _sector_sums(side, BETA, n, W)
            want = _full_sector_sums(side, BETA, n, W)
            assert set(got) == set(want), (name, n)
            for Q, v in want.items():
                assert abs(got[Q] - v) <= 1e-12 * abs(v), (name, n, Q, got[Q], v)


def test_orbit_sums_match_fsum_of_every_weight():
    # side 3, n = 4: all 18^4 labeled configurations, energies from the slot
    # coupling matrix, weights summed exactly per sector
    side, n = 3, 4
    for name, W in _potentials(side).items():
        slots, V, sigma = _slot_tables(side, W)
        ns = len(slots)
        idx = np.indices((ns,) * n).reshape(n, -1)
        E = sum(V[idx[i], idx[k]] for i in range(n) for k in range(n))
        wts = np.exp(-0.5 * BETA * E)
        Q = sigma[idx].sum(axis=0)
        got = _sector_sums(side, BETA, n, W)
        assert set(got) == set(Q.tolist())
        for q, v in got.items():
            ref = math.fsum(wts[Q == q].tolist())
            assert abs(v - ref) <= 1e-13 * ref, (name, q, v, ref)


def test_conjugate_sectors_bitwise_equal():
    for side, n_max in ((3, 5), (5, 4)):
        for W in _potentials(side).values():
            for n in range(n_max + 1):
                sums = _sector_sums(side, BETA, n, W)
                for Q, v in sums.items():
                    assert sums[-Q] == v
    res = grand_Z(oracle_lattice(5), BETA, 0.05, 4)
    for m in res.m_sequence:
        for (n, Q), v in res.sector_terms[m].items():
            assert res.sector_terms[m][(n, -Q)] == v


@pytest.mark.parametrize("side, n_max", [(3, 6), (5, 5)])
def test_sorted_prefix_sums_match_prefix_loop(side, n_max):
    # the non-decreasing prefixes with multinomial weights against every
    # ordered prefix of the free slots
    for name, W in _potentials(side).items():
        for n in range(3, n_max + 1):
            got = _sector_sums(side, BETA, n, W)
            want = _sector_sums_prefix_loop(side, BETA, n, W)
            assert set(got) == set(want), (name, n)
            for Q, v in want.items():
                assert abs(got[Q] - v) <= 1e-12 * abs(v), (name, n, Q, got[Q], v)


def test_slot_tables_match_row_loop():
    for side in (3, 5):
        for W in _potentials(side).values():
            slots, V, sigma = _slot_tables(side, W)
            for a, (pa, sa) in enumerate(slots):
                for b, (pb, sb) in enumerate(slots):
                    assert V[a, b] == sa * sb * W[(pa[0] - pb[0]) % side, (pa[1] - pb[1]) % side]


def test_sector_budget_counts_reduced_work():
    # side 5, n = 6: C(52, 3) sorted prefixes times the 50 x 50 block,
    # 5.5e7 entries, runs; side 7, n = 6 (1.6e9 entries) is refused
    lat = oracle_lattice(5)
    rep = siegert_kac_check(lat, BETA, 0.05, 6, s=0.0)
    assert rep.passed
    assert {n for n, _ in rep.per_n} == set(range(7))
    sums = _sector_sums(5, BETA, 6, yukawa_table(oracle_lattice(5, 0.5)))
    assert set(sums) == {-6, -4, -2, 0, 2, 4, 6}
    for Q, v in sums.items():
        assert sums[-Q] == v
    with pytest.raises(ValueError, match="budget"):
        _sector_sums(7, BETA, 6, yukawa_table(oracle_lattice(7, 0.5)))


@pytest.mark.parametrize("kwargs, name", [
    (dict(beta=float("nan")), "beta"),
    (dict(beta=float("inf")), "beta"),
    (dict(beta=0.0), "beta"),
    (dict(beta=-1.0), "beta"),
    (dict(z=float("nan")), "z"),
    (dict(z=float("inf")), "z"),
    (dict(n_max=-1), "n_max"),
])
def test_oracle_input_gates(kwargs, name):
    args = dict(lattice=oracle_lattice(3), beta=BETA, z=0.05, n_max=2)
    args.update(kwargs)
    bad = kwargs[name]
    for fn in (grand_Z, neutral_Z, siegert_kac_check):
        with pytest.raises(ValueError, match=name) as err:
            fn(**args)
        assert str(bad) in str(err.value)
    with pytest.raises(ValueError, match=name):
        pressure_estimate(**args)


@pytest.mark.parametrize("m_sequence", [(), (0.25, 0.5), (0.5, 0.5), (0.5, float("nan")), (float("inf"), 0.5)])
def test_grand_Z_mass_sequence_gate(m_sequence):
    with pytest.raises(ValueError, match="m_sequence"):
        grand_Z(oracle_lattice(3), BETA, 0.05, 2, m_sequence=m_sequence)


def test_coefficient_independent_of_z():
    # z^2 coefficient of the neutral side-5 sum, S_2 / 2! = 25.376...; at
    # z = 1e-170 the factor z^2 underflows, at z = 0 every term is 0
    lat = oracle_lattice(5)
    coeffs = [neutral_Z(lat, BETA, z, 2).coefficient(0.0, 2) for z in (0.0, 1e-170, 0.05)]
    assert coeffs[0] == coeffs[1] == coeffs[2]
    assert coeffs[0] == pytest.approx(25.376, rel=1e-4)
    at_zero = grand_Z(lat, BETA, 0.0, 2, m_sequence=(0.5,))
    at_z = grand_Z(lat, BETA, 0.05, 2, m_sequence=(0.5,))
    assert at_zero.coefficient(0.5, 0) == 1.0
    assert at_zero.coefficient(0.5, 2) == at_z.coefficient(0.5, 2)
    assert at_zero.coefficient(0.5, 2) > 0.0
