import dataclasses
import itertools
import random
import re
from array import array
from fractions import Fraction

import numpy as np
import pytest

from ktrg.polymers import (
    paving,
    polymer,
    closure,
    components,
    is_small,
    neighborhood,
    count_S,
    count_polyominoes,
    k_small,
    k_large,
    reblock_inequality,
    max_reblock_eta,
    connected_polymers_up_to,
    j_extraction_check,
    j_extraction_defect,
)
from ktrg.polymers import (
    BlockPaving, Polymer, JExtractionReport, _NBRS, _component_data, _enumerate_closure_preimages, _extraction_map,
    _neighbours, _rooted_sets, _small_family, _torus_sets,
)

# fixed polyominoes with 1..8 cells (OEIS A001168)
A001168 = (1, 2, 6, 19, 63, 216, 760, 2725)


def _connected_sets(n_axis: int, max_size: int) -> list[frozenset]:
    """Reference: every connected block set with at most max_size blocks, each once.

    Grown size by size from all single blocks; each layer is one set, so a
    set reached from several of its subsets is kept once.
    """
    nbrs = _neighbours(n_axis)
    layer = {frozenset([(b0, b1)]) for b0 in range(n_axis) for b1 in range(n_axis)}
    out = list(layer)
    for _ in range(max_size - 1):
        grown = set()
        for cur in layer:
            cand = set()
            for b in cur:
                for nb in nbrs[b]:
                    if nb not in cur:
                        cand.add(nb)
            for nb in cand:
                grown.add(cur | {nb})
        out.extend(grown)
        layer = grown
    return out


def _connected_subsets(nbrs):
    """Reference: every connected vertex set of a small graph, by testing all subsets."""
    out = set()
    for mask in range(1, 1 << len(nbrs)):
        sel = {v for v in range(len(nbrs)) if mask >> v & 1}
        seen, stack = {min(sel)}, [min(sel)]
        while stack:
            for u in nbrs[stack.pop()]:
                if u in sel and u not in seen:
                    seen.add(u)
                    stack.append(u)
        if seen == sel:
            out.add(frozenset(sel))
    return out


def _connected_sets_containing(origin, n_axis, max_size):
    """Reference: all connected block sets through `origin`, grown recursively."""
    seen = set()
    out = []

    def grow(cur):
        if cur in seen:
            return
        seen.add(cur)
        out.append(cur)
        if len(cur) == max_size:
            return
        cand = set()
        for b in cur:
            for d in _NBRS:
                nb = ((b[0] + d[0]) % n_axis, (b[1] + d[1]) % n_axis)
                if nb not in cur:
                    cand.add(nb)
        for nb in cand:
            grow(cur | {nb})

    grow(frozenset([tuple(origin)]))
    return out


def _connected_sets_per_origin(n, max_size):
    """Reference: the connected sets through each block, merged over all blocks."""
    out = set()
    for b0 in range(n):
        for b1 in range(n):
            out.update(_connected_sets_containing((b0, b1), n, max_size))
    return sorted(out, key=lambda s: sorted(s))


def test_paving_counts():
    assert paving(3, 2, 1).n_blocks == 9
    assert paving(3, 2, 0).n_blocks == 81
    assert paving(3, 2, 2).n_blocks == 1
    with pytest.raises(ValueError):
        paving(3, 2, 3)


def test_partition_exactness():
    # every site in exactly one block, center block holds |x| <= L^j/2
    pav = paving(3, 2, 1)
    seen = {}
    for x0 in range(-13, 14):
        for x1 in range(-13, 14):
            b = pav.block_of((x0, x1))
            seen.setdefault(b, set()).add(((x0) % 27, (x1) % 27))
    assert len(seen) == 9
    assert all(len(sites) == 81 for sites in seen.values())
    assert pav.block_of((0, 0)) == pav.block_of((1, -1)) == pav.block_of((-1, 1))
    assert pav.block_of((2, 0)) != pav.block_of((0, 0))


def test_sites_of_matches_block_of():
    pav = paving(3, 2, 1)
    for blk in [(0, 0), (1, 2), (2, 2)]:
        for site in pav.sites_of(blk):
            assert pav.block_of(site) == blk


def test_closure_basics():
    pav0 = paving(3, 2, 0)
    X = polymer(pav0, [(4, 4)])
    assert closure(X).size == 1
    # two blocks in adjacent coarse cells
    Y = polymer(pav0, [(4, 4), (4, 7)])
    assert closure(Y).size == 2


def test_closure_monotone_and_idempotent_size():
    pav0 = paving(3, 3, 0)
    rng = random.Random(0)
    for _ in range(25):
        blocks = {(rng.randrange(27), rng.randrange(27)) for _ in range(rng.randint(1, 6))}
        extra = blocks | {(rng.randrange(27), rng.randrange(27))}
        X, Y = polymer(pav0, blocks), polymer(pav0, extra)
        assert closure(X).blocks <= closure(Y).blocks
    X = polymer(pav0, [(3, 3), (3, 4)])
    c1 = closure(X)
    assert closure(c1).size >= 1  # next-scale closure well-defined


def test_components_and_smallness():
    pav = paving(3, 2, 0)
    one = polymer(pav, [(4, 4)])
    assert len(components(one)) == 1
    assert is_small(one)
    two_far = polymer(pav, [(0, 0), (4, 4)])
    assert len(components(two_far)) == 2
    assert not is_small(two_far)
    line5 = polymer(pav, [(2, 4), (3, 4), (4, 4), (5, 4), (6, 4)])
    assert len(components(line5)) == 1
    assert not is_small(line5)
    diag = polymer(pav, [(0, 0), (1, 1)])  # corner contact does not connect
    assert len(components(diag)) == 2


def test_winding_polymer_not_small():
    pav = paving(3, 1, 0)  # 3x3 block torus
    row = polymer(pav, [(0, 0), (1, 0), (2, 0)])
    assert len(components(row)) == 1
    assert not is_small(row)


def test_neighborhood_strictly_contains():
    pav = paving(3, 2, 0)
    B = polymer(pav, [(4, 4)])
    star = neighborhood(B)
    assert B.blocks < star.blocks
    # exactly the blocks within graph distance 3: 1 + 4 + 8 + 12 = 25
    assert star.size == 25


def test_count_S_value_and_invariance():
    assert count_S(3) == 99
    counts = count_polyominoes(4)
    assert counts == {1: 1, 2: 2, 3: 6, 4: 19}
    assert sum(n * c for n, c in counts.items()) == 99
    # translation invariance on the enumeration torus
    assert len(_connected_sets_containing((2, 3), 9, 4)) == 99
    assert len(_connected_sets_containing((0, 0), 11, 4)) == 99  # scale/size independent


def _brute_force_k(A, lam, L, small_only):
    # independent enumeration over all subsets of the LxL fine grid of a
    # single coarse block (closure is the block itself whenever nonempty)
    cells = [(i, j) for i in range(L) for j in range(L)]
    tot = 0.0
    for r in range(1, len(cells) + 1):
        for sub in itertools.combinations(cells, r):
            s = set(sub)
            # connectivity
            stack = [sub[0]]
            seen = {sub[0]}
            while stack:
                c = stack.pop()
                for d in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    n = (c[0] + d[0], c[1] + d[1])
                    if n in s and n not in seen:
                        seen.add(n)
                        stack.append(n)
            if len(seen) != len(s):
                continue
            if (len(s) <= 4) != small_only:
                continue
            tot += (lam * A) ** (-len(s))
    return A * tot


def test_k_small_exact_enumeration():
    pav = paving(3, 2, 1)
    V = polymer(pav, [(1, 1)])
    assert k_small(10.0, 1.0, V) == pytest.approx(_brute_force_k(10.0, 1.0, 3, True), rel=1e-12)
    assert k_large(10.0, 1.0, V) == pytest.approx(_brute_force_k(10.0, 1.0, 3, False), rel=1e-12)


def test_k_small_over_L_squared_bounded():
    vals = {}
    for L in (3, 9):
        pav = paving(L, 2, 1)
        V = polymer(pav, [(1, 1)])
        vals[L] = k_small(10.0, 0.5, V) / L**2
    # k_s(A, lam) <= c_s(lam) L^2: the normalized values stay comparable
    assert vals[9] <= 3.0 * vals[3]
    assert vals[3] <= 3.0 * vals[9]


def test_k_large_decreasing_in_A():
    pav = paving(3, 2, 1)
    V = polymer(pav, [(1, 1)])
    ks = [k_large(A, 1.0, V) for A in (6.0, 10.0, 20.0, 40.0)]
    assert all(ks[i + 1] < ks[i] for i in range(len(ks) - 1))
    # below an A^-eta envelope for large A: fit the decay exponent
    eta = -np.polyfit(np.log([6.0, 10.0, 20.0, 40.0]), np.log(ks), 1)[0]
    assert eta > 1.0


def test_k_budget():
    pav = paving(5, 2, 1)
    V = polymer(pav, [(1, 1), (1, 2)])
    with pytest.raises(RuntimeError):
        k_large(10.0, 1.0, V, budget=1000)


def test_k_large_budget_is_the_number_of_connected_subsets():
    # the non-small walk visits every connected set of V's 3 x 3 fine blocks once
    V = polymer(paving(3, 2, 1), [(1, 1)])
    cells = [(a, b) for a in range(3) for b in range(3)]
    grid = [[cells.index(c) for c in ((a + d0, b + d1) for d0, d1 in _NBRS) if c in cells] for a, b in cells]
    n_sets = len(_connected_subsets(grid))
    assert k_large(10.0, 1.0, V, budget=n_sets) == k_large(10.0, 1.0, V)
    with pytest.raises(RuntimeError, match=f"after {n_sets} subsets"):
        k_large(10.0, 1.0, V, budget=n_sets - 1)


def test_closure_preimage_sizes_keep_their_order():
    # the sizes enter by (least fine block, size) of their first preimage:
    # the first fine block of V = {(0, 0), (1, 0)} lies three steps from V's
    # other block, so its first preimage has 4 blocks; fine blocks nearer to
    # that block come later and meet it at 3 and 2
    V = polymer(paving(3, 2, 1), [(0, 0), (1, 0)])
    assert list(_enumerate_closure_preimages(V, small_only=True).items()) == [(4, 51), (3, 14), (2, 3)]


@pytest.mark.parametrize("step", [(0, 1), (1, 0)])
def test_closure_preimages_agree_between_translates_across_the_seam(step):
    # on the 3 x 3 block torus of paving (3, 2, 1) every domino is a translate
    # of {(0, 0), (0, 0) + step}; those whose blocks sit in the centered
    # columns (or rows) 1 and -1 meet across the seam of the centered domain
    pav = paving(3, 2, 1)
    ref = polymer(pav, [(0, 0), step])
    counts = _enumerate_closure_preimages(ref, small_only=True)
    assert counts == {4: 51, 3: 14, 2: 3}
    for b0, b1 in itertools.product(range(3), repeat=2):
        V = polymer(pav, [(b0, b1), ((b0 + step[0]) % 3, (b1 + step[1]) % 3)])
        assert _enumerate_closure_preimages(V, small_only=True) == counts
        assert k_small(10.0, 0.5, V) == pytest.approx(k_small(10.0, 0.5, ref), rel=1e-15)
        assert k_large(10.0, 1.0, V) == pytest.approx(k_large(10.0, 1.0, ref), rel=1e-15)


def test_closure_preimages_of_a_top_scale_block_match_subset_enumeration():
    # at paving (3, 1, 1) the closure of every nonempty set is the one block,
    # and its preimages are the connected sets of the 3 x 3 fine torus; some
    # of three and four blocks wind around it and are not small
    V = polymer(paving(3, 1, 1), [(0, 0)])
    fine = paving(3, 1, 0)
    small, other = {}, {}
    for r in range(1, 10):
        for blocks in itertools.combinations(itertools.product(range(3), repeat=2), r):
            X = polymer(fine, blocks)
            if len(components(X)) == 1:
                side = small if is_small(X) else other
                side[r] = side.get(r, 0) + 1
    assert other[3] == 6
    assert _enumerate_closure_preimages(V, small_only=True) == small
    assert _enumerate_closure_preimages(V, small_only=False) == other


def test_reblock_inequality_single_block():
    pav = paving(3, 2, 0)
    X = polymer(pav, [(4, 4)])
    for eta in (0.05, 0.5, 1.0):
        assert reblock_inequality(X, eta)


def test_reblock_inequality_family():
    pav = paving(3, 2, 0)  # 9x9 block grid
    fam = connected_polymers_up_to(pav, 5)
    assert len(fam) > 7000
    assert all(reblock_inequality(X, 0.05) for X in fam)
    assert max_reblock_eta(fam) > 0.05


def test_connected_polymers_match_per_origin_enumeration():
    # and the layered enumeration, order included
    pav = paving(3, 2, 0)
    want = [Polymer(pav, s) for s in _connected_sets_per_origin(pav.n_axis, 5)]
    assert connected_polymers_up_to(pav, 5) == want
    assert want == [Polymer(pav, s) for s in sorted(_connected_sets(pav.n_axis, 5), key=sorted)]


@pytest.mark.parametrize("dims", [(3, 2, 0), (3, 2, 1), (3, 3, 1), (5, 2, 0)])
def test_small_family_matches_per_origin_enumeration(dims):
    # and the layered enumeration, order included
    pav = paving(*dims)
    for sets in (_connected_sets_per_origin(pav.n_axis, 4), sorted(_connected_sets(pav.n_axis, 4), key=sorted)):
        want = [s for s in sets if [wraps for _, wraps in _component_data(pav, s)] == [False]]
        assert _small_family(pav) == want


def test_count_polyominoes_is_A001168():
    assert count_polyominoes(8) == dict(enumerate(A001168, 1))
    assert count_polyominoes(1) == count_polyominoes(0) == {1: 1}


@pytest.mark.parametrize("n_axis, max_size", [(9, 4), (9, 5), (11, 6)])
def test_torus_sets_match_layered_enumeration(n_axis, max_size):
    # on an n x n torus with k < n there are n^2 A001168(k) connected sets
    # of k blocks: 2268, 7371 and 37147 sets here, each once
    got = _torus_sets(n_axis, max_size)
    assert len(got) == n_axis**2 * sum(A001168[:max_size])
    sizes = [0] * max_size
    for s in got:
        sizes[len(s) - 1] += 1
    assert sizes == [n_axis**2 * a for a in A001168[:max_size]]
    assert got == sorted(_connected_sets(n_axis, max_size), key=sorted)


@pytest.mark.parametrize("n_axis", [1, 2, 3])
def test_torus_sets_on_tori_smaller_than_the_sets(n_axis):
    # neighbours repeat on these tori (on the 1 x 1 torus a block is its own
    # neighbour), and the sets may wind
    assert _torus_sets(n_axis, 5) == sorted(_connected_sets(n_axis, 5), key=sorted)


@pytest.mark.parametrize("seed", range(6))
def test_rooted_sets_yield_each_connected_set_once(seed):
    rng = random.Random(seed)
    m = 9
    edges = [(a, b) for a in range(m) for b in range(a + 1, m) if rng.random() < 0.35]
    nbrs = [[b for a, b in edges if a == v] + [a for a, b in edges if b == v] for v in range(m)]
    want = _connected_subsets(nbrs)
    for max_size in (1, 3, m):
        got = [frozenset(s) for root in range(m) for s in _rooted_sets(nbrs, root, max_size)]
        assert len(got) == len(set(got))
        assert set(got) == {s for s in want if len(s) <= max_size}
        for root in range(m):
            assert all(min(s) == root for s in map(frozenset, _rooted_sets(nbrs, root, max_size)))


@pytest.mark.parametrize("bad", [0, -1, 2.5, True, False, "3", None])
def test_connected_polymers_rejects_bad_max_blocks(bad):
    with pytest.raises(ValueError, match="max_blocks"):
        connected_polymers_up_to(paving(3, 1, 0), bad)


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), -0.01, float("-inf")])
def test_reblock_inequality_rejects_bad_eta(bad):
    X = polymer(paving(3, 2, 0), [(0, 0)])
    with pytest.raises(ValueError, match="eta"):
        reblock_inequality(X, bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -10.0])
def test_k_small_and_k_large_reject_bad_A(bad):
    V = polymer(paving(3, 2, 1), [(1, 1)])
    for fn in (k_small, k_large):
        with pytest.raises(ValueError, match="A must"):
            fn(bad, 0.5, V)


def test_reblock_inequality_multicomponent():
    # exercise a binding-side case: many singleton components
    pav = paving(3, 3, 0)
    rng = random.Random(5)
    for _ in range(40):
        blocks = {(rng.randrange(27), rng.randrange(27)) for _ in range(8)}
        X = polymer(pav, blocks)
        assert reblock_inequality(X, 0.05)


def test_j_extraction_identities_random_rationals():
    pav_j = paving(3, 2, 0)
    sj = _small_family(pav_j)
    sj1 = _small_family(paving(3, 2, 1))
    rng = random.Random(42)
    for trial in range(5):
        qbar = {s: Fraction(rng.randint(-30, 30), rng.randint(1, 16)) for s in rng.sample(sj, 80)}
        q = {s: Fraction(rng.randint(-30, 30), rng.randint(1, 16)) for s in rng.sample(sj1, 50)}
        rep = j_extraction_check(pav_j, qbar, q)
        assert rep.all_hold, rep.counterexample


def test_j_extraction_zero_inputs():
    pav_j = paving(3, 2, 0)
    rep = j_extraction_check(pav_j, {}, {})
    assert rep.all_hold


def test_j_extraction_qbar_only():
    # with q = 0 the identities reduce to the qbar telescoping alone
    pav_j = paving(3, 2, 0)
    sj = _small_family(pav_j)
    rng = random.Random(9)
    qbar = {s: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for s in rng.sample(sj, 40)}
    rep = j_extraction_check(pav_j, qbar, {})
    assert rep.all_hold


def _j_extraction_check_reference(pav_j: BlockPaving, qbar: dict, q: dict) -> JExtractionReport:
    """The per-call extraction check: rebuilds the paving structure and sums
    Fractions term by term (the oracle for the compiled map).

    qbar maps small j-polymers (frozensets of block coords) to rationals,
    q maps small (j+1)-polymers likewise; missing keys count as zero.
    """
    pav_up = BlockPaving(L=pav_j.L, R=pav_j.R, j=pav_j.j + 1)
    small_j = _small_family(pav_j)
    small_j1 = _small_family(pav_up)
    zero = Fraction(0)

    def closure_set(s: frozenset) -> frozenset:
        return closure(Polymer(pav_j, s)).blocks

    clo = {s: closure_set(s) for s in small_j}

    def blocks_of(D) -> list:
        """Fine blocks inside the coarse block D."""
        n_up = pav_up.n_axis
        n = pav_j.n_axis
        L = pav_j.L
        D_c = tuple((c + (n_up - 1) // 2) % n_up - (n_up - 1) // 2 for c in D)
        out = []
        for d0 in range(-(L - 1) // 2, (L + 1) // 2):
            for d1 in range(-(L - 1) // 2, (L + 1) // 2):
                out.append(((D_c[0] * L + d0) % n, (D_c[1] * L + d1) % n))
        return out

    # lookups: for a fine block B, the small X containing B keyed by closure
    by_block: dict = {}
    for s in small_j:
        val = qbar.get(s, zero)
        if val == 0:
            continue
        share = Fraction(val, len(s))
        for B in s:
            by_block.setdefault(B, []).append((clo[s], share))

    def inner(D, Y) -> Fraction:
        """sum over B in D, X small, X contains B, closure X = Y of qbar/|X|."""
        tot = zero
        for B in blocks_of(D):
            for cl_s, share in by_block.get(B, []):
                if cl_s == Y:
                    tot += share
        return tot

    def inner_all(D) -> Fraction:
        tot = zero
        for B in blocks_of(D):
            for _, share in by_block.get(B, []):
                tot += share
        return tot

    def q_of(Y) -> Fraction:
        return q.get(Y, zero)

    coarse_blocks = [(b0, b1) for b0 in range(pav_up.n_axis) for b1 in range(pav_up.n_axis)]
    smalls_containing: dict = {}
    for Y in small_j1:
        for D in Y:
            smalls_containing.setdefault(D, []).append(Y)

    def J(D, Y) -> Fraction:
        if D not in Y:
            return zero
        val = Fraction(q_of(Y), len(Y)) + inner(D, Y)
        if frozenset([D]) == Y:
            sub = zero
            for Yp in smalls_containing.get(D, []):
                sub += Fraction(q_of(Yp), len(Yp))
            sub += inner_all(D)
            val -= sub
        return val

    # (i) sum over connected Y of J(D, Y) = 0 for every D
    ok_zero = True
    bad = None
    for D in coarse_blocks:
        tot = zero
        for Y in smalls_containing.get(D, []):
            tot += J(D, Y)
        if tot != 0:
            ok_zero = False
            bad = ("sum_over_Y", D)
            break

    # (ii) sum over D in Y' of J(D, Y') equals the four-term combination
    ok_id1 = True
    for Yp in small_j1:
        lhs = zero
        for D in Yp:
            lhs += J(D, Yp)
        rhs = q_of(Yp)
        for s in small_j:
            if clo[s] == Yp:
                rhs += qbar.get(s, zero)
        if len(Yp) == 1:
            D = next(iter(Yp))
            for Ysub in smalls_containing.get(D, []):
                rhs -= Fraction(q_of(Ysub), len(Ysub))
            rhs -= inner_all(D)
        if lhs != rhs:
            ok_id1 = False
            bad = bad or ("id1", Yp)
            break

    # (iii) sum over small Y and blocks D in Y with D* = Y' of J(D, Y) = 0
    ok_id2 = True
    nbhd = {D: neighborhood(Polymer(pav_up, frozenset([D]))).blocks for D in coarse_blocks}
    targets = {}
    for D in coarse_blocks:
        targets.setdefault(nbhd[D], []).append(D)
    for Yp_star, Ds in targets.items():
        tot = zero
        for D in Ds:
            for Y in smalls_containing.get(D, []):
                tot += J(D, Y)
        if tot != 0:
            ok_id2 = False
            bad = bad or ("id2", Yp_star)
            break

    return JExtractionReport(
        n_small_j=len(small_j),
        n_small_j1=len(small_j1),
        sum_over_Y_zero=ok_zero,
        id1_holds=ok_id1,
        id2_holds=ok_id2,
        counterexample=bad,
    )


def _random_stand_ins(rng, sj, sj1, n_bar, n_q, big=False):
    def val():
        if big:  # denominators far past int64
            return Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**30))
        if rng.random() < 0.2:
            return rng.randint(-9, 9)
        return Fraction(rng.randint(-50, 50), rng.randint(1, 16))

    return ({s: val() for s in rng.sample(sj, n_bar)}, {s: val() for s in rng.sample(sj1, n_q)})


def test_j_extraction_map_matches_reference():
    pav_j = paving(3, 2, 0)
    sj = _small_family(pav_j)
    sj1 = _small_family(paving(3, 2, 1))
    rng = random.Random(77)
    cases = [({}, {}), _random_stand_ins(rng, sj, sj1, 40, 0), _random_stand_ins(rng, sj, sj1, 0, 30)]
    for trial in range(22):
        cases.append(_random_stand_ins(rng, sj, sj1, rng.randint(1, 300), rng.randint(0, len(sj1)), big=trial % 4 == 3))
    for qbar, q in cases:
        got = j_extraction_check(pav_j, qbar, q)
        want = _j_extraction_check_reference(pav_j, qbar, q)
        assert got == want
        assert got.all_hold and got.counterexample is None
    assert (got.n_small_j, got.n_small_j1) == (2268, 108)


@pytest.mark.parametrize("dims", [(3, 2, 0), (3, 3, 1), (5, 2, 0)])
def test_j_extraction_defect_zero(dims):
    assert j_extraction_defect(paving(*dims)) == 0


@pytest.mark.parametrize("dims", [(3, 1, 0), (3, 3, 2)])
def test_j_extraction_vacuous_at_top_scale_rejected(dims):
    # at j = R - 1 the one coarse block winds, so no row has a term and the
    # check would hold for any input
    assert _small_family(paving(dims[0], dims[1], dims[2] + 1)) == []
    msg = re.escape(f"paving (L, R, j) = {dims}")
    with pytest.raises(ValueError, match=msg):
        j_extraction_defect(paving(*dims))
    X = _small_family(paving(*dims))[0]
    with pytest.raises(ValueError, match=msg):
        j_extraction_check(paving(*dims), {X: Fraction(1, 3)}, {})


@pytest.mark.parametrize("family", ["sum_over_Y", "id1", "id2"])
def test_j_extraction_corrupt_coefficient_names_its_row(family):
    pav_j = paving(3, 2, 0)
    emap = _extraction_map(pav_j)
    r = max(i for i, key in enumerate(emap.rows) if key[0] == family)
    t = (emap.row_ptr[r] + emap.row_ptr[r + 1]) // 2
    coef = array("b", emap.coef)
    coef[t] += 1
    broken = dataclasses.replace(emap, coef=coef)
    assert emap.defect() == 0 and broken.defect() == 1
    v = emap.var[t]
    key = next(k for k, i in {**emap.u_index, **emap.v_index}.items() if i == v)
    inputs = ({key: Fraction(3, 7)}, {}) if v < len(emap.u_index) else ({}, {key: Fraction(3, 7)})
    rep = broken.report(*inputs)
    assert not rep.all_hold
    assert rep.counterexample == emap.rows[r]
    flags = {"sum_over_Y": rep.sum_over_Y_zero, "id1": rep.id1_holds, "id2": rep.id2_holds}
    assert [name for name, ok in flags.items() if not ok] == [family]
    assert emap.report(*inputs).all_hold


def test_j_extraction_rejects_foreign_keys():
    pav_j = paving(3, 2, 0)
    far = frozenset({(0, 0), (4, 4)})  # two components: not small
    with pytest.raises(ValueError, match=re.escape(repr(far))):
        j_extraction_check(pav_j, {far: Fraction(1)}, {})
    five = frozenset((b, 4) for b in range(5))  # five blocks: not small
    with pytest.raises(ValueError, match="qbar key"):
        j_extraction_check(pav_j, {five: 1}, {})
    outside = frozenset({(3, 0)})  # a block of the 9x9 fine paving, not of the 3x3 coarse one
    with pytest.raises(ValueError, match=re.escape("q key " + repr(outside))):
        j_extraction_check(pav_j, {}, {outside: Fraction(1, 2)})
    row = frozenset({(0, 0), (1, 0), (2, 0)})  # winds around the 3x3 coarse torus
    with pytest.raises(ValueError, match="q key"):
        j_extraction_check(pav_j, {}, {row: 1})


def test_j_extraction_rejects_non_rational_values():
    pav_j = paving(3, 2, 0)
    X = _small_family(pav_j)[5]
    Y = _small_family(paving(3, 2, 1))[3]
    with pytest.raises(TypeError, match=re.escape(repr(X))):
        j_extraction_check(pav_j, {X: 0.0}, {})
    with pytest.raises(TypeError, match=re.escape(repr(Y))):
        j_extraction_check(pav_j, {}, {Y: 0.5})
    with pytest.raises(TypeError, match="qbar"):
        j_extraction_check(pav_j, {X: "1/2"}, {})


def test_size_additive_and_closure_minimal():
    pav = paving(3, 2, 0)
    A = polymer(pav, [(0, 0), (0, 1)])
    B = polymer(pav, [(5, 5), (7, 7)])
    union = polymer(pav, set(A.blocks) | set(B.blocks))
    assert union.size == A.size + B.size
    # the closure is exactly the set of parents of the member blocks: no
    # repaving of the closure can shrink it
    up = closure(union)
    parents = {closure(polymer(pav, [b])).blocks for b in union.blocks}
    assert up.blocks == frozenset().union(*parents)


# ---------------------------------------------------------------------------
# table-driven component and parent maps against their per-probe originals


def _component_data_reference(pav, blocks):
    """Components and winding by BFS unfolding, neighbours and lifts computed per probe."""
    n = pav.n_axis
    remaining = set(blocks)
    comps = []
    while remaining:
        seed = remaining.pop()
        lift = {seed: (0, 0)}
        queue = [seed]
        wraps = False
        while queue:
            cur = queue.pop()
            cx = lift[cur]
            for d in _NBRS:
                nxt = ((cur[0] + d[0]) % n, (cur[1] + d[1]) % n)
                if nxt not in blocks:
                    continue
                cand = (cx[0] + d[0], cx[1] + d[1])
                if nxt in lift:
                    if lift[nxt] != cand:
                        wraps = True
                    continue
                if nxt in remaining:
                    remaining.discard(nxt)
                lift[nxt] = cand
                queue.append(nxt)
        comps.append((frozenset(lift), wraps))
    return comps


def _parent_blocks_reference(pav, blocks):
    n, L = pav.n_axis, pav.L
    up = n // L
    return frozenset(tuple(((c + (n - 1) // 2) % n - (n - 1) // 2 + (L - 1) // 2) // L % up for c in b)
                     for b in blocks)


def _reblock_reference(X, eta):
    ncomp = len(_component_data_reference(X.paving, X.blocks))
    ncl = len(_parent_blocks_reference(X.paving, X.blocks))
    return (1.0 + 2.0 * eta) * ncl <= X.size + 8.0 * (1.0 + 2.0 * eta) * ncomp


def _max_reblock_eta_reference(polymers):
    best = float("inf")
    for X in polymers:
        nc = len(_component_data_reference(X.paving, X.blocks))
        cl = len(_parent_blocks_reference(X.paving, X.blocks))
        slack = cl - 8 * nc
        if slack > 0:
            best = min(best, (X.size + 8 * nc - cl) / (2.0 * slack))
    return best


def _oracle_family():
    """The connected <= 5-block polymers of paving(3, 2, 0), 200 random
    6-block sets, a staircase winding along (1, -1), a winding row and a row
    with a gap."""
    pav = paving(3, 2, 0)
    rng = random.Random(17)
    sets = [polymer(pav, rng.sample([(a, b) for a in range(9) for b in range(9)], 6)) for _ in range(200)]
    stairs = polymer(pav, [(k % 9, -k % 9) for k in range(9)] + [((k + 1) % 9, -k % 9) for k in range(9)])
    rows = [polymer(pav, [(4, b) for b in range(9)]), polymer(pav, [(4, b) for b in range(8)])]
    return connected_polymers_up_to(pav, 5) + sets + [stairs] + rows


def test_components_and_reblocking_match_per_probe_reference():
    fam = _oracle_family()
    assert len(fam) == 7371 + 203
    for X in fam:
        want = _component_data_reference(X.paving, X.blocks)
        got = _component_data(X.paving, X.blocks)
        assert got == want
        # each component iterates its blocks in the same order
        assert [tuple(c) for c, _ in got] == [tuple(c) for c, _ in want]
        assert components(X) == [Polymer(X.paving, c) for c, _ in want]
        assert is_small(X) == (len(want) == 1 and len(want[0][0]) <= 4 and not want[0][1])
        assert closure(X).blocks == _parent_blocks_reference(X.paving, X.blocks)
        for eta in (0.0, 0.05, 1.0):
            assert reblock_inequality(X, eta) == _reblock_reference(X, eta)
    assert max_reblock_eta(fam) == _max_reblock_eta_reference(fam)
    assert [wraps for _, wraps in _component_data(fam[-3].paving, fam[-3].blocks)] == [True]
    assert [wraps for _, wraps in _component_data(fam[-2].paving, fam[-2].blocks)] == [True]
    assert [wraps for _, wraps in _component_data(fam[-1].paving, fam[-1].blocks)] == [False]
