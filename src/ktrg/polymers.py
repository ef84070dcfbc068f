"""Block pavings, polymers and their combinatorics on finite tori.

Blocks at scale j are squares of side L^j centered so that one block sits
at the origin of the centered fundamental domain; block coordinates live
on a torus of side L^(R-j).  Connectivity is nearest-neighbor adjacency of
blocks (diagonal contact does not connect).  A connected polymer is small
when it has at most four blocks and does not wind around the torus;
winding polymers count as non-small at every scale.

The extraction bookkeeping J_j(D, Y) built from scalar stand-ins for the
extracted activities satisfies three linear identities exactly.  They are
expanded once per paving into a sparse integer map, which is evaluated
exactly on rational inputs and whose collected coefficients prove the
identities for all inputs.
"""

from __future__ import annotations

import functools
import math
import numbers
from array import array
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

__all__ = [
    "BlockPaving",
    "Polymer",
    "paving",
    "closure",
    "components",
    "is_small",
    "neighborhood",
    "count_S",
    "count_polyominoes",
    "k_small",
    "k_large",
    "reblock_inequality",
    "max_reblock_eta",
    "connected_polymers_up_to",
    "JExtractionReport",
    "j_extraction_check",
    "j_extraction_defect",
]

_NBRS = ((1, 0), (-1, 0), (0, 1), (0, -1))


@dataclass(frozen=True)
class BlockPaving:
    """Scale-j paving of the side L^R torus into L^(2(R-j)) blocks."""

    L: int
    R: int
    j: int

    def __post_init__(self):
        if not (0 <= self.j <= self.R):
            raise ValueError(f"scale {self.j} outside 0..{self.R}")

    @property
    def side(self) -> int:
        return self.L**self.R

    @property
    def block_side(self) -> int:
        return self.L**self.j

    @property
    def n_axis(self) -> int:
        """Blocks per axis."""
        return self.L ** (self.R - self.j)

    @property
    def n_blocks(self) -> int:
        return self.n_axis**2

    def block_of(self, x) -> tuple[int, int]:
        """Block coordinate of a site; the central block holds |x| <= L^j/2."""
        s, b = self.side, self.block_side
        out = []
        for c in x:
            cc = (c + (s - 1) // 2) % s - (s - 1) // 2  # centered representative
            out.append(((cc + (b - 1) // 2) // b) % self.n_axis)
        return tuple(out)

    def sites_of(self, blk) -> list[tuple[int, int]]:
        """All sites of a block, as centered-torus coordinates."""
        b = self.block_side
        cs = []
        for a in blk:
            a_c = (a + (self.n_axis - 1) // 2) % self.n_axis - (self.n_axis - 1) // 2
            lo = a_c * b - (b - 1) // 2
            cs.append(range(lo, lo + b))
        return [(c0, c1) for c0 in cs[0] for c1 in cs[1]]


@dataclass(frozen=True)
class Polymer:
    """Set of block indices at one scale of a paving."""

    paving: BlockPaving
    blocks: frozenset

    def __post_init__(self):
        n = self.paving.n_axis
        for b in self.blocks:
            if not (0 <= b[0] < n and 0 <= b[1] < n):
                raise ValueError(f"block {b} outside the {n}x{n} block torus")

    @property
    def size(self) -> int:
        """|X|_j: number of blocks."""
        return len(self.blocks)

    def __bool__(self) -> bool:
        return bool(self.blocks)


def paving(L: int, R: int, j: int) -> BlockPaving:
    return BlockPaving(L=L, R=R, j=j)


def polymer(pav: BlockPaving, blocks) -> Polymer:
    return Polymer(paving=pav, blocks=frozenset(tuple(b) for b in blocks))


def _component_data(pav: BlockPaving, blocks: frozenset):
    """Connected components with winding detection via BFS unfolding."""
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


def components(X: Polymer) -> list[Polymer]:
    """Maximal connected parts of X."""
    return [Polymer(X.paving, blk) for blk, _ in _component_data(X.paving, X.blocks)]


def is_small(X: Polymer) -> bool:
    """Connected, at most 4 blocks, not winding around the torus."""
    comps = _component_data(X.paving, X.blocks)
    if len(comps) != 1:
        return False
    blks, wraps = comps[0]
    return len(blks) <= 4 and not wraps


def closure(X: Polymer) -> Polymer:
    """Smallest (j+1)-polymer containing X."""
    pav = X.paving
    if pav.j >= pav.R:
        raise ValueError("no coarser paving available")
    up = BlockPaving(L=pav.L, R=pav.R, j=pav.j + 1)
    n, L = pav.n_axis, pav.L
    parents = set()
    for b in X.blocks:
        parents.add(tuple(((c + (n - 1) // 2) % n - (n - 1) // 2 + (L - 1) // 2) // L % up.n_axis for c in b))
    return Polymer(up, frozenset(parents))


def neighborhood(X: Polymer) -> Polymer:
    """Small-set neighborhood X*: union of all small polymers meeting X.

    A block belongs to X* iff its graph distance to X is at most 3 (a
    connected 4-block path realizes exactly those).
    """
    n = X.paving.n_axis
    cur = set(X.blocks)
    for _ in range(3):
        new = set(cur)
        for b in cur:
            for d in _NBRS:
                new.add(((b[0] + d[0]) % n, (b[1] + d[1]) % n))
        cur = new
    return Polymer(X.paving, frozenset(cur))


# ---------------------------------------------------------------------------
# enumeration


def _connected_sets_containing(origin, n_axis: int, max_size: int):
    """All connected block sets through `origin` with at most max_size blocks."""
    seen = set()
    out = []

    def grow(cur: frozenset, frontier):
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
            grow(cur | {nb}, None)

    grow(frozenset([tuple(origin)]), None)
    return out


def count_S(L: int, side_blocks: int = 9) -> int:
    """Number of small polymers containing a fixed block (j-independent).

    Enumerated on a side_blocks^2 block torus; wrap-inflated counts (torus
    too small for the 4-block range) are rejected.
    """
    if side_blocks < 9:
        raise ValueError("torus too small: counts would be wrap-inflated")
    sets = _connected_sets_containing((side_blocks // 2, side_blocks // 2), side_blocks, 4)
    return len(sets)


def count_polyominoes(max_size: int) -> dict[int, int]:
    """Fixed polyominoes by size, counted by canonical-translate enumeration."""
    counts = {}
    shapes = {frozenset([(0, 0)])}
    counts[1] = 1
    for size in range(2, max_size + 1):
        new = set()
        for sh in shapes:
            for b in sh:
                for d in _NBRS:
                    nb = (b[0] + d[0], b[1] + d[1])
                    if nb in sh:
                        continue
                    grown = sh | {nb}
                    m0 = min(c[0] for c in grown)
                    m1 = min(c[1] for c in grown)
                    new.add(frozenset((c[0] - m0, c[1] - m1) for c in grown))
        shapes = new
        counts[size] = len(shapes)
    return counts


def connected_polymers_up_to(pav: BlockPaving, max_blocks: int) -> list[Polymer]:
    """All connected polymers with at most max_blocks blocks on the paving."""
    n = pav.n_axis
    all_sets = set()
    for b0 in range(n):
        for b1 in range(n):
            for s in _connected_sets_containing((b0, b1), n, max_blocks):
                all_sets.add(s)
    return [Polymer(pav, s) for s in sorted(all_sets, key=lambda s: sorted(s))]


# ---------------------------------------------------------------------------
# reblocking sums and inequality


def _enumerate_closure_preimages(V: Polymer, small_only: bool, budget: int = 1 << 22):
    """Connected j-polymers Y with closure exactly V (V at scale j+1).

    Yields (size, count) aggregated by |Y|_j.  Non-small enumeration walks
    all connected subsets of the fine blocks of V, so it is budgeted.
    """
    pav_up = V.paving
    if pav_up.j < 1:
        raise ValueError("V must live at scale >= 1")
    pav = BlockPaving(L=pav_up.L, R=pav_up.R, j=pav_up.j - 1)
    L = pav_up.L
    n_up = pav_up.n_axis
    # fine blocks inside V, in centered coordinates of the fine block torus
    fine = []
    for B in sorted(V.blocks):
        B_c0 = (B[0] + (n_up - 1) // 2) % n_up - (n_up - 1) // 2
        B_c1 = (B[1] + (n_up - 1) // 2) % n_up - (n_up - 1) // 2
        for d0 in range(-(L - 1) // 2, (L + 1) // 2):
            for d1 in range(-(L - 1) // 2, (L + 1) // 2):
                fine.append((B_c0 * L + d0, B_c1 * L + d1))
    fine_set = set(fine)
    idx = {b: i for i, b in enumerate(fine)}
    nb_lists = []
    for b in fine:
        nb_lists.append([idx[(b[0] + d[0], b[1] + d[1])] for d in _NBRS if (b[0] + d[0], b[1] + d[1]) in fine_set])

    target = frozenset(
        (
            (B[0] + (n_up - 1) // 2) % n_up - (n_up - 1) // 2,
            (B[1] + (n_up - 1) // 2) % n_up - (n_up - 1) // 2,
        )
        for B in V.blocks
    )

    def closure_ok(sel) -> bool:
        got = set()
        for i in sel:
            got.add(((fine[i][0] + (L - 1) // 2) // L, ((fine[i][1] + (L - 1) // 2) // L)))
        return frozenset(got) == target

    # connected-subgraph enumeration: grow sets from their minimal element,
    # adding only larger-indexed neighbors (each connected set found once)
    m = len(fine)
    counts: dict[int, int] = {}
    seen = 0
    max_size = 4 if small_only else m
    for start in range(m):
        layer = {frozenset([start])}
        size = 1
        while layer:
            for s in layer:
                seen += 1
                if seen > budget:
                    raise RuntimeError(f"enumeration budget exceeded after {seen} subsets")
                small = len(s) <= 4
                if small == small_only and closure_ok(s):
                    counts[len(s)] = counts.get(len(s), 0) + 1
            if size == max_size:
                break
            nxt = set()
            for s in layer:
                for i in s:
                    for nb in nb_lists[i]:
                        if nb > start and nb not in s:
                            nxt.add(s | {nb})
            layer = nxt
            size += 1
    return counts


def k_small(A: float, lam: float, V: Polymer) -> float:
    """k_s contribution of V: A^{|V|} sum over small Y with closure V of (lam A)^{-|Y|}."""
    if not (0.0 < lam < 1.0 or lam == 1.0):
        raise ValueError("lambda must be in (0, 1]")
    counts = _enumerate_closure_preimages(V, small_only=True)
    return A ** V.size * sum(c * (lam * A) ** (-size) for size, c in counts.items())


def k_large(A: float, lam: float, V: Polymer, budget: int = 1 << 22) -> float:
    """Non-small counterpart of k_small; exhaustive, budgeted enumeration."""
    if not (0.0 < lam <= 1.0):
        raise ValueError("lambda must be in (0, 1]")
    counts = _enumerate_closure_preimages(V, small_only=False, budget=budget)
    return A ** V.size * sum(c * (lam * A) ** (-size) for size, c in counts.items() if size > 4)


def reblock_inequality(X: Polymer, eta: float) -> bool:
    """(1 + 2 eta) |closure(X)| <= |X| + 8 (1 + 2 eta) |components(X)|."""
    ncomp = len(_component_data(X.paving, X.blocks))
    return (1.0 + 2.0 * eta) * closure(X).size <= X.size + 8.0 * (1.0 + 2.0 * eta) * ncomp


def max_reblock_eta(polymers) -> float:
    """Largest eta valid on the family (inf when nothing binds)."""
    best = float("inf")
    for X in polymers:
        nc = len(_component_data(X.paving, X.blocks))
        cl = closure(X).size
        slack = cl - 8 * nc
        if slack > 0:
            best = min(best, (X.size + 8 * nc - cl) / (2.0 * slack))
    return best


# ---------------------------------------------------------------------------
# extraction bookkeeping identities (exact rational arithmetic)


@dataclass
class JExtractionReport:
    n_small_j: int
    n_small_j1: int
    sum_over_Y_zero: bool
    id1_holds: bool
    id2_holds: bool
    counterexample: tuple | None = None

    @property
    def all_hold(self) -> bool:
        return self.sum_over_Y_zero and self.id1_holds and self.id2_holds


def _small_family(pav: BlockPaving) -> list[frozenset]:
    n = pav.n_axis
    fam = set()
    for b0 in range(n):
        for b1 in range(n):
            for s in _connected_sets_containing((b0, b1), n, 4):
                fam.add(s)
    # drop winding sets (non-small by convention)
    out = []
    for s in fam:
        comps = _component_data(pav, frozenset(s))
        if len(comps) == 1 and not comps[0][1]:
            out.append(frozenset(s))
    return sorted(out, key=lambda s: sorted(s))


@dataclass(frozen=True, eq=False)
class _ExtractionMap:
    """The three extraction identities of one paving as a sparse integer map.

    The variables are u_X = qbar(X)/|X| for the small j-polymers X (indices
    0..n_u-1, in `_small_family` order) and v_Y = q(Y)/|Y| for the small
    (j+1)-polymers Y (the indices after).  Row r is its identity's left side
    minus its right side, kept term by term: the sum of coef[t] * x[var[t]]
    over t in row_ptr[r]:row_ptr[r+1].  The identities hold when every row
    vanishes.
    """

    u_index: dict  # small j-polymer -> variable
    v_index: dict  # small (j+1)-polymer -> variable
    rows: tuple  # ("sum_over_Y", D) per coarse block, ("id1", Y'), ("id2", Y'*)
    row_ptr: array  # int64, len(rows) + 1
    var: array  # int32 variable index per term
    coef: array  # int8 coefficient per term

    def _variables(self, values: dict, index: dict, name: str) -> dict:
        out = {}
        for key, val in values.items():
            i = index.get(key)
            if i is None:
                raise ValueError(f"{name} key {key!r} is not a small polymer of its paving")
            if not isinstance(val, numbers.Rational):
                raise TypeError(f"{name}[{key!r}] = {val!r} is not rational")
            out[i] = Fraction(val) / len(key)
        return out

    def report(self, qbar: dict, q: dict) -> JExtractionReport:
        """Sum the rows exactly on x = (M u, M v), M the common denominator of
        the inputs; each identity stops at its first failing row."""
        vals = self._variables(qbar, self.u_index, "qbar")
        vals.update(self._variables(q, self.v_index, "q"))
        den = math.lcm(*(f.denominator for f in vals.values()))
        x = [0] * (len(self.u_index) + len(self.v_index))
        for i, f in vals.items():
            x[i] = f.numerator * (den // f.denominator)
        get, ptr, var, coef = x.__getitem__, self.row_ptr, self.var, self.coef
        failed = {}  # identity -> its first failing row, in row order
        for r, key in enumerate(self.rows):
            if key[0] in failed:
                continue
            lo, hi = ptr[r], ptr[r + 1]
            if sum(map(mul, coef[lo:hi], map(get, var[lo:hi]))):
                failed[key[0]] = key
        return JExtractionReport(
            n_small_j=len(self.u_index),
            n_small_j1=len(self.v_index),
            sum_over_Y_zero="sum_over_Y" not in failed,
            id1_holds="id1" not in failed,
            id2_holds="id2" not in failed,
            counterexample=next(iter(failed.values()), None),
        )

    def defect(self) -> int:
        """Nonzero coefficients left once each row's terms are collected per variable."""
        n = 0
        for r in range(len(self.rows)):
            acc: dict = {}
            lo, hi = self.row_ptr[r], self.row_ptr[r + 1]
            for v, c in zip(self.var[lo:hi], self.coef[lo:hi]):
                acc[v] = acc.get(v, 0) + c
            n += sum(1 for c in acc.values() if c)
        return n


@functools.lru_cache(maxsize=8)
def _extraction_map(pav_j: BlockPaving) -> _ExtractionMap:
    """Expand J_j(D, Y) into the identity rows, once per paving.

    J(D, Y) for a small Y containing D is v_Y plus u_X for each fine block B
    of D and small X containing B with closure Y; when Y = {D} it also
    subtracts v_Y' for every small Y' containing D and u_X for every B in D
    and small X containing B.
    """
    pav_up = BlockPaving(L=pav_j.L, R=pav_j.R, j=pav_j.j + 1)
    small_j = _small_family(pav_j)
    u_index = {X: i for i, X in enumerate(small_j)}
    v_index = {Y: len(small_j) + k for k, Y in enumerate(_small_family(pav_up))}
    if not v_index:
        # at j = R - 1 the one coarse block winds: every row would be empty
        # and the identities would hold for any input
        raise ValueError(f"paving (L, R, j) = ({pav_j.L}, {pav_j.R}, {pav_j.j}): the (j+1)-paving "
                         f"has no small polymer, so the extraction identities are vacuous")
    n, n_up, L = pav_j.n_axis, pav_up.n_axis, pav_j.L
    coarse = [(b0, b1) for b0 in range(n_up) for b1 in range(n_up)]

    # for each coarse block D: the small X meeting it, once per fine block
    # of D they contain, and the same grouped by the variable of their
    # closure (-1 when the closure is not small)
    by_block: dict = {}
    members: dict = {}  # closure variable -> the X with that closure
    for X, i in u_index.items():
        c = v_index.get(closure(Polymer(pav_j, X)).blocks, -1)
        members.setdefault(c, []).append(i)
        for B in X:
            by_block.setdefault(B, []).append((i, c))
    shares, by_closure = {}, {}
    for D in coarse:
        D_c = [(a + (n_up - 1) // 2) % n_up - (n_up - 1) // 2 for a in D]
        shares[D], by_closure[D] = [], {}
        for d0 in range(-(L - 1) // 2, (L + 1) // 2):
            for d1 in range(-(L - 1) // 2, (L + 1) // 2):
                for i, c in by_block.get(((D_c[0] * L + d0) % n, (D_c[1] * L + d1) % n), ()):
                    shares[D].append(i)
                    by_closure[D].setdefault(c, []).append(i)
    del by_block
    containing: dict = {D: [] for D in coarse}
    for Y, k in v_index.items():
        for D in Y:
            containing[D].append(k)

    rows, row_ptr, var, coef = [], array("q", [0]), array("i"), array("b")

    def emit(v, c: int):
        var.append(v)
        coef.append(c)

    def emit_J(D, k: int):
        emit(k, 1)
        for i in by_closure[D].get(k, ()):
            emit(i, 1)
        if k == v_index[frozenset([D])]:
            for kk in containing[D]:
                emit(kk, -1)
            for i in shares[D]:
                emit(i, -1)

    def close_row(key):
        rows.append(key)
        row_ptr.append(len(var))

    for D in coarse:  # (i) sum over small Y of J(D, Y) = 0
        for k in containing[D]:
            emit_J(D, k)
        close_row(("sum_over_Y", D))
    for Yp, k in v_index.items():  # (ii) sum over D in Y' of J(D, Y') = four-term combination
        for D in Yp:
            emit_J(D, k)
        emit(k, -len(Yp))
        for i in members.get(k, ()):
            emit(i, -len(small_j[i]))
        if len(Yp) == 1:
            (D,) = Yp
            for kk in containing[D]:
                emit(kk, 1)
            for i in shares[D]:
                emit(i, 1)
        close_row(("id1", Yp))
    targets: dict = {}  # (iii) sum over D with D* = Y' and small Y of J(D, Y) = 0
    for D in coarse:
        targets.setdefault(neighborhood(Polymer(pav_up, frozenset([D]))).blocks, []).append(D)
    for star, Ds in targets.items():
        for D in Ds:
            for k in containing[D]:
                emit_J(D, k)
        close_row(("id2", star))
    return _ExtractionMap(u_index, v_index, tuple(rows), row_ptr, var, coef)


def j_extraction_check(pav_j: BlockPaving, qbar: dict, q: dict) -> JExtractionReport:
    """Verify the three extraction identities with rational stand-ins.

    qbar maps small j-polymers (frozensets of block coords) to rationals,
    q maps small (j+1)-polymers likewise; missing keys count as zero.  A key
    that is not a small polymer of its paving raises ValueError, a value
    that is not `numbers.Rational` TypeError.  At j = R - 1 the identities
    have no term (the one coarse block winds), and the paving raises
    ValueError.  The rows are evaluated exactly, on the inputs scaled to
    one common denominator.
    """
    return _extraction_map(pav_j).report(qbar, q)


def j_extraction_defect(pav_j: BlockPaving) -> int:
    """Nonzero coefficients of the identity rows collected per variable.

    0 proves the three identities for every input on this paving; at
    j = R - 1, where they have no term, the paving raises ValueError.
    """
    return _extraction_map(pav_j).defect()
