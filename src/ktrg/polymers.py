"""Block pavings, polymers and their combinatorics on finite tori.

Blocks at scale j are squares of side L^j centered so that one block sits
at the origin of the centered fundamental domain; block coordinates live
on a torus of side L^(R-j).  Connectivity is nearest-neighbor adjacency of
blocks (diagonal contact does not connect).  A connected polymer is small
when it has at most four blocks and does not wind around the torus;
winding polymers count as non-small at every scale.  Each paving keeps a
table of every block's neighbours and of its parent block, so component
searches and closures look blocks up instead of reducing coordinates.

Every family of connected sets comes from one rooted enumerator
(Redelmeier's growth over a neighbour table), which yields each connected
set once, from its least vertex: the connected polymers up to a size, the
small family, `count_S`, the closure preimages summed by `k_small` and
`k_large`, and the fixed polyominoes of `count_polyominoes`.

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


def _neighbours(n_axis: int) -> dict:
    """Each block of the n_axis^2 block torus -> its four neighbours, in _NBRS order."""
    return {(b0, b1): tuple(((b0 + d0) % n_axis, (b1 + d1) % n_axis) for d0, d1 in _NBRS)
            for b0 in range(n_axis) for b1 in range(n_axis)}


def _centered(a: int, n: int) -> int:
    """The representative of a mod n in -(n - 1) // 2 .. n // 2."""
    return (a + (n - 1) // 2) % n - (n - 1) // 2


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
            out.append(((_centered(c, s) + (b - 1) // 2) // b) % self.n_axis)
        return tuple(out)

    def sites_of(self, blk) -> list[tuple[int, int]]:
        """All sites of a block, as centered-torus coordinates."""
        b = self.block_side
        cs = []
        for a in blk:
            lo = _centered(a, self.n_axis) * b - (b - 1) // 2
            cs.append(range(lo, lo + b))
        return [(c0, c1) for c0 in cs[0] for c1 in cs[1]]

    # Per-paving tables, built on first use and kept with the paving.

    @functools.cached_property
    def _lift_steps(self) -> dict:
        """Each block -> ((neighbour, step), ...) in _NBRS order.

        The step is the neighbour's offset on the universal cover, coded as
        the integer d0 * K + d1 with K = 2 n_axis^2 + 1: a lift (x0, x1)
        reached inside one component has |x1| < n_axis^2, so x0 * K + x1
        determines it.
        """
        K = 2 * self.n_axis**2 + 1
        steps = tuple(d0 * K + d1 for d0, d1 in _NBRS)
        return {b: tuple(zip(nbrs, steps)) for b, nbrs in _neighbours(self.n_axis).items()}

    @functools.cached_property
    def _parents(self) -> dict:
        """Each block -> the (j+1)-block that contains it (j < R)."""
        n, L = self.n_axis, self.L
        up = n // L
        axis = [(_centered(c, n) + (L - 1) // 2) // L % up for c in range(n)]
        return {(b0, b1): (axis[b0], axis[b1]) for b0 in range(n) for b1 in range(n)}


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
    """Connected components with winding detection via BFS unfolding.

    Each component is unfolded onto the universal cover from one seed; it
    winds when a block is reached at two different lifts.
    """
    steps = pav._lift_steps
    remaining = set(blocks)
    comps = []
    while remaining:
        seed = remaining.pop()
        lift = {seed: 0}
        queue = [seed]
        wraps = False
        while queue:
            cur = queue.pop()
            cx = lift[cur]
            for nxt, step in steps[cur]:
                if nxt not in blocks:
                    continue
                seen = lift.get(nxt)
                if seen is None:
                    remaining.discard(nxt)
                    lift[nxt] = cx + step
                    queue.append(nxt)
                elif seen != cx + step:
                    wraps = True
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


def _parent_blocks(pav: BlockPaving, blocks) -> frozenset:
    """The (j+1)-blocks that contain the given j-blocks."""
    if pav.j >= pav.R:
        raise ValueError("no coarser paving available")
    return frozenset(map(pav._parents.__getitem__, blocks))


def closure(X: Polymer) -> Polymer:
    """Smallest (j+1)-polymer containing X."""
    pav = X.paving
    parents = _parent_blocks(pav, X.blocks)
    return Polymer(BlockPaving(L=pav.L, R=pav.R, j=pav.j + 1), parents)


def neighborhood(X: Polymer) -> Polymer:
    """Small-set neighborhood X*: union of all small polymers meeting X.

    A block belongs to X* iff its graph distance to X is at most 3 (a
    connected 4-block path realizes exactly those).
    """
    steps = X.paving._lift_steps
    cur = set(X.blocks)
    for _ in range(3):
        new = set(cur)
        for b in cur:
            for nb, _step in steps[b]:
                new.add(nb)
        cur = new
    return Polymer(X.paving, frozenset(cur))


# ---------------------------------------------------------------------------
# enumeration


def _rooted_sets(nbrs, root: int, max_size: int):
    """Each connected set of at most max_size vertices that contains root and
    otherwise only vertices greater than root, once.

    nbrs[v] holds the neighbours of the integer vertex v.  Redelmeier's rooted
    growth (Discrete Math. 36, 1981): a set grows by one untried vertex at a
    time, a tried vertex stays out of the subtrees of its later siblings, and
    a vertex enters the untried list only when first reached.  Each set is
    yielded as a list that the enumeration goes on to change.
    """
    cur, reached = [], {root}

    def grow(untried):
        while untried:
            v = untried.pop()
            cur.append(v)
            yield cur
            if len(cur) < max_size:
                new = []
                for u in nbrs[v]:
                    if u > root and u not in reached:
                        reached.add(u)
                        new.append(u)
                yield from grow(untried + new)
                reached.difference_update(new)
            cur.pop()

    return grow([root])


def _torus_sets(n_axis: int, max_size: int) -> list[frozenset]:
    """Every connected block set of the n_axis^2 block torus with at most
    max_size blocks, once, in `sorted(..., key=sorted)` order.

    Block (b0, b1) is vertex b0 * n_axis + b1, so vertices order like blocks.
    Each set is grown from its least block, so the sets of one root, sorted,
    follow those of the roots before it.
    """
    table = _neighbours(n_axis)
    blocks = list(table)
    nbrs = [tuple(b0 * n_axis + b1 for b0, b1 in nb) for nb in table.values()]
    out = []
    for root in range(n_axis**2):
        for k in sorted(tuple(sorted(s)) for s in _rooted_sets(nbrs, root, max_size)):
            # copied from a set, a frozenset is sized for its blocks: 472
            # bytes for five, against 728 when grown one block at a time
            out.append(frozenset({blocks[v] for v in k}))
    return out


def count_S(L: int) -> int:
    """Number of small polymers containing a fixed block (j-independent).

    Enumerated on a 9^2 block torus, wide enough that no set of at most 4
    blocks wraps around it, so no count is wrap-inflated.  L does nothing;
    it stays because `ktrg polymers`, `verify-all` and the benchmark pass it.
    """
    return sum((4, 4) in s for s in _torus_sets(9, 4))


def count_polyominoes(max_size: int) -> dict[int, int]:
    """Fixed polyominoes by size.

    Each is counted once, at its translate whose least cell in (y, x) order
    sits at the origin: the sets grown from (0, 0) on the half-plane y > 0 or
    (y = 0, x >= 0), cut to the cells a set of max_size cells can reach.
    """
    r = max(max_size, 1) - 1
    w = 2 * r + 1
    cells = {(x, y): y * w + x for y in range(r + 1) for x in range(-r, r + 1) if y > 0 or x >= 0}
    nbrs = {v: [cells[c] for c in ((x + d0, y + d1) for d0, d1 in _NBRS) if c in cells]
            for (x, y), v in cells.items()}
    counts: dict[int, int] = {}
    for s in _rooted_sets(nbrs, 0, max_size):
        counts[len(s)] = counts.get(len(s), 0) + 1
    return counts


def connected_polymers_up_to(pav: BlockPaving, max_blocks: int) -> list[Polymer]:
    """All connected polymers with at most max_blocks blocks on the paving.

    max_blocks must be an int >= 1 (a bool is not one).
    """
    if isinstance(max_blocks, bool) or not isinstance(max_blocks, numbers.Integral) or max_blocks < 1:
        raise ValueError(f"max_blocks must be an int >= 1, got {max_blocks!r}")
    return [Polymer(pav, s) for s in _torus_sets(pav.n_axis, max_blocks)]


# ---------------------------------------------------------------------------
# reblocking sums and inequality


def _enumerate_closure_preimages(V: Polymer, small_only: bool, budget: int = 1 << 22):
    """Connected j-polymers Y with closure exactly V (V at scale j+1).

    Returns {size: count}, aggregated by |Y|_j, of the small Y or of the
    others.  Non-small enumeration walks all connected subsets of the fine
    blocks of V, so it is budgeted.
    """
    pav_up = V.paving
    if pav_up.j < 1:
        raise ValueError("V must live at scale >= 1")
    L = pav_up.L
    n_up = pav_up.n_axis
    n = n_up * L
    # fine blocks inside V, in centered coordinates of the fine block torus,
    # each with its parent block; neighbours are reduced mod n, so fine
    # blocks that meet across the seam of the centered domain are adjacent
    fine, up = [], []
    for B in sorted(V.blocks):
        B_c0, B_c1 = _centered(B[0], n_up), _centered(B[1], n_up)
        for d0 in range(-(L - 1) // 2, (L + 1) // 2):
            for d1 in range(-(L - 1) // 2, (L + 1) // 2):
                fine.append((B_c0 * L + d0, B_c1 * L + d1))
                up.append(B)
    idx = {b: i for i, b in enumerate(fine)}
    nb_lists = [[idx[c] for c in ((_centered(b[0] + d0, n), _centered(b[1] + d1, n)) for d0, d1 in _NBRS) if c in idx]
                for b in fine]
    # a set of at most four blocks winds only around a fine torus of fewer
    # than five blocks per axis (the top scale of L = 3); winding sets are
    # not small
    pav = BlockPaving(L=L, R=pav_up.R, j=pav_up.j - 1)

    def winds(s) -> bool:
        return _component_data(pav, frozenset((fine[i][0] % n, fine[i][1] % n) for i in s))[0][1]

    # each connected set is grown once, from its least index; sizes enter
    # counts by (least index, size) of their first preimage, so the sums of
    # k_small and k_large keep one order
    counts: dict[int, int] = {}
    seen = 0
    max_size = 4 if small_only else len(fine)
    for start in range(len(fine)):
        found: dict[int, int] = {}
        for s in _rooted_sets(nb_lists, start, max_size):
            seen += 1
            if seen > budget:
                raise RuntimeError(f"enumeration budget exceeded after {seen} subsets")
            small = len(s) <= 4 and not (n < 5 and winds(s))
            if small == small_only and {up[i] for i in s} == V.blocks:
                found[len(s)] = found.get(len(s), 0) + 1
        for size in sorted(found):
            counts[size] = counts.get(size, 0) + found[size]
    return counts


def _check_A(A: float):
    if not (math.isfinite(A) and A > 0.0):
        raise ValueError(f"A must be finite and > 0, got {A}")


def k_small(A: float, lam: float, V: Polymer) -> float:
    """k_s contribution of V: A^{|V|} sum over small Y with closure V of (lam A)^{-|Y|}."""
    _check_A(A)
    if not (0.0 < lam < 1.0 or lam == 1.0):
        raise ValueError("lambda must be in (0, 1]")
    counts = _enumerate_closure_preimages(V, small_only=True)
    return A ** V.size * sum(c * (lam * A) ** (-size) for size, c in counts.items())


def k_large(A: float, lam: float, V: Polymer, budget: int = 1 << 22) -> float:
    """Non-small counterpart of k_small; exhaustive, budgeted enumeration."""
    _check_A(A)
    if not (0.0 < lam <= 1.0):
        raise ValueError("lambda must be in (0, 1]")
    counts = _enumerate_closure_preimages(V, small_only=False, budget=budget)
    return A ** V.size * sum(c * (lam * A) ** (-size) for size, c in counts.items())


def reblock_inequality(X: Polymer, eta: float) -> bool:
    """(1 + 2 eta) |closure(X)| <= |X| + 8 (1 + 2 eta) |components(X)|; eta finite, >= 0."""
    if not (math.isfinite(eta) and eta >= 0.0):
        raise ValueError(f"eta must be finite and >= 0, got {eta}")
    ncomp = len(_component_data(X.paving, X.blocks))
    ncl = len(_parent_blocks(X.paving, X.blocks))
    return (1.0 + 2.0 * eta) * ncl <= X.size + 8.0 * (1.0 + 2.0 * eta) * ncomp


def max_reblock_eta(polymers) -> float:
    """Largest eta valid on the family (inf when nothing binds)."""
    best = float("inf")
    for X in polymers:
        nc = len(_component_data(X.paving, X.blocks))
        cl = len(_parent_blocks(X.paving, X.blocks))
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
    """The small polymers of the paving as block sets, in `sorted(..., key=sorted)`
    order: the connected sets of at most four blocks that do not wind."""
    return [s for s in _torus_sets(pav.n_axis, 4) if not _component_data(pav, s)[0][1]]


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
        c = v_index.get(_parent_blocks(pav_j, X), -1)
        members.setdefault(c, []).append(i)
        for B in X:
            by_block.setdefault(B, []).append((i, c))
    shares, by_closure = {}, {}
    for D in coarse:
        D_c = [_centered(a, n_up) for a in D]
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
