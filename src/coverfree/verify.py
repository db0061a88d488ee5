"""Ground-truth property checkers for cover-free and disjunct matrices.

``is_cff`` decides the same question as enumerating every (B-set, A-set)
pair in colexicographic order and reports the same colex-least violation,
and ``max_r`` returns what the ascending scan of ``is_cff`` over
r = 1, 2, ... returns; both make one pass over the B-sets in colex order,
intersect I = ∩B once for each, and ask one cover search whether at most j
blocks outside B leave at most d points of I. j blocks remove the excess
e = |U| - d of the uncovered points U only if one of them removes
ceil(e / j), so the search branches only on such heavy blocks, and drops
each from the candidates once its branch fails. Heavy blocks are read off
saturating thermometer counters over the matrix columns of U (those
``grouptest.decode`` falls back to past its guarantee), counting hits or
misses, whichever needs fewer bit planes, or off per-block bit counts when
those cost less. With d = 0 a first block's partner is the AND of the
columns of what it leaves. A search stops when the other blocks together
leave more than d points of U. ``is_cff`` asks for a cover by at most r
blocks, which extends to exactly r since T - w >= r, and only at the first
B-set that has one does it count every block's gain |I ∩ A| and walk the
A-sets in colex order, dropping a branch whose remaining blocks, each at
the best gain below the branch, cannot get the uncovered part of I down to
d; the first leaf it reaches is the colex-least witness. ``max_r`` keeps
``least``, the fewest blocks found so far that leave at most d points of
some ∩B, starting one above the largest r the budget affords, since larger
covers never change the answer, and lowers it to the size each search finds
for a cover by at most least - 1 blocks until a search fails; it needs no
witness, only a size. Results never depend on scheduling. The budget is
counted upfront in (B-set, A-set) pairs, the work of the plain enumeration,
and a check above it is refused rather than run for hours; ``max_r``
refuses exactly the calls the ascending scan would.

Past the pair budget, ``is_cff`` tries one more route before it refuses: a
proof reduced by the point permutations a construction lists in
``IncidenceMatrix.symmetries``. They are checked, not trusted. Each must
be a bijection of the points that maps every row onto a row (the rows
distinct, at most 256 points), which makes it permute the blocks and keep
every |∩B \\ ∪A|, and those block permutations must reach every block
from block 0. Then every B-set has an image holding block 0 that passes
or fails with it, and the cover search runs on those C(T - 1, w - 1)
B-sets only. This route counts its own work, T per symmetry and one per
cover-search call, stops once that passes the budget, and only ever
passes: a check it cannot finish, or a B-set with a cover, ends in the
same refusal as the plain scan, so witnesses still come from that scan or
the sampler.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from itertools import accumulate, combinations, pairwise
from math import comb
from typing import Iterable, Iterator, Sequence

from .core import CFFParams, IncidenceMatrix, _check_shape

__all__ = [
    "BudgetExceededError",
    "CheckResult",
    "DEFAULT_BUDGET",
    "DEFAULT_TRIALS",
    "ViolationWitness",
    "check_claim",
    "is_cff",
    "is_cff_sampled",
    "is_disjunct",
    "is_k_uniform",
    "max_r",
    "pair_count",
]

DEFAULT_BUDGET = 10**9
# the (B, A) pairs a sampled check draws unless told otherwise
DEFAULT_TRIALS = 100_000


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive scan would exceed its evaluation budget.

    A pair-budget refusal carries two arguments, the refusal and a remedy
    that names library calls, so a front end can name its own flags."""

    def __str__(self) -> str:
        return "; ".join(map(str, self.args))


@dataclass(frozen=True)
class ViolationWitness:
    """A concrete refutation: blocks ``b_rows`` intersected, blocks
    ``a_rows`` subtracted, leave only ``residual`` points (<= d)."""

    b_rows: tuple[int, ...]
    a_rows: tuple[int, ...]
    residual: int

    def replay(self, m: IncidenceMatrix) -> int:
        return _residual(m, self.b_rows, self.a_rows)


def _residual(m: IncidenceMatrix, b_rows: Sequence[int], a_rows: Sequence[int]) -> int:
    """|intersection(B) \\ union(A)|; an empty B intersects to every point."""
    inter = (1 << m.num_points) - 1
    for i in b_rows:
        inter &= m.rows[i]
    return _uncovered(m.rows, inter, a_rows)


def _uncovered(rows: Sequence[int], inter: int, a_rows: Iterable[int]) -> int:
    """How many points of the mask ``inter`` no row in ``a_rows`` covers."""
    union = 0
    for i in a_rows:
        union |= rows[i]
    return (inter & ~union).bit_count()


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    witness: ViolationWitness | None = None
    method: str = "exhaustive"

    def __bool__(self) -> bool:
        return self.ok


def pair_count(T: int, w: int, r: int) -> int:
    """Number of (B-set, A-set) evaluations an exhaustive check performs."""
    return comb(T, w) * comb(T - w, r)


def _afford(total: int, budget: int, remedy: str) -> None:
    """Refuse a scan of ``total`` pairs above ``budget``, naming ``remedy``."""
    if total > budget:
        raise BudgetExceededError(
            f"{total} pair evaluations exceed the budget of {budget}", remedy
        )


def _colex(items: Sequence[int], k: int) -> Iterator[tuple[int, ...]]:
    """k-subsets of ``items`` in colexicographic order (items ascending)."""
    if k == 0:
        yield ()
        return
    for last in range(k - 1, len(items)):
        for rest in _colex(items[:last], k - 1):
            yield rest + (items[last],)


def _walk(
    rows: Sequence[int],
    rest: Sequence[int],
    best: Sequence[int],
    d: int,
    limit: int,
    j: int,
    uncovered: int,
) -> tuple[int, ...] | None:
    """The colex-least j-subset of ``rest[:limit]`` that leaves at most d
    points of ``uncovered``, or None.

    The largest element runs ascending, as in ``_colex``. ``best[p]`` is the
    largest gain |I ∩ A| over ``rest[:p + 1]``, an upper bound on what any
    of those blocks removes from a subset of I, so a branch whose j - 1
    smaller blocks cannot remove the excess over d even at that gain each
    holds no witness.
    """
    if j == 1:
        for p in range(limit):
            if (uncovered & ~rows[rest[p]]).bit_count() <= d:
                return (rest[p],)
        return None
    for p in range(j - 1, limit):
        left = uncovered & ~rows[rest[p]]
        if left.bit_count() - d > (j - 1) * best[p - 1]:
            continue
        found = _walk(rows, rest, best, d, p, j - 1, left)
        if found is not None:
            return found + (rest[p],)
    return None


def is_cff(
    m: IncidenceMatrix, params: CFFParams, *, budget: int = DEFAULT_BUDGET
) -> CheckResult:
    """Exhaustively decide whether ``m`` is a (w, r; d)-cover-free family.

    Decides, for every choice of w blocks B and r further blocks A, whether
    ``|intersection(B) \\ union(A)| > d``; on failure returns the
    colex-least violating pair (B-major order) as the witness. B-sets run
    in colex order; a cover search clears each B that no r blocks cover
    down to d points, and a colex branch-and-bound finds the witness at the
    first B it does not clear (see the module docstring), the same witness
    as the plain enumeration. ``budget`` caps the upfront pair count
    C(T, w) * C(T - w, r), not the pairs the pruned search visits. Past
    that count a claim can still pass by the orbit proof over
    ``m.symmetries``, which must fit its own work in ``budget`` (see the
    module docstring); otherwise the call is refused.
    """
    _check_shape(m, params)
    w, r, d = params.w, params.r, params.d
    T = m.num_blocks
    total = pair_count(T, w, r)
    if total > budget and _by_orbits(m, params, budget):
        return CheckResult(True)
    _afford(total, budget, "use is_cff_sampled or raise the budget")
    rows = m.rows
    columns = m.columns
    every = (1 << T) - 1
    for b_set in _colex(range(T), w):
        inter = rows[b_set[0]]
        for i in b_set[1:]:
            inter &= rows[i]
        outside = every ^ sum(1 << i for i in b_set)
        if inter.bit_count() > d and _covers(columns, rows, outside, inter, d, r) is None:
            continue
        rest = [i for i in range(T) if i not in b_set]
        gains = [(inter & rows[i]).bit_count() for i in rest]
        a_set = _walk(rows, rest, list(accumulate(gains, max)), d, len(rest), r, inter)
        return CheckResult(False, ViolationWitness(b_set, a_set, _residual(m, b_set, a_set)))
    return CheckResult(True)


def is_cff_sampled(
    m: IncidenceMatrix,
    params: CFFParams,
    trials: int,
    seed: int,
) -> CheckResult:
    """Monte-Carlo variant: draws ``trials`` uniform (B, A) pairs.

    A reported failure is definitive (the witness replays); a pass only says
    no violation was sampled. Deterministic for a fixed seed.
    """
    _check_shape(m, params)
    if trials < 1:
        raise ValueError("trials must be positive")
    w, r, d = params.w, params.r, params.d
    rng = random.Random(f"cff-sample:{seed}")
    T = m.num_blocks
    for _ in range(trials):
        chosen = rng.sample(range(T), w + r)
        b_set = tuple(sorted(chosen[:w]))
        a_set = tuple(sorted(chosen[w:]))
        residual = _residual(m, b_set, a_set)
        if residual <= d:
            return CheckResult(False, ViolationWitness(b_set, a_set, residual), "sampled")
    return CheckResult(True, method="sampled")


def is_disjunct(
    m: IncidenceMatrix, i: int, j: int, *, budget: int = DEFAULT_BUDGET
) -> CheckResult:
    """Exhaustively decide whether ``m`` is (i, j)-disjunct.

    For every pair of disjoint point sets P, Q with |P| <= i and |Q| <= j,
    some block must contain all of P and none of Q. Implemented directly on
    point subsets; the transpose of a passing matrix is an (i, j)-cover-free
    family and vice versa. A failure witness holds (P, Q) in its row fields
    and replays against ``m.transpose()``.
    """
    if i < 1 or j < 1:
        raise ValueError("i and j must be positive")
    if i + j > m.num_points:
        raise ValueError(
            f"need i + j <= num_points, got i+j={i + j} with {m.num_points} points"
        )
    total = sum(
        comb(m.num_points, p) * comb(m.num_points - p, q)
        for p in range(i + 1)
        for q in range(j + 1)
    )
    if total > budget:
        raise BudgetExceededError(
            f"{total} (P, Q) evaluations exceed the budget of {budget}"
        )
    points = range(m.num_points)
    rows = m.rows
    for p_size in range(i + 1):
        for p_set in combinations(points, p_size):
            p_mask = 0
            for x in p_set:
                p_mask |= 1 << x
            rest = [x for x in points if not (p_mask >> x) & 1]
            for q_size in range(j + 1):
                for q_set in combinations(rest, q_size):
                    q_mask = 0
                    for x in q_set:
                        q_mask |= 1 << x
                    if not any(
                        (row & p_mask) == p_mask and not (row & q_mask)
                        for row in rows
                    ):
                        return CheckResult(
                            False, ViolationWitness(p_set, q_set, 0)
                        )
    return CheckResult(True)


def _members(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _reach(columns: Iterable[int], level: int, flip: int = 0) -> int:
    """The blocks in at least ``level`` of the masks ``col ^ flip``, for
    ``col`` in ``columns``, as a mask over the blocks. A column is the mask
    of blocks holding one point."""
    # over[i]: blocks in more than i of the columns seen so far, a
    # saturating thermometer counter kept one bit plane per level
    over = [0] * level
    for col in columns:
        col ^= flip
        for i in range(level - 1, 0, -1):
            over[i] |= over[i - 1] & col
        over[0] |= col
    return over[-1]


def _common(columns: Sequence[int], outside: int, mask: int) -> int:
    """The blocks of ``outside`` holding every point of ``mask``."""
    while mask and outside:
        low = mask & -mask
        mask ^= low
        outside &= columns[low.bit_length() - 1]
    return outside


def _heavy(
    columns: Sequence[int], rows: Sequence[int], outside: int, mask: int, level: int
) -> int:
    """The blocks of ``outside`` holding at least ``level`` points of ``mask``."""
    size = mask.bit_count()
    misses = size - level + 1
    # a thermometer point costs about planes + 3 per-block bit counts
    if size * (min(level, misses) + 3) >= len(rows):
        heavy = 0
        for i, row in enumerate(rows):
            if (row & mask).bit_count() >= level:
                heavy |= 1 << i
        return heavy & outside
    if misses == 1:
        return _common(columns, outside, mask)
    held = map(columns.__getitem__, _members(mask))
    if level <= misses:
        return _reach(held, level) & outside
    # a block misses at most size - level points exactly when it is not
    # among the blocks missing misses of them
    return outside & ~_reach(held, misses, outside)


def _bare(columns: Sequence[int], rows: Sequence[int], outside: int, mask: int) -> int:
    """How many points of ``mask`` no block of ``outside`` holds."""
    if mask.bit_count() < outside.bit_count():
        return sum(not columns[x] & outside for x in _members(mask))
    return _uncovered(rows, mask, _members(outside))


class _Meter:
    """Work units left of a budget; spending past it raises
    BudgetExceededError."""

    def __init__(self, budget: int) -> None:
        self.left = budget

    def charge(self, units: int) -> None:
        self.left -= units
        if self.left < 0:
            raise BudgetExceededError("the orbit proof passed the budget")


def _covers(
    columns: Sequence[int],
    rows: Sequence[int],
    outside: int,
    uncovered: int,
    d: int,
    j: int,
    meter: _Meter | None = None,
) -> int | None:
    """The size of some cover by at most j blocks of the mask ``outside``
    that leaves at most d of the more than d points of ``uncovered``, or
    None when there is none (see the module docstring). A ``meter`` is
    charged one unit per call, nested calls included."""
    if meter is not None:
        meter.charge(1)
    excess = uncovered.bit_count() - d
    heavy = _heavy(columns, rows, outside, uncovered, -(-excess // j))
    # no cover at any size when all of outside leaves more than d points
    if not heavy or j > 2 and _bare(columns, rows, outside, uncovered) > d:
        return None
    order = _members(heavy)
    if j > 2:
        # heaviest first, so a search with room to spare returns a small cover
        order = sorted(order, key=lambda h: (uncovered & ~rows[h]).bit_count())
    for h in order:
        outside ^= 1 << h
        left = uncovered & ~rows[h]
        excess = left.bit_count() - d
        if excess <= 0:
            return 1
        if j == 2:
            # the pair level inline: one partner must remove all of the excess
            if _heavy(columns, rows, outside, left, excess) if d else _common(columns, outside, left):
                return 2
        else:
            found = _covers(columns, rows, outside, left, d, j - 1, meter)
            if found is not None:
                return found + 1
    return None


def _block_maps(m: IncidenceMatrix, meter: _Meter) -> list[array] | None:
    """The block permutation each of ``m.symmetries`` induces, as an array
    of block indices, or None when two rows are equal or some symmetry is
    not a bijection of the points that maps every row onto a row.

    Every row is written as its points, one byte each and highest first; a
    point map is one ``bytes.translate`` of all of them, and each image is
    looked up among the rows by its bytes, sorted only on a miss. Each map
    charges ``meter`` T units before it runs.
    """
    n, T = m.num_points, m.num_blocks
    points = bytearray()
    ends = array("L", [0])
    for row in m.rows:
        while row:
            top = row.bit_length() - 1
            points.append(top)
            row ^= 1 << top
        ends.append(len(points))
    flat = bytes(points)
    del points
    index = {flat[a:b]: i for i, (a, b) in enumerate(pairwise(ends))}
    if len(index) != T:
        return None
    maps = []
    for perm in m.symmetries:
        meter.charge(T)
        try:
            table = bytes(perm)
        except (TypeError, ValueError):
            return None
        if sorted(table) != list(range(n)):
            return None
        image = flat.translate(table + bytes(range(n, 256)))
        sigma = array("L")
        for a, b in pairwise(ends):
            key = image[a:b]
            j = index.get(key)
            if j is None:
                j = index.get(bytes(sorted(key, reverse=True)))
                if j is None:
                    return None
            sigma.append(j)
        maps.append(sigma)
    return maps


def _transitive(maps: Sequence[Sequence[int]], T: int) -> bool:
    """Whether the block permutations ``maps`` reach every block from
    block 0. Forward images suffice: a permutation's inverse is one of its
    powers."""
    seen = bytearray(T)
    seen[0] = 1
    reached = [0]
    for i in reached:
        for sigma in maps:
            j = sigma[i]
            if not seen[j]:
                seen[j] = 1
                reached.append(j)
    return len(reached) == T


def _by_orbits(m: IncidenceMatrix, params: CFFParams, budget: int) -> bool:
    """Whether ``m.symmetries`` prove ``m`` a (w, r; d)-cover-free family
    within ``budget`` work units (see the module docstring); False is no
    verdict."""
    w, r, d = params.w, params.r, params.d
    T = m.num_blocks
    if not m.symmetries or m.num_points > 256:
        return False
    meter = _Meter(budget)
    try:
        maps = _block_maps(m, meter)
        if maps is None or not _transitive(maps, T):
            return False
        rows = m.rows
        columns = m.columns
        every = (1 << T) - 1
        for rest in _colex(range(1, T), w - 1):
            inter = rows[0]
            for i in rest:
                inter &= rows[i]
            outside = every ^ 1 ^ sum(1 << i for i in rest)
            if inter.bit_count() <= d:
                return False
            if _covers(columns, rows, outside, inter, d, r, meter) is not None:
                return False
    except BudgetExceededError:
        return False
    return True


def max_r(
    m: IncidenceMatrix, w: int, d: int, *, budget: int = DEFAULT_BUDGET
) -> int:
    """Largest r for which ``m`` passes is_cff(w, r, d); 0 if even r=1
    fails, and T - w if every r does.

    The property is monotone (downward) in r, so the answer is one less
    than the fewest blocks A that leave at most d points of some ∩B. One
    colex pass over the B-sets finds that number with the cover search
    described in the module docstring. ``budget`` applies as in
    the ascending scan of is_cff over r = 1, 2, ... on the bare rows: a
    call that scan would refuse before it reaches a failing r is refused
    here, with the same message. ``m.symmetries`` are not used.
    """
    if w < 1:
        raise ValueError("w must be positive")
    if d < 0:
        raise ValueError(f"d must be non-negative, got {d}")
    T = m.num_blocks
    top = max(T - w, 0)
    r_ok = 0
    while r_ok < top and pair_count(T, w, r_ok + 1) <= budget:
        r_ok += 1
    least = r_ok + 1
    rows = m.rows
    columns = m.columns
    every = (1 << T) - 1
    for b_set in _colex(range(T), w):
        if least == 1:
            break
        inter = rows[b_set[0]]
        for i in b_set[1:]:
            inter &= rows[i]
        if inter.bit_count() <= d:
            least = 1
            break
        outside = every ^ sum(1 << i for i in b_set)
        while least > 1:
            found = _covers(columns, rows, outside, inter, d, least - 1)
            if found is None:
                break
            least = found
    if least > top:
        return top
    if least > r_ok:
        # the ascending scan would reach r_ok + 1, the first r refused
        _afford(pair_count(T, w, r_ok + 1), budget, "raise the budget")
    return least - 1


def is_k_uniform(m: IncidenceMatrix, k: int) -> bool:
    """True iff every block has exactly k points."""
    return all(row.bit_count() == k for row in m.rows)


def check_claim(
    m: IncidenceMatrix,
    params: CFFParams,
    *,
    budget: int = DEFAULT_BUDGET,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> CheckResult:
    """Exhaustive check when ``is_cff`` can prove or refute the claim
    within the budget, by the plain scan or by orbits of ``m.symmetries``;
    sampled otherwise.

    A claimed block size ``k`` is checked first: a matrix that is not
    k-uniform fails with method ``"k-uniform"`` and no witness. Otherwise
    the result's ``method`` field records which cover-free check ran. A
    budget of 0 always samples.
    """
    _check_shape(m, params)
    if params.k is not None and not is_k_uniform(m, params.k):
        return CheckResult(False, method="k-uniform")
    try:
        return is_cff(m, params, budget=budget)
    except BudgetExceededError:
        return is_cff_sampled(m, params, trials, seed)
