"""Ground-truth property checkers for cover-free families.

``is_cff`` decides the same question as enumerating every (B-set, A-set)
pair in colexicographic order and reports the same colex-least violation,
and ``max_r`` returns what the ascending scan of ``is_cff`` over
r = 1, 2, ... returns. Both run one pass over the B-sets in colex order. It
keeps ``least``, a number of blocks, intersects I = ∩B once for each B, and
asks one cover search whether at most least - 1 blocks outside B leave at
most d points of I; each time one does, ``least`` falls to the size found,
and the pass hands back B, I and the new ``least``. It stops once ``least``
is 1. ``is_cff`` starts the pass at r + 1 and takes its first B, and
``max_r`` starts it at T - w + 1 and takes its last ``least``; it needs no
witness, only a size. j blocks remove the excess e = |U| - d of the
uncovered points U only if one of them removes ceil(e / j), so the search
branches only on such heavy blocks, and drops each from the candidates once
its branch fails. Heavy blocks are read off saturating thermometer counters
over the matrix columns of U (those ``grouptest.decode`` falls back to past
its guarantee), counting hits or misses, whichever needs fewer bit planes,
or off per-block bit counts when those cost less. With d = 0 a first
block's partner is the AND of the columns of what it leaves. The columns
are built when a thermometer, an AND or a column count first reads them, so
a check that counts per block only never builds them. A search stops
when the other blocks together leave more than d points of U. A cover by at
most r blocks extends to exactly r since T - w >= r. At the B the pass
hands ``is_cff``, and only there, it counts every block's gain |I ∩ A| and
walks the A-sets in colex order, dropping a branch whose remaining blocks,
each at the best gain below the branch, cannot get the uncovered part of I
down to d; the first leaf it reaches is the colex-least witness. Results
never depend on scheduling.

The budget counts nodes, the work a check has done, not a price set
upfront: one for each B-set visited, each cover-search call and each call
of the witness walk. The count depends only on the matrix and the claim,
never on the machine, and a check that would pass its budget stops with
``BudgetExceededError``, whose ``refusal`` gives the budget and the share
of B-sets cleared. A check that ends within the budget returns what it
would return with no budget at all.

When ``m.symmetries`` is non-empty and ``m`` has at most 256 points,
``is_cff`` and ``max_r`` take the orbit route over those point
permutations. (a) It runs the cover search on the C(T - 1, w - 1) B-sets
that hold block 0, in colex order. (b) It checks the permutations, T nodes
each; they are checked, not trusted, by one lookup of each row's image
among the rows, keyed by a packed word or by its bytes (see
``_block_maps``). Each must be a bijection of the points that maps every
row onto a row (the rows distinct), which makes it permute the blocks and
keep every |∩B \\ ∪A|. With fewer than T nodes left for each, the route
skips them, and a passing claim then costs ``is_cff`` what its bare rows
cost. (c) It labels each block orbit by its
least block, searching from every block not yet reached in ascending
order. (d) For each later orbit, with least block c and in ascending c, it
searches the B-sets that hold c and whose other blocks lie in orbits whose
least blocks are c or above. Every B-set has an image among those searched
that passes or fails with it: map its member of the first orbit it meets
onto that orbit's least block. So ``is_cff`` passes when every search
does, and ``max_r``'s fewest blocks, which do not depend on the order of
the B-sets, are found. (e) When the maps are skipped or rejected, the
B-sets without block 0 follow in colex order instead, which completes the
plain scan. The one pass runs over this order. The first B-set it hands
``is_cff`` is the colex-least when found in the colex part; one found by
(a) or (d) may not be, so a second pass, at r + 1 again, searches the
B-sets before it that the route did not clear, and the walk runs at the
first B-set that pass hands back, or else at the route's. So witnesses are
the plain scan's, and no B-set is searched twice.
"""

from __future__ import annotations

import random
import sys
from array import array
from dataclasses import dataclass, replace
from functools import partial
from itertools import accumulate, pairwise, takewhile
from math import comb
from typing import Iterable, Iterator, NamedTuple, Sequence

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
    "is_k_uniform",
    "max_r",
    "pair_count",
]

# the nodes an exhaustive check may visit unless told otherwise
DEFAULT_BUDGET = 250_000
# the (B, A) pairs a sampled check draws unless told otherwise
DEFAULT_TRIALS = 100_000


class Refusal(NamedTuple):
    """An exhaustive check that ran out of its node budget: the budget, and
    how many of the scan's ``total`` B-sets it had cleared."""

    budget: int
    cleared: int
    total: int

    def __str__(self) -> str:
        return (
            f"the budget of {self.budget} nodes ran out with {self.cleared} of "
            f"{self.total} B-sets cleared ({self.cleared / self.total:.1%})"
        )


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive check runs out of its budget of nodes, with
    the ``refusal``, or when a construction would pass the library's block
    cap, with none."""

    def __init__(self, message: str, refusal: Refusal | None = None) -> None:
        super().__init__(message)
        self.refusal = refusal


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
    """A verdict, the witness of a failure, and the check that gave it.
    ``refusal`` is the exhaustive check that ran out of its budget before a
    sampled verdict, and None when none did or sampling was asked for."""

    ok: bool
    witness: ViolationWitness | None = None
    method: str = "exhaustive"
    refusal: Refusal | None = None

    def __bool__(self) -> bool:
        return self.ok


def pair_count(T: int, w: int, r: int) -> int:
    """Number of (B-set, A-set) pairs the plain enumeration evaluates."""
    return comb(T, w) * comb(T - w, r)


def _colex(items: Sequence[int], k: int) -> Iterator[tuple[int, ...]]:
    """k-subsets of ``items`` in colexicographic order (items ascending)."""
    if k == 0:
        yield ()
    elif k == 1:
        # the base case ends a level early: one generator per subset fewer
        for item in items:
            yield (item,)
    else:
        for last in range(k - 1, len(items)):
            for rest in _colex(items[:last], k - 1):
                yield rest + (items[last],)


class _Meter:
    """The nodes left of a budget, and how many of a scan's ``total`` sets
    it has cleared; spending past the budget raises BudgetExceededError."""

    def __init__(self, budget: int, total: int) -> None:
        self.budget = self.left = budget
        self.total = total
        self.cleared = 0

    def charge(self, units: int = 1) -> None:
        self.left -= units
        if self.left < 0:
            refusal = Refusal(self.budget, self.cleared, self.total)
            raise BudgetExceededError(str(refusal), refusal)


def _walk(
    rows: Sequence[int],
    rest: Sequence[int],
    best: Sequence[int],
    d: int,
    limit: int,
    j: int,
    uncovered: int,
    meter: _Meter,
) -> tuple[int, ...] | None:
    """The colex-least j-subset of ``rest[:limit]`` that leaves at most d
    points of ``uncovered``, or None; each call charges ``meter`` a node.

    The largest element runs ascending, as in ``_colex``. ``best[p]`` is the
    largest gain |I ∩ A| over ``rest[:p + 1]``, an upper bound on what any
    of those blocks removes from a subset of I, so a branch whose j - 1
    smaller blocks cannot remove the excess over d even at that gain each
    holds no witness.
    """
    meter.charge()
    if j == 1:
        for p in range(limit):
            if (uncovered & ~rows[rest[p]]).bit_count() <= d:
                return (rest[p],)
        return None
    for p in range(j - 1, limit):
        left = uncovered & ~rows[rest[p]]
        if left.bit_count() - d > (j - 1) * best[p - 1]:
            continue
        found = _walk(rows, rest, best, d, p, j - 1, left, meter)
        if found is not None:
            return found + (rest[p],)
    return None


def is_cff(
    m: IncidenceMatrix, params: CFFParams, *, budget: int = DEFAULT_BUDGET
) -> CheckResult:
    """Exhaustively decide whether ``m`` is a (w, r; d)-cover-free family.

    Decides, for every choice of w blocks B and r further blocks A, whether
    ``|intersection(B) \\ union(A)| > d``; on failure returns the
    colex-least violating pair (B-major order) as the witness. The one
    B-set pass, started at r + 1 blocks, runs over the B-sets in colex
    order or, with ``m.symmetries``, in the orbit route's order; the first
    B it hands back is one some r blocks cover down to d points, and a
    colex branch-and-bound finds the witness at the colex-least such B
    (see the module docstring), the same witness as the plain enumeration.
    ``budget`` caps the nodes both visit together (see the module
    docstring); a check that runs out is refused.
    """
    _check_shape(m, params)
    w, r, d = params.w, params.r, params.d
    T = m.num_blocks
    meter = _Meter(budget, comb(T, w))
    orbits: list[list[int]] = []
    failed = next(_lowered(m, _search_order(m, w, meter, orbits), d, r + 1, meter), None)
    if failed is None:
        return CheckResult(True)
    b_set = failed[0]
    if _routed(m) and (not b_set[0] or orbits):
        # the route found ``b_set`` among block 0's B-sets or, once the
        # maps checked out, the later orbits'. It cleared those before it,
        # so the other B-sets before it are searched in colex order
        later = set(takewhile(b_set.__ne__, _later_b_sets(orbits[1:], w)))
        skipped = takewhile(b_set.__ne__, _colex(range(T), w))
        earlier = (b for b in skipped if b[0] and b not in later)
        failed = next(_lowered(m, earlier, d, r + 1, meter), failed)
    b_set, inter, _ = failed
    rows = m.rows
    rest = [i for i in range(T) if i not in b_set]
    gains = [(inter & rows[i]).bit_count() for i in rest]
    a_set = _walk(rows, rest, list(accumulate(gains, max)), d, len(rest), r, inter, meter)
    return CheckResult(False, ViolationWitness(b_set, a_set, _residual(m, b_set, a_set)))


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
    if flip:
        columns = (col ^ flip for col in columns)
    for col in columns:
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


def _heavy(m: IncidenceMatrix, outside: int, mask: int, level: int) -> int:
    """The blocks of ``outside`` holding at least ``level`` points of ``mask``."""
    rows = m.rows
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
        return _common(m.columns, outside, mask)
    held = map(m.columns.__getitem__, _members(mask))
    if level <= misses:
        return _reach(held, level) & outside
    # a block misses at most size - level points exactly when it is not
    # among the blocks missing misses of them
    return outside & ~_reach(held, misses, outside)


def _bare(m: IncidenceMatrix, outside: int, mask: int) -> int:
    """How many points of ``mask`` no block of ``outside`` holds."""
    if mask.bit_count() < outside.bit_count():
        columns = m.columns
        return sum(not columns[x] & outside for x in _members(mask))
    return _uncovered(m.rows, mask, _members(outside))


def _covers(
    m: IncidenceMatrix, outside: int, uncovered: int, d: int, j: int, meter: _Meter
) -> int | None:
    """The size of some cover by at most j blocks of the mask ``outside``
    that leaves at most d of the more than d points of ``uncovered``, or
    None when there is none (see the module docstring). Each call charges
    ``meter`` a node, nested calls included. The matrix columns are read,
    and so built, only where a thermometer, an AND or a column count is
    cheaper than the rows."""
    meter.charge()
    rows = m.rows
    excess = uncovered.bit_count() - d
    heavy = _heavy(m, outside, uncovered, -(-excess // j))
    # no cover at any size when all of outside leaves more than d points
    if not heavy or j > 2 and _bare(m, outside, uncovered) > d:
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
            if _heavy(m, outside, left, excess) if d else _common(m.columns, outside, left):
                return 2
        else:
            found = _covers(m, outside, left, d, j - 1, meter)
            if found is not None:
                return found + 1
    return None


# the bytes before a row of s points in its 8-byte record, for s <= 8
_PADDING = [b"\xff" * (8 - s) for s in range(9)]


def _routed(m: IncidenceMatrix) -> bool:
    """Whether ``is_cff`` and ``max_r`` take the orbit route: ``m`` lists
    symmetries, and its points fit the byte a point takes in
    ``_block_maps``."""
    return bool(m.symmetries) and m.num_points <= 256


def _block_maps(m: IncidenceMatrix, meter: _Meter) -> list[array] | None:
    """The block permutation each of ``m.symmetries`` induces, as an array
    of block indices, or None when two rows are equal or some symmetry is
    not a bijection of the points that maps every row onto a row.

    Every row is written once as its points, one byte each and highest
    first. With at most 8 points a row and fewer than 256 points, each row
    takes an 8-byte record, padded in front with the byte 255, which is no
    point and which every map keeps, and is keyed by that record read as one
    word; otherwise it is keyed by its bytes. A point map is one
    ``bytes.translate`` of all the rows, and each image is looked up among
    the rows by its key, its points sorted only on a miss. Each map charges
    ``meter`` T nodes before it runs.
    """
    n, T = m.num_points, m.num_blocks
    word = n < 256 and max(map(int.bit_count, m.rows)) <= 8
    points = bytearray()
    ends = array("L", [0])
    for row in m.rows:
        if word:
            points += _PADDING[row.bit_count()]
        while row:
            top = row.bit_length() - 1
            points.append(top)
            row ^= 1 << top
        ends.append(len(points))
    flat = bytes(points)
    del points
    # a comprehension, as dict(zip(...)) peaks ~90 kB higher at screen scale
    index = {k: i for i, k in enumerate(_keys(flat, ends, word))}
    if len(index) != T:
        return None
    # one record's key, as ``_keys`` reads it
    key = partial(int.from_bytes, byteorder=sys.byteorder) if word else bytes
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
        try:
            sigma = array("L", map(index.__getitem__, _keys(image, ends, word)))
        except KeyError:
            # the map breaks the point order of some rows: sort their images
            sigma = array("L")
            for a, b in pairwise(ends):
                record = image[a:b]
                j = index.get(key(record))
                if j is None:
                    j = index.get(key(bytes(sorted(record, reverse=True))))
                    if j is None:
                        return None
                sigma.append(j)
        maps.append(sigma)
    return maps


def _keys(image: bytes, ends: Sequence[int], word: bool) -> Iterable[int | bytes]:
    """The key of each row written in ``image``, row i at
    ``ends[i]:ends[i + 1]``: its 8-byte record read as one word, or its
    bytes."""
    if word:
        return memoryview(image).cast("Q")
    return (image[a:b] for a, b in pairwise(ends))


def _orbits(maps: Sequence[Sequence[int]], T: int) -> list[list[int]]:
    """The orbits of the blocks under the block permutations ``maps``, in
    ascending order of their least blocks, each listed breadth first from
    its least block. Forward images suffice: a permutation's inverse is one
    of its powers. A search starts at each block not yet reached, ascending,
    and the last stops the pass, so a transitive group costs one search."""
    seen = bytearray(T)
    orbits = []
    left = T
    for start in range(T):
        if seen[start]:
            continue
        seen[start] = 1
        orbit = [start]
        for i in orbit:
            for sigma in maps:
                j = sigma[i]
                if not seen[j]:
                    seen[j] = 1
                    orbit.append(j)
        orbits.append(orbit)
        left -= len(orbit)
        if not left:
            break
    return orbits


def _later_b_sets(orbits: list[list[int]], w: int) -> Iterator[tuple[int, ...]]:
    """For each of ``orbits`` in turn, the B-sets holding its least block
    whose other blocks lie in it or in the orbits after it."""
    if w == 1:
        for orbit in orbits:
            yield (orbit[0],)
        return
    # the blocks of the orbits not yet searched, ascending: the first is
    # the least block of the next orbit
    blocks = sorted(b for orbit in orbits for b in orbit)
    for orbit in orbits:
        yield from ((orbit[0], *rest) for rest in _colex(blocks[1:], w - 1))
        done = set(orbit)
        blocks = [b for b in blocks if b not in done]


def _search_order(
    m: IncidenceMatrix, w: int, meter: _Meter, orbits: list[list[int]] | None = None
) -> Iterator[tuple[int, ...]]:
    """The B-sets ``is_cff`` and ``max_r`` search, in order: every B-set in
    colex order, or, on the orbit route, those holding block 0, then either
    those of the later block orbits or, when the maps are skipped or
    rejected, the other B-sets in colex order (see the module docstring).
    ``orbits``, when given, receives the block orbits once the maps check
    out."""
    T = m.num_blocks
    if not _routed(m):
        yield from _colex(range(T), w)
        return
    yield from ((0, *rest) for rest in _colex(range(1, T), w - 1))
    # the maps are checked only once block 0's B-sets are all cleared
    maps = None if meter.left < T * len(m.symmetries) else _block_maps(m, meter)
    if maps is None:
        yield from (b_set for b_set in _colex(range(T), w) if b_set[0])
        return
    found = _orbits(maps, T)
    if orbits is not None:
        orbits.extend(found)
    yield from _later_b_sets(found[1:], w)


def _lowered(
    m: IncidenceMatrix, b_sets: Iterable[tuple[int, ...]], d: int, least: int, meter: _Meter
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """(B, ∩B, the new ``least``) each time the cover search finds fewer than
    ``least`` blocks outside some B of ``b_sets`` that leave at most d
    points of ∩B; the pass stops once ``least`` is 1. Each B charges
    ``meter`` a node, and counts as cleared once its search is done."""
    rows = m.rows
    every = (1 << m.num_blocks) - 1
    for b_set in b_sets:
        meter.charge()
        inter, outside = -1, every  # -1: every bit set
        for i in b_set:
            inter &= rows[i]
            outside ^= 1 << i
        if inter.bit_count() <= d:
            yield b_set, inter, 1
            return
        while least > 1:
            found = _covers(m, outside, inter, d, least - 1, meter)
            if found is None:
                break
            least = found
            yield b_set, inter, least
        if least == 1:
            return
        meter.cleared += 1


def max_r(
    m: IncidenceMatrix, w: int, d: int, *, budget: int = DEFAULT_BUDGET
) -> int:
    """Largest r for which ``m`` passes is_cff(w, r, d); 0 if even r=1
    fails, and T - w if every r does.

    The property is monotone (downward) in r, so the answer is one less
    than the fewest blocks A that leave at most d points of some ∩B, which
    does not depend on the order of the B-sets. ``is_cff``'s B-set pass,
    over the same order but started at T - w + 1 blocks, finds that number:
    it is the last ``least`` the pass hands back (see the module
    docstring). ``budget`` caps the nodes visited, counted as in
    ``is_cff``.
    """
    if w < 1:
        raise ValueError("w must be positive")
    if d < 0:
        raise ValueError(f"d must be non-negative, got {d}")
    meter = _Meter(budget, comb(m.num_blocks, w))
    least = max(m.num_blocks - w, 0) + 1
    for _, _, least in _lowered(m, _search_order(m, w, meter), d, least, meter):
        pass
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
    within its node budget, by the plain scan or by orbits of ``m.symmetries``;
    sampled otherwise.

    A claimed block size ``k`` is checked first: a matrix that is not
    k-uniform fails with method ``"k-uniform"`` and no witness. Otherwise
    the result's ``method`` field records which cover-free check ran. A
    budget of 0 always samples; a sampled verdict past a larger budget
    records the exhaustive check's ``refusal``.
    """
    _check_shape(m, params)
    if params.k is not None and not is_k_uniform(m, params.k):
        return CheckResult(False, method="k-uniform")
    try:
        return is_cff(m, params, budget=budget)
    except BudgetExceededError as exc:
        sampled = is_cff_sampled(m, params, trials, seed)
        return replace(sampled, refusal=exc.refusal) if budget else sampled
