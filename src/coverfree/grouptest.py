"""Non-adaptive group testing over incidence-matrix pooling designs.

Blocks are items and points are pools: item t participates in pool j
when bit j of row t is set. On a (1, r; d)-cover-free matrix the naive
threshold decoder is exact for up to r defectives, because every clean
item keeps more than d honest negative pools while flipping e outcomes
can darken at most e pools of a defective item.

Transversal designs, such as the Reed-Solomon and orthogonal-array
families, are decoded one class of pools at a time: when the pools split,
in index order, into runs that each hold every item exactly once, an
item's negative pools are counted by the runs whose negative part holds
it, so no pool is visited on its own and no row is read. Every item then
holds one pool of each class, so a round with fewer positive pools than
the classes less the tolerance decodes to no item before any column is
read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import IncidenceMatrix
from .verify import _reach

__all__ = [
    "SimulationStats",
    "TestOutcome",
    "decode",
    "encode",
    "inject_errors",
    "simulate",
]


@dataclass(frozen=True)
class TestOutcome:
    """Pool outcomes of one screening round.

    ``outcomes`` is a bitmask over ``num_pools`` pools (bit j set means
    pool j tested positive).
    """

    num_pools: int
    outcomes: int

    def __post_init__(self) -> None:
        if self.num_pools < 1:
            raise ValueError("need at least one pool")
        if not 0 <= self.outcomes < (1 << self.num_pools):
            raise ValueError("outcome mask wider than the pool count")


def encode(m: IncidenceMatrix, defectives: set[int]) -> TestOutcome:
    """Honest outcomes when the given blocks are defective: pool j is
    positive iff some defective block contains point j (OR of rows)."""
    mask = 0
    for t in defectives:
        if not 0 <= t < m.num_blocks:
            raise IndexError(f"block index {t} out of range (T={m.num_blocks})")
        mask |= m.rows[t]
    return TestOutcome(num_pools=m.num_points, outcomes=mask)


def inject_errors(o: TestOutcome, count: int, seed: int = 0) -> TestOutcome:
    """Flip ``count`` distinct uniformly chosen pools; a count of 0 returns
    ``o`` itself.

    Flips compose: a pool flipped twice across calls reads honest again.
    """
    if not 0 <= count <= o.num_pools:
        raise ValueError(f"count must lie in [0, {o.num_pools}], got {count}")
    if not count:
        return o
    rng = random.Random(f"gt-errors:{seed}")
    flips = rng.sample(range(o.num_pools), count)
    mask = 0
    for j in flips:
        mask |= 1 << j
    return TestOutcome(num_pools=o.num_pools, outcomes=o.outcomes ^ mask)


def decode(m: IncidenceMatrix, o: TestOutcome, tolerance: int = 0) -> set[int]:
    """Blocks whose points hit at most ``tolerance`` negative pools.

    Soundness: on a (1, r; d)-cover-free matrix with at most r defective
    blocks and at most floor(d/2) flipped outcomes, tolerance floor(d/2)
    recovers the defective set exactly. A defective block can lose at
    most floor(d/2) pools to flips, and a clean block retains more than
    d - floor(d/2) >= floor(d/2) + 1 negative pools.

    When the points split, in index order, into contiguous classes whose
    columns are disjoint and together hold every block (the runs of a
    transversal design, found once per matrix and kept), every block holds
    exactly one point of each class. Its negative pools are then counted
    exactly by the classes whose "miss" mask holds it: the blocks whose
    point in that class is negative. Since a class partitions the blocks,
    that mask is the OR of its negative columns or every block outside the
    OR of its positive ones, whichever side has fewer pools, so a round
    with few positive pools costs a few operations a class. Saturating
    bit-plane counters over the miss masks give the blocks in more than
    ``tolerance`` negative pools, and the answer is the rest. A block in
    at most ``tolerance`` negative pools holds at least len(classes) -
    ``tolerance`` distinct positive ones, so a round with fewer positive
    pools than that, such as one with no defective and few flips, decodes
    to the empty set without reading a column.

    Other matrices split the negative pools, in index order, into
    min(tolerance, negative pools) + 1 contiguous groups, and the columns
    inside each group are ORed. A block in at most ``tolerance`` negative pools misses every pool
    of some group (pigeonhole), so only the blocks outside some group's
    union are candidates, and each candidate's row is checked exactly. With
    tolerance 0 the one group's complement is the answer: the classical
    rule (COMP), defective iff every pool containing the item is positive.
    When the candidates would cost more to check than saturating bit-plane
    counters over the negative columns, as with many more defectives than
    the design guarantees, the counters decide instead. Every path returns
    the same set.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    if o.num_pools != m.num_points:
        raise ValueError(
            f"outcome covers {o.num_pools} pools, matrix has {m.num_points} points"
        )
    every = (1 << m.num_blocks) - 1
    classes = m._classes
    if classes:
        # every block holds one pool of each class, so none passes with
        # fewer than len(classes) - tolerance positive pools
        if o.outcomes.bit_count() + tolerance < len(classes):
            return set()
        # a block in more than len(classes) negative pools does not exist,
        # so the counter needs no more planes than that
        level = min(tolerance, len(classes)) + 1
        misses = _misses(m.columns, classes, o.outcomes, every)
        return _positions(every & ~_reach(misses, level))
    outcomes = format(o.outcomes, f"0{o.num_pools}b")[::-1]
    pools = [col for col, positive in zip(m.columns, outcomes) if positive == "0"]
    # no block is in more than len(pools) negative pools, so a higher
    # tolerance passes every block, as len(pools) + 1 groups (one of them
    # empty) or counter planes already find
    groups = min(tolerance, len(pools)) + 1
    # measured at T = 28 561, a candidate's row check costs about 1.2
    # bitwise operations on the T-bit columns and the counters take
    # 2 * tolerance + 1 a negative pool, so checking pays up to about
    # 2 * tolerance candidates a pool
    most = 2 * tolerance * len(pools)
    hit = every
    for g in range(groups):
        union = 0
        for col in pools[g * len(pools) // groups : (g + 1) * len(pools) // groups]:
            union |= col
        hit &= union
        # the candidates grow with each group, by about as many as the first
        # group leaves, so a filter too weak to pay is given up early
        if tolerance and (m.num_blocks - hit.bit_count()) * groups > most * (g + 1):
            return _positions(every & ~_reach(pools, groups))
    candidates = _positions(every & ~hit)
    if not tolerance:
        return candidates
    negative = ((1 << o.num_pools) - 1) & ~o.outcomes
    rows = m.rows
    return {t for t in candidates if (rows[t] & negative).bit_count() <= tolerance}


def _misses(
    columns: Sequence[int], classes: Iterable[tuple[int, int]], outcomes: int, every: int
) -> Iterator[int]:
    """For each class of points, the blocks whose point in it is negative.

    A class partitions the blocks, so this is the OR of its negative
    columns or, when fewer of its pools are positive, every block outside
    the OR of its positive columns."""
    for start, stop in classes:
        width = stop - start
        positive = outcomes >> start & ((1 << width) - 1)
        if 2 * positive.bit_count() < width:
            side, misses = positive, every
        else:
            side, misses = positive ^ ((1 << width) - 1), 0
        # the columns of a class are disjoint, so XOR adds or removes each
        while side:
            low = side & -side
            side ^= low
            misses ^= columns[start + low.bit_length() - 1]
        yield misses


# the bit positions of each byte value, and a table that maps every
# nonzero byte to 1
_BITS = tuple(tuple(i for i in range(8) if byte >> i & 1) for byte in range(256))
_NONZERO = bytes([0] + [1] * 255)


def _positions(mask: int) -> set[int]:
    """The set bits of ``mask``, a table lookup for each nonzero byte.

    This costs far less than peeling one bit at a time off a T-bit
    integer. Against one ``str.find`` per bit of its binary string it
    takes a quarter of the time for a few bits and 0.6 of it for every
    bit, and up to 1.2 times it for a few hundred to a few thousand
    scattered bits."""
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    nonzero = data.translate(_NONZERO)
    found = set()
    i = nonzero.find(1)
    while i >= 0:
        for bit in _BITS[data[i]]:
            found.add(8 * i + bit)
        i = nonzero.find(1, i + 1)
    return found


@dataclass(frozen=True)
class SimulationStats:
    """Tallies from repeated encode/corrupt/decode rounds."""

    trials: int
    exact: int
    false_positives: int
    false_negatives: int
    tolerance: int
    max_errors: int

    @property
    def exact_rate(self) -> float:
        return self.exact / self.trials


def simulate(
    m: IncidenceMatrix,
    r: int,
    d: int,
    trials: int,
    seed: int = 0,
    max_errors: int | None = None,
) -> SimulationStats:
    """Monte-Carlo decoder evaluation on one matrix.

    Each trial draws a defective set of size uniform in 0..r and an error
    count uniform in 0..max_errors (default floor(d/2), the most the
    decoder guarantees against), then decodes with tolerance floor(d/2).
    Deterministic for a fixed seed. If m really is a (1, r; d)-cover-free
    family and max_errors stays at the default, the exact-recovery rate
    is 1.0; raising max_errors leaves the guarantee behind and simply
    reports what happens.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= r <= m.num_blocks:
        raise ValueError(f"need 0 <= r <= {m.num_blocks}, got r={r}")
    if d < 0:
        raise ValueError("d must be non-negative")
    tolerance = d // 2
    if max_errors is None:
        max_errors = d // 2
    if not 0 <= max_errors <= m.num_points:
        raise ValueError(f"max_errors must lie in [0, {m.num_points}]")
    rng = random.Random(f"gt-sim:{seed}")
    exact = 0
    false_positives = 0
    false_negatives = 0
    for _ in range(trials):
        defectives = set(rng.sample(range(m.num_blocks), rng.randint(0, r)))
        outcome = encode(m, defectives)
        count = rng.randint(0, max_errors)
        if count:
            outcome = inject_errors(outcome, count, seed=rng.getrandbits(32))
        decoded = decode(m, outcome, tolerance)
        if decoded == defectives:
            exact += 1
        false_positives += len(decoded - defectives)
        false_negatives += len(defectives - decoded)
    return SimulationStats(
        trials=trials,
        exact=exact,
        false_positives=false_positives,
        false_negatives=false_negatives,
        tolerance=tolerance,
        max_errors=max_errors,
    )
