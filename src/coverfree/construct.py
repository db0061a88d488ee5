"""Generators for cover-free families and the combinatorial gadgets behind
them: orthogonal arrays, packing designs and Reed-Solomon codes. The
families come from subset systems, middle layers, codes, recursive
hash-family composition and random sampling.

A code of large distance gives a family: its words are the columns of an
orthogonal array, :func:`oa_to_packing` turns each column into a block, and
:func:`packing_to_cff` reads off r. :func:`rs_cff` gives the same family
for (shortened) Reed-Solomon codes column-first: each point's blocks are
read off one coordinate of the words, and no array or packing is built.

Every generator returns ``(matrix, claim)``; claims are what the checkers in
:mod:`coverfree.verify` are meant to confirm, and the probabilistic
generators refuse to return anything unverified.
"""

from __future__ import annotations

import random
import sys
from array import array
from dataclasses import dataclass, replace
from functools import partial
from itertools import combinations
from math import comb, factorial, gcd, log2
from typing import Callable, Iterator, Sequence

from .core import CFFParams, IncidenceMatrix, _from_columns
from .gf import field
from .verify import BudgetExceededError, DEFAULT_BUDGET, DEFAULT_TRIALS, check_claim

__all__ = [
    "ConstructionFailedError",
    "DEFAULT_MAX_BLOCKS",
    "OrthogonalArray",
    "PackingDesign",
    "oa_construct",
    "oa_to_packing",
    "packing_to_cff",
    "random_cff",
    "random_uniform_cff",
    "recursive_cff",
    "rs_cff",
    "sperner_cff",
    "trivial_cff",
]

# the most blocks a builder will enumerate; trivial_cff enumerates points
DEFAULT_MAX_BLOCKS = 10**6


class ConstructionFailedError(RuntimeError):
    """All attempts of a randomized construction failed verification."""

    def __init__(self, attempts: int, message: str) -> None:
        super().__init__(message)
        self.attempts = attempts


# ---------------------------------------------------------------------------
# deterministic subset systems

def trivial_cff(n: int, w: int, r: int) -> tuple[IncidenceMatrix, CFFParams]:
    """A (w, r; 0)-cover-free family with n blocks over min(C(n,w), C(n,r))
    points. Each point's column is one subset of the blocks: every
    w-subset, or every (n-r)-subset when those are fewer. Disjoint block
    sets W and R of sizes w and r share the point whose column is W, or
    the one whose column is the complement of R, which holds W."""
    if w < 1 or r < 1:
        raise ValueError("w and r must be positive")
    if w + r > n:
        raise ValueError(f"need w + r <= n, got {w} + {r} > {n}")
    size = w if comb(n, w) <= comb(n, r) else n - r
    N = comb(n, size)
    if N > DEFAULT_MAX_BLOCKS:
        raise BudgetExceededError(f"{N} points exceed the cap of {DEFAULT_MAX_BLOCKS}")
    m = _from_columns(tuple(sum(1 << i for i in s) for s in combinations(range(n), size)), n)
    return m, CFFParams(w=w, r=r, d=0, N=N, T=n)


def sperner_cff(N: int) -> tuple[IncidenceMatrix, CFFParams]:
    """All floor(N/2)-subsets of N points: a (1, 1; 0)-cover-free family
    with C(N, floor(N/2)) blocks, which is the maximum possible for N
    points (no middle-layer subset contains another)."""
    if N < 2:
        raise ValueError("need at least two points")
    half = N // 2
    T = comb(N, half)
    if T > DEFAULT_MAX_BLOCKS:
        raise BudgetExceededError(f"{T} blocks exceed the cap of {DEFAULT_MAX_BLOCKS}")
    m = IncidenceMatrix.from_blocks(N, combinations(range(N), half))
    return m, CFFParams(w=1, r=1, d=0, N=N, T=T, k=half)


# ---------------------------------------------------------------------------
# orthogonal arrays and packing designs

@dataclass(frozen=True)
class OrthogonalArray:
    """Strength-t array: k rows over s symbols with s^t columns such that
    any t rows, read down the columns, enumerate every t-tuple exactly
    once."""

    t: int
    k: int
    s: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def num_columns(self) -> int:
        return len(self.rows[0])


def _poly_values(q: int, u: int, length: int) -> Iterator[tuple[int, ...]]:
    """The values of all q^u polynomials of degree < u over GF(q), one row
    per coordinate. Polynomial c has the base-q digits of c as coefficients
    (degree 0 first), so f_c(x) = (c mod q) + x * f_{c // q}(x), a Horner
    step along the index: the q words c = hi*q .. hi*q + q-1 are the row
    ``F.add[x * f_hi(x)]``. Coordinate x < q evaluates at field element x;
    at length q+1 the final row holds the coefficient of x^(u-1), the point
    at infinity."""
    F = field(q)
    for x in range(min(length, q)):
        row = list(range(q))
        mul_x = F.mul[x]
        for hi in range(1, q ** (u - 1)):
            row.extend(F.add[mul_x[row[hi]]])
        yield tuple(row)
    if length == q + 1:
        top = q ** (u - 1)
        yield tuple(c // top for c in range(q**u))


def oa_construct(q: int, t: int) -> OrthogonalArray:
    """OA(t, q+1, q) by polynomial evaluation over GF(q).

    Column c encodes the polynomial whose base-q digits of c are its
    coefficients (degree 0 first). Row x holds f(x) for each field element
    x; the final row holds the coefficient of x^(t-1). Any t rows determine
    the polynomial uniquely (interpolation, with the leading coefficient
    substituting for one evaluation), which is the strength-t property.
    Valid for every 1 <= t <= q.
    """
    field(q)  # a q that is not a prime power is refused first
    if not 1 <= t <= q:
        raise ValueError(f"need 1 <= t <= q, got t={t} with q={q}")
    return OrthogonalArray(t=t, k=q + 1, s=q, rows=tuple(_poly_values(q, t, q + 1)))


@dataclass(frozen=True)
class PackingDesign:
    """t-(v, k, 1) packing: blocks of size k over v points with every
    t-subset of points inside at most one block."""

    v: int
    k: int
    t: int
    blocks: tuple[tuple[int, ...], ...]


def oa_to_packing(oa: OrthogonalArray) -> PackingDesign:
    """Column (s_0, ..., s_{k-1}) becomes the block {i*s + s_i : i < k} over
    k*s points (point group i holds the s possible symbols of row i). Two
    columns agree in fewer than t rows, so the blocks form a
    t-(k*s, k, 1) packing with s^t blocks."""
    blocks = tuple(
        tuple(i * oa.s + oa.rows[i][j] for i in range(oa.k))
        for j in range(oa.num_columns)
    )
    return PackingDesign(v=oa.k * oa.s, k=oa.k, t=oa.t, blocks=blocks)


def packing_to_cff(p: PackingDesign, d: int = 0) -> tuple[IncidenceMatrix, CFFParams]:
    """(1, r; d)-cover-free family from a t-(v, k, 1) packing, with
    r = floor((k-d-1)/(t-1)): distinct blocks share at most t-1 points, so
    r blocks can cover at most r*(t-1) <= k-d-1 points of another block."""
    if p.t < 2:
        raise ValueError("packing strength must be at least 2")
    if d < 0:
        raise ValueError("d must be non-negative")
    r = (p.k - d - 1) // (p.t - 1)
    if r < 1:
        raise ValueError(f"need k >= d + t for a usable family, got k={p.k}, d={d}, t={p.t}")
    m = IncidenceMatrix.from_blocks(p.v, p.blocks)
    return m, CFFParams(w=1, r=r, d=d, N=p.v, T=len(p.blocks), k=p.k)


# ---------------------------------------------------------------------------
# Reed-Solomon families

def rs_cff(q: int, N: int, r: int, d: int = 0) -> tuple[IncidenceMatrix, CFFParams]:
    """(r; d)-cover-free family from a Reed-Solomon code of length N.

    The code evaluates all polynomials of degree < u over GF(q) at N
    points, where u = floor((N - d - 1)/r) + 1 is the largest exponent
    whose minimum distance D = N - u + 1 still supports r (two words share
    at most u - 1 positions, so r blocks cover at most r*(u-1) <= N - d - 1
    points of another block). At N = q+1 the final coordinate is the
    leading coefficient, the point at infinity; a length below q + 1 is
    the shortened code, which evaluates at the first N field elements.
    Yields q**u blocks of size N over q * N points.

    The words are the columns of an orthogonal array of strength u with
    N rows (any u positions fix the polynomial), so the family is the one
    ``packing_to_cff(oa_to_packing(...), d)`` gives: word c becomes the
    block {i*q + c_i}. The packing supports floor((N - d - 1)/(u - 1)) >= r;
    the claim carries the requested r. The matrix is built column-first:
    point i*q + v holds the words whose coordinate i is v, read off that
    coordinate's values in one pass, and the rows are those columns
    transposed, which the matrix keeps as its ``columns``. Its
    ``symmetries`` are the e * u translations by a * x^j (a in a
    GF(p)-basis of GF(q), j < u), which act on the blocks transitively;
    once the B-sets that hold block 0 pass, ``is_cff`` and ``max_r`` check
    them and need to search no other B-set.
    """
    if r < 1:
        raise ValueError("r must be positive")
    if d < 0:
        raise ValueError("d must be non-negative")
    if not 2 <= N <= q + 1:
        raise ValueError(f"need 2 <= N <= q+1, got N={N} with q={q}")
    F = field(q)  # a q that is not a prime power is refused before u is
    u = (N - d - 1) // r + 1
    if u < 2:
        raise ValueError(
            f"no usable exponent: need length - d - 1 >= r, got length {N}, d={d}, r={r}"
        )
    if u > q:
        raise ValueError(
            "degenerate exponent u > q (leading coefficients are invisible to "
            "evaluation); shorten the code or increase r or d"
        )
    T = q**u
    if T > DEFAULT_MAX_BLOCKS:
        raise BudgetExceededError(f"{T} blocks exceed the cap of {DEFAULT_MAX_BLOCKS}")
    # point i*q + v holds the words whose coordinate i is v: one text of
    # 0/1 per point, word T-1 first so that int() reads word c as bit c.
    # word a * q^j is the polynomial a * x^j, so the translation by it sends
    # point i*q + v to i*q + (v + coordinate i of that word); at the point at
    # infinity that coordinate is its top coefficient, as the map needs
    shifts = [a * q**j for j in range(u) for a in (F.p**i for i in range(F.e))]
    columns, maps = [], [[] for _ in shifts]
    for i, values in enumerate(_poly_values(q, u, N)):
        word = bytes(values)[::-1]
        for v in range(q):
            columns.append(int(word.translate(b"0" * v + b"1" + b"0" * (255 - v)), 2))
        for image, c in zip(maps, shifts):
            image.extend(i * q + v for v in F.add[values[c]])
    m = _from_columns(tuple(columns), T, tuple(map(tuple, maps)))
    return m, CFFParams(w=1, r=r, d=d, N=q * N, T=T, k=N)


# ---------------------------------------------------------------------------
# recursion by separating hash families

def _lift(
    below: Callable[[int], tuple[int, ...]], n: int, v: int, functions: int, a: int, b: int
) -> tuple[int, ...]:
    """The point map that the column translation (x, y) -> (x + a, y + b)
    induces on one round of :func:`recursive_cff` over a base of n blocks
    on v points: segment c holds base block x + c*y mod n, which shifts by
    a + c*b, so segment c, at points c*v .. c*v + v-1, moves by
    ``below(a + c*b mod n)``, the base's point map that adds that shift
    to every block index."""
    image: list[int] = []
    for c in range(functions):
        image.extend(c * v + p for p in below((a + c * b) % n))
    return tuple(image)


def recursive_cff(
    w: int, r: int, d: int = 0, levels: int = 0
) -> tuple[IncidenceMatrix, CFFParams]:
    """``levels`` rounds of hash-family composition over a subset-system base.

    The base ground size is n0 = min{n >= w+r : gcd(n, (w*r)!) = 1}; the
    base is ``trivial_cff(n0, w, r)``, a (w, r; 0)-family with N0 =
    min(C(n0, w), C(n0, r)) points and n0 blocks, point-replicated d+1
    times to reach separation d. Each round squares the block count, giving
    a (w, r; d)-family with (w*r+1)^levels * (d+1) * N0 points and
    n0^(2^levels) blocks.

    A round substitutes the base, n blocks on v points, into the w*r+1
    hash functions f_c(x, y) = x + c*y mod n on the n^2 columns (x, y):
    block x*n + y holds, in segment c, at points c*v .. c*v + v-1, the base
    block f_c(x, y). Two distinct columns collide under at most one c:
    subtracting two collisions gives (c - c')*(y - y') = 0 mod n, and
    0 < |c - c'| <= w*r is invertible because n = n0^(2^l) is coprime to
    (w*r)! as n0 is. Disjoint sets of w and r blocks make at most w*r
    colliding pairs, which spoil at most w*r of the w*r+1 functions. Under
    a function left, the two sides map to disjoint sets of base blocks, so
    the base keeps d+1 points of the w side's intersection outside the r
    side's union in that function's segment.

    The matrix's ``symmetries`` are translations. At level 0 it is the
    rotation i -> i+1 of the n0 ground elements, a map of the subset
    points, widened over the d+1 copies. At level l >= 1 they are the
    steps (u, 0) and (0, u) on the columns (x, y), where u is the product
    of the block counts of the levels below l - 1 (1 at level 1, n0 at
    level 2). Under the step (a, b), segment c shifts its block index by
    a + c*b, a multiple of u, and the level below has a symmetry adding
    any such multiple to every block index: the rotation at level 0, and
    above it a step (k, 0), since adding k*u*n to x*n + y gives
    (x + k*u)*n + y. A shift by 1 at level 1 would carry from y into x, so
    at level 2 the steps (1, 0) and (0, 1) are not symmetries and the
    group is not transitive: ``is_cff`` and ``max_r`` search one orbit of
    blocks at a time.
    """
    if w < 1 or r < 1:
        raise ValueError("w and r must be positive")
    if d < 0:
        raise ValueError("d must be non-negative")
    if levels < 0:
        raise ValueError("levels must be non-negative")
    wr_fact = factorial(w * r)
    n0 = w + r
    while gcd(n0, wr_fact) != 1:
        n0 += 1
    if n0 ** (2**levels) > DEFAULT_MAX_BLOCKS:
        raise BudgetExceededError(
            f"{n0}^(2^{levels}) blocks exceed the cap of {DEFAULT_MAX_BLOCKS}"
        )
    m, _ = trivial_cff(n0, w, r)
    # point p is the subset columns[p] of the ground elements, as a mask
    subsets = m.columns
    index = {mask: p for p, mask in enumerate(subsets)}
    full = (1 << n0) - 1
    copies = d + 1

    def rotate(t: int) -> tuple[int, ...]:
        image: list[int] = []
        for mask in subsets:
            p = index[(mask << t | mask >> (n0 - t)) & full]
            image.extend(range(p * copies, p * copies + copies))
        return tuple(image)

    if d > 0:
        m = m.replicate_points(copies)
    # shift(t) adds t, a multiple of ``step``, to every block index
    shift, step, symmetries = rotate, 1, (rotate(1),)
    functions = w * r + 1
    for _ in range(levels):
        n, v = m.num_blocks, m.num_points
        # segments[c][i] is base block i moved to segment c; the segments
        # of a block share no point, so their sum is their union
        segments = [[row << (c * v) for row in m.rows] for c in range(functions)]
        m = IncidenceMatrix(
            v * functions,
            tuple(
                sum(segment[(x + c * y) % n] for c, segment in enumerate(segments))
                for x in range(n)
                for y in range(n)
            ),
        )
        lift = partial(_lift, shift, n, v, functions)
        symmetries = (lift(step, 0), lift(0, step))

        def shift(t: int, lift=lift, n=n) -> tuple[int, ...]:
            return lift(t // n, 0)

        step *= n
    claim = CFFParams(w=w, r=r, d=d, N=m.num_points, T=m.num_blocks)
    return replace(m, symmetries=symmetries), claim


# ---------------------------------------------------------------------------
# probabilistic constructions

def _verified_attempts(
    claim: CFFParams,
    tag: str,
    seed: int,
    max_attempts: int,
    draw_rows: Callable[[random.Random, int], list[int]],
    budget: int,
    trials: int,
) -> tuple[IncidenceMatrix, CFFParams]:
    """Draw T rows with ``draw_rows(rng, T)`` until ``check_claim`` accepts
    the matrix. Attempt a draws from the stream ``tag:seed:a`` and is
    checked with seed a, so results do not depend on how attempts are
    scheduled. An attempt's stream serves its T rows and nothing else, so
    ``draw_rows`` may take more of it than its rows need: the rows are the
    whole contract, not the state the stream is left in."""
    if max_attempts < 1:
        raise ValueError("max_attempts must be positive")
    for attempt in range(max_attempts):
        rng = random.Random(f"{tag}:{seed}:{attempt}")
        m = IncidenceMatrix(claim.N, tuple(draw_rows(rng, claim.T)))
        if check_claim(m, claim, budget=budget, trials=trials, seed=attempt):
            return m, claim
    raise ConstructionFailedError(
        max_attempts, f"no verified family in {max_attempts} attempts (seed={seed})"
    )


def _randrange_draws(rng: random.Random, n: int, count: int) -> Sequence[int]:
    """The values of ``count`` calls of ``rng.randrange(n)``, 0 < n < 2**32,
    read from a few bulk draws; the stream is left further on than the
    calls would leave it.

    On CPython, ``randrange(n)`` makes one try per 32-bit Mersenne word: a
    try keeps the word's top ``n.bit_length()`` bits and is made again
    while they are n or more. ``getrandbits(32 * m)`` returns the next m
    words, least significant first, so each word of the bulk draw is one
    try, in the order the calls would make them.
    """
    bits = n.bit_length()
    draws: bytearray | list[int]
    if n < 256:
        # a word's top byte b tries b >> (8 - bits): the table maps each
        # byte to that value, or to 0xFF when the try is made again
        table = b"".join(bytes([v]) * (1 << (8 - bits)) for v in range(n)).ljust(256, b"\xff")
        draws, order = bytearray(), "little"
    else:
        draws, order, shift = [], sys.byteorder, 32 - bits
    while len(draws) < count:
        # the words that, on average, hold the draws still missing
        words = ((count - len(draws)) << bits) // n
        data = rng.getrandbits(32 * words).to_bytes(4 * words, order)
        if n < 256:
            draws += data[3::4].translate(table).replace(b"\xff", b"")
        else:
            draws += [v for v in (word >> shift for word in array("I", data)) if v < n]
    return draws[:count]


def _uniform_rows(ell: int, k: int, rng: random.Random, T: int) -> list[int]:
    """T rows of k groups of ell points, one point per group: the rows that
    drawing each group's point with ``rng.randrange(ell)``, group by group
    and row by row, gives.

    A row is read with one ``int(..., 2)`` of its groups' ell-character
    strings, group k - 1 first; the string of a group whose point is v has
    its 1 at v from the right."""
    draws = _randrange_draws(rng, ell, T * k)
    ones = "0" * (ell - 1) + "1" + "0" * (ell - 1)
    piece: Callable[[int], str]
    if ell < 256:
        piece = [ones[v : v + ell] for v in range(ell)].__getitem__
    else:  # a table would hold ell**2 characters
        def piece(v: int) -> str:
            return ones[v : v + ell]
    return [
        int("".join(map(piece, reversed(draws[i : i + k]))), 2) for i in range(0, T * k, k)
    ]


def random_cff(
    w: int,
    r: int,
    d: int,
    T: int,
    seed: int = 0,
    max_attempts: int = 50,
    *,
    N: int | None = None,
    budget: int = DEFAULT_BUDGET,
    trials: int = DEFAULT_TRIALS,
) -> tuple[IncidenceMatrix, CFFParams]:
    """Random (w, r; d)-family with T blocks: every entry is 1 with
    probability w/(w+r), independently.

    N defaults to the smallest integer exceeding
    (w+r) * log2(T) / (-(d+1) * log2(p)) with
    p = 1 - w^w * r^r / (w+r)^(w+r), the positive-probability threshold for
    this density. Each attempt draws from its own stream keyed by (seed,
    attempt), so results are reproducible no matter how attempts are
    scheduled; every returned matrix has been verified (exhaustively when the
    plain scan fits the node budget, sampled past it, since a random matrix
    carries no symmetries for an orbit proof).
    """
    if T < w + r:
        raise ValueError(f"need T >= w + r, got T={T}")
    if N is None:
        p = 1.0 - (w**w * r**r) / float((w + r) ** (w + r))
        threshold = (w + r) * log2(T) / (-(d + 1) * log2(p))
        N = int(threshold) + 1
    density = w / (w + r)
    return _verified_attempts(
        CFFParams(w=w, r=r, d=d, N=N, T=T),
        "cff-random",
        seed,
        max_attempts,
        lambda rng, T: [
            sum(1 << j for j in range(N) if rng.random() < density) for _ in range(T)
        ],
        budget,
        trials,
    )


def random_uniform_cff(
    ell: int,
    w: int,
    r: int,
    T: int,
    seed: int = 0,
    max_attempts: int = 50,
    *,
    budget: int = DEFAULT_BUDGET,
    trials: int = DEFAULT_TRIALS,
) -> tuple[IncidenceMatrix, CFFParams]:
    """Random uniform (w, r; d)-family: k groups of ell points, one uniform
    point per group in every block, so blocks have exactly k points.

    With p = (ell-1)^r / ell^(w+r-1), the group count k is the least
    integer exceeding (8/p) * ((w+r) log2(T) - log2(w!) - log2(r!)) and the
    claimed separation is d = floor(p*k/2) + 1. Verified before returning,
    like :func:`random_cff`.

    Draw order: attempt a's rows are those that ``rng.randrange(ell)``,
    called for groups 0 to k - 1 of block 0, then of block 1, and so on,
    gives from ``random.Random(f"cff-uniform:{seed}:{a}")``. The rows are
    drawn in one bulk pass over that stream and are the same bytes; ell is
    below 2**32, so that every try of a draw is one word of the stream.
    """
    if not 2 <= ell < 2**32:
        raise ValueError("ell must be at least 2 and below 2**32")
    if T < w + r:
        raise ValueError(f"need T >= w + r, got T={T}")
    p = (ell - 1) ** r / float(ell ** (w + r - 1))
    k = int((8.0 / p) * ((w + r) * log2(T) - log2(factorial(w)) - log2(factorial(r)))) + 1
    d = int(p * k / 2) + 1
    return _verified_attempts(
        CFFParams(w=w, r=r, d=d, N=k * ell, T=T, k=k),
        "cff-uniform",
        seed,
        max_attempts,
        partial(_uniform_rows, ell, k),
        budget,
        trials,
    )
