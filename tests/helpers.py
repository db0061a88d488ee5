"""Small builders and brute-force oracles the test modules share."""

from itertools import combinations, pairwise
from math import log2

from coverfree.core import IncidenceMatrix, _from_columns
from coverfree.verify import CheckResult, ViolationWitness


def identity(n):
    """n singleton blocks over n points: block i is {i}."""
    return IncidenceMatrix(n, tuple(1 << i for i in range(n)))


def transpose(m):
    """``m`` with the roles of blocks and points swapped; its columns are
    ``m.rows``, kept as their cache."""
    return _from_columns(m.rows, m.num_points)


def block_sizes(m):
    return tuple(row.bit_count() for row in m.rows)


def row_strings(m):
    """Each row as N characters of 0/1, point 0 first."""
    n = m.num_points
    return [format(row, f"0{n}b")[::-1] for row in m.rows]


def uniform_rows_per_draw(ell, k, rng, T):
    """Reference for ``construct._uniform_rows``: T rows of k groups of ell
    points, each group's point drawn with its own ``rng.randrange(ell)``
    call, group by group and row by row."""
    return [sum(1 << (g * ell + rng.randrange(ell)) for g in range(k)) for _ in range(T)]


def entries(report):
    """A bound report's entries by name."""
    return {e.name: e for e in report.entries}


def is_disjunct(m, i, j):
    """Brute-force oracle: whether ``m`` is (i, j)-disjunct, that is, every
    two disjoint point sets P, Q with |P| <= i and |Q| <= j have a block
    holding all of P and none of Q. The transpose of an (i, j)-disjunct
    matrix is an (i, j)-cover-free family and vice versa. A failure's
    witness holds the first such (P, Q), by |P|, P, |Q| and Q, in its row
    fields and replays against ``transpose(m)``."""
    points = range(m.num_points)
    for p_size in range(i + 1):
        for p_set in combinations(points, p_size):
            p_mask = sum(1 << x for x in p_set)
            rest = [x for x in points if x not in p_set]
            for q_size in range(j + 1):
                for q_set in combinations(rest, q_size):
                    q_mask = sum(1 << x for x in q_set)
                    if not any(row & p_mask == p_mask and not row & q_mask for row in m.rows):
                        return CheckResult(False, ViolationWitness(p_set, q_set, 0))
    return CheckResult(True)


def modular_hash_table(n, w, r):
    """Reference for the hash functions of one ``recursive_cff`` round: the
    w*r+1 functions f_c(x, y) = x + c*y mod n on the n^2 columns (x, y),
    column index x*n + y, one row of symbols per function."""
    return [[(x + c * y) % n for x in range(n) for y in range(n)] for c in range(w * r + 1)]


def hash_compose(base, table):
    """Reference for one ``recursive_cff`` round: column j of the hash table
    becomes the block that holds, for each function f, base block f(j) at
    points f*v .. f*v + v-1, where v is the base's point count."""
    v = base.num_points
    rows = []
    for j in range(len(table[0])):
        mask = 0
        for f, row in enumerate(table):
            mask |= base.rows[row[j]] << (f * v)
        rows.append(mask)
    return IncidenceMatrix(v * len(table), tuple(rows))


def check_orthogonal_array(oa):
    """Brute-force oracle: whether ``oa`` has k rows of s^t entries and any
    t of its rows show every t-tuple of symbols once."""
    want = oa.s**oa.t
    if len(oa.rows) != oa.k or any(len(row) != want for row in oa.rows):
        return False
    for selection in combinations(range(oa.k), oa.t):
        seen = {tuple(oa.rows[i][j] for i in selection) for j in range(want)}
        if len(seen) != want:
            return False
    return True


def rs_degree(n, r, d):
    """rs_cff's u: its words are the polynomials of degree < u."""
    return (n - d - 1) // r + 1


# every rs_cff family with at most 3000 blocks, prime and prime-power q,
# as rs_cff's arguments (q, N, r, d); a length below q + 1 is the shortened code
RS_UP_TO_3000 = [
    (q, n, r, d)
    for q in (2, 3, 4, 5, 7, 8, 9)
    for n in range(2, q + 2)
    for r in range(1, 4)
    for d in range(3)
    if 2 <= rs_degree(n, r, d) <= q and q ** rs_degree(n, r, d) <= 3000
]


def rs_rate(q, n, r, d):
    """The rate log2(T)/(q n) of the (r; d) Reed-Solomon family of length n
    over GF(q), on its q n points, when r divides n - d - 1:
    (n + r - d - 1)/(r q n) * log2(q). At n = q + 1 - s it is the rate of
    the code shortened by s."""
    return (n + r - d - 1) / (r * q * n) * log2(q)


def block_maps(m):
    """Reference for ``verify._block_maps``, without its node charge: each
    row keyed by its points' bytes, highest first, and each image looked up
    by its bytes, sorted only on a miss. The block maps as lists, or None
    when two rows are equal or some symmetry is not a bijection of the
    points that maps every row onto a row."""
    n, T = m.num_points, m.num_blocks
    points = bytearray()
    ends = [0]
    for row in m.rows:
        while row:
            top = row.bit_length() - 1
            points.append(top)
            row ^= 1 << top
        ends.append(len(points))
    flat = bytes(points)
    index = {flat[a:b]: i for i, (a, b) in enumerate(pairwise(ends))}
    if len(index) != T:
        return None
    maps = []
    for perm in m.symmetries:
        try:
            table = bytes(perm)
        except (TypeError, ValueError):
            return None
        if sorted(table) != list(range(n)):
            return None
        image = flat.translate(table + bytes(range(n, 256)))
        sigma = []
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
