import hashlib
import random
from dataclasses import replace
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverfree import construct
from coverfree.bounds import sperner_T
from coverfree.core import CFFParams, IncidenceMatrix
from coverfree.construct import (
    ConstructionFailedError,
    _poly_values,
    _randrange_draws,
    _uniform_rows,
    OrthogonalArray,
    PackingDesign,
    oa_construct,
    oa_to_packing,
    packing_to_cff,
    random_cff,
    random_uniform_cff,
    recursive_cff,
    rs_cff,
    sperner_cff,
    trivial_cff,
)
from coverfree.gf import field
from coverfree.verify import BudgetExceededError, is_cff, is_k_uniform
from helpers import (
    block_sizes,
    check_orthogonal_array,
    hash_compose,
    identity,
    is_disjunct,
    modular_hash_table,
    rs_degree,
    transpose,
    uniform_rows_per_draw,
)


def check_packing(p):
    """Reference oracle: block shape, and every t-subset of points inside at
    most one block."""
    seen = set()
    for block in p.blocks:
        if len(set(block)) != p.k or any(not 0 <= x < p.v for x in block):
            return False
        for sub in combinations(sorted(block), p.t):
            if sub in seen:
                return False
            seen.add(sub)
    return True


def check_separating(table, w, r):
    """Reference oracle: every disjoint (w, r) column pair has a row that
    maps the two sides to disjoint symbol sets."""
    cols = range(len(table[0]))
    for c1 in combinations(cols, w):
        rest = [c for c in cols if c not in c1]
        for c2 in combinations(rest, r):
            if not any(not ({row[c] for c in c1} & {row[c] for c in c2}) for row in table):
                return False
    return True


def subset_masks(n, size):
    return tuple(sum(1 << i for i in s) for s in combinations(range(n), size))


# sha256 of repr((matrix, claim)) and of repr(matrix.symmetries) at
# recursive_cff(w, r, d, levels), recorded before the hash-family
# composition was folded into it
RECURSIVE_DIGESTS = {
    (1, 2, 0, 0): (
        "85cdd0cf422c839688aeb78a6db8b6368b0ac48db993519dc4710ebd29899e79",
        "d2d6cd463f6f672274746d25cd046aab3dbf276bab3f70365ac6b193c5250614",
    ),
    (1, 2, 1, 0): (
        "44d2689288d38353a21071e25a7d639099a23cade9160d11a28686886397cdc0",
        "de1ee3431b8b41f4853866f47ca2b7e1c4b75229e44621d2656cf07d2cbe5bfb",
    ),
    (1, 1, 0, 1): (
        "0484de1e50f357ff9e7cad016a2755021b86d8b3d09cd1228ecf0c83077af66f",
        "950671067ed8467b364bcf3b1fcb5c2fd631c69efc2ccfb07f4125864595a2ef",
    ),
    (2, 2, 0, 1): (
        "76e7e1d9eeabd86d263e23e919ee8d4e26b6b03cf06cd8708ad2dc4c60279fb6",
        "8f1d2a26b7108e931a10bf55282fce1a3f1accec0b8d97b460105221e879c650",
    ),
    (1, 2, 0, 2): (
        "a73af67ab168cb2a9cc7d6f53796d7ba92f3fa1d0a57c2126454f2d01d561afe",
        "7407a7212c20957a193c5724bd2e00757ecefec5b15cfb7a0331e864b25e76d5",
    ),
    (1, 2, 1, 2): (
        "23b7792c24feeed0a6a7801017c2481418f5111f01d5c3c8b8dccf3f401d0606",
        "cf322e3542769b735500a182cac57f364b4fe078169b8b455ee5cda9aa0fea7a",
    ),
    (2, 2, 0, 2): (
        "514e261cde9a0009ddedc61361967677f0428224e7437d1ba0fba7aac9ecb2a1",
        "921941ec47c4d6036b3069e76c24888c4e59e505f473cd206a48d547ba249b19",
    ),
    (1, 1, 0, 3): (
        "c23ec689d05e72497bfc72689c2c020a849428ffe4b3679e27f6020e38f2d36a",
        "7a5c22852964f94555cb48551bc381e355bb68d9b0ef1bdb55129c1934495256",
    ),
    (1, 1, 2, 2): (
        "4dc250d9ba90b35d5eb9a4e7325cdf6c17bc94b44e6f973e943ffb03c1575b13",
        "2308a684ed4be093e41691004a5e2e701e3bcd25bb060c37d8b3815d4d147488",
    ),
}

# sha256 of repr((matrix, claim)) and of repr(matrix.columns) at
# trivial_cff(n, w, r), recorded before it built from its columns
TRIVIAL_DIGESTS = {
    (5, 2, 2): (
        "bdae5f6e0ab5cc2490b161bd1867c5f8aac3117395fb0bb81a77d060ba5e6bfd",
        "4d44ba32021f3025e5623214d4969ea542aeff6d99b5095cd296ec5a0fac5eed",
    ),
    (6, 2, 3): (
        "a2bb7dd44466a0fa91b2b46396d83092859b34b72381fe8210e1342918e04c5d",
        "964ef8125dc8cc0908f78a6844214578807f74f20dcf88e3473ef475108c107b",
    ),
    (7, 3, 2): (
        "766709de0a458bcf780cb0b17f456fe1473af78c958f7625f2d76813992eebe5",
        "34f67b5d7aca632d262f22fb4c2c8a35224537e004cadfe1c2ff01914289e664",
    ),
    (8, 1, 3): (
        "9ea050168e71da6192574fd35c964d18179de4717137f4d8600d34898fc91c22",
        "60d9edfa4b5446e88471ff2d7adbabe44f99bda287aef16a9252edcae526995c",
    ),
}


def sha256(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


# sha256 of repr(matrix.symmetries) at rs_cff(q, N, r, d), recorded while
# the translations were built by repeated multiplication on their own: fields
# with e = 1, 2, 3 and 4, shortened and full-length codes, u = 2, 3 and 4,
# and the screening design. The verifier accepts the maps in any order, so
# only these pins hold their order.
RS_SYMMETRY_DIGESTS = {
    (3, 4, 3, 0): "060c204d0f723d1cbad58b14493c16e80260c14c5356c89d6fed44d540d56fb6",
    (4, 5, 2, 0): "31b15c502d39730436362e36c2b1f9c71d0218b42d8497a10f7240da9954f221",
    (4, 3, 2, 0): "e0885686791e2b5a1650ca903049f04be1555cec3c179f01030f8f5d6cfdf844",
    (5, 4, 1, 0): "77e7ad007afe736c81bbaa3f3dfa2cfe1ad685b67d2eb2da90126be7367555ec",
    (8, 9, 3, 0): "95eaf28eda8a99af69744e232e159e8e9002e2c70643d85f1c04cec8c153e525",
    (8, 6, 2, 1): "01825371f6bd5a13aae8fab7eb7a1e43d6026644589d50bc69879f1e17f61517",
    (9, 10, 3, 0): "f68dcabbdc11775f4b37a6c2c1dda478a80f019918693b6eddecee0fa32baa17",
    (16, 17, 8, 0): "89a61063d30fbf75bfb7018b32dd20eececca4322d648513da259fa1e8bac4b1",
    (16, 10, 4, 0): "c00604d1f6af58ff5872e42cb6ee73f871d846121f7f36455ed156710f6c4713",
    (13, 14, 3, 4): "044f9a2df73782256f9fb8443d7c620316020effe8274e375875d0e618f2d890",
}


@pytest.mark.parametrize("args", list(RS_SYMMETRY_DIGESTS))
def test_rs_symmetries_are_pinned(args):
    m, _ = rs_cff(*args)
    assert sha256(m.symmetries) == RS_SYMMETRY_DIGESTS[args]


@pytest.mark.parametrize("args", list(RECURSIVE_DIGESTS))
def test_recursive_families_are_pinned(args):
    m, claim = recursive_cff(*args)
    assert (sha256((m, claim)), sha256(m.symmetries)) == RECURSIVE_DIGESTS[args]


@pytest.mark.parametrize("args", list(TRIVIAL_DIGESTS))
def test_trivial_families_are_pinned(args):
    m, claim = trivial_cff(*args)
    assert (sha256((m, claim)), sha256(m.columns)) == TRIVIAL_DIGESTS[args]
    assert m.symmetries == ()


class TestTrivialDS:
    """trivial_cff's transpose is the trivial disjunct system: all w-subsets
    of the n blocks, or all (n-r)-subsets when those are fewer."""

    def test_singletons_when_i_side_smaller(self):
        m, _ = trivial_cff(4, 1, 2)
        assert transpose(m) == identity(4) and m.columns == subset_masks(4, 1)

    def test_transpose_is_cover_free(self):
        m, claim = trivial_cff(5, 2, 2)
        assert claim == CFFParams(w=2, r=2, d=0, N=10, T=5)
        assert m.columns == subset_masks(5, 2) == transpose(m).rows
        assert block_sizes(transpose(m)) == (2,) * 10
        assert is_cff(m, claim).ok

    def test_tie_prefers_i_subsets(self):
        m, _ = trivial_cff(4, 3, 1)
        assert m.num_points == 4 and block_sizes(transpose(m)) == (3, 3, 3, 3)

    @pytest.mark.parametrize("n,w,r", [(3, 2, 2), (3, 0, 1), (3, 1, 0)])
    def test_rejects(self, n, w, r):
        with pytest.raises(ValueError):
            trivial_cff(n, w, r)

    def test_point_cap(self, monkeypatch):
        # C(5, 2) = 10 subset points, refused before any is enumerated
        monkeypatch.setattr(construct, "DEFAULT_MAX_BLOCKS", 9)
        with pytest.raises(BudgetExceededError, match="^10 points exceed the cap of 9$"):
            trivial_cff(5, 2, 2)
        monkeypatch.setattr(construct, "DEFAULT_MAX_BLOCKS", 10)
        assert trivial_cff(5, 2, 2)[0].num_points == 10

    @given(st.integers(2, 6), st.integers(1, 2), st.integers(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_disjunct_both_routes(self, n, w, r):
        if w + r > n:
            return
        m, claim = trivial_cff(n, w, r)
        assert claim == CFFParams(w=w, r=r, d=0, N=m.num_points, T=n)
        assert is_disjunct(transpose(m), w, r).ok
        assert is_cff(m, claim).ok


class TestSperner:
    @pytest.mark.parametrize("N", range(2, 7))
    def test_middle_layer_family(self, N):
        m, claim = sperner_cff(N)
        assert claim == CFFParams(w=1, r=1, d=0, N=N, T=comb(N, N // 2), k=N // 2)
        assert claim.T == sperner_T(N)
        assert is_k_uniform(m, N // 2)
        assert is_cff(m, claim).ok

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            sperner_cff(1)

    def test_block_cap(self, monkeypatch):
        # C(5, 2) = 10 middle-layer blocks, refused before any is enumerated
        monkeypatch.setattr(construct, "DEFAULT_MAX_BLOCKS", 9)
        with pytest.raises(BudgetExceededError, match="^10 blocks exceed the cap of 9$"):
            sperner_cff(5)
        monkeypatch.setattr(construct, "DEFAULT_MAX_BLOCKS", 10)
        assert sperner_cff(5)[0].num_blocks == 10


class TestOrthogonalArray:
    @pytest.mark.parametrize("q,t", [(2, 2), (3, 2), (4, 2), (5, 3)])
    def test_polynomial_array_has_full_strength(self, q, t):
        oa = oa_construct(q, t)
        assert (oa.k, oa.s, oa.num_columns) == (q + 1, q, q**t)
        assert check_orthogonal_array(oa)

    @pytest.mark.parametrize("q,t", [(3, 0), (3, 4), (6, 2)])
    def test_rejects(self, q, t):
        with pytest.raises(ValueError):
            oa_construct(q, t)

    def test_tampering_detected(self):
        oa = oa_construct(3, 2)
        rows = [list(r) for r in oa.rows]
        rows[0][0] = (rows[0][0] + 1) % 3
        bad = OrthogonalArray(t=2, k=4, s=3, rows=tuple(map(tuple, rows)))
        assert not check_orthogonal_array(bad)

    def test_missing_row_detected(self):
        oa = oa_construct(3, 2)
        bad = OrthogonalArray(t=2, k=4, s=3, rows=oa.rows[:3])
        assert not check_orthogonal_array(bad)


class TestPacking:
    def test_from_orthogonal_array(self):
        p = oa_to_packing(oa_construct(3, 2))
        assert (p.v, p.k, p.t, len(p.blocks)) == (12, 4, 2, 9)
        assert check_packing(p)

    def test_duplicate_block_detected(self):
        p = oa_to_packing(oa_construct(3, 2))
        bad = PackingDesign(v=p.v, k=p.k, t=p.t, blocks=p.blocks[:1] + p.blocks)
        assert not check_packing(bad)

    def test_degenerate_blocks_detected(self):
        assert not check_packing(PackingDesign(v=4, k=2, t=2, blocks=((0, 0),)))
        assert not check_packing(PackingDesign(v=4, k=2, t=2, blocks=((0, 9),)))

    def test_point_is_row_times_symbols_plus_symbol(self):
        # the column (0, 1, 2) over three symbols
        oa = OrthogonalArray(t=1, k=3, s=3, rows=((0,), (1,), (2,)))
        assert oa_to_packing(oa).blocks == ((0, 4, 8),)

    def test_blocks_share_length_minus_distance_points(self):
        # the columns (0, 0, 1, 1) and (0, 1, 1, 0) lie at distance 2
        oa = OrthogonalArray(t=1, k=4, s=2, rows=((0, 0), (0, 1), (1, 1), (1, 0)))
        a, b = oa_to_packing(oa).blocks
        assert len(set(a) & set(b)) == 4 - 2

    def test_to_cff_with_separation(self):
        m, claim = packing_to_cff(oa_to_packing(oa_construct(3, 2)), d=1)
        assert claim == CFFParams(w=1, r=2, d=1, N=12, T=9, k=4)
        assert is_cff(m, claim).ok

    def test_rejects_exhausted_blocks(self):
        p = oa_to_packing(oa_construct(3, 2))
        with pytest.raises(ValueError):
            packing_to_cff(p, d=3)

    def test_rejects_weak_strength(self):
        p = PackingDesign(v=4, k=2, t=1, blocks=((0, 1), (2, 3)))
        with pytest.raises(ValueError):
            packing_to_cff(p)


class TestReedSolomon:
    def test_full_length_family(self):
        m, claim = rs_cff(5, 5, 4)
        assert claim == CFFParams(w=1, r=4, d=0, N=25, T=25, k=5)
        assert is_k_uniform(m, 5)

    @pytest.mark.parametrize("q", [3, 4, 5])
    def test_blocks_share_at_most_u_minus_one_points(self, q):
        # distance length - u + 1 is met exactly (the code is MDS)
        for length, r in product(range(2, q + 2), range(1, q + 1)):
            u = (length - 1) // r + 1
            if not 2 <= u <= q or q**u > 256:
                continue
            m, _ = rs_cff(q, length, r)
            shared = {(a & b).bit_count() for a, b in combinations(m.rows, 2)}
            assert max(shared) == u - 1

    def test_matches_orthogonal_array_route(self):
        m_rs, claim_rs = rs_cff(3, 4, 3)
        m_oa, claim_oa = packing_to_cff(oa_to_packing(oa_construct(3, 2)))
        assert claim_rs == claim_oa
        assert m_rs == m_oa
        assert is_cff(m_rs, claim_rs).ok

    def test_matches_packing_route(self):
        # every valid (q, N, r, d) with q <= 9 and at most 20 000 blocks
        # against the orthogonal array -> packing route rs_cff took before
        # it built its columns first
        points = 0
        for q in (2, 3, 4, 5, 7, 8, 9):
            for n, r, d in product(range(2, q + 2), range(1, q + 1), range(q)):
                u = rs_degree(n, r, d)
                if not 2 <= u <= q or q**u > 20_000:
                    continue
                m, claim = rs_cff(q, n, r, d)
                rows = tuple(_poly_values(q, u, n))
                m_ref, claim_ref = packing_to_cff(oa_to_packing(OrthogonalArray(u, n, q, rows)), d)
                assert m == m_ref
                assert claim == replace(claim_ref, r=r)
                # the columns it starts with are its rows transposed
                assert m.columns == IncidenceMatrix(m.num_points, m.rows).columns
                points += 1
        assert points == 388

    def test_shortened_with_separation(self):
        m, claim = rs_cff(5, 5, 2, 1)
        assert claim == CFFParams(w=1, r=2, d=1, N=25, T=25, k=5)
        assert is_cff(m, claim).ok

    @pytest.mark.parametrize(
        "args",
        [
            (5, 1, 2),  # N below 2
            (5, 7, 2),  # N above q+1
            (3, 3, 3),  # exponent collapses below 2
            (3, 4, 1),  # exponent exceeds q
            (5, 5, 0),  # r not positive
            (5, 5, 2, -1),  # d negative
            (6, 5, 2),  # q not a prime power
        ],
    )
    def test_rejects(self, args):
        with pytest.raises(ValueError):
            rs_cff(*args)

    def test_block_cap(self):
        with pytest.raises(BudgetExceededError):
            rs_cff(13, 14, 2)  # 13^7 blocks


def horner(F, coeffs, x):
    """sum(coeffs[i] * x^i) in F."""
    acc = 0
    for c in reversed(coeffs):
        acc = F.add[F.mul[acc][x]][c]
    return acc


def poly_words_by_digits(q, u, length):
    """Reference for the Horner-along-the-index evaluator: expand each index
    into its base-q digits and evaluate the polynomial at every point by
    Horner's rule; at length q+1 append the leading coefficient."""
    F = field(q)
    words = []
    for idx in range(q**u):
        coeffs = []
        rem = idx
        for _ in range(u):
            coeffs.append(rem % q)
            rem //= q
        word = [horner(F, coeffs, x) for x in range(min(length, q))]
        if length == q + 1:
            word.append(coeffs[-1])
        words.append(tuple(word))
    return words


def words_to_matrix(q, words):
    """Reference map: position i of a word holding symbol s is point i*q + s."""
    rows = (sum(1 << (i * q + s) for i, s in enumerate(word)) for word in words)
    return IncidenceMatrix(len(words[0]) * q, tuple(rows))


# every u with at most this many polynomials (9^9 words are out of reach)
MAX_POLYNOMIALS = 4096


class TestPolynomialEvaluator:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_orthogonal_array_matches_digit_expansion(self, q):
        for t in range(1, q + 1):
            if q**t > MAX_POLYNOMIALS:
                break
            expected = tuple(zip(*poly_words_by_digits(q, t, q + 1)))
            assert oa_construct(q, t).rows == expected

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_reed_solomon_matches_digit_expansion(self, q):
        for length in range(2, q + 2):
            for u in range(2, min(length, q) + 1):
                if q**u > MAX_POLYNOMIALS:
                    break
                words = tuple(poly_words_by_digits(q, u, length))
                expected = words_to_matrix(q, words)
                # r = 1 and d = length - u give exponent u
                m, _ = rs_cff(q, length, 1, length - u)
                assert m == expected


class TestSeparatingHash:
    """recursive_cff against the hash-family composition it folds in: the
    reference modular table and one substitution of the base into it."""

    @pytest.mark.parametrize("n,w,r", [(2, 1, 1), (5, 2, 2)])
    def test_modular_family_separates(self, n, w, r):
        table = modular_hash_table(n, w, r)
        assert len(table) == w * r + 1
        assert len(table[0]) == n * n
        assert check_separating(table, w, r)

    def test_compose_explicit(self):
        m, claim = recursive_cff(1, 1, 0, 1)
        assert claim == CFFParams(w=1, r=1, d=0, N=4, T=4)
        assert m.rows == (0b0101, 0b1001, 0b1010, 0b0110)
        assert m == hash_compose(trivial_cff(2, 1, 1)[0], modular_hash_table(2, 1, 1))
        assert is_cff(m, claim).ok

    @pytest.mark.parametrize("args", list(RECURSIVE_DIGESTS))
    def test_every_round_is_the_reference_composition(self, args):
        w, r, d, levels = args
        m, _ = recursive_cff(w, r, d, 0)
        for level in range(1, levels + 1):
            m = hash_compose(m, modular_hash_table(m.num_blocks, w, r))
            built, claim = recursive_cff(w, r, d, level)
            assert built == m
            assert claim == CFFParams(w=w, r=r, d=d, N=m.num_points, T=m.num_blocks)


class TestRecursive:
    def test_one_round_two_two(self):
        m, claim = recursive_cff(2, 2, 0, 1)
        assert claim == CFFParams(w=2, r=2, d=0, N=50, T=25)
        assert is_cff(m, claim).ok

    def test_one_round_with_separation(self):
        m, claim = recursive_cff(1, 1, 1, 1)
        assert claim == CFFParams(w=1, r=1, d=1, N=8, T=4)
        assert is_cff(m, claim).ok

    def test_zero_rounds_is_subset_base(self):
        m, claim = recursive_cff(1, 2)
        assert claim == CFFParams(w=1, r=2, d=0, N=3, T=3)
        assert is_cff(m, claim).ok

    def test_replicated_base(self):
        m, claim = recursive_cff(1, 1, 2)
        assert claim == CFFParams(w=1, r=1, d=2, N=6, T=2)
        assert is_cff(m, claim).ok

    def test_block_cap(self):
        with pytest.raises(BudgetExceededError):
            recursive_cff(2, 2, 0, 4)  # 5^16 blocks

    @pytest.mark.parametrize(
        "kwargs", [dict(w=0, r=1), dict(w=1, r=1, d=-1), dict(w=1, r=1, levels=-1)]
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            recursive_cff(**kwargs)

    def test_negative_round_count_names_levels(self):
        with pytest.raises(ValueError, match="levels must be non-negative"):
            recursive_cff(1, 2, 0, -1)

    @pytest.mark.parametrize(
        "args, u",
        [
            # level 0: the rotation of the n0 ground elements, block i -> i + 1
            ((1, 2, 0, 0), None),
            ((1, 2, 1, 0), None),
            # level l: the steps (u, 0) and (0, u), with u = 1 at level 1,
            # n0 at level 2 and n0^3 at level 3
            ((2, 2, 0, 1), 1),
            ((1, 2, 1, 2), 3),
            ((1, 1, 0, 3), 8),
        ],
    )
    def test_lists_translations_that_map_rows_onto_rows(self, args, u):
        m, _ = recursive_cff(*args)
        T = m.num_blocks
        if u is None:
            moves = [lambda i: (i + 1) % T]
        else:
            # block x*n + y goes to (x + a mod n)*n + (y + b mod n)
            n = round(T**0.5)
            moves = [
                lambda i, a=a, b=b: (i // n + a) % n * n + (i % n + b) % n
                for a, b in [(u, 0), (0, u)]
            ]
        assert len(m.symmetries) == len(moves)
        blocks = {row: i for i, row in enumerate(m.rows)}
        for perm, move in zip(m.symmetries, moves):
            assert sorted(perm) == list(range(m.num_points))
            for i, row in enumerate(m.rows):
                image = sum(1 << perm[p] for p in range(m.num_points) if row >> p & 1)
                assert blocks[image] == move(i)


class TestRandom:
    def test_default_size_small_profile(self):
        m, claim = random_cff(1, 1, 0, 4)
        assert (claim.N, claim.T) == (10, 4)
        assert is_cff(m, claim).ok

    def test_default_size_wider_profile(self):
        m, claim = random_cff(1, 2, 0, 8)
        assert (claim.N, claim.T) == (39, 8)
        assert is_cff(m, claim).ok

    def test_deterministic_per_seed(self):
        a, _ = random_cff(1, 1, 0, 4, seed=3)
        b, _ = random_cff(1, 1, 0, 4, seed=3)
        assert a == b

    def test_impossible_target_exhausts_attempts(self):
        with pytest.raises(ConstructionFailedError) as exc:
            random_cff(1, 1, 0, 4, N=2, max_attempts=3)
        assert exc.value.attempts == 3

    def test_rejects(self):
        with pytest.raises(ValueError):
            random_cff(1, 1, 0, 1)
        with pytest.raises(ValueError):
            random_cff(1, 1, 0, 4, max_attempts=0)

    def test_uniform_variant(self):
        m, claim = random_uniform_cff(2, 1, 1, 4)
        assert claim == CFFParams(w=1, r=1, d=17, N=130, T=4, k=65)
        assert is_k_uniform(m, 65)
        assert is_cff(m, claim).ok

    def test_uniform_rejects_degenerate_alphabet(self):
        with pytest.raises(ValueError):
            random_uniform_cff(1, 1, 1, 4)

    def test_uniform_rejects_an_alphabet_past_one_word_a_try(self):
        with pytest.raises(ValueError):
            random_uniform_cff(2**32, 1, 1, 4)


# Recorded with the per-draw builders (one randrange call a group, one
# random() call an entry), before uniform rows were drawn in bulk: one
# sha256 over repr((matrix, claim)) for seeds 0-4 at each of the random
# points of the certify benchmark pool.
RANDOM_DIGESTS = {
    (random_uniform_cff, (2, 1, 2, 8)): "a5180f284493ba2c20d031be02dff5ef83898b9b8205e3b616e716326ae5119e",
    (random_cff, (1, 2, 0, 12)): "fd50d2f46e9710986cad32c6a4d419cac89bd5dbea3ddeee9e460886902c4521",
    (random_cff, (2, 1, 0, 10)): "f561b543060e80d1cddb77675f35133e91283fee8d44b1231d4607cac0f12231",
}


@pytest.mark.parametrize("point", list(RANDOM_DIGESTS), ids=lambda p: f"{p[0].__name__}{p[1]}")
def test_random_families_are_pinned(point):
    build, args = point
    digest = hashlib.sha256()
    for seed in range(5):
        digest.update(repr(build(*args, seed=seed)).encode())
    assert digest.hexdigest() == RANDOM_DIGESTS[point]


# both sides of the byte table, alphabets past one byte and past two (65537
# keeps about half of its tries), and the largest, a whole word a try
BULK_ALPHABETS = (2, 3, 4, 5, 7, 16, 255, 256, 300, 65537, 2**32 - 1)


class TestBulkDraws:
    @pytest.mark.parametrize("n", BULK_ALPHABETS)
    def test_draws_are_the_randrange_calls(self, n):
        for seed in range(50):
            for count in (1, 2, 3, 31, 257, 1000, 2056, 3001):
                bulk, calls = random.Random(f"bulk:{seed}"), random.Random(f"bulk:{seed}")
                expected = [calls.randrange(n) for _ in range(count)]
                assert list(_randrange_draws(bulk, n, count)) == expected

    @pytest.mark.parametrize("ell", BULK_ALPHABETS[:-1])
    def test_rows_are_the_per_draw_rows(self, ell):
        # T * k from 1 to 2056 (the certify point's 8 rows of 257 groups),
        # fewer groups past the byte table, where a row holds k * ell bits
        shapes = [(1, 1), (1, 7), (5, 1), (3, 11), (8, 257)] if ell < 256 else [(1, 1), (2, 3), (4, 9)]
        for seed in range(50):
            for k, T in shapes:
                bulk, calls = random.Random(f"rows:{seed}"), random.Random(f"rows:{seed}")
                assert _uniform_rows(ell, k, bulk, T) == uniform_rows_per_draw(ell, k, calls, T)
