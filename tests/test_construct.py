import hashlib
import random
from dataclasses import replace
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverfree.bounds import sperner_T
from coverfree.core import CFFParams, IncidenceMatrix
from coverfree.construct import (
    ConstructionFailedError,
    _poly_values,
    _randrange_draws,
    _translations,
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
    shf_compose,
    shf_modular,
    sperner_cff,
    trivial_cff,
    trivial_ds,
)
from coverfree.gf import field
from coverfree.verify import BudgetExceededError, is_cff, is_k_uniform
from helpers import (
    block_sizes,
    check_orthogonal_array,
    identity,
    is_disjunct,
    rs_degree,
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


def check_separating(shf):
    """Reference oracle: every disjoint (w, r) column pair has a row that
    maps the two sides to disjoint symbol sets."""
    cols = range(shf.num_columns)
    for c1 in combinations(cols, shf.w):
        rest = [c for c in cols if c not in c1]
        for c2 in combinations(rest, shf.r):
            if not any(not ({row[c] for c in c1} & {row[c] for c in c2}) for row in shf.rows):
                return False
    return True


class TestTrivialDS:
    def test_singletons_when_i_side_smaller(self):
        assert trivial_ds(4, 1, 2) == identity(4)

    def test_transpose_is_cover_free(self):
        m = trivial_ds(5, 2, 2)
        assert m.num_blocks == 10 and block_sizes(m) == (2,) * 10
        claim = CFFParams(w=2, r=2, d=0, N=10, T=5)
        assert trivial_cff(5, 2, 2) == (m.transpose(), claim)
        for t in (m.transpose(), trivial_cff(5, 2, 2)[0]):
            assert is_cff(t, claim).ok

    def test_tie_prefers_i_subsets(self):
        m = trivial_ds(4, 3, 1)
        assert m.num_blocks == 4 and block_sizes(m) == (3, 3, 3, 3)

    @pytest.mark.parametrize("n,i,j", [(3, 2, 2), (3, 0, 1), (3, 1, 0)])
    def test_rejects(self, n, i, j):
        with pytest.raises(ValueError):
            trivial_ds(n, i, j)

    @given(st.integers(2, 6), st.integers(1, 2), st.integers(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_disjunct_both_routes(self, n, i, j):
        if i + j > n:
            return
        m = trivial_ds(n, i, j)
        assert is_disjunct(m, i, j).ok
        claim = CFFParams(w=i, r=j, d=0, N=m.num_blocks, T=n)
        assert is_cff(m.transpose(), claim).ok


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
        # it built its columns first, with its translations as symmetries
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
                assert m.symmetries == _translations(q, u, n)
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
    @pytest.mark.parametrize("n,w,r", [(2, 1, 1), (5, 2, 2)])
    def test_modular_family_separates(self, n, w, r):
        shf = shf_modular(n, w, r)
        assert shf.num_functions == w * r + 1
        assert shf.num_columns == n * n
        assert check_separating(shf)

    def test_rejects_small_or_smooth_modulus(self):
        with pytest.raises(ValueError):
            shf_modular(2, 1, 2)
        with pytest.raises(ValueError):
            shf_modular(6, 2, 2)

    def test_compose_explicit(self):
        base = trivial_ds(2, 1, 1).transpose()
        base_claim = CFFParams(w=1, r=1, d=0, N=2, T=2)
        m, claim = shf_compose(base, base_claim, shf_modular(2, 1, 1))
        assert claim == CFFParams(w=1, r=1, d=0, N=4, T=4)
        assert m.rows == (0b0101, 0b1001, 0b1010, 0b0110)
        assert is_cff(m, claim).ok

    def test_compose_rejects_mismatches(self):
        base = identity(5)
        claim = CFFParams(w=1, r=1, d=0, N=5, T=5)
        with pytest.raises(ValueError, match="symbols"):
            shf_compose(identity(3), claim, shf_modular(5, 1, 1))
        with pytest.raises(ValueError, match="profile"):
            shf_compose(base, claim, shf_modular(5, 2, 2))


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
