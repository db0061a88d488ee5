import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverfree import grouptest
from coverfree.construct import rs_cff
from coverfree.core import IncidenceMatrix
from coverfree.grouptest import TestOutcome as Outcome
from coverfree.grouptest import (
    SimulationStats,
    _positions,
    decode,
    encode,
    inject_errors,
    simulate,
)
from helpers import identity
from test_verify import counted


@pytest.fixture(scope="module")
def pooling_matrix():
    m, _ = rs_cff(3, 4, 3)
    return m


class TestOutcomeType:
    def test_vector(self):
        # bit j of the outcomes is pool j: blocks {1} and {3} light pools 1, 3
        outcome = encode(IncidenceMatrix(4, (0b0010, 0b1000)), {0, 1})
        assert outcome == Outcome(num_pools=4, outcomes=0b1010)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_pools=0, outcomes=0),
            dict(num_pools=2, outcomes=0b100),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            Outcome(**kwargs)


class TestEncode:
    def test_no_defectives_all_pools_negative(self, pooling_matrix):
        assert encode(pooling_matrix, set()).outcomes == 0

    def test_single_defective_reads_its_row(self, pooling_matrix):
        assert encode(pooling_matrix, {3}).outcomes == pooling_matrix.rows[3]

    def test_pools_accumulate_by_union(self, pooling_matrix):
        want = (
            pooling_matrix.rows[2] | pooling_matrix.rows[5] | pooling_matrix.rows[7]
        )
        assert encode(pooling_matrix, {2, 5, 7}).outcomes == want

    def test_unknown_block(self, pooling_matrix):
        with pytest.raises(IndexError):
            encode(pooling_matrix, {9})


class TestInjectErrors:
    def test_zero_flips_is_identity(self, pooling_matrix):
        o = encode(pooling_matrix, {1})
        assert inject_errors(o, 0) == o

    def test_zero_flips_build_no_stream(self, pooling_matrix, monkeypatch):
        def refuse(seed):
            raise AssertionError(f"a stream was seeded with {seed!r} for no flips")

        monkeypatch.setattr(grouptest.random, "Random", refuse)
        o = encode(pooling_matrix, {1})
        assert inject_errors(o, 0, seed=7) is o

    def test_full_flip_complements(self):
        o = Outcome(num_pools=5, outcomes=0b01100)
        flipped = inject_errors(o, 5)
        assert flipped.outcomes == 0b10011
        assert flipped.num_pools == 5
        assert o.outcomes ^ flipped.outcomes == 0b11111

    def test_deterministic(self, pooling_matrix):
        o = encode(pooling_matrix, {0, 4})
        assert inject_errors(o, 3, seed=9) == inject_errors(o, 3, seed=9)

    def test_same_flips_cancel(self, pooling_matrix):
        o = encode(pooling_matrix, {0, 4})
        once = inject_errors(o, 3, seed=9)
        twice = inject_errors(once, 3, seed=9)
        assert (o.outcomes ^ once.outcomes).bit_count() == 3
        assert twice.outcomes == o.outcomes
        assert twice.num_pools == o.num_pools

    @pytest.mark.parametrize("count", [-1, 13])
    def test_rejects_bad_count(self, pooling_matrix, count):
        o = encode(pooling_matrix, set())
        with pytest.raises(ValueError):
            inject_errors(o, count)


class TestDecode:
    def test_classical_rule(self):
        m = IncidenceMatrix(num_points=3, rows=(0b011, 0b101, 0b110))
        assert decode(m, encode(m, {0})) == {0}

    def test_all_positive_pools_accuse_everyone(self):
        m = IncidenceMatrix(num_points=3, rows=(0b011, 0b101, 0b110))
        assert decode(m, Outcome(num_pools=3, outcomes=0b111)) == {0, 1, 2}

    def test_pool_count_mismatch(self, pooling_matrix):
        with pytest.raises(ValueError):
            decode(pooling_matrix, Outcome(num_pools=3, outcomes=0))

    def test_negative_tolerance(self, pooling_matrix):
        o = encode(pooling_matrix, set())
        with pytest.raises(ValueError):
            decode(pooling_matrix, o, tolerance=-1)

    def test_exact_recovery_without_noise(self):
        m = identity(5)
        for size in range(5):
            for defectives in combinations(range(5), size):
                assert decode(m, encode(m, set(defectives))) == set(defectives)

    def test_exact_recovery_under_single_flips(self):
        # (1, 3; 2)-family: disjoint triples survive one flipped pool
        m = identity(4).replicate_points(3)
        for size in range(4):
            for defectives in combinations(range(4), size):
                honest = encode(m, set(defectives))
                for flip in (None, *range(12)):
                    o = honest
                    if flip is not None:
                        o = Outcome(12, honest.outcomes ^ (1 << flip))
                    assert decode(m, o, tolerance=1) == set(defectives)

    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.integers(0, 2**n - 1), min_size=2, max_size=5
                ).map(tuple),
                st.integers(0, 2**n - 1),
                st.integers(0, 2**n - 1),
                st.just(n),
            )
        ),
        st.integers(0, 2),
    )
    @settings(max_examples=120, deadline=None)
    def test_more_positive_pools_accuse_more(self, drawn, tolerance):
        rows, base, extra, n = drawn
        m = IncidenceMatrix(num_points=n, rows=rows)
        small = Outcome(n, base)
        large = Outcome(n, base | extra)
        assert decode(m, small, tolerance) <= decode(m, large, tolerance)


def decode_by_rows(m, o, tolerance):
    """Reference decoder: count each block's negative pools row by row."""
    negative = ~o.outcomes
    return {t for t, row in enumerate(m.rows) if (row & negative).bit_count() <= tolerance}


class TestDecodeMatchesRowScan:
    @given(
        st.integers(1, 70).flatmap(
            lambda n: st.tuples(
                st.just(n),
                # empty rows and rows in every pool are both drawn
                st.lists(
                    st.one_of(st.just(0), st.just(2**n - 1), st.integers(0, 2**n - 1)),
                    min_size=1,
                    max_size=40,
                ).map(tuple),
                st.integers(0, 2**n - 1),
            )
        ),
        st.integers(0, 3),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_matrices_and_outcomes(self, drawn, tolerance):
        n, rows, outcomes = drawn
        m = IncidenceMatrix(num_points=n, rows=rows)
        o = Outcome(n, outcomes)
        assert decode(m, o, tolerance) == decode_by_rows(m, o, tolerance)

    @pytest.mark.parametrize("tolerance", range(4))
    def test_noisy_rounds_on_a_design(self, tolerance):
        m, _ = rs_cff(7, 8, 2, 4)
        for seed in range(40):
            o = inject_errors(encode(m, {seed % 49, (3 * seed) % 49}), seed % 6, seed=seed)
            assert decode(m, o, tolerance) == decode_by_rows(m, o, tolerance)

    @pytest.mark.parametrize(
        "n, rows, outcomes, tolerance",
        [
            # one negative pool split three ways: two groups are empty
            (4, (0b0001, 0b0011, 0b1000, 0b1111, 0, 0b0110), 0b1110, 2),
            # two negative pools, four groups
            (5, (0b00001, 0b00011, 0b10001, 0b11111, 0b01110), 0b01110, 3),
            # tolerance at or above the pool count: every block passes
            (3, (0b111, 0b101, 0), 0b000, 3),
            (2, (0b11, 0b01, 0b10), 0b01, 5),
        ],
    )
    def test_fewer_negative_pools_than_groups(self, n, rows, outcomes, tolerance):
        m = IncidenceMatrix(num_points=n, rows=rows)
        o = Outcome(n, outcomes)
        assert decode(m, o, tolerance) == decode_by_rows(m, o, tolerance)

    @pytest.mark.parametrize("count", [5, 8, 12, 20])
    def test_far_more_defectives_than_the_design_takes(self, count):
        # r = 2: past it the class counter still counts exactly; each point
        # twice leaves no classes, and the filter weakens until the bit-plane
        # counters decide
        m, _ = rs_cff(7, 8, 2, 4)
        for design in (m, m.replicate_points(2)):
            for seed in range(10):
                rng = random.Random(seed)
                defectives = set(rng.sample(range(49), count))
                o = inject_errors(encode(design, defectives), rng.randint(0, 4), seed=seed)
                assert decode(design, o, 2) == decode_by_rows(design, o, 2)

    def test_every_item_decoded(self):
        m, _ = rs_cff(7, 8, 2, 4)
        everyone = Outcome(m.num_points, 2**m.num_points - 1)
        assert decode(m, everyone) == set(range(m.num_blocks))


def rows_read_within_the_guarantee(copies, tolerance):
    """The rows ``decode`` reads over 40 noisy rounds on rs_cff(7, 8, 2, 4)
    with each point ``copies`` times."""
    base, claim = rs_cff(7, 8, 2, 4)
    m = base.replicate_points(copies)
    copy, rows, _ = counted(m)
    for seed in range(40):
        rng = random.Random(seed)
        defectives = set(rng.sample(range(claim.T), rng.randint(0, claim.r)))
        o = inject_errors(encode(m, defectives), rng.randint(0, tolerance), seed=seed)
        assert decode(copy, o, tolerance) == defectives
    return rows.reads


class TestDecodeWork:
    """How many matrix rows ``decode`` reads (see ``test_verify.RowReads``)."""

    def test_rows_read_within_the_guarantee(self):
        # 8 classes of 7 points: counted by class, no row is read
        assert rows_read_within_the_guarantee(1, 2) == 0

    def test_rows_read_without_classes(self):
        # each point twice, so no classes: the filter leaves under 14
        # candidates a round; checking every block would read 40 * 49 =
        # 1960 rows, and a filter short of a group lets a different set
        # through
        assert rows_read_within_the_guarantee(2, 4) == 539

    def test_counters_decide_far_past_the_guarantee(self):
        base, _ = rs_cff(7, 8, 2, 4)
        for m, tolerance in ((base, 2), (base.replicate_points(2), 4)):
            copy, rows, _ = counted(m)
            for seed in range(10):
                rng = random.Random(seed)
                o = inject_errors(encode(m, set(rng.sample(range(49), 16))), 2, seed=seed)
                assert decode(copy, o, tolerance) == decode_by_rows(m, o, tolerance)
            # the class counter reads no row; without classes there are too
            # many candidates to check, and the bit-plane counters read none
            assert rows.reads == 0

    def test_tolerance_past_the_pool_count(self):
        # each point twice, so no classes; no block is in more than the
        # negative pools' count, so tolerance 10^6 passes every block, found
        # with one group more than there are negative pools
        m = rs_cff(7, 8, 2, 4)[0].replicate_points(2)
        copy, rows, _ = counted(m)
        o = encode(m, {3, 30})
        assert decode(copy, o, 10**6) == set(range(49)) == decode_by_rows(m, o, 10**6)
        # one row check a block
        assert rows.reads == 49

    @pytest.mark.parametrize(
        "count, reads",
        [
            # few positive pools: the positive columns, where the negative
            # ones would be 1896; the rounds with no defective and at most
            # 2 flips read none, since a block passes with 8 - 2 positive
            # pools at least
            (None, 331),
            # mostly positive pools: the negative columns, where the
            # positive ones would be 515
            (16, 45),
        ],
    )
    def test_class_counter_reads_the_fewer_side(self, count, reads):
        m, claim = rs_cff(7, 8, 2, 4)
        copy, _, columns = counted(m)
        copy._classes
        columns.reads = 0
        for seed in range(40 if count is None else 10):
            rng = random.Random(seed)
            size = rng.randint(0, claim.r) if count is None else count
            defectives = set(rng.sample(range(claim.T), size))
            flips = rng.randint(0, 2) if count is None else 2
            o = inject_errors(encode(m, defectives), flips, seed=seed)
            assert decode(copy, o, 2) == decode_by_rows(m, o, 2)
        assert columns.reads == reads

    @pytest.mark.parametrize("tolerance", range(4))
    def test_empty_rounds_read_nothing(self, tolerance):
        # no defective and at most tolerance flips: at most 2 * tolerance < 8
        # positive pools, too few for any block to pass
        m, _ = rs_cff(7, 8, 2, 4)
        copy, rows, columns = counted(m)
        copy._classes
        columns.reads = 0
        for flips in range(tolerance + 1):
            for seed in range(5):
                o = inject_errors(encode(m, set()), flips, seed=seed)
                assert decode(copy, o, tolerance) == set()
        assert rows.reads == columns.reads == 0


def rounds_at_the_bound(m, tolerance, seed):
    """Outcomes on a design with classes whose positive pools number
    len(classes) - tolerance and one fewer (at least 0): drawn at random,
    all in one class where they fit, and drawn from one block's pools, which
    at len(classes) - tolerance lets that block pass."""
    classes = m._classes
    rng = random.Random(seed)
    for count in {max(len(classes) - tolerance - c, 0) for c in (0, 1)}:
        yield Outcome(m.num_points, sum(1 << j for j in rng.sample(range(m.num_points), count)))
        start, stop = classes[rng.randrange(len(classes))]
        if count <= stop - start:
            yield Outcome(m.num_points, sum(1 << j for j in rng.sample(range(start, stop), count)))
        row = m.rows[rng.randrange(m.num_blocks)]
        points = [j for j in range(m.num_points) if row >> j & 1]
        yield Outcome(m.num_points, sum(1 << j for j in rng.sample(points, count)))


@st.composite
def transversal_designs(draw):
    """k groups of 1-4 points, in index order, and blocks holding one
    point of each group."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    starts = [sum(sizes[:g]) for g in range(len(sizes))]
    blocks = draw(
        st.lists(
            st.tuples(*(st.integers(s, s + size - 1) for s, size in zip(starts, sizes))),
            min_size=1,
            max_size=30,
        )
    )
    return IncidenceMatrix.from_blocks(sum(sizes), blocks), len(sizes)


def near_misses():
    """Variants of a transversal design whose points split into no classes."""
    m, _ = rs_cff(7, 8, 2, 4)
    n, rows = m.num_points, m.rows
    point = rows[0] & -rows[0]
    # block 0 also takes the next point of its first class
    overlap = (rows[0] | point << 1, *rows[1:])
    # block 0 drops its point of the first class
    short = (rows[0] ^ point, *rows[1:])
    # a trailing point held by the first two blocks
    trailing = (rows[0] | 1 << n, rows[1] | 1 << n, *rows[2:])
    # the last point taken out of every block
    zero = tuple(row & ~(1 << (n - 1)) for row in rows)
    order = list(range(n))
    random.Random(1).shuffle(order)
    shuffled = [[order[j] for j in range(n) if row >> j & 1] for row in rows]
    return {
        "overlap": IncidenceMatrix(n, overlap),
        "short": IncidenceMatrix(n, short),
        "trailing": IncidenceMatrix(n + 1, trailing),
        "zero": IncidenceMatrix(n, zero),
        "replicated": m.replicate_points(2),
        "shuffled": IncidenceMatrix.from_blocks(n, shuffled),
    }


@pytest.fixture(scope="module")
def screening_design():
    return rs_cff(13, 14, 3, 4)[0]


class TestDecodeByClass:
    @given(transversal_designs(), st.data(), st.integers(0, 4))
    @settings(max_examples=300, deadline=None)
    def test_transversal_designs(self, drawn, data, tolerance):
        m, k = drawn
        copy, rows, _ = counted(m)
        # every group is a class unless the last point is in no block
        assert len(copy._classes) == (k if m.columns[-1] else 0)
        o = Outcome(m.num_points, data.draw(st.integers(0, 2**m.num_points - 1)))
        assert decode(copy, o, tolerance) == decode_by_rows(m, o, tolerance)
        if copy._classes:
            assert rows.reads == 0

    @pytest.mark.parametrize("name", sorted(near_misses()))
    def test_near_misses_take_the_generic_path(self, name):
        m = near_misses()[name]
        assert m._classes == ()
        rng = random.Random(name)
        for tolerance in range(5):
            for _ in range(15):
                defectives = set(rng.sample(range(m.num_blocks), rng.randint(0, 6)))
                o = inject_errors(encode(m, defectives), rng.randint(0, 4), seed=rng.random())
                assert decode(m, o, tolerance) == decode_by_rows(m, o, tolerance)
            o = Outcome(m.num_points, rng.getrandbits(m.num_points))
            assert decode(m, o, tolerance) == decode_by_rows(m, o, tolerance)

    @pytest.mark.parametrize("count", range(4))
    @pytest.mark.parametrize("flips", range(3))
    def test_screening_design_within_the_guarantee(self, screening_design, count, flips):
        m = screening_design
        assert len(m._classes) == 14
        rng = random.Random(f"{count}:{flips}")
        for _ in range(2):
            defectives = set(rng.sample(range(m.num_blocks), count))
            o = inject_errors(encode(m, defectives), flips, seed=rng.random())
            assert decode(m, o, 2) == decode_by_rows(m, o, 2) == defectives

    def test_rounds_at_the_bound(self, screening_design):
        # from tolerance 0, where a block needs every class positive, to
        # len(classes) + 1, where every block passes and the bound never
        # fires
        for m in (rs_cff(7, 8, 2, 4)[0], screening_design):
            passed = 0
            for tolerance in range(len(m._classes) + 2):
                for seed in range(3):
                    for o in rounds_at_the_bound(m, tolerance, seed):
                        want = decode_by_rows(m, o, tolerance)
                        assert decode(m, o, tolerance) == want
                        passed += bool(want)
            # each tolerance lets a block through at least once a seed
            assert passed >= 3 * (len(m._classes) + 2)

    @pytest.mark.parametrize("count", [5, 12, 20, 60])
    def test_screening_design_past_the_guarantee(self, screening_design, count):
        m = screening_design
        rng = random.Random(count)
        for tolerance in (0, 2):
            defectives = set(rng.sample(range(m.num_blocks), count))
            o = inject_errors(encode(m, defectives), rng.randint(0, 4), seed=rng.random())
            assert decode(m, o, tolerance) == decode_by_rows(m, o, tolerance)

    def test_positions_lists_every_set_bit(self, screening_design):
        width = screening_design.num_blocks
        rng = random.Random(0)
        counts = [0, 1, width // 64 - 1, width // 64, width // 64 + 1, width // 4]
        masks = [sum(1 << t for t in rng.sample(range(width), c)) for c in counts]
        masks += [1 | 1 << (width - 1), 0xFF << 8 * 100, (1 << width) - 1]
        for mask in masks:
            assert _positions(mask) == {t for t in range(width) if mask >> t & 1}


class TestSimulate:
    @pytest.mark.parametrize(
        "design, seed, max_errors, want",
        [
            # recorded with the row-scan decoder; flips beyond d // 2 make
            # both error tallies non-zero
            ((4, 5, 1, 2), 12, 3, (300, 244, 90, 7, 1, 3)),
            ((7, 8, 2, 4), 6, 5, (300, 298, 1, 1, 2, 5)),
            ((7, 8, 2, 4), 5, None, (300, 300, 0, 0, 2, 2)),
            # the same matrix at r = 1: half the rounds have no defective,
            # and those with at most 4 flips decode to no item without
            # reading a column
            ((7, 8, 1, 6), 3, 6, (300, 298, 2, 0, 3, 6)),
        ],
    )
    def test_pinned_stats(self, design, seed, max_errors, want):
        m, claim = rs_cff(*design)
        stats = simulate(m, claim.r, claim.d, trials=300, seed=seed, max_errors=max_errors)
        assert stats == SimulationStats(*want)

    def test_deterministic(self, pooling_matrix):
        a = simulate(pooling_matrix, r=3, d=0, trials=40, seed=5)
        b = simulate(pooling_matrix, r=3, d=0, trials=40, seed=5)
        assert a == b

    def test_perfect_within_guarantee(self):
        m = identity(4).replicate_points(3)
        stats = simulate(m, r=3, d=2, trials=60)
        assert stats.exact_rate == 1.0
        assert stats.false_positives == stats.false_negatives == 0
        assert (stats.tolerance, stats.max_errors) == (1, 1)

    def test_beyond_guarantee_reports_honestly(self):
        m = identity(4)
        stats = simulate(m, r=2, d=0, trials=50, max_errors=3)
        assert stats.max_errors == 3 and stats.tolerance == 0
        assert 0 <= stats.exact <= stats.trials
        # every inexact trial shows up in at least one error tally
        assert stats.false_positives + stats.false_negatives >= stats.trials - stats.exact

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(r=2, d=0, trials=0),
            dict(r=10, d=0, trials=5),
            dict(r=2, d=-1, trials=5),
            dict(r=2, d=0, trials=5, max_errors=99),
        ],
    )
    def test_rejects(self, pooling_matrix, kwargs):
        with pytest.raises(ValueError):
            simulate(pooling_matrix, **kwargs)
